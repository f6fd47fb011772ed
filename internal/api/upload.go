package api

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"perseus/internal/sched"
)

// A ProfileUpload travels as a PPF1 body, little-endian throughout:
//
//	header  "PPF1" | p_blocking_w f64 | type count u32
//	row     virtual u32 | kind u8 (0 forward, 1 backward) | n u32 |
//	        freq_mhz n×u32 | time_s n×f64 | energy_j n×f64
//
// The floats are the measured float64s bit for bit: nothing is written as
// decimal text or parsed back.
const (
	profileMagic = "PPF1"
	headerSize   = 4 + 8 + 4
	rowSize      = 4 + 1 + 4 // a row's header
	entrySize    = 4 + 8 + 8 // one measurement across the three columns
)

var le = binary.LittleEndian

// kinds are the wire names of the computation kinds a profile carries,
// indexed by sched.Kind; a kind's index is also its code in the body.
var kinds = [...]string{sched.Forward: "forward", sched.Backward: "backward"}

// KindName is a kind's wire name; every kind but sched.Backward travels
// as "forward".
func KindName(k sched.Kind) string {
	if k != sched.Backward {
		k = sched.Forward
	}
	return kinds[k]
}

// ParseKind maps a wire name back to its kind, accepting exactly the
// names KindName writes.
func ParseKind(name string) (sched.Kind, error) {
	if k := slices.Index(kinds[:], name); k >= 0 {
		return sched.Kind(k), nil
	}
	return 0, fmt.Errorf("kind %q is neither forward nor backward", name)
}

func formatError(format string, args ...any) error {
	return fmt.Errorf("profile upload (PPF1): "+format, args...)
}

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// MarshalBinary writes one row per computation type, in the order the
// types first appear, each keeping its measurements' order. Like
// json.Marshal with a NaN, it refuses what the body cannot carry: a kind
// other than "forward" or "backward", a stage or frequency outside
// uint32, and a NaN or ±Inf time, energy or p_blocking_w.
func (up ProfileUpload) MarshalBinary() ([]byte, error) {
	if !finite(up.PBlocking) {
		return nil, formatError("p_blocking_w is %v", up.PBlocking)
	}
	type typeKey struct {
		virtual int
		kind    byte
	}
	type row struct {
		typeKey
		n, base, j int // measurements, the columns' offset, the next to write
	}
	var rows []row
	index := map[typeKey]int{}
	for _, m := range up.Measurements {
		k, err := ParseKind(m.Kind)
		if err != nil {
			return nil, formatError("%v", err)
		}
		if uint64(m.Virtual) > math.MaxUint32 || uint64(m.Freq) > math.MaxUint32 {
			return nil, formatError("stage %d or frequency %d is not a uint32", m.Virtual, m.Freq)
		}
		if !finite(m.Time) || !finite(m.Energy) {
			return nil, formatError("type %d %s at %d MHz: time %v, energy %v", m.Virtual, m.Kind, m.Freq, m.Time, m.Energy)
		}
		key := typeKey{m.Virtual, byte(k)}
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, row{typeKey: key})
		}
		rows[i].n++
	}
	if uint64(len(up.Measurements)) > math.MaxUint32 {
		return nil, formatError("%d measurements do not fit a uint32 count", len(up.Measurements))
	}
	buf := make([]byte, headerSize+rowSize*len(rows)+entrySize*len(up.Measurements))
	copy(buf, profileMagic)
	le.PutUint64(buf[4:], math.Float64bits(up.PBlocking))
	le.PutUint32(buf[12:], uint32(len(rows)))
	off := headerSize
	for i := range rows {
		r := &rows[i]
		le.PutUint32(buf[off:], uint32(r.virtual))
		buf[off+4] = r.kind
		le.PutUint32(buf[off+5:], uint32(r.n))
		r.base = off + rowSize
		off = r.base + entrySize*r.n
	}
	for _, m := range up.Measurements {
		k, _ := ParseKind(m.Kind)
		r := &rows[index[typeKey{m.Virtual, byte(k)}]]
		le.PutUint32(buf[r.base+4*r.j:], uint32(m.Freq))
		le.PutUint64(buf[r.base+4*r.n+8*r.j:], math.Float64bits(m.Time))
		le.PutUint64(buf[r.base+12*r.n+8*r.j:], math.Float64bits(m.Energy))
		r.j++
	}
	return buf, nil
}

// UnmarshalBinary reads a PPF1 body into Measurements, row after row.
// Every type's measurements keep their order; the interleaving of types
// does not survive, and nothing downstream reads it. A type may take
// several rows, and a row may be empty.
//
// It refuses a wrong magic, a kind code other than 0 or 1, a NaN or ±Inf
// float (p_blocking_w included), and a body cut short or followed by
// anything. Every count is checked against the bytes left before
// anything is sliced or allocated, and the measurements are allocated
// once. On an error up is left as it was.
func (up *ProfileUpload) UnmarshalBinary(data []byte) error {
	if len(data) < headerSize {
		return formatError("the %d-byte body is shorter than the header", len(data))
	}
	if string(data[:4]) != profileMagic {
		return formatError("the body starts with %q, not %q", data[:4], profileMagic)
	}
	pBlocking := math.Float64frombits(le.Uint64(data[4:]))
	if !finite(pBlocking) {
		return formatError("p_blocking_w is %v", pBlocking)
	}
	// The row headers first: each is checked against the bytes left, and
	// the measurements are counted.
	types := le.Uint32(data[12:])
	total := 0
	rest := data[headerSize:]
	for t := range types {
		if len(rest) < rowSize {
			return formatError("row %d of %d is cut short", t, types)
		}
		if rest[4] >= byte(len(kinds)) {
			return formatError("row %d has kind code %d, not 0 (forward) or 1 (backward)", t, rest[4])
		}
		n := le.Uint32(rest[5:])
		if uint64(n)*entrySize > uint64(len(rest)-rowSize) {
			return formatError("row %d claims %d measurements; %d bytes are left", t, n, len(rest)-rowSize)
		}
		total += int(n)
		rest = rest[rowSize+entrySize*int(n):]
	}
	if len(rest) != 0 {
		return formatError("%d bytes follow the last row", len(rest))
	}
	ms := make([]MeasurementJSON, total)
	rest = data[headerSize:]
	for i := 0; len(rest) > 0; {
		virtual, kind, n := int(le.Uint32(rest)), kinds[rest[4]], int(le.Uint32(rest[5:]))
		freq, time, energy := rest[rowSize:], rest[rowSize+4*n:], rest[rowSize+12*n:]
		for j := range n {
			m := &ms[i+j]
			m.Virtual, m.Kind, m.Freq = virtual, kind, int(le.Uint32(freq[4*j:]))
			m.Time = math.Float64frombits(le.Uint64(time[8*j:]))
			m.Energy = math.Float64frombits(le.Uint64(energy[8*j:]))
			if !finite(m.Time) || !finite(m.Energy) {
				return formatError("type %d %s at %d MHz: time %v, energy %v", virtual, kind, m.Freq, m.Time, m.Energy)
			}
		}
		i += n
		rest = rest[rowSize+entrySize*n:]
	}
	*up = ProfileUpload{PBlocking: pBlocking, Measurements: ms}
	return nil
}
