package frontier

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"perseus/internal/gpu"
)

// A LookupTable travels as a PLT1 body, little-endian throughout:
//
//	header     "PLT1" | unit_s f64 | tmin_units i64 | tstar_units i64 |
//	           point count u32 | computation count u32
//	point 0    time_units i64 | energy_j f64 | freq_mhz u32 per computation
//	point i>0  time_units i64 | energy_j f64 | change count u32 |
//	           that many (computation u32, freq_mhz u32) pairs
//
// A later point lists only the computations whose frequency differs from
// the point before it, by increasing computation index: consecutive
// points of a characterized table differ in a few of hundreds. The floats
// are the table's float64s bit for bit.
const (
	tableMagic      = "PLT1"
	tableHeaderSize = 4 + 8 + 8 + 8 + 4 + 4
	pointHeadSize   = 8 + 8 // time_units, energy_j
	changeSize      = 4 + 4 // computation, freq_mhz

	// maxTableCells bounds points × computations (a point counting as at
	// least one cell), so a body cannot make LoadTable size a table
	// beyond 2²⁴ frequencies: 64 MiB materialized.
	maxTableCells = 1 << 24
)

var le = binary.LittleEndian

func tableError(format string, args ...any) error {
	return fmt.Errorf("frontier: lookup table (PLT1): "+format, args...)
}

// tableCells is the number of cells points × computations is counted as
// against maxTableCells.
func tableCells(points, comps uint64) uint64 { return points * max(comps, 1) }

// Save writes the table as a PLT1 body in one Write. It refuses what the
// body cannot carry or LoadTable would not size: points whose plans
// differ in length, a frequency outside uint32, and more than 2²⁴
// points × computations.
func (lt *LookupTable) Save(w io.Writer) error {
	body, err := lt.marshal()
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// marshal returns the table's PLT1 body. A first pass checks every
// frequency and counts the changes, so the body is allocated once.
func (lt *LookupTable) marshal() ([]byte, error) {
	n, c := len(lt.Points), 0
	if n > 0 {
		c = len(lt.Points[0].Freqs)
	}
	if tableCells(uint64(n), uint64(c)) > maxTableCells {
		return nil, tableError("%d points × %d computations exceed 2²⁴", n, c)
	}
	changes := 0
	for i, pt := range lt.Points {
		if len(pt.Freqs) != c {
			return nil, tableError("point %d has %d frequencies, want %d", i, len(pt.Freqs), c)
		}
		for k, f := range pt.Freqs {
			if uint64(f) > math.MaxUint32 {
				return nil, tableError("point %d's computation %d runs at %d MHz, not a uint32", i, k, f)
			}
			if i > 0 && f != lt.Points[i-1].Freqs[k] {
				changes++
			}
		}
	}
	b := make([]byte, 0, tableHeaderSize+pointHeadSize+4*c+max(n-1, 0)*(pointHeadSize+4)+changeSize*changes)
	b = append(b, tableMagic...)
	b = le.AppendUint64(b, math.Float64bits(lt.Unit))
	b = le.AppendUint64(b, uint64(lt.TminUnits))
	b = le.AppendUint64(b, uint64(lt.TStarUnits))
	b = le.AppendUint32(b, uint32(n))
	b = le.AppendUint32(b, uint32(c))
	for i, pt := range lt.Points {
		b = le.AppendUint64(b, uint64(pt.TimeUnits))
		b = le.AppendUint64(b, math.Float64bits(pt.Energy))
		if i == 0 {
			for _, f := range pt.Freqs {
				b = le.AppendUint32(b, uint32(f))
			}
			continue
		}
		count := len(b)
		b = le.AppendUint32(b, 0)
		prev := lt.Points[i-1].Freqs
		for k, f := range pt.Freqs {
			if f != prev[k] {
				b = le.AppendUint32(b, uint32(k))
				b = le.AppendUint32(b, uint32(f))
			}
		}
		le.PutUint32(b[count:], uint32((len(b)-count-4)/changeSize))
	}
	return b, nil
}

// LoadTable reads and validates a table written by Save, and prunes it
// to its Pareto set as Characterize does (a saved table may still hold
// points a faster one dominates). A saved table is outside input, and
// every walk over it (Descend's callers) orders steps by slopes of time
// and average power, so each point's time must be positive, finite and
// rising, and its average power positive and finite.
func LoadTable(r io.Reader) (*LookupTable, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("frontier: reading lookup table: %w", err)
	}
	lt, err := decodeTable(body)
	if err != nil {
		return nil, err
	}
	if lt.Unit <= 0 {
		return nil, fmt.Errorf("frontier: lookup table has non-positive unit %v", lt.Unit)
	}
	for i, pt := range lt.Points {
		t, p := lt.PointTime(i), lt.AvgPower(i)
		switch {
		case pt.TimeUnits <= 0:
			return nil, fmt.Errorf("frontier: point %d has non-positive time_units %d", i, pt.TimeUnits)
		case math.IsInf(t, 0):
			return nil, fmt.Errorf("frontier: point %d time overflows: unit_s %v × time_units %d", i, lt.Unit, pt.TimeUnits)
		case i > 0 && t <= lt.PointTime(i-1):
			return nil, fmt.Errorf("frontier: lookup table times not increasing at point %d", i)
		case !(p > 0) || math.IsInf(p, 0):
			return nil, fmt.Errorf("frontier: point %d has energy_j %v: average power %v W is not positive and finite", i, pt.Energy, p)
		}
	}
	if lt.Points[0].TimeUnits != lt.TminUnits || lt.Points[len(lt.Points)-1].TimeUnits != lt.TStarUnits {
		return nil, fmt.Errorf("frontier: lookup table endpoints do not match Tmin/T*")
	}
	lt.Points = paretoSet(lt.Points, func(p TablePoint) float64 { return p.Energy })
	lt.TStarUnits = lt.Points[len(lt.Points)-1].TimeUnits
	return lt, nil
}

// decodeTable reads a PLT1 body into a table of at least one point whose
// plans share one array, as Table's do. It checks the framing first and
// refuses, before anything is allocated, a wrong magic, a body cut short
// or followed by anything, a count the bytes left cannot hold, a change
// to a computation out of range or out of order, and more than 2²⁴
// points × computations. A change that repeats the frequency before it
// is refused too, so a table has one body. The table is three
// allocations whatever its size.
func decodeTable(data []byte) (*LookupTable, error) {
	if len(data) < tableHeaderSize {
		return nil, tableError("the %d-byte body is shorter than the header", len(data))
	}
	if string(data[:4]) != tableMagic {
		return nil, tableError("the body starts with %q, not %q", data[:4], tableMagic)
	}
	n, c := int(le.Uint32(data[28:])), int(le.Uint32(data[32:]))
	if n == 0 {
		return nil, tableError("the table has no points")
	}
	if tableCells(uint64(n), uint64(c)) > maxTableCells {
		return nil, tableError("%d points × %d computations exceed 2²⁴", n, c)
	}
	rest := data[tableHeaderSize:]
	if uint64(len(rest)) < pointHeadSize+4*uint64(c) {
		return nil, tableError("point 0's %d frequencies need %d bytes; %d are left", c, pointHeadSize+4*c, len(rest))
	}
	off := pointHeadSize + 4*c
	for i := 1; i < n; i++ {
		if len(rest)-off < pointHeadSize+4 {
			return nil, tableError("point %d of %d is cut short", i, n)
		}
		k := int(le.Uint32(rest[off+pointHeadSize:]))
		off += pointHeadSize + 4
		if uint64(k)*changeSize > uint64(len(rest)-off) {
			return nil, tableError("point %d claims %d changes; %d bytes are left", i, k, len(rest)-off)
		}
		last := -1
		for j := range k {
			comp := int(le.Uint32(rest[off+changeSize*j:]))
			if comp >= c {
				return nil, tableError("point %d changes computation %d of %d", i, comp, c)
			}
			if comp <= last {
				return nil, tableError("point %d lists computation %d after %d", i, comp, last)
			}
			last = comp
		}
		off += changeSize * k
	}
	if off != len(rest) {
		return nil, tableError("%d bytes follow the last point", len(rest)-off)
	}

	lt := &LookupTable{
		Unit:       math.Float64frombits(le.Uint64(data[4:])),
		TminUnits:  int64(le.Uint64(data[12:])),
		TStarUnits: int64(le.Uint64(data[20:])),
		Points:     make([]TablePoint, n),
	}
	freqs := make([]gpu.Frequency, n*c)
	off = 0
	for i := range lt.Points {
		plan := freqs[i*c : (i+1)*c : (i+1)*c]
		lt.Points[i] = TablePoint{
			TimeUnits: int64(le.Uint64(rest[off:])),
			Energy:    math.Float64frombits(le.Uint64(rest[off+8:])),
			Freqs:     plan,
		}
		off += pointHeadSize
		if i == 0 {
			for k := range plan {
				plan[k] = gpu.Frequency(le.Uint32(rest[off+4*k:]))
			}
			off += 4 * c
			continue
		}
		copy(plan, freqs[(i-1)*c:i*c])
		k := int(le.Uint32(rest[off:]))
		off += 4
		for range k {
			comp, f := le.Uint32(rest[off:]), gpu.Frequency(le.Uint32(rest[off+4:]))
			if plan[comp] == f {
				return nil, tableError("point %d changes computation %d to the %d MHz it already runs at", i, comp, f)
			}
			plan[comp] = f
			off += changeSize
		}
	}
	return lt, nil
}
