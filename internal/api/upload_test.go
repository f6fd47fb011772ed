package api

import (
	"bytes"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"
)

// grouped is ms regrouped as the body carries them: by type, the types in
// order of first appearance, each type's measurements in their order.
func grouped(ms []MeasurementJSON) []MeasurementJSON {
	var out, seen []MeasurementJSON
	for _, m := range ms {
		first := true
		for _, s := range seen {
			if s.Virtual == m.Virtual && s.Kind == m.Kind {
				first = false
			}
		}
		if !first {
			continue
		}
		seen = append(seen, m)
		for _, o := range ms {
			if o.Virtual == m.Virtual && o.Kind == m.Kind {
				out = append(out, o)
			}
		}
	}
	return out
}

// sameBits reports whether two measurement lists are equal, floats bit
// for bit.
func sameBits(a, b []MeasurementJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Virtual != b[i].Virtual || a[i].Kind != b[i].Kind || a[i].Freq != b[i].Freq ||
			math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) ||
			math.Float64bits(a[i].Energy) != math.Float64bits(b[i].Energy) {
			return false
		}
	}
	return true
}

// FuzzProfileUploadRoundTrip encodes a fuzzed upload — types interleaved
// in any order, frequencies repeated, floats anywhere in float64's range
// including subnormals, ±0 and the extremes — and decodes it again. Every
// float must come back with its bits, each type's measurements in their
// order, and the types in the order they first appear. A NaN or ±Inf
// p_blocking_w is refused by the encoder.
func FuzzProfileUploadRoundTrip(f *testing.F) {
	f.Add(75.0, []byte{0, 0, 1, 1, 0, 0, 2, 1, 1})
	f.Add(math.SmallestNonzeroFloat64, []byte{3, 1, 0, 3, 1, 0, 3, 0, 7, 1, 1, 255})
	f.Add(-0.0, []byte{})
	f.Add(math.MaxFloat64, []byte{9, 0, 4, 2, 1, 4, 9, 0, 4, 2, 1, 4, 9, 0, 4})
	f.Fuzz(func(t *testing.T, pBlocking float64, ops []byte) {
		extremes := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
			math.MaxFloat64, 1e-7, 1e21, 0.1, 1.0 / 3, -2.5e-300, math.Nextafter(1, 2)}
		up := ProfileUpload{PBlocking: pBlocking}
		types := map[[2]int]bool{}
		for k := 0; len(ops) >= 3; k, ops = k+1, ops[3:] {
			kind := "forward"
			if ops[1]&1 == 1 {
				kind = "backward"
			}
			x := math.Float64frombits(uint64(ops[0])<<56 | uint64(ops[1])<<40 | uint64(ops[2])<<8 | uint64(k))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = extremes[k%len(extremes)]
			}
			up.Measurements = append(up.Measurements, MeasurementJSON{
				Virtual: int(ops[0] % 4), Kind: kind, Freq: 1410 - 15*int(ops[2]%8),
				Time: x, Energy: extremes[int(ops[2])%len(extremes)],
			})
			types[[2]int{int(ops[0] % 4), int(ops[1] & 1)}] = true
		}
		buf, err := up.MarshalBinary()
		if math.IsNaN(pBlocking) || math.IsInf(pBlocking, 0) {
			if err == nil {
				t.Fatalf("p_blocking_w %v encoded without an error", pBlocking)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := headerSize + rowSize*len(types) + entrySize*len(up.Measurements); len(buf) != want {
			t.Fatalf("%d types and %d measurements encoded in %d bytes, want %d", len(types), len(up.Measurements), len(buf), want)
		}
		var got ProfileUpload
		if err := got.UnmarshalBinary(buf); err != nil {
			t.Fatalf("decoding %x: %v", buf, err)
		}
		if math.Float64bits(got.PBlocking) != math.Float64bits(up.PBlocking) {
			t.Fatalf("p_blocking_w %v came back %v", up.PBlocking, got.PBlocking)
		}
		if want := grouped(up.Measurements); !sameBits(got.Measurements, want) {
			t.Fatalf("sent (grouped) %+v, got %+v", want, got.Measurements)
		}
	})
}

// TestProfileUploadIsRows pins the body's layout: the header, then one
// row per type in order of first appearance, each row's three columns
// contiguous, little-endian throughout.
func TestProfileUploadIsRows(t *testing.T) {
	up := ProfileUpload{PBlocking: 75, Measurements: []MeasurementJSON{
		{Virtual: 0, Kind: "forward", Freq: 1410, Time: 0.5, Energy: 100},
		{Virtual: 0, Kind: "backward", Freq: 1410, Time: 1, Energy: 200},
		{Virtual: 0, Kind: "forward", Freq: 1395, Time: 0.25, Energy: 90},
	}}
	buf, err := up.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join([]string{
		"50504631", "0000000000c05240", "02000000", // "PPF1", p_blocking_w 75, 2 types
		"00000000", "00", "02000000", // stage 0, forward, 2 measurements
		"82050000", "73050000", // 1410, 1395 MHz
		"000000000000e03f", "000000000000d03f", // 0.5, 0.25 s
		"0000000000005940", "0000000000805640", // 100, 90 J
		"00000000", "01", "01000000", // stage 0, backward, 1 measurement
		"82050000", "000000000000f03f", "0000000000006940", // 1410 MHz, 1 s, 200 J
	}, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("body\n%x\nwant\n%x", buf, want)
	}
}

// ppf1 assembles a body field by field, so that a test can write one the
// encoder would not: a string or byte as is, a uint32 or float64
// little-endian.
func ppf1(fields ...any) []byte {
	var b []byte
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			b = append(b, v...)
		case byte:
			b = append(b, v)
		case uint32:
			b = le.AppendUint32(b, v)
		case float64:
			b = le.AppendUint64(b, math.Float64bits(v))
		default:
			panic("ppf1: a field of a type the body has no place for")
		}
	}
	return b
}

// TestProfileUploadRejects: the encoder refuses what the body cannot
// carry, and the decoder a body that is not PPF1, that is cut short or
// followed by anything, or that carries an unknown kind or a non-finite
// float; each error names the format.
func TestProfileUploadRejects(t *testing.T) {
	ok := MeasurementJSON{Virtual: 0, Kind: "forward", Freq: 1410, Time: 1, Energy: 3}
	with := func(edit func(*MeasurementJSON)) ProfileUpload {
		m := ok
		edit(&m)
		return ProfileUpload{PBlocking: 75, Measurements: []MeasurementJSON{ok, m}}
	}
	for _, tc := range []struct {
		up  ProfileUpload
		msg string
	}{
		{ProfileUpload{PBlocking: math.NaN()}, "p_blocking_w is NaN"},
		{ProfileUpload{PBlocking: math.Inf(-1)}, "p_blocking_w is -Inf"},
		{with(func(m *MeasurementJSON) { m.Kind = "sideways" }), `kind "sideways"`},
		{with(func(m *MeasurementJSON) { m.Kind = "Forward" }), `kind "Forward"`},
		{with(func(m *MeasurementJSON) { m.Virtual = -1 }), "stage -1"},
		{with(func(m *MeasurementJSON) { m.Freq = math.MaxUint32 + 1 }), "frequency 4294967296"},
		{with(func(m *MeasurementJSON) { m.Time = math.NaN() }), "time NaN"},
		{with(func(m *MeasurementJSON) { m.Energy = math.Inf(1) }), "energy +Inf"},
	} {
		if _, err := tc.up.MarshalBinary(); err == nil || !strings.Contains(err.Error(), tc.msg) || !strings.Contains(err.Error(), "PPF1") {
			t.Errorf("encoding %+v: error %v, want one naming PPF1 and containing %s", tc.up, err, tc.msg)
		}
	}

	row := []any{uint32(0), byte(0), uint32(1), uint32(1410), 1.0, 3.0}
	body := func(pb float64, types uint32, rows ...any) []byte {
		return ppf1(append([]any{"PPF1", pb, types}, rows...)...)
	}
	good := body(75, 1, row...)
	for _, tc := range []struct {
		body []byte
		msg  string
	}{
		{nil, "shorter than the header"},
		{good[:headerSize-1], "shorter than the header"},
		{[]byte(`{"p_blocking_w":75,"types":[]}`), `starts with "{\"p_", not "PPF1"`},
		{append([]byte("PPF2"), good[4:]...), `not "PPF1"`},
		{body(math.NaN(), 1, row...), "p_blocking_w is NaN"},
		{body(math.Inf(1), 1, row...), "p_blocking_w is +Inf"},
		{body(75, 1, uint32(0), byte(2), uint32(1), uint32(1410), 1.0, 3.0), "kind code 2"},
		{body(75, 1, uint32(0), byte(0), uint32(1), uint32(1410), math.NaN(), 3.0), "time NaN"},
		{body(75, 1, uint32(0), byte(1), uint32(1), uint32(1410), 1.0, math.Inf(-1)), "energy -Inf"},
		{good[:len(good)-1], "row 0 claims 1 measurements; 19 bytes are left"},
		{good[:headerSize+rowSize-1], "row 0 of 1 is cut short"},
		{body(75, 2, row...), "row 1 of 2 is cut short"},
		{append(good, 0), "1 bytes follow the last row"},
		{body(75, 0, row...), "29 bytes follow the last row"},
	} {
		up := ProfileUpload{PBlocking: 1}
		err := up.UnmarshalBinary(tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.msg) || !strings.Contains(err.Error(), "PPF1") {
			t.Errorf("body %x: error %v, want one naming PPF1 and containing %s", tc.body, err, tc.msg)
		}
		if up.PBlocking != 1 || up.Measurements != nil {
			t.Errorf("body %x: a refused body changed the upload to %+v", tc.body, up)
		}
	}
}

// FuzzProfileUploadDecode feeds UnmarshalBinary arbitrary bytes. It must
// never panic, and an accepted body must re-encode to the same bytes
// whenever its rows are what MarshalBinary writes: one non-empty row per
// type. A body that repeats a type's row, or has an empty row, is
// accepted too; its re-encoding must decode to the same measurements,
// grouped by type.
func FuzzProfileUploadDecode(f *testing.F) {
	golden := ppf1("PPF1", 75.0, uint32(2),
		uint32(0), byte(0), uint32(2), uint32(1410), uint32(1395), 0.5, 0.25, 100.0, 90.0,
		uint32(0), byte(1), uint32(1), uint32(1410), 1.0, 200.0)
	row := func(virtual uint32, kind byte, freq uint32, t, e float64) []any {
		return []any{virtual, kind, uint32(1), freq, t, e}
	}
	body := func(pb float64, types uint32, rows ...[]any) []byte {
		fields := []any{"PPF1", pb, types}
		for _, r := range rows {
			fields = append(fields, r...)
		}
		return ppf1(fields...)
	}
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, seed := range [][]byte{
		golden,
		body(0, 0),
		body(60, 3, row(1, 1, 1000, 2, 3), row(1, 1, 990, 2.1, 2.9), []any{uint32(4), byte(0), uint32(0)}),
		body(math.Copysign(0, -1), 2, row(0, 0, 1410, math.SmallestNonzeroFloat64, -math.MaxFloat64), row(1, 0, 1410, math.MaxFloat64, math.Copysign(0, -1))),
		body(75, 1, row(math.MaxUint32, 1, math.MaxUint32, 1, 1)),
		nil,
		golden[:15],
		append([]byte("PPF2"), golden[4:]...),
		[]byte(`{"p_blocking_w":75,"types":[{"virtual":0,"kind":"forward","freq_mhz":[1410],"time_s":[1],"energy_j":[3]}]}`),
		body(math.NaN(), 0),
		body(math.Inf(1), 1, row(0, 0, 1410, 1, 1)),
		body(75, 1, row(0, 2, 1410, 1, 1)),
		body(75, 1, row(0, 255, 1410, 1, 1)),
		body(75, 1, row(0, 0, 1410, nan, 1)),
		body(75, 1, row(0, 1, 1410, 1, math.Inf(-1))),
		body(75, math.MaxUint32, []any{uint32(0)}),
		body(75, 1, []any{uint32(0), byte(0), uint32(math.MaxUint32)}),
		body(75, 1, []any{uint32(0), byte(0)}),
		body(75, 1, []any{uint32(0), byte(0), uint32(2), uint32(1410), uint32(1395), 1.0, 1.1, 3.0}),
		append(body(75, 1, row(0, 0, 1410, 1, 1)), 0),
		body(75, 0, row(0, 0, 1410, 1, 1)),
		body(75, 2, row(0, 0, 1410, 1, 1)),
		golden[:len(golden)-1],
		append(golden[:len(golden):len(golden)], '\n'),
		body(75, 1, []any{uint32(0), byte(1), uint32(1), uint32(1410)}),
		body(math.Copysign(0, -1), 1, []any{uint32(7), byte(1), uint32(0)}),
		body(75, 1, row(0, 0, 1410, 1, nan)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got ProfileUpload
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		buf, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("body %x decoded to %+v, which does not encode: %v", data, got, err)
		}
		var again ProfileUpload
		if err := again.UnmarshalBinary(buf); err != nil {
			t.Fatalf("re-encoding %x does not decode: %v", buf, err)
		}
		if math.Float64bits(again.PBlocking) != math.Float64bits(got.PBlocking) || !sameBits(again.Measurements, grouped(got.Measurements)) {
			t.Fatalf("body %x decoded to %+v, its re-encoding to %+v", data, got, again)
		}
		distinct := map[[2]any]bool{}
		for _, m := range got.Measurements {
			distinct[[2]any{m.Virtual, m.Kind}] = true
		}
		if le.Uint32(data[12:]) == uint32(len(distinct)) && !bytes.Equal(buf, data) {
			t.Fatalf("body %x, one non-empty row per type, re-encoded as %x", data, buf)
		}
	})
}

// TestProfileUploadDecodeAllocs: decoding allocates the measurements
// once, and a body that claims more than it carries is refused before
// anything is sized by the claim.
func TestProfileUploadDecodeAllocs(t *testing.T) {
	// The bench profile's shape: 8 stages, forward and backward, 81
	// frequencies each.
	up := ProfileUpload{PBlocking: 75}
	for v := range 8 {
		for f := range 81 {
			for _, kind := range kinds {
				up.Measurements = append(up.Measurements, MeasurementJSON{
					Virtual: v, Kind: kind, Freq: 1410 - 15*f, Time: 0.03 + 1e-4*float64(f), Energy: 8 - 0.01*float64(f),
				})
			}
		}
	}
	buf, err := up.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got ProfileUpload
	if n := testing.AllocsPerRun(20, func() {
		if err := got.UnmarshalBinary(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("decoding 16 types, %d measurements: %v allocations, want 1", len(up.Measurements), n)
	}

	// 20 bytes that claim 2³²−1 types, and a row that claims 2³²−1
	// measurements, cost the error's few hundred bytes to refuse, as the
	// same bodies claiming 1,000 do: nothing is sized by the claim, which
	// would take gigabytes. (Bytes, not allocations: under -race, fmt's
	// sync.Pool makes an error's allocation count vary.)
	for _, claim := range []func(n uint32) []byte{
		func(n uint32) []byte { return ppf1("PPF1", 75.0, n, uint32(0)) },
		func(n uint32) []byte { return ppf1("PPF1", 75.0, uint32(1), uint32(0), byte(0), n, uint32(1410)) },
	} {
		for _, body := range [][]byte{claim(math.MaxUint32), claim(1000)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 100 {
				if err := got.UnmarshalBinary(body); err == nil {
					t.Fatalf("the over-claiming body %x decoded", body)
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 512 {
				t.Errorf("refusing the %d-byte body %x allocates %d bytes", len(body), body, per)
			}
		}
	}
}
