package frontier

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"perseus/internal/gpu"
)

// plt1 assembles a body field by field, so that a test can write one the
// encoder would not: a string as is, a uint32, int64 or float64
// little-endian.
func plt1(fields ...any) []byte {
	var b []byte
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			b = append(b, v...)
		case uint32:
			b = le.AppendUint32(b, v)
		case int64:
			b = le.AppendUint64(b, uint64(v))
		case float64:
			b = le.AppendUint64(b, math.Float64bits(v))
		default:
			panic("plt1: a field of a type the body has no place for")
		}
	}
	return b
}

// saved returns lt's PLT1 body. Save checks only what the body cannot
// carry, so it writes the invalid tables the validation cases need.
func saved(t testing.TB, lt *LookupTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameTable reports whether a and b hold the same bits.
func sameTable(a, b *LookupTable) bool {
	if math.Float64bits(a.Unit) != math.Float64bits(b.Unit) || a.TminUnits != b.TminUnits ||
		a.TStarUnits != b.TStarUnits || len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.TimeUnits != q.TimeUnits || math.Float64bits(p.Energy) != math.Float64bits(q.Energy) || !slices.Equal(p.Freqs, q.Freqs) {
			return false
		}
	}
	return true
}

// randomTable builds a table of the kind Table writes, n points over c
// computations: times rising, energies strictly falling, and each point
// moving a few computations' frequencies from the point before (now and
// then all of them), 0 and the extremes of uint32 included.
func randomTable(rng *rand.Rand, n, c int) *LookupTable {
	lt := &LookupTable{Unit: 1e-3 * (1 + 20*rng.Float64()), Points: make([]TablePoint, n)}
	freqs := []gpu.Frequency{0, 1, 210, 1005, 1410, math.MaxUint32}
	cur := make([]gpu.Frequency, c)
	for k := range cur {
		cur[k] = freqs[rng.Intn(len(freqs))]
	}
	units, energy := int64(1+rng.Intn(1000)), 1e3*(1+rng.Float64())
	for i := range lt.Points {
		if i > 0 {
			moves := rng.Intn(4)
			if rng.Intn(16) == 0 {
				moves = c
			}
			for range moves {
				cur[rng.Intn(c)] = freqs[rng.Intn(len(freqs))]
			}
			units += int64(1 + rng.Intn(5))
			energy *= 0.99 + 0.0099*rng.Float64()
		}
		lt.Points[i] = TablePoint{TimeUnits: units, Energy: energy, Freqs: slices.Clone(cur)}
	}
	lt.TminUnits, lt.TStarUnits = lt.Points[0].TimeUnits, units
	return lt
}

// TestTableSaveLoadRoundTrip: characterized tables load back bit for
// bit, and their bodies carry one full plan and then only the changes.
func TestTableSaveLoadRoundTrip(t *testing.T) {
	for _, c := range []struct {
		model    string
		g        *gpu.Model
		stages   int
		micro    int
		mb       int
		schedule string
	}{
		{"bert-1.3b", gpu.A40, 2, 4, 8, "1f1b"},
		{"gpt3-1.3b", gpu.A100PCIe, 4, 6, 4, "1f1b"},
		{"gpt3-1.3b", gpu.A100PCIe, 4, 6, 4, "gpipe"},
	} {
		g, p, opts := buildCase(t, c.model, c.g, c.stages, c.micro, c.mb, c.schedule)
		lt := characterize(t, g, p, opts).Table()
		body := saved(t, lt)
		got, err := LoadTable(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if !sameTable(got, lt) {
			t.Fatalf("%s %s: the loaded table differs from the saved one", c.model, c.schedule)
		}
		changes := 0
		for i := 1; i < len(lt.Points); i++ {
			for k, f := range lt.Points[i].Freqs {
				if f != lt.Points[i-1].Freqs[k] {
					changes++
				}
			}
		}
		c := len(lt.Points[0].Freqs)
		if want := tableHeaderSize + pointHeadSize + 4*c + (len(lt.Points)-1)*(pointHeadSize+4) + changeSize*changes; len(body) != want {
			t.Errorf("%d points × %d computations, %d changes: %d bytes, want %d", len(lt.Points), c, changes, len(body), want)
		}
		t.Logf("%d points × %d computations, %.1f changes a point: %d bytes", len(lt.Points), c, float64(changes)/float64(len(lt.Points)-1), len(body))
	}
}

// TestTableBodyLayout pins the body's bytes for a 2-point,
// 3-computation table.
func TestTableBodyLayout(t *testing.T) {
	lt := &LookupTable{Unit: 0.5, TminUnits: 4, TStarUnits: 6, Points: []TablePoint{
		{TimeUnits: 4, Energy: 100, Freqs: []gpu.Frequency{1410, 0, 1395}},
		{TimeUnits: 6, Energy: 90, Freqs: []gpu.Frequency{1410, 0, 1005}},
	}}
	want, err := hex.DecodeString(strings.Join([]string{
		"504c5431", "000000000000e03f", // "PLT1", unit_s 0.5
		"0400000000000000", "0600000000000000", // tmin_units 4, tstar_units 6
		"02000000", "03000000", // 2 points, 3 computations
		"0400000000000000", "0000000000005940", // 4 units, 100 J
		"82050000", "00000000", "73050000", // 1410, 0, 1395 MHz
		"0600000000000000", "0000000000805640", // 6 units, 90 J
		"01000000", "02000000", "ed030000", // 1 change: computation 2 to 1005 MHz
	}, ""))
	if err != nil {
		t.Fatal(err)
	}
	if body := saved(t, lt); !bytes.Equal(body, want) {
		t.Fatalf("body\n%x\nwant\n%x", body, want)
	}
}

// TestLoadTableValidation: the content checks, each case the JSON-era
// case of the same name written as PLT1.
func TestLoadTableValidation(t *testing.T) {
	table := func(unit float64, tmin, tstar int64, pts ...TablePoint) []byte {
		return saved(t, &LookupTable{Unit: unit, TminUnits: tmin, TStarUnits: tstar, Points: pts})
	}
	pt := func(units int64, energy float64) TablePoint {
		return TablePoint{TimeUnits: units, Energy: energy, Freqs: []gpu.Frequency{100}}
	}
	cases := []struct {
		name  string
		body  []byte
		field string // the error names it; "" for any error
	}{
		{"garbage", []byte("{"), ""},
		{"no points", table(0.001, 1, 2), ""},
		{"bad unit", table(0, 1, 2, pt(1, 1)), ""},
		{"non-increasing", table(0.001, 1, 2, pt(2, 1), pt(2, 1)), ""},
		// Point 1 sets a second computation's frequency in a table of one.
		{"ragged freqs", plt1("PLT1", 0.001, int64(1), int64(2), uint32(2), uint32(1),
			int64(1), 1.0, uint32(100), int64(2), 1.0, uint32(1), uint32(1), uint32(200)), ""},
		{"bad endpoints", table(0.001, 5, 9, pt(1, 1), pt(2, 1)), ""},
		// Each of these gives an infinite, NaN or negative average power
		// or time, whose slopes every walk over the table mis-orders.
		{"zero time", table(0.001, 0, 2, pt(0, 2), pt(2, 1)), "time_units"},
		{"negative time", table(0.001, -3, 2, pt(-3, 2), pt(2, 1)), "time_units"},
		{"negative energy", table(0.001, 1, 2, pt(1, -5), pt(2, -6)), "energy_j"},
		{"time overflow", table(1e300, 1e9, 2e9, pt(1e9, 2), pt(2e9, 1)), "unit_s"},
	}
	for _, c := range cases {
		_, err := LoadTable(bytes.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: LoadTable accepted invalid input", c.name)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.field)
		}
	}
}

// TestLoadTableFraming: a body that is not PLT1, is cut short or
// followed by anything, claims more than it carries, or lists a change
// out of range, out of order or to the frequency already set is refused
// with an error naming the format.
func TestLoadTableFraming(t *testing.T) {
	head := func(points, comps uint32) []any {
		return []any{"PLT1", 0.01, int64(1), int64(2), points, comps}
	}
	body := func(points, comps uint32, rest ...any) []byte {
		return plt1(append(head(points, comps), rest...)...)
	}
	row0 := []any{int64(1), 2.0, uint32(1410), uint32(1395)}
	point1 := func(changes ...uint32) []any {
		fields := []any{int64(2), 1.0, uint32(len(changes) / 2)}
		for _, c := range changes {
			fields = append(fields, c)
		}
		return fields
	}
	good := body(2, 2, append(row0, point1(1, 1005)...)...)
	if _, err := LoadTable(bytes.NewReader(good)); err != nil {
		t.Fatalf("the base body is refused: %v", err)
	}
	for _, tc := range []struct {
		body []byte
		msg  string
	}{
		{nil, "shorter than the header"},
		{good[:tableHeaderSize-1], "shorter than the header"},
		{[]byte(`{"unit_s":0.01,"tmin_units":1,"tstar_units":2,"points":[]}`), `starts with "{\"un", not "PLT1"`},
		{append([]byte("PLT0"), good[4:]...), `not "PLT1"`},
		{body(0, 2), "no points"},
		{body(math.MaxUint32, 2), "4294967295 points × 2 computations exceed 2²⁴"},
		{body(1, math.MaxUint32), "1 points × 4294967295 computations exceed 2²⁴"},
		{body(math.MaxUint32, 0), "4294967295 points × 0 computations exceed 2²⁴"},
		{body(1<<12, 1<<12+1), "exceed 2²⁴"},
		{body(1, 1<<24), "point 0's 16777216 frequencies need 67108880 bytes; 0 are left"},
		{body(2, 2, row0[:3]...), "point 0's 2 frequencies need 24 bytes; 20 are left"},
		{body(2, 2, row0...), "point 1 of 2 is cut short"},
		{body(3, 2, append(row0, point1(1, 1005)...)...), "point 2 of 3 is cut short"},
		{good[:len(good)-1], "point 1 claims 1 changes; 7 bytes are left"},
		{body(2, 2, append(row0, int64(2), 1.0, uint32(math.MaxUint32))...), "point 1 claims 4294967295 changes; 0 bytes are left"},
		{body(2, 2, append(row0, point1(2, 1005)...)...), "point 1 changes computation 2 of 2"},
		{body(2, 2, append(row0, point1(math.MaxUint32, 1005)...)...), "point 1 changes computation 4294967295 of 2"},
		{body(2, 2, append(row0, point1(1, 1005, 0, 1005)...)...), "point 1 lists computation 0 after 1"},
		{body(2, 2, append(row0, point1(1, 1005, 1, 990)...)...), "point 1 lists computation 1 after 1"},
		{body(2, 2, append(row0, point1(1, 1395)...)...), "point 1 changes computation 1 to the 1395 MHz it already runs at"},
		{append(good, 0), "1 bytes follow the last point"},
		{body(1, 2, append(row0, point1(1, 1005)...)...), "28 bytes follow the last point"},
	} {
		_, err := LoadTable(bytes.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.msg) || !strings.Contains(err.Error(), "PLT1") {
			t.Errorf("body %x: error %v, want one naming PLT1 and containing %s", tc.body, err, tc.msg)
		}
	}
}

// TestSaveRefuses: Save refuses what the body cannot carry, and writes
// nothing.
func TestSaveRefuses(t *testing.T) {
	pt := func(freqs ...gpu.Frequency) TablePoint { return TablePoint{TimeUnits: 1, Energy: 1, Freqs: freqs} }
	wide, plan := &LookupTable{Points: make([]TablePoint, 1<<12+1)}, make([]gpu.Frequency, 1<<12+1)
	for i := range wide.Points {
		wide.Points[i].Freqs = plan // 2²⁴ + 2¹³ + 1 cells, one plan shared
	}
	for _, tc := range []struct {
		lt  *LookupTable
		msg string
	}{
		{&LookupTable{Points: []TablePoint{pt(1, 2), pt(1)}}, "point 1 has 1 frequencies, want 2"},
		{&LookupTable{Points: []TablePoint{pt(1, -1)}}, "computation 1 runs at -1 MHz"},
		{&LookupTable{Points: []TablePoint{pt(math.MaxUint32 + 1)}}, "runs at 4294967296 MHz"},
		{wide, "4097 points × 4097 computations exceed 2²⁴"},
	} {
		var buf bytes.Buffer
		err := tc.lt.Save(&buf)
		if err == nil || !strings.Contains(err.Error(), tc.msg) || buf.Len() != 0 {
			t.Errorf("error %v after %d bytes, want one containing %s before any", err, buf.Len(), tc.msg)
		}
	}
}

// TestLoadTablePrunesToPareto loads a table that still holds dominated
// points, as tables saved before Table pruned did: it loads as its
// Pareto set, with T* moved to the slowest point kept.
func TestLoadTablePrunesToPareto(t *testing.T) {
	lt := &LookupTable{Unit: 0.01, TminUnits: 1, TStarUnits: 5}
	for u, e := range []float64{9, 9, 7, 8, 7} {
		lt.Points = append(lt.Points, TablePoint{TimeUnits: int64(u + 1), Energy: e, Freqs: []gpu.Frequency{100}})
	}
	lt, err := LoadTable(bytes.NewReader(saved(t, lt)))
	if err != nil {
		t.Fatal(err)
	}
	var units []int64
	for _, pt := range lt.Points {
		units = append(units, pt.TimeUnits)
	}
	if !slices.Equal(units, []int64{1, 3}) || lt.TStarUnits != 3 {
		t.Fatalf("loaded rows at %v units with T* %d, want [1 3] and 3", units, lt.TStarUnits)
	}
}

// TestLoadTableAllocs: loading a 390-point, 256-computation table costs
// the read plus three allocations, the table's (the struct, its points,
// one array of plans); the Pareto pass prunes in place. A header
// claiming 2³²−1 points or computations is refused for the bytes of its
// error alone.
func TestLoadTableAllocs(t *testing.T) {
	body := saved(t, randomTable(rand.New(rand.NewSource(1)), 390, 256))
	read := testing.AllocsPerRun(20, func() {
		if _, err := io.ReadAll(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	load := testing.AllocsPerRun(20, func() {
		if _, err := LoadTable(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if load != read+3 {
		t.Errorf("loading a %d-byte 390×256 table: %v allocations, the read alone %v; want the read + 3", len(body), load, read)
	}

	// Refusing costs the error's few hundred bytes; a table sized by the
	// claim would be gigabytes. (Bytes, not allocations: under -race,
	// fmt's sync.Pool makes an error's allocation count vary.)
	for _, claim := range [][2]uint32{{math.MaxUint32, 1}, {1, math.MaxUint32}, {math.MaxUint32, math.MaxUint32}} {
		huge := plt1("PLT1", 0.01, int64(1), int64(2), claim[0], claim[1])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 100 {
			if _, err := decodeTable(huge); err == nil {
				t.Fatalf("the over-claiming body %x decoded", huge)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 512 {
			t.Errorf("refusing %d points × %d computations allocates %d bytes", claim[0], claim[1], per)
		}
	}
}

// FuzzTableRoundTrip saves tables of the kind Table writes, from one
// point or one computation up to 500 × 300, and requires LoadTable to
// give them back bit for bit and Save the loaded table to write the same
// body.
func FuzzTableRoundTrip(f *testing.F) {
	for _, seed := range [][3]int64{{1, 0, 0}, {2, 0, 255}, {3, 389, 0}, {4, 389, 255}, {5, 7, 2}, {6, 499, 299}} {
		f.Add(seed[0], uint16(seed[1]), uint16(seed[2]))
	}
	f.Fuzz(func(t *testing.T, seed int64, points, comps uint16) {
		lt := randomTable(rand.New(rand.NewSource(seed)), 1+int(points)%500, 1+int(comps)%300)
		body := saved(t, lt)
		got, err := LoadTable(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%d×%d table: %v", len(lt.Points), len(lt.Points[0].Freqs), err)
		}
		if !sameTable(got, lt) {
			t.Fatalf("%d×%d table: the loaded table differs from the saved one", len(lt.Points), len(lt.Points[0].Freqs))
		}
		if again := saved(t, got); !bytes.Equal(again, body) {
			t.Fatalf("%d×%d table: the loaded table saves as\n%x\nnot\n%x", len(lt.Points), len(lt.Points[0].Freqs), again, body)
		}
	})
}

// FuzzLoadTable feeds LoadTable arbitrary bytes. It must never panic,
// and an accepted body must save to itself unless LoadTable pruned
// points from it; a pruned table must save to a body that loads as the
// same table.
func FuzzLoadTable(f *testing.F) {
	dominated := &LookupTable{Unit: 0.01, TminUnits: 1, TStarUnits: 3, Points: []TablePoint{
		{TimeUnits: 1, Energy: 9, Freqs: []gpu.Frequency{100, 0}},
		{TimeUnits: 2, Energy: 9, Freqs: []gpu.Frequency{200, 0}},
		{TimeUnits: 3, Energy: 7, Freqs: []gpu.Frequency{200, 5}},
	}}
	good := saved(f, randomTable(rand.New(rand.NewSource(1)), 6, 4))
	for _, seed := range [][]byte{
		good,
		saved(f, dominated),
		saved(f, randomTable(rand.New(rand.NewSource(2)), 1, 1)),
		saved(f, &LookupTable{Unit: 0.01, TminUnits: 1, TStarUnits: 1, Points: []TablePoint{{TimeUnits: 1, Energy: 1}}}),
		nil,
		good[:tableHeaderSize],
		good[:len(good)-1],
		append(slices.Clip(good), 0),
		append([]byte("PLT0"), good[4:]...),
		plt1("PLT1", 0.01, int64(1), int64(2), uint32(math.MaxUint32), uint32(math.MaxUint32)),
		plt1("PLT1", 0.01, int64(1), int64(2), uint32(2), uint32(1), int64(1), 2.0, uint32(7), int64(2), 1.0, uint32(1), uint32(0), uint32(7)),
		plt1("PLT1", 0.01, int64(1), int64(2), uint32(2), uint32(1), int64(1), 2.0, uint32(7), int64(2), 1.0, uint32(math.MaxUint32)),
		plt1("PLT1", math.NaN(), int64(1), int64(1), uint32(1), uint32(0), int64(1), 1.0),
		plt1("PLT1", 0.01, int64(1), int64(1), uint32(1), uint32(0), int64(1), math.Inf(1)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lt, err := LoadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		body := saved(t, lt)
		if len(lt.Points) == int(le.Uint32(data[28:])) && !bytes.Equal(body, data) {
			t.Fatalf("body %x loads unpruned but saves as %x", data, body)
		}
		again, err := LoadTable(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("body %x loads, its re-save %x does not: %v", data, body, err)
		}
		if !sameTable(again, lt) {
			t.Fatalf("body %x and its re-save %x load as different tables", data, body)
		}
	})
}
