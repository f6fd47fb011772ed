package grid

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	good := Diurnal24h()
	if err := good.Validate(); err != nil {
		t.Fatalf("bundled trace invalid: %v", err)
	}
	cases := []struct {
		name string
		sig  Signal
	}{
		{"empty", Signal{}},
		{"nonzero start", Signal{Intervals: []Interval{{StartS: 1, EndS: 2}}}},
		{"gap", Signal{Intervals: []Interval{
			{StartS: 0, EndS: 1}, {StartS: 2, EndS: 3},
		}}},
		{"zero duration", Signal{Intervals: []Interval{{StartS: 0, EndS: 0}}}},
		{"nan carbon", Signal{Intervals: []Interval{{StartS: 0, EndS: 1, CarbonGPerKWh: math.NaN()}}}},
		{"inf carbon", Signal{Intervals: []Interval{{StartS: 0, EndS: 1, CarbonGPerKWh: math.Inf(1)}}}},
		{"negative carbon", Signal{Intervals: []Interval{{StartS: 0, EndS: 1, CarbonGPerKWh: -1}}}},
		{"nan price", Signal{Intervals: []Interval{{StartS: 0, EndS: 1, PriceUSDPerKWh: math.NaN()}}}},
		{"negative price", Signal{Intervals: []Interval{{StartS: 0, EndS: 1, PriceUSDPerKWh: -0.1}}}},
		{"negative cap", Signal{Intervals: []Interval{{StartS: 0, EndS: 1, CapW: -100}}}},
		{"inf cap", Signal{Intervals: []Interval{{StartS: 0, EndS: 1, CapW: math.Inf(1)}}}},
	}
	for _, tc := range cases {
		if err := tc.sig.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestMeanCarbonGPerKWh(t *testing.T) {
	var nilSig *Signal
	if got := nilSig.MeanCarbonGPerKWh(); got != 0 {
		t.Fatalf("nil signal mean = %v, want 0", got)
	}
	if got := (&Signal{}).MeanCarbonGPerKWh(); got != 0 {
		t.Fatalf("empty signal mean = %v, want 0", got)
	}
	// Duration-weighted: 1h at 500 + 3h at 100 → (500+300)/4 = 200.
	sig := &Signal{Intervals: []Interval{
		{StartS: 0, EndS: 3600, CarbonGPerKWh: 500},
		{StartS: 3600, EndS: 4 * 3600, CarbonGPerKWh: 100},
	}}
	if got := sig.MeanCarbonGPerKWh(); math.Abs(got-200) > 1e-12 {
		t.Fatalf("weighted mean = %v, want 200", got)
	}
}

func TestAtAndCyclic(t *testing.T) {
	sig := Diurnal24h()
	if h := sig.Horizon(); h != 86400 {
		t.Fatalf("horizon %v, want 86400", h)
	}
	iv, ok := sig.At(12*3600 + 30)
	if !ok || iv.CarbonGPerKWh != 232 {
		t.Fatalf("At(noon) = %+v, %v; want hour-12 interval (232 g/kWh)", iv, ok)
	}
	if _, ok := sig.At(-1); ok {
		t.Fatal("At(-1) should miss")
	}
	if _, ok := sig.At(86400); ok {
		t.Fatal("At(horizon) should miss (half-open)")
	}
	// The next day's noon cycles back to the same interval.
	civ, ok := sig.AtCyclic(86400 + 12*3600)
	if !ok || civ.CarbonGPerKWh != 232 {
		t.Fatalf("AtCyclic(day2 noon) = %+v, %v", civ, ok)
	}
	if _, ok := sig.AtCyclic(-5); ok {
		t.Fatal("AtCyclic(-5) should miss")
	}
}

func TestTruncateAndBoundaries(t *testing.T) {
	sig := Diurnal24h()
	cut := sig.Truncate(90 * 60) // 1.5 h
	if len(cut.Intervals) != 2 {
		t.Fatalf("truncated to %d intervals, want 2", len(cut.Intervals))
	}
	if cut.Intervals[1].EndS != 5400 {
		t.Fatalf("straddling interval ends at %v, want 5400", cut.Intervals[1].EndS)
	}
	if err := cut.Validate(); err != nil {
		t.Fatalf("truncated signal invalid: %v", err)
	}

	b := sig.Boundaries(2 * 3600)
	if len(b) != 1 || b[0] != 3600 {
		t.Fatalf("boundaries up to 2h: %v, want [3600]", b)
	}
	// Cyclic: a 25h window revisits hour 0 of day 2.
	b = sig.Boundaries(25 * 3600)
	if len(b) != 24 || b[23] != 86400 {
		t.Fatalf("boundaries up to 25h: %d entries, last %v; want 24 ending 86400", len(b), b[len(b)-1])
	}
}

func TestAccrue(t *testing.T) {
	sig := &Signal{Intervals: []Interval{
		{StartS: 0, EndS: 100, CarbonGPerKWh: 360, PriceUSDPerKWh: 0.36},
		{StartS: 100, EndS: 200, CarbonGPerKWh: 720, PriceUSDPerKWh: 0.72},
	}}
	// 1 kW for 50 s in each interval: energy 100 kJ; carbon
	// (50e3/3.6e6)*360 + (50e3/3.6e6)*720 = 5 + 10 = 15 g.
	e, c, usd := Accrue(sig, 50, 150, 1000)
	if math.Abs(e-100e3) > 1e-6 {
		t.Fatalf("energy %v, want 100e3", e)
	}
	if math.Abs(c-15) > 1e-9 {
		t.Fatalf("carbon %v, want 15", c)
	}
	if math.Abs(usd-0.015) > 1e-12 {
		t.Fatalf("cost %v, want 0.015", usd)
	}
	// Cyclic wrap: [150, 250) covers interval 1 then interval 0 again.
	_, c, _ = Accrue(sig, 150, 250, 1000)
	want := 50e3/JoulesPerKWh*720 + 50e3/JoulesPerKWh*360
	if math.Abs(c-want) > 1e-9 {
		t.Fatalf("cyclic carbon %v, want %v", c, want)
	}
	// Pre-trace time accrues energy but no carbon.
	e, c, _ = Accrue(sig, -100, 0, 1000)
	if e != 100e3 || c != 0 {
		t.Fatalf("pre-trace accrual: energy %v carbon %v, want 100e3 and 0", e, c)
	}
	// No signal: energy only.
	e, c, usd = Accrue(nil, 0, 10, 500)
	if e != 5000 || c != 0 || usd != 0 {
		t.Fatalf("nil-signal accrual: %v %v %v", e, c, usd)
	}
	if e, _, _ := Accrue(sig, 10, 10, 1000); e != 0 {
		t.Fatalf("empty span accrued %v", e)
	}
}

func TestGenerate(t *testing.T) {
	sig := Generate(GenOptions{Name: "sweep", Seed: 7, Jitter: 0.1, CapW: 9000})
	if err := sig.Validate(); err != nil {
		t.Fatalf("generated signal invalid: %v", err)
	}
	if len(sig.Intervals) != 24 || sig.Horizon() != 86400 {
		t.Fatalf("default shape: %d intervals, horizon %v", len(sig.Intervals), sig.Horizon())
	}
	var min, max float64 = math.Inf(1), 0
	for _, iv := range sig.Intervals {
		if iv.CapW != 9000 {
			t.Fatalf("cap not applied: %+v", iv)
		}
		min = math.Min(min, iv.CarbonGPerKWh)
		max = math.Max(max, iv.CarbonGPerKWh)
	}
	if max-min < 100 {
		t.Fatalf("no diurnal swing: carbon spans [%v, %v]", min, max)
	}
	// Determinism: the same seed reproduces the trace.
	again := Generate(GenOptions{Name: "sweep", Seed: 7, Jitter: 0.1, CapW: 9000})
	for i := range sig.Intervals {
		if sig.Intervals[i] != again.Intervals[i] {
			t.Fatalf("interval %d differs across identical seeds", i)
		}
	}
	other := Generate(GenOptions{Seed: 8, Jitter: 0.1})
	same := true
	for i := range sig.Intervals {
		if sig.Intervals[i].CarbonGPerKWh != other.Intervals[i].CarbonGPerKWh {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestParseRejectsInvalidRates pins the decode-and-validate contract
// POST /grid/signal relies on: NaN, Inf and negative carbon-intensity,
// price or cap entries are rejected before they can poison Optimize
// and Accrue downstream (the HTTP side is tested in internal/server).
func TestParseRejectsInvalidRates(t *testing.T) {
	parse := func(body string) error {
		var sig Signal
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sig); err != nil {
			return err
		}
		return sig.Validate()
	}
	cases := map[string]string{
		"neg carbon": `{"intervals":[{"start_s":0,"end_s":3600,"carbon_g_per_kwh":-5,"price_usd_per_kwh":0.1}]}`,
		"neg price":  `{"intervals":[{"start_s":0,"end_s":3600,"carbon_g_per_kwh":400,"price_usd_per_kwh":-0.1}]}`,
		"neg cap":    `{"intervals":[{"start_s":0,"end_s":3600,"carbon_g_per_kwh":400,"price_usd_per_kwh":0.1,"cap_w":-1}]}`,
		// JSON cannot carry NaN/Inf literals: the decoder itself must
		// reject them rather than zeroing the field.
		"NaN carbon": `{"intervals":[{"start_s":0,"end_s":3600,"carbon_g_per_kwh":NaN,"price_usd_per_kwh":0.1}]}`,
		"Inf price":  `{"intervals":[{"start_s":0,"end_s":3600,"carbon_g_per_kwh":400,"price_usd_per_kwh":Infinity}]}`,
		"empty":      `{"intervals":[]}`,
	}
	for name, body := range cases {
		if err := parse(body); err == nil {
			t.Errorf("accepted %s", name)
		}
	}
	// A valid trace still parses after all that.
	if err := parse(`{"intervals":[{"start_s":0,"end_s":3600,"carbon_g_per_kwh":400,"price_usd_per_kwh":0.1}]}`); err != nil {
		t.Fatalf("valid signal rejected: %v", err)
	}
}
