// Package grid turns time-varying electricity-grid signals — carbon
// intensity, price, and facility power caps — into temporal schedules
// over a job's characterized time-energy frontier.
//
// Perseus characterizes each job's complete iteration time–energy
// Pareto frontier, and internal/fleet trades time across jobs under a
// *static* power envelope. Real grids are not static: carbon intensity
// and price swing by 2–5× over a day, and shifting flexible training
// load into low-carbon hours is the highest-leverage energy
// recommendation for ML systems. The frontier is exactly the control
// surface that makes the shift tractable: a job with deadline slack can
// run slow (low-power frontier points) or pause during dirty and
// expensive hours and sprint (T_min) during clean and cheap ones, at
// provably minimal total carbon, cost, or energy.
//
// The package has three parts: a step-function signal model, a
// bundled diurnal trace, and generators (this file); a
// temporal planner that picks one frontier operating point per signal
// interval to minimize a pluggable objective subject to an iteration
// deadline (plan.go); and accrual helpers that integrate a power draw
// against a signal for per-job emissions accounting (Accrue, below).
package grid

import (
	"fmt"
	"math"
	"sort"
)

// JoulesPerKWh converts the signal's per-kWh rates to per-joule ones.
const JoulesPerKWh = 3.6e6

// Interval is one step of a piecewise-constant grid signal.
type Interval struct {
	// StartS and EndS bound the interval in seconds from trace start.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`

	// CarbonGPerKWh is the grid carbon intensity in gCO₂ per kWh.
	CarbonGPerKWh float64 `json:"carbon_g_per_kwh"`

	// PriceUSDPerKWh is the electricity price in $ per kWh.
	PriceUSDPerKWh float64 `json:"price_usd_per_kwh"`

	// CapW is the facility power cap in force during the interval, in
	// watts; 0 means uncapped.
	CapW float64 `json:"cap_w,omitempty"`
}

// Duration returns the interval length in seconds.
func (iv Interval) Duration() float64 { return iv.EndS - iv.StartS }

// Signal is a piecewise-constant grid trace: contiguous intervals
// starting at time 0. The zero Signal is invalid; build one with
// literal intervals, Diurnal24h, or Generate, and
// check it with Validate.
type Signal struct {
	// Name labels the trace in tables and logs.
	Name string `json:"name,omitempty"`

	// Intervals are the steps, contiguous from time 0.
	Intervals []Interval `json:"intervals"`
}

// Horizon returns the trace end time in seconds (0 for an empty signal).
func (s *Signal) Horizon() float64 {
	if len(s.Intervals) == 0 {
		return 0
	}
	return s.Intervals[len(s.Intervals)-1].EndS
}

// MeanCarbonGPerKWh returns the duration-weighted mean carbon
// intensity of one signal cycle, in gCO₂/kWh (0 for a nil or empty
// signal). Accrue prices beyond the horizon cyclically, so this is
// also the long-run intensity a constant draw realizes — the best any
// signal-blind fixed operating point can achieve on carbon timing.
func (s *Signal) MeanCarbonGPerKWh() float64 {
	if s == nil || len(s.Intervals) == 0 {
		return 0
	}
	var weighted, horizon float64
	for _, iv := range s.Intervals {
		d := iv.Duration()
		weighted += iv.CarbonGPerKWh * d
		horizon += d
	}
	if horizon <= 0 {
		return 0
	}
	return weighted / horizon
}

// Validate checks the structural invariants: at least one interval,
// the first starting at 0, contiguous increasing bounds, and finite
// non-negative rates and caps.
func (s *Signal) Validate() error {
	if len(s.Intervals) == 0 {
		return fmt.Errorf("grid: signal has no intervals")
	}
	if s.Intervals[0].StartS != 0 {
		return fmt.Errorf("grid: signal must start at 0, got %v", s.Intervals[0].StartS)
	}
	for i, iv := range s.Intervals {
		if i > 0 && iv.StartS != s.Intervals[i-1].EndS {
			return fmt.Errorf("grid: interval %d starts at %v, want contiguous %v", i, iv.StartS, s.Intervals[i-1].EndS)
		}
		if !(iv.EndS > iv.StartS) {
			return fmt.Errorf("grid: interval %d has non-positive duration [%v, %v]", i, iv.StartS, iv.EndS)
		}
		for _, v := range []struct {
			name string
			val  float64
		}{{"carbon", iv.CarbonGPerKWh}, {"price", iv.PriceUSDPerKWh}, {"cap", iv.CapW}} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				return fmt.Errorf("grid: interval %d has invalid %s %v", i, v.name, v.val)
			}
		}
	}
	return nil
}

// At returns the interval covering time t, or ok=false when t falls
// outside [0, Horizon).
func (s *Signal) At(t float64) (Interval, bool) {
	if t < 0 || len(s.Intervals) == 0 || t >= s.Horizon() {
		return Interval{}, false
	}
	// Linear scan: signals are tens of intervals, and callers walk them
	// in time order anyway.
	for _, iv := range s.Intervals {
		if t < iv.EndS {
			return iv, true
		}
	}
	return Interval{}, false
}

// AtCyclic returns the interval covering time t with the trace repeated
// periodically (a 24 h trace describes every day). Negative t — before
// the trace began — returns ok=false.
func (s *Signal) AtCyclic(t float64) (Interval, bool) {
	h := s.Horizon()
	if t < 0 || h <= 0 {
		return Interval{}, false
	}
	return s.At(math.Mod(t, h))
}

// Truncate returns a copy of the signal cut at time d (intervals beyond
// d dropped, the straddling interval shortened). d at or beyond the
// horizon returns the signal unchanged.
func (s *Signal) Truncate(d float64) *Signal {
	out := &Signal{Name: s.Name}
	for _, iv := range s.Intervals {
		if iv.StartS >= d {
			break
		}
		if iv.EndS > d {
			iv.EndS = d
		}
		out.Intervals = append(out.Intervals, iv)
	}
	return out
}

// Boundaries returns every interval start strictly inside (0, upTo),
// repeating the trace cyclically — the times at which a signal-driven
// fleet must re-allocate.
func (s *Signal) Boundaries(upTo float64) []float64 {
	h := s.Horizon()
	if h <= 0 || upTo <= 0 {
		return nil
	}
	var out []float64
	for base := 0.0; base < upTo; base += h {
		for _, iv := range s.Intervals {
			t := base + iv.StartS
			if t > 0 && t < upTo {
				out = append(out, t)
			}
		}
	}
	return out
}

// MergedBoundaries returns the sorted, deduplicated union of every
// signal's Boundaries(upTo) — the re-allocation grid a multi-signal
// (multi-region) consumer must respect. Nil signals are skipped.
func MergedBoundaries(sigs []*Signal, upTo float64) []float64 {
	set := map[float64]bool{}
	for _, s := range sigs {
		if s == nil {
			continue
		}
		for _, b := range s.Boundaries(upTo) {
			set[b] = true
		}
	}
	out := make([]float64, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Float64s(out)
	return out
}

// Accrue integrates a constant power draw against the signal over the
// wall-clock span [t0, t1) (seconds in signal time, cyclic beyond the
// horizon) and returns the energy consumed plus its carbon and cost
// under the signal's rates. Time before the trace began (t < 0) accrues
// energy at zero carbon and cost; so does time with no signal at all
// (sig nil or empty).
func Accrue(sig *Signal, t0, t1, powerW float64) (energyJ, carbonG, costUSD float64) {
	if t1 <= t0 {
		return 0, 0, 0
	}
	energyJ = powerW * (t1 - t0)
	if sig == nil || sig.Horizon() <= 0 {
		return energyJ, 0, 0
	}
	for t := math.Max(t0, 0); t < t1; {
		iv, ok := sig.AtCyclic(t)
		if !ok {
			break
		}
		// End of this interval in absolute (uncycled) time.
		end := t + (iv.EndS - math.Mod(t, sig.Horizon()))
		if end > t1 {
			end = t1
		}
		if end <= t {
			// Float rounding pinned t on an interval edge (the distance
			// to the edge underflowed below one ulp of t); nudge past it
			// so the walk always progresses. The skipped sliver is below
			// float resolution, so nothing measurable is lost.
			t = math.Nextafter(t, math.Inf(1))
			continue
		}
		e := powerW * (end - t)
		carbonG += e / JoulesPerKWh * iv.CarbonGPerKWh
		costUSD += e / JoulesPerKWh * iv.PriceUSDPerKWh
		t = end
	}
	return energyJ, carbonG, costUSD
}

// diurnal24 holds the bundled trace's hourly (carbon gCO₂/kWh, price
// $/kWh) values: a high fossil-heavy overnight base, a deep midday
// solar valley, and a steep evening ramp peak — the canonical shape of
// a solar-rich grid (e.g. CAISO), against which temporal shifting has
// the most leverage.
var diurnal24 = [24][2]float64{
	{455, 0.062}, {460, 0.060}, {462, 0.059}, {458, 0.059}, // 00-03
	{450, 0.060}, {440, 0.064}, {424, 0.072}, {400, 0.085}, // 04-07
	{365, 0.090}, {320, 0.078}, {278, 0.062}, {248, 0.052}, // 08-11
	{232, 0.048}, {228, 0.047}, {236, 0.049}, {258, 0.056}, // 12-15
	{300, 0.074}, {368, 0.110}, {455, 0.185}, {520, 0.240}, // 16-19
	{540, 0.252}, {512, 0.205}, {486, 0.120}, {468, 0.080}, // 20-23
}

// Diurnal24h returns the bundled 24-hour synthetic diurnal trace:
// hourly intervals over one day, no facility caps.
func Diurnal24h() *Signal {
	s := &Signal{Name: "diurnal-24h"}
	for h, v := range diurnal24 {
		s.Intervals = append(s.Intervals, Interval{
			StartS:         float64(h) * 3600,
			EndS:           float64(h+1) * 3600,
			CarbonGPerKWh:  v[0],
			PriceUSDPerKWh: v[1],
		})
	}
	return s
}

// GenOptions parameterizes Generate for scenario sweeps.
type GenOptions struct {
	// Name labels the generated trace.
	Name string

	// Intervals is the number of steps; 0 means 24.
	Intervals int

	// IntervalS is each step's duration in seconds; 0 means 3600.
	IntervalS float64

	// CarbonBase and CarbonSwing shape the sinusoidal carbon curve
	// base − swing·sin(2π k/N + Phase); zeros mean 400 and 180 g/kWh.
	CarbonBase, CarbonSwing float64

	// PriceBase and PriceSwing shape the price curve the same way;
	// zeros mean 0.11 and 0.07 $/kWh.
	PriceBase, PriceSwing float64

	// Phase rotates both curves, in radians.
	Phase float64

	// Jitter adds deterministic per-interval variation of the given
	// relative magnitude (0 = smooth), derived from Seed.
	Jitter float64

	// Seed selects the jitter stream.
	Seed int64

	// CapW applies a constant facility cap to every interval; 0 = none.
	CapW float64
}

// Generate builds a deterministic sinusoidal signal for scenario
// sweeps: carbon and price move together (dirty hours are expensive
// hours), with optional seeded jitter.
func Generate(o GenOptions) *Signal {
	n := o.Intervals
	if n <= 0 {
		n = 24
	}
	dur := o.IntervalS
	if dur <= 0 {
		dur = 3600
	}
	cb, cs := o.CarbonBase, o.CarbonSwing
	if cb == 0 {
		cb = 400
	}
	if cs == 0 {
		cs = 180
	}
	pb, ps := o.PriceBase, o.PriceSwing
	if pb == 0 {
		pb = 0.11
	}
	if ps == 0 {
		ps = 0.07
	}
	// A tiny multiplicative congruential stream keeps the jitter
	// deterministic per (Seed, interval) without pulling in math/rand.
	state := uint64(o.Seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53) // [0, 1)
	}
	s := &Signal{Name: o.Name}
	for k := 0; k < n; k++ {
		wave := math.Sin(2*math.Pi*float64(k)/float64(n) + o.Phase)
		jc, jp := 1.0, 1.0
		if o.Jitter > 0 {
			jc = 1 + o.Jitter*(2*next()-1)
			jp = 1 + o.Jitter*(2*next()-1)
		}
		s.Intervals = append(s.Intervals, Interval{
			StartS:         float64(k) * dur,
			EndS:           float64(k+1) * dur,
			CarbonGPerKWh:  math.Max(10, (cb-cs*wave)*jc),
			PriceUSDPerKWh: math.Max(0.005, (pb-ps*wave)*jp),
			CapW:           o.CapW,
		})
	}
	return s
}
