// Package forecast closes the gap between internal/grid's
// perfect-foresight planning and what a real grid operator actually
// sees: *predicted* carbon-intensity and price curves that revise as
// the horizon approaches. internal/grid and internal/region plan as if
// the trace were known exactly; this package supplies (1) forecast
// models — persistence, seasonal-naive, and an exponential-smoothing /
// AR(1) hybrid — that emit point forecasts plus residual-quantile
// uncertainty bands from revealed history, (2) a seeded noisy-revision
// provider that simulates an external forecast feed over a known truth
// trace, and (3) a rolling-horizon MPC controller that re-plans at
// every interval boundary against the latest forecast with the
// already-executed prefix frozen, optionally against a pessimistic
// quantile (robust mode). The controller's realized outcome is always
// accrued against the truth trace, never the forecast, so regret
// against the perfect-foresight oracle and against plan-once-on-the-
// first-forecast is measured exactly.
package forecast

import (
	"fmt"
	"math"

	"perseus/internal/grid"
)

// Band bounds one interval's forecast value at the forecast's quantile
// level: [Lo, Hi] around the point forecast. Revealed intervals carry
// Lo == Hi == the actual value.
type Band struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Forecast is one issued forecast of a grid signal: the point-forecast
// signal over [0, horizon) — past intervals revealed exactly, future
// ones predicted — plus per-interval uncertainty bands for carbon and
// price at the Level quantile (e.g. 0.9 means Hi is the 90th
// percentile and Lo the 10th).
type Forecast struct {
	// IssuedS is the decision time the forecast was issued at, in
	// signal seconds; intervals starting at or before it are revealed.
	IssuedS float64 `json:"issued_s"`

	// Level is the band quantile level in (0.5, 1).
	Level float64 `json:"level"`

	// Signal is the point forecast (q = 0.5).
	Signal *grid.Signal `json:"signal"`

	// Carbon and Price band the corresponding interval values; both are
	// indexed like Signal.Intervals.
	Carbon []Band `json:"carbon"`
	Price  []Band `json:"price"`
}

// At returns the forecast signal at quantile q: 0.5 (or 0, the zero
// value) is the point forecast, Level maps to the Hi band and
// 1 − Level to Lo, with linear interpolation between and clamping
// beyond. Planning carbon against q > 0.5 is pessimistic — distant
// hours that merely *look* clean are discounted by their uncertainty —
// which is what the MPC controller's robust mode uses. The result is a
// fresh signal; planners only read it, so one may serve every schedule
// that plans this forecast at q.
func (f *Forecast) At(q float64) *grid.Signal {
	if q == 0 {
		q = 0.5
	}
	out := &grid.Signal{Name: f.Signal.Name, Intervals: make([]grid.Interval, 0, len(f.Signal.Intervals))}
	frac := 0.0
	if f.Level > 0.5 {
		frac = (q - 0.5) / (f.Level - 0.5)
	}
	if frac > 1 {
		frac = 1
	}
	if frac < -1 {
		frac = -1
	}
	for i, iv := range f.Signal.Intervals {
		if i < len(f.Carbon) {
			iv.CarbonGPerKWh = lerpBand(iv.CarbonGPerKWh, f.Carbon[i], frac)
		}
		if i < len(f.Price) {
			iv.PriceUSDPerKWh = lerpBand(iv.PriceUSDPerKWh, f.Price[i], frac)
		}
		out.Intervals = append(out.Intervals, iv)
	}
	return out
}

// lerpBand interpolates from the point value toward Hi (frac > 0) or
// Lo (frac < 0), never below zero.
func lerpBand(point float64, b Band, frac float64) float64 {
	v := point
	if frac > 0 {
		v = point + frac*(b.Hi-point)
	} else if frac < 0 {
		v = point + frac*(point-b.Lo)
	}
	return math.Max(0, v)
}

// Validate checks the forecast's structural invariants.
func (f *Forecast) Validate() error {
	if f.Signal == nil {
		return fmt.Errorf("forecast: forecast has no signal")
	}
	if err := f.Signal.Validate(); err != nil {
		return err
	}
	if !(f.Level > 0.5) || f.Level >= 1 {
		return fmt.Errorf("forecast: band level must be in (0.5, 1), got %v", f.Level)
	}
	n := len(f.Signal.Intervals)
	if len(f.Carbon) != n || len(f.Price) != n {
		return fmt.Errorf("forecast: %d intervals but %d carbon / %d price bands",
			n, len(f.Carbon), len(f.Price))
	}
	return nil
}

// Provider supplies forecasts issued at arbitrary decision times. The
// contract consumed by the MPC controller: successive calls with
// non-decreasing t describe the same underlying future, revealed
// further and (typically) predicted better.
type Provider interface {
	Name() string

	// At returns the forecast issued at signal time t, covering
	// [0, horizon) with everything starting at or before t revealed.
	At(t float64) (*Forecast, error)
}

// Perfect is the perfect-foresight provider: every forecast is the
// truth itself with zero-width bands — the oracle the MPC controller's
// regret is measured against.
type Perfect struct {
	// Truth is the actual trace, repeated cyclically.
	Truth *grid.Signal

	// HorizonS is the forecast coverage in seconds; 0 means the truth
	// horizon.
	HorizonS float64
}

// Name implements Provider.
func (p *Perfect) Name() string { return "oracle" }

// At implements Provider.
func (p *Perfect) At(t float64) (*Forecast, error) {
	if err := checkIssueTime(p.Truth, t); err != nil {
		return nil, err
	}
	sig := ExtendCyclic(p.Truth, horizonOr(p.HorizonS, p.Truth))
	f := &Forecast{IssuedS: t, Level: 0.9, Signal: sig}
	for _, iv := range sig.Intervals {
		f.Carbon = append(f.Carbon, Band{Lo: iv.CarbonGPerKWh, Hi: iv.CarbonGPerKWh})
		f.Price = append(f.Price, Band{Lo: iv.PriceUSDPerKWh, Hi: iv.PriceUSDPerKWh})
	}
	return f, nil
}

// horizonOr resolves a forecast horizon: h when positive, the signal's
// own horizon otherwise.
func horizonOr(h float64, sig *grid.Signal) float64 {
	if h > 0 {
		return h
	}
	return sig.Horizon()
}

// checkIssueTime validates the shared provider preconditions.
func checkIssueTime(truth *grid.Signal, t float64) error {
	if truth == nil || truth.Horizon() <= 0 {
		return fmt.Errorf("forecast: provider needs a non-empty truth signal")
	}
	if err := truth.Validate(); err != nil {
		return err
	}
	if math.IsNaN(t) || t < 0 {
		return fmt.Errorf("forecast: issue time must be non-negative, got %v", t)
	}
	return nil
}

// ExtendCyclic materializes a signal's cyclic repetition as concrete
// intervals out to upTo seconds (the straddling interval cut there), so
// planners that need an explicit trace can consume a horizon beyond the
// signal's own.
func ExtendCyclic(sig *grid.Signal, upTo float64) *grid.Signal {
	out := &grid.Signal{Name: sig.Name}
	h := sig.Horizon()
	if h <= 0 || upTo <= 0 {
		return out
	}
	for base := 0.0; base < upTo; base += h {
		for _, iv := range sig.Intervals {
			iv.StartS += base
			iv.EndS += base
			if iv.StartS >= upTo {
				break
			}
			if iv.EndS > upTo {
				iv.EndS = upTo
			}
			out.Intervals = append(out.Intervals, iv)
		}
	}
	return out
}

// Window returns the sub-signal covering [from, to) shifted to start at
// time 0 — the remaining planning problem a rolling-horizon controller
// hands to grid.Optimize at decision time `from`. The straddling first
// and last intervals are cut at the window edges.
func Window(sig *grid.Signal, from, to float64) *grid.Signal {
	n := 0
	for _, iv := range sig.Intervals {
		if iv.EndS > from && iv.StartS < to {
			n++
		}
	}
	out := &grid.Signal{Name: sig.Name, Intervals: make([]grid.Interval, 0, n)}
	for _, iv := range sig.Intervals {
		if iv.EndS <= from || iv.StartS >= to {
			continue
		}
		if iv.StartS < from {
			iv.StartS = from
		}
		if iv.EndS > to {
			iv.EndS = to
		}
		iv.StartS -= from
		iv.EndS -= from
		out.Intervals = append(out.Intervals, iv)
	}
	return out
}

// Coarsen merges consecutive intervals into n equal-duration steps,
// each carrying the duration-weighted mean of its constituents' rates
// and the tightest cap in force — a coarse view of a fine trace, used
// to keep multi-region rolling-horizon experiments tractable.
func Coarsen(sig *grid.Signal, n int) *grid.Signal {
	h := sig.Horizon()
	if n <= 0 || h <= 0 {
		return &grid.Signal{Name: sig.Name}
	}
	out := &grid.Signal{Name: sig.Name}
	step := h / float64(n)
	for k := 0; k < n; k++ {
		start, end := float64(k)*step, float64(k+1)*step
		var carbon, price, capW, dur float64
		for t := start; t < end-1e-9; {
			iv, ok := sig.At(t)
			if !ok {
				break
			}
			sub := math.Min(iv.EndS, end) - t
			carbon += iv.CarbonGPerKWh * sub
			price += iv.PriceUSDPerKWh * sub
			if iv.CapW > 0 && (capW == 0 || iv.CapW < capW) {
				capW = iv.CapW
			}
			dur += sub
			t += sub
		}
		if dur > 0 {
			carbon /= dur
			price /= dur
		}
		out.Intervals = append(out.Intervals, grid.Interval{
			StartS: start, EndS: end,
			CarbonGPerKWh: carbon, PriceUSDPerKWh: price, CapW: capW,
		})
	}
	return out
}
