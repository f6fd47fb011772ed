package forecast

import (
	"fmt"
	"math"

	"perseus/internal/grid"
)

// Revisions simulates an external forecast feed over a known truth
// trace: at every decision time each future interval's value is the
// truth multiplied by seeded lognormal noise built from one innovation
// per (interval, revision-step) pair. An interval L steps ahead carries
// the sum of L innovations — error standard deviation ≈ Sigma·√L — and
// each step that passes drains one innovation away, so successive
// forecasts revise toward the truth exactly the way operational
// day-ahead / hour-ahead carbon and price forecasts do. Everything is
// a pure function of (Seed, interval, step): forecasts are
// deterministic, replayable, and consistent across decision times.
type Revisions struct {
	// Truth is the actual trace, repeated cyclically.
	Truth *grid.Signal

	// HorizonS is the forecast coverage in seconds; 0 means the truth
	// horizon.
	HorizonS float64

	// Sigma is the per-step relative innovation magnitude; 0 means
	// 0.10 (≈ 35% error at a 12-step lead).
	Sigma float64

	// Seed selects the innovation stream.
	Seed int64

	// Level is the band quantile level; 0 means 0.9.
	Level float64
}

// Name implements Provider.
func (r *Revisions) Name() string { return "revisions" }

// At implements Provider. An interval L steps ahead sums its L
// remaining innovations afresh, so one issue costs time quadratic in the
// number of covered future intervals (two 96-interval cycles ahead:
// ~36k hashes, as much as tens of grid solves). The summation order
// fixes the forecast's last bits and every table derived from it, so a
// caller with many consumers at one decision time issues once and
// shares the result — the forecast is read-only to the controllers.
func (r *Revisions) At(t float64) (*Forecast, error) {
	if err := checkIssueTime(r.Truth, t); err != nil {
		return nil, err
	}
	sigma := r.Sigma
	if sigma == 0 {
		sigma = 0.10
	}
	if sigma < 0 || sigma > 2 || math.IsNaN(sigma) {
		return nil, fmt.Errorf("forecast: revision sigma must be in [0, 2], got %v", r.Sigma)
	}
	level := r.Level
	if level == 0 {
		level = 0.9
	}
	if !(level > 0.5) || level >= 1 {
		return nil, fmt.Errorf("forecast: band level must be in (0.5, 1), got %v", level)
	}
	zq := math.Sqrt2 * math.Erfinv(2*level-1)

	steps := ExtendCyclic(r.Truth, horizonOr(r.HorizonS, r.Truth))
	cur := revealedSteps(steps, t) - 1 // index of the step containing t
	f := &Forecast{IssuedS: t, Level: level,
		Signal: &grid.Signal{Name: steps.Name + "/revised"}}
	for i, iv := range steps.Intervals {
		if i > cur {
			// Future: the remaining innovations for this interval are the
			// ones issued at steps cur+1 .. i; each passing step drops
			// one, never re-rolling the rest.
			var logC, logP float64
			for m := cur + 1; m <= i; m++ {
				logC += sigma * gauss(r.Seed, 0, i, m)
				logP += sigma * gauss(r.Seed, 1, i, m)
			}
			iv.CarbonGPerKWh *= math.Exp(logC)
			iv.PriceUSDPerKWh *= math.Exp(logP)
			w := math.Exp(zq * sigma * math.Sqrt(float64(i-cur)))
			f.Carbon = append(f.Carbon, Band{Lo: iv.CarbonGPerKWh / w, Hi: iv.CarbonGPerKWh * w})
			f.Price = append(f.Price, Band{Lo: iv.PriceUSDPerKWh / w, Hi: iv.PriceUSDPerKWh * w})
		} else {
			f.Carbon = append(f.Carbon, Band{Lo: iv.CarbonGPerKWh, Hi: iv.CarbonGPerKWh})
			f.Price = append(f.Price, Band{Lo: iv.PriceUSDPerKWh, Hi: iv.PriceUSDPerKWh})
		}
		f.Signal.Intervals = append(f.Signal.Intervals, iv)
	}
	return f, nil
}

// gauss derives a deterministic standard-normal-ish deviate from
// (seed, stream, interval, step) by hashing into three uniforms and
// summing them (Irwin–Hall, rescaled to unit variance) — platform-
// independent and allocation-free, like grid.Generate's jitter stream.
func gauss(seed int64, stream, i, m int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^
		uint64(stream+1)*0xBF58476D1CE4E5B9 ^
		uint64(i+1)*0x94D049BB133111EB ^
		uint64(m+1)*0xD6E8FEB86659FD93
	var sum float64
	for r := 0; r < 3; r++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		sum += float64(z>>11) / float64(1<<53)
	}
	return (sum - 1.5) * 2
}
