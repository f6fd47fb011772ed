package forecast

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"perseus/internal/grid"
)

// MaxRevisionIntervals caps the future intervals one Revisions issue
// covers — those after the interval containing the issue time. An
// issue reads one innovation pair per (future interval, remaining
// step), so its work is quadratic in them; the cap also bounds an
// Innovations memo's window (see there). Revealed intervals cost one
// copy each and are bounded by the caller's horizon, not here.
const MaxRevisionIntervals = 1024

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
	// horizon. It may reach at most MaxRevisionIntervals intervals past
	// the issue time's (RevisionsHorizon).
	HorizonS float64

	// Sigma is the per-step relative innovation magnitude; 0 means
	// 0.10 (≈ 35% error at a 12-step lead).
	Sigma float64

	// Seed selects the innovation stream.
	Seed int64

	// Level is the band quantile level; 0 means 0.9.
	Level float64

	// Innovations, when set, is the memo of Seed's draws this provider
	// reads, shared with every other provider given it. nil: the
	// provider keeps its own, so its issues share their draws.
	Innovations *Innovations

	own atomic.Pointer[Innovations] // the memo At fills when Innovations is nil
}

// Name implements Provider.
func (r *Revisions) Name() string { return "revisions" }

// At implements Provider. An interval L steps ahead sums its L
// remaining innovations, so one issue reads a number of draws quadratic
// in the covered future intervals (two 96-interval cycles ahead: ~36k),
// and a horizon reaching more than MaxRevisionIntervals past the
// interval containing t is refused. The draws come from the provider's
// Innovations memo, hashed once and read back in the order the sums
// were always taken: the summation order fixes the forecast's last bits
// and every table derived from it. A caller with many consumers at one
// decision time still issues once and shares the result — the forecast
// is read-only to the controllers.
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
	memo := r.Innovations
	if memo == nil {
		if memo = r.own.Load(); memo == nil || memo.seed != r.Seed {
			memo = NewInnovations(r.Seed)
			r.own.Store(memo)
		}
	} else if memo.seed != r.Seed {
		return nil, fmt.Errorf("forecast: innovations of seed %d given to a provider of seed %d", memo.seed, r.Seed)
	}
	zq := math.Sqrt2 * math.Erfinv(2*level-1)

	horizon := horizonOr(r.HorizonS, r.Truth)
	steps := ExtendCyclic(r.Truth, horizon)
	n := len(steps.Intervals)
	a := revealedSteps(steps, t) // the first future interval
	if n-a > MaxRevisionIntervals {
		return nil, fmt.Errorf("forecast: a %v s horizon covers %d intervals after t = %v s, more than the %d a revisions forecast may",
			horizon, n-a, t, MaxRevisionIntervals)
	}
	// The extension is this issue's own copy: it becomes the forecast.
	steps.Name += "/revised"
	f := &Forecast{IssuedS: t, Level: level, Signal: steps, Carbon: make([]Band, n), Price: make([]Band, n)}
	for i, iv := range steps.Intervals[:a] {
		f.Carbon[i] = Band{Lo: iv.CarbonGPerKWh, Hi: iv.CarbonGPerKWh}
		f.Price[i] = Band{Lo: iv.PriceUSDPerKWh, Hi: iv.PriceUSDPerKWh}
	}
	if a == n {
		return f, nil
	}
	// Future: interval i's remaining innovations are the ones issued at
	// steps a .. i; each passing step drops one, never re-rolling the
	// rest. The sums advance a step at a time across every interval, so
	// each is still taken in step order.
	logs := make([]float64, 2*(n-a)) // carbon, price per future interval
	for k, col := range memo.steps(a, n) {
		lg := logs[2*k:]
		col = col[:len(lg)]
		for j := 0; j < len(lg); j += 2 {
			lg[j] += sigma * col[j]
			lg[j+1] += sigma * col[j+1]
		}
	}
	for i := a; i < n; i++ {
		iv := &steps.Intervals[i]
		iv.CarbonGPerKWh *= math.Exp(logs[2*(i-a)])
		iv.PriceUSDPerKWh *= math.Exp(logs[2*(i-a)+1])
		w := math.Exp(zq * sigma * math.Sqrt(float64(i-a+1)))
		f.Carbon[i] = Band{Lo: iv.CarbonGPerKWh / w, Hi: iv.CarbonGPerKWh * w}
		f.Price[i] = Band{Lo: iv.PriceUSDPerKWh / w, Hi: iv.PriceUSDPerKWh * w}
	}
	return f, nil
}

// RevisionsHorizon returns the horizon a Revisions issue at t may cover
// when horizonS is wanted: horizonS, or the start of the first interval
// of truth's cyclic extension more than MaxRevisionIntervals past the
// one containing t, if that comes first. A caller whose horizon is a
// default rather than a request clamps it here instead of being
// refused.
func RevisionsHorizon(truth *grid.Signal, t, horizonS float64) float64 {
	h, ahead := truth.Horizon(), 0
	if h <= 0 {
		return horizonS
	}
	// The same sums ExtendCyclic takes, so At sees the same boundaries.
	for base := 0.0; base < horizonS; base += h {
		for _, iv := range truth.Intervals {
			start := iv.StartS + base
			if start >= horizonS {
				return horizonS
			}
			if start > t {
				if ahead == MaxRevisionIntervals {
					return start
				}
				ahead++
			}
		}
	}
	return horizonS
}

// Innovations memoizes one seed's innovation draws for Revisions. The
// draws depend on nothing but the seed, so every issue of every
// horizon, truth and sigma reads the same ones, and an issue whose
// first future interval is a reads steps a and later only. The memo
// holds a window of steps [lo, hi): cols[k] is step lo+k's draws for
// intervals lo+k .. hi-1, the carbon (stream 0) and price (stream 1)
// draws interleaved — g, never sigma·g, so an issue computes the very
// expression the unmemoized sum did. A window of W steps holds
// 8·W·(W+1) bytes of draws, and W never exceeds MaxRevisionIntervals:
// 8,396,800 bytes at most; the server's two 96-interval cycles ahead
// keep W ≤ 192, 296 kB. Innovations is safe for concurrent use.
type Innovations struct {
	seed int64

	mu   sync.Mutex
	lo   int
	cols [][]float64
}

// NewInnovations returns an empty memo of seed's draws.
func NewInnovations(seed int64) *Innovations { return &Innovations{seed: seed} }

// steps returns the draws of steps a .. n-1 (n-a ≤ MaxRevisionIntervals):
// element k is step a+k's column, covering at least intervals
// a+k .. n-1. The window then starts at a — the steps before it are
// dropped, as no issue at a or later reads them, and an earlier issue
// draws them again. It grows to cover n by copying what it holds into a
// fresh block and drawing the rest, or, when that would span more than
// MaxRevisionIntervals steps, is redrawn as [a, n). A published column
// is never written, so a reader needs no lock.
func (in *Innovations) steps(a, n int) [][]float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	lo, hi := in.lo, in.lo+len(in.cols)
	if a >= lo && n <= hi {
		in.lo, in.cols = a, in.cols[a-lo:]
		return in.cols[:n-a]
	}
	top := max(hi, n)
	if top-a > MaxRevisionIntervals {
		top = n
	}
	w := top - a
	block := make([]float64, w*(w+1))
	cols := make([][]float64, w)
	for k := range cols {
		m := a + k
		col := block[: 2*(top-m) : 2*(top-m)]
		block = block[2*(top-m):]
		i := m
		if lo <= m && m < hi {
			i += copy(col, in.cols[m-lo]) / 2
		}
		for ; i < top; i++ {
			col[2*(i-m)] = gauss(in.seed, 0, i, m)
			col[2*(i-m)+1] = gauss(in.seed, 1, i, m)
		}
		cols[k] = col
	}
	in.lo, in.cols = a, cols
	return cols[:n-a]
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
