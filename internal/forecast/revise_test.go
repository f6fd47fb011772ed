package forecast

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"perseus/internal/grid"
)

// referenceRevisionsAt is Revisions.At before the innovation memo: every
// issue hashes each (interval, step) draw afresh. The memoized At must
// equal it bit for bit.
func referenceRevisionsAt(r *Revisions, t float64) *Forecast {
	sigma := r.Sigma
	if sigma == 0 {
		sigma = 0.10
	}
	level := r.Level
	if level == 0 {
		level = 0.9
	}
	zq := math.Sqrt2 * math.Erfinv(2*level-1)
	steps := ExtendCyclic(r.Truth, horizonOr(r.HorizonS, r.Truth))
	cur := revealedSteps(steps, t) - 1
	f := &Forecast{IssuedS: t, Level: level,
		Signal: &grid.Signal{Name: steps.Name + "/revised"}}
	for i, iv := range steps.Intervals {
		if i > cur {
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
	return f
}

// sameForecastBits reports the first difference between two forecasts,
// comparing every float by its bits ("" when identical).
func sameForecastBits(got, want *Forecast) string {
	if got.IssuedS != want.IssuedS || got.Level != want.Level || got.Signal.Name != want.Signal.Name {
		return fmt.Sprintf("header %v/%v/%q, want %v/%v/%q", got.IssuedS, got.Level, got.Signal.Name, want.IssuedS, want.Level, want.Signal.Name)
	}
	if len(got.Signal.Intervals) != len(want.Signal.Intervals) || len(got.Carbon) != len(want.Carbon) || len(got.Price) != len(want.Price) {
		return fmt.Sprintf("%d intervals, want %d", len(got.Signal.Intervals), len(want.Signal.Intervals))
	}
	b := math.Float64bits
	for i, g := range got.Signal.Intervals {
		w := want.Signal.Intervals[i]
		if b(g.StartS) != b(w.StartS) || b(g.EndS) != b(w.EndS) || b(g.CapW) != b(w.CapW) ||
			b(g.CarbonGPerKWh) != b(w.CarbonGPerKWh) || b(g.PriceUSDPerKWh) != b(w.PriceUSDPerKWh) {
			return fmt.Sprintf("interval %d: %+v, want %+v", i, g, w)
		}
		for _, p := range [][2]Band{{got.Carbon[i], want.Carbon[i]}, {got.Price[i], want.Price[i]}} {
			if b(p[0].Lo) != b(p[1].Lo) || b(p[0].Hi) != b(p[1].Hi) {
				return fmt.Sprintf("interval %d band %+v, want %+v", i, p[0], p[1])
			}
		}
	}
	return ""
}

// revisionTruths are the truth traces the differential runs over: a
// jittered 96-interval day and the bundled 24-hour one.
func revisionTruths() []*grid.Signal {
	return []*grid.Signal{
		grid.Generate(grid.GenOptions{Name: "day96", Intervals: 96, IntervalS: 900, Jitter: 0.1, Seed: 11}),
		grid.Diurnal24h(),
	}
}

// issueTimes returns times over [0, horizon], plus one past it, in the
// given order: ascending, descending, or a seeded shuffle.
func issueTimes(horizon float64, n int, order string, rng *rand.Rand) []float64 {
	ts := make([]float64, 0, n+1)
	for k := 0; k < n; k++ {
		ts = append(ts, horizon*float64(k)/float64(n)+rng.Float64()*horizon/float64(n))
	}
	ts = append(ts, horizon+1)
	switch order {
	case "descending":
		for i, j := 0, len(ts)-1; i < j; i, j = i+1, j-1 {
			ts[i], ts[j] = ts[j], ts[i]
		}
	case "random":
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	}
	return ts
}

// TestRevisionsMemoMatchesHashing holds the memoized issuer to the
// hashing reference bit for bit: several seeds, sigmas and levels,
// horizons from a part of one cycle up to MaxRevisionIntervals, issue
// times in ascending, descending and random order, each provider
// filling its own memo as it goes, and one memo per seed shared by
// every provider of that seed whatever its truth, horizon or sigma.
func TestRevisionsMemoMatchesHashing(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	orders := []string{"ascending", "descending", "random"}
	cases := 0
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		shared := NewInnovations(seed)
		for ti, truth := range revisionTruths() {
			h, n := truth.Horizon(), len(truth.Intervals)
			step := truth.Intervals[0].EndS
			horizons := []float64{0, 0.4 * h, 2 * h, 2.5*h + 0.5*step}
			if seed == 7 && ti == 0 {
				// A reference issue at the cap costs ~10 ms: one seed, one truth.
				horizons = append(horizons, MaxRevisionIntervals*step)
			}
			for hi, horizon := range horizons {
				for _, sigma := range []float64{0, 0.05, 0.2, 1.7} {
					for _, level := range []float64{0, 0.6, 0.99} {
						order := orders[(hi+cases)%len(orders)]
						own := &Revisions{Truth: truth, HorizonS: horizon, Sigma: sigma, Seed: seed, Level: level}
						withShared := &Revisions{Truth: truth, HorizonS: horizon, Sigma: sigma, Seed: seed, Level: level, Innovations: shared}
						count := 6
						if horizon > 4*h {
							count = 2
						}
						for _, at := range issueTimes(horizonOr(horizon, truth), count, order, rng) {
							want := referenceRevisionsAt(own, at)
							for name, prov := range map[string]*Revisions{"own memo": own, "shared memo": withShared} {
								got, err := prov.At(at)
								if err != nil {
									t.Fatal(err)
								}
								if diff := sameForecastBits(got, want); diff != "" {
									t.Fatalf("seed %d, %d-interval truth, horizon %v, sigma %v, level %v, t %v (%s, %s): %s",
										seed, n, horizon, sigma, level, at, order, name, diff)
								}
							}
							cases++
						}
					}
				}
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d issues compared", cases)
	}
}

// TestRevisionsConcurrentIssuesShareMemo issues from many goroutines
// at once over one memo — different horizons, sigmas and issue times,
// so rows are drawn while other issues read — and holds every result
// to the hashing reference. Run it under -race.
func TestRevisionsConcurrentIssuesShareMemo(t *testing.T) {
	truth := revisionTruths()[0]
	memo := NewInnovations(5)
	type issue struct {
		prov *Revisions
		at   float64
		want *Forecast
	}
	var issues []issue
	for k := 0; k < 24; k++ {
		prov := &Revisions{Truth: truth, HorizonS: float64(1+k%5) * truth.Horizon() / 2, Sigma: 0.05 * float64(1+k%4), Seed: 5, Innovations: memo}
		at := float64(k) * 3600
		issues = append(issues, issue{prov, at, referenceRevisionsAt(prov, at)})
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(issues))
	for _, is := range issues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := is.prov.At(is.at)
			if err != nil {
				errs <- err.Error()
				return
			}
			if diff := sameForecastBits(got, is.want); diff != "" {
				errs <- fmt.Sprintf("horizon %v, t %v: %s", is.prov.HorizonS, is.at, diff)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRevisionsIntervalCap: an issue may cover exactly
// MaxRevisionIntervals intervals after the one containing its time —
// early or late in a long horizon — and one interval more is refused
// before anything is drawn; RevisionsHorizon clamps a horizon to
// exactly that reach. An early issue after a late one redraws the
// memo's window rather than stretch it past the cap.
func TestRevisionsIntervalCap(t *testing.T) {
	truth := revisionTruths()[0]
	step, h := truth.Intervals[0].EndS, truth.Horizon()
	memo := NewInnovations(3)
	issue := func(at, horizon float64) (*Forecast, error) {
		return (&Revisions{Truth: truth, HorizonS: horizon, Seed: 3, Innovations: memo}).At(at)
	}
	for _, at := range []float64{20*h + 3.5*step, 0, 0.5 * step} {
		cur := math.Floor(at / step) // the interval containing at
		atCap := (cur + 1 + MaxRevisionIntervals) * step
		if got := RevisionsHorizon(truth, at, 1e3*h); got != atCap {
			t.Fatalf("t %v: RevisionsHorizon %v, want %v", at, got, atCap)
		}
		if got := RevisionsHorizon(truth, at, atCap-1); got != atCap-1 {
			t.Fatalf("t %v: RevisionsHorizon clamps %v, which is under the cap, to %v", at, atCap-1, got)
		}
		fc, err := issue(at, atCap)
		if err != nil {
			t.Fatalf("t %v: a forecast of %d future intervals refused: %v", at, MaxRevisionIntervals, err)
		}
		if diff := sameForecastBits(fc, referenceRevisionsAt(&Revisions{Truth: truth, HorizonS: atCap, Seed: 3}, at)); diff != "" {
			t.Fatalf("t %v at the cap: %s", at, diff)
		}
		lo, cols := memo.lo, len(memo.cols)
		if cols != MaxRevisionIntervals {
			t.Fatalf("t %v: memo window of %d steps at the cap, want %d", at, cols, MaxRevisionIntervals)
		}
		for _, horizon := range []float64{atCap + step, atCap + 1, 1e3 * h} {
			if _, err := issue(at, horizon); err == nil {
				t.Fatalf("t %v: a %v s horizon (%v intervals past t's) accepted", at, horizon, horizon/step-cur-1)
			}
		}
		if memo.lo != lo || len(memo.cols) != cols {
			t.Fatalf("t %v: a refused issue moved the memo window [%d, +%d) to [%d, +%d)", at, lo, cols, memo.lo, len(memo.cols))
		}
	}
	if _, err := (&Revisions{Truth: truth, Seed: 4, Innovations: memo}).At(0); err == nil {
		t.Fatal("a memo of seed 3 accepted by a provider of seed 4")
	}
}

// TestRevisionsMemoFollowsTheClock issues as the server's controller
// does — every few intervals over 30 cycles, each issue covering to
// the end of the cycle after the one containing it — and holds each
// to the hashing reference bit for bit while the memo's window stays
// the future span, not the time since the first issue.
func TestRevisionsMemoFollowsTheClock(t *testing.T) {
	truth := revisionTruths()[0]
	step, h, n := truth.Intervals[0].EndS, truth.Horizon(), len(truth.Intervals)
	memo := NewInnovations(9)
	for at := 0.0; at < 30*h; at += 3.5 * step {
		horizon := math.Ceil((at+h)/h) * h
		prov := &Revisions{Truth: truth, HorizonS: horizon, Sigma: 0.15, Seed: 9, Innovations: memo}
		got, err := prov.At(at)
		if err != nil {
			t.Fatalf("t %v (cycle %.1f): %v", at, at/h, err)
		}
		if diff := sameForecastBits(got, referenceRevisionsAt(prov, at)); diff != "" {
			t.Fatalf("t %v: %s", at, diff)
		}
		if w := len(memo.cols); w > 2*n || memo.lo != int(at/step)+1 {
			t.Fatalf("t %v: memo window [%d, +%d), want it to start at %d and span at most %d steps",
				at, memo.lo, w, int(at/step)+1, 2*n)
		}
	}
}
