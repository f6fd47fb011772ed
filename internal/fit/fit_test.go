package fit

import (
	"math"
	"math/rand"
	"testing"

	"perseus/internal/gpu"
)

func TestRecoverSynthetic(t *testing.T) {
	// Generate points from a known exponential and check recovery.
	truth := Exp{A: 50, B: -0.08, C: 200, T0: 100}
	var ts, es []float64
	for x := 100.0; x <= 160; x += 4 {
		ts = append(ts, x)
		es = append(es, truth.Eval(x))
	}
	got, err := FitExp(ts, es)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{100, 113, 127, 142, 160} {
		want := truth.Eval(x)
		if rel := math.Abs(got.Eval(x)-want) / want; rel > 1e-3 {
			t.Errorf("Eval(%v) = %v, want %v (rel err %.2e)", x, got.Eval(x), want, rel)
		}
	}
}

func TestRecoverWithNoise(t *testing.T) {
	truth := Exp{A: 30, B: -0.15, C: 80, T0: 0}
	rng := rand.New(rand.NewSource(5))
	var ts, es []float64
	for x := 0.0; x <= 40; x += 2 {
		ts = append(ts, x)
		es = append(es, truth.Eval(x)*(1+0.005*rng.NormFloat64()))
	}
	got, err := FitExp(ts, es)
	if err != nil {
		t.Fatal(err)
	}
	if r := RMSE(got, ts, es); r > 1.0 {
		t.Errorf("noisy fit RMSE %v too large", r)
	}
}

func TestFitGPUCurve(t *testing.T) {
	// Figure 11 (Appendix D): the exponential should be a natural fit to
	// GPU Pareto-optimal (time, energy) measurements. Require a good
	// relative fit on every preset for a representative computation.
	for _, m := range []*gpu.Model{gpu.A100PCIe, gpu.A40} {
		pts := m.ParetoPoints(0.15, m.MemBoundFwd, m.BlockingW)
		var ts, es []float64
		for _, p := range pts {
			ts = append(ts, p.Time)
			es = append(es, p.Energy)
		}
		c, err := FitExp(ts, es)
		if err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		for _, e := range es {
			mean += e
		}
		mean /= float64(len(es))
		if r := RMSE(c, ts, es); r/math.Abs(mean) > 0.05 {
			t.Errorf("%s: exponential fit relative RMSE %.3f > 5%%", m.Name, r/math.Abs(mean))
		}
	}
}

func TestFitMonotoneDecreasing(t *testing.T) {
	// Over the fitted range, the curve must be decreasing (slowing down
	// never increases Pareto energy); otherwise capacities e+ / e- from
	// the fit would go negative.
	m := gpu.A40
	pts := m.ParetoPoints(0.08, m.MemBoundBwd, m.BlockingW)
	var ts, es []float64
	for _, p := range pts {
		ts = append(ts, p.Time)
		es = append(es, p.Energy)
	}
	c, err := FitExp(ts, es)
	if err != nil {
		t.Fatal(err)
	}
	if c.B >= 0 || c.A <= 0 {
		t.Fatalf("fit %v should decay (A>0, B<0)", c)
	}
	prev := c.Eval(ts[0])
	for x := ts[0]; x <= ts[len(ts)-1]; x += (ts[len(ts)-1] - ts[0]) / 200 {
		cur := c.Eval(x)
		if cur > prev+1e-9 {
			t.Fatalf("fit not monotone decreasing at t=%v", x)
		}
		prev = cur
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitExp([]float64{1, 2}, []float64{3, 2}); err == nil {
		t.Error("2 points should error")
	}
	if _, err := FitExp([]float64{1, 2, 2}, []float64{3, 2, 1}); err == nil {
		t.Error("non-increasing times should error")
	}
	if _, err := FitExp([]float64{1, 2, 3}, []float64{3, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitPiecewise([]float64{1}, []float64{1}); err == nil {
		t.Error("1 point should error")
	}
	if _, err := FitPiecewise([]float64{2, 1}, []float64{1, 2}); err == nil {
		t.Error("decreasing times should error")
	}
}

func TestPiecewiseInterpolation(t *testing.T) {
	p, err := FitPiecewise([]float64{0, 10, 20}, []float64{100, 50, 40})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{0, 100}, {10, 50}, {20, 40}, {5, 75}, {15, 45},
		{-10, 150}, // extrapolate left
		{30, 30},   // extrapolate right
	}
	for _, c := range cases {
		if got := p.Eval(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestExpString(t *testing.T) {
	e := Exp{A: 1, B: -2, C: 3, T0: 4}
	if e.String() == "" {
		t.Error("empty String()")
	}
}

// referenceFitExp is the exhaustive search FitExp replaced: 60 grid
// rates and 80 golden-section steps, down to the last ULP of b, with
// each candidate's sums and exponentials recomputed from scratch. It is
// the oracle FitExp must fit no worse than.
func referenceFitExp(ts, es []float64) Exp {
	t0 := ts[0]
	span := ts[len(ts)-1] - ts[0]
	sse := func(b float64) (float64, float64, float64) {
		var su, suu, se, sue float64
		n := float64(len(ts))
		for i := range ts {
			u := math.Exp(b * (ts[i] - t0))
			su += u
			suu += u * u
			se += es[i]
			sue += u * es[i]
		}
		den := n*suu - su*su
		if math.Abs(den) < 1e-30 {
			return math.Inf(1), 0, 0
		}
		a := (n*sue - su*se) / den
		c := (se - a*su) / n
		var s float64
		for i := range ts {
			r := a*math.Exp(b*(ts[i]-t0)) + c - es[i]
			s += r * r
		}
		return s, a, c
	}
	bestB, bestSSE := -1.0/span, math.Inf(1)
	for k := 0; k < 60; k++ {
		b := -math.Pow(10, -2+4*float64(k)/59) / span
		if s, _, _ := sse(b); s < bestSSE {
			bestSSE, bestB = s, b
		}
	}
	lo, hi := bestB*3, bestB/3
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, _, _ := sse(x1)
	f2, _, _ := sse(x2)
	for iter := 0; iter < 80; iter++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1, _, _ = sse(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2, _, _ = sse(x2)
		}
	}
	b := (lo + hi) / 2
	if s, _, _ := sse(b); s > bestSSE {
		b = bestB
	}
	_, a, c := sse(b)
	return Exp{A: a, B: b, C: c, T0: t0}
}

// fitSSE is the fit's sum of squared residuals over the points.
func fitSSE(c Exp, ts, es []float64) float64 {
	var s float64
	for i := range ts {
		r := c.Eval(ts[i]) - es[i]
		s += r * r
	}
	return s
}

// TestFitExpNoWorseThanReference requires FitExp's SSE to be no worse
// than referenceFitExp's, over random point sets: noisy exponentials and
// plain noise, 3 to 40 points. Both stop where the SSE is flat to
// rounding, at different b, so the bound allows a relative 1e-6 plus
// 1e-12·Σe² for fits that are exact up to rounding.
func TestFitExpNoWorseThanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5000; trial++ {
		n := 3 + rng.Intn(38)
		truth := Exp{A: 1 + 100*rng.Float64(), B: -rng.ExpFloat64() / 10, C: 200 * rng.Float64(), T0: 50 * rng.Float64()}
		ts, es := make([]float64, n), make([]float64, n)
		x := truth.T0
		for i := range ts {
			x += 0.1 + 5*rng.Float64()
			ts[i] = x
			es[i] = truth.Eval(x) * (1 + 0.05*rng.NormFloat64())
			if trial%5 == 0 {
				es[i] = 500 * rng.Float64()
			}
		}
		got, err := FitExp(ts, es)
		if err != nil {
			t.Fatal(err)
		}
		var sumE2 float64
		for _, e := range es {
			sumE2 += e * e
		}
		want := referenceFitExp(ts, es)
		if g, w := fitSSE(got, ts, es), fitSSE(want, ts, es); g > w*(1+1e-6)+1e-12*sumE2 {
			t.Fatalf("trial %d: FitExp %+v SSE %g, reference %+v SSE %g", trial, got, g, want, w)
		}
	}
}
