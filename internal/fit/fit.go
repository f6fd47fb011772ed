// Package fit implements the continuous relaxation of paper §4.1 /
// Appendix D: fitting the exponential function e(t) = a·e^{b·t} + c to the
// Pareto-optimal (time, energy) measurements of each forward and backward
// computation. The exponential captures the diminishing returns of
// spending energy to reduce computation time and turns the NP-hard
// discrete problem into an efficiently solvable continuous one.
//
// The fit runs inside every profile upload, once per computation type,
// so the first schedule waits on it. For a fixed rate b the best (a, c)
// are a linear least-squares solve, so FitExp searches b alone: a
// 24-rate log grid, then Brent's method, about 34 evaluations of the
// squared error per fit.
package fit

import (
	"fmt"
	"math"
)

// Curve maps a planned computation duration to predicted energy.
type Curve interface {
	// Eval returns the predicted energy at duration t.
	Eval(t float64) float64
}

// Exp is the fitted exponential a·e^{b·(t−t0)} + c. The time shift t0
// keeps the exponent small for numerical stability; it is folded into a
// when convenient but kept explicit so durations far from zero (integer τ
// units) do not overflow.
type Exp struct {
	A, B, C float64
	T0      float64
}

// Eval returns a·e^{b·(t−t0)} + c.
func (e Exp) Eval(t float64) float64 {
	return e.A*math.Exp(e.B*(t-e.T0)) + e.C
}

func (e Exp) String() string {
	return fmt.Sprintf("%.6g*exp(%.6g*(t-%.6g))+%.6g", e.A, e.B, e.T0, e.C)
}

// decayRates is FitExp's bracketing grid, 24 rates from 0.01 to 100
// spaced evenly in log scale, a factor of about 1.49 apart, so the best
// one's neighbours lie inside the [3b, b/3] interval Brent's method
// refines. It does not depend on the data, so it is computed once.
var decayRates = func() (r [24]float64) {
	for k := range r {
		r[k] = math.Pow(10, -2+4*float64(k)/23)
	}
	return r
}()

// FitExp fits e(t) = a·e^{b·(t−t0)} + c to the points by least squares:
// for each candidate decay rate b, the optimal (a, c) solve a 2×2 linear
// system. b itself is bracketed on a log-spaced grid and refined from the
// best grid point with Brent's method (parabolic steps, golden-section
// steps where a parabola is not trusted) to a relative tolerance of √ε:
// that close to its minimum the SSE is flat to rounding, so further
// steps would only follow rounding noise. The refinement only moves to a
// lower SSE, so the fit is never worse than the best grid point. Points
// must be at least three, with strictly increasing times.
func FitExp(ts, es []float64) (Exp, error) {
	if len(ts) != len(es) {
		return Exp{}, fmt.Errorf("fit: %d times vs %d energies", len(ts), len(es))
	}
	if len(ts) < 3 {
		return Exp{}, fmt.Errorf("fit: need at least 3 points, got %d", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			return Exp{}, fmt.Errorf("fit: times not strictly increasing at %d", i)
		}
	}
	t0 := ts[0]
	span := ts[len(ts)-1] - ts[0]
	if span <= 0 {
		return Exp{}, fmt.Errorf("fit: degenerate time span")
	}

	// Each candidate b costs one exponential per point: u keeps them for
	// the residual pass, and the offsets and Σe do not depend on b.
	n := float64(len(ts))
	dt, u := make([]float64, len(ts)), make([]float64, len(ts))
	var se float64
	for i := range ts {
		dt[i] = ts[i] - t0
		se += es[i]
	}
	sse := func(b float64) (float64, float64, float64) {
		// Linear least squares for (a, c) with u = exp(b (t - t0)).
		var su, suu, sue float64
		for i := range dt {
			u[i] = math.Exp(b * dt[i])
			su += u[i]
			suu += u[i] * u[i]
			sue += u[i] * es[i]
		}
		den := n*suu - su*su
		if math.Abs(den) < 1e-30 {
			return math.Inf(1), 0, 0
		}
		a := (n*sue - su*se) / den
		c := (se - a*su) / n
		var s float64
		for i := range u {
			r := a*u[i] + c - es[i]
			s += r * r
		}
		return s, a, c
	}

	// Bracket b over decay rates spanning "barely curved" to "cliff".
	x, fx := -1.0/span, math.Inf(1)
	var a, c float64
	for _, rate := range decayRates {
		b := -rate / span // 0.01/span .. 100/span
		if s, sa, sc := sse(b); s < fx {
			x, fx, a, c = b, s, sa, sc
		}
	}

	// Brent's minimization on [3x, x/3] (both negative), after Brent,
	// "Algorithms for Minimization without Derivatives" (1973), ch. 5:
	// x is the lowest point yet, w the second lowest, v the one before
	// w; d is the last step and e the one before it. The tolerance is
	// met within a few dozen steps; the cap is only a guard.
	const (
		cgold = 0.3819660112501051    // (3 − √5)/2
		tol   = 1.4901161193847656e-8 // √ε
	)
	lo, hi := 3*x, x/3
	w, v, fw, fv := x, x, fx, fx
	var d, e float64
	for range 100 {
		mid := (lo + hi) / 2
		tol1 := tol * math.Abs(x)
		tol2 := 2 * tol1
		if math.Abs(x-mid) <= tol2-(hi-lo)/2 {
			break
		}
		golden := true
		if math.Abs(e) > tol1 {
			// Parabola through x, w, v; its vertex is x + p/q.
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			} else {
				q = -q
			}
			// Take it only if it is inside the interval and shorter than
			// half the step before last (false for NaN, too).
			if math.Abs(p) < math.Abs(q*e/2) && p > q*(lo-x) && p < q*(hi-x) {
				e, d = d, p/q
				if t := x + d; t-lo < tol2 || hi-t < tol2 {
					d = math.Copysign(tol1, mid-x)
				}
				golden = false
			}
		}
		if golden {
			if x >= mid {
				e = lo - x
			} else {
				e = hi - x
			}
			d = cgold * e
		}
		t := x + d
		if math.Abs(d) < tol1 {
			t = x + math.Copysign(tol1, d)
		}
		ft, ta, tc := sse(t)
		if ft <= fx {
			if t >= x {
				lo = x
			} else {
				hi = x
			}
			v, fv, w, fw = w, fw, x, fx
			x, fx, a, c = t, ft, ta, tc
			continue
		}
		if t < x {
			lo = t
		} else {
			hi = t
		}
		if ft <= fw || w == x {
			v, fv, w, fw = w, fw, t, ft
		} else if ft <= fv || v == x || v == w {
			v, fv = t, ft
		}
	}
	return Exp{A: a, B: x, C: c, T0: t0}, nil
}

// PiecewiseLinear interpolates linearly between measured points; outside
// the measured range it extrapolates with the boundary segment's slope.
// It is the ablation alternative to the exponential fit (DESIGN.md §5).
type PiecewiseLinear struct {
	ts, es []float64
}

// FitPiecewise builds a piecewise-linear curve through the points, which
// must have strictly increasing times.
func FitPiecewise(ts, es []float64) (*PiecewiseLinear, error) {
	if len(ts) != len(es) || len(ts) < 2 {
		return nil, fmt.Errorf("fit: need at least 2 matched points")
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			return nil, fmt.Errorf("fit: times not strictly increasing at %d", i)
		}
	}
	return &PiecewiseLinear{
		ts: append([]float64(nil), ts...),
		es: append([]float64(nil), es...),
	}, nil
}

// Eval returns the interpolated energy at duration t.
func (p *PiecewiseLinear) Eval(t float64) float64 {
	n := len(p.ts)
	// Find the segment by binary search.
	lo, hi := 0, n-1
	switch {
	case t <= p.ts[0]:
		lo, hi = 0, 1
	case t >= p.ts[n-1]:
		lo, hi = n-2, n-1
	default:
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if p.ts[mid] <= t {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	t1, t2 := p.ts[lo], p.ts[hi]
	e1, e2 := p.es[lo], p.es[hi]
	return e1 + (e2-e1)*(t-t1)/(t2-t1)
}

// RMSE returns the root-mean-square error of a curve over the points.
func RMSE(c Curve, ts, es []float64) float64 {
	var s float64
	for i := range ts {
		r := c.Eval(ts[i]) - es[i]
		s += r * r
	}
	return math.Sqrt(s / float64(len(ts)))
}
