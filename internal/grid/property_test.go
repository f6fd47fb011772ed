package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomSignal draws a small random signal with irregular interval
// lengths, optional caps, and full-precision float rates.
func randomSignal(rng *rand.Rand) *Signal {
	s := &Signal{Name: fmt.Sprintf("prop-%d", rng.Intn(1000))}
	t := 0.0
	n := 1 + rng.Intn(6)
	for k := 0; k < n; k++ {
		end := t + 60 + 7200*rng.Float64()
		iv := Interval{
			StartS:         t,
			EndS:           end,
			CarbonGPerKWh:  600 * rng.Float64(),
			PriceUSDPerKWh: 0.3 * rng.Float64(),
		}
		if rng.Intn(3) == 0 {
			iv.CapW = 10000 * rng.Float64()
		}
		s.Intervals = append(s.Intervals, iv)
		t = end
	}
	return s
}

// naiveAccrue integrates the signal by brute-force sub-stepping, as an
// independent oracle for Accrue's closed-form interval walk.
func naiveAccrue(sig *Signal, t0, t1, powerW float64, steps int) (e, c, usd float64) {
	if t1 <= t0 {
		return 0, 0, 0
	}
	dt := (t1 - t0) / float64(steps)
	for i := 0; i < steps; i++ {
		mid := t0 + (float64(i)+0.5)*dt
		de := powerW * dt
		e += de
		if iv, ok := sig.AtCyclic(mid); ok {
			c += de / JoulesPerKWh * iv.CarbonGPerKWh
			usd += de / JoulesPerKWh * iv.PriceUSDPerKWh
		}
	}
	return e, c, usd
}

// TestAccrueProperties checks the cyclic integrator's algebraic
// properties on random signals and windows: additivity over a split
// point, exact periodicity (a window of n whole periods accrues
// exactly n times one period), shift invariance of whole-period
// windows, zero-length windows, and linearity in power.
func TestAccrueProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sig := randomSignal(rng)
		h := sig.Horizon()
		p := 100 + 5000*rng.Float64()

		// Additivity: [t0, t1) == [t0, tm) + [tm, t1), windows chosen to
		// wrap the horizon several times.
		t0 := rng.Float64() * 2 * h
		t1 := t0 + rng.Float64()*3*h
		tm := t0 + rng.Float64()*(t1-t0)
		e, c, usd := Accrue(sig, t0, t1, p)
		e1, c1, u1 := Accrue(sig, t0, tm, p)
		e2, c2, u2 := Accrue(sig, tm, t1, p)
		if math.Abs(e-(e1+e2)) > 1e-6*(1+e) ||
			math.Abs(c-(c1+c2)) > 1e-6*(1+c) ||
			math.Abs(usd-(u1+u2)) > 1e-9*(1+usd) {
			t.Fatalf("trial %d: accrual not additive at split %v: (%v,%v,%v) != (%v,%v,%v)+(%v,%v,%v)",
				trial, tm, e, c, usd, e1, c1, u1, e2, c2, u2)
		}

		// Periodicity: n whole periods == n × one period.
		n := 1 + rng.Intn(4)
		eN, cN, uN := Accrue(sig, 0, float64(n)*h, p)
		e1, c1, u1 = Accrue(sig, 0, h, p)
		if math.Abs(eN-float64(n)*e1) > 1e-6*(1+eN) ||
			math.Abs(cN-float64(n)*c1) > 1e-6*(1+cN) ||
			math.Abs(uN-float64(n)*u1) > 1e-9*(1+uN) {
			t.Fatalf("trial %d: %d periods != %d × one period", trial, n, n)
		}

		// Shift invariance: any whole-period window accrues the same as
		// [0, h).
		shift := rng.Float64() * 2 * h
		eS, cS, uS := Accrue(sig, shift, shift+h, p)
		if math.Abs(eS-e1) > 1e-6*(1+e1) || math.Abs(cS-c1) > 1e-6*(1+c1) || math.Abs(uS-u1) > 1e-9*(1+u1) {
			t.Fatalf("trial %d: whole-period window at %v differs from [0, h)", trial, shift)
		}

		// Zero-length and inverted windows accrue nothing.
		x := rng.Float64() * h
		if e, c, usd := Accrue(sig, x, x, p); e != 0 || c != 0 || usd != 0 {
			t.Fatalf("trial %d: zero-length window accrued (%v,%v,%v)", trial, e, c, usd)
		}
		if e, _, _ := Accrue(sig, x, x-1, p); e != 0 {
			t.Fatalf("trial %d: inverted window accrued energy", trial)
		}

		// Linearity in power.
		e2x, c2x, _ := Accrue(sig, t0, t1, 2*p)
		if math.Abs(e2x-2*e) > 1e-6*(1+e2x) || math.Abs(c2x-2*c) > 1e-6*(1+c2x) {
			t.Fatalf("trial %d: doubling power does not double accrual", trial)
		}

		// Against the brute-force oracle on a wrap-around window.
		if trial%20 == 0 {
			we, wc, wu := naiveAccrue(sig, t0, t1, p, 200000)
			if math.Abs(e-we) > 1e-3*(1+we) || math.Abs(c-wc) > 1e-3*(1+wc) || math.Abs(usd-wu) > 1e-3*(1+wu) {
				t.Fatalf("trial %d: closed form (%v,%v,%v) vs oracle (%v,%v,%v)", trial, e, c, usd, we, wc, wu)
			}
		}
	}
}
