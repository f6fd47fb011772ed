package grid

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"perseus/internal/frontier"
)

// Window is a signal prepared for planning under one objective: checked
// once (Signal.Validate), with each interval's weight per joule and the
// intervals in rate order — what every solve on the signal would
// otherwise recompute. A prepared Window is immutable, so any number of
// solves may share one, from any number of goroutines: a controller
// tick's jobs planning one forecast window solve on one Window.
type Window struct {
	sig  *Signal
	obj  Objective
	rate []float64 // PerJoule(obj, sig.Intervals[k])
	// order holds the interval indices in rate order (byRate), which the
	// price search walks its lanes in. A Solver's own window of the
	// signal it was handed leaves it empty: a single solve sorts only the
	// intervals it has steps to decide in.
	order []uint64
}

// Prepare validates sig and prepares it for solves minimizing obj (""
// means carbon). The window reads sig, which must not change while the
// window is in use.
func Prepare(sig *Signal, obj Objective) (*Window, error) {
	w := new(Window)
	if err := w.prepare(sig, obj); err != nil {
		return nil, err
	}
	w.order = make([]uint64, len(sig.Intervals))
	for k := range w.order {
		w.order[k] = uint64(k)
	}
	byRate(w.order, len(w.order), func(k uint64) float64 { return w.rate[k] })
	return w, nil
}

// prepare fills w for sig and obj, reusing its buffers, all but the
// order.
func (w *Window) prepare(sig *Signal, obj Objective) error {
	if err := checkSignal(sig); err != nil {
		return err
	}
	obj, err := ParseObjective(string(obj))
	if err != nil {
		return err
	}
	w.sig, w.obj = sig, obj
	w.rate, w.order = w.rate[:0], w.order[:0]
	for _, iv := range sig.Intervals {
		w.rate = append(w.rate, PerJoule(obj, iv))
	}
	return nil
}

// byRate sorts ks, interval indices below n, by rate, near enough:
// sorted on the rates' bits, the low ones giving way to the index,
// which is all that is kept. Rates are never negative, so their bits
// order as they do.
func byRate(ks []uint64, n int, rate func(k uint64) float64) {
	shift := bits.Len(uint(n))
	for i, k := range ks {
		ks[i] = math.Float64bits(rate(k))>>shift<<shift | k
	}
	slices.Sort(ks)
	for i := range ks {
		ks[i] &= 1<<shift - 1
	}
}

// checkSignal validates a signal to plan on.
func checkSignal(sig *Signal) error {
	if sig == nil {
		return fmt.Errorf("grid: planning needs a signal")
	}
	return sig.Validate()
}

// normalize validates the planning inputs the window leaves open — the
// table and the options — and resolves the option defaults through the
// shared plan.Request rules: deadline 0 means the signal horizon (and
// may not exceed it), PowerScale <= 0 means 1. The options' objective
// ("" means carbon) must be the window's.
func (w *Window) normalize(lt *frontier.LookupTable, opts Options) (deadline, scale float64, err error) {
	if lt == nil || len(lt.Points) == 0 {
		return 0, 0, fmt.Errorf("grid: planning needs a characterized frontier table")
	}
	if w == nil || w.sig == nil {
		return 0, 0, fmt.Errorf("grid: planning needs a signal")
	}
	req := opts.request()
	if err := req.Validate(); err != nil {
		return 0, 0, err
	}
	if obj, _ := ParseObjective(string(opts.Objective)); obj != w.obj {
		return 0, 0, fmt.Errorf("grid: a %s plan asked of a window prepared for %s", obj, w.obj)
	}
	if deadline, err = req.ResolveDeadline(w.sig.Horizon()); err != nil {
		return 0, 0, err
	}
	return deadline, req.Scale(), nil
}
