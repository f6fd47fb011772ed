package frontier

import "math"

// Key is one lane's pending step in Descend, which takes the least
// (Slope, Lane) first. Lanes are unique, so for non-NaN slopes the
// order is strict and total: the walk picks exactly what an O(n) scan
// for the least key would, whatever the heap's shape.
type Key struct {
	Slope float64
	Lane  int32
}

func (a Key) less(b Key) bool { return a.Slope < b.Slope || (a.Slope == b.Slope && a.Lane < b.Lane) }

// Descend is the one steepest-descent walk, whose lanes are the fleet
// allocator's jobs and Merge's tables. It heapifies h, one key per lane with a pending step, and
// calls step with the least key: step takes that step and returns the
// lane's next key, ok false once the lane is exhausted, stop true to end
// the walk. A steepest-first walk keys by the negated slope, exactly.
//
// The lane just stepped usually still sorts first, so the walk moves in
// runs: it reads the runner-up — the root's smaller child — once per
// run, steps the same lane while its next key sorts before it, and
// sifts only when a run ends. Descend returns h's buffer for reuse.
func Descend(h []Key, step func(Key) (next Key, ok, stop bool)) []Key {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
	for len(h) > 0 {
		second := Key{Slope: math.Inf(1), Lane: math.MaxInt32} // alone: nothing ends the run
		for _, c := range h[1:min(len(h), 3)] {
			if c.less(second) {
				second = c
			}
		}
		for key := h[0]; ; {
			next, ok, stop := step(key)
			if stop {
				return h
			}
			if ok && next.less(second) {
				key = next // the run goes on
				continue
			}
			if !ok {
				next, h = h[len(h)-1], h[:len(h)-1] // exhausted: the last key sinks from the root
			}
			if len(h) > 0 {
				siftDown(h, 0, next)
			}
			break
		}
	}
	return h
}

// siftDown places k at the position the hole at i sinks to.
func siftDown(h []Key, i int, k Key) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = k
}
