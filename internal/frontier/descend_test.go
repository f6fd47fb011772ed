package frontier

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// scanLeast returns the lane whose pending key is least by (Slope, Lane)
// in a plain O(n) scan, or -1 when every lane is exhausted.
func scanLeast(lanes [][]float64, pos []int) int {
	best := -1
	for l, seq := range lanes {
		if pos[l] >= len(seq) {
			continue
		}
		if best < 0 || seq[pos[l]] < lanes[best][pos[best]] {
			best = l // strict <: ties keep the lower lane
		}
	}
	return best
}

// TestDescendMatchesScan holds Descend's pop sequence to a sequential
// scan for the least (Slope, Lane) on seeded random lanes: keys drawn
// from a handful of slopes (exact ties across and within lanes, signed
// zeros, +Inf), lanes of random length (some empty), heaps built in
// shuffled order, and a step that stops after a random count. It also
// checks that both ways a lane's next key can go are taken: still least
// (the run goes on, no sift) and past the runner-up (the run ends).
func TestDescendMatchesScan(t *testing.T) {
	slopes := []float64{-2, -1, math.Copysign(0, -1), 0, 0.5, 1, 3, math.Inf(1)}
	var runs, sifts, exhausted, stops int
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lanes := make([][]float64, 1+rng.Intn(12))
		total := 0
		for l := range lanes {
			for range rng.Intn(9) {
				lanes[l] = append(lanes[l], slopes[rng.Intn(len(slopes))])
			}
			total += len(lanes[l])
		}
		limit := total
		if rng.Intn(3) == 0 {
			limit = rng.Intn(total + 1)
		}

		// The reference: scan for the least pending key, limit times.
		var want []Key
		pos := make([]int, len(lanes))
		for len(want) < limit {
			l := scanLeast(lanes, pos)
			want = append(want, Key{Slope: lanes[l][pos[l]], Lane: int32(l)})
			pos[l]++
		}

		var h []Key
		for l, seq := range lanes {
			if len(seq) > 0 {
				h = append(h, Key{Slope: seq[0], Lane: int32(l)})
			}
		}
		rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
		clear(pos)
		var got []Key
		out := Descend(h, func(key Key) (Key, bool, bool) {
			if len(got) == limit {
				stops++
				return Key{}, false, true
			}
			got = append(got, key)
			l := key.Lane
			pos[l]++
			if pos[l] == len(lanes[l]) {
				exhausted++
				return Key{}, false, false
			}
			next := Key{Slope: lanes[l][pos[l]], Lane: l}
			if scanLeast(lanes, pos) == int(l) {
				runs++
			} else {
				sifts++
			}
			return next, true, false
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: %d lanes popped\n%v\nwant the scan's\n%v", seed, len(lanes), got, want)
		}
		if cap(out) != cap(h) {
			t.Fatalf("seed %d: Descend returned a buffer of cap %d, not h's %d", seed, cap(out), cap(h))
		}
	}
	if runs == 0 || sifts == 0 || exhausted == 0 || stops == 0 {
		t.Fatalf("a branch never ran: %d run steps, %d run ends, %d lanes exhausted, %d stops", runs, sifts, exhausted, stops)
	}
	t.Logf("%d run steps, %d run ends, %d lanes exhausted, %d stops", runs, sifts, exhausted, stops)
}
