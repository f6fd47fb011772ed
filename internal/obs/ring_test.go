package obs

import (
	"slices"
	"testing"
)

// TestRingLast pushes past a ring's capacity and reads the newest n for
// every n from 0 to one past the capacity: the newest n oldest first,
// and all that is retained for 0 and past the capacity. Only the pushes
// that found the ring full report an overwrite.
func TestRingLast(t *testing.T) {
	const capacity, pushes = 5, 12
	r := newRing[int](capacity)
	for v := 1; v <= pushes; v++ {
		if got, want := r.push(v), v > capacity; got != want {
			t.Fatalf("push %d reports overwrite %v, want %v", v, got, want)
		}
	}
	retained := []int{8, 9, 10, 11, 12}
	for n := 0; n <= capacity+1; n++ {
		want := retained
		if n > 0 && n <= capacity {
			want = retained[capacity-n:]
		}
		if got := r.last(n); !slices.Equal(got, want) {
			t.Fatalf("last(%d) = %v, want %v", n, got, want)
		}
	}
	for i, v := range retained {
		if got := *r.at(i); got != v {
			t.Fatalf("at(%d) = %d, want %d", i, got, v)
		}
	}
	if got := r.copyRange(1, 3); !slices.Equal(got, []int{9, 10}) {
		t.Fatalf("copyRange(1, 3) = %v, want [9 10]", got)
	}
}
