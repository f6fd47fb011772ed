package obs

// ring is a fixed-capacity buffer that overwrites its oldest element
// when full, so appends never allocate. It does no locking: its owner
// guards it. Positions count retained elements oldest first.
type ring[T any] struct {
	buf  []T
	head int // next write position
	n    int // retained elements
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// push appends v and reports whether it overwrote the oldest element.
func (r *ring[T]) push(v T) (overwrote bool) {
	overwrote = r.n == len(r.buf)
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	if !overwrote {
		r.n++
	}
	return overwrote
}

// at returns the retained element at position i, 0 the oldest.
func (r *ring[T]) at(i int) *T {
	return &r.buf[(r.head-r.n+i+len(r.buf))%len(r.buf)]
}

// copyRange copies the retained elements at positions [from, to).
func (r *ring[T]) copyRange(from, to int) []T {
	out := make([]T, to-from)
	for i := range out {
		out[i] = *r.at(from + i)
	}
	return out
}

// last copies the newest n retained elements, oldest first; n <= 0 or
// beyond what is retained copies them all.
func (r *ring[T]) last(n int) []T {
	if n <= 0 || n > r.n {
		n = r.n
	}
	return r.copyRange(r.n-n, r.n)
}
