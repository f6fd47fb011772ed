package obs

import (
	"sync"
	"time"
)

// Event is one structured trace record: a timestamped span (duration 0
// for point events) with free-form string labels. The control stack
// emits them for controller ticks, re-plans, migrations, signal
// installs, and forecast revisions; GET /debug/events serves the
// recent window as JSON.
type Event struct {
	// Seq is a monotonically increasing sequence number, so consumers
	// can detect drops between snapshots of the bounded ring.
	Seq uint64 `json:"seq"`

	// AtUnixS is the event time in Unix seconds (the emitter's clock —
	// the server's replaceable wall clock, so fake-clock tests line
	// events up with the ticks that produced them).
	AtUnixS float64 `json:"at_unix_s"`

	// Name identifies the event kind (e.g. "controller.tick", "replan",
	// "migrate").
	Name string `json:"name"`

	// DurS is the span duration in seconds; 0 for point events.
	DurS float64 `json:"dur_s,omitempty"`

	// Labels carry the event's dimensions (job id, region, counts...).
	Labels map[string]string `json:"labels,omitempty"`
}

// DefaultRingCapacity bounds a Ring constructed with capacity <= 0.
const DefaultRingCapacity = 512

// Ring is a bounded in-memory event buffer: appends never allocate
// beyond the fixed capacity, the oldest events are overwritten first,
// and Snapshot returns a copy in emission order. Safe for concurrent
// use.
type Ring struct {
	mu     sync.Mutex
	events ring[Event]
	seq    uint64
}

// NewRing returns a ring holding up to capacity events
// (DefaultRingCapacity if capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{events: newRing[Event](capacity)}
}

// Emit appends one event. kv lists labels as alternating key, value
// pairs; a trailing key without a value is dropped.
func (r *Ring) Emit(at time.Time, name string, dur time.Duration, kv ...string) {
	var labels map[string]string
	if len(kv) >= 2 {
		labels = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			labels[kv[i]] = kv[i+1]
		}
	}
	r.mu.Lock()
	r.seq++
	r.events.push(Event{
		Seq:     r.seq,
		AtUnixS: float64(at.UnixNano()) / 1e9,
		Name:    name,
		DurS:    dur.Seconds(),
		Labels:  labels,
	})
	r.mu.Unlock()
}

// Snapshot copies the most recent events, oldest first. limit <= 0 (or
// beyond the retained window) returns everything retained.
func (r *Ring) Snapshot(limit int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.last(limit)
}

// SnapshotSince copies the retained events with Seq > since, oldest
// first, capped at limit (limit <= 0 returns all of them) — the cursor
// read GET /debug/events?since= serves. Unlike Snapshot's limit (which
// keeps the newest events), the cap here keeps the OLDEST qualifying
// events, so a poller advancing its cursor by the last Seq it received
// reads the stream contiguously and re-reads nothing. A since at or
// beyond the newest retained Seq returns an empty slice; a since older
// than the retained window returns the whole window (the gap is
// detectable from the first returned Seq exceeding since+1).
func (r *Ring) SnapshotSince(since uint64, limit int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Seqs are assigned contiguously, so the count of retained events
	// newer than since is computable without scanning: the retained
	// Seqs are (r.seq-n, r.seq] for the n retained.
	n := r.events.n
	if since >= r.seq {
		n = 0
	} else if avail := r.seq - since; uint64(n) > avail {
		n = int(avail)
	}
	// The n qualifying events are the newest; keep the oldest limit.
	from := r.events.n - n
	if limit > 0 && limit < n {
		n = limit
	}
	return r.events.copyRange(from, from+n)
}

// Len reports how many events are currently retained.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.n
}
