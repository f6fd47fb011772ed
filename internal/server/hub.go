package server

import (
	"context"
	"sync"
	"time"

	"perseus/internal/obs"
)

// hub is the server's notification fabric for long-poll fan-out: named
// topics whose watchers all wake on one O(1) broadcast. A topic holds
// one channel; bump closes it (releasing every parked watcher at once,
// however many there are) and installs a fresh one for the next
// generation. Subscribing is O(1), broadcasting is O(1), and no
// per-waiter state is ever registered — the design that lets one
// version bump wake 10⁵ parked trainers without the server touching
// each of them.
//
// Topics are strings so every layer shares one hub: deployed-schedule
// versions use topicSchedule(jobID), and the plan-input generation
// (the epoch every cached grid plan is keyed by) uses topicPlanEpoch.
// Watchers that need either of two events (a conditional /grid/plan
// poll cares about both the epoch and the job's frontier) park on two
// channels at once.
type hub struct {
	mu     sync.Mutex
	topics map[string]chan struct{}
	obs    *serverObs // broadcast/topic metrics (nil in bare unit tests)
}

// newHub returns an empty hub counting broadcasts into o and
// registering its topic gauge as a view of its map (nil skips both).
func newHub(o *serverObs) *hub {
	h := &hub{topics: map[string]chan struct{}{}, obs: o}
	if o != nil {
		o.reg.GaugeView("perseus_hub_topics",
			"Notification-hub topics with a live watch channel.",
			countView(&h.mu, func() int { return len(h.topics) }))
	}
	return h
}

// topicSchedule names a job's deployed-schedule version topic, bumped
// by every j.bumpLocked.
func topicSchedule(jobID string) string { return "sched:" + jobID }

// topicPlanEpoch is the plan-input generation topic, bumped whenever
// the store's epoch advances (signal re-install, forecast revision) —
// the event that invalidates every cached grid plan at once.
const topicPlanEpoch = "epoch"

// watch returns the channel that closes at the topic's next bump.
// Callers must re-check the condition they are watching after
// subscribing: a bump between reading the state and calling watch is
// otherwise lost.
func (h *hub) watch(topic string) <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.topics[topic]
	if !ok {
		ch = make(chan struct{})
		h.topics[topic] = ch
	}
	return ch
}

// bump wakes every watcher of topic in one broadcast. A topic nobody
// has watched yet has no channel and the bump is a cheap no-op — the
// hub never allocates for quiet topics.
func (h *hub) bump(topic string) {
	h.mu.Lock()
	ch, ok := h.topics[topic]
	if ok {
		delete(h.topics, topic)
	}
	if h.obs != nil && ok {
		h.obs.hubBroadcasts.Inc()
	}
	h.mu.Unlock()
	if ok {
		close(ch)
	}
}

// wakeReason says how a parked waiter was released.
type wakeReason int

const (
	wakeBumped    wakeReason = iota // a watched topic broadcast
	wakeTimeout                     // the wait deadline passed
	wakeCancelled                   // the client disconnected
)

// parkWaiter parks the calling request until one of the watch channels
// closes, the deadline passes, or ctx is cancelled (the client hung
// up). It owns the whole waiter lifecycle: the waiters gauge, the
// park-to-wake histogram on a broadcast wake, the cancellation
// counter, and the longpoll.park trace span. w2 may be nil (a nil
// channel never receives, so the select arm is inert).
func (s *Server) parkWaiter(ctx context.Context, job string, deadline time.Time, w1, w2 <-chan struct{}) wakeReason {
	remain := time.Until(deadline)
	if remain <= 0 {
		return wakeTimeout
	}
	t := time.NewTimer(remain)
	defer t.Stop()
	s.obs.waiters.Add(1)
	defer s.obs.waiters.Add(-1)
	parked := time.Now()
	// Each park records a longpoll.park child span of the request's
	// trace, marked woken=true when a broadcast (not the wait timeout
	// or a disconnect) released it.
	_, park := obs.Child(ctx, spanLongpollPark)
	park.SetAttr("job", job)
	defer park.End()
	woken := func() wakeReason {
		s.obs.wakeDur.Observe(time.Since(parked).Seconds())
		park.SetAttr("woken", "true")
		return wakeBumped
	}
	select {
	case <-w1:
		return woken()
	case <-w2:
		return woken()
	case <-t.C:
		park.SetAttr("woken", "false")
		return wakeTimeout
	case <-ctx.Done():
		park.SetAttr("woken", "false")
		park.SetAttr("cancelled", "true")
		s.obs.cancelled.Inc()
		return wakeCancelled
	}
}
