package server

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"perseus/internal/grid"
	"perseus/internal/obs"
)

// PlanKey identifies one cacheable planning problem: the plan-input
// generation (Epoch — bumped on signal re-install and forecast
// revision), the content hash of the frontier the plan is solved over
// (re-characterization changes it), and the request parameters. Every
// field is value-typed, so keys compare and hash as map keys, and the
// whole key is location-independent: two server replicas that agree on
// the epoch and hold the same frontier solve the same problem, which
// is what would make a store shared between replicas sound.
type PlanKey struct {
	Epoch     int
	Table     uint64
	Target    float64
	Deadline  float64
	Objective grid.Objective
	Scale     int
}

// Canonical renders the key as a stable string — the input the plan
// ETag is hashed from (and the form a cross-replica store would key
// by). Not used on the cache's hot path, which keys its map by the
// struct directly.
func (k PlanKey) Canonical() string {
	return fmt.Sprintf("e%d.t%016x.i%s.d%s.o%s.s%d",
		k.Epoch, k.Table,
		strconv.FormatFloat(k.Target, 'g', -1, 64),
		strconv.FormatFloat(k.Deadline, 'g', -1, 64),
		k.Objective, k.Scale)
}

// planEntry is one cached planning problem: the solved plan and, once
// an HTTP response has needed it, the plan's wire body. done closes
// when the solve finishes; requests that arrive before then wait on it
// instead of solving — single-flight de-duplication. plan and err are
// immutable once done is closed, and body once encode has run, so
// readers share them without copying.
type planEntry struct {
	done   chan struct{}
	solved bool // guarded by planCache.mu: the solve finished without error
	plan   *grid.Plan
	err    error

	encode  sync.Once
	body    []byte
	bodyErr error
}

// maxPlanCacheEntries bounds the cache between epochs: a client
// sweeping distinct parameters would otherwise grow it without limit
// until the next signal or forecast install. At the cap the whole map
// is flushed (epoch-style) rather than tracking per-entry recency — the
// hot pattern the cache exists for is many identical requests, and a
// rare flush only costs those one re-solve each.
const maxPlanCacheEntries = 1024

// planCache memoizes plan solves and their encodings: one map of
// entries, in flight or solved, under one mutex. Entries never expire
// by time: a key embeds the epoch and frontier hash, so every input
// change makes a fresh key, clear() drops the dead generation
// wholesale, and the size cap flushes parameter sweeps. A flight whose
// entry was dropped meanwhile still answers its followers but is not
// put back, so the map only ever holds plans of the live generation.
//
// Memory: an entry is its plan plus, if it was ever served over HTTP,
// the encoded body — a plan is runs of intervals sharing a decision, so
// a day of 288 intervals is a few dozen runs, about 0.5 kB each way as
// PGP1, and a full map of served day-long plans is a few MB before the
// cap flushes it. perseus_plan_cache_bytes reports the body share.
type planCache struct {
	mu        sync.Mutex
	entries   map[PlanKey]*planEntry
	bodyBytes int // encoded bodies held by resident entries
	hits      int64
	misses    int64
	coalesced int64 // hits that waited on an in-flight solve
	evictions int64 // entries dropped by cap flushes and clear()
	obs       *serverObs
}

// newPlanCache returns an empty cache mirroring its counters into o and
// registering its size gauges as views of its map (nil skips both —
// direct unit tests construct bare caches).
func newPlanCache(o *serverObs) *planCache {
	c := &planCache{entries: map[PlanKey]*planEntry{}, obs: o}
	if o != nil {
		o.reg.GaugeView("perseus_plan_cache_entries",
			"Plan-cache entries currently resident.",
			countView(&c.mu, func() int { return len(c.entries) }))
		o.reg.GaugeView("perseus_plan_cache_bytes",
			"Encoded /grid/plan response bodies held by resident plan-cache entries, in bytes (an entry is encoded on its first HTTP serve).",
			countView(&c.mu, func() int { return c.bodyBytes }))
	}
	return c
}

// flushLocked drops every entry, counting the drop as eviction.
// In-flight solves are orphaned: they resolve their followers but are
// no longer in the map when they finish. Callers hold c.mu.
func (c *planCache) flushLocked() {
	n := len(c.entries)
	c.evictions += int64(n)
	if c.obs != nil {
		c.obs.cacheEvictions.Add(float64(n))
	}
	c.entries = map[PlanKey]*planEntry{}
	c.bodyBytes = 0
}

// do returns the cache entry for key, running solve exactly once per
// key no matter how many callers arrive concurrently. Errors are not
// cached: the failed flight leaves no entry, so a later identical
// request retries. When ctx carries an active trace span, the lookup
// records a "cache.lookup" child span with hit/coalesced attrs; a
// miss's solve runs under that span's context, so the planner's own
// span nests below the lookup. Untraced callers pay a nil check.
func (c *planCache) do(ctx context.Context, key PlanKey, solve func(context.Context) (*grid.Plan, error)) (*planEntry, error) {
	ctx, sp := obs.Child(ctx, spanCacheLookup)
	defer sp.End()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if c.obs != nil {
			c.obs.cacheHits.Inc()
		}
		if e.solved {
			c.mu.Unlock()
			sp.SetAttr("hit", "true")
			sp.SetAttr("coalesced", "false")
			return e, nil
		}
		// A coalesced follower: it parks on done instead of solving —
		// the single-flight half of the cache's value, counted
		// separately from plain hits.
		c.coalesced++
		if c.obs != nil {
			c.obs.cacheCoalesced.Inc()
		}
		c.mu.Unlock()
		sp.SetAttr("hit", "true")
		sp.SetAttr("coalesced", "true")
		<-e.done
		sp.Fail(e.err)
		return e, e.err
	}
	if len(c.entries) >= maxPlanCacheEntries {
		c.flushLocked()
	}
	e := &planEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	if c.obs != nil {
		c.obs.cacheMisses.Inc()
	}
	c.mu.Unlock()
	sp.SetAttr("hit", "false")
	sp.SetAttr("coalesced", "false")

	e.plan, e.err = solve(ctx)
	sp.Fail(e.err)
	c.mu.Lock()
	// Only this flight owns the key: a flush may have dropped it and a
	// fresh flight taken its place — leave that one alone.
	if c.entries[key] == e {
		if e.err == nil {
			e.solved = true
		} else {
			delete(c.entries, key)
		}
	}
	c.mu.Unlock()
	close(e.done)
	return e, e.err
}

// wireBody returns the plan's HTTP body — its PGP1 encoding
// (grid.Plan.MarshalBinary) — building it on the first call and handing
// every later one the same slice; callers must not write to it. The
// encode is deliberately not part of the solve: in-process callers and
// plans nobody fetches over HTTP never pay for it. The first call
// records a "plan.encode" child span under a traced ctx.
func (c *planCache) wireBody(ctx context.Context, key PlanKey, e *planEntry) ([]byte, error) {
	e.encode.Do(func() {
		_, sp := obs.Child(ctx, spanPlanEncode)
		defer sp.End()
		if e.body, e.bodyErr = e.plan.MarshalBinary(); e.bodyErr != nil {
			sp.Fail(e.bodyErr)
			return
		}
		sp.SetAttr("bytes", strconv.Itoa(len(e.body)))
		c.mu.Lock()
		if c.entries[key] == e {
			c.bodyBytes += len(e.body)
		}
		c.mu.Unlock()
	})
	return e.body, e.bodyErr
}

// clear drops every entry (the plan inputs changed).
func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
}

// CacheStats returns the plan cache counters (test and ops hook; also
// reported by GET /controller).
func (s *Server) CacheStats() CacheStats {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Coalesced: c.coalesced, Evictions: c.evictions,
		Entries: len(c.entries),
	}
}
