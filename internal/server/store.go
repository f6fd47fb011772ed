package server

import (
	"math"
	"sync"
	"time"

	"perseus/internal/fleet"
	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/sched"
)

// store is the concurrency-safe state every resource module of the
// server shares: the job registry, the grid signal and its anchor, the
// installed forecast issuer, the datacenter regions, and the wall
// clock. One mutex guards it all; per-job mutable state lives behind
// each job's own lock so accrual never holds the store lock.
type store struct {
	mu   sync.Mutex
	jobs map[string]*job
	ord  []string // registration order, for deterministic fleet output
	next int
	capW float64 // fleet power cap; 0 = uncapped

	// signal is the current grid trace (nil until uploaded); sigStart
	// anchors its time 0 to the wall clock, objective is the default
	// temporal-planning objective, and meanG caches the signal cycle's
	// duration-weighted mean intensity in g/J — the ledger's
	// signal-blind carbon baseline, computed once per install.
	signal    *grid.Signal
	sigStart  time.Time
	objective grid.Objective
	meanG     float64

	// windows holds the signal prepared (grid.Prepare) for each
	// objective, replaced whole with it and never written after.
	windows map[grid.Objective]*grid.Window

	// epoch counts plan-input generations: it bumps whenever the signal
	// is re-installed or a forecast is (re-)issued, and the plan cache
	// keys on it, so stale plans can never be served after the inputs
	// they were solved against changed.
	epoch int

	// Forecast state: the installed issuer (nil until POST
	// /grid/forecast), the latest issued forecast (signal time, anchored
	// like the signal itself), the default robust planning quantile, and
	// frev counting forecast revisions (installs), which rolling
	// schedules use to decide whether a fresh re-plan is warranted.
	fspec   *forecastSpec
	fcast   *forecast.Forecast
	fcastAt time.Time
	frev    int

	// regions are the registered datacenter regions, by name and in
	// registration order.
	regions map[string]*serverRegion
	regOrd  []string

	// clock supplies wall-clock time (replaceable via Server.SetClock).
	clock func() time.Time
}

func newStore() *store {
	return &store{
		jobs:      map[string]*job{},
		regions:   map[string]*serverRegion{},
		objective: grid.ObjectiveCarbon,
		clock:     time.Now,
	}
}

// now reads the wall clock. The function pointer is fetched under the
// lock so SetClock can race a running controller loop safely.
func (st *store) now() time.Time {
	st.mu.Lock()
	fn := st.clock
	st.mu.Unlock()
	return fn()
}

func (st *store) job(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// jobsInOrder snapshots the job list in registration order.
func (st *store) jobsInOrder() []*job {
	st.mu.Lock()
	defer st.mu.Unlock()
	jobs := make([]*job, 0, len(st.ord))
	for _, id := range st.ord {
		jobs = append(jobs, st.jobs[id])
	}
	return jobs
}

// settleAll settles every job's account at the given snapshot —
// called before any change to the rates (signal or forecast install)
// so each span is charged at the rates that actually applied.
func (st *store) settleAll(gs gridState) {
	for _, j := range st.jobsInOrder() {
		j.mu.Lock()
		j.accrueLocked(gs)
		j.mu.Unlock()
	}
}

// job is one registered training job and its per-job mutable state.
type job struct {
	id    string
	req   JobRequest
	gpu   *gpu.Model
	sched *sched.Schedule
	obs   *serverObs // the owning server's observability surface and ledger

	// hub is the owning server's notification hub; every version bump
	// broadcasts on the job's schedule topic through it.
	hub *hub

	mu             sync.Mutex
	characterizing bool
	charErr        error
	table          *frontier.LookupTable // the characterized frontier's Pareto set; nil until then
	tableHash      uint64                // content hash of table, for the plan cache
	tPrime         float64               // anticipated straggler iteration time; 0 = none
	capTime        float64               // fleet-allocated iteration-time floor; 0 = none
	alloc          *fleet.JobAlloc       // latest fleet allocation, if any
	version        int
	pending        *time.Timer // armed delayed straggler switch, if any
	// done closes when the current characterization attempt finishes.
	// A failed attempt is retryable: the retry installs a fresh
	// channel, so readers must fetch it under mu (see
	// WaitCharacterized) rather than caching it across attempts.
	done chan struct{}

	// Emissions accounting: the deployed schedule's power draw is
	// integrated against the grid signal from characterization on, and
	// every settled span goes to the bloat ledger — the job's only
	// account (ledger.go). The account opens at characterization and
	// closes when the job is removed; a settle books nothing unless it
	// is open.
	accSince time.Time // accounting start (characterization time)
	accAt    time.Time // last accrual
	closed   bool      // the job was removed

	// Placement: the datacenter region the job currently runs in ("" =
	// unplaced; emissions then accrue against the global signal) and
	// the placement history.
	region     string
	placements []placementEvent
}

// bumpLocked advances the job's schedule version and broadcasts on the
// job's schedule topic, waking every parked long-poller in O(1).
// Callers hold j.mu; the hub takes only its own lock, so the nesting
// is always j.mu → hub.mu.
func (j *job) bumpLocked() {
	j.version++
	if j.hub != nil {
		j.hub.bump(topicSchedule(j.id))
	}
	if j.obs != nil {
		j.obs.versionBumps.Inc()
	}
}

// placementEvent is one entry of a job's placement history.
type placementEvent struct {
	region string
	at     time.Time
}

// serverRegion is one registered datacenter region: its capacity, cap,
// and grid signal, with the signal's time 0 anchored at registration
// and the signal cycle's mean intensity (g/J) cached for the ledger.
type serverRegion struct {
	name   string
	gpus   int
	capW   float64
	sig    *grid.Signal
	anchor time.Time
	meanG  float64
}

// gridState is a consistent snapshot of the grid signal, the region
// signals, and the clock, taken (under st.mu) before a job's j.mu so
// accrual never nests the two locks.
type gridState struct {
	sig     *grid.Signal
	fsig    *grid.Signal // latest issued point forecast (signal time, same anchor)
	start   time.Time
	now     time.Time
	meanG   float64 // signal cycle mean intensity, g/J (ledger baseline)
	regions map[string]*serverRegion
}

func (st *store) gridState() gridState { return st.gridStateAt(st.now()) }

// gridStateAt is gridState at an instant the caller already read (a
// controller tick settles and plans at one).
func (st *store) gridStateAt(now time.Time) gridState {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Copy the map: the snapshot outlives st.mu, and concurrent region
	// registrations mutate st.regions (entries themselves are immutable).
	regions := make(map[string]*serverRegion, len(st.regions))
	for name, r := range st.regions {
		regions[name] = r
	}
	gs := gridState{sig: st.signal, start: st.sigStart, now: now, meanG: st.meanG, regions: regions}
	if st.fcast != nil {
		gs.fsig = st.fcast.Signal
	}
	return gs
}

// deployedTimeLocked returns the anticipated iteration time the
// deployed schedule is selected for: T' under a straggler (Tmin
// otherwise), floored by the fleet-allocated capTime — a power-capped
// job may not run faster than its share of the facility envelope
// allows. Shared by Schedule and the emissions accrual so the two can
// never charge different operating points. Callers hold j.mu.
func (j *job) deployedTimeLocked(tmin float64) float64 {
	t := j.tPrime
	if t <= 0 {
		t = tmin
	}
	if j.capTime > t {
		t = j.capTime
	}
	return t
}

// hashTable content-hashes what a plan reads of a characterized lookup
// table — the unit, the Tmin and T* endpoints, and each point's time and
// energy — so the plan cache can key on the frontier a plan was solved
// against: a re-characterization that moves any of them yields a
// different key. The points' frequencies are left out: no grid.Plan
// reads them, so tables differing only there share plans. One multiply
// and shift per 64-bit word; each round is a bijection of the running
// hash for a given word and of the word for a given hash, so two tables
// of one shape that differ in a single hashed word never collide.
func hashTable(lt *frontier.LookupTable) uint64 {
	h := uint64(0xcbf29ce484222325)
	h = mixWord(h, math.Float64bits(lt.Unit))
	h = mixWord(h, uint64(lt.TminUnits))
	h = mixWord(h, uint64(lt.TStarUnits))
	for _, pt := range lt.Points {
		h = mixWord(h, uint64(pt.TimeUnits))
		h = mixWord(h, math.Float64bits(pt.Energy))
	}
	return h
}

// mixWord folds one word into a running hash.
func mixWord(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}
