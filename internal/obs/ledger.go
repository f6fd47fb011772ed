package obs

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"

	"perseus/internal/plan"
)

// Ledger entry kinds.
const (
	LedgerKindSpan      = "span"      // a settled accrual interval of deployed training
	LedgerKindMigration = "migration" // a pure migration-overhead charge
)

// LedgerEntry is one settled interval of a job's energy-bloat ledger:
// the wall-clock span plus its decomposition (plan.DecomposeSpan).
type LedgerEntry struct {
	StartUnixS float64 `json:"start_unix_s"`
	EndUnixS   float64 `json:"end_unix_s"`
	Kind       string  `json:"kind"`
	plan.BloatSpan
}

// LedgerSpan names the decomposition LedgerTotals embeds: consumers of
// the client's ledger view read the totals' decomposition as a whole by
// this name (led.Fleet.LedgerSpan), while those that build a
// LedgerEntry spell its field BloatSpan — bench/ does both, so each
// struct keeps the field name its callers compile against.
type LedgerSpan = plan.BloatSpan

// LedgerTotals are cumulative ledger sums: entry counts plus the
// field-wise BloatSpan accumulation (whose conservation identities
// survive summation) and the monotone absolute drift used for the
// drift-SLO ratio (signed drift cancels across spans; burn must not).
type LedgerTotals struct {
	// Entries counts settled intervals; Dropped counts ring entries the
	// bounded history has overwritten (totals still include them).
	Entries int `json:"entries"`
	Dropped int `json:"dropped"`
	LedgerSpan
	AbsDriftC float64 `json:"abs_drift_c"`
}

// JobLedgerView is one job's ledger: cumulative totals plus the most
// recent retained entries, oldest first.
type JobLedgerView struct {
	JobID   string        `json:"job_id"`
	Totals  LedgerTotals  `json:"totals"`
	Entries []LedgerEntry `json:"entries"`
}

// jobLedger is one job's ring of recent entries plus running totals.
// The ring is a fixed-capacity circular buffer so steady-state Settle
// allocates nothing.
type jobLedger struct {
	id     string
	ring   ring[LedgerEntry]
	totals LedgerTotals
}

// DefaultLedgerRing is the per-job retained-entry cap when NewLedger is
// given 0.
const DefaultLedgerRing = 256

// Ledger is the concurrency-safe per-job energy-bloat ledger: a bounded
// ring of recent settled intervals per job, monotone cumulative totals
// per job, and a fleet-wide rollup. Settle is O(1) and allocation-free
// once a job's ring exists; everything is guarded by one mutex (settle
// happens at controller ticks and emissions settlements, never on the
// cached-plan hot path).
//
// The fleet rollup is the sum of every job's totals in job-ID order,
// taken when read: the same bits whatever order concurrent settles of
// different jobs land in, so a controller tick may settle its jobs from
// several workers.
type Ledger struct {
	mu      sync.Mutex
	ringCap int
	jobs    map[string]*jobLedger
	// byID holds every job ledger ever created, removed ones included
	// (their rings released), sorted by job ID, the older first among
	// equal IDs: the fleet rollup's summation order.
	byID []*jobLedger
}

// NewLedger builds an empty ledger retaining up to ringCap entries per
// job (0 uses DefaultLedgerRing).
func NewLedger(ringCap int) *Ledger {
	if ringCap <= 0 {
		ringCap = DefaultLedgerRing
	}
	return &Ledger{ringCap: ringCap, jobs: map[string]*jobLedger{}}
}

// Settle appends one settled interval to the job's ledger and folds it
// into the job's and the fleet's cumulative totals.
func (l *Ledger) Settle(jobID string, e LedgerEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	jl, ok := l.jobs[jobID]
	if !ok {
		jl = &jobLedger{id: jobID, ring: newRing[LedgerEntry](l.ringCap)}
		l.jobs[jobID] = jl
		i, _ := slices.BinarySearchFunc(l.byID, jobID, func(o *jobLedger, id string) int {
			return cmp.Or(strings.Compare(o.id, id), -1) // after every equal ID
		})
		l.byID = slices.Insert(l.byID, i, jl)
	}
	if jl.ring.push(e) {
		jl.totals.Dropped++
	}
	jl.totals.Entries++
	jl.totals.LedgerSpan.Accumulate(e.BloatSpan)
	jl.totals.AbsDriftC += math.Abs(e.DriftC)
}

// Job returns the job's ledger view with up to n most recent entries
// (n <= 0 returns every retained entry), oldest first. ok is false for
// a job the ledger has never settled.
func (l *Ledger) Job(jobID string, n int) (JobLedgerView, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	jl, ok := l.jobs[jobID]
	if !ok {
		return JobLedgerView{JobID: jobID}, false
	}
	return JobLedgerView{JobID: jobID, Totals: jl.totals, Entries: jl.ring.last(n)}, true
}

// Totals returns the job's cumulative totals without copying its ring.
// ok is false for a job the ledger does not hold.
func (l *Ledger) Totals(jobID string) (LedgerTotals, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	jl, ok := l.jobs[jobID]
	if !ok {
		return LedgerTotals{}, false
	}
	return jl.totals, true
}

// EachJob calls fn with every held job's cumulative totals, in no
// particular order: a snapshot copied under the lock, which fn runs
// after releasing.
func (l *Ledger) EachJob(fn func(jobID string, t LedgerTotals)) {
	type held struct {
		id string
		t  LedgerTotals
	}
	l.mu.Lock()
	jobs := make([]held, 0, len(l.jobs))
	for id, jl := range l.jobs {
		jobs = append(jobs, held{id, jl.totals})
	}
	l.mu.Unlock()
	for _, j := range jobs {
		fn(j.id, j.t)
	}
}

// Fleet returns the fleet-wide cumulative totals. Removed jobs stay
// counted: fleet history must not rewrite itself when a job leaves.
func (l *Ledger) Fleet() LedgerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	var f LedgerTotals
	for _, jl := range l.byID {
		f.Entries += jl.totals.Entries
		f.LedgerSpan.Accumulate(jl.totals.LedgerSpan)
		f.AbsDriftC += jl.totals.AbsDriftC
	}
	return f
}

// Remove drops a job's ledger (ring and per-job totals), reporting
// whether it existed. Fleet totals retain the job's contribution.
func (l *Ledger) Remove(jobID string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	jl, ok := l.jobs[jobID]
	if ok {
		jl.ring = ring[LedgerEntry]{}
		delete(l.jobs, jobID)
	}
	return ok
}

// WorstDriftJob returns the job with the highest forecast-drift burn
// ratio |drift| / (|drift| + forecast-covered realized carbon) — the
// same ratio the fleet drift SLO evaluates — and that ratio. Jobs with
// no forecast-covered accrual are skipped; ("", 0) when none qualify.
func (l *Ledger) WorstDriftJob() (string, float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	worst, worstRatio := "", -1.0
	for id, jl := range l.jobs {
		denom := jl.totals.AbsDriftC + jl.totals.PredRealC
		if denom <= 0 {
			continue
		}
		ratio := jl.totals.AbsDriftC / denom
		if ratio > worstRatio || (ratio == worstRatio && id < worst) {
			worst, worstRatio = id, ratio
		}
	}
	if worst == "" {
		return "", 0
	}
	return worst, worstRatio
}
