package server

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"perseus/internal/grid"
	"perseus/internal/obs"
	pln "perseus/internal/plan"
)

// This file wires the online energy-bloat ledger (obs.Ledger) into the
// server: per-span decomposition at every emissions settlement, the
// per-job and fleet Prometheus series, and GET /debug/ledger. All
// ledger work happens at settle points (controller ticks, emissions
// reads, operating-point changes) — never on the cached-plan hot path.

// jobLedgerSeries caches one job's per-job metric handles, created
// once at characterization so settlement never renders label blocks
// (the registry's With does a map lookup plus string build; Settle
// must stay allocation-free).
type jobLedgerSeries struct {
	realized  *obs.Counter
	floor     *obs.Counter
	residual  *obs.Counter
	migration *obs.Counter
	removed   *obs.Gauge // signed: an extreme straggler can run above Tmin's burn
	drift     *obs.Gauge
}

// ledgerComponents are the component label values of the per-job and
// fleet energy/carbon families.
var ledgerComponents = []string{"realized", "floor", "residual_bloat", "migration"}

// jobSeries materializes (or refetches) a job's per-job ledger series.
func (o *serverObs) jobSeries(id string) *jobLedgerSeries {
	return &jobLedgerSeries{
		realized:  o.jobEnergy.With(id, "realized"),
		floor:     o.jobEnergy.With(id, "floor"),
		residual:  o.jobEnergy.With(id, "residual_bloat"),
		migration: o.jobEnergy.With(id, "migration"),
		removed:   o.jobRemoved.With(id),
		drift:     o.driftG.With(id),
	}
}

// dropJobSeries deletes every per-job labeled series of a removed job,
// so the exposition's cardinality stays bounded as jobs churn.
func (o *serverObs) dropJobSeries(id string) {
	for _, comp := range ledgerComponents {
		o.jobEnergy.Delete(id, comp)
	}
	o.jobRemoved.Delete(id)
	o.driftG.Delete(id)
}

// settleLedger books one settled entry: into the ledger (ring + job +
// fleet totals) and into the exported series. The per-job handles are
// passed in pre-rendered; a nil series (job removed mid-settle) skips
// only the per-job counters.
func (o *serverObs) settleLedger(id string, series *jobLedgerSeries, e obs.LedgerEntry) {
	o.ledger.Settle(id, e)
	if series != nil {
		series.realized.Add(e.EnergyJ)
		series.floor.Add(e.FloorJ)
		series.residual.Add(e.ResidualJ)
		series.migration.Add(e.MigrationJ)
		series.removed.Add(e.RemovedJ)
	}
	o.fleetRealizedJ.Add(e.EnergyJ)
	o.fleetFloorJ.Add(e.FloorJ)
	o.fleetResidualJ.Add(e.ResidualJ)
	o.fleetMigrationJ.Add(e.MigrationJ)
	o.fleetRemovedJ.Add(e.RemovedJ)
	o.fleetRealizedC.Add(e.CarbonG)
	o.fleetFloorC.Add(e.FloorC)
	o.fleetResidualC.Add(e.ResidualC)
	o.fleetMigrationC.Add(e.MigrationC)
	o.fleetTemporalC.Add(e.TemporalSavedC)
	o.fleetDriftAbsC.Add(math.Abs(e.DriftC))
	o.fleetCoveredC.Add(e.PredRealC)
}

// settleSpanLocked decomposes the span just settled by accrueLocked
// into the bloat ledger. realized carries exactly the floats added to
// the emissions accumulators, so ledger totals and GET /jobs/{id}/
// emissions reconcile bit-for-bit. Work baselines are taken at equal
// work: the span's iterations priced at the frontier's T* point
// (floor) and Tmin point (always-fast baseline). Callers hold j.mu.
func (j *job) settleSpanLocked(gs gridState, spanStart time.Time, realized pln.Account, predC, predRealC, meanG float64) {
	if j.obs == nil || j.table == nil || len(j.table.Points) == 0 {
		return
	}
	lt := j.table
	pipes := float64(j.req.DataParallel)
	if pipes < 1 {
		pipes = 1
	}
	tdep := j.deployedTimeLocked(lt.Tmin())
	var iters float64
	if tdep > 0 {
		iters = gs.now.Sub(spanStart).Seconds() / tdep
	}
	last := len(lt.Points) - 1
	entry := obs.LedgerEntry{
		StartUnixS: float64(spanStart.UnixNano()) / 1e9,
		EndUnixS:   float64(gs.now.UnixNano()) / 1e9,
		Kind:       obs.LedgerKindSpan,
		BloatSpan: pln.DecomposeSpan(pln.SpanInputs{
			Realized:   realized,
			Iterations: iters,
			FloorJ:     iters * pipes * lt.Points[last].Energy,
			TminJ:      iters * pipes * lt.Points[0].Energy,
			MeanGPerJ:  meanG,
			PredC:      predC,
			PredRealC:  predRealC,
		}),
	}
	j.obs.settleLedger(j.id, j.series, entry)
}

// chargeMigrationLocked books a migration's energy overhead at the
// destination's instantaneous rates into both accounts — the emissions
// accumulators and a zero-width "migration" ledger entry — so the two
// stay reconciled and the overhead is attributed, not smeared into a
// training span. Charged only once accounting has started (an
// uncharacterized job draws no deployed power to migrate). Callers
// hold j.mu; the caller settles the preceding span first.
func (j *job) chargeMigrationLocked(gs gridState, migrationJ float64, dest *serverRegion) {
	if migrationJ <= 0 || j.accAt.IsZero() || j.obs == nil {
		return
	}
	sig, start, meanG := gs.sig, gs.start, gs.meanG
	if dest != nil {
		sig, start, meanG = dest.sig, dest.anchor, dest.meanG
	}
	var mc, musd float64
	if sig != nil {
		if iv, ok := sig.AtCyclic(gs.now.Sub(start).Seconds()); ok {
			mc = migrationJ / grid.JoulesPerKWh * iv.CarbonGPerKWh
			musd = migrationJ / grid.JoulesPerKWh * iv.PriceUSDPerKWh
		}
	}
	j.energyAccJ += migrationJ
	j.carbonAccG += mc
	j.costAccUSD += musd
	at := float64(gs.now.UnixNano()) / 1e9
	entry := obs.LedgerEntry{
		StartUnixS: at,
		EndUnixS:   at,
		Kind:       obs.LedgerKindMigration,
		BloatSpan: pln.DecomposeSpan(pln.SpanInputs{
			Realized:   pln.Account{EnergyJ: migrationJ, CarbonG: mc, CostUSD: musd},
			MigrationJ: migrationJ,
			MeanGPerJ:  meanG,
		}),
	}
	j.obs.settleLedger(j.id, j.series, entry)
}

// Ledger settles every job at now and returns the energy-bloat ledger:
// all jobs with entries (jobID == "") or one job's view. n caps the
// retained entries returned per job (<= 0: all). Settling first means
// the totals are current to the call, exactly like Emissions.
func (s *Server) Ledger(jobID string, n int) (LedgerResponse, error) {
	s.st.settleAll(s.st.gridState())
	resp := LedgerResponse{Fleet: s.obs.ledger.Fleet()}
	if jobID != "" {
		if _, ok := s.st.job(jobID); !ok {
			return LedgerResponse{}, fmt.Errorf("server: unknown job %s", jobID)
		}
		view, _ := s.obs.ledger.Job(jobID, n)
		resp.Jobs = []obs.JobLedgerView{view}
		return resp, nil
	}
	for _, j := range s.st.jobsInOrder() {
		if view, ok := s.obs.ledger.Job(j.id, n); ok {
			resp.Jobs = append(resp.Jobs, view)
		}
	}
	return resp, nil
}

// ledgerCSVHeader is the /debug/ledger?format=csv schema, one row per
// retained entry (documented in README's "Energy-bloat ledger").
var ledgerCSVHeader = []string{
	"job", "kind", "start_unix_s", "end_unix_s", "iterations",
	"energy_j", "carbon_g", "cost_usd",
	"floor_j", "migration_j", "residual_j", "tmin_j", "removed_j",
	"floor_c", "migration_c", "residual_c",
	"blind_c", "temporal_saved_c",
	"pred_c", "pred_real_c", "drift_c",
}

// writeLedgerCSV renders the response's entries as CSV.
func writeLedgerCSV(w io.Writer, resp LedgerResponse) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(ledgerCSVHeader); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, jv := range resp.Jobs {
		for _, e := range jv.Entries {
			row := []string{
				jv.JobID, e.Kind, g(e.StartUnixS), g(e.EndUnixS), g(e.Iterations),
				g(e.EnergyJ), g(e.CarbonG), g(e.CostUSD),
				g(e.FloorJ), g(e.MigrationJ), g(e.ResidualJ), g(e.TminJ), g(e.RemovedJ),
				g(e.FloorC), g(e.MigrationC), g(e.ResidualC),
				g(e.BlindC), g(e.TemporalSavedC),
				g(e.PredC), g(e.PredRealC), g(e.DriftC),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func (s *Server) handleDebugLedger(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 0
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			http.Error(w, "bad n: "+v, http.StatusBadRequest)
			return
		}
		n = parsed
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "csv" {
		http.Error(w, "bad format: "+format+" (want json or csv)", http.StatusBadRequest)
		return
	}
	resp, err := s.Ledger(q.Get("job"), n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_ = writeLedgerCSV(w, resp)
		return
	}
	writeJSON(w, resp)
}
