package server

import (
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"perseus/internal/grid"
	"perseus/internal/obs"
	pln "perseus/internal/plan"
)

// This file wires the online energy-bloat ledger (obs.Ledger) into the
// server. The ledger is the server's only account of settled energy,
// carbon and cost: a settle decomposes the span (plan.DecomposeSpan)
// and hands the entry to the ledger, and GET /jobs/{id}/emissions, the
// per-job and fleet bloat metric families, the drift SLO and
// GET /debug/ledger all read the ledger's totals. All ledger work
// happens at settle points (controller ticks, emissions reads,
// operating-point changes) — never on the cached-plan hot path.

// ledgerViews registers the ledger's metric families as views of its
// per-job and fleet totals: a scrape reads the numbers the ledger holds,
// a job's series appear with its first settled entry and vanish with
// its removal.
func ledgerViews(r *obs.Registry, led *obs.Ledger) {
	r.CounterView("perseus_job_energy_joules_total",
		"Per-job settled energy decomposed by the bloat ledger: realized, frontier-optimal floor, residual_bloat, migration overhead.",
		func(emit func(float64, ...string)) {
			led.EachJob(func(id string, t obs.LedgerTotals) {
				emit(t.EnergyJ, id, "realized")
				emit(t.FloorJ, id, "floor")
				emit(t.ResidualJ, id, "residual_bloat")
				emit(t.MigrationJ, id, "migration")
			})
		}, "job", "component")
	r.GaugeView("perseus_job_energy_intrinsic_removed_joules",
		"Per-job intrinsic bloat removed vs the always-Tmin baseline at equal work (signed: a span run above T* burns more than flat-out).",
		func(emit func(float64, ...string)) {
			led.EachJob(func(id string, t obs.LedgerTotals) { emit(t.RemovedJ, id) })
		}, "job")
	r.GaugeView("perseus_job_carbon_drift_g",
		"Realized minus forecast-predicted carbon over the forecast-covered spans, per job.",
		func(emit func(float64, ...string)) {
			led.EachJob(func(id string, t obs.LedgerTotals) { emit(t.PredRealC-t.PredC, id) })
		}, "job")
	r.CounterView("perseus_fleet_bloat_energy_joules_total",
		"Fleet-wide settled energy decomposed by the bloat ledger: realized, frontier-optimal floor, residual_bloat, migration overhead.",
		func(emit func(float64, ...string)) {
			t := led.Fleet()
			emit(t.EnergyJ, "realized")
			emit(t.FloorJ, "floor")
			emit(t.ResidualJ, "residual_bloat")
			emit(t.MigrationJ, "migration")
		}, "component")
	r.CounterView("perseus_fleet_bloat_carbon_g_total",
		"Fleet-wide settled carbon decomposed by the bloat ledger at each span's mean realized intensity.",
		func(emit func(float64, ...string)) {
			t := led.Fleet()
			emit(t.CarbonG, "realized")
			emit(t.FloorC, "floor")
			emit(t.ResidualC, "residual_bloat")
			emit(t.MigrationC, "migration")
		}, "component")
	fleet := func(field func(obs.LedgerTotals) float64) obs.View {
		return func(emit func(float64, ...string)) { emit(field(led.Fleet())) }
	}
	r.GaugeView("perseus_fleet_bloat_intrinsic_removed_joules",
		"Fleet-wide intrinsic bloat removed vs the always-Tmin baseline at equal work (signed).",
		fleet(func(t obs.LedgerTotals) float64 { return t.RemovedJ }))
	r.GaugeView("perseus_fleet_bloat_temporal_saved_carbon_g",
		"Fleet-wide carbon saved by when energy was drawn, vs the best signal-blind fixed baseline (signed: negative means timing lost carbon).",
		fleet(func(t obs.LedgerTotals) float64 { return t.TemporalSavedC }))
	r.CounterView("perseus_fleet_bloat_drift_abs_carbon_g_total",
		"Fleet-wide absolute realized-minus-forecast carbon drift over forecast-covered spans (drift-SLO numerator).",
		fleet(func(t obs.LedgerTotals) float64 { return t.AbsDriftC }))
	r.CounterView("perseus_fleet_bloat_forecast_covered_carbon_g_total",
		"Fleet-wide realized carbon over exactly the forecast-covered spans (drift-SLO denominator complement).",
		fleet(func(t obs.LedgerTotals) float64 { return t.PredRealC }))
}

// accrueLocked settles the span since the last accrual into the bloat
// ledger: the deployed schedule's power draw integrated at the placed
// region's rates when the job has a placement, at the global signal's
// otherwise (energy only before either exists), with work baselines
// taken at equal work — the span's iterations priced at the frontier's
// T* point (floor) and Tmin point (always-fast baseline). Callers hold
// j.mu and must call it before any change to the deployed operating
// point or placement, so each span is charged at the rates that
// actually applied.
func (j *job) accrueLocked(gs gridState) {
	if j.closed || j.accAt.IsZero() || !gs.now.After(j.accAt) {
		return
	}
	lt := j.table
	pipes := float64(j.req.DataParallel)
	tdep := j.deployedTimeLocked(lt.Tmin())
	power := pipes * lt.AvgPower(lt.LookupIndex(tdep))
	sig, start, meanG := gs.sig, gs.start, gs.meanG
	if j.region != "" {
		if r, ok := gs.regions[j.region]; ok {
			sig, start, meanG = r.sig, r.anchor, r.meanG
		}
	}
	var t0, t1 float64
	if sig != nil {
		t0 = j.accAt.Sub(start).Seconds()
		t1 = gs.now.Sub(start).Seconds()
	} else {
		t1 = gs.now.Sub(j.accAt).Seconds()
	}
	in := pln.SpanInputs{MeanGPerJ: meanG}
	in.Realized.EnergyJ, in.Realized.CarbonG, in.Realized.CostUSD = grid.Accrue(sig, t0, t1, power)
	// Predicted accrual: the same draw priced at the latest issued
	// forecast's rates, beside the realized carbon over exactly that
	// forecast-covered span, so drift compares like with like even when
	// the forecast predicted zero. Only meaningful against the global
	// signal, so placed jobs (accruing at a region's rates) are skipped.
	if gs.fsig != nil && j.region == "" && gs.sig != nil {
		_, in.PredC, in.PredCostUSD = grid.Accrue(gs.fsig, j.accAt.Sub(gs.start).Seconds(), gs.now.Sub(gs.start).Seconds(), power)
		in.PredRealC = in.Realized.CarbonG
	}
	if tdep > 0 {
		in.Iterations = gs.now.Sub(j.accAt).Seconds() / tdep
	}
	in.FloorJ = in.Iterations * pipes * lt.Points[len(lt.Points)-1].Energy
	in.TminJ = in.Iterations * pipes * lt.Points[0].Energy
	j.obs.ledger.Settle(j.id, obs.LedgerEntry{
		StartUnixS: float64(j.accAt.UnixNano()) / 1e9,
		EndUnixS:   float64(gs.now.UnixNano()) / 1e9,
		Kind:       obs.LedgerKindSpan,
		BloatSpan:  pln.DecomposeSpan(in),
	})
	j.accAt = gs.now
}

// chargeMigrationLocked books a migration's energy overhead at the
// destination's instantaneous rates as a zero-width "migration" ledger
// entry, so the overhead is attributed, not smeared into a training
// span. Charged only while the job's account is open (an
// uncharacterized job draws no deployed power to migrate; a removed
// one has no account). Callers hold j.mu; the caller settles the
// preceding span first.
func (j *job) chargeMigrationLocked(gs gridState, migrationJ float64, dest *serverRegion) {
	if migrationJ <= 0 || j.closed || j.accAt.IsZero() {
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
	at := float64(gs.now.UnixNano()) / 1e9
	j.obs.ledger.Settle(j.id, obs.LedgerEntry{
		StartUnixS: at,
		EndUnixS:   at,
		Kind:       obs.LedgerKindMigration,
		BloatSpan: pln.DecomposeSpan(pln.SpanInputs{
			Realized:   pln.Account{EnergyJ: migrationJ, CarbonG: mc, CostUSD: musd},
			MigrationJ: migrationJ,
			MeanGPerJ:  meanG,
		}),
	})
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
	"pred_c", "pred_real_c", "drift_c", "pred_cost_usd",
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
				g(e.PredC), g(e.PredRealC), g(e.DriftC), g(e.PredCostUSD),
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
	n, ok := queryN(w, q)
	if !ok {
		return
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
