package plan

import "math"

// BloatSpan is one settled accounting interval decomposed into the
// paper's energy-bloat categories. Realized totals (the embedded
// Account) split into a frontier-optimal floor, migration overhead,
// and residual bloat; two baselines place the realized numbers against
// what signal-blind operation would have cost at equal work; and the
// forecast fields carry realized-vs-predicted drift. Two conservation
// identities hold by construction — the residuals are computed as the
// exact difference, never independently:
//
//	EnergyJ  = FloorJ + MigrationJ + ResidualJ
//	CarbonG  = FloorC + MigrationC + ResidualC
//
// plus the baseline identity TminJ + MigrationJ = EnergyJ + RemovedJ
// (intrinsic bloat removed compares work energy against the always-Tmin
// grid.Fixed(0) baseline at equal iterations, excluding migration).
type BloatSpan struct {
	// Realized totals for the span (energy_j, carbon_g, cost_usd).
	Account

	// Iterations is the training work the span covers (pipeline
	// iterations; 0 for pure-overhead entries such as migrations).
	Iterations float64 `json:"iterations"`

	// FloorJ is the frontier-optimal energy floor: the same work at the
	// frontier's minimum energy-per-iteration point T*.
	FloorJ float64 `json:"floor_j"`

	// MigrationJ is migration overhead charged inside the span.
	MigrationJ float64 `json:"migration_j"`

	// ResidualJ is realized minus floor minus migration: bloat still
	// present after Perseus's scheduling (straggler slack, cap floors).
	ResidualJ float64 `json:"residual_j"`

	// TminJ is the always-Tmin baseline (grid.Fixed(0)): the same work
	// run flat-out at the frontier's fastest point.
	TminJ float64 `json:"tmin_j"`

	// RemovedJ is intrinsic bloat removed versus the always-Tmin
	// baseline: TminJ − (EnergyJ − MigrationJ). Negative only when a
	// span ran above T* (an extreme straggler burning more than
	// flat-out would).
	RemovedJ float64 `json:"removed_j"`

	// Carbon split of the realized CarbonG at the span's mean realized
	// intensity r = CarbonG/EnergyJ.
	FloorC     float64 `json:"floor_c"`
	MigrationC float64 `json:"migration_c"`
	ResidualC  float64 `json:"residual_c"`

	// BlindC prices the floor energy at the signal cycle's
	// duration-weighted mean intensity — the best any signal-blind
	// grid.Fixed baseline can do on carbon timing, since a fixed
	// operating point cannot choose when to draw. TemporalSavedC is
	// BlindC − FloorC: carbon saved (negative: lost) purely by when the
	// span's energy was drawn.
	BlindC         float64 `json:"blind_c"`
	TemporalSavedC float64 `json:"temporal_saved_c"`

	// Forecast drift: PredC is the carbon the forecast in force priced
	// the span at, PredRealC the realized carbon over exactly the
	// forecast-covered part, and DriftC = PredRealC − PredC (positive:
	// the grid ran dirtier than forecast). All zero when the span was
	// not forecast-covered.
	PredC     float64 `json:"pred_c"`
	PredRealC float64 `json:"pred_real_c"`
	DriftC    float64 `json:"drift_c"`

	// PredCostUSD is the cost the forecast in force priced the span at
	// (0 when the span was not forecast-covered).
	PredCostUSD float64 `json:"pred_cost_usd"`
}

// SpanInputs are the raw measurements DecomposeSpan splits.
type SpanInputs struct {
	// Realized is the span's settled accounting (grid.Accrue output
	// plus any migration charge folded in).
	Realized Account

	// Iterations is the work the span covers.
	Iterations float64

	// FloorJ and TminJ are the frontier baselines at equal work:
	// Iterations × pipelines × energy-per-iteration at T* (floor) and
	// at Tmin (always-fast baseline).
	FloorJ float64
	TminJ  float64

	// MigrationJ is the migration overhead included in Realized.EnergyJ.
	MigrationJ float64

	// MeanGPerJ is the duration-weighted mean carbon intensity of the
	// governing signal's cycle, in grams per joule (0 without a signal).
	MeanGPerJ float64

	// PredC and PredRealC are the forecast-predicted and the
	// forecast-covered realized carbon for the span, and PredCostUSD the
	// forecast-predicted cost (all 0 when the span was not
	// forecast-covered).
	PredC       float64
	PredRealC   float64
	PredCostUSD float64
}

// DecomposeSpan splits one settled interval into the bloat categories.
// The residual components are computed as exact differences, so the
// conservation identities hold bit-for-bit, not just to tolerance.
func DecomposeSpan(in SpanInputs) BloatSpan {
	b := BloatSpan{
		Account:     in.Realized,
		Iterations:  in.Iterations,
		FloorJ:      in.FloorJ,
		MigrationJ:  in.MigrationJ,
		TminJ:       in.TminJ,
		PredC:       in.PredC,
		PredRealC:   in.PredRealC,
		PredCostUSD: in.PredCostUSD,
	}
	b.ResidualJ = b.EnergyJ - b.FloorJ - b.MigrationJ
	b.RemovedJ = b.TminJ - (b.EnergyJ - b.MigrationJ)
	var r float64 // mean realized intensity of the span, g/J
	if b.EnergyJ > 0 {
		r = b.CarbonG / b.EnergyJ
	}
	b.FloorC = b.FloorJ * r
	b.MigrationC = b.MigrationJ * r
	b.ResidualC = b.CarbonG - b.FloorC - b.MigrationC
	b.BlindC = b.FloorJ * in.MeanGPerJ
	b.TemporalSavedC = b.BlindC - b.FloorC
	b.DriftC = b.PredRealC - b.PredC
	return b
}

// Accumulate adds o into b field-wise. Sums of conserving spans
// conserve, so cumulative ledgers satisfy the same identities.
func (b *BloatSpan) Accumulate(o BloatSpan) {
	b.Account.Accumulate(o.Account)
	b.Iterations += o.Iterations
	b.FloorJ += o.FloorJ
	b.MigrationJ += o.MigrationJ
	b.ResidualJ += o.ResidualJ
	b.TminJ += o.TminJ
	b.RemovedJ += o.RemovedJ
	b.FloorC += o.FloorC
	b.MigrationC += o.MigrationC
	b.ResidualC += o.ResidualC
	b.BlindC += o.BlindC
	b.TemporalSavedC += o.TemporalSavedC
	b.PredC += o.PredC
	b.PredRealC += o.PredRealC
	b.DriftC += o.DriftC
	b.PredCostUSD += o.PredCostUSD
}

// Conserved verifies the conservation identities within eps relative
// tolerance (absolute for magnitudes below 1): energy and carbon
// components sum to realized, and the Tmin-baseline identity holds.
func (b BloatSpan) Conserved(eps float64) bool {
	close := func(got, want float64) bool {
		scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
		return math.Abs(got-want) <= eps*scale
	}
	return close(b.FloorJ+b.MigrationJ+b.ResidualJ, b.EnergyJ) &&
		close(b.FloorC+b.MigrationC+b.ResidualC, b.CarbonG) &&
		close(b.TminJ+b.MigrationJ, b.EnergyJ+b.RemovedJ) &&
		close(b.DriftC, b.PredRealC-b.PredC) &&
		close(b.TemporalSavedC, b.BlindC-b.FloorC)
}
