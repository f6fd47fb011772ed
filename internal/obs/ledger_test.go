package obs

import (
	"testing"

	"perseus/internal/plan"
)

func spanEntry(start, end, energy, carbon, drift, predReal float64) LedgerEntry {
	return LedgerEntry{
		StartUnixS: start, EndUnixS: end, Kind: LedgerKindSpan,
		BloatSpan: plan.DecomposeSpan(plan.SpanInputs{
			Realized:   plan.Account{EnergyJ: energy, CarbonG: carbon},
			Iterations: 1, FloorJ: 0.8 * energy, TminJ: 0.9 * energy,
			PredC: predReal - drift, PredRealC: predReal,
		}),
	}
}

func TestLedgerRingBounds(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 10; i++ {
		l.Settle("job-1", spanEntry(float64(i), float64(i+1), 100, 10, 0, 0))
	}
	view, ok := l.Job("job-1", 0)
	if !ok {
		t.Fatal("job-1 missing")
	}
	if len(view.Entries) != 4 {
		t.Fatalf("retained %d entries, want ring cap 4", len(view.Entries))
	}
	if view.Totals.Entries != 10 || view.Totals.Dropped != 6 {
		t.Fatalf("totals entries/dropped = %d/%d, want 10/6", view.Totals.Entries, view.Totals.Dropped)
	}
	// Oldest-first: the 4 retained entries are spans 6..9.
	for i, e := range view.Entries {
		if e.StartUnixS != float64(6+i) {
			t.Fatalf("entry %d start = %v, want %v", i, e.StartUnixS, 6+i)
		}
	}
	// Totals cover all 10 settles, not just the retained ring.
	if view.Totals.EnergyJ != 1000 {
		t.Fatalf("totals energy = %v, want 1000", view.Totals.EnergyJ)
	}
	if !view.Totals.Conserved(1e-12) {
		t.Fatalf("totals must conserve: %+v", view.Totals.LedgerSpan)
	}
	// n caps the returned tail, newest retained.
	view, _ = l.Job("job-1", 2)
	if len(view.Entries) != 2 || view.Entries[0].StartUnixS != 8 {
		t.Fatalf("n=2 tail = %+v", view.Entries)
	}
}

func TestLedgerFleetAndRemove(t *testing.T) {
	l := NewLedger(0)
	l.Settle("job-1", spanEntry(0, 1, 100, 10, 0, 0))
	l.Settle("job-2", spanEntry(0, 1, 300, 30, 0, 0))
	energy := map[string]float64{}
	l.EachJob(func(id string, t LedgerTotals) { energy[id] = t.EnergyJ })
	if len(energy) != 2 || energy["job-1"] != 100 || energy["job-2"] != 300 {
		t.Fatalf("EachJob energy = %v", energy)
	}
	if tot, ok := l.Totals("job-2"); !ok || tot.EnergyJ != 300 || tot.Entries != 1 {
		t.Fatalf("Totals(job-2) = %+v, %v", tot, ok)
	}
	fleet := l.Fleet()
	if fleet.EnergyJ != 400 || fleet.Entries != 2 {
		t.Fatalf("fleet = %+v", fleet)
	}
	if !l.Remove("job-1") {
		t.Fatal("Remove(job-1) = false")
	}
	if l.Remove("job-1") {
		t.Fatal("second Remove(job-1) = true")
	}
	if _, ok := l.Job("job-1", 0); ok {
		t.Fatal("job-1 still present after Remove")
	}
	if _, ok := l.Totals("job-1"); ok {
		t.Fatal("job-1 totals still present after Remove")
	}
	// Fleet history does not rewrite itself when a job leaves.
	if fleet2 := l.Fleet(); fleet2.EnergyJ != 400 || fleet2.Entries != 2 {
		t.Fatalf("fleet after remove = %+v", fleet2)
	}
}

func TestLedgerWorstDriftJob(t *testing.T) {
	l := NewLedger(0)
	if id, ratio := l.WorstDriftJob(); id != "" || ratio != 0 {
		t.Fatalf("empty ledger worst = %q/%v", id, ratio)
	}
	// job-1: |drift| 10 over covered 90 → ratio 10/100.
	l.Settle("job-1", spanEntry(0, 1, 100, 10, 10, 90))
	// job-2: |drift| 40 over covered 60 → ratio 40/100 (worst).
	l.Settle("job-2", spanEntry(0, 1, 100, 10, -40, 60))
	// job-3: no forecast coverage → skipped.
	l.Settle("job-3", spanEntry(0, 1, 100, 10, 0, 0))
	id, ratio := l.WorstDriftJob()
	if id != "job-2" {
		t.Fatalf("worst = %q, want job-2", id)
	}
	if ratio < 0.399 || ratio > 0.401 {
		t.Fatalf("ratio = %v, want 0.4", ratio)
	}
	// Signed drift cancels in DriftC but not in AbsDriftC.
	l.Settle("job-2", spanEntry(1, 2, 100, 10, 40, 60))
	view, _ := l.Job("job-2", 0)
	if view.Totals.DriftC != 0 {
		t.Fatalf("signed drift should cancel: %v", view.Totals.DriftC)
	}
	if view.Totals.AbsDriftC != 80 {
		t.Fatalf("abs drift = %v, want 80", view.Totals.AbsDriftC)
	}
}
