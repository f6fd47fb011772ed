package main

import (
	"testing"
)

func mustHash(t *testing.T, seed int64, sz sizes) string {
	t.Helper()
	in, err := generate(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	h, err := in.hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestGenerateIsAFunctionOfSeedAndSizes(t *testing.T) {
	full := baseSizes
	full.CharFull = true
	cases := []struct {
		name   string
		seedA  int64
		sizesA sizes
		seedB  int64
		sizesB sizes
		same   bool
	}{
		{"same seed, same sizes", 7, baseSizes, 7, baseSizes, true},
		{"different seed", 7, baseSizes, 8, baseSizes, false},
		{"different sizes", 7, baseSizes, 7, full, false},
		{"seed zero is a seed like any other", 0, baseSizes, 0, baseSizes, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := mustHash(t, c.seedA, c.sizesA), mustHash(t, c.seedB, c.sizesB)
			if (a == b) != c.same {
				t.Fatalf("hashes %s and %s: want same=%v", a, b, c.same)
			}
		})
	}
}

func TestGeneratedSizes(t *testing.T) {
	for _, w := range workloads {
		sz, _, err := planFor(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := generate(3, sz)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		wantShapes := len(baseShapes)
		if sz.CharFull {
			wantShapes = len(fullShapes)
		}
		if len(in.Char) != wantShapes || len(in.Serve.Jobs) != sz.ServeJobs || len(in.Ctl.Jobs) != sz.CtlJobs {
			t.Errorf("%s: %d shapes, %d serve jobs, %d control jobs", w.Name, len(in.Char), len(in.Serve.Jobs), len(in.Ctl.Jobs))
		}
		if len(in.Serve.Signal.Intervals) != 288 || len(in.Ctl.Signal.Intervals) != sz.CtlIntervals ||
			len(in.Region.West.Intervals) != sz.RegionIntervals || len(in.Region.Jobs) != 8 {
			t.Errorf("%s: signal or region sizes off", w.Name)
		}
		if 2*in.Ctl.Ticks > sz.CtlIntervals {
			t.Errorf("%s: %d ticks over %d intervals lets jobs finish before the last tick", w.Name, in.Ctl.Ticks, sz.CtlIntervals)
		}
		for k, f := range in.Ctl.TargetFrac {
			if f <= 0.5 || f >= 1 {
				t.Errorf("%s: job %d target share %v: must exceed what half the horizon can hold", w.Name, k, f)
			}
		}
	}
}

func TestReadAndWriteCycles(t *testing.T) {
	in, err := generate(11, baseSizes)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[readKind]int{}
	for _, op := range in.Serve.Reads {
		kinds[op.Kind]++
		if op.Job < 0 || op.Job >= baseSizes.ServeJobs {
			t.Fatalf("read addresses job %d", op.Job)
		}
	}
	n := float64(len(in.Serve.Reads))
	for kind, share := range map[readKind]float64{readSchedCond: 0.50, readSchedFull: 0.20, readPlanCond: 0.25, readPlanFull: 0.05} {
		if got := float64(kinds[kind]) / n; got < share-0.01 || got > share+0.01 {
			t.Errorf("read kind %d: share %.3f, want %.2f", kind, got, share)
		}
	}
	cold := 0
	seen := map[int]bool{}
	for i, op := range in.Serve.Writes {
		if op.Degree != stragglerDegrees[i%len(stragglerDegrees)] {
			t.Fatalf("write %d: degree %v off the cycle", i, op.Degree)
		}
		if op.Cold {
			cold++
		}
		seen[op.Job] = true
	}
	if want := len(in.Serve.Writes) / baseSizes.ColdEvery; cold != want {
		t.Errorf("%d cold plans per write cycle, want %d", cold, want)
	}
	if len(seen) != baseSizes.ServeJobs {
		t.Errorf("writer touches %d of %d jobs", len(seen), baseSizes.ServeJobs)
	}
}

// The serve workload's counts must keep a whole run's cold plans under
// the server's plan-cache cap, or requests get timed during eviction.
func TestColdPlansFitTheCache(t *testing.T) {
	for _, w := range workloads {
		sz, rp, err := planFor(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if colds := (rp.N*rp.ServeBlocks + 1) * (sz.WriteCycle / sz.ColdEvery); colds > maxColdPlans {
			t.Errorf("%s: %d cold plans per run, cache-safe limit %d", w.Name, colds, maxColdPlans)
		}
	}
}
