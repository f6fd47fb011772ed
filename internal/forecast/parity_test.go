package forecast

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"perseus/internal/grid"
	"perseus/internal/region"
)

var update = flag.Bool("update", false, "rewrite testdata/parity.golden")

// parityRun is one controller run of the parity golden.
type parityRun struct {
	name string
	run  func() (any, error)
}

// parityRuns lists the controller runs whose outcomes the parity golden
// pins: the region controller under revisions (plan-once, MPC, damped
// MPC), on one job, on two, and on two that contend for 1-GPU regions
// across 5 h transfers; under perfect foresight; and the single-region
// controllers on Diurnal24h.
func parityRuns() []parityRun {
	var runs []parityRun
	add := func(name string, run func() (any, error)) {
		runs = append(runs, parityRun{name, run})
	}
	revisions := func(pair []region.Region, seed int64) []ForecastRegion {
		regs := make([]ForecastRegion, len(pair))
		for i, r := range pair {
			regs[i] = ForecastRegion{Region: r, Provider: &Revisions{
				Truth: r.Signal, Seed: seed + int64(i)*100, Sigma: 0.15,
			}}
		}
		return regs
	}
	perfect := func(pair []region.Region) []ForecastRegion {
		regs := make([]ForecastRegion, len(pair))
		for i, r := range pair {
			regs[i] = ForecastRegion{Region: r, Provider: &Perfect{Truth: r.Signal}}
		}
		return regs
	}
	damped := func(opts RegionOptions, margin float64) RegionOptions {
		opts.HysteresisMargin, opts.PlanQuantile = margin, 0.7
		return opts
	}
	margins := []float64{0.25, 0.5, 2}

	pair, one, opts := regionTestSetup()
	two := append(one[:1:1], region.Job{
		ID: "eval", Table: one[0].Table, Origin: pair[1].Name,
		Target: 0.7 * one[0].Target, PowerScale: 2,
	})
	for _, c := range []struct {
		name string
		jobs []region.Job
	}{{"region/1job", one}, {"region/2jobs", two}} {
		add(c.name+"/oracle", func() (any, error) { return OracleRegions(pair, c.jobs, opts) })
		for seed := int64(1); seed <= 6; seed++ {
			regs := revisions(pair, seed)
			pre := fmt.Sprintf("%s/revisions%d/", c.name, seed)
			add(pre+"plan-once", func() (any, error) { return PlanOnceRegions(regs, c.jobs, opts) })
			add(pre+"mpc", func() (any, error) { return ReplanRegions(regs, c.jobs, opts) })
			for _, m := range margins {
				add(fmt.Sprintf("%smpc/margin%v/q0.7", pre, m), func() (any, error) { return ReplanRegions(regs, c.jobs, damped(opts, m)) })
			}
		}
	}

	// Two jobs on 1-GPU regions whose transfers outlast a cell: a
	// transfer's residue crosses re-plans, and the 0.25 margin plans
	// less idle than the real transfer takes.
	narrow := coarsePair()
	for i := range narrow {
		narrow[i].GPUs = 1
	}
	slow := damped(opts, 0.25)
	slow.Migration.DowntimeS = 5 * 3600
	for seed := int64(1); seed <= 6; seed++ {
		regs := revisions(narrow, seed)
		add(fmt.Sprintf("region/2jobs/1gpu/transfer5h/revisions%d/mpc/margin0.25/q0.7", seed),
			func() (any, error) { return ReplanRegions(regs, two, slow) })
	}

	foreign := append([]region.Job(nil), one...)
	foreign[0].Origin = pair[1].Name
	add("region/1job/perfect/mpc", func() (any, error) { return ReplanRegions(perfect(pair), one, opts) })
	add("region/1job/origin-east/perfect/mpc", func() (any, error) { return ReplanRegions(perfect(pair), foreign, opts) })
	add("region/2jobs/perfect/mpc", func() (any, error) { return ReplanRegions(perfect(pair), two, opts) })
	for _, m := range margins {
		add(fmt.Sprintf("region/2jobs/perfect/mpc/margin%v/q0.7", m), func() (any, error) { return ReplanRegions(perfect(pair), two, damped(opts, m)) })
	}

	lt := convexTable(0.01, 80, 120, 3000, 120)
	truth := grid.Diurnal24h()
	sopts := testOptions(lt, truth)
	robust := sopts
	robust.Quantile = 0.8
	add("single/oracle", func() (any, error) { return Oracle(lt, truth, sopts) })
	for seed := int64(1); seed <= 4; seed++ {
		prov := &Revisions{Truth: truth, Seed: seed, Sigma: 0.12}
		pre := fmt.Sprintf("single/revisions%d/", seed)
		add(pre+"plan-once", func() (any, error) { return PlanOnce(lt, prov, truth, sopts) })
		add(pre+"mpc", func() (any, error) { return Replan(lt, prov, truth, sopts) })
		add(pre+"mpc/q0.8", func() (any, error) { return Replan(lt, prov, truth, robust) })
	}
	return runs
}

// TestParityGolden pins every outcome of parityRuns to
// testdata/parity.golden, bit for bit: encoding/json writes each
// float64 so that it reads back to the same bits. Regenerate with
// go test ./internal/forecast -run TestParityGolden -update, only for
// a deliberate change.
func TestParityGolden(t *testing.T) {
	type entry struct {
		Name    string `json:"name"`
		Outcome any    `json:"outcome"`
	}
	var entries []entry
	for _, r := range parityRuns() {
		out, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		entries = append(entries, entry{r.name, out})
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "parity.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("outcomes differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("outcomes differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
