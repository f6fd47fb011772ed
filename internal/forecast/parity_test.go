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
// pins: the region controller under revisions (plan-once, MPC, MPC on
// the 0.7-quantile), on one job, on two, and on two that contend for
// 1-GPU regions across 5 h transfers (MPC on the 0.7-quantile only);
// under perfect foresight; and the single-region controllers on
// Diurnal24h.
func parityRuns() []parityRun {
	var runs []parityRun
	add := func(name string, run func() (any, error)) {
		runs = append(runs, parityRun{name, run})
	}
	perfect := func(pair []region.Region) []ForecastRegion {
		regs := make([]ForecastRegion, len(pair))
		for i, r := range pair {
			regs[i] = ForecastRegion{Region: r, Provider: &Perfect{Truth: r.Signal}}
		}
		return regs
	}
	q07 := func(opts RegionOptions) RegionOptions {
		opts.PlanQuantile = 0.7
		return opts
	}

	setups := regionSetups()
	for _, su := range setups[:2] {
		add(su.name+"/oracle", func() (any, error) { return OracleRegions(su.pair, su.jobs, su.opts) })
		for seed := int64(1); seed <= 6; seed++ {
			regs := revisionsOn(su.pair, seed)
			pre := fmt.Sprintf("%s/revisions%d/", su.name, seed)
			add(pre+"plan-once", func() (any, error) { return PlanOnceRegions(regs, su.jobs, su.opts) })
			add(pre+"mpc", func() (any, error) { return ReplanRegions(regs, su.jobs, su.opts) })
			add(pre+"mpc/q0.7", func() (any, error) { return ReplanRegions(regs, su.jobs, q07(su.opts)) })
		}
	}
	// A transfer outlasts a cell here, so it is still in flight at the
	// next re-plans.
	slow := setups[2]
	for seed := int64(1); seed <= 6; seed++ {
		regs := revisionsOn(slow.pair, seed)
		add(fmt.Sprintf("%s/revisions%d/mpc/q0.7", slow.name, seed),
			func() (any, error) { return ReplanRegions(regs, slow.jobs, q07(slow.opts)) })
	}

	pair, one, opts := regionTestSetup()
	two := setups[1].jobs
	foreign := append([]region.Job(nil), one...)
	foreign[0].Origin = pair[1].Name
	add("region/1job/perfect/mpc", func() (any, error) { return ReplanRegions(perfect(pair), one, opts) })
	add("region/1job/origin-east/perfect/mpc", func() (any, error) { return ReplanRegions(perfect(pair), foreign, opts) })
	add("region/2jobs/perfect/mpc", func() (any, error) { return ReplanRegions(perfect(pair), two, opts) })
	add("region/2jobs/perfect/mpc/q0.7", func() (any, error) { return ReplanRegions(perfect(pair), two, q07(opts)) })

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
