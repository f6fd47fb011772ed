#!/usr/bin/env bash
# Runs the planning-stack benchmark suite and writes a JSON trajectory
# record (BENCH_PR7.json by default). Each PR that touches the planning
# or serving hot paths appends a new BENCH_PR<N>.json so regressions
# show up as a diff, not an anecdote; scripts/bench_compare.sh diffs
# two records.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR7.json}"
pattern='^(BenchmarkProfileUpload|BenchmarkOptimizerRuntime|BenchmarkAblationMaxFlowSolver|BenchmarkFrontierTable|BenchmarkScheduleLookup|BenchmarkClusterSimulation|BenchmarkFrontierMerge|BenchmarkGridOptimize|BenchmarkRegionPlan|BenchmarkRegionPlanWarm|BenchmarkFleetAllocate|BenchmarkServerPlanCold|BenchmarkServerPlanCached|BenchmarkDecodePlan|BenchmarkSocketFetch|BenchmarkControllerTick|BenchmarkLedgerSettle)$'

procs="${GOMAXPROCS:-$(nproc)}"
raw=$(go test -run '^$' -bench "$pattern" -benchmem .)
echo "$raw" >&2

{
  printf '{\n'
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%d)"
  printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "cpu": "%s",\n' "$(echo "$raw" | sed -n 's/^cpu: //p' | head -1)"
  printf '  "nproc": %s,\n' "$(nproc)"
  printf '  "gomaxprocs": %s,\n' "$procs"
  printf '  "benchmarks": [\n'
  echo "$raw" | awk -v procs="$procs" '
    /^Benchmark/ && /ns\/op/ {
      name = $1
      # Strip the -GOMAXPROCS suffix (absent when it is 1) without
      # eating a sub-benchmark size that happens to end in a number.
      if (procs != 1) sub("-" procs "$", "", name)
      ns = ""; bytes = ""; allocs = ""
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
      }
      if (n++) printf ",\n"
      printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, (bytes == "" ? 0 : bytes), (allocs == "" ? 0 : allocs)
    }
    END { printf "\n" }
  '
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $out" >&2
