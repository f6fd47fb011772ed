#!/usr/bin/env bash
# Runs the planning-stack benchmark suite and writes a JSON trajectory
# record to the file named by its one argument, which must not exist yet:
# each PR that touches the planning or serving hot paths appends a new
# BENCH_PR<N>.json so regressions show up as a diff, not an anecdote, and
# no record is ever overwritten. scripts/bench_compare.sh diffs two
# records.
#
# BENCH_COUNT (default 1) runs each benchmark that many times. The record
# keeps each series' median ns/op, B/op and allocs/op (the lower middle
# run for an even count), its fastest and slowest ns/op and its number
# of runs, so one noisy run does not become the next comparison's
# baseline and the spread shows beside it. BENCH_RAW names a file of
# `go test -bench -benchmem` output to record instead of running the
# suite: several runs of this commit alternated with runs of another, so
# that drift on a shared host falls on both records alike.
#
# Usage: [BENCH_COUNT=5] [BENCH_RAW=runs.txt] scripts/bench.sh output.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 output.json" >&2
  exit 2
fi
out="$1"
if [[ -e "$out" ]]; then
  echo "bench.sh: $out exists; name a new record" >&2
  exit 2
fi
pattern='^(BenchmarkProfileUpload|BenchmarkAssemble|BenchmarkFitExp|BenchmarkOptimizerRuntime|BenchmarkCharacterize|BenchmarkAblationMaxFlowSolver|BenchmarkFrontierTable|BenchmarkScheduleLookup|BenchmarkClusterSimulation|BenchmarkFrontierMerge|BenchmarkGridOptimize|BenchmarkRegionPlan|BenchmarkRegionPlanWarm|BenchmarkFleetAllocate|BenchmarkServerPlanCold|BenchmarkServerPlanCached|BenchmarkDecodePlan|BenchmarkSocketFetch|BenchmarkControllerTick|BenchmarkLedgerSettle)$'

procs="${GOMAXPROCS:-$(nproc)}"
if [[ -n "${BENCH_RAW:-}" ]]; then
  raw=$(cat "$BENCH_RAW")
else
  raw=$(go test -run '^$' -bench "$pattern" -benchmem -count "${BENCH_COUNT:-1}" .)
  echo "$raw" >&2
fi

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
    # Sorts a space-separated list into a[1..n] and returns n. The
    # elements keep their text, so they print as the benchmark wrote them.
    function sorted(list, a,   n, i, j, t) {
      n = split(list, a, " ")
      for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j > 0 && a[j] + 0 > t + 0; j--) a[j + 1] = a[j]
        a[j + 1] = t
      }
      return n
    }
    function median(list,   a, n) {
      n = sorted(list, a)
      return a[int((n + 1) / 2)]
    }
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
      if (!(name in nsl)) order[++n] = name
      runs[name]++
      nsl[name] = nsl[name] " " ns
      bl[name] = bl[name] " " (bytes == "" ? 0 : bytes)
      al[name] = al[name] " " (allocs == "" ? 0 : allocs)
    }
    END {
      for (k = 1; k <= n; k++) {
        name = order[k]
        m = sorted(nsl[name], spread)
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ns_per_op_min\": %s, \"ns_per_op_max\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"runs\": %d}%s\n", \
          name, median(nsl[name]), spread[1], spread[m], median(bl[name]), median(al[name]), runs[name], (k < n ? "," : "")
      }
    }
  '
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $out" >&2
