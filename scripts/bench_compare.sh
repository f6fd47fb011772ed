#!/usr/bin/env bash
# Diffs two BENCH_*.json trajectory records (written by scripts/bench.sh)
# and prints per-benchmark ns/op and allocs/op deltas. Exits 1 when any
# benchmark in the guarded hot-path series — the plan serving path (cold
# solve, cached hit, the client's decode, the loopback fetches) and the
# grid and region planners — regresses by more than the threshold
# (default 25%) in ns/op, or, outside the region planner, makes a single
# allocation more per op than the old record: those allocation counts do
# not depend on the machine, so they are gated exactly. The region
# planner's vary from run to run of one binary (its first descents run
# on goroutines: BenchmarkRegionPlan/jobs-2 read 204-245 allocs/op over
# thirty runs), so only its ns/op is gated. All other series are
# report-only (coarser solver benchmarks are too machine-sensitive to
# gate on).
#
# Usage: scripts/bench_compare.sh [--report-only] old.json new.json
set -euo pipefail

threshold="${BENCH_REGRESSION_THRESHOLD:-25}"
gate=1
if [[ "${1:-}" == "--report-only" ]]; then
  gate=0
  shift
fi
if [[ $# -ne 2 ]]; then
  echo "usage: $0 [--report-only] old.json new.json" >&2
  exit 2
fi
old="$1" new="$2"
for f in "$old" "$new"; do
  [[ -r "$f" ]] || { echo "bench_compare: cannot read $f" >&2; exit 2; }
done

python3 - "$old" "$new" "$threshold" "$gate" <<'EOF'
import json, sys

old_path, new_path, threshold, gate = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1"
old = json.load(open(old_path))
new = json.load(open(new_path))
old_by = {b["name"]: b for b in old["benchmarks"]}
new_by = {b["name"]: b for b in new["benchmarks"]}

# Hot paths gated against regression; everything else is report-only.
ALLOC_GUARDED_PREFIXES = ("BenchmarkServerPlanCached", "BenchmarkServerPlanCold", "BenchmarkDecodePlan",
                          "BenchmarkSocketFetch", "BenchmarkGridOptimize")
GUARDED_PREFIXES = ALLOC_GUARDED_PREFIXES + ("BenchmarkRegionPlan",)

print(f"old: {old_path} (commit {old.get('commit', '?')}, {old.get('date', '?')})")
print(f"new: {new_path} (commit {new.get('commit', '?')}, {new.get('date', '?')})")
print(f"{'benchmark':<42} {'old ns/op':>14} {'new ns/op':>14} {'delta':>9} {'allocs/op':>15}")

failed = []
for name in sorted(set(old_by) | set(new_by)):
    o, n = old_by.get(name), new_by.get(name)
    if o is None or n is None:
        which = "new only" if o is None else "removed"
        print(f"{name:<42} {'-':>14} {'-':>14} {which:>9}")
        continue
    delta = (n["ns_per_op"] - o["ns_per_op"]) / o["ns_per_op"] * 100
    oa, na = o.get("allocs_per_op"), n.get("allocs_per_op")
    allocs = "-" if oa is None or na is None else f"{oa} -> {na}"
    guarded = name.startswith(GUARDED_PREFIXES)
    mark = ""
    if guarded and delta > threshold:
        failed.append((name, f"{delta:+.1f}% ns/op"))
        mark = "  << regression"
    if name.startswith(ALLOC_GUARDED_PREFIXES) and oa is not None and na is not None and na > oa:
        failed.append((name, f"{oa} -> {na} allocs/op"))
        mark = "  << regression"
    print(f"{name:<42} {o['ns_per_op']:>14} {n['ns_per_op']:>14} {delta:>+8.1f}% {allocs:>15}{mark}")

if failed:
    print(f"\n{len(failed)} guarded regression(s): ns/op beyond {threshold:.0f}% or an allocation more:", file=sys.stderr)
    for name, what in failed:
        print(f"  {name}: {what}", file=sys.stderr)
    if gate:
        sys.exit(1)
    print("(report-only mode: not failing)", file=sys.stderr)
EOF
