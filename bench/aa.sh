#!/usr/bin/env bash
# A-A check: two sets of runs of the same code, alternated A B A B, per
# workload. Prints for every end-to-end metric both sets' medians and
# quartiles, their relative difference, the spread (quartile distance
# over median, as statistics.quantiles(n=4) gives it) and the bound from
# BENCHMARK.json; exits non-zero if two sets of the same code differ by
# more than a bound, or a spread (setup_s excepted) exceeds it.
#
#   bash bench/aa.sh            # 5 runs per set, all workloads (~12 min)
#   bash bench/aa.sh 10 serve_mixed region_plan
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-5}"
shift || true
exec python3 - "$root" "$runs" "$@" <<'PY'
import json, statistics, subprocess, sys

root, runs, only = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bm = json.load(open(root + "/BENCHMARK.json"))
if runs < 5:
    sys.exit("aa.sh: at least 5 runs per set")

def one(workload, seed):
    out = subprocess.run(bm["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(bm["run_seconds"]), "--trace", "0"],
                         cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"aa.sh: {workload} seed {seed} exited {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    if not rep["correct"] or rep["failed"]:
        sys.exit(f"aa.sh: {workload} seed {seed}: {rep['failed']} of {rep['attempted']} operations failed")
    return {k: v["value"] for k, v in rep["metrics"].items()}

def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]

bad = 0
print(f"{'workload':13} {'metric':29} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} {'B vs A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}")
for w in bm["workloads"]:
    name = w["name"]
    if only and name not in only:
        continue
    a, b = [], []
    for i in range(runs):          # A B A B: both sets see the same machine phases
        a.append(one(name, i + 1))
        b.append(one(name, i + 1))
    for m in bm["end_to_end"]:
        xa, xb = [r[m["name"]] for r in a], [r[m["name"]] for r in b]
        (a1, am, a3), (b1, bmed, b3) = quartiles(xa), quartiles(xb)
        diff = (bmed - am) / am
        sa, sb = (a3 - a1) / am, (b3 - b1) / bmed
        verdict = ""
        if abs(diff) > m["bound"]:
            verdict = " DIFFERS"
        elif m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
            verdict = " NOISY"
        bad += bool(verdict)
        print(f"{name:13} {m['name']:29} {am:12.5g} [{a1:9.5g}, {a3:9.5g}] {bmed:12.5g} [{b1:9.5g}, {b3:9.5g}] "
              f"{diff*100:+7.2f}% {sa*100:8.2f}% {sb*100:8.2f}% {m['bound']*100:5.0f}%{verdict}")
print(f"{bad} metric/workload pairs outside their bound" if bad else "every metric of every workload within its bound")
sys.exit(1 if bad else 0)
PY
