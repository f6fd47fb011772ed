#!/usr/bin/env bash
# Runs alternated pairs of bench/run.sh on two checkouts — a parent (A)
# and a change (B) — and prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, B's change against
# A, A's quartile distance (IQR), the pairs B won (lower or higher as
# the metric is better; a tie wins neither) and the pairs whose values
# are bit-identical. Pair i runs seed i of the list (cycled when there
# are fewer seeds than pairs); even pairs run A first, odd ones B, so
# drift on a shared host falls on both sides alike. Exits non-zero if
# any run prints "correct": false or a failed operation.
#
#   scripts/pairs.sh ../parent . serve_mixed 10 301 302 303
#
# PAIRS_SECONDS overrides BENCHMARK.json's run_seconds.
set -euo pipefail
if [[ $# -lt 4 ]]; then
  echo "usage: $0 parent-checkout change-checkout workload pairs seed..." >&2
  exit 2
fi
exec python3 - "$@" <<'PY'
import json, os, statistics, subprocess, sys

a_dir, b_dir, workload, pairs, seeds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5:]
if not seeds or pairs < 1:
    sys.exit("pairs.sh: name at least one pair and one seed")
bm = json.load(open(os.path.join(b_dir, "BENCHMARK.json")))
seconds = os.environ.get("PAIRS_SECONDS", str(bm["run_seconds"]))

bad = 0
def one(root, seed):
    global bad
    out = subprocess.run(["bash", "bench/run.sh", "--workload", workload, "--seed", seed,
                          "--seconds", seconds, "--trace", "0"], cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"pairs.sh: {root} {workload} seed {seed} exited {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    ok = rep["correct"] and rep["failed"] == 0
    bad += not ok
    print(f"  {root}: seed {seed}: correct {str(rep['correct']).lower()}, "
          f"{rep['failed']} of {rep['attempted']} operations failed", file=sys.stderr)
    return {k: v["value"] for k, v in rep["metrics"].items()}

a, b = [], []
for i in range(pairs):
    seed = seeds[i % len(seeds)]
    if i % 2 == 0:
        a.append(one(a_dir, seed)); b.append(one(b_dir, seed))
    else:
        b.append(one(b_dir, seed)); a.append(one(a_dir, seed))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]

print(f"{workload}: {pairs} pairs, A = {a_dir}, B = {b_dir}, seeds {' '.join(seeds)}")
print(f"{'metric':29} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} {'B vs A':>8} {'IQR A':>9} {'B won':>6} {'same':>5}")
for m in bm["end_to_end"]:
    name = m["name"]
    xa = [r[name] for r in a if name in r]
    xb = [r[name] for r in b if name in r]
    if len(xa) != pairs or len(xb) != pairs:
        continue
    (a1, am, a3), (b1, bmed, b3) = quartiles(xa), quartiles(xb)
    lower = m["better"] == "lower"
    won = sum((y < x) if lower else (y > x) for x, y in zip(xa, xb))
    same = sum(x == y for x, y in zip(xa, xb))
    diff = (bmed - am) / am * 100 if am else float("nan")
    mark = " beyond IQR" if abs(bmed - am) > a3 - a1 else ""
    print(f"{name:29} {am:12.5g} [{a1:9.5g}, {a3:9.5g}] {bmed:12.5g} [{b1:9.5g}, {b3:9.5g}] "
          f"{diff:+7.2f}% {a3 - a1:9.3g} {won:3d}/{pairs:<2d} {same:2d}/{pairs}{mark}")
if bad:
    print(f"{bad} runs printed correct: false or failed operations", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
