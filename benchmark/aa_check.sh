#!/usr/bin/env bash
# A/A check: run every workload on the same commit with the same seed in
# two sets — per set N untraced runs and one traced run — print both
# sets side by side and fail unless
#   * every simulated-time and count metric is bit-equal in every run,
#   * every host-time end-to-end metric's median over a set's N runs is
#     within its BENCHMARK.json bound of the other set's (per-layer host
#     times are printed, not judged).
# N defaults to 3: on the shared sandbox a single run can sit entirely
# inside a slow phase of the machine (see README, "Noise").
#
# Usage: benchmark/aa_check.sh [seconds-per-run [runs-per-set]]
set -euo pipefail
cd "$(dirname "$0")/.."

seconds="${1:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
repeats="${2:-3}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
run() { # set workload trace index
  echo "set $1: $2 trace=$3 run $4" >&2
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$2" --seconds "$seconds" --trace "$3" > "$out/$1.$2.$3.$4"
}
for set in a b; do
  for w in $workloads; do
    for i in $(seq "$repeats"); do run "$set" "$w" 0 "$i"; done
    run "$set" "$w" 1 1
  done
done

python3 - "$out" "$repeats" $workloads <<'PY'
import json, statistics, sys
out, repeats, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = 0

def load(path):
    lines = open(path).read().splitlines()
    result = json.loads(lines[-1])
    # The table carries what the result line does not: whether a metric
    # is simulated time, host time or a count.
    kind = {}
    for l in lines:
        f = l.split()
        if len(f) >= 5 and f[0] in result["metrics"]:
            kind[f[0]] = " ".join(f[4:])
    return result, kind

for w in workloads:
    for trace, n in (("0", repeats), ("1", 1)):
        sets = {}
        for s in "ab":
            runs = [load(f"{out}/{s}.{w}.{trace}.{i}") for i in range(1, n + 1)]
            for result, _ in runs:
                if not result["correct"] or result["failed"]:
                    print(f"FAIL {w} trace={trace} set {s}: {result['failed']} failed operations")
                    bad += 1
            sets[s] = runs
        kind = sets["a"][0][1]
        what = "per-layer, traced" if trace == "1" else f"end-to-end, untraced, median of {n}"
        print(f"\n== {w} ({what})")
        for name, m in sets["a"][0][0]["metrics"].items():
            values = {s: [r["metrics"][name]["value"] for r, _ in sets[s]] for s in "ab"}
            va, vb = (statistics.median(values[s]) for s in "ab")
            k = kind[name]
            if k != "host time":
                same = len(set(values["a"] + values["b"])) == 1
                verdict = "bit-equal" if same else "DIFFERS"
                bad += not same
            elif name in bounds:
                verdict = f"{100 * (vb / va - 1):+.1f}% (bound {100 * bounds[name]:.0f}%)"
                if abs(vb / va - 1) > bounds[name]:
                    verdict += " OUT OF BOUND"
                    bad += 1
            else:
                verdict = f"{100 * (vb / va - 1):+.1f}%" if va else "-"
            print(f"  {name:<52} {va:>18.6f} {vb:>18.6f} {m['unit']:<10} {k:<14} {verdict}")
print()
if bad:
    print(f"A/A check FAILED: {bad} metric(s)")
    sys.exit(1)
print("A/A check passed: simulated and count metrics bit-equal in every run, "
      "host-time end-to-end medians within bounds")
PY
