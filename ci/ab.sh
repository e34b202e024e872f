#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark (BENCHMARK.json) between two
# commits: the table every host-time claim in CHANGES.md is read from.
#
#   ci/ab.sh PARENT CHANGE [workloads [pairs [seconds [benchmark args...]]]]
#   ci/ab.sh HEAD~1 HEAD pipeline_batch 10 5
#   ci/ab.sh HEAD . pipeline_batch 10 5 --seed 7
#   ci/ab.sh HEAD . interactive_sync,serve_tenants 4 5
#   ci/ab.sh HEAD HEAD pipeline_batch 10 5         # A/A: must not say "gain"
#
# PARENT and CHANGE are commits, or `.` for the working tree as it stands.
# Each side is exported and built in its own directory (ci/sides.sh); the
# benchmark command is BENCHMARK.json's, run from that side's checkout, so
# the two binaries never share a build. `workloads` is one name or a
# comma-separated list (each pair runs each of them: one build serves
# them all). Defaults: pipeline_batch, 10 pairs, BENCHMARK.json's
# run_seconds. Pair i runs
# PARENT first when i is odd and CHANGE first when it is even, so a slow
# phase of the machine lands on both sides.
#
# Per end-to-end metric it prints each side's median and quartiles, the
# pairs the change wins (by the metric's `better`), and a verdict:
#   bit-equal           every run of both sides gave the same value
#   worse beyond bound  the change's median is worse than the parent's by
#                       more than the metric's BENCHMARK.json bound
#   gain                the change wins at least 9 pairs in 10 and its
#                       median is better than the parent's by more than
#                       the parent's interquartile range
#   unresolved          the two sides' ranges (min to max) overlap
#   better / worse      apart, but short of a gain or within the bound
# and it exits 1 when a run failed an operation or a metric is worse
# beyond its bound. Nothing under benchmark/ is edited.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: ci/ab.sh PARENT CHANGE [workloads [pairs [seconds [benchmark args...]]]]" >&2
    exit 2
fi
parent=$1 change=$2
IFS=, read -ra workloads <<<"${3:-pipeline_batch}"
pairs=${4:-10}
seconds=${5:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
shift $(($# < 5 ? $# : 5))
extra=("$@")

source ci/sides.sh

mapfile -t command < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
build() { # side rev
    echo "building $1 ($2)" >&2
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
}
for_each_side build

run() { # side workload pair
    echo "pair $3: $2, $1" >&2
    (cd "$tmp/$1" && CARGO_TARGET_DIR="$tmp/$1.target" "${command[@]}" \
        --workload "$2" --seconds "$seconds" "${extra[@]}") | tail -n 1 >"$tmp/$1.$2.$3.json"
}
for i in $(seq "$pairs"); do
    for w in "${workloads[@]}"; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$w" "$i"
            run change "$w" "$i"
        else
            run change "$w" "$i"
            run parent "$w" "$i"
        fi
    done
done

python3 - "$tmp" "$pairs" "$parent" "$change" "${workloads[@]}" <<'PY'
import json, statistics, sys
tmp, pairs, parent, change, workloads = sys.argv[1], int(sys.argv[2]), *sys.argv[3:5], sys.argv[5:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = 0

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3

def judge(m, p, c):
    """One row: both sides' median [q1, q3], the change's wins, the verdict."""
    global bad
    sign = 1 if m["better"] == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    gain = sign * (cm - pm)
    if len(set(p + c)) == 1:
        verdict = "bit-equal"
    elif pm and -gain / abs(pm) > m["bound"]:
        verdict = f"worse beyond bound ({-gain / abs(pm):+.1%} against {m['bound']:.0%})"
        bad += 1
    elif wins * 10 >= 9 * pairs and gain > p3 - p1:
        verdict = f"gain ({gain / abs(pm):+.1%})" if pm else "gain"
    elif min(c) <= max(p) and min(p) <= max(c):
        verdict = "unresolved"
    else:
        verdict = "better" if gain > 0 else "worse, within bound"
    fmt = lambda q1, q2, q3: f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"
    return f"{fmt(p1, pm, p3):>34} {fmt(c1, cm, c3):>34} {wins:>3}/{pairs}  {verdict}"

for w in workloads:
    runs = {s: [json.load(open(f"{tmp}/{s}.{w}.{i}.json")) for i in range(1, pairs + 1)]
            for s in ("parent", "change")}
    for s, rs in runs.items():
        for i, r in enumerate(rs, 1):
            if not r["correct"] or r["failed"]:
                print(f"FAIL {w} {s} pair {i}: {r['failed']} of {r['attempted']} operations failed")
                bad += 1
    print(f"\n== {w}: {parent} -> {change}, {pairs} interleaved pairs")
    print(f"  {'metric':<28} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}  wins  verdict")
    for name, m in spec.items():
        values = [[r["metrics"][name]["value"] for r in runs[s]] for s in ("parent", "change")]
        print(f"  {name:<28} {judge(m, *values)}")
sys.exit(1 if bad else 0)
PY
