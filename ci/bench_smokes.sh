#!/usr/bin/env bash
# The bench trajectory: run the eight bench smokes into one metrics
# file, then gate it against the committed baseline.
#
#   ci/bench_smokes.sh [--refresh] [OUT.json]    (default BENCH_sched.json)
#
# Every smoke merges its keys into OUT.json (a flat
# {"metric.name": number} map). Gated metrics are simulated
# virtual-time quantities, so they are deterministic across machines;
# wall.* keys ride along informationally. After an intentional perf
# change pass --refresh: the same run, then OUT.json is copied over
# BENCH_baseline.json for you to commit.
set -euo pipefail
cd "$(dirname "$0")/.."

refresh=0
out=BENCH_sched.json
for arg in "$@"; do
    case "$arg" in
    --refresh) refresh=1 ;;
    *) out=$arg ;;
    esac
done

smoke() {
    local bin=$1
    shift
    cargo run --release -p bench --bin "$bin" -- "$@" --json "$out"
}

rm -f "$out"

# Soak (bounded scheduler state): reduced-iteration soak; fails if any
# scheduler-side map or the DAG's stored vertex set is not bounded by
# the live frontier across launch/sync cycles. Records launches/s.
smoke soak --smoke

# Scheduler hot-path microbenchmark (stage profile): arena maps, serial
# vs batched submission, and the multi-GPU pipeline with the
# incremental rate solver. The sched.* keys are virtual-time quantities
# (deterministic) and are gated; wall.sched.* are informational.
smoke scheduler_micro

# Multi-GPU policy + topology + oversubscription sweep (result parity):
# every suite x 1/2/4 devices x every placement policy, the transfer
# chain across every interconnect preset, and the finite-device-memory
# oversubscription suite. Asserts bit-exact result parity, zero races,
# locality-aware < round-robin on migrated bytes, (on the NVLink-pair
# machine) transfer-aware < both round-robin and locality-aware on
# makespan and host-link bytes, and memory-aware + cost-aware eviction
# < transfer-aware + LRU on makespan and spilled bytes under
# oversubscription. Records makespans, overlap %, migrated bytes by
# link and oversubscription metrics.
smoke multi_gpu --smoke

# Schedule-sanitizer sweep (static soundness): every suite x every
# placement policy through the static schedule auditor. All conflicting
# access pairs must be ordered by the inferred DAG (zero violations,
# zero dead-write lints), and the failure injections (inference
# disabled, lying `const` signature) must each produce exactly the
# expected violation class. audit.violations / audit.dead_writes are
# gated at zero, audit.redundant_edges is informational.
smoke audit --smoke

# Multi-tenant serving (contention + fairness + admission): the serving
# layer driven as a deterministic core. 1 vs 8 clients through the
# cross-tenant batch coalescer (asserts >= 2x aggregate virtual
# throughput), deadline-aware vs FIFO fairness (the sensitive tenant's
# p99 must drop), admission control under finite memory, and a threaded
# 8-client run (wall.*, informational). serve.p50/p99 gate
# lower-is-better; serve.agg_virtual_launches_per_s carries an absolute
# floor.
smoke serve --smoke

# Adaptive scheduling (history loop closed): the mixed workload
# (transfer chain + oversubscription + fanout mix) across every
# placement policy. Asserts that the calibrated Adaptive policy matches
# or beats the best static policy on every suite and wins the fanout mix
# by >5% — the suite only duration history can win. adaptive.* makespans
# gate downward, speedups and calibration samples upward.
smoke adaptive --smoke

# Block-size autotuner (kernel history): the tuned choice must strictly
# beat the worst explored candidate. Records autotune.* (best block,
# tuned-vs-worst speedup, history samples).
smoke autotune --smoke

# Cluster scale-out (multi-node partitioned placement): 2 nodes x 4 GPUs
# over the cluster suites. Asserts node-aware placement beats
# round-robin on both cross-node bytes and makespan on the dependent
# chain; cluster.* (makespans, cross-node MiB, partition cut MiB) all
# gate lower-is-better.
smoke cluster --smoke

# Perf-regression gate: >15% regression of any deterministic metric
# against the committed baseline (or a floored metric below its floor)
# fails.
cargo run --release -p bench --bin bench_gate -- "$out" BENCH_baseline.json

if [ "$refresh" = 1 ]; then
    cp "$out" BENCH_baseline.json
    echo "refreshed BENCH_baseline.json from $out — commit it"
fi
