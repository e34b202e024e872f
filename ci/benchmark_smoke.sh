#!/usr/bin/env bash
# The repository benchmark's own checks, short enough for every CI run:
# the benchmark package's unit tests, then a 2-second pass of the five
# workloads that between them cross every layer of the launch path and
# every way of driving it (a 2x8 cluster with finite memory; one GPU
# batched, one GPU with a host write and read around every chain,
# through the service core; and the paper's six suites through the
# public runners, whose sequential reference runs on a second thread
# beside the run it checks). Every pass validates
# each value read against the sequential reference interpreter, the
# race detector and the drained-state checks, so a runtime change that
# breaks the benchmark's validation fails here rather than at the
# benchmark gate. Timings from so short a run mean nothing and are not
# looked at.
#
#   ci/benchmark_smoke.sh [seconds]    (default 2)
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=${1:-2}
manifest=benchmark/Cargo.toml

cargo test --release --offline --quiet --manifest-path "$manifest"

for workload in placement_cluster pipeline_batch interactive_sync serve_tenants paper_suites; do
    result=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        --workload "$workload" --seconds "$seconds" | tail -n 1)
    case "$result" in
    '{"correct": true, "attempted": '*', "failed": 0, "metrics": '*)
        echo "benchmark_smoke: $workload ok"
        ;;
    *)
        echo "benchmark_smoke: $workload did not validate: ${result:0:120}" >&2
        exit 1
        ;;
    esac
done
