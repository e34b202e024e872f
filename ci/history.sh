#!/usr/bin/env bash
# One record of BENCH_history.jsonl — the trajectory across PRs, kept
# beside the one overwritten baseline (ROADMAP item 1(e)) — composed from
# three files CI already produces:
#
#   cargo run --release -p bench --bin trajectory -- --smoke BENCH_sched.json
#   ci/census.sh > census.txt
#   cargo test --release --test alloc_budget -- --nocapture 2> alloc_budget.txt
#   ci/history.sh 22 BENCH_sched.json census.txt alloc_budget.txt >> BENCH_history.jsonl
#
# A record is one JSON object on one line:
#
#   pr            the PR number given
#   parent        the commit the record was taken on top of (HEAD when
#                 the script runs: a PR's own commit does not exist yet,
#                 so record N+1's `parent` is record N's commit; the
#                 back-filled records also carry `commit`)
#   keys          every `trajectory --smoke` key, as written
#   census        ci/census.sh's lines: `non_test_code_lines`,
#                 `test_lines` and `tests` per crate and total, then one
#                 number per remaining line
#   alloc_budget  allocations per launch of the five windows of
#                 tests/alloc_budget.rs (the `4x window` repeats are
#                 left out: they are held to the same budget)
#
#   census_note   added by hand where a census rule changed: PR 23's
#                 record (what the census reads on that record's parent
#                 once it no longer stops at a mid-`impl` `#[cfg(test)]`;
#                 record 22's line counts were taken with the script that
#                 did) and PR 35's (`public_items` widened to six crates)
#
# A value a file does not give is left out, never guessed. Records for
# PRs 13-21 were back-filled once: `keys` from the BENCH_baseline.json
# committed by that PR (the gate holds the two equal; the host-time
# `wall.*` keys PRs 13-17 still committed are left out, nothing held
# them), the rest from what the PR's CHANGES.md entry states; PRs 16 and
# 19 left no commit and have no record.
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: ci/history.sh PR BENCH_sched.json census.txt alloc_budget.txt" >&2
    exit 2
fi
pr=$1 keys_file=$2 census_file=$3 alloc_file=$4

# The flat `{"key": number, ...}` map, on one line.
keys=$(tr -d ' \n' <"$keys_file")

census=$(awk '
    function item(name, value) { out = out (out == "" ? "" : ",") "\"" name "\":" value }
    function add(list, name, value) { return list (list == "" ? "" : ",") "\"" name "\":" value }
    /^non-test code lines/ { lines = add(lines, $4, $5); next }
    /^test lines/ { test_lines = add(test_lines, $3, $4); next }
    /^tests / { tests = add(tests, $2, $3); next }
    /^public functions with no reader/ { unread = $NF; next }
    /^public functions/ { item("public_fns", $NF) }
    /^public items/ { item("public_items", $NF) }
    /^pub traits/ { item("pub_traits", $NF) }
    /^hash\/tree collections/ { item("launch_path_hash_tree", $NF) }
    /^bench binaries/ { item("bench_binaries", $NF) }
    /^pub mod/ { item("pub_mod", $NF) }
    /^settable options/ { item("settable_options", $NF) }
    /^vendored crates/ { item("vendored_crates", $NF) }
    END {
        if (unread != "") item("unread_public_fns", unread)
        printf "{\"non_test_code_lines\":{%s}", lines
        if (test_lines != "") printf ",\"test_lines\":{%s},\"tests\":{%s}", test_lines, tests
        printf "%s%s}", (out == "" ? "" : ","), out
    }' "$census_file")

alloc=$(grep ' allocations per launch' "$alloc_file" | grep -v '4x window' | sort |
    sed -E 's/^(.*): ([0-9.]+) allocations per launch.*/"\1":\2/' | paste -sd, -)

printf '{"pr":%s,"parent":"%s","keys":%s,"census":%s,"alloc_budget":{%s}}\n' \
    "$pr" "$(git rev-parse --short HEAD)" "$keys" "$census" "$alloc"
