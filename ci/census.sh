#!/usr/bin/env bash
# Size census: how much non-test code and public surface the workspace
# carries. Simplicity PRs quote its before/after output instead of
# re-deriving the counts by hand; it fails (exit 1) when (vi) is not
# zero, everything else is informational.
#
#   ci/census.sh
#
# (i)  Non-test code lines per crate: for every crates/<crate>/src/**.rs,
#      the lines above the file's first `#[cfg(test)]`, blank and
#      comment-only (`//`, `///`, `//!`) lines excluded. Files that are
#      test-only modules (`prop_tests.rs`, declared under `#[cfg(test)]`
#      by their parent) count as zero. The rule is checked, not assumed:
#      an indented `#[cfg(test)]` above a file's test module (a test
#      helper in the middle of an `impl`) would hide every line below it
#      from (i), (iii) and (vi), so the census names it and exits 1
#      before counting anything. Put such helpers in the test module (a
#      second `impl` block there).
# (ii) Public-item census: `pub fn|struct|enum|trait|type|const` lines in
#      the six library crates whose API the layers above program against
#      (the crates (v) and ci/unread.sh scan).
#      `pub trait` lines across every crate: each is a seam someone
#      outside the defining module can implement.
# (iii) Hash and tree collections on the launch path: occurrences of
#      `HashMap|HashSet|BTreeMap|BTreeSet` in the non-test code (as in
#      (i)) of the files a launch, its completion and its retirement run
#      through, and of the serve core's submit/pump/complete path. They
#      were replaced by id-indexed tables; a change that puts one back
#      shows up here.
# (iv) Bench binaries: entries under crates/bench/src/bin (`trajectory`
#      alone: the paper's artifacts are suites of it).
# (v)  `pub mod` declarations in the six library crates whose root is
#      their API: each is a second path to every item inside it.
# (vi) Public functions with no reader outside their crate. The six
#      crates build under `#![warn(unreachable_pub)]`, so with clippy's
#      `-D warnings` rustc already refuses a `pub` type, const or free
#      function that nothing exports (and `dead_code` what nothing
#      uses). What no lint can judge is a `pub fn` on an exported type
#      or in a public module, so ci/unread.sh asks the compiler one
#      function at a time (about 5 minutes): made `pub(crate)` alone, a
#      function that still compiles everywhere is unread. Its names are
#      printed; spend them (`pub(crate)`, private, or delete with their
#      tests) rather than list them anywhere.
# (vii) Test size per crate, the other side of (i): the lines from each
#      file's first `#[cfg(test)]` on, whole `prop_tests.rs` files and
#      the crate's `tests/` directory (the root package's `tests/` as
#      `(root)`), counted by the same rules as (i); and the `#[test]`
#      functions among them (doc tests not counted).
# (viii) Settable options: the `pub` fields of the structs a caller
#      configures the runtime with (`grcuda::Options`,
#      `grcuda::serve::ServeConfig`, `gpu_sim::MemoryConfig`). Each is a
#      knob every layer below must honour; a change that adds or removes
#      one shows it here the way (ii) shows public items.
set -euo pipefail
cd "$(dirname "$0")/.."

early=$(find crates/*/src -name '*.rs' ! -name 'prop_tests.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /^[[:space:]]+#\[cfg\(test\)\]/ { print "  " FILENAME ":" FNR }')
if [ -n "$early" ]; then
    printf '#[cfg(test)] above the test module: the lines below it would not be counted\n%s\n' "$early"
    exit 1
fi

total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=$(find "$crate/src" -name '*.rs' ! -name 'prop_tests.rs' -print0 |
        xargs -0 awk '
            FNR == 1 { in_tests = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            /^[[:space:]]*$/ { next }
            /^[[:space:]]*\/\// { next }
            { n++ }
            END { print n + 0 }')
    printf 'non-test code lines  %-12s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf 'non-test code lines  %-12s %6d\n' total "$total"

# (vii), see the header.
test_total=0 tests_total=0
for dir in crates/*/ .; do
    name=$(basename "$dir")
    [ "$dir" = . ] && name='(root)'
    files=()
    [ "$dir" = . ] || mapfile -t files < <(find "$dir/src" -name '*.rs')
    [ -d "$dir/tests" ] && mapfile -t -O ${#files[@]} files < <(find "$dir/tests" -name '*.rs')
    [ ${#files[@]} -gt 0 ] || continue
    lines=$(awk '
        FNR == 1 { in_tests = FILENAME ~ /prop_tests\.rs$|\/tests\// }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }' "${files[@]}")
    tests=$(cat "${files[@]}" | grep -cE '^[[:space:]]*#\[test\]' || true)
    printf 'test lines           %-12s %6d\n' "$name" "$lines"
    printf 'tests                %-12s %6d\n' "$name" "$tests"
    test_total=$((test_total + lines))
    tests_total=$((tests_total + tests))
done
printf 'test lines           %-12s %6d\n' total "$test_total"
printf 'tests                %-12s %6d\n' total "$tests_total"

api_crates=(gpu-sim cuda-sim dag grcuda metrics benchmarks)
public=$(for c in "${api_crates[@]}"; do
    grep -rE "^\s*pub (fn|struct|enum|trait|type|const) " "crates/$c/src"
done | wc -l)
printf 'public items         %-12s %6d\n' "(6 crates)" "$public"
printf 'pub traits           %-12s %6d\n' "(workspace)" \
    "$(grep -rE "^\s*pub trait " crates/*/src | wc -l)"

launch_path=(
    crates/dag/src/{graph,vertex}.rs
    crates/grcuda/src/{context,stream_manager}.rs
    crates/cuda-sim/src/context.rs
    crates/gpu-sim/src/{engine,memory_manager}.rs
    crates/grcuda/src/serve/{core,fairness}.rs
)
hashed=$(awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*\/\// { next }
    { n += gsub(/HashMap|HashSet|BTreeMap|BTreeSet/, "&") }
    END { print n + 0 }' "${launch_path[@]}")
printf 'hash/tree collections %-11s %6d\n' "(launch path)" "$hashed"
printf 'bench binaries       %-12s %6d\n' "(src/bin)" "$(ls crates/bench/src/bin | wc -l)"

printf 'pub mod              %-12s %6d\n' "(6 crates)" \
    "$(for c in "${api_crates[@]}"; do grep -rE "^\s*pub mod " "crates/$c/src"; done | wc -l)"

# (viii), see the header: fields from `pub struct NAME {` to its `}`.
option_structs=(
    "Options crates/grcuda/src/options.rs"
    "ServeConfig crates/grcuda/src/serve/core.rs"
    "MemoryConfig crates/gpu-sim/src/memory_manager.rs"
)
knobs=0
for entry in "${option_structs[@]}"; do
    read -r name file <<<"$entry"
    n=$(awk -v open="^pub struct $name \\{" '$0 ~ open { in_struct = 1; next }
        in_struct && /^}/ { in_struct = 0 }
        in_struct && /^    pub / { n++ }
        END { print n + 0 }' "$file")
    knobs=$((knobs + n))
done
printf 'settable options     %-12s %6d\n' "(3 structs)" "$knobs"

ci/unread.sh
