#!/usr/bin/env bash
# Public functions nothing outside their crate reads, settled by the
# compiler: census (vi), called by ci/census.sh.
#
#   ci/unread.sh
#
# On a temporary copy of the tree (under $TMPDIR, with its own target
# directories, removed on exit) every `pub fn` in the non-test code of
# the six library crates is made `pub(crate)`, one at a time, and the
# copy is checked the two ways the repository is built:
#
#   cargo check --workspace --all-targets
#   cargo check --all-targets --manifest-path benchmark/Cargo.toml
#
# A function whose flip still compiles has no reader outside its crate:
# it is printed as `file:line Type::name`, and the script exits 1 when
# there is one. Spend it (`pub(crate)`, private, or delete it with its
# tests); there is no list of exceptions. One rule exempts: an
# `is_empty` whose sibling `len` (same `impl`) is read stays public as
# clippy's `len_without_is_empty` companion.
#
# Matching by name cannot do this: 173 of the 406 public functions
# shared their name with another one (`new`, `name`, `len`, `parse`, ..)
# when this replaced the grep, and one reader of any of them vouched for
# all. About 5 minutes for 400 functions on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d "${TMPDIR:-/tmp}/unread.XXXXXX")
trap 'rm -rf "$work"' EXIT
tar -cf - --exclude=./.git --exclude=./target --exclude=./.bench_build \
    --exclude=./benchmark/target . | tar -xf - -C "$work"
cd "$work"

check() {
    CARGO_TARGET_DIR=$work/target cargo check --offline --quiet --workspace --all-targets &&
        CARGO_TARGET_DIR=$work/target-benchmark cargo check --offline --quiet --all-targets \
            --manifest-path benchmark/Cargo.toml
}
if ! check >"$work/log" 2>&1; then
    echo "ci/unread.sh: the tree does not compile as it is" >&2
    tail -n 20 "$work/log" >&2
    exit 2
fi

# file, line, line of the enclosing `impl` (0 for a free function),
# `Type::name` — non-test code only, as in census (i).
candidates=$(for crate in gpu-sim cuda-sim dag grcuda metrics benchmarks; do
    find "crates/$crate/src" -name '*.rs' ! -name 'prop_tests.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { in_tests = 0; owner = ""; impl_line = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            /^impl/ {
                owner = $0
                sub(/^impl(<[^>]*>)? */, "", owner)
                sub(/[^A-Za-z0-9_].*/, "", owner)
                impl_line = FNR
            }
            match($0, /^[[:space:]]*pub (const )?fn [a-z_0-9]+/) {
                name = substr($0, RSTART, RLENGTH)
                sub(/.*fn /, "", name)
                if ($0 ~ /^pub/) print FILENAME, FNR, 0, name
                else print FILENAME, FNR, impl_line, owner "::" name
            }'
done)

compiles=()
while read -r file line impl_line name; do
    sed -i "${line}s/pub /pub(crate) /" "$file"
    if check >/dev/null 2>&1; then compiles+=("$file $line $impl_line $name"); fi
    sed -i "${line}s/pub(crate) /pub /" "$file"
done <<<"$candidates"

unread=()
for entry in "${compiles[@]}"; do
    read -r file line impl_line name <<<"$entry"
    if [[ $name == *::is_empty ]] &&
        grep -q "^$file [0-9]* $impl_line ${name%is_empty}len\$" <<<"$candidates" &&
        ! printf '%s\n' "${compiles[@]}" | grep -q "^$file [0-9]* $impl_line ${name%is_empty}len\$"; then
        continue
    fi
    unread+=("$file:$line $name")
done

printf 'public functions     %-12s %6d\n' "(6 crates)" "$(wc -l <<<"$candidates")"
printf 'public functions with no reader outside their crate %d\n' "${#unread[@]}"
if [ "${#unread[@]}" -gt 0 ]; then
    printf '  %s\n' "${unread[@]}"
    exit 1
fi
