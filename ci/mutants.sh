#!/usr/bin/env bash
# Committed negative controls: every entry of ci/mutants.txt is a defect
# seeded by a literal text substitution, and the test named to kill it
# must fail with it in place.
#
#   ci/mutants.sh [NAME..]        each named mutant (all when none) against its killers
#   ci/mutants.sh --all [NAME..]  the kill matrix: the whole tier-1 per mutant
#
# The working tree as it stands is exported once (ci/sides.sh's
# `export_side`, so nothing is written into the repository) and built
# there. For each mutant the entry's snippet must occur exactly once in
# its file; it is replaced, and then:
#
# - by default each `kill:` line runs as `cargo test -p CRATE ARGS --
#   --exact` (ARGS is `--lib PATH` or `--test FILE NAME`). Each killer is
#   first run once on the unmutated export, where it must pass exactly
#   one test; with the mutant in, it must fail. The script prints
#   `killed` or `survived` per mutant and exits 1 when any mutant
#   survives, any snippet does not match exactly once, any mutant does
#   not compile or any killer matches no test.
# - with `--all` the whole tier-1 test suite runs per mutant (`cargo test
#   --no-fail-fast`: a failing binary must not hide the ones after it)
#   and the script prints every failing test as `BINARY::TEST`, where
#   BINARY is the crate of a unit-test binary, the file stem of an
#   integration test, `doc:CRATE` for a doc test (named without its
#   `(line N)`, which moves with every edit above it). About 2-4
#   minutes per mutant on two cores, so a one-off run, not a CI step;
#   the exit status is as above, with any failing test counting as a
#   kill. ci/mutants.matrix is the committed output of the whole list:
#   a change that deletes or folds tests runs `--all` on its own side
#   and diffs against it.
#
# Set TMPDIR to where the export and its target directory may go.
set -euo pipefail
cd "$(dirname "$0")/.."

all=0
if [ "${1:-}" = --all ]; then
    all=1
    shift
fi
list=ci/mutants.txt
source ci/sides.sh

# The list as records of unit-separated fields (a tab would let `read`
# merge an empty field): name, file, from, to, then one field per
# killer. A `to:` line may be empty (the snippet is deleted).
US=$'\037'
records=$(awk -v US="$US" '
    function flush() {
        if (name != "") print name US file US from US to kills
        name = ""; kills = ""
    }
    /^#/ { next }
    /^[[:space:]]*$/ { flush(); next }
    /^name: / { name = substr($0, 7); next }
    /^file: / { file = substr($0, 7); next }
    /^from: / { from = substr($0, 7); next }
    /^to:/ { to = substr($0, 5); next }
    /^kill: / { kills = kills US substr($0, 7); next }
    { print "ci/mutants.txt:" NR ": unknown line: " $0 > "/dev/stderr"; exit 1 }
    END { flush() }' "$list")

selected=$records
if [ $# -gt 0 ]; then
    selected=""
    for want in "$@"; do
        line=$(awk -F"$US" -v n="$want" '$1 == n' <<<"$records")
        if [ -z "$line" ]; then
            echo "no mutant named $want in $list" >&2
            exit 2
        fi
        selected+="$line"$'\n'
    done
fi

src=$tmp/src
export_side . "$src"
export CARGO_TARGET_DIR=$tmp/target
cd "$src"

# Replace the one occurrence of FROM in FILE with TO (`\n` in either is a
# line break); exit 2 when FROM occurs any other number of times.
substitute() { # file from to
    perl -e '
        my ($file, $from, $to) = @ARGV;
        s/\\n/\n/g for $from, $to;
        open my $in, "<", $file or die "$file: $!\n";
        my $text = do { local $/; <$in> };
        my $n = () = $text =~ /\Q$from\E/g;
        if ($n != 1) { print STDERR "matches $n times\n"; exit 2 }
        $text =~ s/\Q$from\E/$to/;
        open my $out, ">", $file or die "$file: $!\n";
        print $out $text;' "$@"
}

# Run one killer; prints passed, failed, unbuildable, timeout or no-test.
run_killer() { # "CRATE ARGS.."
    local crate args out code=0
    read -r crate args <<<"$1"
    # shellcheck disable=SC2086 # ARGS is a list of words
    out=$(timeout 900 cargo test --offline -q -p "$crate" $args -- --exact 2>&1 </dev/null) || code=$?
    if [ $code = 124 ]; then
        echo timeout
    elif grep -q "test result: ok. 1 passed" <<<"$out"; then
        echo passed
    elif grep -q "test result: FAILED. 0 passed; 1 failed" <<<"$out"; then
        echo failed
    elif grep -q "0 passed; 0 failed" <<<"$out"; then
        echo no-test
    else
        echo unbuildable
    fi
}

# Every failing test of the whole suite as BINARY::TEST, or `unbuildable`.
kill_set() {
    local out code=0
    out=$(timeout 1800 cargo test --offline --no-fail-fast -- --quiet 2>&1 </dev/null) || code=$?
    if [ $code = 124 ]; then
        echo timeout
        return
    fi
    if grep -q "^error\(\[E[0-9]*\]\)\?: could not compile" <<<"$out"; then
        echo unbuildable
        return
    fi
    awk '
        /^ *Running / {
            bin = $0
            sub(/.*deps\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin)
        }
        /^ *Doc-tests / { bin = "doc:" $2 }
        /^---- .* stdout ----$/ {
            t = $0; sub(/^---- /, "", t); sub(/ stdout ----$/, "", t)
            if (bin ~ /^doc:/) sub(/ \(line [0-9]+\)$/, "", t)
            print bin "::" t
        }
        /process didn.t exit successfully.*signal/ { print bin "::(killed by a signal)" }' <<<"$out"
}

if [ $all = 0 ]; then
    echo "checking the killers on the unmutated tree" >&2
    bad=0
    while IFS=$US read -r -a f; do
        [ ${#f[@]} -gt 0 ] || continue
        for killer in "${f[@]:4}"; do
            verdict=$(run_killer "$killer")
            if [ "$verdict" != passed ]; then
                echo "${f[0]}: killer '$killer' does not pass unmutated: $verdict"
                bad=1
            fi
        done
    done <<<"$selected"
    [ $bad = 0 ] || exit 1
fi

status=0
while IFS=$US read -r -a f; do
    [ ${#f[@]} -gt 0 ] || continue
    name=${f[0]} file=${f[1]} from=${f[2]} to=${f[3]}
    cp "$file" "$tmp/original"
    if ! why=$(substitute "$file" "$from" "$to" 2>&1); then
        echo "$name: snippet in $file $why"
        status=1
        continue
    fi
    if [ $all = 1 ]; then
        kills=$(kill_set)
        if [ "$kills" = unbuildable ] || [ "$kills" = timeout ]; then
            echo "$name: $kills"
            status=1
        elif [ -z "$kills" ]; then
            echo "$name: survived"
            status=1
        else
            echo "$name: killed by $(tr '\n' ' ' <<<"$kills")"
        fi
    else
        verdict=killed
        for killer in "${f[@]:4}"; do
            seen=$(run_killer "$killer")
            case $seen in
                failed) ;;
                passed) verdict=survived ;;
                *) verdict="$seen: $killer" ;;
            esac
        done
        [ ${#f[@]} -gt 4 ] || verdict="no killer named"
        echo "$name: $verdict"
        [ "$verdict" = killed ] || status=1
    fi
    # A fresh mtime, so that cargo rebuilds the restored file.
    cp "$tmp/original" "$file"
done <<<"$selected"
exit $status
