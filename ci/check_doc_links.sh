#!/usr/bin/env bash
# Check intra-repo markdown links and source anchors in README.md and
# docs/*.md, the markdown files that source comments name, and the
# fidelity table docs/FIDELITY.md quotes.
#
# A link breaks the build when its target file does not exist
# (relative to the file containing the link) or, for a same-repo
# `file.md#anchor` / `#anchor` link, when no heading in the target
# renders to that GitHub-style anchor. External links (http/https) and
# mailto links are ignored.
#
# A source anchor is a backticked `crates/<path>.rs` or
# `crates/<path>.rs:<line>` (relative to the repo root; `*` globs
# allowed). It breaks the build when no such file exists or the line
# lies outside it. A backticked `name` or `Type::name` written directly
# before one — `Engine::complete` (`crates/gpu-sim/src/engine.rs`), or
# joined by "in" — must be defined in that file (`fn name`, or
# `struct|enum|trait|type|const|static Name`): a renamed function leaves
# its old name in the prose, and the file it points at still exists.
#
# A `*.md` named anywhere in crates/**/*.rs must exist at that path from
# the repo root: a comment that sends the reader to a document is a
# link too.
#
# The block between the `<!-- fidelity:begin` and `<!-- fidelity:end -->`
# lines of docs/FIDELITY.md must be, byte for byte, the block
# `trajectory --smoke` prints between the same lines (all nineteen
# suites, about 35 s once built): the document's simulated-vs-paper
# table is the run's, not a copy somebody has to remember to update.
set -euo pipefail
cd "$(dirname "$0")/.."

# GitHub's heading -> anchor rule: lowercase, drop everything but
# alphanumerics/spaces/hyphens, spaces become hyphens.
anchors_of() {
    sed -n 's/^#\{1,6\} \(.*\)$/\1/p' "$1" |
        tr '[:upper:]' '[:lower:]' |
        sed 's/[^a-z0-9 -]//g; s/ /-/g'
}

scan() {
    for doc in README.md docs/*.md; do
        [ -f "$doc" ] || continue
        dir=$(dirname "$doc")
        # Inline markdown link targets: [text](target)
        grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/^\[[^]]*\](\(.*\))$/\1/' |
            while IFS= read -r target; do
                case "$target" in
                http://* | https://* | mailto:*) continue ;;
                esac
                file=${target%%#*}
                anchor=${target#*#}
                [ "$anchor" = "$target" ] && anchor=""
                if [ -z "$file" ]; then
                    resolved=$doc # pure #anchor link: same file
                else
                    resolved=$dir/$file
                fi
                if [ ! -e "$resolved" ]; then
                    echo "BROKEN LINK in $doc: ($target) -> missing file $resolved"
                    continue
                fi
                if [ -n "$anchor" ] && [[ $resolved == *.md ]]; then
                    if ! anchors_of "$resolved" | grep -qx "$anchor"; then
                        echo "BROKEN ANCHOR in $doc: ($target) -> no heading #$anchor in $resolved"
                    fi
                fi
            done
        grep -o '`crates/[^` ]*\.rs\(:[0-9]*\)\?`' "$doc" | tr -d '`' | sort -u |
            while IFS= read -r anchor; do
                path=${anchor%%:*}
                if ! compgen -G "$path" >/dev/null; then
                    echo "BROKEN ANCHOR in $doc: \`$anchor\` -> no file $path"
                elif [ "$path" != "$anchor" ]; then
                    line=${anchor#*:}
                    if [ -z "$line" ] || [ "$line" -lt 1 ] || [ "$line" -gt "$(wc -l <"$path")" ]; then
                        echo "BROKEN ANCHOR in $doc: \`$anchor\` -> no such line in $path"
                    fi
                fi
            done
        tr '\n' ' ' <"$doc" |
            grep -oE '`[A-Za-z_][A-Za-z0-9_:]*(\(\))?`[ (]*(in )?[ (]*`crates/[^` ]*\.rs(:[0-9]+)?`' |
            while IFS= read -r pair; do
                name=${pair#\`}
                name=${name%%\`*}
                name=${name%()}
                path=${pair##*\`crates/}
                path=crates/${path%\`}
                path=${path%%:*}
                compgen -G "$path" >/dev/null || continue # reported above
                # shellcheck disable=SC2086 # the anchor may be a glob
                grep -qE "\b(fn|struct|enum|trait|type|const|static) ${name##*::}\b" $path ||
                    echo "STALE NAME in $doc: \`$name\` is not defined in $path"
            done
    done
    grep -rnoE '[A-Za-z0-9_./-]+\.md\b' crates --include='*.rs' |
        while IFS=: read -r file line name; do
            [ -e "$name" ] ||
                echo "BROKEN REFERENCE in $file:$line: $name -> no such file (name it by its path from the repo root)"
        done
    fidelity_block() {
        sed -n '/^<!-- fidelity:begin/,/^<!-- fidelity:end -->/p'
    }
    if ! run=$(cargo run --release --offline --quiet -p bench --bin trajectory -- --smoke 2>&1); then
        echo "STALE TABLE in docs/FIDELITY.md: \`trajectory --smoke\` failed: $(echo "$run" | tail -n 5 | tr '\n' ' ')"
    elif ! diff <(echo "$run" | fidelity_block) <(fidelity_block <docs/FIDELITY.md) >/dev/null; then
        echo "STALE TABLE in docs/FIDELITY.md: the fidelity block is not what \`trajectory --smoke\` prints (copy the block from its output)"
    fi
}

errors=$(scan)
if [ -n "$errors" ]; then
    echo "$errors"
    echo "doc link check: FAILED ($(echo "$errors" | wc -l) broken link(s) or anchor(s))"
    exit 1
fi
echo "doc link check: all intra-repo links and source anchors in README.md and docs/*.md resolve, every *.md named in crates/ exists, docs/FIDELITY.md quotes the current fidelity table"
