# Which source files are test code as a whole, for ci/census.sh and
# ci/unread.sh. Source it from the repository root.
#
# A file is test-only when its parent module declares it under
# `#[cfg(test)]`, on the line before `mod NAME;`: the file is then
# compiled into test builds only, whatever it is called. The child of
# `lib.rs`, `main.rs` or `mod.rs` sits beside its parent; the child of
# `x.rs` sits in `x/`. Either is `NAME.rs` or `NAME/mod.rs`.

# Every test-only file under crates/*/src, one path a line.
test_only_files() {
    local f
    find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { prev = "" }
        prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ &&
            /^[[:space:]]*(pub(\(crate\))? )?mod [a-z_0-9]+;/ {
            name = $0; sub(/.*mod /, "", name); sub(/;.*/, "", name)
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
            stem = FILENAME; sub(/.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
            print dir "/" name ".rs"
            print dir "/" name "/mod.rs"
        }
        { prev = $0 }' | while read -r f; do
        [ -f "$f" ] && echo "$f"
    done
    return 0
}

# The .rs files under each DIR that are not test-only, one path a line.
non_test_sources() { # dir...
    find "$@" -name '*.rs' | sed 's#//*#/#g' |
        grep -vxF -f <(test_only_files; echo /) || true
}
