# Two-sided checkouts for the scripts that compare commits (ci/ab.sh,
# ci/trajectory_diff.sh). Source it after setting `parent` and `change`:
# each is a commit, or `.` for the working tree as it stands (tracked and
# untracked files, `.gitignore`d ones left out).
#
# It makes `tmp`, a temporary directory removed on exit, and defines
# `for_each_side CMD...`: for `parent`, then `change`, it exports that
# side into `$tmp/SIDE` (`git archive`, so nothing is registered in the
# repository and nothing is left behind) and runs `CMD... SIDE REV` from
# there with `CARGO_TARGET_DIR=$tmp/SIDE.target`, so the two sides never
# share a build. A failing CMD stops the calling script with its status.

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

export_side() { # rev dir
    mkdir -p "$2"
    if [ "$1" = . ]; then
        git ls-files -z --cached --others --exclude-standard |
            tar --null -T - --ignore-failed-read -cf - 2>/dev/null | tar -x -C "$2"
    else
        git archive "$(git rev-parse --verify "$1^{commit}")" | tar -x -C "$2"
    fi
}

for_each_side() { # cmd...
    local side rev
    for side in parent change; do
        rev=$parent
        [ $side = change ] && rev=$change
        export_side "$rev" "$tmp/$side"
        (cd "$tmp/$side" && export CARGO_TARGET_DIR="$tmp/$side.target" && "$@" "$side" "$rev")
    done
}
