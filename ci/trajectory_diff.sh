#!/usr/bin/env bash
# Key-by-key diff of `trajectory --smoke` between two commits: the check
# behind a "trajectory output unchanged" claim in CHANGES.md.
#
#   ci/trajectory_diff.sh PARENT CHANGE
#   ci/trajectory_diff.sh HEAD .
#   ci/trajectory_diff.sh HEAD~1 HEAD
#
# PARENT and CHANGE are commits, or `.` for the working tree as it stands.
# Each side is exported and built in its own directory (ci/sides.sh) and
# runs `trajectory --smoke OUT.json` from that checkout. A side whose run
# fails its own gate still writes OUT.json; the script says so and
# compares what was written.
#
# It prints every key whose value differs, or that only one side has,
# with both values, then the number of keys compared, and exits 1 when
# any key differs (2 when a side wrote no OUT.json). About a minute for
# both sides on two cores; set TMPDIR to where scratch may go.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 2 ]; then
    echo "usage: ci/trajectory_diff.sh PARENT CHANGE" >&2
    exit 2
fi
parent=$1 change=$2
source ci/sides.sh

smoke() { # side rev
    echo "running trajectory --smoke on $1 ($2)" >&2
    local status=0
    cargo run --release --offline --quiet -p bench --bin trajectory -- --smoke "$tmp/$1.json" \
        >"$tmp/$1.log" 2>&1 || status=$?
    if [ ! -f "$tmp/$1.json" ]; then
        echo "$1 ($2): trajectory wrote no OUT.json (exit $status)" >&2
        tail -n 20 "$tmp/$1.log" >&2
        exit 2
    fi
    if [ $status -ne 0 ]; then
        echo "$1 ($2): trajectory exited $status (its own gate); comparing its keys anyway" >&2
    fi
}
for_each_side smoke

python3 - "$tmp/parent.json" "$tmp/change.json" "$parent" "$change" <<'PY'
import json, sys
parent, change = (json.load(open(p)) for p in sys.argv[1:3])
names = sys.argv[3:5]
differ = 0
for key in sorted(parent.keys() | change.keys()):
    a, b = parent.get(key), change.get(key)
    if a != b:
        differ += 1
        show = lambda v: "absent" if v is None else v
        print(f"  {key}: {names[0]} {show(a)} -> {names[1]} {show(b)}")
keys = len(parent.keys() | change.keys())
print(f"trajectory --smoke {names[0]} -> {names[1]}: {differ} of {keys} keys differ")
sys.exit(1 if differ else 0)
PY
