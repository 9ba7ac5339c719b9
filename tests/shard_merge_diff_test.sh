#!/bin/sh
# shard_merge --diff: the determinism check behind every merge
# test. Documents that differ only inside their "timing" objects match
# (exit 0); a changed row fact or annotation is a mismatch (exit 1)
# that names its path; an unparsable document is an error (exit 1)
# that names its file.
#
#   shard_merge_diff_test.sh <shard_merge>
set -eu

MERGE=$1

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

# doc WALL RATE HASH THREADS [ANNOTATIONS] [TIMING_EXTRA]: one grid
# section with one row.
doc() {
  cat <<JSON
{"bench": "b", "repeat": 1, "shard": "0..1/1",
 "sections": [{"name": "s", "cells": 1$5,
               "rows": [{"index": 0, "steps": 7,
                         "schedule_hash": "$3"}],
               "timing": {"wall_seconds": $1, "runs_per_sec": $2}}],
 "total_cells": 1,
 "timing": {"total_wall_seconds": $1, "runs_per_sec": $2,
            "threads": $4$6}}
JSON
}

doc 0.5 2 00000000deadbeef 2 ', "speedup_count": 3' "" > FULL.json
doc 0.9 1.1 00000000deadbeef 2 ', "speedup_count": 3' \
  ', "cell_seconds_p50": 0.01' > TIMING.json
doc 0.5 2 00000000deadbeef 4 ', "speedup_count": 3' "" > THREADS.json
doc 0.5 2 00000000feedface 2 ', "speedup_count": 3' "" > HASH.json
doc 0.5 2 00000000deadbeef 2 ', "speedup_count": 4' "" > SPEEDUP.json
echo '{"bench": ' > BROKEN.json

fail() {
  echo "shard_merge_diff_test: $*" >&2
  exit 1
}

# 1. Timing objects only: a match.
"$MERGE" --diff FULL.json TIMING.json > out.txt ||
  fail "timing-only difference was reported as a mismatch: $(cat out.txt)"

# 2. Only the thread count, which lives under timing: a match.
"$MERGE" --diff FULL.json THREADS.json > out.txt ||
  fail "timing.threads difference was reported as a mismatch: $(cat out.txt)"

# 3. One row fact: a mismatch naming the path and both values.
status=0
"$MERGE" --diff FULL.json HASH.json > out.txt 2>&1 || status=$?
[ "$status" -eq 1 ] || fail "schedule_hash mismatch exited $status, want 1"
grep -q 'sections\[0\]\.rows\[0\]\.schedule_hash' out.txt ||
  fail "mismatch output does not name the path: $(cat out.txt)"
grep -q '00000000deadbeef' out.txt && grep -q '00000000feedface' out.txt ||
  fail "mismatch output does not render both values: $(cat out.txt)"

# 4. An annotation outside timing is a fact, however it is spelled.
status=0
"$MERGE" --diff FULL.json SPEEDUP.json > out.txt 2>&1 || status=$?
[ "$status" -eq 1 ] || fail "speedup_count mismatch exited $status, want 1"
grep -q 'sections\[0\]\.speedup_count' out.txt ||
  fail "mismatch output does not name the annotation: $(cat out.txt)"

# 5. An unparsable document: an error naming the file.
status=0
"$MERGE" --diff FULL.json BROKEN.json > out.txt 2>&1 || status=$?
[ "$status" -eq 1 ] || fail "unparsable input exited $status, want 1"
grep -q 'BROKEN.json' out.txt ||
  fail "parse error does not name the file: $(cat out.txt)"

echo "shard_merge_diff_test: timing-only, threads-only, mismatches," \
  "and parse error all correct"
