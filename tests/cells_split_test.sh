#!/bin/sh
# Shard union end to end: run a real bench unsharded and as three
# uneven --cells ranges, merge the range documents (given out of
# order), and require the merge to be bit-identical (modulo timing
# keys) to the unsharded run. A tiling with its middle range missing
# must be refused with an error naming the gap.
#
#   cells_split_test.sh <shard_merge> <bench>
set -eu

MERGE=$1
BENCH=$2

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() {
  echo "cells_split_test: $*" >&2
  exit 1
}

# The split runs share one thread count (the merge checks that shards
# agree on timing.threads); the full run's count is free, because
# timing objects are outside the diff.
"$BENCH" --threads=1 --json=FULL.json > /dev/null
"$BENCH" --threads=2 --cells=0..300000 --json=A.json > /dev/null
"$BENCH" --threads=2 --cells=300000..700001 --json=B.json > /dev/null
"$BENCH" --threads=2 --cells=700001..1048576 --json=C.json > /dev/null

"$MERGE" --out=MERGED.json C.json A.json B.json > /dev/null ||
  fail "merging the three ranges failed"
"$MERGE" --diff FULL.json MERGED.json > out.txt ||
  fail "merged ranges differ from the unsharded run: $(cat out.txt)"

status=0
"$MERGE" --out=GAP.json A.json C.json > out.txt 2>&1 || status=$?
[ "$status" -ne 0 ] || fail "a tiling with a missing range was merged"
grep -q 'gap' out.txt && grep -q '300000' out.txt ||
  fail "the refused merge does not name the gap: $(cat out.txt)"
[ ! -e GAP.json ] || fail "a refused merge wrote its --out document"

echo "cells_split_test: three uneven ranges merge bit-identical;" \
  "a missing range is refused naming the gap"
