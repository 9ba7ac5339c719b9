#!/bin/sh
# End-to-end elastic chaos: orchestrate a real bench at N=3 workers,
# SIGKILL one worker mid-run through the chaos transport, and assert
# the merged document is still bit-identical (modulo timing keys) to
# the unsharded run, with the murdered worker's lease resharded.
#
#   elastic_chaos_test.sh <sweep_orchestrator> <bench>
#
# The delay-0 kill races the bench's own (few-ms) runtime, so a kill
# can occasionally miss — the orchestration is retried until a kill
# lands (the merge must be bit-identical on every attempt either way).
set -eu

ORCH=$1
BENCH=$2

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

"$BENCH" --threads=2 --json=FULL.json > /dev/null

attempt=1
while :; do
  "$ORCH" "$BENCH" --workers=3 --ranges=9 \
    --chaos-kill-nth=2 --chaos-kill-delay-ms=0 \
    --out=MERGED.json -- --threads=2

  # Every attempt, killed or not, must merge bit-identical.
  "$ORCH" --diff FULL.json MERGED.json

  # The orchestration report (under "timing", so outside the diff) says
  # whether the kill landed and the victim's lease was resharded.
  if grep -q '"leases_failed": *[1-9]' MERGED.json &&
     grep -q '"leases_resharded": *[1-9]' MERGED.json; then
    echo "elastic_chaos_test: kill landed on attempt $attempt;" \
         "lease resharded and merge stayed bit-identical"
    exit 0
  fi

  if [ "$attempt" -ge 10 ]; then
    echo "elastic_chaos_test: chaos kill never landed in $attempt runs" >&2
    exit 1
  fi
  attempt=$((attempt + 1))
done
