#!/usr/bin/env python3
"""Validates a BENCH_serving.json document against the serving schema.

Usage: check_serving_schema.py BENCH_serving.json

Checks that the document and every section carry a "timing" object,
that the closed_loop section is a well-formed grid section (rows match
the cell count) carrying the full admission/SLO annotation set, that
the kSame keys are declared in same_keys so shard merges enforce them,
and that the admission accounting is internally consistent
(accepted + shed == offered, decided_ok <= batch_requests). Fatal on
any mismatch — CI runs this against the smoke run's output.
"""
import json
import sys

SAME_KEYS = [
    "requests_offered", "requests_accepted", "requests_shed",
    "queue_cap", "batch_max", "queue_depth_max", "queue_depth_mean",
    "latency_p50_ticks", "latency_p99_ticks", "latency_p999_ticks",
    "latency_max_ticks", "slo_latency_ticks", "slo_target",
    "slo_violations", "error_budget_burn",
]
SUM_KEYS = ["batch_requests", "decided_ok"]
ROW_KEYS = {"index", "success", "detector_ok", "distinct", "steps",
            "witness_bound", "schedule_hash"}


def fail(message):
    raise SystemExit(f"FAIL {message}")


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    with open(sys.argv[1]) as handle:
        doc = json.load(handle)

    if not isinstance(doc.get("timing"), dict):
        fail("the document has no timing object")
    sections = {s["name"]: s for s in doc.get("sections", [])}
    for name, section in sections.items():
        if not isinstance(section.get("timing"), dict):
            fail(f"section '{name}' has no timing object")
    if "closed_loop" not in sections:
        fail("no closed_loop section in the document")
    closed = sections["closed_loop"]

    rows = closed.get("rows")
    if rows is None:
        fail("closed_loop is not a grid section (no rows array)")
    if len(rows) != closed["cells"]:
        fail(f"cells={closed['cells']} but rows has {len(rows)} entries")
    for row in rows:
        if set(row) != ROW_KEYS:
            fail(f"row keys {sorted(row)} != expected {sorted(ROW_KEYS)}")

    for key in SAME_KEYS + SUM_KEYS:
        if key not in closed:
            fail(f"closed_loop is missing the '{key}' annotation")
    if closed.get("same_keys") != SAME_KEYS:
        fail(f"same_keys {closed.get('same_keys')} != expected "
             f"{SAME_KEYS}")

    offered = closed["requests_offered"]
    accepted = closed["requests_accepted"]
    shed = closed["requests_shed"]
    if accepted + shed != offered:
        fail(f"accepted({accepted}) + shed({shed}) != offered({offered})")
    if closed["decided_ok"] > closed["batch_requests"]:
        fail(f"decided_ok({closed['decided_ok']}) exceeds "
             f"batch_requests({closed['batch_requests']})")
    if closed["queue_depth_max"] > closed["queue_cap"]:
        fail(f"queue_depth_max({closed['queue_depth_max']}) exceeds "
             f"queue_cap({closed['queue_cap']})")
    if closed["error_budget_burn"] < 0:
        fail("negative error_budget_burn")

    print(f"serving schema OK: {len(rows)} batch rows, "
          f"offered={offered} accepted={accepted} shed={shed}, "
          f"decided_ok={closed['decided_ok']}")


if __name__ == "__main__":
    main()
