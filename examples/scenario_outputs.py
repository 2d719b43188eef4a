#!/usr/bin/env python3
"""Structure checks on the files one scenario run wrote.

    python3 examples/scenario_outputs.py RUN_DIR

scenario_check.sh runs this on the first of its two runs, after the
byte comparison, so stable bytes must also be well-formed. Each file
below is checked when the run wrote it:
  - trace.json is a Chrome trace_event document: events of phase X,
    i and M, no phase outside {X, i, M, s, f}, and as many flow
    starts (s) as flow ends (f), at least one;
  - metrics.json is a schema-1 snapshot with at least one instrument;
  - every row of health.jsonl is schema 1 with a strictly rising
    tick, a non-empty metrics object and rates only over metrics.
Exits nonzero on the first failed check.
"""

import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def check_trace(path):
    events = load(path)["traceEvents"]
    assert len(events) > 0, "empty trace"
    phases = {e["ph"] for e in events}
    assert {"X", "i", "M"} <= phases, phases
    assert phases <= {"X", "i", "M", "s", "f"}, phases
    starts = sum(1 for e in events if e["ph"] == "s")
    ends = sum(1 for e in events if e["ph"] == "f")
    assert starts == ends > 0, (starts, ends)
    return f"{len(events)} events, {starts} capsule flows"


def check_metrics(path):
    doc = load(path)
    assert doc["schema"] == 1, doc["schema"]
    assert len(doc["metrics"]) > 0, "no instruments"
    return f"{len(doc['metrics'])} instruments"


def check_time_series(path):
    rows = 0
    last_tick = -1
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            assert row["schema"] == 1, row
            assert row["tick"] > last_tick, row["tick"]
            last_tick = row["tick"]
            assert len(row["metrics"]) > 0, row
            assert set(row["rates"]) <= set(row["metrics"]), row
            rows += 1
    assert rows > 0, "no rows"
    return f"{rows} rows"


CHECKS = {
    "trace.json": check_trace,
    "metrics.json": check_metrics,
    "health.jsonl": check_time_series,
}


def main():
    run_dir = sys.argv[1]
    for name, check in CHECKS.items():
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            continue
        try:
            what = check(path)
        except (AssertionError, KeyError, ValueError) as e:
            sys.exit(f"scenario_outputs: {name}: {e!r}")
        print(f"scenario_outputs: {name} OK ({what})")


if __name__ == "__main__":
    main()
