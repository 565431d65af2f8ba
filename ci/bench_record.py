#!/usr/bin/env python3
"""Checks `tables` records: bench_record.py FILE...

Each FILE must be one JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics` (perfbench's result shape), every
metric `{"value": number, "unit": string}`, and `"correct": true`.
Exits 1 naming the first file that is not.
"""

import json
import sys

KEYS = {"correct", "attempted", "failed", "metrics"}


def check(path):
    with open(path) as f:
        rec = json.load(f)
    if not isinstance(rec, dict) or set(rec) != KEYS:
        keys = sorted(rec) if isinstance(rec, dict) else type(rec).__name__
        return f"keys are {keys}, want {sorted(KEYS)}"
    for name, m in rec["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["unit"], str):
            return f"metric {name} is {m}, want {{value, unit}}"
    if rec["correct"] is not True:
        return (f"not correct: {rec['failed']} of {rec['attempted']} rows failed"
                " or a value is null")
    return None


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        err = check(path)
        if err:
            print(f"{path}: {err}", file=sys.stderr)
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
