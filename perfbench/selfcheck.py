"""Harness self-check for the roundness benchmark.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload in its reduced form (a few small items, one pass)
through the same code path as run.py, untraced and traced, and checks that

- each run passes its references;
- each run emits exactly the metrics BENCHMARK.json lists for that mode,
  each with its unit and a finite value;
- a corrupted reference makes the run count a failed item.

Exits 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

import run

SPEC = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")


def _corrupt(reference: dict, workload: str) -> dict:
    """A copy of the reference with one value of `workload` made wrong."""
    ref = copy.deepcopy(reference)
    if workload == "fleet_q":
        ref["fleet_q"]["icosahedron"] += 1e-3
    elif workload == "cube_scan":
        ref["cube_scan"]["3:8"]["min_q"] += 1e-3
    else:
        ref["cli_mix"]["expect"]["roundness asymmetric"]["error_type"] = "TriangleViolationError"
    return ref


def _args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=7, seconds=0.0, trace=trace, reduced=True)


def check_all() -> list[str]:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reference = run.load_reference()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run.measure(_args(workload, trace), reference)
            tag = f"{workload} trace={trace}"
            if not result["correct"]:
                problems.append(f"{tag}: failures {result['details']['failures']}")
            units = {name: unit for name, (_, unit) in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(k for k in units.keys() & expected[trace].keys()
                               if units[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, wrong unit {wrong}")
            bad = [name for name, (value, _) in result["metrics"].items()
                   if not isinstance(value, (int, float)) or not math.isfinite(value)]
            if bad:
                problems.append(f"{tag}: non-finite values for {bad}")
            print(f"{tag}: {len(units)} metrics, {result['failed']} of "
                  f"{result['attempted']} items failed")
        result = run.measure(_args(workload, 0), _corrupt(reference, workload))
        if result["failed"] == 0 or result["details"]["fail_frac"] <= 0:
            problems.append(f"{workload}: corrupted reference went undetected")
        print(f"{workload} corrupted reference: {result['failed']} of "
              f"{result['attempted']} items failed")
    return problems


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "roundness", "__init__.py")):
        print(f"error: no src/roundness under {run.ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    problems = check_all()
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
