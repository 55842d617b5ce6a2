"""Benchmark of the roundness library and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_q --seed 1 --seconds 30 --trace 0

Runs one workload (fleet_q, cube_scan or cli_mix) as a closed loop with a
single caller for about --seconds, checks every item against its reference,
and prints each metric with its unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the workload
runs half its time untraced and half with layer spans recorded, and the
metrics are the per-layer ones. A result file with provenance goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 120


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("ROUNDNESS_LOG", None)
    return env


def _timed_child(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def setup_times(workload: str, seed: int, reduced: bool) -> tuple[list[float], int]:
    """Wall time of fresh processes that import, generate the seeded inputs,
    fill the hyperplane-basis cache and finish one warm-up item. The first
    process (which also writes bytecode caches) is not timed. Returns the
    samples and the number of probes that failed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--reduced"] if reduced else [])
    samples, failed = [], 0
    for i in range(SETUP_REPEATS + 1):
        dt, proc = _timed_child(cmd)
        if proc.returncode != 0:
            failed += 1
            print(f"setup probe failed: {proc.stderr.strip()[-500:]}", file=sys.stderr)
        if i:
            samples.append(dt)
    return samples, failed


def import_times() -> list[float]:
    """Seconds for `import roundness.cli` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import roundness.cli; "
            "print(time.perf_counter() - t)")
    return [float(_timed_child([sys.executable, "-c", code])[1].stdout)
            for _ in range(IMPORT_REPEATS)]


# Calibration time on the reference machine (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4, in its fast state). Reported times are raw times scaled
# by CAL_REF_S over the run's mean calibration, which cancels the host's
# speed swings between runs; raw times go to the result file. Pass and item
# times are means, not medians, so that they average over the same mix of
# fast and slow stretches as the calibrations interleaved with them.
CAL_REF_S = 1.6e-3
_CAL = [[float((i * 7 + j * 3) % 11) for j in range(16)] for i in range(16)]


def calibration_s() -> float:
    """Fastest of three runs of a fixed piece of benchmark-owned work (small
    numpy column updates and a Python integer loop, the mix the library runs)."""
    import numpy as np

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        a = np.array(_CAL)
        for p in range(15):
            for q in range(p + 1, 16):
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = 0.8 * cp - 0.6 * cq
                a[:, q] = 0.6 * cp + 0.8 * cq
        acc = 0
        for i in range(20000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_passes(wl, seconds: float, tracer=None, runner=None) -> list[dict]:
    """Run whole passes over the workload's items for about `seconds`: one
    pass at least, then another only while it is expected (at the median
    pass time so far) to end within `seconds`. Each item is timed on its
    own, after an untimed calibration; outcomes are checked after the pass,
    outside the timed region."""
    from workloads import digest

    passes = []
    start = time.perf_counter()
    while True:
        bytes0 = runner.bytes_out if runner else 0
        results = []
        for idx, item in enumerate(wl.items):
            if tracer is not None:
                tracer.item = idx
            cal = calibration_s()
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                outcome, error = item.run(), None
            except Exception as exc:  # counted as a failed item
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            results.append((item, time.perf_counter() - t0, _cpu_s() - cpu0, cal, outcome, error))
        items = []
        for item, latency, cpu, cal, outcome, error in results:
            if error is None:
                try:
                    error = item.check(outcome)
                except (KeyError, TypeError, IndexError) as exc:
                    error = f"malformed outcome: {type(exc).__name__}: {exc}"
            items.append({"name": item.name, "latency_s": latency, "cpu_s": cpu, "cal_s": cal,
                          "failure": error,
                          "digest": digest(outcome) if outcome is not None else None})
        passes.append({
            "wall_s": sum(it["latency_s"] for it in items),
            "cpu_s": sum(it["cpu_s"] for it in items),
            "report_bytes": (runner.bytes_out - bytes0) if runner else 0,
            "items": items,
        })
        expected_end = time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes)
        if expected_end > seconds:
            return passes


def _failures(passes: list[dict]) -> list[str]:
    return [f"{it['name']}: {it['failure']}" for p in passes for it in p["items"] if it["failure"]]


def _blas_info() -> dict:
    import numpy

    info = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        info["blas"] = None
    info["blas_threads"] = {k: os.environ.get(k, "unset") for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(args) -> dict:
    return {
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "reduced": args.reduced,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **_blas_info(),
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _prepare(args, reference: dict, runner):
    """Import the library from src/, generate inputs, fill the cache and
    run the warm-up item. Returns the workload and the warm-up failure."""
    import roundness
    import workloads

    origin = os.path.realpath(os.path.dirname(roundness.__file__))
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: roundness imported from {origin}, not from {SRC}")
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}")
    wl = workloads.build(args.workload, args.seed, workdir, reference, args.reduced, runner)
    wl.prefill()
    warm = wl.items[0]
    try:
        return wl, warm.check(warm.run())
    except Exception as exc:  # counted as a failed item
        return wl, f"{type(exc).__name__}: {exc}"


def measure(args, reference: dict) -> dict:
    """One benchmark run. Returns the result: the final JSON line's fields
    plus details, provenance and, for traced runs, the spans."""
    from workloads import CliRunner

    os.makedirs(OUT, exist_ok=True)
    runner = CliRunner(_child_env())
    setup_failed = 0
    if not args.trace:
        setup_samples, setup_failed = setup_times(args.workload, args.seed, args.reduced)
    wl, warm_failure = _prepare(args, reference, runner)
    setup_failed += warm_failure is not None
    lib_spans = []
    if not args.trace:
        passes = run_passes(wl, args.seconds, runner=runner)
        items = [it for p in passes for it in p["items"]]
        cal = statistics.fmean(it["cal_s"] for it in items)
        item_means = [statistics.fmean(p["items"][i]["latency_s"] for p in passes)
                      for i in range(len(wl.items))]
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli_mix" else resource.RUSAGE_SELF)
        raw = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": statistics.fmean(p["wall_s"] for p in passes),
            "item_p50_ms": 1000 * percentile(item_means, 0.5),
            "item_p90_ms": 1000 * percentile(item_means, 0.9),
            "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
        }
        units = {"setup_s": "s", "pass_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
                 "cpu_s": "s"}
        metrics = {k: (v * CAL_REF_S / cal, units[k]) for k, v in raw.items()}
        metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024, "MB")
        details = {"item_samples": len(items), "calibration_ms_mean": 1000 * cal,
                   "raw": raw, "setup_samples_s": setup_samples,
                   "item_means_s": dict(zip((it.name for it in wl.items), item_means))}
    else:
        from spans import Tracer, per_layer_metrics

        untraced = run_passes(wl, args.seconds / 2, runner=runner)
        tracer = Tracer()
        runner.spans_dir = os.path.join(OUT, f"spans-{os.getpid()}")
        os.makedirs(runner.spans_dir, exist_ok=True)
        tracer.install(callers=[sys.modules["workloads"]])
        try:
            traced = run_passes(wl, args.seconds / 2, tracer=tracer, runner=runner)
        finally:
            tracer.uninstall()
            os.rmdir(runner.spans_dir)
        passes = untraced + traced
        lib_spans = [tracer.spans] + runner.collected
        untraced_s = statistics.median(p["wall_s"] for p in untraced)
        traced_s = statistics.median(p["wall_s"] for p in traced)
        is_cli = args.workload == "cli_mix"
        import_samples = import_times() if is_cli else []
        metrics = per_layer_metrics(
            lib_spans, len(traced), untraced_s, traced_s,
            statistics.median(import_samples) if import_samples else 0.0,
            statistics.median(p["report_bytes"] for p in untraced) if is_cli else 0.0)
        details = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                   "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                   "import_samples_s": import_samples,
                   "spans": sum(len(s) for s in lib_spans)}
    failures = _failures(passes)
    attempted = sum(len(p["items"]) for p in passes) + 1
    failed = len(failures) + min(setup_failed, 1)
    if warm_failure:
        failures.insert(0, f"warm-up {wl.items[0].name}: {warm_failure}")
    elif setup_failed:
        failures.insert(0, "setup probe failed")
    details.update({"passes": len(passes), "items_per_pass": len(wl.items),
                    "fail_frac": failed / attempted, "failures": failures[:20],
                    "pass_samples": passes})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details, "spans": lib_spans}


def _print_summary(args, result: dict) -> None:
    d = result["details"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {d['passes']} x {d['items_per_pass']} items")
    if "item_samples" in d:
        print(f"  item latency samples: {d['item_samples']}; p50 and p90 are taken over "
              f"the {d['items_per_pass']} per-item means")
    raw = d.get("raw", {})
    if raw:
        print(f"  times are scaled to the reference speed; calibration mean "
              f"{d['calibration_ms_mean']:.4f} ms against {1000 * CAL_REF_S:.4f} ms")
    for name, (value, unit) in result["metrics"].items():
        extra = f"   (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:40s} {value:14.6g} {unit}{extra}")
    print(f"  {'fail_frac':40s} {d['fail_frac']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} items)")
    for line in d["failures"]:
        print(f"  FAIL {line}")


def setup_probe(args) -> int:
    from workloads import CliRunner

    _, warm_failure = _prepare(args, load_reference(), CliRunner(_child_env()))
    if warm_failure:
        print(f"warm-up failed: {warm_failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fleet_q", "cube_scan", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="a few small items per workload (harness self-check)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "roundness", "__init__.py")):
        print(f"error: no src/roundness under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)

    result = measure(args, load_reference())
    record = {"provenance": provenance(args), **{k: v for k, v in result.items() if k != "spans"}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(result["spans"], fh, separators=(",", ":"))
    _print_summary(args, result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
