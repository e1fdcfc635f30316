#!/usr/bin/env python3
"""Seeded pipeline benchmark for bevtrack.

Run from the repository root:

    python3 perfbench/run.py --workload scene200 [--seed 0] [--seconds 35]
                             [--trace 0|1]

Builds the workload's inputs from --seed, then repeats the timed job for
--seconds (at least one pass) in this one process, closed loop: each frame
is stepped after the previous step returns. Every pass is checked outside
the timed region: at the pinned seed against perfbench/reference.npz,
at any other seed against invariants and the run's first pass; once per
run the loop is also compared with ``run_sequence`` and the written track
log is read back. With --trace 1 the run alternates untraced and traced
passes and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object: correct, attempted (frames),
failed (frames), metrics. The exit code is 0 only when every check
passed. ``--write-reference`` rewrites the workload's reference entries
from one pass at the pinned seed.
"""

import os
import sys
import time

# one BLAS/OpenMP thread, set before numpy is imported, for this process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (imports no numpy)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
REFERENCE = BENCH_DIR / "reference.npz"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "frame_ms_p50": "ms", "frame_ms_p90": "ms", "pipeline_fps": "frames/s",
    "setup_s": "s", "peak_rss_mb": "MB", "amota": "-", "id_switches": "count",
    "error_ratio": "-",
}
# the end-to-end metrics the final JSON line carries (the ones
# BENCHMARK.json bounds). frame_ms_p50 and pipeline_fps follow the share
# of time the shared host runs slow, which moved them by up to a quarter
# between runs; amota and id_switches exist only on tracking workloads;
# error_ratio is failed / attempted of the same line
REPORTED = ("frame_ms_p90", "setup_s", "peak_rss_mb")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True,
                   choices=["scene200", "scene200-iou", "suites", "refine-bev"])
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the pinned seed)")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def _import_program():
    """Import bevtrack from this checkout's src/, never from elsewhere.
    Returns (package, seconds spent importing)."""
    if not (SRC / "bevtrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no bevtrack sources under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bevtrack
    from bevtrack import (association, geometry, io, metrics, motion,  # noqa: F401
                          refiner, simulator, tracker)
    elapsed = time.perf_counter() - t0
    if Path(bevtrack.__file__).resolve().parent != (SRC / "bevtrack").resolve():
        raise SystemExit(f"error: bevtrack imported from {bevtrack.__file__}, "
                         f"not from {SRC}")
    return bevtrack, elapsed


def _environment(bt) -> dict:
    import platform

    import numpy
    import scipy
    return {
        "iou_backend": bt.geometry.iou_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _setup(wl, bt, seed, tracer):
    """SETUP_REPEATS set-ups; returns (inputs of the last, median seconds,
    per-set-up simulator.generate ms when traced)."""
    times, generate_ms, inputs = [], [], None
    for k in range(SETUP_REPEATS):
        inputs = None  # release the previous set-up before building the next
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.begin(f"setup{k}")
            tracer.install(bt)
        t0 = time.perf_counter()
        try:
            inputs = wl.setup(bt, seed, OUT_DIR)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            generate_ms.append(sum(
                1e3 * (s[5] - s[4]) for s in tracer.spans[first_span:]
                if s[3] == "simulator.generate"))
    return inputs, statistics.median(times), generate_ms


def _measure(wl, bt, inputs, seconds, ref, tracer):
    """Repeat passes for about `seconds`; check each pass after it ends.
    Traced runs alternate untraced (U) and traced (T) passes: U, T, T,
    then U, T while time remains."""
    start = time.perf_counter()
    plan = ["U", "T", "T"] if tracer is not None else ["U"]
    passes, first, bad, attempted = [], None, set(), 0
    layer_values, traced_s, untraced_s = [], [], []
    while True:
        mode = plan.pop(0) if plan else ("U" if tracer is None or
                                         len(passes) % 2 == 1 else "T")
        if mode == "T":
            first_span = len(tracer.spans)
            counts = tracer.begin(f"pass{len(passes)}")
            tracer.install(bt)
            try:
                res = wl.run_pass(bt, inputs)
            finally:
                tracer.uninstall()
            layer_values.append(
                tracing.pass_metrics(tracer.spans[first_span:], counts))
            traced_s.append(res.seconds)
        else:
            res = wl.run_pass(bt, inputs)
            untraced_s.append(res.seconds)
        bad |= {(len(passes), key) for key in wl.check_pass(res, ref, first)}
        attempted += res.frames
        passes.append(res)
        if first is None:
            first = res
        else:  # only the first pass's outputs are kept for the run checks
            res.matches = res.outputs = res.flat = None
        elapsed = time.perf_counter() - start
        if not plan and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    return passes, bad, attempted, layer_values, traced_s, untraced_s


def _percentile(samples, q):
    """Nearest-rank q-quantile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _write_reference(wl, bt, seed):
    import numpy as np
    inputs, _, _ = _setup(wl, bt, seed, None)
    res = wl.run_pass(bt, inputs)
    bad, problems = wl.check_run(bt, inputs, res)
    if res.raised or bad or problems:
        raise SystemExit("error: reference pass failed its own checks")
    entries = {}
    if REFERENCE.exists():
        with np.load(REFERENCE) as store:
            entries = {k: store[k] for k in store.files
                       if not k.startswith(wl.name + ":")}
    entries.update(wl.reference_entries(res))
    np.savez_compressed(REFERENCE, **entries)
    print(f"wrote {wl.name} reference to {REFERENCE.relative_to(ROOT)}: "
          f"{json.dumps(wl.quality(res))}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    bt, import_s = _import_program()
    # workloads imports numpy, so it comes after the timed program import
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    if args.write_reference:
        if seed != workloads.DEFAULT_SEED:
            raise SystemExit("error: the reference is kept for the pinned seed only")
        _write_reference(wl, bt, seed)
        return 0

    ref = None
    if seed == workloads.DEFAULT_SEED:
        with np.load(REFERENCE) as store:
            ref = wl.load_reference(store)
        if not ref:
            raise SystemExit(f"error: no reference for {wl.name} in {REFERENCE}")

    env = _environment(bt)
    print(f"workload {wl.name}  seed {seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    tracer = tracing.Tracer() if args.trace else None
    inputs, setup_med, generate_ms = _setup(wl, bt, seed, tracer)
    passes, bad, attempted, layer_values, traced_s, untraced_s = _measure(
        wl, bt, inputs, args.seconds, ref, tracer)
    run_bad, problems = wl.check_run(bt, inputs, passes[0])
    bad |= {(0, key) for key in run_bad}
    if bad:
        problems.insert(0, f"failed frames: {len(bad)} of {attempted}")

    frame_s = [s for p in passes for s in p.frame_s]
    p50, _ = _percentile(frame_s, 0.5)
    p90, above = _percentile(frame_s, 0.9)
    quality = wl.quality(passes[0])
    e2e = {
        "frame_ms_p50": 1e3 * p50,
        "frame_ms_p90": 1e3 * p90,
        "pipeline_fps": sum(p.frames for p in passes)
        / sum(p.seconds for p in passes),
        "setup_s": import_s + setup_med,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "amota": quality.get("amota"),
        "id_switches": quality.get("id_switches"),
        "error_ratio": len(bad) / attempted,
    }

    if args.trace:
        problems += tracing.check_self_time(tracer.spans)
        mismatched = tracing.count_mismatches(layer_values)
        if mismatched:
            problems.append("counts differ between traced passes: "
                            + ", ".join(mismatched))
        overhead = statistics.median(traced_s) / statistics.median(untraced_s)
        layers = tracing.layer_report(layer_values, generate_ms, overhead)
        tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
        metrics = {n: {"value": v, "unit": tracing.LAYER_METRICS[n]}
                   for n, v in layers.items()}
        print(f"per-layer metrics over {len(layer_values)} traced passes "
              f"(times: median ms per pass; counts: per pass):")
        for name, m in metrics.items():
            print(f"  {name:45s} {m['value']:16.6g} {m['unit']}")
    else:
        metrics = {n: {"value": e2e[n], "unit": END_TO_END_UNITS[n]}
                   for n in REPORTED}
        print(f"end-to-end metrics over {len(passes)} passes, "
              f"{len(frame_s)} frame samples ({above} above p90):")
        for name, unit in END_TO_END_UNITS.items():
            value = e2e[name]
            shown = "n/a (no tracking)" if value is None else f"{value:.6g}"
            print(f"  {name:14s} {shown:>18s} {unit}")
        for sname, amota in quality.get("amota_per_scenario", {}).items():
            print(f"  amota[{sname}] {amota:.6f}")

    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": len(bad),
              "metrics": metrics}
    with open(OUT_DIR / f"result-{wl.name}-seed{seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({**result, "environment": env, "end_to_end": e2e,
                   "frame_samples": len(frame_s), "samples_above_p90": above,
                   "problems": problems}, fh, indent=2)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
