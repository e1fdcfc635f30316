"""Tier-1 guard against benchmark drift.

Runs one pass of the ``scene200``, ``scene200-iou``, ``suites`` and
``refine-bev`` benchmark workloads at the pinned seed through
``perfbench/workloads.py`` of this checkout and checks it with the
workload's own ``check_pass`` against the committed
``perfbench/reference.npz``: for the tracking workloads exact match lists
and track ids, boxes within 1e-9, equal AMOTA and IDS; for ``refine-bev``
equal per-object levels, and the sums and fixed samples of the refined and
fused grids within 1e-9 relative. ``suites`` runs all six standard suites
at four seeds, so its AMOTA and IDS check the evaluation end to end. A
change that moves the tracker's, the refiner's or the evaluation's outputs
fails here instead of only in a benchmark run.

``test_tracer_sees_every_bound_name`` runs one pass of ``scene200`` and of
``refine-bev`` under the span tracer of ``perfbench/tracing.py``, which
CI otherwise runs only with ``--trace 1``. The tracer wraps module
attributes by name, so a deleted name fails its install, and a call that
stops going through the wrapped global (the tracker's association
functions, ``motion.*``, ``metrics.match_frame`` under ``evaluate``, the
refiner functions) drops its span.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bevtrack
# perfbench reaches every module through the package
from bevtrack import (io, metrics, motion, refiner,  # noqa: F401
                      simulator, tracker)

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scene200", "scene200-iou", "refine-bev",
                                  "suites"])
def test_pass_matches_reference(name, tmp_path):
    workloads = _load_bench("workloads")
    wl = workloads.WORKLOADS[name]
    scenarios = wl.setup(bevtrack, workloads.DEFAULT_SEED, tmp_path)
    res = wl.run_pass(bevtrack, scenarios)
    with np.load(BENCH_DIR / "reference.npz") as store:
        ref = wl.load_reference(store)
    assert ref, f"no reference entries for {name}"
    assert res.frames > 0
    assert wl.check_pass(res, ref, None) == set()


# (parent span, span) pairs that each workload's pass must record; None is
# a span with no traced parent
_BOUND_SPANS = {
    "scene200": {
        ("tracker.step", "association.build_similarity_matrix"),
        ("tracker.step", "association.solve_assignment.stage1"),
        ("tracker.step", "association.solve_assignment.stage2"),
        ("tracker.step", "geometry.buffered_iou_matrix"),
        ("tracker.step", "motion.init_state"),
        ("tracker.step", "motion.predict"),
        ("tracker.step", "motion.update"),
        (None, "motion.state_to_box"),
        ("metrics.evaluate", "metrics.match_frame"),
    },
    "refine-bev": {
        (None, "refiner.backward_refine"),
        ("refiner.backward_refine", "refiner.assign_scale_level"),
        ("refiner.backward_refine", "refiner.peak_amplitude"),
        ("refiner.backward_refine", "refiner.refine_features"),
        (None, "refiner.temporal_fuse"),
    },
}


@pytest.mark.parametrize("name", sorted(_BOUND_SPANS))
def test_tracer_sees_every_bound_name(name, tmp_path):
    workloads, tracing = _load_bench("workloads"), _load_bench("tracing")
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(bevtrack, workloads.DEFAULT_SEED, tmp_path)
    tracer = tracing.Tracer()
    tracer.begin("pass0")
    tracer.install(bevtrack)
    patches = list(tracer._patches)
    try:
        wl.run_pass(bevtrack, inputs)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patches)
    names = {s[tracing.SPAN_ID]: s[tracing.NAME] for s in tracer.spans}
    seen = {(names.get(s[tracing.PARENT]), s[tracing.NAME])
            for s in tracer.spans}
    assert _BOUND_SPANS[name] <= seen
    assert tracing.check_self_time(tracer.spans) == []
