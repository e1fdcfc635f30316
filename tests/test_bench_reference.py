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


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scene200", "scene200-iou", "refine-bev",
                                  "suites"])
def test_pass_matches_reference(name, tmp_path):
    workloads = _load_workloads()
    wl = workloads.WORKLOADS[name]
    scenarios = wl.setup(bevtrack, workloads.DEFAULT_SEED, tmp_path)
    res = wl.run_pass(bevtrack, scenarios)
    with np.load(BENCH_DIR / "reference.npz") as store:
        ref = wl.load_reference(store)
    assert ref, f"no reference entries for {name}"
    assert res.frames > 0
    assert wl.check_pass(res, ref, None) == set()
