"""Import footprint: each job loads only the scipy and PyYAML it uses.

Importing bevtrack and every submodule loads no scipy module, and neither
do simulating, the log writers and readers, evaluating or the default
config, nor the ``simulate``, ``evaluate`` and ``init-config`` commands.
The first assignment with an admissible pair loads the root ``scipy``
package and the assignment kernel's extension, but no ``scipy.optimize``,
``scipy.sparse``, ``scipy.linalg`` or ``scipy.special`` module;
``scipy.ndimage`` loads at the first ``refine_features`` call,
``scipy.sparse`` at the first fusion, and PyYAML at the first config or
scenario file. Each job runs in a fresh interpreter, so no earlier test's
imports count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the JSON of `out`; loaded() names the scipy modules (by their
# first two name parts) and PyYAML as far as loaded.
PRELUDE = r"""
import importlib, json, pkgutil, sys
import numpy as np
import bevtrack

names = [m.name for m in pkgutil.iter_modules(bevtrack.__path__)]
for name in names:
    importlib.import_module("bevtrack." + name)


def loaded():
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m == "scipy" or m.startswith("scipy.") or m == "yaml"})


out = {"modules": names, "imported": loaded()}
"""

NO_SCIPY_JOBS = PRELUDE + r"""
from pathlib import Path
from bevtrack import cli, io, metrics, simulator
from bevtrack.io import AppConfig, load_config

work = Path(sys.argv[1])
gt, dets = simulator.generate(simulator.ScenarioConfig(num_frames=3))
io.write_ground_truth(work / "gt.jsonl", gt)
io.write_detections(work / "dets.jsonl", dets)
io.write_track_records(work / "tracks.jsonl", (
    {"frame_id": f.frame_id, "track_id": gid + 1, "box": box, "score": 1.0,
     "scale_level": 0} for f in gt for gid, box, _ in f.objects))
gt_back = io.read_ground_truth(work / "gt.jsonl")
dets_back = io.read_detections(work / "dets.jsonl")
report = metrics.evaluate(gt_back, io.read_tracks(work / "tracks.jsonl"))
out["amota"] = report.amota
out["frames"] = [len(gt_back), len(dets_back)]
out["default"] = load_config(None) == AppConfig()
out["library"] = loaded()
out["codes"] = [
    cli.main(["simulate", "--suite", "basic", "--noiseless",
              "--out", str(work / "sim")]),
    cli.main(["evaluate", "--gt", str(work / "sim" / "gt.jsonl"),
              "--tracks", str(work / "tracks.jsonl")]),
    cli.main(["init-config", "--out", str(work / "cfg.yaml")])]
out["commands"] = loaded()
print(json.dumps(out))
"""

TRACKING = PRELUDE + r"""
from bevtrack import simulator
from bevtrack.tracker import Tracker

_, dets = simulator.generate(simulator.ScenarioConfig(num_frames=2))
trk = Tracker()
trk.step(dets[0], 0.1)
out["born"] = loaded()
out["matches"] = len(trk.step(dets[1], 0.1))
out["matched"] = loaded()
print(json.dumps(out))
"""

REFINING = PRELUDE + r"""
from bevtrack import refiner as ref
from bevtrack.association import CostMatrix, solve_assignment
from bevtrack.io import AppConfig, load_config

rng = np.random.default_rng(0)
grid = ref.FeatureGrid(rng.normal(size=(8, 8, 2)))
maps = ref.InjectedMaps.from_seed(1, 6, 5)
prior = ref.ObjectPrior(rng.normal(size=6), (3.5, 4.0), (2.0, 2.0))
refined, levels, _ = ref.refine_grid(grid, [prior], maps)
out["refined_loads"] = loaded()
fused = ref.temporal_fuse(refined, grid,
                          ref.DeformableFusionParams.from_seed(2, 2))
out["fused_loads"] = loaded()
out["refined"] = bool(np.isfinite(fused.data).all())
out["default"] = load_config(None) == AppConfig()
watched = ("scipy.optimize", "yaml")
out["before"] = [m for m in watched if m in sys.modules]
cost = CostMatrix([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                  [[True, True], [True, True], [False, False]])
out["pairs"] = solve_assignment(cost)
out["max_age"] = load_config(sys.argv[1]).tracker.max_age
out["after"] = [m for m in watched if m in sys.modules]
print(json.dumps(out))
"""

KERNEL = PRELUDE + r"""
from bevtrack import association
from bevtrack.association import CostMatrix, solve_assignment

out["pairs"] = solve_assignment(CostMatrix([[0.0, 1.0], [1.0, 0.0]],
                                           [[True, True], [True, True]]))
out["matched"] = loaded()
kernel = association._linear_sum_assignment
import scipy.optimize
out["same"] = kernel is scipy.optimize.linear_sum_assignment
out["lsap"] = scipy.optimize._lsap.linear_sum_assignment is kernel
print(json.dumps(out))
"""


def _run(script: str, arg) -> dict:
    """Run script in a fresh interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", script, str(arg)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert {"association", "cli", "io", "refiner"} <= set(out["modules"])
    assert out["imported"] == []
    return out


def test_simulating_and_evaluating_load_no_scipy(tmp_path):
    out = _run(NO_SCIPY_JOBS, tmp_path)
    assert out["amota"] == 1.0 and out["frames"] == [3, 3]
    assert out["default"]
    assert out["library"] == []
    assert out["codes"] == [0, 0, 0]
    assert out["commands"] == []


def test_tracking_loads_the_solver_but_not_ndimage(tmp_path):
    out = _run(TRACKING, tmp_path)
    assert out["born"] == []
    assert out["matches"] == 4
    assert not set(out["matched"]) & {"scipy.optimize", "scipy.sparse",
                                      "scipy.linalg", "scipy.special"}
    assert "scipy.ndimage" not in out["matched"]
    assert "yaml" not in out["matched"]


def test_refining_loads_neither_solver_nor_yaml(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tracker:\n  max_age: 7\n")
    out = _run(REFINING, cfg)
    # refine_features loads ndimage, the fusion's tap operator sparse
    assert "scipy.ndimage" in out["refined_loads"]
    assert "scipy.sparse" not in out["refined_loads"]
    assert {"scipy.ndimage", "scipy.sparse"} <= set(out["fused_loads"])
    assert out["refined"] and out["default"]
    assert out["before"] == []
    assert out["pairs"] == [[0, 1], [1, 0]]
    assert out["max_age"] == 7
    assert out["after"] == ["yaml"]


def test_kernel_is_the_function_scipy_optimize_gives(tmp_path):
    """The kernel loaded from its file is the function a later ``import
    scipy.optimize`` gives, and that import still finds its ``_lsap``
    submodule: the loader leaves no stale ``sys.modules`` entry."""
    out = _run(KERNEL, tmp_path)
    assert out["pairs"] == [[0, 0], [1, 1]]
    assert "scipy.optimize" not in out["matched"]
    assert out["same"] and out["lsap"]
