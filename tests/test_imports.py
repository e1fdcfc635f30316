"""Import footprint: scipy.optimize and PyYAML load only in the jobs that
use them (an assignment, a config or scenario file)."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import importlib, json, pkgutil, sys
import numpy as np
import bevtrack

names = [m.name for m in pkgutil.iter_modules(bevtrack.__path__)]
for name in names:
    importlib.import_module("bevtrack." + name)
from bevtrack import refiner as ref
from bevtrack.association import CostMatrix, solve_assignment
from bevtrack.io import AppConfig, load_config

rng = np.random.default_rng(0)
grid = ref.FeatureGrid(rng.normal(size=(8, 8, 2)))
maps = ref.InjectedMaps.from_seed(1, 6, 5)
prior = ref.ObjectPrior(rng.normal(size=6), (3.5, 4.0), (2.0, 2.0))
refined, levels, _ = ref.refine_grid(grid, [prior], maps)
fused = ref.temporal_fuse(refined, grid,
                          ref.DeformableFusionParams.from_seed(2, 2))
out = {"modules": names, "refined": bool(np.isfinite(fused.data).all()),
       "default": load_config(None) == AppConfig()}
watched = ("scipy.optimize", "yaml")
out["before"] = [m for m in watched if m in sys.modules]
cost = CostMatrix([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                  [[True, True], [True, True], [False, False]])
out["pairs"] = solve_assignment(cost)
out["max_age"] = load_config(sys.argv[1]).tracker.max_age
out["after"] = [m for m in watched if m in sys.modules]
print(json.dumps(out))
"""


def test_refining_loads_neither_solver_nor_yaml(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tracker:\n  max_age: 7\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(cfg)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert {"association", "cli", "io", "refiner"} <= set(out["modules"])
    assert out["refined"] and out["default"]
    assert out["before"] == []
    assert out["pairs"] == [[0, 1], [1, 0]]
    assert out["max_age"] == 7
    assert out["after"] == ["scipy.optimize", "yaml"]
