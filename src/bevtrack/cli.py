"""Command-line surface: simulate, track, evaluate, refine-demo, ablate.

Exit codes: 0 success, 1 data error, 2 usage error. The commands raise;
``main`` alone turns an error into its exit code and one ``error:`` line:
a ``UsageError`` gives 2, an ``InputError`` (``DataError``,
``ConfigError``, a frame the tracker refuses, ground truth and tracks
that do not fit) or an ``OSError`` gives 1. Every ``OSError`` a command
raises comes from opening, creating or replacing a path the user named,
or a file under an ``--out`` directory, and its message names that path.
Any other exception is a fault of the program and ends in its traceback.

Every file a command writes goes through ``io.write_file``, so a regular
file is written whole or not at all.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import io as bio
from . import metrics as bmetrics
from . import refiner as bref
from . import simulator as bsim
from . import tracker as btrack
from .geometry import InputError

USAGE_ERROR = 2
DATA_ERROR = 1


class UsageError(Exception):
    """A bad command line that argparse lets through; exit 2."""


def _non_negative(flag: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")


def _load_scenario(args) -> bsim.ScenarioConfig:
    _non_negative("--seed", args.seed)
    if args.suite:
        suites = bsim.standard_suites()
        if args.suite not in suites:
            names = ", ".join(sorted(suites))
            raise UsageError(f"unknown suite {args.suite!r}; valid suites: "
                             f"{names}")
        cfg = suites[args.suite]
    else:
        cfg = bio.load_scenario(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.noiseless:
        cfg = cfg.noiseless()
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gt_frames, det_frames = bsim.generate(cfg)
    bio.write_ground_truth(out / "gt.jsonl", gt_frames)
    bio.write_detections(out / "dets.jsonl", det_frames)
    n_dets = sum(len(d) for d in det_frames)
    print(f"seed={cfg.seed} frames={len(gt_frames)} objects={cfg.num_objects} "
          f"detections={n_dets}")
    print(f"wrote {out / 'gt.jsonl'} and {out / 'dets.jsonl'}")
    return 0


def cmd_track(args) -> int:
    _non_negative("--max-age", args.max_age)
    app = bio.load_config(args.config)
    trk = app.tracker  # a --no-* flag turns its switch off
    cfg = replace(
        trk, use_multi_clue=trk.use_multi_clue and not args.no_multi_clue,
        use_buffer=trk.use_buffer and not args.no_buffer,
        use_cascade=trk.use_cascade and not args.no_cascade)
    if args.max_age is not None:
        cfg = replace(cfg, max_age=args.max_age)
    frames = bio.iter_detection_frames(args.dets, app.scale_breakpoints,
                                       cfg.num_levels)
    records = ({"frame_id": frame_id, "track_id": tid, "box": box,
                "score": score, "scale_level": level}
               for frame_id, _m, _i, outs in btrack.track_stream(
                   frames, cfg, app.motion)
               for tid, box, score, level in outs)
    bio.write_track_records(args.out, records)
    print(f"wrote {args.out}")
    return 0


def _write_or_run(path, chunks) -> None:
    """Write the chunks to path by ``io.write_file``, which opens its
    target before it pulls the first chunk, so a bad path fails before the
    work that makes them; without a path, run that work alone."""
    if path:
        bio.write_file(path, chunks)
        print(f"wrote {path}")
    else:
        for _ in chunks:
            pass


def cmd_evaluate(args) -> int:
    app = bio.load_config(args.config)

    def report():
        gt_frames = bio.read_ground_truth(args.gt)
        tracks = bio.read_tracks(args.tracks)
        report = bmetrics.evaluate(gt_frames, tracks, app.eval)
        print(bmetrics.format_report(report))
        yield bio.json_bytes(asdict(report))

    _write_or_run(args.report, report())
    return 0


def _parse_grid_spec(spec: str) -> tuple[int, int, int]:
    parts = spec.lower().split("x")
    if len(parts) != 3:
        raise UsageError(f"grid spec must be HxWxC, got {spec!r}")
    try:
        h, w, c = (int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if min(h, w, c) < 1:
        raise UsageError(f"grid dimensions must be >= 1, got {spec!r}")
    return h, w, c


def _object_prior(path, line_no: int, rec: dict, rng,
                  grid: tuple[int, int, int]) -> bref.ObjectPrior:
    """One --objects record as an ObjectPrior on an H x W x C grid; a
    record without e_cat takes one from rng. DataError names path:line."""
    h, w, c = grid
    center, e_cat = bio._require(rec, "center", path, line_no), rec.get("e_cat")
    if e_cat is not None:
        bio._numbers(rec, "e_cat", path, line_no)  # JSON numbers only
    try:
        prior = bref.ObjectPrior(
            e_cat=rng.normal(size=3 * c) if e_cat is None else e_cat,
            center_cell=center, footprint=rec.get("footprint", (1.0, 1.0)))
    except (TypeError, ValueError) as exc:
        raise bio.DataError(path, line_no, str(exc)) from exc
    (r, col), size = prior.center_cell, prior.e_cat.size
    if size != 3 * c:
        raise bio.DataError(path, line_no, f"e_cat has {size} entries, "
                            f"the {h}x{w}x{c} grid needs {3 * c}")
    if not (0 <= r <= h - 1 and 0 <= col <= w - 1):
        raise bio.DataError(path, line_no, f"center {[r, col]} outside "
                            f"the {h}x{w} grid")
    return prior


def cmd_refine_demo(args) -> int:
    h, w, c = _parse_grid_spec(args.grid)
    _non_negative("--num-objects", args.num_objects)
    _non_negative("--seed", args.seed)
    app = bio.load_config(args.config)
    grid_cfg = getattr(app.refiner, args.kind)
    rng = np.random.default_rng(args.seed)
    grid = bref.FeatureGrid(rng.normal(size=(h, w, c)), kind=args.kind)
    maps = bref.InjectedMaps.from_seed(args.seed, 3 * c, grid_cfg.num_levels,
                                       grid_cfg.scope_radii,
                                       grid_cfg.kernel_sizes)

    priors: list[bref.ObjectPrior] = []
    if args.objects:
        for line_no, rec in bio._records(args.objects):
            priors.append(_object_prior(args.objects, line_no, rec, rng,
                                        (h, w, c)))
    else:
        for _ in range(args.num_objects):
            priors.append(bref.ObjectPrior(
                e_cat=rng.normal(size=3 * c),
                center_cell=(rng.uniform(0, h - 1), rng.uniform(0, w - 1)),
                footprint=(rng.uniform(1, 4), rng.uniform(1, 4))))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    refined, levels, masks = bref.refine_grid(grid, priors, maps)

    bio.write_array(out / "input_grid.npy", grid.data)
    bio.write_array(out / "refined_grid.npy", refined.data)
    for mask in masks:
        bio.write_array(out / f"mask_level_{mask.level}.npy", mask.data)

    in_scope = np.zeros((h, w), dtype=bool)
    summary = {"grid": [h, w, c], "kind": args.kind, "seed": args.seed,
               "levels": levels, "per_level": []}
    for mask in masks:
        support = mask.data > 0
        in_scope |= support
        summary["per_level"].append({
            "level": mask.level,
            "scope_fraction": float(support.mean()),
            "max_value": float(mask.data.max()),
            "objects": int(sum(1 for lv in levels if lv == mask.level)),
        })
    outside = ~in_scope
    if outside.any():
        orig_mag = float(np.abs(grid.data[outside]).mean())
        ref_mag = float(np.abs(refined.data[outside]).mean())
        summary["outside_scope"] = {
            "mean_abs_original": orig_mag,
            "mean_abs_refined": ref_mag,
            "suppression_ratio": ref_mag / orig_mag if orig_mag > 0 else None,
        }
    else:
        summary["outside_scope"] = None
    bio.write_file(out / "summary.json", [bio.json_bytes(summary)])
    print(f"wrote masks, grids and summary to {out}")
    return 0


_ABLATION_ROWS = [(mc, buff, casc)
                  for mc in (False, True)
                  for buff in (False, True)
                  for casc in (False, True)]


def run_ablation(suite_names, app: bio.AppConfig, max_age: int) -> list[dict]:
    """The 2^3 component grid over the named suites; returns one row per
    (multi-clue, buffer, cascade) combination with per-suite AMOTA."""
    suites = bsim.standard_suites()
    data = {}
    for name in suite_names:
        gt_frames, det_frames = bsim.generate(suites[name])
        data[name] = (gt_frames, det_frames)
    rows = []
    for mc, buff, casc in _ABLATION_ROWS:
        cfg = replace(app.tracker, use_multi_clue=mc, use_buffer=buff,
                      use_cascade=casc, max_age=max_age)
        row = {"multi_clue": mc, "buffer": buff, "cascade": casc,
               "per_suite": {}}
        for name, (gt_frames, det_frames) in data.items():
            outputs, _ = btrack.run_sequence(det_frames, cfg, app.motion,
                                             default_dt=suites[name].frame_dt)
            report = bmetrics.evaluate(gt_frames, outputs, app.eval)
            row["per_suite"][name] = {
                "amota": report.amota, "amotp": report.amotp,
                "mota": report.mota, "ids": report.ids,
            }
        row["mean_amota"] = float(np.mean(
            [row["per_suite"][n]["amota"] for n in suite_names]))
        rows.append(row)
    return rows


def cmd_ablate(args) -> int:
    suites = bsim.standard_suites()
    names = (args.suites.split(",") if args.suites
             else list(bsim.ADVERSARIAL_SUITES))
    unknown = [n for n in names if n not in suites]
    if unknown:
        raise UsageError(f"unknown suites {unknown}; valid: {sorted(suites)}")
    _non_negative("--max-age", args.max_age)
    app = bio.load_config(args.config)

    def _flag(v):
        return " on" if v else "off"

    def table():
        rows = run_ablation(names, app, args.max_age)
        header = f"{'MC':>4} {'Buff':>4} {'Casc':>4} | " + " ".join(
            f"{n[:12]:>12}" for n in names) + f" | {'mean':>8}"
        print(header)
        print("-" * len(header))
        for row in rows:
            cells = " ".join(f"{row['per_suite'][n]['amota']:12.4f}"
                             for n in names)
            print(f"{_flag(row['multi_clue']):>4} {_flag(row['buffer']):>4} "
                  f"{_flag(row['cascade']):>4} | {cells} | "
                  f"{row['mean_amota']:8.4f}")
        yield bio.json_bytes(rows)

    _write_or_run(args.out, table())
    return 0


def cmd_init_config(args) -> int:
    bio.write_default_config(args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevtrack",
        description="BEV 3D multi-object tracking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", help="named standard suite")
    src.add_argument("--scenario", help="scenario config YAML")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--noiseless", action="store_true",
                   help="zero all observation noise/FP/FN")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run the tracker over a detection log")
    p.add_argument("--dets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="run config YAML")
    p.add_argument("--max-age", type=int, default=None,
                   help="override tracker max_age")
    p.add_argument("--no-multi-clue", action="store_true",
                   help="disable stage-1 appearance matching")
    p.add_argument("--no-buffer", action="store_true",
                   help="force all buffer ratios to 0")
    p.add_argument("--no-cascade", action="store_true",
                   help="flat stage-2 assignment over all levels")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="score tracks against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--tracks", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--report", default=None, help="write JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("refine-demo",
                       help="dump filter masks and a refined feature grid")
    p.add_argument("--grid", required=True, help="HxWxC, e.g. 32x32x8")
    p.add_argument("--kind", choices=("image", "bev"), default="bev")
    p.add_argument("--objects", default=None,
                   help="JSONL objects: {center: [r,c], footprint: [er,ec], "
                        "e_cat: [...]}")
    p.add_argument("--num-objects", type=int, default=3,
                   help="random objects when no --objects file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine_demo)

    p = sub.add_parser("ablate",
                       help="run the 8-row component grid over suites")
    p.add_argument("--suites", default=None,
                   help="comma-separated suite names (default: the "
                        "adversarial four)")
    p.add_argument("--config", default=None)
    p.add_argument("--max-age", type=int, default=5,
                   help="coast window used for the comparison")
    p.add_argument("--out", default=None, help="write JSON rows here")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("init-config", help="write the default config YAML")
    p.add_argument("--out", default="bevtrack.yaml")
    p.set_defaults(func=cmd_init_config)

    return parser


def main(argv=None) -> int:
    """Run one command: the only place that turns an error into an exit
    code and an ``error:`` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, UsageError) else DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
