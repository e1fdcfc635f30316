"""Command-line surface: simulate, track, evaluate, refine-demo, ablate.

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import io as bio
from . import metrics as bmetrics
from . import refiner as bref
from . import simulator as bsim
from . import tracker as btrack

USAGE_ERROR = 2
DATA_ERROR = 1


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_scenario(args) -> bsim.ScenarioConfig | None:
    if args.suite:
        suites = bsim.standard_suites()
        if args.suite not in suites:
            names = ", ".join(sorted(suites))
            print(f"error: unknown suite {args.suite!r}; valid suites: {names}",
                  file=sys.stderr)
            return None
        cfg = suites[args.suite]
    else:
        raw = yaml.safe_load(Path(args.scenario).read_text()) or {}
        occl = tuple(tuple(e) for e in raw.pop("occlusion_events", ()))
        overrides = {int(k): bsim.SpawnSpec(**v)
                     for k, v in raw.pop("spawn_overrides", {}).items()}
        companions = tuple(tuple(c) for c in raw.pop("companions", ()))
        for key in ("arena", "speed_range", "turn_rate_range", "score_range",
                    "fp_score_range", "object_classes"):
            if key in raw and raw[key] is not None:
                raw[key] = tuple(raw[key])
        cfg = bsim.ScenarioConfig(occlusion_events=occl,
                                  spawn_overrides=overrides,
                                  companions=companions, **raw)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.noiseless:
        cfg = cfg.noiseless()
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    if cfg is None:
        return USAGE_ERROR
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


def _tracker_config(app: bio.AppConfig, args) -> btrack.TrackerConfig:
    cfg = app.tracker
    if getattr(args, "max_age", None) is not None:
        cfg = replace(cfg, max_age=args.max_age)
    return replace(
        cfg,
        use_multi_clue=not getattr(args, "no_multi_clue", False),
        use_buffer=not getattr(args, "no_buffer", False),
        use_cascade=not getattr(args, "no_cascade", False),
    )


def cmd_track(args) -> int:
    app = bio.load_config(args.config)
    cfg = _tracker_config(app, args)
    trk = btrack.Tracker(cfg, app.noise)
    prev_ts = None
    try:
        with open(args.out, "w") as fh:
            frames = bio.iter_detection_frames(args.dets, app.scale_breakpoints)
            for frame_id, dets in frames:
                ts = dets[0].timestamp if dets else None
                dt = 0.1
                if ts is not None and prev_ts is not None and ts > prev_ts:
                    dt = ts - prev_ts
                if ts is not None:
                    prev_ts = ts
                trk.step(dets, dt, frame_id=frame_id)
                for t in sorted(trk.active_outputs(), key=lambda t: t.id):
                    box = t.predicted_box()
                    fh.write(json.dumps({
                        "frame_id": frame_id,
                        "track_id": t.id,
                        "box": bio.box_to_list(box),
                        "score": float(t.last_score),
                        "scale_level": t.scale_level,
                    }) + "\n")
    except bio.DataError as exc:
        return _fail(DATA_ERROR, str(exc))
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    app = bio.load_config(args.config)
    try:
        gt_frames = bio.read_ground_truth(args.gt)
        tracks = bio.read_tracks(args.tracks)
        report = bmetrics.evaluate(gt_frames, tracks, app.eval)
    except (bio.DataError, ValueError) as exc:
        return _fail(DATA_ERROR, str(exc))
    print(bmetrics.format_report(report))
    if args.report:
        Path(args.report).write_text(json.dumps(report.as_dict(), indent=2)
                                     + "\n")
        print(f"wrote {args.report}")
    return 0


def _parse_grid_spec(spec: str) -> tuple[int, int, int]:
    parts = spec.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be HxWxC, got {spec!r}")
    h, w, c = (int(p) for p in parts)
    return h, w, c


def cmd_refine_demo(args) -> int:
    try:
        h, w, c = _parse_grid_spec(args.grid)
    except ValueError as exc:
        return _fail(USAGE_ERROR, str(exc))
    app = bio.load_config(args.config)
    grid_cfg = app.refiner_bev if args.kind == "bev" else app.refiner_image
    rng = np.random.default_rng(args.seed)
    grid = bref.FeatureGrid(rng.normal(size=(h, w, c)), kind=args.kind)
    maps = bref.InjectedMaps.from_seed(args.seed, 3 * c, grid_cfg.num_levels,
                                       grid_cfg.scope_radii,
                                       grid_cfg.kernel_sizes)

    priors: list[bref.ObjectPrior] = []
    if args.objects:
        with open(args.objects) as fh:
            for line_no, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    rec = json.loads(raw)
                    e_cat = rec.get("e_cat")
                    if e_cat is None:
                        e_cat = rng.normal(size=3 * c)
                    priors.append(bref.ObjectPrior(
                        e_cat=e_cat,
                        center_cell=tuple(rec["center"]),
                        footprint=tuple(rec.get("footprint", (1.0, 1.0)))))
                except (KeyError, TypeError, ValueError,
                        json.JSONDecodeError) as exc:
                    return _fail(DATA_ERROR,
                                 f"{args.objects}:{line_no}: {exc}")
    else:
        for _ in range(args.num_objects):
            priors.append(bref.ObjectPrior(
                e_cat=rng.normal(size=3 * c),
                center_cell=(rng.uniform(0, h - 1), rng.uniform(0, w - 1)),
                footprint=(rng.uniform(1, 4), rng.uniform(1, 4))))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        refined, levels, masks = bref.refine_grid(grid, priors, maps)
    except ValueError as exc:
        return _fail(DATA_ERROR, str(exc))

    np.save(out / "input_grid.npy", grid.data)
    np.save(out / "refined_grid.npy", refined.data)
    for mask in masks:
        np.save(out / f"mask_level_{mask.level}.npy", mask.data)

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
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
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
            outputs, _ = btrack.run_sequence(det_frames, cfg, app.noise,
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
        return _fail(USAGE_ERROR,
                     f"unknown suites {unknown}; valid: {sorted(suites)}")
    app = bio.load_config(args.config)
    rows = run_ablation(names, app, args.max_age)

    def _flag(v):
        return " on" if v else "off"

    header = f"{'MC':>4} {'Buff':>4} {'Casc':>4} | " + " ".join(
        f"{n[:12]:>12}" for n in names) + f" | {'mean':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = " ".join(f"{row['per_suite'][n]['amota']:12.4f}" for n in names)
        print(f"{_flag(row['multi_clue']):>4} {_flag(row['buffer']):>4} "
              f"{_flag(row['cascade']):>4} | {cells} | "
              f"{row['mean_amota']:8.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.out}")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(DATA_ERROR, str(exc))


if __name__ == "__main__":
    sys.exit(main())
