"""File formats and run configuration.

All logs are line-delimited JSON, one object per line with self-describing
field names, grouped by ascending frame id. Python's repr-based float
serialization is shortest-round-trip, so write-then-read reproduces every
value exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import yaml

from .association import AppearanceState, ClueWeights
from .geometry import (DEFAULT_SCALE_BREAKPOINTS, Box3D, BufferRatioTable,
                       footprint_scale_level)
from .metrics import EvalConfig, Pred
from .motion import NoiseConfig
from .simulator import GroundTruthFrame
from .tracker import Detection, TrackerConfig


class DataError(ValueError):
    """Malformed record; carries the offending file and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def box_to_list(b: Box3D) -> list[float]:
    return [float(v) for v in (b.cx, b.cy, b.cz, b.length, b.width,
                               b.height, b.yaw)]


def _box_from_list(vals, path, line_no) -> Box3D:
    if not isinstance(vals, list) or len(vals) != 7:
        raise DataError(path, line_no, "box must be a list of 7 reals")
    try:
        return Box3D.from_array(vals)
    except (TypeError, ValueError) as exc:
        raise DataError(path, line_no, f"invalid box: {exc}") from exc


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _parse_line(raw: str, path, line_no: int) -> dict:
    try:
        record = json.loads(raw, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError or a NaN/Infinity constant
        raise DataError(path, line_no, f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise DataError(path, line_no, "record must be a JSON object")
    return record


def _require(record: dict, key: str, path, line_no: int):
    if key not in record:
        raise DataError(path, line_no, f"missing field {key!r}")
    return record[key]


# ---------------------------------------------------------------------------
# detection logs

def write_detections(path, det_frames: Sequence[Sequence[Detection]]) -> None:
    with open(path, "w") as fh:
        for dets in det_frames:
            for d in dets:
                fh.write(json.dumps({
                    "frame_id": d.frame_id,
                    "timestamp": float(d.timestamp),
                    "box": box_to_list(d.box),
                    "score": float(d.score),
                    "scale_level": d.scale_level,
                    "e_img": [float(v) for v in d.appearance.e_img],
                    "e_bev": [float(v) for v in d.appearance.e_bev],
                    "e_head": [float(v) for v in d.appearance.e_head],
                }) + "\n")


def iter_detection_frames(path, breakpoints=DEFAULT_SCALE_BREAKPOINTS,
                          ) -> Iterator[tuple[int, list[Detection]]]:
    """Stream (frame_id, detections) groups; memory stays per-frame.

    Records must be grouped by ascending frame_id. A missing scale_level
    falls back to the footprint-area rule.
    """
    current_id: int | None = None
    bucket: list[Detection] = []
    last_seen: int | None = None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = _parse_line(raw, path, line_no)
            frame_id = _require(record, "frame_id", path, line_no)
            if not isinstance(frame_id, int):
                raise DataError(path, line_no, "frame_id must be an integer")
            box = _box_from_list(_require(record, "box", path, line_no),
                                 path, line_no)
            score = _require(record, "score", path, line_no)
            level = record.get("scale_level")
            if level is None:
                level = footprint_scale_level(box, breakpoints)
            try:
                det = Detection(
                    box=box, score=float(score),
                    appearance=AppearanceState(
                        e_img=_require(record, "e_img", path, line_no),
                        e_bev=_require(record, "e_bev", path, line_no),
                        e_head=_require(record, "e_head", path, line_no)),
                    scale_level=int(level),
                    timestamp=float(record.get("timestamp", 0.0)),
                    frame_id=frame_id)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(path, line_no, str(exc)) from exc
            if current_id is None:
                current_id = frame_id
            if frame_id != current_id:
                if last_seen is not None and frame_id < last_seen:
                    raise DataError(path, line_no,
                                    "records must be grouped by ascending frame_id")
                yield current_id, bucket
                current_id, bucket = frame_id, []
            bucket.append(det)
            last_seen = frame_id
    if current_id is not None:
        yield current_id, bucket


def read_detections(path) -> list[list[Detection]]:
    return [dets for _fid, dets in iter_detection_frames(path)]


# ---------------------------------------------------------------------------
# ground truth logs

def write_ground_truth(path, gt_frames: Sequence[GroundTruthFrame]) -> None:
    with open(path, "w") as fh:
        for g in gt_frames:
            for gid, box, visible in g.objects:
                fh.write(json.dumps({
                    "frame_id": g.frame_id,
                    "timestamp": float(g.timestamp),
                    "gt_id": gid,
                    "box": box_to_list(box),
                    "visible": bool(visible),
                }) + "\n")


def read_ground_truth(path) -> list[GroundTruthFrame]:
    frames: dict[int, list] = {}
    stamps: dict[int, float] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = _parse_line(raw, path, line_no)
            frame_id = _require(record, "frame_id", path, line_no)
            box = _box_from_list(_require(record, "box", path, line_no),
                                 path, line_no)
            gid = _require(record, "gt_id", path, line_no)
            visible = bool(record.get("visible", True))
            frames.setdefault(frame_id, []).append((int(gid), box, visible))
            stamps[frame_id] = float(record.get("timestamp", 0.0))
    return [GroundTruthFrame(frame_id=fid, timestamp=stamps[fid],
                             objects=tuple(rows))
            for fid, rows in sorted(frames.items())]


# ---------------------------------------------------------------------------
# track output logs

def write_track_records(path, records: Sequence[dict]) -> None:
    """records: dicts with frame_id, track_id, box (Box3D), score,
    scale_level. (frame_id, track_id) must be unique."""
    seen = set()
    with open(path, "w") as fh:
        for rec in records:
            key = (rec["frame_id"], rec["track_id"])
            if key in seen:
                raise ValueError(f"duplicate track record {key}")
            seen.add(key)
            fh.write(json.dumps({
                "frame_id": rec["frame_id"],
                "track_id": rec["track_id"],
                "box": box_to_list(rec["box"]),
                "score": float(rec["score"]),
                "scale_level": rec["scale_level"],
            }) + "\n")


def read_tracks(path) -> dict[int, list[Pred]]:
    """Track log as {frame_id: [(track_id, box, score), ...]}."""
    out: dict[int, list[Pred]] = {}
    seen = set()
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = _parse_line(raw, path, line_no)
            frame_id = _require(record, "frame_id", path, line_no)
            track_id = _require(record, "track_id", path, line_no)
            if (frame_id, track_id) in seen:
                raise DataError(path, line_no,
                                f"duplicate (frame_id, track_id) "
                                f"({frame_id}, {track_id})")
            seen.add((frame_id, track_id))
            box = _box_from_list(_require(record, "box", path, line_no),
                                 path, line_no)
            score = float(_require(record, "score", path, line_no))
            out.setdefault(int(frame_id), []).append((int(track_id), box, score))
    return out


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RefinerGridConfig:
    num_levels: int
    scope_radii: tuple[float, ...]
    kernel_sizes: tuple[int, ...]


@dataclass(frozen=True)
class AppConfig:
    """Everything a run needs: tracker, motion noise, eval, refiner."""

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    refiner_image: RefinerGridConfig = RefinerGridConfig(3, (2.0, 4.0, 8.0),
                                                         (1, 3, 5))
    refiner_bev: RefinerGridConfig = RefinerGridConfig(
        5, (2.0, 4.0, 8.0, 16.0, 24.0), (1, 3, 5, 7, 9))
    fusion_heads: int = 2
    fusion_points: int = 4
    scale_breakpoints: tuple[float, ...] = DEFAULT_SCALE_BREAKPOINTS


DEFAULT_CONFIG_TEXT = """\
# bevtrack run configuration. Every key shows its default; delete a key to
# keep the default. Units: meters, seconds, radians.

tracker:
  clue_weights:          # weights of the three cosine similarity clues
    img: 0.3333333333333333
    bev: 0.3333333333333333
    head: 0.3333333333333333
  similarity_gate: 0.3   # stage-1 admissibility threshold on the weighted
                         # similarity; -1e9 disables gating entirely
  iou_threshold: 0.1     # stage-2 minimum buffered IoU for a match
  buffer_ratios: [0.5, 0.4, 0.3, 0.2, 0.1]  # per level, smallest first
  init_score_threshold: 0.5  # detections above this open new tracklets
  max_age: 0             # frames a tracklet may go unmatched before removal
                         # (0 = delete immediately)
  ema_alpha: 0.9         # appearance smoothing: alpha*old + (1-alpha)*new
  num_levels: 5          # scale levels used for cascading and buffering

motion:                  # constant-velocity Kalman filter noise (per step)
  process_pos_std: 0.5
  process_vel_std: 1.0
  process_yaw_std: 0.1
  process_dim_std: 0.05
  meas_pos_std: 0.5
  meas_yaw_std: 0.1
  meas_dim_std: 0.1

eval:
  match_distance: 2.0    # BEV center distance for a true positive
  recall_thresholds: 40  # evenly spaced target recalls in (0, 1]

refiner:
  image:                 # small grids: 3 levels
    num_levels: 3
    scope_radii: [2.0, 4.0, 8.0]   # mask cutoff radius per level (cells)
    kernel_sizes: [1, 3, 5]        # smoothing kernel per level, smallest first
  bev:                   # large grids: 5 levels
    num_levels: 5
    scope_radii: [2.0, 4.0, 8.0, 16.0, 24.0]
    kernel_sizes: [1, 3, 5, 7, 9]
  fusion_heads: 2        # attention heads in temporal fusion
  fusion_points: 4       # sampled points per head

# BEV footprint-area breakpoints (m^2) assigning a scale level when a
# detection record carries none: area < 1 -> level 0, < 4 -> 1, < 12 -> 2,
# < 30 -> 3, else 4
scale_breakpoints: [1.0, 4.0, 12.0, 30.0]
"""


def write_default_config(path) -> None:
    Path(path).write_text(DEFAULT_CONFIG_TEXT)


def load_config(path=None) -> AppConfig:
    """Load a YAML config; omitted keys keep their defaults."""
    if path is None:
        return AppConfig()
    raw = yaml.safe_load(Path(path).read_text()) or {}
    base = AppConfig()

    trk = raw.get("tracker", {})
    weights = trk.get("clue_weights", {})
    base_trk = base.tracker
    base_w = base_trk.clue_weights
    tracker = TrackerConfig(
        clue_weights=ClueWeights(
            w_img=float(weights.get("img", base_w.w_img)),
            w_bev=float(weights.get("bev", base_w.w_bev)),
            w_head=float(weights.get("head", base_w.w_head))),
        similarity_gate=float(trk.get("similarity_gate",
                                      base_trk.similarity_gate)),
        iou_threshold=float(trk.get("iou_threshold", base_trk.iou_threshold)),
        buffer_ratios=BufferRatioTable(tuple(trk.get(
            "buffer_ratios", base_trk.buffer_ratios.ratios))),
        init_score_threshold=float(trk.get("init_score_threshold",
                                           base_trk.init_score_threshold)),
        max_age=int(trk.get("max_age", base_trk.max_age)),
        ema_alpha=float(trk.get("ema_alpha", base_trk.ema_alpha)),
        num_levels=int(trk.get("num_levels", base_trk.num_levels)),
    )
    mo = raw.get("motion", {})
    noise = NoiseConfig(**{name: float(mo.get(name, getattr(base.noise, name)))
                           for name in ("process_pos_std", "process_vel_std",
                                        "process_yaw_std", "process_dim_std",
                                        "meas_pos_std", "meas_yaw_std",
                                        "meas_dim_std")})
    ev = raw.get("eval", {})
    eval_cfg = EvalConfig(
        match_distance=float(ev.get("match_distance", base.eval.match_distance)),
        recall_thresholds=int(ev.get("recall_thresholds",
                                     base.eval.recall_thresholds)))

    ref = raw.get("refiner", {})

    def _grid(section: dict, default: RefinerGridConfig) -> RefinerGridConfig:
        return RefinerGridConfig(
            num_levels=int(section.get("num_levels", default.num_levels)),
            scope_radii=tuple(float(r) for r in section.get(
                "scope_radii", default.scope_radii)),
            kernel_sizes=tuple(int(k) for k in section.get(
                "kernel_sizes", default.kernel_sizes)))

    return AppConfig(
        tracker=tracker, noise=noise, eval=eval_cfg,
        refiner_image=_grid(ref.get("image", {}), base.refiner_image),
        refiner_bev=_grid(ref.get("bev", {}), base.refiner_bev),
        fusion_heads=int(ref.get("fusion_heads", base.fusion_heads)),
        fusion_points=int(ref.get("fusion_points", base.fusion_points)),
        scale_breakpoints=tuple(float(b) for b in raw.get(
            "scale_breakpoints", DEFAULT_SCALE_BREAKPOINTS)),
    )
