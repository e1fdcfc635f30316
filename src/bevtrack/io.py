"""File formats and run configuration.

All logs are line-delimited JSON, one object per line with self-describing
field names, grouped by ascending frame id. Python's repr-based float
serialization is shortest-round-trip, so write-then-read reproduces every
value exactly.

A frame without detections is one marker record ``{"frame_id": f, "empty":
true}``, with ``"timestamp": t`` when the frame has one:
``iter_detection_frames`` yields it as an empty ``DetectionFrame``,
``read_detections`` skips it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, is_dataclass, replace
from itertools import chain
from pathlib import Path
from typing import (Iterable, Iterator, Sequence, get_args, get_origin,
                    get_type_hints)

import numpy as np
import yaml

from .geometry import DEFAULT_SCALE_BREAKPOINTS, Box3D, footprint_scale_level
from .metrics import EvalConfig, Pred
from .motion import NoiseConfig
from .refiner import RefinerConfig
from .simulator import GroundTruthFrame, ScenarioConfig
from .tracker import (DetectionFrame, TrackerConfig, first_bad_row,
                      number_frames)


class DataError(ValueError):
    """Malformed record; carries the offending file and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def box_to_list(b: Box3D) -> list[float]:
    return [float(v) for v in (b.cx, b.cy, b.cz, b.length, b.width,
                               b.height, b.yaw)]


_JSON_NUMBER_TYPES = frozenset((int, float))  # bool is not one of them


def _numbers(record: dict, key: str, path, line_no: int) -> list:
    """record[key], which must be a list of JSON numbers."""
    value = _require(record, key, path, line_no)
    if not (isinstance(value, list)
            and _JSON_NUMBER_TYPES.issuperset(map(type, value))):
        raise DataError(path, line_no, f"{key} must be a list of numbers")
    return value


def _box(record: dict, path, line_no: int) -> Box3D:
    vals = _numbers(record, "box", path, line_no)
    if len(vals) != 7:
        raise DataError(path, line_no, "box must be a list of 7 reals")
    try:
        return Box3D(*map(float, vals))
    except (OverflowError, ValueError) as exc:
        raise DataError(path, line_no, f"invalid box: {exc}") from exc


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


_decode = json.JSONDecoder(parse_constant=_reject_constant).decode


def _records(path) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) of each non-blank line of a log."""
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = _decode(raw)
            except ValueError as exc:  # JSONDecodeError or NaN/Infinity
                raise DataError(path, line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DataError(path, line_no, "record must be a JSON object")
            yield line_no, record


def _require(record: dict, key: str, path, line_no: int):
    if key not in record:
        raise DataError(path, line_no, f"missing field {key!r}")
    return record[key]


def _number(record: dict, key: str, path, line_no: int, kind=int,
            default=None):
    """record[key] as a JSON integer (kind int) or as a finite JSON number
    converted to float (kind float). A missing key gives the default, or a
    DataError when there is none."""
    value = (_require(record, key, path, line_no) if default is None
             else record.get(key, default))
    try:
        if type(value) is int or (kind is float and type(value) is float
                                  and math.isfinite(value)):
            return kind(value)
    except OverflowError:  # an integer beyond the float range
        pass
    what = "an integer" if kind is int else "a finite number"
    raise DataError(path, line_no, f"{key} must be {what}")


# ---------------------------------------------------------------------------
# detection logs

def write_detections(path, det_frames) -> None:
    """Write frames of Detections or DetectionFrames, numbered (and their
    ids checked) by ``number_frames``; a frame's records carry its number
    and timestamp, and so does the marker of an empty frame that has one."""
    with open(path, "w") as fh:
        for frame_id, frame in number_frames(det_frames):
            if not len(frame):
                marker = {"frame_id": frame_id, "empty": True}
                if frame.timestamp is not None:
                    marker["timestamp"] = float(frame.timestamp)
                fh.write(json.dumps(marker) + "\n")
                continue
            head = {"frame_id": frame_id,
                    "timestamp": float(frame.timestamp)}
            for box, score, level, (e_img, e_bev, e_head) in zip(
                    frame.boxes.tolist(), frame.scores.tolist(),
                    frame.levels.tolist(), frame.emb.tolist()):
                fh.write(json.dumps({
                    **head, "box": box, "score": score, "scale_level": level,
                    "e_img": e_img, "e_bev": e_bev, "e_head": e_head}) + "\n")


_EMBEDDINGS = ("e_img", "e_bev", "e_head")


def _check_detection(record: dict, path, line_no: int, dim: int | None,
                     breakpoints, num_levels: int | None) -> int:
    """Check one detection record field by field, in the order of its
    fields, with ``first_bad_row`` for the value rules; raise its first
    problem as a DataError. Returns the log's embedding length: dim, or
    this record's when it is the first detection."""
    box = _box(record, path, line_no)
    score = _number(record, "score", path, line_no, float)
    level = record.get("scale_level")
    if level is None:
        level = footprint_scale_level(box, breakpoints)
    else:
        level = _number(record, "scale_level", path, line_no)
    _number(record, "timestamp", path, line_no, float, default=0.0)
    emb = [_numbers(record, key, path, line_no) for key in _EMBEDDINGS]
    dim = len(emb[0]) if dim is None else dim
    if len(emb[0]) != dim:
        raise DataError(path, line_no, f"embedding length {len(emb[0])}"
                        f" differs from the first detection's {dim}")
    if len(set(map(len, emb))) != 1:
        raise DataError(path, line_no,
                        "appearance embeddings must share one dimension")
    try:
        bad = first_bad_row(np.array([box_to_list(box)]), np.array([score]),
                            np.array([level]), np.array([emb], dtype=float))
    except OverflowError as exc:  # an embedding int beyond the float range
        raise DataError(path, line_no, str(exc)) from exc
    if bad is not None:
        raise DataError(path, line_no, bad[1])
    # a level must index the tracker's levels, and fit int64 in any case
    end = 2 ** 63 if num_levels is None else num_levels
    if level >= end:
        raise DataError(path, line_no, f"scale_level {level} outside "
                        f"[0, {end})")
    return dim


def _kinds(values, *kinds) -> bool:
    return frozenset(kinds).issuperset(map(type, values))


class _FrameRecords:
    """The detection records of one frame, built into a DetectionFrame
    with one pass per field. ``check`` runs the record-by-record checks of
    ``_check_detection``; the frame's build accepts exactly the records
    that pass them, and on any problem ``check`` names the first bad
    record."""

    def __init__(self, path, breakpoints, num_levels: int | None):
        self.path, self.breakpoints = path, breakpoints
        self.num_levels = num_levels
        self.dim = None  # embedding length of the log's first detection
        self.lines, self.records = [], []
        self.timestamp = None  # an empty-frame marker's

    def frame(self, frame_id: int) -> DetectionFrame:
        """The records as a DetectionFrame; the next frame starts empty."""
        if not self.records:
            frame = replace(DetectionFrame.empty(frame_id),
                            timestamp=self.timestamp)
        else:
            try:
                frame = self._build(frame_id)
            except (KeyError, ValueError, OverflowError):  # bad fields
                frame = None
            if frame is None:
                self.check()
        self.lines, self.records, self.timestamp = [], [], None
        return frame

    def _build(self, frame_id: int) -> DetectionFrame | None:
        recs = self.records
        boxes = [r["box"] for r in recs]
        scores = [r["score"] for r in recs]
        levels = [r.get("scale_level") for r in recs]
        stamps = [r.get("timestamp", 0.0) for r in recs]
        embs = [[r[key] for key in _EMBEDDINGS] for r in recs]
        lists = boxes + [e for triple in embs for e in triple]
        if not (_kinds(lists, list)
                and _kinds(chain.from_iterable(lists), int, float)
                and _kinds(scores, int, float) and _kinds(stamps, int, float)
                and _kinds(levels, int, type(None))):
            return None
        # a bad value, a box not of 7 or ragged embeddings raise ValueError
        frame = DetectionFrame.from_rows(frame_id, stamps[0], boxes, scores,
                                         levels, embs, self.breakpoints)
        dim = frame.emb.shape[2] if self.dim is None else self.dim
        if (frame.emb.shape[2] != dim
                or not np.isfinite(np.array(stamps, dtype=np.float64)).all()
                or self.num_levels is not None
                and (frame.levels >= self.num_levels).any()):
            return None
        self.dim = dim
        return frame

    def check(self) -> None:
        """Raise the DataError of the first bad record."""
        dim = self.dim
        for line_no, record in zip(self.lines, self.records):
            dim = _check_detection(record, self.path, line_no, dim,
                                   self.breakpoints, self.num_levels)


def iter_detection_frames(path, breakpoints=DEFAULT_SCALE_BREAKPOINTS,
                          num_levels: int | None = None,
                          ) -> Iterator[tuple[int, DetectionFrame]]:
    """Stream (frame_id, DetectionFrame) pairs; memory stays per-frame.

    Records must be grouped by ascending frame_id. An empty-frame marker
    yields an empty frame, with the marker's timestamp if it has one, and
    must be its frame's only record. A missing scale_level falls back to
    the footprint-area rule. With num_levels given (the tracker's level
    count), a level outside [0, num_levels) is a DataError. A DataError
    names the first bad line in file order: the records of a frame are
    checked when the frame ends, or when a later line fails first.
    """
    pending = _FrameRecords(path, breakpoints, num_levels)
    current_id: int | None = None
    try:
        for line_no, record in _records(path):
            frame_id = _number(record, "frame_id", path, line_no)
            empty = record.get("empty") is True
            if frame_id != current_id:
                if current_id is not None:
                    frame = pending.frame(current_id)
                    if frame_id < current_id:
                        raise DataError(path, line_no, "records must be "
                                        "grouped by ascending frame_id")
                    yield current_id, frame
                current_id = frame_id
            elif empty or not pending.records:
                raise DataError(path, line_no, f"frame {frame_id} has an "
                                "empty-frame marker and other records")
            if not empty:
                pending.lines.append(line_no)
                pending.records.append(record)
            elif "timestamp" in record:
                pending.timestamp = _number(record, "timestamp", path,
                                            line_no, float)
        if current_id is not None:
            yield current_id, pending.frame(current_id)
    except DataError:
        pending.check()  # a bad record on an earlier line comes first
        raise


def read_detections(path) -> list[DetectionFrame]:
    """The log's non-empty frames."""
    return [frame for _fid, frame in iter_detection_frames(path) if frame]


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
    seen: set[tuple[int, int]] = set()
    for line_no, record in _records(path):
        frame_id = _number(record, "frame_id", path, line_no)
        box = _box(record, path, line_no)
        gid = _number(record, "gt_id", path, line_no)
        visible = record.get("visible", True)
        if type(visible) is not bool:
            raise DataError(path, line_no, "visible must be true or false")
        if (frame_id, gid) in seen:
            raise DataError(path, line_no, f"duplicate gt_id {gid} in "
                            f"frame {frame_id}")
        seen.add((frame_id, gid))
        frames.setdefault(frame_id, []).append((gid, box, visible))
        stamps[frame_id] = _number(record, "timestamp", path, line_no,
                                   float, default=0.0)
    return [GroundTruthFrame(frame_id=fid, timestamp=stamps[fid],
                             objects=tuple(rows))
            for fid, rows in sorted(frames.items())]


# ---------------------------------------------------------------------------
# track output logs

def write_track_records(path, records: Iterable[dict]) -> None:
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
    for line_no, record in _records(path):
        frame_id = _number(record, "frame_id", path, line_no)
        track_id = _number(record, "track_id", path, line_no)
        if (frame_id, track_id) in seen:
            raise DataError(path, line_no,
                            f"duplicate (frame_id, track_id) "
                            f"({frame_id}, {track_id})")
        seen.add((frame_id, track_id))
        box = _box(record, path, line_no)
        score = _number(record, "score", path, line_no, float)
        out.setdefault(frame_id, []).append((track_id, box, score))
    return out


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class AppConfig:
    """Everything a run needs: tracker, motion noise, eval, refiner. Its
    fields, their type hints and their defaults are the run config file's
    schema: each key of the file names a field."""

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    motion: NoiseConfig = field(default_factory=NoiseConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    refiner: RefinerConfig = field(default_factory=RefinerConfig)
    scale_breakpoints: tuple[float, ...] = DEFAULT_SCALE_BREAKPOINTS

    def __post_init__(self):
        edges = self.scale_breakpoints
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("scale_breakpoints: must be strictly increasing, "
                             f"got {list(edges)}")


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
  use_multi_clue: true   # stage-1 appearance matching (off: --no-multi-clue)
  use_buffer: true       # footprint buffering (off: --no-buffer)
  use_cascade: true      # stage 2 cascaded by scale level (off: --no-cascade)

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

# BEV footprint-area breakpoints (m^2) assigning a scale level when a
# detection record carries none: area < 1 -> level 0, < 4 -> 1, < 12 -> 2,
# < 30 -> 3, else 4
scale_breakpoints: [1.0, 4.0, 12.0, 30.0]
"""


def write_default_config(path) -> None:
    Path(path).write_text(DEFAULT_CONFIG_TEXT)


class ConfigError(ValueError):
    """Invalid run config or scenario file; names the file and the key."""

    def __init__(self, path, key: tuple, message: str):
        where = ".".join(map(str, key)) or "(top level)"
        super().__init__(f"{path}: {where}: {message}")


def _read_yaml(path):
    try:
        return yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(path, (), f"invalid YAML: {exc}") from exc


def _typed(value, hint, path, key: tuple = (), default=None):
    """value checked against a type hint of AppConfig or ScenarioConfig.

    A dataclass takes a mapping of its fields; the given ones replace
    those of default, and null keeps default. Without a default it is
    built from the given fields alone. A rule message "field: ..." of a
    dataclass names key.field, any other message the key. A dict takes a
    mapping, a tuple a list (of the hint's length unless it ends in ...),
    str a string, bool true or false, and int or float a number by the
    rule of _number.
    """
    origin, args = get_origin(hint), get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _typed(value, args[0], path, key)
    if is_dataclass(hint) and value is None and default is not None:
        return default
    if is_dataclass(hint) or origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(path, key, "must be a mapping")
        if origin is dict:
            return {_typed(k, args[0], path, key + (k,)):
                    _typed(v, args[1], path, key + (k,))
                    for k, v in value.items()}
        hints = get_type_hints(hint)
        for k in value:
            if k not in hints:
                raise ConfigError(path, key + (k,), "unknown key")
        given = {k: _typed(v, hints[k], path, key + (k,),
                           getattr(default, k, None))
                 for k, v in value.items()}
        try:
            return (hint(**given) if default is None
                    else replace(default, **given))
        except (TypeError, ValueError) as exc:  # a missing field, a rule
            name, sep, rest = str(exc).partition(": ")
            where, message = ((key + (name,), rest) if sep and name in hints
                              else (key, str(exc)))
            raise ConfigError(path, where, message) from exc
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(path, key, "must be a list")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise ConfigError(path, key, f"must have {len(items)} entries")
        return tuple(_typed(v, h, path, key) for v, h in zip(value, items))
    if hint in (str, bool):
        if type(value) is not hint:
            raise ConfigError(path, key, "must be a string" if hint is str
                              else "must be true or false")
        return value
    try:  # YAML 1.1 reads 1e-6 and -1e9 (no dot) as strings
        if hint is float and type(value) is str:
            value = float(value)
        return _number({"value": value}, "value", path, 0, hint)
    except ValueError:  # float() of a non-number, or _number's DataError
        raise ConfigError(path, key, "must be an integer" if hint is int
                          else "must be a finite number") from None


def load_config(path=None) -> AppConfig:
    """Load a YAML run config; omitted keys keep AppConfig's defaults. Any
    invalid value is a ConfigError naming the file and the section.key."""
    if path is None:
        return AppConfig()
    return _typed(_read_yaml(path), AppConfig, path, default=AppConfig())


# ---------------------------------------------------------------------------
# scenario files

def load_scenario(path) -> ScenarioConfig:
    """Load a scenario YAML; omitted keys keep ScenarioConfig's defaults.
    Unknown keys, values of the wrong kind and values ScenarioConfig
    rejects are ConfigErrors naming the file and the key."""
    return _typed(_read_yaml(path), ScenarioConfig, path,
                  default=ScenarioConfig())
