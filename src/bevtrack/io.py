"""File formats and run configuration.

All logs are line-delimited JSON in UTF-8, one object per line with
self-describing field names, grouped by ascending frame id: each reader
refuses a record whose frame id is lower than the previous record's with a
``DataError`` naming the line, and each writer refuses such a frame id. A
line that is not UTF-8, or that nests deeper than the JSON parser can
follow, is a ``DataError`` naming the line. Python's repr-based float
serialization is shortest-round-trip, so write-then-read reproduces every
value exactly.

A frame without detections is one marker record ``{"frame_id": f, "empty":
true}``, with ``"timestamp": t`` when the frame has one:
``iter_detection_frames`` yields it as an empty ``DetectionFrame``,
``read_detections`` skips it.

Every file a command writes goes through ``write_file``, which writes a
regular file whole or not at all: the logs (whose three writers yield
their records to ``_write_records`` as JSON lines), the JSON reports
(``json_bytes``), the arrays of ``refine-demo`` (``write_array``) and the
default config. A writer that raises, on a bad frame or a duplicate
record, leaves the file as it was and no ``.part`` file. A FIFO or a
device such as /dev/stdout is written as a stream.

The run config and scenario files are YAML: ``load_config`` and
``load_scenario`` read one into ``AppConfig`` or ``ScenarioConfig`` by
``geometry.typed``, the same kind check each config runs on its own fields,
so a file and a library caller are refused the same values with the same
messages; a file's ``ConfigError`` adds the path and the section. Plain
scalars follow YAML 1.1, except that an exponent float without a dot or
without an exponent sign (``1e-6``, ``-1e9``, ``.5e3``) is a float, not a
string. A file that is not UTF-8, or that nests too deep, is a
``ConfigError``. Record numbers (``_number``) follow the same ``typed``
rule.

``DataError`` and ``ConfigError`` are ``InputError``s: the CLI reports
them as one ``error:`` line.

``_read_yaml`` imports PyYAML on its first call: only config and scenario
files are YAML, so a job that reads neither does not load it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, replace
from io import BytesIO
from itertools import chain
from stat import S_IMODE, S_ISREG
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import (DEFAULT_SCALE_BREAKPOINTS, Box3D, FieldError,
                       InputError, check_fields, footprint_levels, typed)
from .metrics import EvalConfig, Pred
from .motion import NoiseConfig
from .refiner import RefinerConfig
from .simulator import GroundTruthFrame, ScenarioConfig
from .tracker import (DetectionFrame, TrackerConfig, first_bad_row,
                      number_frames)


class DataError(InputError):
    """Malformed record; its message names the file and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


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
    """(line number, JSON object) of each non-blank line of a log, which
    must be UTF-8."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw = raw.decode().strip()
                if not raw:
                    continue
                record = _decode(raw)
            except UnicodeDecodeError as exc:
                raise DataError(path, line_no, f"not UTF-8: {exc}") from exc
            except ValueError as exc:  # JSONDecodeError or NaN/Infinity
                raise DataError(path, line_no, f"invalid JSON: {exc}") from exc
            except RecursionError:
                raise DataError(path, line_no,
                                "invalid JSON: nested too deep") from None
            if not isinstance(record, dict):
                raise DataError(path, line_no, "record must be a JSON object")
            yield line_no, record


def _check_order(frame_id: int, last: int | None, path,
                 line_no: int) -> None:
    """A record whose frame id is lower than the previous record's (last)
    is a DataError: every log is grouped by ascending frame id."""
    if last is not None and frame_id < last:
        raise DataError(path, line_no,
                        "records must be grouped by ascending frame_id")


def _check_written_order(frame_id: int, last: int | None) -> None:
    """A writer's FieldError for a frame id lower than the previous one,
    which its reader would refuse."""
    if last is not None and frame_id < last:
        raise FieldError(("frame_id",),
                         f"{frame_id} is lower than the previous {last}")


def _require(record: dict, key: str, path, line_no: int):
    if key not in record:
        raise DataError(path, line_no, f"missing field {key!r}")
    return record[key]


def _number(record: dict, key: str, path, line_no: int, kind=int,
            default=None):
    """record[key] as kind (int, float or bool) by the rule of ``typed``: a
    JSON integer, a finite JSON number converted to float, or a JSON
    boolean. A missing key gives the default, or a DataError when there is
    none."""
    value = (_require(record, key, path, line_no) if default is None
             else record.get(key, default))
    try:
        return typed(value, kind)
    except FieldError as exc:
        raise DataError(path, line_no, f"{key} {exc}") from None


def write_file(path, chunks: Iterable[bytes]) -> None:
    """Write the chunks, in order, as the file's bytes.

    A regular file, new or not, is written whole or not at all by this
    process: the chunks go to a uniquely named ``.part`` file beside the
    file that path resolves to (through any symlink), which os.replace
    moves onto that file, with its permission bits, after the last chunk.
    A run that fails, by an error of chunks or of the write, or that is
    killed before the move, leaves that file as it was; on an error the
    ``.part`` is removed. The bytes are not synced to disk: a crash of the
    machine soon after the move can leave the file short. Any other
    existing path, such as a FIFO or /dev/stdout, is written in place as a
    stream. An OSError of the open names the path given."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    stream = st is not None and not S_ISREG(st.st_mode)
    target = path if stream else os.path.realpath(path)
    part = target if stream else f"{target}.{os.urandom(4).hex()}.part"
    try:
        fh = open(part, "wb" if stream else "xb")
    except OSError as exc:  # name the path given, not the .part
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            fh.writelines(chunks)
            if stream:
                return
        if st is not None:
            os.chmod(part, S_IMODE(st.st_mode))
        os.replace(part, target)
    except BaseException:
        if not stream:
            os.unlink(part)
        raise


def _write_records(path, records: Iterable[dict]) -> None:
    """Write each record as one JSON line, by ``write_file``."""
    write_file(path, ((json.dumps(rec) + "\n").encode() for rec in records))


def json_bytes(obj) -> bytes:
    """obj as indented JSON and a newline: the bytes of each JSON report."""
    return (json.dumps(obj, indent=2) + "\n").encode()


def write_array(path, array) -> None:
    """array as one ``.npy`` file (``np.save``'s bytes), by ``write_file``."""
    buf = BytesIO()
    np.save(buf, array)
    write_file(path, [buf.getbuffer()])


# ---------------------------------------------------------------------------
# detection logs

def write_detections(path, det_frames) -> None:
    """Write frames of Detections or DetectionFrames, numbered (and their
    ids checked) by ``number_frames``; a frame's records carry its number
    and timestamp, and so does the marker of an empty frame that has one.
    A frame with detections but no timestamp is a ValueError. The log is
    written whole or not at all (``_write_records``)."""

    def records():
        for frame_id, frame in number_frames(det_frames):
            if not len(frame):
                marker = {"frame_id": frame_id, "empty": True}
                if frame.timestamp is not None:
                    marker["timestamp"] = float(frame.timestamp)
                yield marker
                continue
            if frame.timestamp is None:
                raise ValueError(f"frame {frame_id} has detections but no "
                                 "timestamp")
            head = {"frame_id": frame_id,
                    "timestamp": float(frame.timestamp)}
            for box, score, level, (e_img, e_bev, e_head) in zip(
                    frame.boxes.tolist(), frame.scores.tolist(),
                    frame.levels.tolist(), frame.emb.tolist()):
                yield {**head, "box": box, "score": score,
                       "scale_level": level, "e_img": e_img, "e_bev": e_bev,
                       "e_head": e_head}

    _write_records(path, records())


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
        level = int(footprint_levels(box.length * box.width, breakpoints))
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
                    _check_order(frame_id, current_id, path, line_no)
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
    """One record per object of each frame, written whole or not at all.
    Each frame holds values its reader takes (``GroundTruthFrame``'s
    rules); a frame id written before, or lower than the previous one, is
    a ValueError that names the field."""

    def checked():
        written, last = set(), None
        for g in gt_frames:
            if g.frame_id in written:
                raise FieldError(("frame_id",), f"{g.frame_id} repeats")
            _check_written_order(g.frame_id, last)
            written.add(g.frame_id)
            last = g.frame_id
            for gid, box, visible in g.objects:
                yield {"frame_id": g.frame_id, "timestamp": g.timestamp,
                       "gt_id": gid, "box": box_to_list(box),
                       "visible": visible}

    _write_records(path, checked())


def read_ground_truth(path) -> list[GroundTruthFrame]:
    """The log's frames by ascending frame id, each with its objects in
    file order; a gt_id twice in a frame is a DataError at its second
    line."""
    frames: dict[int, dict] = {}  # frame id -> gt_id -> object
    stamps: dict[int, float] = {}
    frame_id = None
    for line_no, record in _records(path):
        last, frame_id = frame_id, _number(record, "frame_id", path, line_no)
        _check_order(frame_id, last, path, line_no)
        box = _box(record, path, line_no)
        gid = _number(record, "gt_id", path, line_no)
        visible = _number(record, "visible", path, line_no, bool,
                          default=True)
        objects = frames.setdefault(frame_id, {})
        if gid in objects:
            raise DataError(path, line_no, f"duplicate gt_id {gid} in "
                            f"frame {frame_id}")
        objects[gid] = (gid, box, visible)
        stamps[frame_id] = _number(record, "timestamp", path, line_no,
                                   float, default=0.0)
    return [GroundTruthFrame(frame_id=fid, timestamp=stamps[fid],
                             objects=tuple(objects.values()))
            for fid, objects in frames.items()]


# ---------------------------------------------------------------------------
# track output logs

def write_track_records(path, records: Iterable[dict]) -> None:
    """records: dicts with frame_id, track_id, box (Box3D), score,
    scale_level, by ascending frame_id. (frame_id, track_id) must be
    unique, the ids and the level integers and the score a finite number
    by the rule the reader takes them with (``typed``): else a ValueError
    that names its field. The log is written whole or not at all."""

    def checked():
        seen, last = set(), None
        for rec in records:
            frame_id, track_id, level = (
                typed(rec[key], int, (key,))
                for key in ("frame_id", "track_id", "scale_level"))
            _check_written_order(frame_id, last)
            last = frame_id
            if (frame_id, track_id) in seen:
                raise ValueError(
                    f"duplicate track record {(frame_id, track_id)}")
            seen.add((frame_id, track_id))
            yield {"frame_id": frame_id,
                   "track_id": track_id,
                   "box": box_to_list(rec["box"]),
                   "score": typed(rec["score"], float, ("score",)),
                   "scale_level": level}

    _write_records(path, checked())


def read_tracks(path) -> dict[int, list[Pred]]:
    """Track log as {frame_id: [(track_id, box, score), ...]}. A record's
    ``scale_level``, which may be left out, must be a JSON integer."""
    out: dict[int, list[Pred]] = {}
    seen = set()
    frame_id = None
    for line_no, record in _records(path):
        last, frame_id = frame_id, _number(record, "frame_id", path, line_no)
        _check_order(frame_id, last, path, line_no)
        track_id = _number(record, "track_id", path, line_no)
        if (frame_id, track_id) in seen:
            raise DataError(path, line_no,
                            f"duplicate (frame_id, track_id) "
                            f"({frame_id}, {track_id})")
        seen.add((frame_id, track_id))
        box = _box(record, path, line_no)
        score = _number(record, "score", path, line_no, float)
        _number(record, "scale_level", path, line_no, default=0)  # optional
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
        check_fields(self)
        edges = self.scale_breakpoints
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("scale_breakpoints: must be strictly increasing, "
                             f"got {list(edges)}")
        # footprint_levels gives a level from 0 to len(edges)
        if len(edges) >= self.tracker.num_levels:
            raise ValueError(
                f"scale_breakpoints: {len(edges)} breakpoints give "
                f"{len(edges) + 1} scale levels, but tracker.num_levels is "
                f"{self.tracker.num_levels}")


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
    write_file(path, [DEFAULT_CONFIG_TEXT.encode()])


class ConfigError(InputError):
    """Invalid run config or scenario file; names the file and the key."""

    def __init__(self, path, key: tuple, message: str):
        where = ".".join(map(str, key)) or "(top level)"
        super().__init__(f"{path}: {where}: {message}")


# YAML 1.1 reads a float only with a dot and a signed exponent; this
# resolver reads the other exponent floats too (1e-6, -1e9, .5e3).
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?"
                             r"|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$")


def _read_yaml(path):
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                                 list("-+.0123456789"))
    with open(path, "rb") as fh:
        try:
            return yaml.load(fh, Loader)
        except yaml.YAMLError as exc:  # bytes that are not UTF-8 too
            # marks of a stream quote no source line: the message is one line
            message = " ".join(str(exc).split())
            raise ConfigError(path, (), f"invalid YAML: {message}") from exc
        except RecursionError:
            raise ConfigError(path, (),
                              "invalid YAML: nested too deep") from None


def _load(path, cls):
    """The YAML file as cls by ``typed``; omitted keys keep cls's defaults.
    Unknown keys, values of the wrong kind and values cls rejects are
    ConfigErrors naming the file and the key."""
    try:
        return typed(_read_yaml(path), cls, default=cls())
    except FieldError as exc:
        raise ConfigError(path, exc.where, exc.message) from exc


def load_config(path=None) -> AppConfig:
    """Load a YAML run config (``_load``); no path gives the defaults."""
    return AppConfig() if path is None else _load(path, AppConfig)


# ---------------------------------------------------------------------------
# scenario files

def load_scenario(path) -> ScenarioConfig:
    """Load a scenario YAML (``_load``)."""
    return _load(path, ScenarioConfig)
