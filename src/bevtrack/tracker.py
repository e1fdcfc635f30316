"""Two-stage tracking-by-detection over oriented BEV boxes.

Per frame: every tracklet is Kalman-predicted, detections are matched
first by multi-clue appearance similarity, leftovers by cascaded
scale-aware buffered IoU (largest level first, candidates restricted to
adjacent levels), stale tracklets are dropped, and confident unmatched
detections open new tracklets.

One tracker instance owns one sequence; frames must arrive in order.
Distinct sequences run in parallel with independent instances.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import motion
from .association import (AppearanceState, ClueWeights, CostMatrix,
                          build_similarity_matrix, solve_assignment,
                          stack_appearance, unstack_appearance)
from .geometry import (DEFAULT_SCALE_BREAKPOINTS, RECT_COLUMNS, Box3D,
                       box_rows, buffered_iou_matrix, footprint_levels,
                       is_number, wrap_angle)
from .motion import KalmanState, NoiseConfig


@dataclass(frozen=True)
class Detection:
    """The unchecked row view ``frame[i]`` gives; as_frame checks a list."""

    box: Box3D
    score: float
    appearance: AppearanceState
    scale_level: int
    timestamp: float = 0.0
    frame_id: int | None = None


def first_bad_row(boxes, scores, levels, emb) -> tuple[int, str] | None:
    """(row, message) of the first bad row, else None. Rules, in record
    order: box finite, dims > 0; e_* finite; score in [0, 1]; level >= 0."""
    ok = np.array([np.isfinite(boxes).all(axis=1),
                   (boxes[:, 3:6] > 0).all(axis=1),
                   *np.isfinite(emb).all(axis=2).T,
                   (scores >= 0.0) & (scores <= 1.0), levels >= 0], dtype=bool)
    if ok.all():
        return None
    row = int(np.argmin(ok.all(axis=0)))
    box = boxes[row].tolist()
    return row, (
        f"box fields must be finite, got ({', '.join(map(str, box))})",
        f"box dims must be positive, got ({box[3]}, {box[4]}, {box[5]})",
        *(f"{key} contains NaN/Inf" for key in ("e_img", "e_bev", "e_head")),
        f"score must be in [0, 1], got {float(scores[row])}",
        "scale_level must be non-negative")[int(np.argmin(ok[:, row]))]


@dataclass(frozen=True)
class DetectionFrame:
    """One frame's detections as row-aligned arrays, in log order, as
    ``from_rows`` builds them for the simulator, ``io`` ingest and
    ``as_frame``. frame_id and timestamp are None when unknown: a frame
    built from an empty list has neither, a bare empty-frame marker no
    timestamp. Every frame checks, however built, that its rows align and
    pass ``first_bad_row``, and that its timestamp is finite or None.
    Indexing and iteration give ``Detection`` objects.
    """

    frame_id: int | None
    timestamp: float | None
    boxes: np.ndarray   # (N, 7) box_rows order; yaw in (-pi, pi]
    scores: np.ndarray  # (N,) float64 in [0, 1]
    levels: np.ndarray  # (N,) int64 scale levels >= 0
    emb: np.ndarray     # (N, 3, C) (e_img, e_bev, e_head) rows

    def __post_init__(self):
        n, shapes = len(self.scores), tuple(map(np.shape, (
            self.boxes, self.scores, self.levels, self.emb)))
        if shapes[:3] != ((n, 7), (n,), (n,)) or shapes[3][:2] != (n, 3) \
                or len(shapes[3]) != 3:
            raise ValueError("detection rows must have shapes (N, 7), (N,), "
                             f"(N,) and (N, 3, C), got {shapes}")
        if self.timestamp is not None and not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp}")
        bad = first_bad_row(self.boxes, self.scores, self.levels, self.emb)
        if bad is not None:
            raise ValueError("detection {}: {}".format(*bad))

    @classmethod
    def from_rows(cls, frame_id: int | None, timestamp: float | None, boxes,
                  scores, levels, emb,
                  breakpoints: Sequence[float] = DEFAULT_SCALE_BREAKPOINTS,
                  ) -> "DetectionFrame":
        """A frame of N row-aligned values, cast to float64 and int64:
        boxes (N, 7) with each yaw wrapped as ``Box3D`` wraps it, scores,
        levels, of which each None is the footprint level of its box's
        length * width (``footprint_levels``), and embeddings (N, 3, C)."""
        boxes = np.array(boxes, dtype=np.float64).reshape(len(boxes), 7)
        levels = np.array(levels, dtype=object)
        missing = np.equal(levels, None)
        with np.errstate(all="ignore"):  # bad rows are __post_init__'s to name
            boxes[:, 6] = wrap_angle(boxes[:, 6])
            levels[missing] = footprint_levels(
                boxes[missing, 3] * boxes[missing, 4], breakpoints)
        return cls(frame_id, None if timestamp is None else float(timestamp),
                   boxes, np.array(scores, dtype=np.float64),
                   levels.astype(np.int64), np.array(emb, dtype=np.float64))

    @classmethod
    def empty(cls, frame_id: int | None = None) -> "DetectionFrame":
        return cls(frame_id, None, np.zeros((0, 7)), np.zeros(0),
                   np.zeros(0, dtype=np.int64), np.zeros((0, 3, 0)))

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i: int) -> Detection:
        return Detection(Box3D(*self.boxes[i].tolist()), float(self.scores[i]),
                         AppearanceState(*self.emb[i]), int(self.levels[i]),
                         self.timestamp, self.frame_id)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def as_frame(detections) -> DetectionFrame:
    """A DetectionFrame as is; a list of one frame's Detections as their
    rows, with the first one's frame id and timestamp."""
    if isinstance(detections, DetectionFrame):
        return detections
    if not detections:
        return DetectionFrame.empty()
    first = detections[0]
    return DetectionFrame.from_rows(
        first.frame_id, first.timestamp, box_rows([d.box for d in detections]),
        [d.score for d in detections], [d.scale_level for d in detections],
        stack_appearance([d.appearance for d in detections]))


@dataclass
class Tracklet:
    """Persistent identity: motion state, smoothed appearance, lifecycle."""

    id: int
    kalman: KalmanState
    appearance: AppearanceState
    scale_level: int
    hits: int = 1
    time_since_update: int = 0
    last_score: float = 0.0

    def predicted_box(self) -> Box3D:
        return motion.state_to_box(self.kalman)


@dataclass(frozen=True)
class TrackerConfig:
    clue_weights: ClueWeights = field(default_factory=ClueWeights)
    similarity_gate: float = 0.3
    iou_threshold: float = 0.1
    # footprint buffer ratio per scale level, smallest level first; levels
    # past the table take its last ratio
    buffer_ratios: tuple[float, ...] = (0.5, 0.4, 0.3, 0.2, 0.1)
    init_score_threshold: float = 0.5
    max_age: int = 0
    ema_alpha: float = 0.9
    num_levels: int = 5
    # ablation switches: disable stage 1 / footprint buffering / per-level
    # cascading (flat stage-2 assignment)
    use_multi_clue: bool = True
    use_buffer: bool = True
    use_cascade: bool = True

    def __post_init__(self):
        for name in ("max_age", "num_levels"):
            if not is_number(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name}: must be an integer")
        for name in ("iou_threshold", "init_score_threshold", "ema_alpha"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name}: must be in [0, 1]")
        if self.max_age < 0:
            raise ValueError("max_age: must be >= 0")
        if self.num_levels < 1:
            raise ValueError("num_levels: must be >= 1")
        ratios = self.buffer_ratios
        if not all(is_number(r, numbers.Real) for r in ratios):
            raise ValueError("buffer_ratios: each must be a real number")
        if not ratios or min(ratios) < 0:
            raise ValueError("buffer_ratios: must be non-empty and >= 0")
        if any(a < b for a, b in zip(ratios, ratios[1:])):
            raise ValueError("buffer_ratios: must be non-increasing from "
                             "smallest to largest scale level")


@dataclass
class StepInfo:
    """Diagnostics for one step: which stage produced which match."""

    stage1: list[tuple[int, int]] = field(default_factory=list)  # (track_id, det_idx)
    stage2: list[tuple[int, int]] = field(default_factory=list)
    stage2_level_gaps: list[int] = field(default_factory=list)
    new_track_ids: list[int] = field(default_factory=list)
    deleted_track_ids: list[int] = field(default_factory=list)


@dataclass
class TrackRows:
    """Row-aligned state of the live tracklets, one row each, birth order."""

    mean: np.ndarray          # (N, 10) Kalman means
    var: np.ndarray           # (N, 10) Kalman variances
    cross: np.ndarray         # (N, 3) position-velocity covariances
    emb: np.ndarray           # (N, 3, C) raw (img, bev, head) embeddings
    ids: np.ndarray           # (N,) int64
    levels: np.ndarray        # (N,) int64 scale levels
    hits: np.ndarray          # (N,) int64
    since_update: np.ndarray  # (N,) int64 frames since the last match
    last_score: np.ndarray    # (N,) float64

    @classmethod
    def empty(cls) -> "TrackRows":
        return cls(np.zeros((0, motion.STATE_DIM)),
                   np.zeros((0, motion.STATE_DIM)), np.zeros((0, 3)),
                   np.zeros((0, 3, 0)),
                   *(np.zeros(0, dtype=np.int64) for _ in range(4)),
                   np.zeros(0))

    def __len__(self) -> int:
        return len(self.ids)

    def kalman(self, rows=slice(None)) -> KalmanState:
        return KalmanState(self.mean[rows], self.var[rows], self.cross[rows])

    def select(self, rows) -> "TrackRows":
        """The given rows (index array or boolean mask), as copies."""
        return TrackRows(*(getattr(self, f.name)[rows] for f in fields(self)))

    def concat(self, other: "TrackRows") -> "TrackRows":
        if not len(self):
            return other
        return TrackRows(*(np.concatenate([getattr(self, f.name),
                                           getattr(other, f.name)])
                           for f in fields(self)))

    def records(self, rows=None) -> list[Tracklet]:
        """Tracklet snapshots of the given rows, default all (the arrays
        are copied)."""
        snap = self.select(np.arange(len(self)) if rows is None else rows)
        return [Tracklet(tid, snap.kalman(i), app, level, hits, since, score)
                for i, (tid, app, level, hits, since, score)
                in enumerate(zip(
                    snap.ids.tolist(), unstack_appearance(snap.emb),
                    snap.levels.tolist(), snap.hits.tolist(),
                    snap.since_update.tolist(), snap.last_score.tolist()))]


class Tracker:
    """Stateful per-sequence tracker; see module docstring for the flow.

    The tracklets live as one ``TrackRows``; each step predicts, updates
    and blends all of its rows with one array operation each.
    """

    def __init__(self, cfg: TrackerConfig | None = None,
                 noise: NoiseConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.noise = noise or NoiseConfig()
        self.rows = TrackRows.empty()
        self.last_info = StepInfo()
        self._next_id = 1
        self._last_frame_id: int | None = None
        # stage-2 buffer ratio per scale level
        ratios, last = self.cfg.buffer_ratios, len(self.cfg.buffer_ratios) - 1
        self._buffer_ratios = np.array(
            [ratios[min(level, last)] if self.cfg.use_buffer else 0.0
             for level in range(self.cfg.num_levels)], dtype=float)

    @property
    def tracklets(self) -> list[Tracklet]:
        """Snapshots of the live tracklets, in birth order."""
        return self.rows.records()

    def active_outputs(self) -> list[Tracklet]:
        """Tracklets updated or created this frame (the ones to report)."""
        return self.rows.records(self.rows.since_update == 0)

    def step(self, detections: DetectionFrame | list[Detection], dt: float,
             frame_id: int | None = None) -> list[tuple[int, int]]:
        """Process one frame, a DetectionFrame or a list of Detections
        (converted by ``as_frame``); returns (track_id, det_idx) matches
        sorted by detection index (new tracklets included)."""
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        frame = as_frame(detections)
        frame_id = _next_frame_id(frame.frame_id if frame_id is None
                                  else frame_id, self._last_frame_id, 1)
        cfg = self.cfg
        det_levels, det_scores, det_emb = frame.levels, frame.scores, frame.emb
        bad = det_levels[det_levels >= cfg.num_levels]
        if bad.size:
            raise ValueError(f"detection scale level {bad[0]} outside "
                             f"[0, {cfg.num_levels})")
        self._last_frame_id = frame_id
        info = StepInfo()
        rows = self.rows

        if len(rows):
            kf = motion.predict(rows.kalman(), dt, self.noise)
            rows.mean, rows.var, rows.cross = kf.mean, kf.var, kf.cross
        free_dets = np.ones(len(frame), dtype=bool)
        free_trks = np.ones(len(rows), dtype=bool)
        ids = rows.ids.tolist()

        pairs = []
        if cfg.use_multi_clue and len(frame) and len(rows):
            cost = build_similarity_matrix(det_emb, rows.emb,
                                           cfg.clue_weights,
                                           cfg.similarity_gate)
            pairs = solve_assignment(cost)
            info.stage1 = [(ids[ti], di) for di, ti in pairs]
            for di, ti in pairs:
                free_dets[di] = free_trks[ti] = False

        stage2 = self._match_iou(frame, free_dets, free_trks)
        for di, ti in stage2:
            info.stage2.append((ids[ti], di))
            info.stage2_level_gaps.append(
                abs(int(det_levels[di]) - int(rows.levels[ti])))
            free_dets[di] = free_trks[ti] = False
        pairs += stage2

        if pairs:
            d_sel, t_sel = (np.array(p, dtype=np.int64) for p in zip(*pairs))
            kf = motion.update(rows.kalman(t_sel), frame.boxes[d_sel],
                               self.noise)
            rows.mean[t_sel], rows.var[t_sel] = kf.mean, kf.var
            rows.cross[t_sel] = kf.cross
            alpha = cfg.ema_alpha
            rows.emb[t_sel] = alpha * rows.emb[t_sel] + (1.0 - alpha) * det_emb[d_sel]
            rows.levels[t_sel] = det_levels[d_sel]
            rows.hits[t_sel] += 1
            rows.since_update[t_sel] = 0
            rows.last_score[t_sel] = det_scores[d_sel]
        rows.since_update[free_trks] += 1

        dead = rows.since_update > cfg.max_age
        if dead.any():
            info.deleted_track_ids = rows.ids[dead].tolist()
            rows = rows.select(~dead)

        matches = info.stage1 + info.stage2
        born = np.flatnonzero(
            free_dets & (det_scores > cfg.init_score_threshold)).tolist()
        if born:
            new_ids = list(range(self._next_id, self._next_id + len(born)))
            self._next_id += len(born)
            state = motion.init_state(frame.boxes[born], self.noise)
            ones = np.ones(len(born), dtype=np.int64)
            rows = rows.concat(TrackRows(
                state.mean, state.var, state.cross, det_emb[born],
                np.array(new_ids, dtype=np.int64), det_levels[born], ones,
                np.zeros_like(ones), det_scores[born]))
            info.new_track_ids = new_ids
            matches += zip(new_ids, born)

        self.rows = rows
        self.last_info = info
        return sorted(matches, key=lambda m: m[1])

    def _match_iou(self, frame: DetectionFrame, free_dets, free_trks):
        """Stage 2: buffered-IoU assignment, cascaded by scale level.

        Levels run from largest to smallest; detections of level l may
        only match tracklets of levels l-1, l, l+1 that are still free.
        Without cascading all leftovers meet in one flat assignment.
        The free detections' and rows' rectangles and buffer ratios are
        built once; each group slices them. Returns (det_idx, row) pairs.
        """
        det_ids = np.flatnonzero(free_dets)
        trk_ids = np.flatnonzero(free_trks)
        if not len(det_ids) or not len(trk_ids):
            return []
        cfg, ratios = self.cfg, self._buffer_ratios
        det_lv, trk_lv = frame.levels[det_ids], self.rows.levels[trk_ids]
        det_rects = frame.boxes[det_ids][:, RECT_COLUMNS]
        trk_rects = motion.state_rects(self.rows.kalman(trk_ids))

        def solve(d, t):
            """Matches between positions d of det_ids and t of trk_ids."""
            if not len(d) or not len(t):
                return []
            iou = buffered_iou_matrix(det_rects[d], trk_rects[t],
                                      ratios[det_lv[d]], ratios[trk_lv[t]])
            cost = CostMatrix(values=-iou, gate_mask=iou >= cfg.iou_threshold)
            return [(d[i], t[j]) for i, j in solve_assignment(cost)]

        if not cfg.use_cascade:
            pairs = solve(np.arange(len(det_ids)), np.arange(len(trk_ids)))
        else:
            pairs = []
            free = np.ones(len(trk_ids), dtype=bool)
            for level in range(cfg.num_levels - 1, -1, -1):
                group = solve(np.flatnonzero(det_lv == level), np.flatnonzero(
                    free & (np.abs(trk_lv - level) <= 1)))
                free[[t for _, t in group]] = False
                pairs += group
        return [(int(det_ids[d]), int(trk_ids[t])) for d, t in pairs]


def _next_frame_id(own: int | None, last: int | None, first: int) -> int:
    frame_id = own if own is not None else first if last is None else last + 1
    if last is not None and frame_id <= last:
        raise ValueError(f"frame {frame_id} does not follow frame {last}: "
                         "frame ids must increase")
    return frame_id


def number_frames(det_frames):
    """(frame_id, DetectionFrame) per frame of Detection lists or frames,
    by ``as_frame``: the frame's own id, else the previous id + 1, else (a
    leading frame without one) the frame's index. Ids must increase."""
    frame_id = None
    for idx, dets in enumerate(det_frames):
        frame = as_frame(dets)
        frame_id = _next_frame_id(frame.frame_id, frame_id, idx)
        yield frame_id, frame


def track_stream(frames, cfg: TrackerConfig | None = None,
                 noise: NoiseConfig | None = None, frame_dt: float = 0.1):
    """One Tracker.step per (frame_id, DetectionFrame) pair, as
    ``number_frames`` and ``io.iter_detection_frames`` give them. Yields
    (frame_id, matches, StepInfo, outputs): (track_id, posterior box,
    score, level) of the tracklets matched or born this frame, by
    ascending id.

    A frame whose timestamp passes the clock steps by the difference; any
    other frame steps by the previous dt (frame_dt at first), and a frame
    without a timestamp (an empty one from a list or a bare marker)
    advances the clock by it."""
    trk = Tracker(cfg, noise)
    clock = dt = None
    for frame_id, frame in frames:
        ts = frame.timestamp
        if ts is not None and clock is not None and ts > clock:
            dt = ts - clock
        elif dt is None:
            dt = frame_dt
        if ts is None and clock is not None:  # an empty frame, no timestamp
            ts = clock + dt
        clock = ts
        matches = trk.step(frame, dt, frame_id=frame_id)
        rows = trk.rows
        out = rows.since_update == 0  # rows are in birth order: ids ascend
        yield frame_id, matches, trk.last_info, list(zip(
            rows.ids[out].tolist(), motion.state_to_box(rows.kalman(out)),
            rows.last_score[out].tolist(), rows.levels[out].tolist()))


def run_sequence(det_frames, cfg: TrackerConfig | None = None,
                 noise: NoiseConfig | None = None, default_dt: float = 0.1,
                 ) -> tuple[dict[int, list[tuple[int, Box3D, float]]],
                            list[StepInfo]]:
    """Track a whole sequence of per-frame detection lists, numbered by
    ``number_frames`` and stepped by ``track_stream``. Returns ({frame_id:
    [(track_id, posterior box, score), ...]}, per-frame StepInfo)."""
    outputs: dict[int, list[tuple[int, Box3D, float]]] = {}
    infos: list[StepInfo] = []
    for frame_id, _matches, info, outs in track_stream(
            number_frames(det_frames), cfg, noise, default_dt):
        infos.append(info)
        outputs[frame_id] = [(tid, box, score) for tid, box, score, _ in outs]
    return outputs, infos
