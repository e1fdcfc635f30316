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
from dataclasses import dataclass, field

from . import motion
from .association import (AppearanceState, ClueWeights, CostMatrix,
                          build_similarity_matrix, solve_assignment)
from .geometry import Box3D, BufferRatioTable, buffered_iou_matrix
from .motion import KalmanState, NoiseConfig


@dataclass(frozen=True)
class Detection:
    """One frame observation: box, confidence, embeddings, scale level."""

    box: Box3D
    score: float
    appearance: AppearanceState
    scale_level: int
    timestamp: float = 0.0
    frame_id: int = 0

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp}")
        if self.scale_level < 0:
            raise ValueError("scale_level must be non-negative")


@dataclass
class Tracklet:
    """Persistent identity: motion state, smoothed appearance, lifecycle."""

    id: int
    kalman: KalmanState
    appearance: AppearanceState
    scale_level: int
    hits: int = 1
    time_since_update: int = 0
    created_at: int = 0
    last_score: float = 0.0

    def predicted_box(self) -> Box3D:
        return motion.state_to_box(self.kalman)


@dataclass(frozen=True)
class TrackerConfig:
    clue_weights: ClueWeights = field(default_factory=ClueWeights)
    similarity_gate: float = 0.3
    iou_threshold: float = 0.1
    buffer_ratios: BufferRatioTable = field(default_factory=BufferRatioTable)
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
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if not 0.0 <= self.init_score_threshold <= 1.0:
            raise ValueError("init_score_threshold must be in [0, 1]")
        if not 0.0 <= self.ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in [0, 1]")
        if self.max_age < 0:
            raise ValueError("max_age must be >= 0")
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")

    def ratio_for(self, level: int) -> float:
        if not self.use_buffer:
            return 0.0
        return self.buffer_ratios.ratio(level)


def update_appearance(t: Tracklet, d: Detection, alpha: float) -> AppearanceState:
    """Per-clue exponential smoothing: alpha*old + (1-alpha)*new."""
    return t.appearance.blend(d.appearance, alpha)


@dataclass
class StepInfo:
    """Diagnostics for one step: which stage produced which match."""

    stage1: list[tuple[int, int]] = field(default_factory=list)  # (track_id, det_idx)
    stage2: list[tuple[int, int]] = field(default_factory=list)
    stage2_level_gaps: list[int] = field(default_factory=list)
    new_track_ids: list[int] = field(default_factory=list)
    deleted_track_ids: list[int] = field(default_factory=list)


class Tracker:
    """Stateful per-sequence tracker; see module docstring for the flow."""

    def __init__(self, cfg: TrackerConfig | None = None,
                 noise: NoiseConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.noise = noise or NoiseConfig()
        self.tracklets: list[Tracklet] = []
        self.last_info = StepInfo()
        self._next_id = 1
        self._last_frame_id: int | None = None

    def _issue_id(self) -> int:
        issued = self._next_id
        self._next_id += 1
        return issued

    def step(self, detections: list[Detection], dt: float,
             frame_id: int | None = None) -> list[tuple[int, int]]:
        """Process one frame; returns (track_id, det_idx) matches sorted by
        detection index (new tracklets included)."""
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if frame_id is None:
            frame_id = detections[0].frame_id if detections else (
                (self._last_frame_id or 0) + 1)
        if self._last_frame_id is not None and frame_id <= self._last_frame_id:
            raise ValueError(f"frame {frame_id} does not follow frame "
                             f"{self._last_frame_id}: frame ids must increase")
        self._last_frame_id = frame_id
        for det in detections:
            if det.scale_level >= self.cfg.num_levels:
                raise ValueError(
                    f"detection scale level {det.scale_level} outside "
                    f"[0, {self.cfg.num_levels})")
        info = StepInfo()
        cfg = self.cfg

        for trk in self.tracklets:
            trk.kalman = motion.predict(trk.kalman, dt, self.noise)

        unmatched_dets = list(range(len(detections)))
        unmatched_trks = list(range(len(self.tracklets)))

        if cfg.use_multi_clue:
            pairs = self._match_appearance(detections, unmatched_dets,
                                           unmatched_trks)
            for di, ti in pairs:
                info.stage1.append((self.tracklets[ti].id, di))
                self._apply_match(ti, detections[di])
                unmatched_dets.remove(di)
                unmatched_trks.remove(ti)

        pairs = self._match_iou(detections, unmatched_dets, unmatched_trks)
        for di, ti in pairs:
            trk = self.tracklets[ti]
            info.stage2.append((trk.id, di))
            info.stage2_level_gaps.append(
                abs(detections[di].scale_level - trk.scale_level))
            self._apply_match(ti, detections[di])
            unmatched_dets.remove(di)
            unmatched_trks.remove(ti)

        for ti in unmatched_trks:
            self.tracklets[ti].time_since_update += 1
        survivors = []
        for trk in self.tracklets:
            if trk.time_since_update > cfg.max_age:
                info.deleted_track_ids.append(trk.id)
            else:
                survivors.append(trk)
        self.tracklets = survivors

        matches = info.stage1 + info.stage2
        for di in unmatched_dets:
            det = detections[di]
            if det.score > cfg.init_score_threshold:
                trk = Tracklet(
                    id=self._issue_id(),
                    kalman=motion.init_state(det.box, self.noise),
                    appearance=det.appearance,
                    scale_level=det.scale_level,
                    created_at=frame_id,
                    last_score=det.score,
                )
                self.tracklets.append(trk)
                info.new_track_ids.append(trk.id)
                matches.append((trk.id, di))

        self.last_info = info
        return sorted(matches, key=lambda m: m[1])

    def active_outputs(self) -> list[Tracklet]:
        """Tracklets updated or created this frame (the ones to report)."""
        return [t for t in self.tracklets if t.time_since_update == 0]

    def _apply_match(self, ti: int, det: Detection) -> None:
        trk = self.tracklets[ti]
        trk.kalman = motion.update(trk.kalman, det.box, self.noise)
        trk.appearance = update_appearance(trk, det, self.cfg.ema_alpha)
        trk.scale_level = det.scale_level
        trk.hits += 1
        trk.time_since_update = 0
        trk.last_score = det.score

    def _match_appearance(self, detections, det_ids, trk_ids):
        """Stage 1: gated multi-clue similarity over all tracklets."""
        if not det_ids or not trk_ids:
            return []
        cost = build_similarity_matrix(
            [detections[i].appearance for i in det_ids],
            [self.tracklets[j].appearance for j in trk_ids],
            self.cfg.clue_weights, self.cfg.similarity_gate)
        return [(det_ids[i], trk_ids[j]) for i, j in solve_assignment(cost)]

    def _match_iou(self, detections, det_ids, trk_ids):
        """Stage 2: buffered-IoU assignment, cascaded by scale level.

        Levels run from largest to smallest; detections of level l may
        only match tracklets of levels l-1, l, l+1 that are still free.
        Without cascading all leftovers meet in one flat assignment.
        """
        if not det_ids or not trk_ids:
            return []
        cfg = self.cfg
        if not cfg.use_cascade:
            return self._solve_iou_group(detections, list(det_ids), list(trk_ids))
        matched: list[tuple[int, int]] = []
        free_trks = list(trk_ids)
        for level in range(cfg.num_levels - 1, -1, -1):
            sel_dets = [i for i in det_ids
                        if detections[i].scale_level == level]
            sel_trks = [j for j in free_trks
                        if abs(self.tracklets[j].scale_level - level) <= 1]
            pairs = self._solve_iou_group(detections, sel_dets, sel_trks)
            for di, ti in pairs:
                matched.append((di, ti))
                free_trks.remove(ti)
        return matched

    def _solve_iou_group(self, detections, det_ids, trk_ids):
        if not det_ids or not trk_ids:
            return []
        cfg = self.cfg
        det_boxes = [detections[i].box for i in det_ids]
        det_ratios = [cfg.ratio_for(detections[i].scale_level) for i in det_ids]
        trk_boxes = [self.tracklets[j].predicted_box() for j in trk_ids]
        trk_ratios = [cfg.ratio_for(self.tracklets[j].scale_level)
                      for j in trk_ids]
        iou = buffered_iou_matrix(det_boxes, trk_boxes, det_ratios, trk_ratios)
        cost = CostMatrix(values=-iou, gate_mask=iou >= cfg.iou_threshold)
        return [(det_ids[i], trk_ids[j]) for i, j in solve_assignment(cost)]


def run_sequence(det_frames, cfg: TrackerConfig | None = None,
                 noise: NoiseConfig | None = None, default_dt: float = 0.1,
                 ) -> tuple[dict[int, list[tuple[int, Box3D, float]]],
                            list[StepInfo]]:
    """Track a whole sequence of per-frame detection lists.

    Returns ({frame_id: [(track_id, posterior box, score), ...]}, per-frame
    StepInfo). dt comes from detection timestamps where available.
    """
    trk = Tracker(cfg, noise)
    outputs: dict[int, list[tuple[int, Box3D, float]]] = {}
    infos: list[StepInfo] = []
    prev_ts: float | None = None
    prev_id: int | None = None
    for idx, dets in enumerate(det_frames):
        if dets:
            frame_id = dets[0].frame_id
        else:
            frame_id = idx if prev_id is None else prev_id + 1
        prev_id = frame_id
        ts = dets[0].timestamp if dets else None
        dt = default_dt
        if ts is not None and prev_ts is not None and ts > prev_ts:
            dt = ts - prev_ts
        if ts is not None:
            prev_ts = ts
        trk.step(list(dets), dt, frame_id=frame_id)
        infos.append(trk.last_info)
        outputs[frame_id] = [
            (t.id, t.predicted_box(), t.last_score)
            for t in sorted(trk.active_outputs(), key=lambda t: t.id)
        ]
    return outputs, infos
