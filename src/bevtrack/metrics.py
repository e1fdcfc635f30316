"""Tracking evaluation: AMOTA, AMOTP, MOTA, recall, IDS, MT.

Matching follows the nuScenes convention: per frame, predictions sorted by
descending confidence greedily take the nearest unmatched ground-truth
object within a BEV center-distance threshold. Because greedy matching by
descending score is prefix-stable under confidence filtering, the sweep
over recall thresholds reuses one base matching. Its TPs form one table of
row-aligned arrays, sorted once by (GT, frame); a threshold keeps rows with
one boolean mask, and an identity switch (CLEAR MOT) is a pair of
neighbouring kept rows of one GT whose track ids differ.

AMOTA averages MOTAR over evenly spaced target recall levels, where
MOTAR = max(0, 1 - (IDS + FP + FN - (1 - r) * P) / (r * P)) evaluated at
the recall r actually achieved by the confidence threshold that first
reaches the target. Unreachable targets contribute 0. Invisible ground
truth rows (occluded objects) are excluded from evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import AtLeastOne, Box3D, InputError, Positive, check_fields
from .simulator import GroundTruthFrame

Pred = tuple[int, Box3D, float]  # (track_id, box, score)


@dataclass(frozen=True)
class EvalConfig:
    match_distance: Positive = 2.0  # meters, BEV center distance for a TP
    recall_thresholds: AtLeastOne = 40

    def __post_init__(self):
        check_fields(self)


@dataclass
class MetricsReport:
    amota: float
    amotp: float
    mota: float
    recall: float
    ids: int
    fp: int
    fn: int
    mt: int
    num_gt: int
    per_threshold: list[dict] = field(default_factory=list)


def match_frame(gt: GroundTruthFrame, preds: Sequence[Pred],
                match_distance: float) -> tuple[list[tuple[int, int, float]],
                                                list[int], list[int]]:
    """Greedy per-frame matching.

    Returns (tp pairs as (gt_id, track_id, distance), fp track_ids,
    fn gt_ids). Predictions are processed in descending score order (ties
    by ascending track id) and take the nearest free visible GT within
    match_distance.
    """
    free = {gid: (box.cx, box.cy) for gid, box, vis in gt.objects if vis}
    tps: list[tuple[int, int, float]] = []
    fps: list[int] = []
    for track_id, box, _score in sorted(preds, key=lambda p: (-p[2], p[0])):
        best_gid = None
        best_dist = match_distance
        for gid, (cx, cy) in free.items():
            d = math.hypot(box.cx - cx, box.cy - cy)
            if d <= best_dist:
                best_gid, best_dist = gid, d
        if best_gid is None:
            fps.append(track_id)
        else:
            tps.append((best_gid, track_id, best_dist))
            del free[best_gid]
    return tps, fps, sorted(free)


def evaluate(gt_frames: Sequence[GroundTruthFrame],
             tracker_output: dict[int, list[Pred]],
             cfg: EvalConfig | None = None) -> MetricsReport:
    """Score tracker output against ground truth.

    tracker_output maps frame_id to that frame's predictions. Ground-truth
    frame ids must be unique, gt_ids unique within a frame, and every
    predicted frame id must exist in the ground truth; a breach, or ground
    truth with no visible object, is an ``InputError``.
    """
    cfg = cfg or EvalConfig()
    # ids are any Python int, so they enter the arrays as dense codes
    gt_code: dict[int, int] = {}
    visible_codes: list[int] = []
    frame_ids: set[int] = set()
    for g in gt_frames:
        if g.frame_id in frame_ids:
            raise InputError(f"frame {g.frame_id} repeated in the ground "
                             "truth")
        frame_ids.add(g.frame_id)
        seen: set[int] = set()
        for gid, _box, vis in g.objects:
            if gid in seen:
                raise InputError(f"gt_id {gid} repeated in frame {g.frame_id}")
            seen.add(gid)
            if vis:
                visible_codes.append(gt_code.setdefault(gid, len(gt_code)))
    frame_rank = {f: r for r, f in enumerate(sorted(frame_ids))}
    for frame_id in tracker_output:
        if frame_id not in frame_rank:
            raise InputError(f"prediction for unknown frame {frame_id}")

    num_gt = len(visible_codes)
    if num_gt == 0:
        raise InputError("ground truth is empty; recall is undefined")
    num_preds = sum(len(v) for v in tracker_output.values())

    # the TP table of the all-predictions matching, in matching order:
    # (frame rank, gt code, track code, score, distance)
    track_code: dict[int, int] = {}
    rows: list[tuple[int, int, int, float, float]] = []
    for g in gt_frames:
        preds = tracker_output.get(g.frame_id, [])
        tps, _fps, _fns = match_frame(g, preds, cfg.match_distance)
        # a repeated track id takes its first occurrence's score
        score_of = {tid: s for tid, _box, s in reversed(preds)}
        rows.extend((frame_rank[g.frame_id], gt_code[gid],
                     track_code.setdefault(tid, len(track_code)),
                     score_of[tid], dist) for gid, tid, dist in tps)
    cols = list(zip(*rows)) or [()] * 5
    frame, gt, track = (np.array(c, dtype=np.intp) for c in cols[:3])
    score, dist = np.array(cols[3]), np.array(cols[4])

    order = np.lexsort((frame, gt))  # by GT, then frame
    gt_sorted, track_sorted = gt[order], track[order]

    def switches(keep: np.ndarray) -> int:
        k = keep[order]
        g, t = gt_sorted[k], track_sorted[k]
        return int(np.count_nonzero((g[1:] == g[:-1]) & (t[1:] != t[:-1])))

    # full-set (no confidence cut) CLEAR numbers
    tp_total = len(rows)
    fp_total = num_preds - tp_total
    fn_total = num_gt - tp_total
    ids_total = switches(np.ones(tp_total, dtype=bool))
    mota = 1.0 - (ids_total + fp_total + fn_total) / num_gt
    recall = tp_total / num_gt
    matched = np.bincount(gt, minlength=len(gt_code))
    mt = int(np.count_nonzero(matched >= 0.8 * np.bincount(visible_codes)))

    # confidence sweep: target recalls k/n, threshold = score of the
    # ceil(r*P)-th TP in descending-score order
    tp_scores = np.sort(score)[::-1]
    all_scores = np.sort(np.array(
        [s for preds in tracker_output.values() for (_t, _b, s) in preds]))[::-1]
    n_thr = cfg.recall_thresholds
    motars: list[float] = []
    amotp_terms: list[float] = []
    per_threshold: list[dict] = []
    for k in range(1, n_thr + 1):
        target = k / n_thr
        need = math.ceil(target * num_gt)
        if need > tp_total:
            motars.append(0.0)
            per_threshold.append({"target_recall": target, "reachable": False,
                                  "motar": 0.0})
            continue
        thr = tp_scores[need - 1]
        keep = score >= thr
        tp_k = int(keep.sum())
        pred_k = int(np.searchsorted(-all_scores, -thr, side="right"))
        fp_k = pred_k - tp_k
        fn_k = num_gt - tp_k
        ids_k = switches(keep)
        r_ach = tp_k / num_gt
        motar = max(0.0, 1.0 - (ids_k + fp_k + fn_k - (1.0 - r_ach) * num_gt)
                    / (r_ach * num_gt))
        motars.append(motar)
        amotp_terms.append(float(np.mean(dist[keep])))
        per_threshold.append({
            "target_recall": target, "reachable": True, "threshold": float(thr),
            "achieved_recall": r_ach, "tp": tp_k, "fp": fp_k, "fn": fn_k,
            "ids": ids_k, "motar": motar,
        })

    amota = float(np.mean(motars))
    amotp = float(np.mean(amotp_terms)) if amotp_terms else cfg.match_distance
    return MetricsReport(amota=amota, amotp=amotp, mota=mota, recall=recall,
                         ids=ids_total, fp=fp_total, fn=fn_total, mt=mt,
                         num_gt=num_gt, per_threshold=per_threshold)


def format_report(report: MetricsReport) -> str:
    """Human-readable one-block summary table."""
    lines = [
        f"{'AMOTA':>8}: {report.amota:8.4f}",
        f"{'AMOTP':>8}: {report.amotp:8.4f}",
        f"{'MOTA':>8}: {report.mota:8.4f}",
        f"{'Recall':>8}: {report.recall:8.4f}",
        f"{'IDS':>8}: {report.ids:8d}",
        f"{'FP':>8}: {report.fp:8d}",
        f"{'FN':>8}: {report.fn:8d}",
        f"{'MT':>8}: {report.mt:8d}",
        f"{'GT':>8}: {report.num_gt:8d}",
    ]
    return "\n".join(lines)
