import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevtrack.geometry import Box3D, InputError
from bevtrack.metrics import EvalConfig, evaluate, format_report, match_frame
from bevtrack.simulator import GroundTruthFrame

from oracles import reference_evaluate


def box_at(x, y):
    return Box3D(x, y, 0.8, 4.0, 2.0, 1.6, 0.0)


def gt_frame(frame_id, positions, visible=None):
    visible = visible or [True] * len(positions)
    return GroundTruthFrame(
        frame_id=frame_id, timestamp=0.1 * frame_id,
        objects=tuple((gid, box_at(*pos), vis)
                      for gid, (pos, vis) in enumerate(zip(positions, visible))))


class TestMatchFrame:
    def test_exact_hit(self):
        g = gt_frame(0, [(0, 0)])
        tps, fps, fns = match_frame(g, [(7, box_at(0, 0), 0.9)], 2.0)
        assert tps == [(0, 7, 0.0)]
        assert fps == [] and fns == []

    def test_outside_threshold_is_fp_plus_fn(self):
        g = gt_frame(0, [(0, 0)])
        tps, fps, fns = match_frame(g, [(7, box_at(3.0, 0), 0.9)], 2.0)
        assert tps == []
        assert fps == [7]
        assert fns == [0]

    def test_higher_score_wins_competition(self):
        g = gt_frame(0, [(0, 0)])
        preds = [(1, box_at(0.5, 0), 0.6), (2, box_at(0.2, 0), 0.9)]
        tps, fps, fns = match_frame(g, preds, 2.0)
        assert tps == [(0, 2, pytest.approx(0.2))]
        assert fps == [1]

    def test_invisible_gt_not_matchable(self):
        g = gt_frame(0, [(0, 0)], visible=[False])
        tps, fps, fns = match_frame(g, [(7, box_at(0, 0), 0.9)], 2.0)
        assert tps == [] and fps == [7] and fns == []


def hand_fixture():
    """3 frames, 2 GT objects, one id switch at frame 2, one far FP.

    Full-set numbers: P=6, TP=6, FP=1, IDS=1 -> MOTA = 1 - 2/6 = 0.6667.
    The 40-level sweep by hand: thresholds from the descending TP scores
    (0.95, 0.90, 0.85, 0.80, 0.75, 0.70); targets k/40 need
    ceil(6k/40) TPs, so 26 levels see neither the switch nor any FP
    (MOTAR 1), 7 levels cut at 0.75 (TP=5, IDS=1 -> 1 - 1/5 = 0.8) and 7
    at 0.70 (TP=6, IDS=1 -> 1 - 1/6 = 5/6):
    AMOTA = (26 + 7*0.8 + 7*5/6) / 40 = 0.9358333...
    """
    gt = [gt_frame(f, [(0, 0 + f), (10, f)]) for f in range(3)]
    tracks = {
        0: [(1, box_at(0, 0), 0.95), (2, box_at(10, 0), 0.90)],
        1: [(1, box_at(0, 1), 0.85), (2, box_at(10, 1), 0.80)],
        2: [(9, box_at(0, 2), 0.75), (2, box_at(10, 2), 0.70),
            (3, box_at(50, 50), 0.65)],
    }
    return gt, tracks


HAND_AMOTA = (26 * 1.0 + 7 * 0.8 + 7 * 5 / 6) / 40  # = 0.93583...


class TestEvaluate:
    def test_perfect_tracking(self):
        gt = [gt_frame(f, [(0, f), (10, f)]) for f in range(5)]
        tracks = {f: [(1, box_at(0, f), 0.9), (2, box_at(10, f), 0.8)]
                  for f in range(5)}
        r = evaluate(gt, tracks)
        assert r.amota == pytest.approx(1.0)
        assert r.amotp == pytest.approx(0.0)
        assert r.ids == 0
        assert r.mota == pytest.approx(1.0)
        assert r.recall == pytest.approx(1.0)
        assert r.mt == 2

    def test_no_output(self):
        gt = [gt_frame(f, [(0, f)]) for f in range(3)]
        r = evaluate(gt, {})
        assert r.amota == 0.0
        assert r.recall == 0.0
        assert r.fn == 3

    def test_hand_fixture_mota_and_amota(self):
        gt, tracks = hand_fixture()
        r = evaluate(gt, tracks)
        assert r.mota == pytest.approx(0.6667, abs=1e-4)
        assert r.ids == 1
        assert r.fp == 1
        assert r.fn == 0
        assert r.amota == pytest.approx(HAND_AMOTA, abs=1e-9)
        assert r.amotp == pytest.approx(0.0, abs=1e-12)

    def test_injected_fps_never_raise_amota_or_mota(self):
        gt, tracks = hand_fixture()
        base = evaluate(gt, tracks)
        # nested FP sets: each round piles more far-away predictions onto
        # the previous round's output (independent FP sets need not be
        # ordered)
        rng = np.random.default_rng(3)
        noisy = {f: list(preds) for f, preds in tracks.items()}
        prev_amota, prev_mota = base.amota, base.mota
        tid = 100
        for _round in range(6):
            for _ in range(2):
                f = int(rng.integers(0, 3))
                noisy[f] = noisy[f] + [
                    (tid, box_at(60 + rng.uniform(0, 30), -40),
                     float(rng.uniform(0.05, 0.99)))]
                tid += 1
            r = evaluate(gt, noisy)
            assert r.amota <= prev_amota + 1e-12
            assert r.mota <= prev_mota + 1e-12
            prev_amota, prev_mota = r.amota, r.mota

    def test_relabeling_bijection_gives_zero_ids(self):
        gt = [gt_frame(f, [(0, f), (10, f), (20, f)]) for f in range(6)]
        tracks = {f: [(41, box_at(0, f), 0.9), (17, box_at(10, f), 0.8),
                      (5, box_at(20, f), 0.7)] for f in range(6)}
        assert evaluate(gt, tracks).ids == 0

    def test_permutation_invariance_within_frames(self):
        gt, tracks = hand_fixture()
        base = asdict(evaluate(gt, tracks))
        shuffled = {f: list(reversed(preds)) for f, preds in tracks.items()}
        assert asdict(evaluate(gt, shuffled)) == base

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], {0: []})
        invisible = [gt_frame(0, [(0, 0)], visible=[False])]
        with pytest.raises(ValueError):
            evaluate(invisible, {})

    def test_unknown_frame_rejected(self):
        gt = [gt_frame(0, [(0, 0)])]
        with pytest.raises(ValueError, match="frame 5"):
            evaluate(gt, {5: [(1, box_at(0, 0), 0.9)]})

    def test_occluded_frames_excluded_from_gt_count(self):
        gt = [gt_frame(0, [(0, 0)]),
              gt_frame(1, [(0, 1)], visible=[False]),
              gt_frame(2, [(0, 2)])]
        tracks = {0: [(1, box_at(0, 0), 0.9)], 2: [(1, box_at(0, 2), 0.9)]}
        r = evaluate(gt, tracks)
        assert r.num_gt == 2
        assert r.amota == pytest.approx(1.0)
        assert r.ids == 0

    def test_id_switch_across_occlusion_counts_once(self):
        gt = [gt_frame(0, [(0, 0)]),
              gt_frame(1, [(0, 1)], visible=[False]),
              gt_frame(2, [(0, 2)])]
        tracks = {0: [(1, box_at(0, 0), 0.9)], 2: [(8, box_at(0, 2), 0.9)]}
        assert evaluate(gt, tracks).ids == 1

    def test_mt_requires_80_percent_coverage(self):
        gt = [gt_frame(f, [(0, f)]) for f in range(10)]
        covered = {f: [(1, box_at(0, f), 0.9)] for f in range(8)}  # 8/10
        assert evaluate(gt, covered).mt == 1
        sparse = {f: [(1, box_at(0, f), 0.9)] for f in range(7)}  # 7/10
        assert evaluate(gt, sparse).mt == 0

    def test_duplicate_track_id_scores_by_first_occurrence(self):
        # the far copy of track 5 comes first and is an FP; the near copy
        # is the TP, which is scored with the first occurrence's 0.9
        gt = [gt_frame(0, [(0, 0)])]
        tracks = {0: [(5, box_at(30, 0), 0.9), (5, box_at(0, 0), 0.3)]}
        r = evaluate(gt, tracks)
        assert r.per_threshold[-1]["threshold"] == 0.9
        assert r.fp == 1 and r.fn == 0

    def test_format_report_mentions_all_metrics(self):
        gt, tracks = hand_fixture()
        text = format_report(evaluate(gt, tracks))
        for key in ("AMOTA", "AMOTP", "MOTA", "Recall", "IDS", "FP", "FN",
                    "MT"):
            assert key in text


class TestEvalConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"recall_thresholds": True}, "recall_thresholds: must be an integer"),
        ({"recall_thresholds": 10.0}, "recall_thresholds: must be an integer"),
        ({"recall_thresholds": 0}, "recall_thresholds: must be >= 1"),
        ({"match_distance": 0.0}, "match_distance: must be > 0"),
        ({"match_distance": float("nan")},
         "match_distance: must be a finite number"),
        ({"match_distance": float("inf")},
         "match_distance: must be a finite number")])
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            EvalConfig(**kwargs)

    def test_numpy_integer_passes(self):
        assert EvalConfig(recall_thresholds=np.int64(7)).recall_thresholds == 7


class TestEvaluateInputs:
    def test_repeated_frame_rejected(self):
        # unchecked, this scores FP -1, MOTA 1.5 and AMOTA 1.5
        gt = [gt_frame(0, [(0, 0)]), gt_frame(0, [(0, 0)])]
        with pytest.raises(ValueError, match="frame 0 repeated"):
            evaluate(gt, {0: [(1, box_at(0, 0), 0.9)]})

    def test_repeated_gt_id_in_frame_rejected(self):
        # unchecked, perfect tracking scores AMOTA 0.0, recall 0.5, FN 1;
        # the frame refuses it when it is built
        with pytest.raises(ValueError,
                           match="^gt_id: 7 repeats in frame 3$"):
            GroundTruthFrame(frame_id=3, timestamp=0.3, objects=(
                (7, box_at(0, 0), True), (7, box_at(10, 0), True)))

    @pytest.mark.parametrize("score", [math.nan, math.inf, True, "0.9"])
    def test_score_not_a_finite_number_rejected(self, score):
        # unchecked, NaN keeps no TP at any threshold and divides by zero,
        # "0.9" raises a TypeError and inf is scored
        gt = [gt_frame(0, [(0, 0)]), gt_frame(1, [(0, 0), (9, 0)])]
        tracks = {0: [(4, box_at(0, 0), 0.9)],
                  1: [(4, box_at(0, 0), 0.8), (5, box_at(9, 0), score)]}
        with pytest.raises(InputError, match="^frame 1, track 5: score: "
                           "must be a finite number$"):
            evaluate(gt, tracks)

    def test_numpy_and_integer_scores_are_scored(self):
        gt = [gt_frame(0, [(0, 0), (9, 0)])]
        tracks = {0: [(4, box_at(0, 0), np.float32(0.5)),
                      (5, box_at(9, 0), 1)]}
        assert evaluate(gt, tracks) == evaluate(
            gt, {0: [(4, box_at(0, 0), 0.5), (5, box_at(9, 0), 1.0)]})


BIG = 2 ** 70
_ID = st.one_of(st.integers(-3, 3), st.sampled_from([BIG, -BIG, BIG + 1]))


@st.composite
def _scored_sequence(draw):
    """Ground truth and tracker output with occluded GTs, track ids
    repeated within a frame, ids of +-2**70 and frames in shuffled order."""
    gt_ids = draw(st.lists(_ID, min_size=1, max_size=4, unique=True))
    frame_ids = sorted(draw(st.lists(_ID, min_size=1, max_size=7,
                                     unique=True)))
    gt_frames, tracks = [], {}
    for step, fid in enumerate(frame_ids):
        objects, preds = [], []
        for lane, gid in enumerate(gt_ids):
            x, y = 10.0 * lane, 0.5 * step
            visible = draw(st.booleans()) or draw(st.booleans())
            objects.append((gid, box_at(x, y), visible))
            for _ in range(draw(st.integers(0, 2))):
                dx = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
                preds.append((draw(_ID), box_at(x + dx, y),
                              draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))))
        gt_frames.append(GroundTruthFrame(frame_id=fid, timestamp=0.1 * step,
                                          objects=tuple(objects)))
        if preds or draw(st.booleans()):
            tracks[fid] = preds
    if not any(vis for g in gt_frames for _, _, vis in g.objects):
        gt_frames[0] = GroundTruthFrame(
            frame_id=frame_ids[0], timestamp=0.0,
            objects=tuple((gid, box, True)
                          for gid, box, _ in gt_frames[0].objects))
    return draw(st.permutations(gt_frames)), tracks


class TestEvaluateAgainstListReference:
    @settings(max_examples=300, deadline=None)
    @given(data=_scored_sequence(), thresholds=st.sampled_from([1, 7, 40]))
    def test_report_equals_reference(self, data, thresholds):
        gt_frames, tracks = data
        cfg = EvalConfig(match_distance=2.0, recall_thresholds=thresholds)
        got = asdict(evaluate(gt_frames, tracks, cfg))
        want = reference_evaluate(gt_frames, tracks, 2.0, thresholds)
        assert got == want
        assert repr(got) == repr(want)  # same types and the same floats
