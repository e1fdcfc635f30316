import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevtrack.association import AppearanceState
from bevtrack.geometry import Box3D
from bevtrack.io import write_detections
from bevtrack.metrics import evaluate
from bevtrack.simulator import ScenarioConfig, SpawnSpec, generate, \
    standard_suites
from bevtrack.tracker import (Detection, DetectionFrame, Tracker,
                              TrackerConfig, as_frame, number_frames,
                              run_sequence, track_stream)


def unit(dim, axis):
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def appearance(axis, dim=8):
    return AppearanceState(unit(dim, axis), unit(dim, axis), unit(dim, axis))


def det(x, y, score=0.9, axis=0, level=2, frame_id=0, length=4.0, width=2.0):
    return Detection(
        box=Box3D(x, y, 0.8, length, width, 1.6, 0.0), score=score,
        appearance=appearance(axis), scale_level=level, timestamp=0.1 * frame_id,
        frame_id=frame_id)


class TestLifecycle:
    def test_score_threshold_controls_initialization(self):
        trk = Tracker(TrackerConfig(init_score_threshold=0.5))
        matches = trk.step([det(0, 0, 0.9, axis=0), det(10, 0, 0.6, axis=1),
                            det(20, 0, 0.1, axis=2)], dt=0.1, frame_id=0)
        assert len(trk.tracklets) == 2
        assert len(matches) == 2
        assert {m[1] for m in matches} == {0, 1}

    def test_ids_unique_and_monotonic(self):
        trk = Tracker(TrackerConfig(max_age=0))
        seen = []
        for f in range(5):
            # disjoint objects every frame, all appearance-distinct
            trk.step([det(100 * f, 0, 0.9, axis=f % 8, frame_id=f)], dt=0.1)
            seen.extend(t.id for t in trk.tracklets)
        assert seen == sorted(seen)
        # old ids never reused even after deletion
        assert len(set(seen)) == len(set(seen))
        assert trk._next_id == len(set(seen)) + 1

    def test_max_age_zero_deletes_unmatched_immediately(self):
        trk = Tracker(TrackerConfig(max_age=0))
        trk.step([det(0, 0, 0.9)], dt=0.1, frame_id=0)
        assert len(trk.tracklets) == 1
        trk.step([], dt=0.1, frame_id=1)
        assert trk.tracklets == []

    def test_max_age_allows_coasting(self):
        trk = Tracker(TrackerConfig(max_age=2))
        trk.step([det(0, 0, 0.9)], dt=0.1, frame_id=0)
        trk.step([], dt=0.1, frame_id=1)
        trk.step([], dt=0.1, frame_id=2)
        assert len(trk.tracklets) == 1
        assert trk.active_outputs() == []
        trk.step([], dt=0.1, frame_id=3)
        assert trk.tracklets == []

    def test_duplicate_frame_rejected(self):
        trk = Tracker()
        trk.step([det(0, 0)], dt=0.1, frame_id=4)
        with pytest.raises(ValueError, match="frame 4"):
            trk.step([det(0, 0)], dt=0.1, frame_id=4)

    def test_backward_frame_rejected(self):
        trk = Tracker()
        trk.step([det(0, 0)], dt=0.1, frame_id=4)
        with pytest.raises(ValueError, match="frame 3 does not follow frame 4"):
            trk.step([det(0, 0)], dt=0.1, frame_id=3)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            Tracker().step([], dt=0.0)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="finite"):
            Tracker().step([], dt=dt)

    def test_scale_level_bounds_checked(self):
        trk = Tracker(TrackerConfig(num_levels=5))
        with pytest.raises(ValueError):
            trk.step([det(0, 0, level=5)], dt=0.1)

    def test_rejected_level_leaves_state_unchanged(self):
        trk = Tracker(TrackerConfig(num_levels=5))
        trk.step([det(0, 0, level=4)], dt=0.1, frame_id=3)
        before = trk.rows.select(np.arange(len(trk.rows)))
        with pytest.raises(ValueError, match="scale level 5 outside"):
            trk.step([det(0, 0, level=2), det(9, 0, level=5)], dt=0.1,
                     frame_id=4)
        for name in vars(before):
            np.testing.assert_array_equal(getattr(trk.rows, name),
                                          getattr(before, name))
        assert trk._last_frame_id == 3
        trk.step([det(0, 0, level=4)], dt=0.1, frame_id=4)  # not a repeat
        assert [t.id for t in trk.tracklets] == [1]


class TestStageOne:
    def test_identical_appearance_match_preserves_id(self):
        trk = Tracker(TrackerConfig(max_age=0))
        trk.step([det(0, 0, 0.9, axis=3, frame_id=0)], dt=0.1)
        tid = trk.tracklets[0].id
        matches = trk.step([det(0.3, 0, 0.9, axis=3, frame_id=1)], dt=0.1)
        assert matches == [(tid, 0)]
        assert trk.last_info.stage1 == [(tid, 0)]
        assert trk.tracklets[0].id == tid
        assert trk.tracklets[0].hits == 2

    def test_gated_appearance_falls_to_stage_two(self):
        # orthogonal embeddings fail the similarity gate; a disjoint but
        # buffer-overlapping box still matches via buffered IoU
        cfg = TrackerConfig(max_age=0, similarity_gate=0.3,
                            iou_threshold=0.05)
        trk = Tracker(cfg)
        trk.step([det(0, 0, 0.9, axis=0, level=2, frame_id=0)], dt=0.1)
        tid = trk.tracklets[0].id
        # footprint 4x2 at x=4.6: raw gap 0.6 m, buffered (r=0.3) overlaps
        nxt = det(4.6, 0, 0.9, axis=1, level=2, frame_id=1)
        from bevtrack.geometry import bev_iou, buffered_iou
        assert bev_iou(trk.tracklets[0].predicted_box(), nxt.box) == 0.0
        assert buffered_iou(trk.tracklets[0].predicted_box(), nxt.box,
                            0.3, 0.3) > 0.05
        matches = trk.step([nxt], dt=0.1)
        assert trk.last_info.stage1 == []
        assert trk.last_info.stage2 == [(tid, 0)]
        assert matches == [(tid, 0)]

    def test_disabled_multi_clue_skips_stage_one(self):
        cfg = TrackerConfig(max_age=0, use_multi_clue=False)
        trk = Tracker(cfg)
        trk.step([det(0, 0, 0.9, axis=3, frame_id=0)], dt=0.1)
        trk.step([det(0.2, 0, 0.9, axis=3, frame_id=1)], dt=0.1)
        assert trk.last_info.stage1 == []
        assert len(trk.last_info.stage2) == 1


class TestCascade:
    def _tracker_with_levels(self, levels_boxes, cfg=None):
        """Seed a tracker with one tracklet per (level, box)."""
        cfg = cfg or TrackerConfig(max_age=2, use_multi_clue=False)
        trk = Tracker(cfg)
        dets = [Detection(box=box, score=0.96, appearance=appearance(i),
                          scale_level=level, frame_id=0)
                for i, (level, box) in enumerate(levels_boxes)]
        trk.step(dets, dt=0.1, frame_id=0)
        assert len(trk.tracklets) == len(levels_boxes)
        return trk

    def test_candidates_restricted_to_adjacent_levels(self):
        # detection at the largest level: a level-0 tracklet at the same
        # place is not a candidate (0 is not in {3, 4, 5})
        box = Box3D(0, 0, 0.8, 10, 3, 3, 0)
        trk = self._tracker_with_levels([(4, box), (0, box)])
        id_l4 = trk.tracklets[0].id
        matches = trk.step([Detection(box=box, score=0.9,
                                      appearance=appearance(7),
                                      scale_level=4, frame_id=1)], dt=0.1)
        assert matches == [(id_l4, 0)]
        assert trk.last_info.stage2 == [(id_l4, 0)]
        assert all(gap <= 1 for gap in trk.last_info.stage2_level_gaps)

    def test_non_adjacent_cover_is_not_matched(self):
        # a large tracklet covering a nearby small detection two levels
        # down must not take it, even though the buffered IoU clears the
        # gate
        van = Box3D(0, 0, 1.1, 4.6, 2.9, 2.2, 0)
        trk = self._tracker_with_levels(
            [(3, van)], TrackerConfig(max_age=2, use_multi_clue=False,
                                      init_score_threshold=0.95))
        moto = Detection(box=Box3D(0.4, 0.5, 0.6, 2.4, 0.9, 1.3, 0),
                         score=0.9, appearance=appearance(5),
                         scale_level=1, frame_id=1)
        from bevtrack.geometry import buffered_iou
        assert buffered_iou(van, moto.box, 0.2, 0.4) > 0.1
        matches = trk.step([moto], dt=0.1)
        assert matches == []
        assert trk.last_info.stage2 == []

    def test_flat_assignment_would_cross_levels(self):
        # same setup without cascading: the cross-level match goes through,
        # which is exactly what the cascade prevents
        van = Box3D(0, 0, 1.1, 4.6, 2.9, 2.2, 0)
        cfg = TrackerConfig(max_age=2, use_multi_clue=False,
                            use_cascade=False, init_score_threshold=0.95)
        trk = self._tracker_with_levels([(3, van)], cfg)
        tid = trk.tracklets[0].id
        moto = Detection(box=Box3D(0.4, 0.5, 0.6, 2.4, 0.9, 1.3, 0),
                         score=0.9, appearance=appearance(5),
                         scale_level=1, frame_id=1)
        matches = trk.step([moto], dt=0.1)
        assert matches == [(tid, 0)]
        assert trk.last_info.stage2_level_gaps == [2]

    def test_no_buffer_forces_raw_iou(self):
        cfg = TrackerConfig(max_age=0, use_multi_clue=False, use_buffer=False,
                            iou_threshold=0.05, init_score_threshold=0.95)
        trk = Tracker(cfg)
        trk.step([det(0, 0, 0.96, axis=0, frame_id=0)], dt=0.1)
        # raw-disjoint, buffered-overlapping: without buffering no match
        matches = trk.step([det(4.6, 0, 0.9, axis=1, frame_id=1)], dt=0.1)
        assert matches == []

    def test_stage_separation(self):
        # one det matched in stage 1 never reappears in stage 2
        trk = Tracker(TrackerConfig(max_age=1))
        trk.step([det(0, 0, 0.9, axis=0, frame_id=0),
                  det(8, 0, 0.9, axis=1, frame_id=0)], dt=0.1)
        trk.step([det(0.2, 0, 0.9, axis=0, frame_id=1),
                  det(8.2, 0, 0.9, axis=6, frame_id=1)], dt=0.1)
        s1 = {d for _t, d in trk.last_info.stage1}
        s2 = {d for _t, d in trk.last_info.stage2}
        assert s1 == {0}
        assert s2 == {1}
        assert not (s1 & s2)


class TestBufferRatios:
    """TrackerConfig.buffer_ratios: one footprint buffer ratio per scale
    level, smallest level first."""

    def test_default_table(self):
        assert TrackerConfig().buffer_ratios == (0.50, 0.40, 0.30, 0.20, 0.10)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError,
                           match="^buffer_ratios: must be non-increasing"):
            TrackerConfig(buffer_ratios=(0.1, 0.2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError,
                           match="^buffer_ratios: must be non-empty and >= 0"):
            TrackerConfig(buffer_ratios=(0.3, -0.1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError,
                           match="^buffer_ratios: must be non-empty and >= 0"):
            TrackerConfig(buffer_ratios=())

    @pytest.mark.parametrize("ratios", [(True, 0.5), (0.5, "0.4"), (None,)])
    def test_rejects_entries_that_are_not_real(self, ratios):
        with pytest.raises(ValueError,
                           match="^buffer_ratios: each must be a real number"):
            TrackerConfig(buffer_ratios=ratios)

    @pytest.mark.parametrize("ratios, matched", [((0.5, 0.5), True),
                                                 ((0.5, 0.0), False)])
    def test_levels_past_the_table_take_its_last_ratio(self, ratios,
                                                       matched):
        # level-4 boxes 0.6 m apart overlap only when buffered; a table of
        # two ratios gives level 4 its second one
        cfg = TrackerConfig(max_age=0, use_multi_clue=False,
                            buffer_ratios=ratios, iou_threshold=0.05,
                            init_score_threshold=0.95)
        trk = Tracker(cfg)
        trk.step([det(0, 0, 0.96, axis=0, level=4, frame_id=0)], dt=0.1)
        matches = trk.step([det(4.6, 0, 0.9, axis=1, level=4, frame_id=1)],
                           dt=0.1)
        assert bool(matches) is matched


class TestTrackerConfigRules:
    """Each rule's message starts with the field it breaks."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_age": True}, "max_age: must be an integer"),
        ({"max_age": 2.0}, "max_age: must be an integer"),
        ({"num_levels": 2.5}, "num_levels: must be an integer"),
        ({"num_levels": False}, "num_levels: must be an integer"),
        ({"max_age": -1}, "max_age: must be >= 0"),
        ({"num_levels": 0}, "num_levels: must be >= 1"),
        ({"iou_threshold": 1.5}, "iou_threshold: must be in [0, 1]"),
        ({"init_score_threshold": -0.1},
         "init_score_threshold: must be in [0, 1]"),
        ({"ema_alpha": math.nan}, "ema_alpha: must be in [0, 1]")])
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            TrackerConfig(**kwargs)

    def test_numpy_integers_pass(self):
        cfg = TrackerConfig(max_age=np.int64(3), num_levels=np.int32(4),
                            buffer_ratios=(np.float64(0.5), 0))
        assert (cfg.max_age, cfg.num_levels) == (3, 4)


class TestDetectionFrame:
    def test_as_frame_rows_and_detections(self):
        dets = [det(1.5, -2, 0.7, axis=1, level=3, frame_id=4),
                det(-3, 0.25, 0.95, axis=2, level=0, frame_id=4)]
        frame = as_frame(dets)
        assert (frame.frame_id, frame.timestamp, len(frame)) == (4, 0.4, 2)
        assert frame and not as_frame([])
        assert as_frame(frame) is frame
        np.testing.assert_array_equal(frame.boxes[0],
                                      [1.5, -2, 0.8, 4.0, 2.0, 1.6, 0.0])
        assert frame.levels.tolist() == [3, 0]
        assert frame.scores.tolist() == [0.7, 0.95]
        assert frame.emb.shape == (2, 3, 8)
        for orig, back in zip(dets, frame):
            assert (back.box, back.score, back.scale_level, back.frame_id,
                    back.timestamp) == (orig.box, orig.score,
                                        orig.scale_level, orig.frame_id,
                                        orig.timestamp)
            np.testing.assert_array_equal(back.appearance.e_bev,
                                          orig.appearance.e_bev)

    def test_empty_frame_has_no_id_or_timestamp(self):
        frame = as_frame([])
        assert (frame.frame_id, frame.timestamp, len(frame)) == (None, None, 0)
        assert frame.boxes.shape == (0, 7) and list(frame) == []


def unchecked(cls, **values):
    """An instance of a frozen dataclass that skips its own checks, as a
    stand-in for rows that never went through Box3D or AppearanceState."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def frame_rows():
    """(boxes, scores, levels, emb) of three good detections."""
    boxes = np.array([[6.0 * i, 0, 0.8, 4.0, 2.0, 1.6, 0.1]
                      for i in range(3)])
    emb = np.stack([np.stack([unit(4, i)] * 3) for i in range(3)])
    return boxes, np.array([0.8, 0.9, 0.7]), np.array([2, 2, 2]), emb


def row_detections(rows, frame_id):
    """rows as a Detection list; the boxes and embeddings are taken as
    they are, unchecked."""
    boxes, scores, levels, emb = rows
    box_fields = [f.name for f in dataclasses.fields(Box3D)]
    return [Detection(
        box=unchecked(Box3D, **dict(zip(box_fields, box))), score=score,
        appearance=unchecked(AppearanceState, e_img=e[0], e_bev=e[1],
                             e_head=e[2]),
        scale_level=level, timestamp=0.1 * frame_id, frame_id=frame_id)
        for box, score, level, e in zip(boxes.tolist(), scores.tolist(),
                                        levels.tolist(), emb)]


# each case breaks row 1 of frame_rows: the edit, and the rule it names
_BAD_ROWS = {
    "level -1": (lambda b, s, l, e: l.__setitem__(1, -1),
                 "scale_level must be non-negative"),
    "score 2.0": (lambda b, s, l, e: s.__setitem__(1, 2.0),
                  "score must be in [0, 1], got 2.0"),
    "NaN embedding": (lambda b, s, l, e: e.__setitem__((1, 1, 3), math.nan),
                      "e_bev contains NaN/Inf"),
    "negative length": (lambda b, s, l, e: b.__setitem__((1, 3), -4.0),
                        "box dims must be positive, got (-4.0, 2.0, 1.6)"),
    "NaN centre, score 0.3": (
        lambda b, s, l, e: (b.__setitem__((1, 0), math.nan),
                            s.__setitem__(1, 0.3)),
        "box fields must be finite, got (nan, 0.0, 0.8, 4.0, 2.0, 1.6, "),
    "infinite yaw": (lambda b, s, l, e: b.__setitem__((1, 6), math.inf),
                     "box fields must be finite, got (6.0, 0.0, 0.8, 4.0, "
                     "2.0, 1.6, "),
}


@pytest.mark.filterwarnings("error")
class TestDetectionRules:
    """A frame is checked when it is built, whichever way: a bad row is a
    ValueError naming the row and the rule, with no numpy warning, before
    any tracker state changes."""

    @staticmethod
    def _bad(case):
        rows = frame_rows()
        edit, rule = _BAD_ROWS[case]
        edit(*rows)
        return rows, "^" + re.escape(f"detection 1: {rule}")

    @pytest.mark.parametrize("case", _BAD_ROWS)
    def test_from_rows_and_as_frame(self, case):
        rows, want = self._bad(case)
        with pytest.raises(ValueError, match=want):
            DetectionFrame.from_rows(1, 0.1, *rows)
        with pytest.raises(ValueError, match=want):
            as_frame(row_detections(rows, 1))

    @pytest.mark.parametrize("case", _BAD_ROWS)
    def test_step_leaves_state_unchanged(self, case):
        rows, want = self._bad(case)
        trk = Tracker(TrackerConfig(max_age=3))
        trk.step(row_detections(frame_rows(), 0), dt=0.1)
        before = trk.rows.select(np.arange(len(trk.rows)))
        with pytest.raises(ValueError, match=want):
            trk.step(row_detections(rows, 1), dt=0.1)
        for name in vars(before):
            np.testing.assert_array_equal(getattr(trk.rows, name),
                                          getattr(before, name))
        assert trk._last_frame_id == 0

    @pytest.mark.parametrize("case", _BAD_ROWS)
    def test_run_sequence_and_write_detections(self, case, tmp_path):
        rows, want = self._bad(case)
        frames = [row_detections(frame_rows(), 0), row_detections(rows, 1)]
        with pytest.raises(ValueError, match=want):
            run_sequence(frames)
        path = tmp_path / "dets.jsonl"
        with pytest.raises(ValueError, match=want):
            write_detections(path, frames)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["frame_id"] for r in records] == [0, 0, 0]

    def test_replace_and_direct_construction_are_checked(self):
        frame = DetectionFrame.from_rows(4, 0.4, *frame_rows())
        with pytest.raises(ValueError, match=re.escape(
                "detection 2: score must be in [0, 1], got -0.5")):
            dataclasses.replace(frame, scores=np.array([0.8, 0.9, -0.5]))
        with pytest.raises(ValueError, match="^timestamp must be finite"):
            dataclasses.replace(frame, timestamp=math.inf)
        with pytest.raises(ValueError, match=re.escape(
                "detection rows must have shapes (N, 7), (N,), (N,) and "
                "(N, 3, C), got ((3, 7), (3,), (2,), (3, 3, 4))")):
            DetectionFrame(4, 0.4, frame.boxes, frame.scores,
                           frame.levels[:2], frame.emb)
        with pytest.raises(ValueError, match="must have shapes"):
            dataclasses.replace(frame, emb=frame.emb[:, :2])
        assert dataclasses.replace(frame, timestamp=None).timestamp is None
        assert len(DetectionFrame.empty(7)) == 0

    def test_detections_without_ids_are_numbered(self):
        # a Detection made without a frame id has none, so number_frames
        # numbers its frame instead of calling every frame 0
        frames = [[Detection(d.box, d.score, d.appearance, d.scale_level,
                             timestamp=0.1 * f)
                   for d in row_detections(frame_rows(), f)]
                  for f in range(3)]
        assert frames[2][0].frame_id is None
        outputs, _ = run_sequence(frames)
        assert list(outputs) == [0, 1, 2]


class TestAppearanceBlend:
    """One stage-2 match (orthogonal embeddings fail the stage-1 gate)
    blends the stored embeddings as alpha*old + (1-alpha)*new."""

    def _match(self, alpha):
        trk = Tracker(TrackerConfig(ema_alpha=alpha))
        old, new = det(0, 0, axis=0, frame_id=0), det(0, 0, axis=1, frame_id=1)
        trk.step([old], dt=0.1)
        assert trk.step([new], dt=0.1) == [(1, 0)]
        assert trk.last_info.stage2 == [(1, 0)]
        return old.appearance, new.appearance, trk.tracklets[0].appearance

    @staticmethod
    def _clues(app):
        return np.stack([app.e_img, app.e_bev, app.e_head])

    def test_alpha_zero_replaces(self):
        _old, new, got = self._match(0.0)
        np.testing.assert_array_equal(self._clues(got), self._clues(new))

    def test_alpha_one_keeps(self):
        old, _new, got = self._match(1.0)
        np.testing.assert_array_equal(self._clues(got), self._clues(old))

    def test_convex_combination(self):
        old, new, got = self._match(0.9)
        np.testing.assert_allclose(
            self._clues(got), 0.9 * self._clues(old) + 0.1 * self._clues(new))


class TestTrackStream:
    @staticmethod
    def _frames(stamps):
        """One detection per timestamp; None is an empty frame."""
        return [[] if ts is None else [Detection(
            box=Box3D(0.5 * f, 0, 0.8, 4.0, 2.0, 1.6, 0.0), score=0.9,
            appearance=appearance(0), scale_level=2, timestamp=ts,
            frame_id=f)] for f, ts in enumerate(stamps)]

    @staticmethod
    def _record_dt(monkeypatch):
        """The dt of every Tracker.step call, in call order."""
        seen = []
        step = Tracker.step

        def record(self, dets, dt, frame_id=None):
            seen.append(dt)
            return step(self, dets, dt, frame_id=frame_id)

        monkeypatch.setattr(Tracker, "step", record)
        return seen

    @pytest.mark.parametrize("start", [0.0, 2.0])
    def test_empty_frame_steps_by_previous_dt(self, start, monkeypatch):
        # 0.5 s frames; an empty frame repeats the last dt and moves the
        # clock, so the next frame steps 0.5 s, not across the whole gap
        seen = self._record_dt(monkeypatch)
        frames = self._frames([start, start + 0.5, None, start + 1.5])
        outputs, _ = run_sequence(frames, TrackerConfig(max_age=2),
                                  default_dt=0.1)
        assert seen == [0.1, 0.5, 0.5, 0.5]
        assert list(outputs) == [0, 1, 2, 3] and outputs[2] == []

    def test_leading_empty_frames_step_by_frame_dt(self, monkeypatch):
        seen = self._record_dt(monkeypatch)
        frames = self._frames([None, None, 0.0, 0.5])
        assert [f for f, _ in number_frames(frames)] == [0, 1, 2, 3]
        list(track_stream(number_frames(frames), frame_dt=0.25))
        assert seen == [0.25, 0.25, 0.25, 0.5]

    def test_empty_frame_keeps_its_id_and_timestamp(self, monkeypatch):
        # an empty DetectionFrame (generate's, or a marker's) numbers and
        # steps by its own id and timestamp; a [] after it takes id + 1
        seen = self._record_dt(monkeypatch)
        frames = self._frames([0.0, 0.5]) + [DetectionFrame.from_rows(
            5, 2.5, np.zeros((0, 7)), [], [], np.zeros((0, 3, 4))), []]
        assert [f for f, _ in number_frames(frames)] == [0, 1, 5, 6]
        list(track_stream(number_frames(frames), frame_dt=0.25))
        assert seen == [0.25, 0.5, 2.0, 2.0]

    def test_outputs_equal_tracklet_snapshots(self):
        # track_stream reads outputs from the rows: same ids, boxes (bitwise),
        # scores and levels as the Tracklet snapshots
        sc = standard_suites()["occlusion"]
        _, dets = generate(sc)
        trk = Tracker(TrackerConfig(max_age=5))
        for frame_id, _m, _i, outs in track_stream(
                number_frames(dets), TrackerConfig(max_age=5),
                frame_dt=sc.frame_dt):
            trk.step(dets[frame_id], dt=sc.frame_dt, frame_id=frame_id)
            want = [(t.id, t.predicted_box(), t.last_score, t.scale_level)
                    for t in sorted(trk.active_outputs(), key=lambda t: t.id)]
            assert outs == want


class TestEndToEnd:
    def test_crossing_objects_zero_switches(self):
        cfg = ScenarioConfig(
            seed=202, num_objects=2, num_frames=20, frame_dt=0.1,
            object_classes=("car", "car"),
            spawn_overrides={0: SpawnSpec(-12.0, -2.0, 0.0, 6.0),
                             1: SpawnSpec(12.0, 2.0, math.pi, 6.0)},
            pos_std=0.1, embedding_noise_std=0.1)
        gt, dets = generate(cfg)
        outputs, _ = run_sequence(dets, TrackerConfig(max_age=2),
                                  default_dt=cfg.frame_dt)
        report = evaluate(gt, outputs)
        assert report.ids == 0
        assert report.amota == pytest.approx(1.0)

    def test_level_gap_invariant_across_suites(self):
        cfg = TrackerConfig(max_age=5)
        for name, sc in standard_suites().items():
            _, dets = generate(sc)
            _, infos = run_sequence(dets, cfg, default_dt=sc.frame_dt)
            for info in infos:
                assert all(g <= 1 for g in info.stage2_level_gaps), name

    def test_determinism_byte_identical_matches(self):
        sc = standard_suites()["high-fp"]
        _, dets = generate(sc)

        def run():
            trk = Tracker(TrackerConfig(max_age=5))
            all_matches = []
            for f, frame in enumerate(dets):
                all_matches.append(trk.step(list(frame), dt=sc.frame_dt,
                                            frame_id=f))
            return repr(all_matches)

        assert run() == run()

    def test_outputs_only_updated_tracklets(self):
        trk = Tracker(TrackerConfig(max_age=3))
        trk.step([det(0, 0, 0.9, axis=0, frame_id=0)], dt=0.1)
        assert len(trk.active_outputs()) == 1
        trk.step([], dt=0.1, frame_id=1)
        assert trk.active_outputs() == []
        assert len(trk.tracklets) == 1

    def test_records_are_snapshots(self):
        trk = Tracker(TrackerConfig(max_age=3))
        trk.step([det(0, 0, 0.9, axis=0, frame_id=0)], dt=0.1)
        before = trk.tracklets[0]
        mean = before.kalman.mean.copy()
        e_img = before.appearance.e_img.copy()
        trk.step([det(0.4, 0, 0.9, axis=0, frame_id=1)], dt=0.1)
        after = trk.tracklets[0]
        np.testing.assert_array_equal(before.kalman.mean, mean)
        np.testing.assert_array_equal(before.appearance.e_img, e_img)
        assert before.hits == 1 and after.hits == 2
        assert not np.array_equal(after.kalman.mean, mean)


# ---------------------------------------------------------------------------
# invariants over generated detection streams

_det_st = st.builds(
    lambda x, y, length, axis, level, score: Detection(
        box=Box3D(x, y, 0.8, length, 0.5 * length, 1.6, 0.0), score=score,
        appearance=AppearanceState(unit(4, axis), unit(4, (axis + 1) % 4),
                                   unit(4, axis)),
        scale_level=level),
    x=st.floats(-8, 8), y=st.floats(-8, 8), length=st.floats(0.5, 6.0),
    axis=st.integers(0, 3), level=st.integers(0, 4),
    score=st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(frames=st.lists(st.lists(_det_st, max_size=6), min_size=1,
                       max_size=8),
       max_age=st.integers(0, 3), multi_clue=st.booleans(),
       cascade=st.booleans())
def test_invariants_over_random_streams(frames, max_age, multi_clue, cascade):
    trk = Tracker(TrackerConfig(max_age=max_age, use_multi_clue=multi_clue,
                                use_cascade=cascade))
    issued = 0
    for f, dets in enumerate(frames):
        matches = trk.step(dets, dt=0.1, frame_id=f)
        info = trk.last_info
        ids = [t.id for t in trk.tracklets]
        # ids unique and increasing in birth order, never reused
        assert ids == sorted(set(ids))
        assert all(i > issued for i in info.new_track_ids)
        assert info.new_track_ids == sorted(info.new_track_ids)
        issued = max([issued] + info.new_track_ids)
        assert len({t for t, _ in matches}) == len(matches)
        assert len({d for _, d in matches}) == len(matches)
        if cascade:
            assert all(gap <= 1 for gap in info.stage2_level_gaps)
        # only tracklets matched or born this frame are reported
        assert {t.id for t in trk.active_outputs()} == {t for t, _ in matches}
        rows = trk.rows
        covs = rows.kalman().cov
        assert np.isfinite(rows.mean).all() and np.isfinite(covs).all()
        assert np.isfinite(rows.emb).all()
        for cov in covs:
            scale = max(1.0, float(np.abs(cov).max()))
            assert np.abs(cov - cov.T).max() <= 1e-12 * scale
            assert np.linalg.eigvalsh(cov).min() >= -1e-9 * scale
