import math

import numpy as np
import pytest

from bevtrack.association import AppearanceState
from bevtrack.geometry import Box3D
from bevtrack.metrics import evaluate
from bevtrack.motion import NoiseConfig
from bevtrack.simulator import ScenarioConfig, SpawnSpec, generate, \
    standard_suites
from bevtrack.tracker import (Detection, Tracker, TrackerConfig, Tracklet,
                              run_sequence, update_appearance)


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


class TestUpdateAppearance:
    def _tracklet(self, axis=0):
        from bevtrack import motion
        d = det(0, 0)
        return Tracklet(id=1, kalman=motion.init_state(d.box, NoiseConfig()),
                        appearance=appearance(axis), scale_level=2)

    def test_alpha_zero_replaces(self):
        t = self._tracklet(axis=0)
        d = det(0, 0, axis=1)
        out = update_appearance(t, d, 0.0)
        np.testing.assert_array_equal(out.e_img, d.appearance.e_img)

    def test_alpha_one_keeps(self):
        t = self._tracklet(axis=0)
        d = det(0, 0, axis=1)
        out = update_appearance(t, d, 1.0)
        np.testing.assert_array_equal(out.e_img, t.appearance.e_img)

    def test_convex_combination(self):
        t = self._tracklet(axis=0)
        d = det(0, 0, axis=1)
        out = update_appearance(t, d, 0.9)
        want = 0.9 * t.appearance.e_img + 0.1 * d.appearance.e_img
        np.testing.assert_allclose(out.e_img, want)


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
