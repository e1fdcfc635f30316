import math

import numpy as np
import pytest

from bevtrack.geometry import DEFAULT_SCALE_BREAKPOINTS, footprint_levels
from bevtrack.simulator import (ADVERSARIAL_SUITES, ScenarioConfig, SpawnSpec,
                                generate, standard_suites)

from oracles import intra_inter_similarity


class TestGenerate:
    def test_noiseless_detections_equal_ground_truth(self):
        cfg = ScenarioConfig(seed=3, num_objects=3, num_frames=10)
        gt_frames, det_frames = generate(cfg)
        for g, dets in zip(gt_frames, det_frames):
            boxes = {gid: box for gid, box, vis in g.objects if vis}
            assert len(dets) == len(boxes)
            for det in dets:
                match = min(boxes.values(),
                            key=lambda b: math.hypot(b.cx - det.box.cx,
                                                     b.cy - det.box.cy))
                assert det.box == match

    def test_occlusion_removes_detections(self):
        cfg = ScenarioConfig(seed=5, num_objects=2, num_frames=12,
                             occlusion_events=((0, 5, 3),))
        gt_frames, det_frames = generate(cfg)
        for f in range(12):
            vis_flags = {gid: vis for gid, _b, vis in gt_frames[f].objects}
            assert vis_flags[0] == (not 5 <= f <= 7)
            expected = sum(vis_flags.values())
            assert len(det_frames[f]) == expected

    def test_same_seed_identical(self):
        cfg = ScenarioConfig(seed=11, num_objects=4, num_frames=15,
                             pos_std=0.2, embedding_noise_std=0.2,
                             fp_rate=1.0, fn_rate=0.1)
        a_gt, a_dets = generate(cfg)
        b_gt, b_dets = generate(cfg)
        assert a_gt == b_gt
        for da, db in zip(a_dets, b_dets):
            assert len(da) == len(db)
            for x, y in zip(da, db):
                assert x.box == y.box
                assert x.score == y.score
                np.testing.assert_array_equal(x.appearance.e_img,
                                              y.appearance.e_img)

    def test_different_seed_differs(self):
        gt_a, _ = generate(ScenarioConfig(seed=1, num_objects=2, num_frames=3))
        gt_b, _ = generate(ScenarioConfig(seed=2, num_objects=2, num_frames=3))
        assert gt_a != gt_b

    def test_noiseless_keeps_trajectories_of_noisy_config(self):
        # the draw schedule consumes noise draws even at zero stds, so
        # zeroing the noise must not move the ground truth
        noisy = ScenarioConfig(seed=7, num_objects=3, num_frames=10,
                               pos_std=0.3, fn_rate=0.2, fp_rate=1.0,
                               embedding_noise_std=0.2)
        gt_noisy, _ = generate(noisy)
        gt_clean, dets_clean = generate(noisy.noiseless())
        assert gt_noisy == gt_clean
        assert all(len(d) == 3 for d in dets_clean)

    def test_spawn_overrides_pin_pose(self):
        cfg = ScenarioConfig(
            seed=13, num_objects=2, num_frames=2,
            spawn_overrides={0: SpawnSpec(x=1.0, y=2.0, heading=0.5,
                                          speed=3.0)})
        gt_frames, _ = generate(cfg)
        gid, box, _vis = gt_frames[0].objects[0]
        assert (box.cx, box.cy) == (1.0, 2.0)
        assert box.yaw == pytest.approx(0.5)

    def test_companions_spawn_close_and_stay_close(self):
        cfg = ScenarioConfig(seed=17, num_objects=2, num_frames=20,
                             object_classes=("truck", "pedestrian"),
                             companions=((0, 1, 2.0),))
        gt_frames, _ = generate(cfg)
        for g in gt_frames:
            (_, a, _), (_, b, _) = g.objects
            assert math.hypot(a.cx - b.cx, a.cy - b.cy) <= 2.0 + 1e-9

    def test_fp_rate_produces_clutter(self):
        cfg = ScenarioConfig(seed=19, num_objects=1, num_frames=30,
                             fp_rate=2.0)
        _, det_frames = generate(cfg)
        n_total = sum(len(d) for d in det_frames)
        assert n_total > 30  # 1 true object/frame plus Poisson clutter
        assert n_total == pytest.approx(30 * 3, rel=0.4)

    def test_scale_levels_match_footprints(self):
        cfg = ScenarioConfig(seed=23, num_objects=3, num_frames=5)
        _, det_frames = generate(cfg)
        for dets in det_frames:
            for det in dets:
                assert det.scale_level == footprint_levels(
                    det.box.length * det.box.width, DEFAULT_SCALE_BREAKPOINTS)


class TestStandardSuites:
    def test_contains_exactly_six(self):
        suites = standard_suites()
        assert set(suites) == {"basic", "crossing", "occlusion",
                               "dense-neighbors", "small-objects", "high-fp"}

    def test_adversarial_subset(self):
        assert set(ADVERSARIAL_SUITES) <= set(standard_suites())

    def test_dense_neighbors_has_close_mixed_scale_pair(self):
        cfg = standard_suites()["dense-neighbors"]
        gt_frames, _ = generate(cfg)
        boxes = {gid: box for gid, box, _ in gt_frames[0].objects}
        found = False
        for leader, follower, gap in cfg.companions:
            a, b = boxes[leader], boxes[follower]
            dist = math.hypot(a.cx - b.cx, a.cy - b.cy)
            area_a, area_b = a.length * a.width, b.length * b.width
            if dist <= 2.0 and area_a / area_b > 3:
                found = True
        assert found

    def test_occlusion_suite_hides_object_three_plus_frames(self):
        cfg = standard_suites()["occlusion"]
        assert any(duration >= 3 for _o, _s, duration in cfg.occlusion_events)
        gt_frames, det_frames = generate(cfg.noiseless())
        obj, start, duration = cfg.occlusion_events[0]
        for f in range(start, start + duration):
            assert all(det.frame_id != f or True for det in det_frames[f])
            vis = {gid: v for gid, _b, v in gt_frames[f].objects}
            assert not vis[obj]

    def test_suites_reproducible(self):
        for name, cfg in standard_suites().items():
            a_gt, _ = generate(cfg)
            b_gt, _ = generate(cfg)
            assert a_gt == b_gt, name

    def test_identity_signal_margin(self):
        # appearance (pooled over the three clues) must separate identities
        # by >= 0.3 mean cosine in every adversarial suite
        for name in ADVERSARIAL_SUITES:
            cfg = standard_suites()[name]
            margins = []
            for clue in ("img", "bev", "head"):
                intra, inter = intra_inter_similarity(cfg, clue)
                margins.append(intra - inter)
            assert np.mean(margins) >= 0.3, (name, margins)


class TestConfigValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ScenarioConfig(fn_rate=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(fp_rate=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(pos_std=-0.1)

    @pytest.mark.parametrize("kwargs, field", [
        ({"seed": -1}, "seed"),
        ({"pos_std": math.nan}, "pos_std"),
        ({"frame_dt": math.inf}, "frame_dt"),
        ({"fp_rate": math.inf}, "fp_rate"),
        ({"speed_range": (math.nan, 1.0)}, "speed_range"),
        ({"arena": (60.0, math.nan)}, "arena"),
        ({"score_range": (math.nan, 1.0)}, "score_range"),
        ({"size_classes": {"car": (4.5, 1.9, math.inf)}}, "size_classes.car"),
        ({"num_objects": 2, "companions": ((0, 1, math.nan),)},
         "companions")])
    def test_rejects_negative_seed_and_non_finite_values(self, kwargs, field):
        # each is refused where it is given, not later by generate
        with pytest.raises(ValueError, match=f"^{field}: must be "):
            ScenarioConfig(**kwargs)

    def test_one_frame_of_draws_must_fit_the_index_type(self):
        # a frame draws num_objects x (7 + 3 x embedding_dim) values in one
        # array; each count is refused one past the largest that fits
        limit = int(np.iinfo(np.intp).max)
        dim = (limit - 7) // 3
        ScenarioConfig(num_objects=0, embedding_dim=dim)
        with pytest.raises(ValueError,
                           match=f"^embedding_dim: must be <= {dim}$"):
            ScenarioConfig(num_objects=0, embedding_dim=dim + 1)
        n = limit // (7 + 3 * 32)
        ScenarioConfig(num_objects=n, embedding_dim=32)
        with pytest.raises(ValueError, match=f"^num_objects: must be <= {n} "):
            ScenarioConfig(num_objects=n + 1, embedding_dim=32)

    @pytest.mark.parametrize("field", ["x", "heading", "turn_rate"])
    def test_spawn_spec_rejects_non_finite_values(self, field):
        values = {"x": 0.0, "y": 0.0, "heading": 0.0, "speed": 1.0,
                  field: math.nan}
        with pytest.raises(ValueError, match=f"^{field}: must be a finite number"):
            SpawnSpec(**values)

    def test_object_classes_length_checked(self):
        with pytest.raises(ValueError):
            generate(ScenarioConfig(num_objects=3,
                                    object_classes=("car",)))
