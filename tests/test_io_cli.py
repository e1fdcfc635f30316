import json
import math

import numpy as np
import pytest

from bevtrack import io as bio
from bevtrack.association import AppearanceState, ClueWeights
from bevtrack.cli import main
from bevtrack.geometry import Box3D
from bevtrack.metrics import EvalConfig
from bevtrack.simulator import ScenarioConfig, generate
from bevtrack.tracker import Detection, TrackerConfig


def make_dets(n_frames=3, per_frame=2, dim=4):
    rng = np.random.default_rng(5)
    frames = []
    for f in range(n_frames):
        dets = []
        for i in range(per_frame):
            dets.append(Detection(
                box=Box3D(rng.uniform(-9, 9), rng.uniform(-9, 9), 0.8,
                          4.0 + i, 2.0, 1.6, rng.uniform(-math.pi, math.pi)),
                score=float(rng.uniform(0.2, 1.0)),
                appearance=AppearanceState(*(rng.normal(size=dim)
                                             for _ in range(3))),
                scale_level=i % 5, timestamp=0.25 * f, frame_id=f))
        frames.append(dets)
    return frames


class TestDetectionLog:
    def test_round_trip_exact(self, tmp_path):
        frames = make_dets()
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, frames)
        back = bio.read_detections(path)
        assert len(back) == len(frames)
        for orig, got in zip(frames, back):
            for a, b in zip(orig, got):
                assert a.box == b.box
                assert a.score == b.score
                assert a.scale_level == b.scale_level
                assert a.timestamp == b.timestamp
                np.testing.assert_array_equal(a.appearance.e_img,
                                              b.appearance.e_img)
                np.testing.assert_array_equal(a.appearance.e_head,
                                              b.appearance.e_head)

    def test_missing_scale_level_uses_footprint_rule(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = {"frame_id": 0, "timestamp": 0.0,
               "box": [0, 0, 0.8, 4.5, 1.9, 1.6, 0.0], "score": 0.9,
               "e_img": [1, 0], "e_bev": [1, 0], "e_head": [1, 0]}
        path.write_text(json.dumps(rec) + "\n")
        (dets,) = bio.read_detections(path)
        assert dets[0].scale_level == 2  # 8.55 m^2

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        good = {"frame_id": 0, "timestamp": 0.0,
                "box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "score": 0.9,
                "e_img": [1], "e_bev": [1], "e_head": [1]}
        path.write_text(json.dumps(good) + "\n{ not json\n")
        with pytest.raises(bio.DataError, match=":2:"):
            bio.read_detections(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_names_line(self, tmp_path, token):
        path = tmp_path / "dets.jsonl"
        good = json.dumps({"frame_id": 0, "timestamp": 0.0,
                           "box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "score": 0.9,
                           "e_img": [1], "e_bev": [1], "e_head": [1]})
        path.write_text(good + "\n" + good.replace("[0, 0,", f"[{token}, 0,")
                        + "\n")
        with pytest.raises(bio.DataError, match=f":2: .*{token}"):
            bio.read_detections(path)

    @pytest.mark.parametrize("field", ["yaw", "timestamp", "scale_level"])
    def test_overflowing_number_names_line(self, tmp_path, field):
        # 1e999 is valid JSON that parses to inf; an infinite timestamp
        # would otherwise turn the Kalman state into NaN one frame later
        values = {"yaw": "0.0", "timestamp": "0.0", "scale_level": "1"}
        values[field] = "1e999"
        path = tmp_path / "dets.jsonl"
        path.write_text(
            '{"frame_id": 0, "timestamp": %(timestamp)s, '
            '"box": [0, 0, 0.8, 4, 2, 1.6, %(yaw)s], "score": 0.9, '
            '"scale_level": %(scale_level)s, "e_img": [1], "e_bev": [1], '
            '"e_head": [1]}\n' % values)
        with pytest.raises(bio.DataError, match=":1:"):
            bio.read_detections(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(json.dumps({"frame_id": 0}) + "\n")
        with pytest.raises(bio.DataError, match="box"):
            bio.read_detections(path)

    def test_descending_frames_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = {"timestamp": 0.0, "box": [0, 0, 0.8, 4, 2, 1.6, 0.0],
               "score": 0.9, "e_img": [1], "e_bev": [1], "e_head": [1]}
        lines = [json.dumps({"frame_id": f, **rec}) for f in (1, 0)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(bio.DataError, match="ascending"):
            bio.read_detections(path)

    def test_streaming_yields_frames_in_order(self, tmp_path):
        frames = make_dets(n_frames=5)
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, frames)
        seen = [fid for fid, _ in bio.iter_detection_frames(path)]
        assert seen == [0, 1, 2, 3, 4]


class TestGroundTruthLog:
    def test_round_trip(self, tmp_path):
        gt, _ = generate(ScenarioConfig(seed=3, num_objects=3, num_frames=4,
                                        occlusion_events=((1, 1, 2),)))
        path = tmp_path / "gt.jsonl"
        bio.write_ground_truth(path, gt)
        back = bio.read_ground_truth(path)
        assert back == list(gt)


class TestTrackLog:
    def test_round_trip_and_duplicate_rejection(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        records = [
            {"frame_id": 0, "track_id": 1,
             "box": Box3D(0, 0, 0.8, 4, 2, 1.6, 0.1), "score": 0.9,
             "scale_level": 2},
            {"frame_id": 0, "track_id": 2,
             "box": Box3D(5, 0, 0.8, 4, 2, 1.6, -0.4), "score": 0.8,
             "scale_level": 2},
        ]
        bio.write_track_records(path, records)
        back = bio.read_tracks(path)
        assert set(back) == {0}
        assert [(t, s) for t, _b, s in back[0]] == [(1, 0.9), (2, 0.8)]
        assert back[0][0][1] == records[0]["box"]

        with pytest.raises(ValueError, match="duplicate"):
            bio.write_track_records(path, records + records[:1])


class TestConfig:
    def test_default_file_round_trips_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        bio.write_default_config(path)
        cfg = bio.load_config(path)
        assert cfg == bio.AppConfig()

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("tracker:\n  max_age: 7\n  iou_threshold: 0.25\n")
        cfg = bio.load_config(path)
        assert cfg.tracker.max_age == 7
        assert cfg.tracker.iou_threshold == 0.25
        assert cfg.tracker.ema_alpha == 0.9  # untouched default
        assert cfg.eval.match_distance == 2.0

        path.write_text("tracker:\n  clue_weights:\n    bev: 0.5\n"
                        "eval:\n  recall_thresholds: 10\n")
        cfg = bio.load_config(path)
        assert cfg.tracker.clue_weights == ClueWeights(w_bev=0.5)
        assert cfg.eval == EvalConfig(recall_thresholds=10)
        assert cfg.tracker == TrackerConfig(clue_weights=ClueWeights(w_bev=0.5))

    def test_none_path_gives_defaults(self):
        assert bio.load_config(None) == bio.AppConfig()


class TestCliSimulate:
    def test_writes_files_with_expected_counts(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--suite", "basic", "--out", str(out)]) == 0
        gt = bio.read_ground_truth(out / "gt.jsonl")
        assert len(gt) == 40
        text = capsys.readouterr().out
        assert "seed=101" in text

    def test_unknown_suite_exit_2_lists_names(self, tmp_path, capsys):
        code = main(["simulate", "--suite", "nope", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "basic" in err and "high-fp" in err

    def test_same_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--suite", "crossing", "--out", str(out)])
        assert (a / "dets.jsonl").read_bytes() == (b / "dets.jsonl").read_bytes()
        assert (a / "gt.jsonl").read_bytes() == (b / "gt.jsonl").read_bytes()

    def test_scenario_yaml(self, tmp_path):
        spec = tmp_path / "scenario.yaml"
        spec.write_text(
            "seed: 9\nnum_objects: 2\nnum_frames: 6\nframe_dt: 0.2\n"
            "occlusion_events: [[0, 2, 2]]\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(spec), "--out",
                     str(out)]) == 0
        gt = bio.read_ground_truth(out / "gt.jsonl")
        assert len(gt) == 6
        vis = {gid: v for gid, _b, v in gt[2].objects}
        assert vis[0] is False


class TestCliTrackEvaluate:
    def _simulate(self, tmp_path, suite="basic", noiseless=True):
        out = tmp_path / "sim"
        argv = ["simulate", "--suite", suite, "--out", str(out)]
        if noiseless:
            argv.append("--noiseless")
        assert main(argv) == 0
        return out

    def test_noiseless_pipeline_reaches_perfect_amota(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        tracks = tmp_path / "tracks.jsonl"
        assert main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
                     str(tracks), "--max-age", "5"]) == 0
        report = tmp_path / "report.json"
        assert main(["evaluate", "--gt", str(sim / "gt.jsonl"), "--tracks",
                     str(tracks), "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "AMOTA:   1.0000" in out
        data = json.loads(report.read_text())
        assert data["amota"] == 1.0
        assert data["ids"] == 0

    def test_no_buffer_flag_equals_zero_ratio_config(self, tmp_path):
        sim = self._simulate(tmp_path, suite="small-objects", noiseless=False)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("tracker:\n  buffer_ratios: [0, 0, 0, 0, 0]\n"
                       "  max_age: 5\n")
        t1 = tmp_path / "t1.jsonl"
        t2 = tmp_path / "t2.jsonl"
        assert main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
                     str(t1), "--config", str(cfg)]) == 0
        assert main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
                     str(t2), "--config", str(cfg), "--no-buffer"]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_ablation_flags_change_behavior(self, tmp_path):
        sim = self._simulate(tmp_path, suite="small-objects", noiseless=False)
        t_full = tmp_path / "full.jsonl"
        t_off = tmp_path / "off.jsonl"
        assert main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
                     str(t_full), "--max-age", "5"]) == 0
        assert main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
                     str(t_off), "--max-age", "5", "--no-multi-clue",
                     "--no-buffer", "--no-cascade"]) == 0
        assert t_full.read_bytes() != t_off.read_bytes()

    def test_all_flags_baseline_scores_at_most_full_pipeline(self, tmp_path):
        # flat unbuffered IoU-only tracking is the baseline; the full
        # pipeline must not score below it on an adversarial suite
        from bevtrack.metrics import evaluate
        sim = self._simulate(tmp_path, suite="small-objects", noiseless=False)
        t_full = tmp_path / "full.jsonl"
        t_base = tmp_path / "base.jsonl"
        main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
              str(t_full), "--max-age", "5"])
        main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
              str(t_base), "--max-age", "5", "--no-multi-clue",
              "--no-buffer", "--no-cascade"])
        gt = bio.read_ground_truth(sim / "gt.jsonl")
        amota_full = evaluate(gt, bio.read_tracks(t_full)).amota
        amota_base = evaluate(gt, bio.read_tracks(t_base)).amota
        assert amota_full >= amota_base
        assert amota_full - amota_base > 0.05

    def test_malformed_dets_exit_1_names_line(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text("garbage\n")
        code = main(["track", "--dets", str(dets), "--out",
                     str(tmp_path / "t.jsonl")])
        assert code == 1
        assert ":1:" in capsys.readouterr().err

    def test_non_finite_dets_exit_1_names_line(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text('{"frame_id": 0, "box": [NaN, 0, 0.8, 4, 2, 1.6, 0.0],'
                        ' "score": 0.9, "e_img": [1], "e_bev": [1],'
                        ' "e_head": [1]}\n')
        code = main(["track", "--dets", str(dets), "--out",
                     str(tmp_path / "t.jsonl")])
        assert code == 1
        assert f"{dets}:1:" in capsys.readouterr().err

    def test_evaluate_empty_tracks_amota_zero(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        tracks = tmp_path / "tracks.jsonl"
        tracks.write_text("")
        assert main(["evaluate", "--gt", str(sim / "gt.jsonl"), "--tracks",
                     str(tracks)]) == 0
        assert "AMOTA:   0.0000" in capsys.readouterr().out

    def test_evaluate_mismatched_frames_exit_1(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        tracks = tmp_path / "tracks.jsonl"
        tracks.write_text(json.dumps({
            "frame_id": 999, "track_id": 1,
            "box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "score": 0.9,
            "scale_level": 2}) + "\n")
        code = main(["evaluate", "--gt", str(sim / "gt.jsonl"), "--tracks",
                     str(tracks)])
        assert code == 1
        assert "999" in capsys.readouterr().err

    def test_determinism_end_to_end(self, tmp_path):
        blobs = []
        for tag in ("x", "y"):
            base = tmp_path / tag
            sim = base / "sim"
            main(["simulate", "--suite", "high-fp", "--out", str(sim)])
            tracks = base / "tracks.jsonl"
            main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
                  str(tracks), "--max-age", "5"])
            report = base / "report.json"
            main(["evaluate", "--gt", str(sim / "gt.jsonl"), "--tracks",
                  str(tracks), "--report", str(report)])
            blobs.append((sim / "dets.jsonl").read_bytes()
                         + tracks.read_bytes() + report.read_bytes())
        assert blobs[0] == blobs[1]


class TestCliRefineDemo:
    def test_zero_objects_identity(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["refine-demo", "--grid", "16x16x4", "--num-objects", "0",
                     "--seed", "3", "--out", str(out)]) == 0
        inp = np.load(out / "input_grid.npy")
        ref = np.load(out / "refined_grid.npy")
        np.testing.assert_array_equal(inp, ref)

    def test_object_at_center_peaks_there(self, tmp_path):
        objs = tmp_path / "objs.jsonl"
        objs.write_text(json.dumps({"center": [8, 8],
                                    "footprint": [2, 2]}) + "\n")
        out = tmp_path / "demo"
        assert main(["refine-demo", "--grid", "17x17x4", "--objects",
                     str(objs), "--seed", "3", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        (level,) = summary["levels"]
        mask = np.load(out / f"mask_level_{level}.npy")
        assert mask[8, 8] == mask.max() > 0

    def test_summary_reproducible_from_arrays(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["refine-demo", "--grid", "24x24x4", "--num-objects", "3",
                     "--seed", "11", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        inp = np.load(out / "input_grid.npy")
        ref = np.load(out / "refined_grid.npy")
        in_scope = np.zeros(inp.shape[:2], dtype=bool)
        for row in summary["per_level"]:
            mask = np.load(out / f"mask_level_{row['level']}.npy")
            assert row["scope_fraction"] == pytest.approx((mask > 0).mean())
            assert row["max_value"] == pytest.approx(mask.max())
            in_scope |= mask > 0
        outside = ~in_scope
        got = summary["outside_scope"]
        if outside.any():
            assert got["mean_abs_original"] == pytest.approx(
                np.abs(inp[outside]).mean())
            assert got["mean_abs_refined"] == pytest.approx(
                np.abs(ref[outside]).mean())
            assert got["suppression_ratio"] <= 1.0
        else:
            assert got is None

    def test_object_outside_grid_exit_1(self, tmp_path):
        objs = tmp_path / "objs.jsonl"
        objs.write_text(json.dumps({"center": [99, 2]}) + "\n")
        code = main(["refine-demo", "--grid", "8x8x2", "--objects", str(objs),
                     "--seed", "0", "--out", str(tmp_path / "demo")])
        assert code == 1

    def test_bad_grid_spec_exit_2(self, tmp_path):
        code = main(["refine-demo", "--grid", "16x16", "--out",
                     str(tmp_path / "demo")])
        assert code == 2


class TestCliAblate:
    def test_single_suite_grid(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        assert main(["ablate", "--suites", "small-objects", "--out",
                     str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 8
        flags = {(r["multi_clue"], r["buffer"], r["cascade"]) for r in rows}
        assert len(flags) == 8
        text = capsys.readouterr().out
        assert "small-objects"[:12] in text

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["ablate", "--suites", "wrong"]) == 2


class TestCliMisc:
    def test_init_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        assert main(["init-config", "--out", str(path)]) == 0
        assert bio.load_config(path) == bio.AppConfig()

    def test_missing_input_file_exit_1(self, tmp_path):
        assert main(["track", "--dets", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "t.jsonl")]) == 1
