import json
import math
import os
import re
import stat
from dataclasses import is_dataclass, replace
from typing import get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bevtrack import io as bio
from bevtrack.association import AppearanceState, ClueWeights
from bevtrack.cli import main
from bevtrack.geometry import DEFAULT_SCALE_BREAKPOINTS, Box3D
from bevtrack.metrics import EvalConfig, evaluate
from bevtrack.refiner import (DEFAULT_BEV_GRID, DEFAULT_IMAGE_GRID,
                              RefinerConfig)
from bevtrack.simulator import (GroundTruthFrame, ScenarioConfig, SpawnSpec,
                                generate, standard_suites)
from bevtrack.tracker import (Detection, DetectionFrame, Tracker,
                              TrackerConfig, as_frame, number_frames,
                              run_sequence)


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

    @pytest.mark.parametrize("field, raw, message", [
        ("frame_id", "true", "frame_id must be an integer"),
        ("score", '"0.9"', "score must be a finite number"),
        ("timestamp", '"0.5"', "timestamp must be a finite number"),
        ("scale_level", "2.7", "scale_level must be an integer"),
        ("scale_level", '"2"', "scale_level must be an integer")])
    def test_mistyped_field_names_line(self, tmp_path, field, raw, message):
        values = {"frame_id": "0", "score": "0.9", "timestamp": "0.0",
                  "scale_level": "2"}
        values[field] = raw
        path = tmp_path / "dets.jsonl"
        path.write_text(
            '{"frame_id": %(frame_id)s, "timestamp": %(timestamp)s, '
            '"box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "score": %(score)s, '
            '"scale_level": %(scale_level)s, "e_img": [1], "e_bev": [1], '
            '"e_head": [1]}\n' % values)
        with pytest.raises(bio.DataError,
                           match=f"{re.escape(str(path))}:1: {message}"):
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

    def test_scale_level_checked_against_level_count(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = {"frame_id": 0, "box": [0, 0, 0.8, 4, 2, 1.6, 0.0],
               "score": 0.9, "e_img": [1], "e_bev": [1], "e_head": [1]}
        path.write_text(json.dumps({**rec, "scale_level": 4}) + "\n"
                        + json.dumps({**rec, "scale_level": 5}) + "\n")
        assert len(bio.read_detections(path)[0]) == 2
        with pytest.raises(bio.DataError, match=r":2: scale_level 5 outside"):
            list(bio.iter_detection_frames(path, num_levels=5))

    def test_scale_level_must_fit_int64(self, tmp_path):
        # without a level count a level still has to fit the frame's int64
        # array; the tracker would fail on it later without a line number
        path = tmp_path / "dets.jsonl"
        rec = {"frame_id": 0, "box": [0, 0, 0.8, 4, 2, 1.6, 0.0],
               "score": 0.9, "e_img": [1], "e_bev": [1], "e_head": [1]}
        path.write_text(json.dumps({**rec, "scale_level": 2 ** 63}) + "\n")
        with pytest.raises(bio.DataError, match=re.escape(
                f"{path}:1: scale_level {2 ** 63} outside [0, {2 ** 63})")):
            bio.read_detections(path)

    def test_streaming_yields_frames_in_order(self, tmp_path):
        frames = make_dets(n_frames=5)
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, frames)
        seen = [fid for fid, _ in bio.iter_detection_frames(path)]
        assert seen == [0, 1, 2, 3, 4]

    def test_empty_frames_round_trip_as_markers(self, tmp_path):
        frames = make_dets(n_frames=6)
        frames[2] = frames[4] = frames[5] = []
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, frames)
        assert json.loads(path.read_text().splitlines()[4]) == \
            {"frame_id": 2, "empty": True}
        back = list(bio.iter_detection_frames(path))
        assert [(f, len(d)) for f, d in back] == \
            [(0, 2), (1, 2), (2, 0), (3, 2), (4, 0), (5, 0)]
        for (_f, got), orig in zip(back, frames):
            assert [d.box for d in got] == [d.box for d in orig]

    def test_empty_frame_marker_carries_its_timestamp(self, tmp_path):
        # a generated empty frame keeps its timestamp; a [] frame has none
        # and writes the bare marker
        frames = [as_frame(dets) for dets in make_dets(n_frames=4)]
        frames[1] = replace(frames[1], boxes=np.zeros((0, 7)),
                            scores=np.zeros(0),
                            levels=np.zeros(0, dtype=np.int64),
                            emb=np.zeros((0, 3, 4)))
        frames[2] = []
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, frames)
        lines = path.read_text().splitlines()
        assert lines[2] == '{"frame_id": 1, "empty": true, "timestamp": 0.25}'
        assert lines[3] == '{"frame_id": 2, "empty": true}'
        back = list(bio.iter_detection_frames(path))
        assert [(f, len(d), d.timestamp) for f, d in back] == [
            (0, 2, 0.0), (1, 0, 0.25), (2, 0, None), (3, 2, 0.75)]

    @pytest.mark.parametrize("raw", ['"0.5"', "true", "null", "1e999",
                                     "[0.5]", str(2 ** 1024)],
                             ids=["string", "bool", "null", "inf", "list",
                                  "beyond-float"])
    def test_marker_timestamp_must_be_finite(self, tmp_path, raw):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"frame_id": 0, "empty": true}\n'
                        f'{{"frame_id": 1, "empty": true, "timestamp": {raw}}}'
                        "\n")
        want = "^" + re.escape(f"{path}:2: timestamp must be a finite "
                               "number") + "$"
        with pytest.raises(bio.DataError, match=want):
            list(bio.iter_detection_frames(path))

    def test_read_detections_skips_empty_frames(self, tmp_path):
        frames = make_dets(n_frames=4)
        frames[0] = frames[2] = []
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, frames)
        back = bio.read_detections(path)
        assert [d[0].frame_id for d in back] == [1, 3]

    def test_frames_are_written_under_their_numbers(self, tmp_path):
        # a frame without an id is written as the previous id + 1, and a
        # Detection made without one has none
        frames = [as_frame(dets) for dets in make_dets(n_frames=3)]
        frames = [replace(frames[0], frame_id=3),
                  replace(frames[1], frame_id=None),
                  [replace(d, frame_id=None) for d in frames[2]]]
        assert frames[2][0].frame_id is None
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, frames)
        assert [fid for fid, _ in bio.iter_detection_frames(path)] == [3, 4, 5]

    def test_frame_id_must_increase(self, tmp_path):
        # two frames with id 5 would read back as one frame of four; the
        # refusal leaves no log and no .part file
        frames = [replace(as_frame(dets), frame_id=5)
                  for dets in make_dets(n_frames=2)]
        path = tmp_path / "dets.jsonl"
        with pytest.raises(ValueError, match="^" + re.escape(
                "frame 5 does not follow frame 5: frame ids must increase")
                + "$"):
            bio.write_detections(path, frames)
        assert list(tmp_path.iterdir()) == []

    def test_frame_with_detections_needs_a_timestamp(self, tmp_path):
        # a record's timestamp is the frame's; the refusal leaves no log
        # and no .part file
        frames = [as_frame(dets) for dets in make_dets(n_frames=2)]
        frames[1] = replace(frames[1], timestamp=None)
        path = tmp_path / "dets.jsonl"
        with pytest.raises(ValueError, match="^" + re.escape(
                "frame 1 has detections but no timestamp") + "$"):
            bio.write_detections(path, frames)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("first,second", [("marker", "marker"),
                                              ("marker", "detection"),
                                              ("detection", "marker")])
    def test_marker_must_be_only_record_of_frame(self, tmp_path, first,
                                                 second):
        path = tmp_path / "dets.jsonl"
        recs = {"detection": {"frame_id": 1, "box": [0, 0, 0.8, 4, 2, 1.6, 0],
                              "score": 0.9, "e_img": [1], "e_bev": [1],
                              "e_head": [1]},
                "marker": {"frame_id": 1, "empty": True}}
        lines = [{**recs["detection"], "frame_id": 0}, recs[first],
                 recs[second]]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        want = re.escape(f"{path}:3: frame 1 has an empty-frame marker")
        with pytest.raises(bio.DataError, match=want):
            bio.read_detections(path)


def assert_frames_equal(got, want):
    """Two DetectionFrames, bitwise: ids, timestamps, dtypes and values."""
    assert (got.frame_id, got.timestamp) == (want.frame_id, want.timestamp)
    for name in ("boxes", "scores", "levels", "emb"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestDetectionFrames:
    """Ingest builds each frame's arrays straight from the records: they
    equal, bit for bit, the frame built from the Detections written."""

    @pytest.mark.parametrize("suite, seed", [("basic", 0), ("high-fp", 3),
                                             ("occlusion", 1)])
    def test_log_frames_equal_frames_of_detections(self, tmp_path, suite,
                                                   seed):
        cfg = replace(standard_suites()[suite], seed=seed, fn_rate=0.4,
                      yaw_std=0.3)
        _, det_frames = generate(cfg)
        det_frames[1] = []  # an empty frame in any case
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, det_frames)
        back = list(bio.iter_detection_frames(path, num_levels=5))
        want = list(number_frames(det_frames))
        assert [f for f, _ in back] == [f for f, _ in want]
        for (_, got), (frame_id, frame) in zip(back, want):
            if frame:
                assert_frames_equal(got, frame)
            else:
                assert (got.frame_id, len(got)) == (frame_id, 0)

    def test_missing_scale_level_takes_the_footprint_rule(self, tmp_path):
        # the simulator's levels are the footprint rule's, so a log without
        # them reads back the same frames
        _, det_frames = generate(replace(standard_suites()["basic"],
                                         dim_std=0.3, fp_rate=3.0))
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, det_frames)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in lines[::2]:
            rec.pop("scale_level", None)
        path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        for (_, got), dets in zip(bio.iter_detection_frames(path),
                                  det_frames):
            assert_frames_equal(got, as_frame(dets))

    def test_yaw_outside_the_half_open_interval_is_wrapped(self, tmp_path):
        yaws = [math.pi, -math.pi, 4.0, -7.5, 3 * math.pi, 1e3, -1e-300]
        dets = [Detection(box=Box3D(i, 0, 0.8, 4.0, 2.0, 1.6, yaw), score=0.9,
                          appearance=AppearanceState([1.0], [0.5], [0.25]),
                          scale_level=2, timestamp=0.5, frame_id=3)
                for i, yaw in enumerate(yaws)]
        path = tmp_path / "dets.jsonl"
        path.write_text("".join(json.dumps({
            "frame_id": 3, "timestamp": 0.5,
            "box": [i, 0, 0.8, 4.0, 2.0, 1.6, yaw], "score": 0.9,
            "scale_level": 2, "e_img": [1.0], "e_bev": [0.5],
            "e_head": [0.25]}) + "\n" for i, yaw in enumerate(yaws)))
        (got,) = bio.read_detections(path)
        assert_frames_equal(got, as_frame(dets))
        assert (got.boxes[:, 6] > -math.pi).all()
        assert (got.boxes[:, 6] <= math.pi).all()

    @pytest.mark.parametrize("bad, message", [
        ({"score": 1.5}, "score must be in [0, 1], got 1.5"),
        ({"box": [0, 0, 0.8, -4, 2, 1.6, 0]},
         "invalid box: box dims must be positive, got (-4.0, 2.0, 1.6)"),
        ({"scale_level": 9}, "scale_level 9 outside [0, 5)"),
        ({"scale_level": -1}, "scale_level must be non-negative"),
        ({"e_bev": [1, 1e999]}, "e_bev contains NaN/Inf"),
        ({"e_head": [1]}, "appearance embeddings must share one dimension"),
        ({"e_img": [1], "e_bev": [1], "e_head": [1]},
         "embedding length 1 differs from the first detection's 2"),
        ({"timestamp": 1e999}, "timestamp must be a finite number")])
    @pytest.mark.parametrize("later", [
        None, "{ not json", '{"frame_id": 0, "box": [0, 0, 0.8, 4, 2, 1.6, '
        '0], "score": "0.9", "e_img": [1, 0], "e_bev": [1, 0], '
        '"e_head": [1, 0]}', '{"frame_id": 0, "empty": true}',
        '{"frame_id": -1, "empty": true}'],
        ids=["alone", "json", "mistyped", "marker", "descending"])
    def test_bad_record_mid_frame_names_its_own_line(self, tmp_path, bad,
                                                     message, later):
        good = {"frame_id": 0, "timestamp": 0.0,
                "box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "score": 0.9,
                "scale_level": 1, "e_img": [1, 0], "e_bev": [1, 0],
                "e_head": [1, 0]}
        # 1e999 is valid JSON that parses to inf
        lines = [json.dumps(good), json.dumps(good),
                 json.dumps({**good, **bad}).replace("Infinity", "1e999"),
                 json.dumps(good)]
        if later is not None:
            lines.append(later)
        path = tmp_path / "dets.jsonl"
        path.write_text("\n".join(lines) + "\n")
        want = "^" + re.escape(f"{path}:3: {message}") + "$"
        with pytest.raises(bio.DataError, match=want):
            list(bio.iter_detection_frames(path, num_levels=5))


_small_scenarios = st.builds(
    ScenarioConfig, seed=st.integers(0, 2 ** 32 - 1),
    num_objects=st.integers(0, 4), num_frames=st.integers(1, 4),
    embedding_dim=st.integers(1, 5), pos_std=st.floats(0.0, 1.0),
    yaw_std=st.floats(0.0, 4.0), dim_std=st.floats(0.0, 3.0),
    fp_rate=st.floats(0.0, 2.0), fn_rate=st.floats(0.0, 1.0),
    embedding_noise_std=st.floats(0.0, 2.0))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_small_scenarios)
def test_generated_frames_equal_their_detections_and_their_log(tmp_path,
                                                               cfg):
    """Each frame of generate equals, bit for bit, the frame as_frame builds
    from its Detections and the frame its written log reads back."""
    _gt, frames = generate(cfg)
    path = tmp_path / "dets.jsonl"
    bio.write_detections(path, frames)
    back = list(bio.iter_detection_frames(path))
    assert [f for f, _ in back] == list(range(cfg.num_frames))
    for f, (frame, (_, got)) in enumerate(zip(frames, back)):
        assert (frame.frame_id, frame.timestamp) == (f, f * cfg.frame_dt)
        if frame:
            assert_frames_equal(as_frame(list(frame)), frame)
            assert_frames_equal(got, frame)
        else:
            assert (got.frame_id, got.timestamp, len(got)) == (
                f, frame.timestamp, 0)
    assert [got.frame_id for got in bio.read_detections(path)] == [
        frame.frame_id for frame in frames if frame]


# a raw JSON text that replaces one number of a record: wrong kinds,
# non-finite, beyond the float or int64 range, and out of a rule's range
_RAW_NUMBERS = ["true", '"2"', "[0.5]", "[[1]]", "1e999", "-1e999",
                str(2 ** 1024), str(2 ** 63), str(-2 ** 63 - 1), "-1", "0",
                "2"]
_RAW = "\u0000raw"  # a placeholder string no generated log contains


def _mutate(record: dict, data) -> str:
    """One record's JSON line with one drawn mutation."""
    kind = data.draw(st.sampled_from(
        ["number"] * 4 + ["ragged", "no level", "yaw"]))
    if kind == "ragged":
        key = data.draw(st.sampled_from(["e_img", "e_bev", "e_head"]))
        record[key] = (record[key][:-1] if data.draw(st.booleans())
                       else record[key] + [0.5])
    elif kind == "no level":
        del record["scale_level"]
    elif kind == "yaw":
        yaw = record["box"][6]
        record["box"][6] = data.draw(st.sampled_from(
            [math.pi, -math.pi, 4.0, -7.5, 1e3, yaw + 6 * math.pi]))
    elif kind == "number":
        key = data.draw(st.sampled_from(["score", "timestamp", "scale_level",
                                         "box", "e_img", "e_bev", "e_head"]))
        if not isinstance(record[key], list):
            record[key] = _RAW
        elif record[key]:
            record[key][data.draw(st.integers(0, len(record[key]) - 1))] = _RAW
        raw = data.draw(st.sampled_from(_RAW_NUMBERS))
        return json.dumps(record).replace(json.dumps(_RAW), raw)
    return json.dumps(record)


def _check_every_record(path, num_levels):
    """The record-by-record check of every detection record of a log."""
    dim = None
    for line_no, record in bio._records(path):
        if record.get("empty") is not True:
            dim = bio._check_detection(record, path, line_no, dim,
                                       DEFAULT_SCALE_BREAKPOINTS, num_levels)


def _frames_from_rows(path):
    """(frame_id, DetectionFrame.from_rows of the frame's parsed rows)."""
    frames: dict[int, list] = {}
    for _line_no, record in bio._records(path):
        frames.setdefault(record["frame_id"], []).append(record)
    for frame_id, records in frames.items():
        dets = [r for r in records if r.get("empty") is not True]
        stamp = (dets[0].get("timestamp", 0.0) if dets
                 else records[0].get("timestamp"))  # a marker's
        yield frame_id, DetectionFrame.from_rows(
            frame_id, stamp, [r["box"] for r in dets],
            [r["score"] for r in dets],
            [r.get("scale_level") for r in dets],
            [[r[k] for k in ("e_img", "e_bev", "e_head")] for r in dets]
            or np.zeros((0, 3, 0)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_small_scenarios, num_levels=st.sampled_from([None, 5]),
       data=st.data())
def test_ingest_paths_agree_on_generated_logs(tmp_path, cfg, num_levels,
                                              data):
    """With one mutation in a generated log, ingest yields frames exactly
    when the record-by-record check passes every record; the frames equal
    from_rows of the parsed rows, and an error is the record path's."""
    _gt, frames = generate(cfg)
    path = tmp_path / "dets.jsonl"
    bio.write_detections(path, frames)
    lines = path.read_text().splitlines()
    dets = [i for i, line in enumerate(lines) if '"empty"' not in line]
    if dets:
        i = data.draw(st.sampled_from(dets))
        lines[i] = _mutate(json.loads(lines[i]), data)
    path.write_text("".join(line + "\n" for line in lines))
    try:
        _check_every_record(path, num_levels)
        want = None
    except bio.DataError as exc:
        want = str(exc)
    try:
        got = list(bio.iter_detection_frames(path, num_levels=num_levels))
    except bio.DataError as exc:
        assert str(exc) == want
    else:
        assert want is None
        expected = list(_frames_from_rows(path))
        assert [f for f, _ in got] == [f for f, _ in expected]
        for (_, frame), (_, rows) in zip(got, expected):
            assert_frames_equal(frame, rows)


_sparse_scenarios = st.builds(
    lambda cfg, fn_rate, num_frames: replace(cfg, fn_rate=fn_rate,
                                             num_frames=num_frames),
    _small_scenarios, st.floats(0.5, 1.0), st.integers(2, 8))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_sparse_scenarios, max_age=st.integers(1, 4))
def test_cli_track_equals_run_sequence_on_generated_scenes(tmp_path, cfg,
                                                           max_age):
    """bevtrack track on a generated log equals run_sequence at the
    scenario's frame period, empty frames included."""
    _gt, frames = generate(cfg)
    path, tracks = tmp_path / "dets.jsonl", tmp_path / "tracks.jsonl"
    bio.write_detections(path, frames)
    assert main(["track", "--dets", str(path), "--out", str(tracks),
                 "--max-age", str(max_age)]) == 0
    outputs, _ = run_sequence(frames, TrackerConfig(max_age=max_age),
                              default_dt=cfg.frame_dt)
    assert bio.read_tracks(tracks) == {f: preds for f, preds
                                       in outputs.items() if preds}


class TestGroundTruthLog:
    def test_round_trip(self, tmp_path):
        gt, _ = generate(ScenarioConfig(seed=3, num_objects=3, num_frames=4,
                                        occlusion_events=((1, 1, 2),)))
        path = tmp_path / "gt.jsonl"
        bio.write_ground_truth(path, gt)
        back = bio.read_ground_truth(path)
        assert back == list(gt)


    def test_duplicate_gt_id_in_frame_names_line(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        rec = {"box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "visible": True}
        lines = [{"frame_id": 0, "gt_id": 1}, {"frame_id": 0, "gt_id": 2},
                 {"frame_id": 1, "gt_id": 1}, {"frame_id": 1, "gt_id": 1}]
        path.write_text("".join(json.dumps({**r, **rec}) + "\n"
                                for r in lines))
        with pytest.raises(bio.DataError,
                           match=r":4: duplicate gt_id 1 in frame 1"):
            bio.read_ground_truth(path)
        path.write_text("".join(json.dumps({**r, **rec}) + "\n"
                                for r in lines[:3]))
        assert [len(g.objects) for g in bio.read_ground_truth(path)] == [2, 1]


    @pytest.mark.parametrize("field, raw, message", [
        ("gt_id", '"x"', "gt_id must be an integer"),
        ("gt_id", "1.0", "gt_id must be an integer"),
        ("frame_id", '"1"', "frame_id must be an integer"),
        ("timestamp", "1e999", "timestamp must be a finite number"),
        ("timestamp", '"0.1"', "timestamp must be a finite number")])
    def test_malformed_field_names_line(self, tmp_path, field, raw, message):
        values = {"frame_id": "1", "gt_id": "2", "timestamp": "0.1"}
        values[field] = raw
        path = tmp_path / "gt.jsonl"
        path.write_text(
            gt_line("0", "1", "0.0") + "\n"
            + gt_line(values["frame_id"], values["gt_id"],
                      values["timestamp"]) + "\n")
        with pytest.raises(bio.DataError,
                           match=f"{re.escape(str(path))}:2: {message}"):
            bio.read_ground_truth(path)

    @pytest.mark.parametrize("raw", ['"false"', "[0]", "0", "null"])
    def test_visible_must_be_boolean(self, tmp_path, raw):
        path = tmp_path / "gt.jsonl"
        path.write_text(gt_line("0", "1", "0.0") + "\n"
                        + gt_line("0", "2", "0.0").replace("true", raw) + "\n")
        with pytest.raises(bio.DataError, match=re.escape(
                f"{path}:2: visible must be true or false")):
            bio.read_ground_truth(path)
        path.write_text(gt_line("0", "1", "0.0").replace(', "visible": true',
                                                         "") + "\n")
        assert bio.read_ground_truth(path)[0].objects[0][2] is True


def gt_line(frame_id, gt_id, timestamp):
    return ('{"frame_id": %s, "timestamp": %s, "gt_id": %s, '
            '"box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "visible": true}'
            % (frame_id, timestamp, gt_id))


def track_line(frame_id, track_id, score):
    return ('{"frame_id": %s, "track_id": %s, '
            '"box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "score": %s, '
            '"scale_level": 2}' % (frame_id, track_id, score))


class TestLogNumbers:
    """A number in a log is a JSON number: true and "2" do not pass as 1.0
    and 2.0, in a box or in an embedding."""

    @pytest.mark.parametrize("raw", ["true", '"2"'])
    @pytest.mark.parametrize("field", ["box", "e_img", "e_bev", "e_head"])
    def test_detection_log(self, tmp_path, field, raw):
        values = {"box": "[0, 0, 0.8, 4, 2, 1.6, 0.0]", "e_img": "[1, 0]",
                  "e_bev": "[1, 0]", "e_head": "[1, 0]"}
        line = ('{"frame_id": 0, "box": %(box)s, "score": 0.9, '
                '"e_img": %(e_img)s, "e_bev": %(e_bev)s, '
                '"e_head": %(e_head)s}')
        good = line % values
        values[field] = values[field].replace("[", f"[{raw}, ", 1)
        path = tmp_path / "dets.jsonl"
        path.write_text(good + "\n" + line % values + "\n")
        with pytest.raises(bio.DataError, match=re.escape(
                f"{path}:2: {field} must be a list of numbers")):
            bio.read_detections(path)

    @pytest.mark.parametrize("raw", ["true", '"2"'])
    @pytest.mark.parametrize("kind", ["gt", "tracks"])
    def test_ground_truth_and_track_logs(self, tmp_path, kind, raw):
        line, read = ((gt_line("0", "1", "0.0"), bio.read_ground_truth)
                      if kind == "gt" else
                      (track_line("0", "1", "0.9"), bio.read_tracks))
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(line.replace('"box": [0,', f'"box": [{raw},') + "\n")
        with pytest.raises(bio.DataError, match=re.escape(
                f"{path}:1: box must be a list of numbers")):
            read(path)

    def test_track_exits_1_on_a_boolean_box_entry(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text('{"frame_id": 0, "box": [true, "2", 0.8, 4, 2, 1.6, '
                        '0.0], "score": 0.9, "e_img": [1], "e_bev": [1], '
                        '"e_head": [1]}\n')
        assert main(["track", "--dets", str(dets), "--out",
                     str(tmp_path / "t.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: {dets}:1: box must be a list of numbers\n")

    def test_embedding_length_must_match_the_first_detection(self, tmp_path,
                                                             capsys):
        rec = {"box": [0, 0, 0.8, 4, 2, 1.6, 0.0], "score": 0.9}
        dets = tmp_path / "dets.jsonl"
        dets.write_text("".join(
            json.dumps({"frame_id": f, **rec, "e_img": [1.0] * c,
                        "e_bev": [1.0] * c, "e_head": [1.0] * c}) + "\n"
            for f, c in ((0, 2), (1, 3))))
        message = (f"{dets}:2: embedding length 3 differs from the first "
                   "detection's 2")
        with pytest.raises(bio.DataError, match=re.escape(message)):
            bio.read_detections(dets)
        assert main(["track", "--dets", str(dets), "--out",
                     str(tmp_path / "t.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestTrackLog:
    @pytest.mark.parametrize("field, raw, message", [
        ("track_id", '"7"', "track_id must be an integer"),
        ("frame_id", '"0"', "frame_id must be an integer"),
        ("score", "1e999", "score must be a finite number"),
        ("score", '"0.9"', "score must be a finite number")])
    def test_malformed_field_names_line(self, tmp_path, field, raw, message):
        # the first record is frame 0, track 7: a "7" string id beside it
        # must not pass as a second track
        values = {"frame_id": "0", "track_id": "8", "score": "0.8"}
        values[field] = raw
        path = tmp_path / "tracks.jsonl"
        path.write_text(track_line("0", "7", "0.9") + "\n"
                        + track_line(values["frame_id"], values["track_id"],
                                     values["score"]) + "\n")
        with pytest.raises(bio.DataError,
                           match=f"{re.escape(str(path))}:2: {message}"):
            bio.read_tracks(path)

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


class TestWrittenIds:
    """Each writer writes only ids and values its reader takes: a numpy
    integer as a JSON integer, and a float or bool id, a non-finite
    number or a repeated id is a ValueError that names the field and
    leaves the file as it was."""

    OLD = b"old bytes\n"

    def refused(self, path, write, field, rule="must be an integer"):
        path.write_bytes(self.OLD)
        with pytest.raises(ValueError, match=re.escape(f"{field}: {rule}")):
            write()
        assert path.read_bytes() == self.OLD

    def test_ground_truth(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        box = Box3D(0, 0, 0.8, 4, 2, 1.6, 0.1)

        def frames(frame_id, gt_id):
            return [GroundTruthFrame(frame_id, 0.5, ((gt_id, box, True),))]

        bio.write_ground_truth(path, frames(np.int64(3), np.int32(2)))
        assert bio.read_ground_truth(path) == frames(3, 2)
        for field, frame_id, gt_id in (("gt_id", 0, 2.5), ("gt_id", 0, True),
                                       ("frame_id", 1.0, 2),
                                       ("frame_id", False, 2)):
            self.refused(path, lambda: bio.write_ground_truth(
                path, frames(frame_id, gt_id)), field)

    def test_ground_truth_values(self, tmp_path):
        """A finite timestamp, a bool visible, each frame id once and each
        gt id once in its frame: the log reads back what was written."""
        path = tmp_path / "gt.jsonl"
        box = Box3D(0, 0, 0.8, 4, 2, 1.6, 0.1)
        good = GroundTruthFrame(0, 0.5, ((1, box, False),))
        later = GroundTruthFrame(1, np.float64(0.6), ((1, box, True),))
        bio.write_ground_truth(path, [good, later])
        assert bio.read_ground_truth(path) == [good, later]
        finite, boolean = "must be a finite number", "must be true or false"
        for frames, field, rule in (
                ([replace(good, timestamp=math.nan)], "timestamp", finite),
                ([good, replace(later, timestamp=math.inf)], "timestamp",
                 finite),
                ([replace(good, timestamp=True)], "timestamp", finite),
                ([replace(good, objects=((1, box, "no"),))], "visible",
                 boolean),
                ([replace(good, objects=((1, box, 0),))], "visible", boolean),
                ([replace(good, objects=((1, box, True), (1, box, True)))],
                 "gt_id", "1 repeats in frame 0"),
                ([good, later, replace(good, timestamp=0.7)], "frame_id",
                 "0 repeats")):
            self.refused(path, lambda: bio.write_ground_truth(path, frames),
                         field, rule)

    def test_track_records(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        box = Box3D(0, 0, 0.8, 4, 2, 1.6, 0.1)
        rec = {"frame_id": np.int64(4), "track_id": np.uint8(7), "box": box,
               "score": 0.9, "scale_level": np.int16(2)}
        bio.write_track_records(path, [rec])
        assert bio.read_tracks(path) == {4: [(7, box, 0.9)]}
        assert json.loads(path.read_text())["scale_level"] == 2
        for field, value in (("track_id", 1.5), ("track_id", True),
                             ("frame_id", True), ("frame_id", 4.0),
                             ("scale_level", 2.0), ("scale_level", False)):
            self.refused(path, lambda: bio.write_track_records(
                path, [{**rec, field: value}]), field)
        for score in (math.inf, math.nan, True, "0.9"):
            self.refused(path, lambda: bio.write_track_records(
                path, [{**rec, "score": score}]), "score",
                "must be a finite number")

    def test_detections(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        frame = as_frame(make_dets(n_frames=1)[0])
        bio.write_detections(path, [replace(frame, frame_id=np.int64(6))])
        assert [f for f, _ in bio.iter_detection_frames(path)] == [6]
        for bad in (2.5, True):
            self.refused(path, lambda: bio.write_detections(
                path, [replace(frame, frame_id=bad)]), "frame_id")
            trk = Tracker()
            with pytest.raises(ValueError,
                               match="frame_id: must be an integer"):
                trk.step(replace(frame, frame_id=bad), 0.1)
            assert not trk.tracklets
        trk = Tracker()
        trk.step(replace(frame, frame_id=np.int64(6)), 0.1)
        trk.step(replace(frame, frame_id=None), 0.1)
        assert type(trk._last_frame_id) is int
        assert trk._last_frame_id == 7


def overflow_log(path, n_frames=3):
    """A detection log whose gap from frame 0 to frame 1 (1e300 s)
    overflows the Kalman predict of frame 1; valid as a log."""
    path.write_text("".join(json.dumps({
        "frame_id": f, "timestamp": ts, "box": [0, 0, 0.8, 4, 2, 1.6, 0.0],
        "score": 0.9, "e_img": [1], "e_bev": [1], "e_head": [1]}) + "\n"
        for f, ts in enumerate([0.0, 1e300, 1.7e308][:n_frames])))
    return path


class TestWholeOrNothing:
    """A log is written whole or not at all: a writer that fails leaves no
    .part file, does not create a target that did not exist, and leaves
    one that existed byte-identical."""

    @staticmethod
    def _write_detections(tmp_path, out):
        frames = [replace(as_frame(dets), frame_id=5)
                  for dets in make_dets(n_frames=2)]
        with pytest.raises(ValueError, match="frame 5 does not follow"):
            bio.write_detections(out, frames)

    @staticmethod
    def _write_track_records(tmp_path, out):
        rec = {"frame_id": 0, "track_id": 1,
               "box": Box3D(0, 0, 0.8, 4, 2, 1.6, 0.1), "score": 0.9,
               "scale_level": 2}
        with pytest.raises(ValueError, match="duplicate track record"):
            bio.write_track_records(out, [rec, rec])

    @staticmethod
    def _track(tmp_path, out):
        dets = overflow_log(tmp_path / "dets.jsonl")
        assert main(["track", "--dets", str(dets), "--out", str(out)]) == 1

    @staticmethod
    def _write_file(tmp_path, out):
        def chunks():
            yield b"new bytes\n"
            raise RuntimeError("no second chunk")

        with pytest.raises(RuntimeError, match="no second chunk"):
            bio.write_file(out, chunks())

    @pytest.mark.parametrize("existed", [False, True])
    @pytest.mark.parametrize("writer", ["_write_detections",
                                        "_write_track_records", "_track",
                                        "_write_file"])
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, writer,
                                                      existed):
        out = tmp_path / "out" / "log.jsonl"
        out.parent.mkdir()
        old = track_line("0", "7", "0.9").encode() + b"\n"
        if existed:
            out.write_bytes(old)
        getattr(self, writer)(tmp_path, out)
        assert [p.name for p in out.parent.iterdir()] == (
            ["log.jsonl"] if existed else [])
        if existed:
            assert out.read_bytes() == old

    RECORDS = [{"frame_id": 0, "track_id": t,
                "box": Box3D(0, 0, 0.8, 4, 2, 1.6, 0.1), "score": 0.9,
                "scale_level": 2} for t in (1, 2)]

    def test_fifo_is_written_as_a_stream(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            bio.write_track_records(fifo, self.RECORDS)
            got = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [json.loads(line)["track_id"] for line in got.splitlines()] == [
            1, 2]
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    @pytest.mark.parametrize("fails", [False, True])
    def test_symlink_writes_its_target(self, tmp_path, fails):
        (tmp_path / "logs").mkdir()
        target = tmp_path / "logs" / "log.jsonl"
        target.write_text("old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        records = self.RECORDS + self.RECORDS[:fails]  # a duplicate fails
        if fails:
            with pytest.raises(ValueError, match="duplicate track record"):
                bio.write_track_records(link, records)
        else:
            bio.write_track_records(link, records)
        assert link.is_symlink() and link.resolve() == target
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "link.jsonl", "log.jsonl", "logs"]
        assert (target.read_text() == "old\n") == fails

    def test_replaced_file_keeps_its_permission_bits(self, tmp_path):
        out = tmp_path / "log.jsonl"
        out.write_text("old\n")
        out.chmod(0o640)
        bio.write_track_records(out, self.RECORDS)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert len(out.read_text().splitlines()) == 2

    def test_symlinked_report_replaces_its_target(self, tmp_path, capsys):
        gt, tracks = tmp_path / "gt.jsonl", tmp_path / "tracks.jsonl"
        gt.write_text(gt_line(0, 1, 0.0) + "\n")
        tracks.write_text(track_line(0, 1, 0.9) + "\n")
        (tmp_path / "reports").mkdir()
        target = tmp_path / "reports" / "report.json"
        target.write_text("old\n")
        old = tmp_path / "old.json"  # a second name of the old file
        os.link(target, old)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["evaluate", "--gt", str(gt), "--tracks", str(tracks),
                     "--report", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert json.loads(target.read_text())["amota"] == 1.0
        assert old.read_text() == "old\n"  # replaced whole, not rewritten
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "gt.jsonl", "link.json", "old.json", "report.json", "reports",
            "tracks.jsonl"]

    def test_init_config_keeps_the_permission_bits(self, tmp_path):
        out = tmp_path / "cfg.yaml"
        out.write_text("old\n")
        out.chmod(0o640)
        old = tmp_path / "old.yaml"  # a second name of the old file
        os.link(out, old)
        assert main(["init-config", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text() == bio.DEFAULT_CONFIG_TEXT
        assert old.read_text() == "old\n"  # replaced whole, not rewritten
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.yaml", "old.yaml"]

    def test_write_array_writes_the_bytes_of_np_save(self, tmp_path):
        array = np.arange(12.0).reshape(3, 4)
        np.save(tmp_path / "saved.npy", array)
        bio.write_array(tmp_path / "written.npy", array)
        assert ((tmp_path / "written.npy").read_bytes()
                == (tmp_path / "saved.npy").read_bytes())

    def test_another_runs_part_file_is_left_alone(self, tmp_path):
        # two runs that write one log use .part files of their own
        out = tmp_path / "log.jsonl"
        other = tmp_path / "log.jsonl.part"
        other.write_text("another run's lines\n")
        bio.write_track_records(out, self.RECORDS)
        assert other.read_text() == "another run's lines\n"
        assert len(out.read_text().splitlines()) == 2

    def test_missing_directory_names_the_path_given(self, tmp_path, capsys):
        dets = overflow_log(tmp_path / "dets.jsonl", 1)
        out = tmp_path / "nowhere" / "tracks.jsonl"
        assert main(["track", "--dets", str(dets), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["dets.jsonl"]


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
        assert cfg.tracker.clue_weights == ClueWeights(bev=0.5)
        assert cfg.eval == EvalConfig(recall_thresholds=10)
        assert cfg.tracker == TrackerConfig(clue_weights=ClueWeights(bev=0.5))

    def test_template_names_every_key_of_the_schema(self):
        """The init-config template lists exactly the fields of AppConfig
        and of each dataclass below it."""
        def walk(section, hint, key):
            hints = get_type_hints(hint)
            assert set(section) == set(hints), key
            for name, sub in hints.items():
                if is_dataclass(sub):
                    walk(section[name], sub, key + (name,))

        walk(yaml.safe_load(bio.DEFAULT_CONFIG_TEXT), bio.AppConfig, ())

    def test_partial_nested_override_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("refiner: {bev: {kernel_sizes: [1, 1, 3, 3, 5]}}\n"
                        "tracker: {clue_weights: ~}\nmotion: ~\n")
        cfg = bio.load_config(path)
        assert cfg == replace(bio.AppConfig(), refiner=RefinerConfig(
            bev=replace(DEFAULT_BEV_GRID, kernel_sizes=(1, 1, 3, 3, 5))))
        assert cfg.refiner.image == DEFAULT_IMAGE_GRID

    def test_breakpoints_fit_the_tracker_levels(self):
        """len(scale_breakpoints) + 1 footprint levels, at most
        tracker.num_levels of them."""
        app = bio.AppConfig(tracker=TrackerConfig(num_levels=3),
                            scale_breakpoints=(1.0, 4.0))
        assert app.tracker.num_levels == 3
        with pytest.raises(ValueError, match=re.escape(
                "scale_breakpoints: 2 breakpoints give 3 scale levels, but "
                "tracker.num_levels is 2") + "$"):
            replace(app, tracker=TrackerConfig(num_levels=2))

    def test_switches_and_ratio_tables(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("tracker:\n  use_cascade: false\n"
                        "  buffer_ratios: [0.4]\n")
        assert bio.load_config(path).tracker == TrackerConfig(
            use_cascade=False, buffer_ratios=(0.4,))

    def test_exponent_floats_without_dot(self, tmp_path):
        """YAML 1.1 reads -1e9 and 1e-6 as strings; they still load as the
        numbers they spell, as the template's similarity_gate note says."""
        path = tmp_path / "cfg.yaml"
        path.write_text("tracker: {similarity_gate: -1e9}\n"
                        "motion: {meas_pos_std: 1e-6, meas_yaw_std: 1.0e3}\n"
                        "scale_breakpoints: [1e0, 4, 1.2e+1, 3e1]\n")
        cfg = bio.load_config(path)
        assert cfg.tracker.similarity_gate == -1e9
        assert (cfg.motion.meas_pos_std,
                cfg.motion.meas_yaw_std) == (1e-6, 1e3)
        assert cfg.scale_breakpoints == (1.0, 4.0, 12.0, 30.0)

    def test_none_path_gives_defaults(self):
        assert bio.load_config(None) == bio.AppConfig()

    @pytest.mark.parametrize("text, key, message", [
        ("tracker: {max_ag: 7}", "tracker.max_ag", "unknown key"),
        ("refiner: {fusion_heads: 2}", "refiner.fusion_heads", "unknown key"),
        ("tracker: [1, 2]", "tracker", "must be a mapping"),
        ("tracker: {clue_weights: 0.5}", "tracker.clue_weights",
         "must be a mapping"),
        ("tracker: {max_age: 2.0}", "tracker.max_age", "must be an integer"),
        ("refiner: {bev: {kernel_sizes: [1, 3, 5, 7, 9.5]}}",
         "refiner.bev.kernel_sizes", "must be an integer"),
        ("motion: {meas_pos_std: abc}", "motion.meas_pos_std",
         "must be a finite number"),
        ("motion: {meas_pos_std: nan}", "motion.meas_pos_std",
         "must be a finite number"),
        ("tracker: {similarity_gate: -1e999}", "tracker.similarity_gate",
         "must be a finite number"),
        ("tracker: {max_age: 1e3}", "tracker.max_age", "must be an integer"),
        ("eval: {match_distance: .inf}", "eval.match_distance",
         "must be a finite number"),
        ("scale_breakpoints: [1.0, .nan]", "scale_breakpoints",
         "must be a finite number"),
        ("refiner: {bev: {num_levels: 4}}", "refiner.bev.scope_radii",
         "5 entries for 4 levels"),
        ("refiner: {image: {kernel_sizes: [1, 3]}}",
         "refiner.image.kernel_sizes", "2 entries for 3 levels"),
        ("tracker: {iou_threshold: 2}", "tracker.iou_threshold",
         "must be in [0, 1]"),
        ("refiner: {bev: {kernel_sizes: [1, 3, 5, 7, 8]}}",
         "refiner.bev.kernel_sizes", "each must be odd and >= 1"),
        ("refiner: {image: {kernel_sizes: [0, 3, 5]}}",
         "refiner.image.kernel_sizes", "each must be odd and >= 1"),
        ("refiner: {bev: {scope_radii: [2.0, -4.0, 8.0, 16.0, 24.0]}}",
         "refiner.bev.scope_radii", "must be > 0"),
        ("refiner: {image: {scope_radii: [2.0, 4.0, 0.0]}}",
         "refiner.image.scope_radii", "must be > 0"),
        ("refiner: {bev: {num_levels: 0}}", "refiner.bev.num_levels",
         "must be >= 1"),
        ("scale_breakpoints: [30.0, 1.0]", "scale_breakpoints",
         "must be strictly increasing, got [30.0, 1.0]"),
        ("scale_breakpoints: [1.0, 4.0, 4.0, 30.0]", "scale_breakpoints",
         "must be strictly increasing"),
        ("tracker: {buffer_ratios: [0.1, 0.2]}", "tracker.buffer_ratios",
         "must be non-increasing from smallest to largest scale level"),
        ("tracker: {buffer_ratios: [0.3, -0.1]}", "tracker.buffer_ratios",
         "must be >= 0"),
        ("tracker: {buffer_ratios: []}", "tracker.buffer_ratios",
         "must be non-empty"),
        ("tracker: {buffer_ratios: 0.5}", "tracker.buffer_ratios",
         "must be a list"),
        ("tracker: {use_cascade: 0}", "tracker.use_cascade",
         "must be true or false"),
        ("tracker: {use_buffer: 'false'}", "tracker.use_buffer",
         "must be true or false"),
        ("tracker: {clue_weights: {img: -1}}", "tracker.clue_weights.img",
         "must be >= 0"),
        ("motion: {meas_pos_std: 0}", "motion.meas_pos_std",
         "must be > 0"),
        ("tracker: {max_age: -1}", "tracker.max_age", "must be >= 0"),
        ("tracker: {ema_alpha: 1.5}", "tracker.ema_alpha",
         "must be in [0, 1]"),
        ("tracker: {buffer_ratios: [0.5, true]}", "tracker.buffer_ratios",
         "must be a finite number"),
        ("eval: {recall_thresholds: 0}", "eval.recall_thresholds",
         "must be >= 1"),
        ("eval: {match_distance: -2}", "eval.match_distance", "must be > 0"),
    ])
    def test_invalid_config_names_file_and_key(self, tmp_path, text, key,
                                                message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text + "\n")
        with pytest.raises(bio.ConfigError,
                           match=re.escape(f"{path}: {key}: {message}")):
            bio.load_config(path)


class TestCliConfig:
    @pytest.mark.parametrize("argv", [
        ["track", "--dets", "dets.jsonl", "--out", "tracks.jsonl"],
        ["evaluate", "--gt", "gt.jsonl", "--tracks", "tracks.jsonl"],
        ["refine-demo", "--grid", "8x8x2", "--out", "refined"],
        ["ablate", "--suites", "basic"]])
    def test_bad_config_exits_1_naming_the_key(self, tmp_path, capsys, argv):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("refiner:\n  bev: {num_levels: 4}\n"
                       "  image: {num_levels: 4}\n")
        argv = [str(tmp_path / a) if a.endswith((".jsonl", "refined")) else a
                for a in argv]
        assert main(argv + ["--config", str(cfg)]) == 1
        assert f"{cfg}: refiner." in capsys.readouterr().err
        assert not (tmp_path / "refined").exists()

    @pytest.mark.parametrize("text, message", [
        ("scale_breakpoints: [1, 2, 4, 8, 16]",
         "5 breakpoints give 6 scale levels, but tracker.num_levels is 5"),
        ("tracker: {num_levels: 3}",
         "4 breakpoints give 5 scale levels, but tracker.num_levels is 3")])
    def test_breakpoints_beyond_the_levels_exit_1(self, tmp_path, capsys,
                                                   text, message):
        """The config is refused, not the first record that takes its level
        (4 by the default breakpoints, 5 by the longer ones) from them."""
        dets, cfg, out = (tmp_path / name for name in
                          ("dets.jsonl", "cfg.yaml", "tracks.jsonl"))
        dets.write_text(json.dumps({
            "frame_id": 0, "timestamp": 0.0, "box": [0, 0, 0.8, 8, 4, 1.6, 0],
            "score": 0.9, "e_img": [1], "e_bev": [1], "e_head": [1]}) + "\n")
        cfg.write_text(text + "\n")
        assert main(["track", "--dets", str(dets), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: scale_breakpoints: {message}\n")
        assert not out.exists()

    def test_even_kernel_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("refiner: {bev: {kernel_sizes: [1, 3, 5, 7, 8]}}\n")
        out = tmp_path / "refined"
        assert main(["refine-demo", "--grid", "8x8x2", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: refiner.bev.kernel_sizes: "
            "each must be odd and >= 1\n")
        assert not out.exists()


class TestCliSimulate:
    def test_writes_files_with_expected_counts(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--suite", "basic", "--out", str(out)]) == 0
        gt = bio.read_ground_truth(out / "gt.jsonl")
        assert len(gt) == 40
        text = capsys.readouterr().out
        assert "seed=101" in text

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--suite", "basic", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_program_fault_keeps_its_traceback(self, tmp_path, monkeypatch,
                                               capsys):
        # only an InputError is a data error; a ValueError from a fault of
        # the program propagates out of main with its traceback
        def generate(cfg):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("bevtrack.simulator.generate", generate)
        with pytest.raises(ValueError, match="^operands could not"):
            main(["simulate", "--suite", "basic", "--out", str(tmp_path)])
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("text, key, message", [
        ("num_objectz: 3", "num_objectz", "unknown key"),
        ("[1, 2]", "(top level)", "must be a mapping"),
        ("num_objects: abc", "num_objects", "must be an integer"),
        ("spawn_overrides: {0: {x: 1}}", "spawn_overrides.0",
         "missing 3 required positional arguments")])
    def test_bad_scenario_exits_1_naming_the_key(self, tmp_path, capsys,
                                                 text, key, message):
        spec = tmp_path / "scenario.yaml"
        spec.write_text(text + "\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(spec), "--out",
                     str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: {key}: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("num_objects: -1", "num_objects must be >= 0"),
        ("score_range: [0.9, 0.1]", "score_range must be [low, high]"),
        ("speed_range: [5, 1]", "speed_range must be [low, high]"),
        ("object_classes: [plane, car, car, car]",
         "object_classes ['plane'] are not in size_classes"),
        ("companions: [[0, 9, 1.0]]",
         "companions names object 9, but num_objects is 4"),
        ("frame_dt: -1", "frame_dt must be > 0"),
        ("num_frames: 0", "num_frames must be >= 1"),
        ("arena: [0, 10]", "arena must be > 0"),
        ("occlusion_events: [[9, 0, 3]]",
         "occlusion_events names object 9, but num_objects is 4"),
        ("embedding_dim: 0", "embedding_dim must be >= 1"),
        ("size_classes: {}", "size_classes must name at least one class"),
        ("spawn_overrides: {4: {x: 1, y: 2, heading: 0, speed: 1}}",
         "spawn_overrides names object 4"),
        ("occlusion_events: [[0, -1, 3]]", "occlusion_events must be >= 0"),
        ("companions: [[0, 1, -2.0]]", "companions must be >= 0"),
        ("size_classes: {car: [0, 1, 1]}",
         "size_classes.car must be > 0"),
        ("score_range: [0.5, 1.5]", "score_range must be in [0, 1]"),
        ("fp_score_range: [-0.1, 0.5]", "fp_score_range must be in [0, 1]"),
        ("seed: -1", "seed must be >= 0"),
        # one frame's draws would not fit numpy's index type: a traceback
        # from numpy, or a run that never ends, without the bound
        ("embedding_dim: 100000000000000000000", "embedding_dim must be <= "),
        ("num_objects: 100000000000000000000\nnum_frames: 2",
         "num_objects must be <= ")])
    def test_out_of_range_scenario_exits_1(self, tmp_path, capsys, text,
                                           message):
        # message is the key, a space and the start of its rule's text
        key, rule = message.split(" ", 1)
        spec = tmp_path / "scenario.yaml"
        spec.write_text(text + "\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(spec), "--out",
                     str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: {key}: {rule}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_scenario_file_takes_every_field_kind(self, tmp_path):
        spec = tmp_path / "scenario.yaml"
        spec.write_text(
            "seed: 4\nnum_objects: 3\narena: [40, 50.5]\nfn_rate: 1e-1\n"
            "size_classes: {car: [4, 2, 1.5], bike: [2, 0.8, 1.6]}\n"
            "object_classes: [car, bike, car]\n"
            "spawn_overrides: {1: {x: 1, y: 2, heading: 0.5, speed: 3}}\n"
            "occlusion_events: [[0, 2, 3]]\ncompanions: [[0, 2, 4.5]]\n")
        assert bio.load_scenario(spec) == ScenarioConfig(
            seed=4, num_objects=3, arena=(40.0, 50.5), fn_rate=0.1,
            size_classes={"car": (4.0, 2.0, 1.5), "bike": (2.0, 0.8, 1.6)},
            object_classes=("car", "bike", "car"),
            spawn_overrides={1: SpawnSpec(1.0, 2.0, 0.5, 3.0)},
            occlusion_events=((0, 2, 3),), companions=((0, 2, 4.5),))
        spec.write_text("")
        assert bio.load_scenario(spec) == ScenarioConfig()

    @pytest.mark.parametrize("text, key, message", [
        ("arena: [1, 2, 3]", "arena", "must have 2 entries"),
        ("occlusion_events: [[0, 1]]", "occlusion_events",
         "must have 3 entries"),
        ("object_classes: [1]", "object_classes", "must be a string"),
        ("spawn_overrides: {a: {x: 1, y: 2, heading: 0, speed: 1}}",
         "spawn_overrides.a", "must be an integer"),
        ("spawn_overrides: {0: {x: 1, y: 2, heading: 0, speed: 1, z: 0}}",
         "spawn_overrides.0.z", "unknown key"),
        ("frame_dt: .nan", "frame_dt", "must be a finite number"),
        ("seed: true", "seed", "must be an integer"),
        ("fn_rate: 2", "fn_rate", "must be in [0, 1]"),
        ("fp_rate: -1", "fp_rate", "must be >= 0"),
        ("yaw_std: -0.5", "yaw_std", "must be >= 0")])
    def test_invalid_scenario_names_file_and_key(self, tmp_path, text, key,
                                                  message):
        spec = tmp_path / "scenario.yaml"
        spec.write_text(text + "\n")
        with pytest.raises(bio.ConfigError,
                           match=re.escape(f"{spec}: {key}: {message}")):
            bio.load_scenario(spec)


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

    def test_yaml_switch_and_flag_each_turn_cascading_off(self, tmp_path):
        # a level-3 van, then a level-1 motorbike on it with another look:
        # only a flat stage 2 matches them across two levels
        def det(frame_id, box, level, axis):
            return Detection(box=box, score=0.96, appearance=AppearanceState(
                *[np.eye(2)[axis]] * 3), scale_level=level,
                timestamp=0.1 * frame_id, frame_id=frame_id)

        dets = tmp_path / "dets.jsonl"
        bio.write_detections(dets, [
            [det(0, Box3D(0, 0, 1.1, 4.6, 2.9, 2.2, 0), 3, 0)],
            [det(1, Box3D(0.4, 0.5, 0.6, 2.4, 0.9, 1.3, 0), 1, 1)]])
        on, off = tmp_path / "on.yaml", tmp_path / "off.yaml"
        on.write_text("tracker: {use_cascade: true}\n")
        off.write_text("tracker: {use_cascade: false}\n")
        runs = {}
        for name, cfg, flags in [("default", on, []),
                                 ("yaml", off, []),
                                 ("flag", on, ["--no-cascade"]),
                                 ("both", off, ["--no-cascade"])]:
            out = tmp_path / f"{name}.jsonl"
            assert main(["track", "--dets", str(dets), "--out", str(out),
                         "--config", str(cfg)] + flags) == 0
            runs[name] = {r["track_id"] for r in map(
                json.loads, out.read_text().splitlines())}
        assert runs["default"] == {1, 2}
        assert runs["yaml"] == runs["flag"] == runs["both"] == {1}

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

    def test_negative_max_age_exit_2(self, tmp_path, capsys):
        sim = self._simulate(tmp_path)
        out = tmp_path / "tracks.jsonl"
        assert main(["track", "--dets", str(sim / "dets.jsonl"), "--out",
                     str(out), "--max-age", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: --max-age must be >= 0, got -1\n")
        assert not out.exists()

    def test_overflowing_frame_exit_1_names_it_and_keeps_the_old_log(
            self, tmp_path, capsys):
        tracks = tmp_path / "tracks.jsonl"
        argv = ["track", "--out", str(tracks), "--dets"]
        assert main(argv + [str(overflow_log(tmp_path / "one.jsonl", 1))]) == 0
        old = tracks.read_bytes()
        capsys.readouterr()
        assert main(argv + [str(overflow_log(tmp_path / "dets.jsonl"))]) == 1
        assert capsys.readouterr() == ("", "error: frame 1: state must be "
                                       "finite\n")
        assert tracks.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dets.jsonl", "one.jsonl", "tracks.jsonl"]

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

    def test_out_of_range_scale_level_exit_1_names_line(self, tmp_path,
                                                         capsys):
        dets = tmp_path / "dets.jsonl"
        rec = {"frame_id": 0, "box": [0, 0, 0.8, 4, 2, 1.6, 0.0],
               "score": 0.9, "e_img": [1], "e_bev": [1], "e_head": [1]}
        dets.write_text(json.dumps({**rec, "scale_level": 1}) + "\n"
                        + json.dumps({**rec, "scale_level": 9}) + "\n")
        code = main(["track", "--dets", str(dets), "--out",
                     str(tmp_path / "t.jsonl")])
        assert code == 1
        assert f"{dets}:2: scale_level 9 outside [0, 5)" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("bad_file, line", [
        ("gt", gt_line("0", '"x"', "0.0")),
        ("gt", gt_line('"1"', "1", "0.0")),
        ("gt", gt_line("1", "1", "1e999")),
        ("tracks", track_line("0", "1", "1e999")),
        ("tracks", track_line("0", '"7"', "0.9"))],
        ids=["gt-id-string", "gt-frame-string", "gt-timestamp-inf",
             "track-score-inf", "track-id-string"])
    def test_evaluate_malformed_field_exit_1_names_line(self, tmp_path,
                                                         capsys, bad_file,
                                                         line):
        files = {"gt": [gt_line("0", "1", "0.0")],
                 "tracks": [track_line("0", "7", "0.9")]}
        files[bad_file].append(line)
        for name, lines in files.items():
            (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--gt", str(tmp_path / "gt.jsonl"),
                     "--tracks", str(tmp_path / "tracks.jsonl")])
        assert code == 1
        assert f"{tmp_path / bad_file}.jsonl:2: " in capsys.readouterr().err

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


class TestCliLibraryParity:
    """``bevtrack track`` on a written log and ``run_sequence`` on the
    generated frames give the same outputs, with empty frames present."""

    @staticmethod
    def _cli(tmp_path, det_frames, max_age):
        path = tmp_path / "dets.jsonl"
        bio.write_detections(path, det_frames)
        tracks = tmp_path / f"tracks-{max_age}.jsonl"
        assert main(["track", "--dets", str(path), "--out", str(tracks),
                     "--max-age", str(max_age)]) == 0
        return bio.read_tracks(tracks)

    @staticmethod
    def _lib(det_frames, max_age, frame_dt):
        outputs, _ = run_sequence(det_frames, TrackerConfig(max_age=max_age),
                                  default_dt=frame_dt)
        return {f: preds for f, preds in outputs.items() if preds}

    @pytest.mark.parametrize("seed", [5, 9])
    @pytest.mark.parametrize("suite", sorted(standard_suites()))
    def test_every_suite_with_empty_frames(self, tmp_path, suite, seed):
        scenario = replace(standard_suites()[suite], seed=seed, fn_rate=0.5)
        _gt, dets = generate(scenario)
        assert any(not frame for frame in dets)
        # every frame, empty or not, carries its timestamp in the log, so
        # the library's frame period reaches no box
        for max_age in (0, 5):
            cli = self._cli(tmp_path, dets, max_age)
            for frame_dt in (0.1, scenario.frame_dt):
                assert cli == self._lib(dets, max_age, frame_dt), (max_age,
                                                                   frame_dt)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_empty_frame_before_the_second_timestamp(self, tmp_path, seed):
        # frame 1 is empty and coasting tracklets step across it: without
        # the marker's timestamp the CLI would step it by 0.1 s, not the
        # suite's 0.5 s
        scenario = replace(standard_suites()["occlusion"], seed=seed,
                           fn_rate=0.5)
        _gt, dets = generate(scenario)
        assert dets[0] and not dets[1]
        assert self._cli(tmp_path, dets, 5) == self._lib(dets, 5,
                                                         scenario.frame_dt)

    def test_empty_frame_repro(self, tmp_path):
        # one object missed in 40 % of frames: with max_age 0 every miss
        # ends its tracklet, so both sides open 7 ids
        gt, dets = generate(ScenarioConfig(seed=3, num_objects=1,
                                           fn_rate=0.4))
        for out in (self._cli(tmp_path, dets, 0), self._lib(dets, 0, 0.1)):
            assert len({p[0] for preds in out.values() for p in preds}) == 7
            assert evaluate(gt, out).amota == pytest.approx(0.390, abs=5e-4)


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

    @pytest.mark.parametrize("line", [
        '{"center": [NaN, 1]}',
        '{"center": [5, 5, 9]}',
        '{"center": [2, 2], "footprint": [1]}',
        '{"center": [2, 2], "e_cat": [1, 1, 1, 1, 1, true]}',
        '{"center": [2, 2], "e_cat": [1, 1, 1, 1, 1, "2"]}'])
    def test_bad_object_line_exit_1_with_path_line(self, tmp_path, capsys,
                                                   line):
        objs = tmp_path / "objs.jsonl"
        objs.write_text('{"center": [1, 1]}\n\n' + line + "\n")
        out = tmp_path / "demo"
        assert main(["refine-demo", "--grid", "8x8x2", "--objects", str(objs),
                     "--seed", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {objs}:3: ")
        assert not out.exists()

    def test_bad_grid_spec_exit_2(self, tmp_path):
        code = main(["refine-demo", "--grid", "16x16", "--out",
                     str(tmp_path / "demo")])
        assert code == 2

    def test_negative_num_objects_exit_2(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["refine-demo", "--grid", "8x8x2", "--num-objects", "-3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --num-objects must be >= 0, got -3\n")
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["refine-demo", "--grid", "8x8x2", "--seed", "-4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --seed must be >= 0, got -4\n")
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["0x5x5", "8x8x0", "8x8x-1"])
    def test_grid_dimension_below_1_exit_2(self, tmp_path, capsys, spec):
        out = tmp_path / "demo"
        assert main(["refine-demo", "--grid", spec, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: grid dimensions must be >= 1, got {spec!r}\n")
        assert not out.exists()


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

    def test_negative_max_age_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        assert main(["ablate", "--suites", "basic", "--max-age", "-2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --max-age must be >= 0, got -2\n")
        assert not out.exists()


class TestCliMisc:
    def test_init_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        assert main(["init-config", "--out", str(path)]) == 0
        assert bio.load_config(path) == bio.AppConfig()

    def test_missing_input_file_exit_1(self, tmp_path):
        assert main(["track", "--dets", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "t.jsonl")]) == 1


class TestCliFileErrors:
    """A path that cannot be read, created or replaced exits 1 with one
    error: line that names it, and nothing is written."""

    CASES = {
        "track-out-dir": "track --dets DETS --out DIR",
        "evaluate-report-dir": "evaluate --gt GT --tracks TRACKS --report DIR",
        "ablate-out-dir": "ablate --suites basic --out DIR",
        "init-config-out-dir": "init-config --out DIR",
        "simulate-out-file": "simulate --suite basic --out FILE",
        "refine-demo-out-file": "refine-demo --grid 8x8x2 --out FILE",
        "track-dets-dir": "track --dets DIR --out OUT",
        "track-config-dir": "track --dets DETS --config DIR --out OUT",
        "refine-demo-objects-dir": "refine-demo --grid 8x8x2 --objects DIR "
                                   "--out OUT",
        "evaluate-gt-dir": "evaluate --gt DIR --tracks TRACKS",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_unusable_path_exit_1_names_it(self, tmp_path, capsys, case):
        paths = {"DETS": overflow_log(tmp_path / "dets.jsonl", 1),
                 "GT": tmp_path / "gt.jsonl",
                 "TRACKS": tmp_path / "tracks.jsonl",
                 "DIR": tmp_path / "dir", "FILE": tmp_path / "file",
                 "OUT": tmp_path / "out"}
        paths["GT"].write_text(gt_line(0, 1, 0.0) + "\n")
        paths["TRACKS"].write_text(track_line(0, 1, 0.9) + "\n")
        paths["DIR"].mkdir()
        paths["FILE"].write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        words = self.CASES[case].split()
        assert main([str(paths.get(word, word)) for word in words]) == 1
        named = paths["DIR" if "DIR" in words else "FILE"]
        assert re.fullmatch(rf"error: \[Errno \d+\] [^\n]+: "
                            rf"'{re.escape(str(named))}'\n",
                            capsys.readouterr().err)
        assert sorted(tmp_path.rglob("*")) == before
        assert paths["FILE"].read_text() == "kept\n"

    @pytest.mark.parametrize("command", [
        "ablate --suites basic,crossing --out DIR",
        "evaluate --gt GT --tracks TRACKS --report DIR"])
    def test_unusable_output_fails_before_the_work(self, tmp_path, capsys,
                                                   command):
        """The output is opened before the work that fills it, so nothing
        of the work is printed."""
        paths = {"GT": tmp_path / "gt.jsonl", "DIR": tmp_path / "dir",
                 "TRACKS": tmp_path / "tracks.jsonl"}
        paths["GT"].write_text(gt_line(0, 1, 0.0) + "\n")
        paths["TRACKS"].write_text(track_line(0, 1, 0.9) + "\n")
        paths["DIR"].mkdir()
        argv = [str(paths.get(word, word)) for word in command.split()]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# each reader's command and the kind of file it reads at BAD
_READERS = {
    "track-dets": ("track --dets BAD --out OUT", "jsonl"),
    "evaluate-gt": ("evaluate --gt BAD --tracks TRACKS", "jsonl"),
    "evaluate-tracks": ("evaluate --gt GT --tracks BAD", "jsonl"),
    "refine-demo-objects": ("refine-demo --grid 8x8x2 --objects BAD "
                            "--out OUT", "jsonl"),
    "track-config": ("track --dets DETS --config BAD --out OUT", "yaml"),
    "simulate-scenario": ("simulate --scenario BAD --out OUT", "yaml"),
}
# a log's line 2 or a YAML file's bytes
_BAD = {"not-utf8": {"jsonl": b'{"frame_id": 1, "note": "caf\xe9"}\n',
                     "yaml": b"# caf\xe9\nseed: 1\n"},
        "too-deep": {"jsonl": b"[" * 5000 + b"\n",
                     "yaml": b"seed: " + b"[" * 5000 + b"\n"},
        "syntax": {"yaml": b"seed: [1,\nx: }\n"}}


class TestCliUndecodableFiles:
    """A log line or a YAML file that is not UTF-8, or that nests deeper
    than its parser can follow, exits 1 with one error: line naming the
    file (and for a log the line), not a traceback, and writes nothing; so
    does a YAML syntax error, whose parser message spans lines."""

    # a valid line 1 of each log
    FIRST_LINE = {"track-dets": '{"frame_id": 0, "empty": true}',
                  "evaluate-gt": gt_line(0, 1, 0.0),
                  "evaluate-tracks": track_line(0, 1, 0.9),
                  "refine-demo-objects": '{"center": [1, 1]}'}

    @pytest.mark.parametrize("reader, bad", [
        (reader, bad) for reader, (_, kind) in _READERS.items()
        for bad, files in _BAD.items() if kind in files])
    def test_exit_1_with_one_line(self, tmp_path, capsys, reader, bad):
        command, kind = _READERS[reader]
        paths = {"BAD": tmp_path / f"bad.{kind}", "OUT": tmp_path / "out",
                 "DETS": overflow_log(tmp_path / "dets.jsonl", 1),
                 "GT": tmp_path / "gt.jsonl",
                 "TRACKS": tmp_path / "tracks.jsonl"}
        paths["GT"].write_text(gt_line(0, 1, 0.0) + "\n")
        paths["TRACKS"].write_text(track_line(0, 1, 0.9) + "\n")
        bad_path = paths["BAD"]
        if kind == "jsonl":
            head, where = self.FIRST_LINE[reader] + "\n", f"{bad_path}:2: "
        else:
            head, where = "", f"{bad_path}: "
        bad_path.write_bytes(head.encode() + _BAD[bad][kind])
        argv = [str(paths.get(word, word)) for word in command.split()]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {where}") and err.count("\n") == 1
        assert not paths["OUT"].exists()
