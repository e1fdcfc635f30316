"""One kind and range rule for every config value: ``geometry.typed``, run
by each config on its own fields (``check_fields``) and by ``io`` on the
YAML files, so the library and the files accept and refuse the same
values."""

import math
import re
from dataclasses import fields, is_dataclass, replace
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np
import pytest
import yaml
from numpy.typing import NDArray

from bevtrack import io as bio
from bevtrack.association import ClueWeights
from bevtrack.geometry import FieldError, typed
from bevtrack.metrics import EvalConfig
from bevtrack.motion import NoiseConfig
from bevtrack.refiner import RefinerConfig, RefinerGridConfig
from bevtrack.simulator import ScenarioConfig, SpawnSpec
from bevtrack.tracker import TrackerConfig

BAD = (True, "x", 2.5, math.nan, math.inf, 10**400)

# fields that are empty or None by default, given a value so that each of
# their entries is reachable
SCENARIO = replace(ScenarioConfig(), object_classes=("car",) * 4,
                   occlusion_events=((0, 2, 3),), companions=((0, 1, 2.0),),
                   spawn_overrides={0: SpawnSpec(0.0, 0.0, 0.0, 1.0)})


def plain(value):
    """A config as the YAML document that spells it."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    return value


def positions(config, owner=()):
    """(owner path, owner, field path) of every value in config: the owner
    is the innermost config that holds it, the field path leads from the
    owner to it. A list is followed through its first and last entries."""
    for f in fields(config):
        yield from _below(getattr(config, f.name), owner, config, (f.name,))


def _below(value, owner_path, owner, path):
    yield owner_path, owner, path
    if is_dataclass(value):
        yield from positions(value, owner_path + path)
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _below(v, owner_path, owner, path + (k,))
    elif isinstance(value, tuple):
        for i in sorted({0, len(value) - 1} & set(range(len(value)))):
            yield from _below(value[i], owner_path, owner, path + (i,))


def _set(doc, path, value):
    """doc with the value at path (keys and list indices) replaced."""
    if not path:
        return value
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = _set(doc[path[0]], path[1:], value)
    return doc


ROOTS = {"run config": (bio.AppConfig(), bio.load_config),
         "scenario": (SCENARIO, bio.load_scenario)}


def _owners():
    """{(root, owner path): (owner, [field path, ...])}"""
    owners = {}
    for root, (config, _load) in ROOTS.items():
        for owner_path, owner, path in positions(config):
            owners.setdefault((root, owner_path), (owner, []))[1].append(path)
    return owners


OWNERS = _owners()


@pytest.mark.parametrize("root, owner_path", OWNERS, ids=[
    f"{root}:{'.'.join(map(str, owner_path)) or '(top level)'}"
    for root, owner_path in OWNERS])
def test_library_and_file_agree_on_every_field(tmp_path, root, owner_path):
    """Each bad value, and a scalar where the field is a list, gives the
    library constructor of the owning config and the file the same
    outcome: the same message apart from the file's "path: section."
    prefix, or the same accepted config."""
    config, load = ROOTS[root]
    owner, paths = OWNERS[root, owner_path]
    doc = plain(config)
    file = tmp_path / "config.yaml"
    prefix = "".join(f"{key}." for key in owner_path)
    differ = []
    for path in paths:
        cell = doc
        for key in owner_path + path:
            cell = cell[key]
        for bad in BAD + ((2.5,) if isinstance(cell, list) else ()):
            value = _set(plain(getattr(owner, path[0])), path[1:], bad)
            try:
                lib, lib_error = replace(owner, **{path[0]: value}), None
            except ValueError as exc:
                lib, lib_error = None, str(exc)
            file.write_text(yaml.safe_dump(_set(doc, owner_path + path, bad)))
            try:
                loaded, file_error = load(file), None
            except bio.ConfigError as exc:
                loaded, file_error = None, str(exc)
            if lib_error is not None:
                if file_error != f"{file}: {prefix}{lib_error}":
                    differ.append((path, bad, lib_error, file_error))
                continue
            for key in owner_path:
                loaded = (loaded[key] if isinstance(loaded, dict)
                          else getattr(loaded, key))
            if file_error is not None or loaded != lib:
                differ.append((path, bad, lib, file_error or loaded))
    assert differ == []


def bounds(config, owner_path=()):
    """(owner path, owner, field path, kind, Bound, keys) of each value in
    config whose type hint declares a Bound, where keys is the field path
    without its list indices, the path a message names. Every entry of a
    fixed-length list is followed, the first and last of any other."""
    for name, hint in get_type_hints(type(config),
                                     include_extras=True).items():
        yield from _bounded(getattr(config, name), hint, owner_path, config,
                            (name,), (name,))


def _bounded(value, hint, owner_path, owner, path, keys):
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        yield (owner_path, owner, path, *args, keys)
    elif is_dataclass(hint):
        yield from bounds(value, owner_path + path)
    elif origin is dict:
        for k, v in value.items():
            yield from _bounded(v, args[1], owner_path, owner, path + (k,),
                                keys + (k,))
    elif origin is tuple:
        last = len(value) - 1
        for i, v in enumerate(value):
            if args[-1] is not Ellipsis or i in (0, last):
                yield from _bounded(v, args[0] if args[-1] is Ellipsis
                                    else args[i], owner_path, owner,
                                    path + (i,), keys)
    elif type(None) in args and value is not None:  # X | None
        yield from _bounded(value, args[0], owner_path, owner, path, keys)


BOUNDS = {(root, owner_path, path): (owner, *rest)
          for root, (config, _load) in ROOTS.items()
          for owner_path, owner, path, *rest in bounds(config)}


def rule(bound):
    """The message of a bound, spelled out here as the README states it."""
    if bound.high < math.inf:
        return f"must be in [{bound.low}, {bound.high}]"
    return f"must be {'>' if bound.open else '>='} {bound.low}"


def test_every_range_rule_is_a_declared_bound():
    """Each field's range rule, found by its type hint; keys as a file
    names them."""
    found = {}
    for (root, owner_path, _path), (_owner, _kind, bound, keys) in \
            BOUNDS.items():
        found.setdefault(rule(bound), set()).add(
            f"{root}:{'.'.join(map(str, owner_path + keys))}")

    def keys(run, scenario):
        return ({f"run config:{key}" for key in run.split()}
                | {f"scenario:{key}" for key in scenario.split()})

    assert found == {
        "must be in [0, 1]": keys(
            "tracker.iou_threshold tracker.init_score_threshold "
            "tracker.ema_alpha", "fn_rate score_range fp_score_range"),
        "must be >= 0": keys(
            "tracker.max_age tracker.buffer_ratios tracker.clue_weights.img "
            "tracker.clue_weights.bev tracker.clue_weights.head",
            "seed num_objects pos_std yaw_std dim_std fp_rate "
            "embedding_noise_std occlusion_events companions"),
        "must be >= 1": keys(
            "tracker.num_levels eval.recall_thresholds "
            "refiner.image.num_levels refiner.bev.num_levels",
            "num_frames embedding_dim"),
        "must be > 0": keys(
            "eval.match_distance refiner.image.scope_radii "
            "refiner.bev.scope_radii motion.process_pos_std "
            "motion.process_vel_std motion.process_yaw_std "
            "motion.process_dim_std motion.meas_pos_std motion.meas_yaw_std "
            "motion.meas_dim_std",
            "frame_dt arena size_classes.car size_classes.pedestrian "
            "size_classes.truck")}


@pytest.mark.parametrize("root, owner_path, path", BOUNDS, ids=[
    f"{root}:{'.'.join(map(str, owner_path + path))}"
    for root, owner_path, path in BOUNDS])
def test_every_bound_refuses_past_it_and_takes_its_limit(tmp_path, root,
                                                         owner_path, path):
    """A value just past a bound is refused as "<field>: <rule>" by the
    owning config and as "<file>: <key path>: <rule>" by the file; the
    bound's own value is taken where the bound includes it."""
    config, load = ROOTS[root]
    owner, kind, bound, keys = BOUNDS[root, owner_path, path]
    step = ((lambda v, to: v - 1 if to < v else v + 1) if kind is int
            else math.nextafter)
    beyond = [bound.low if bound.open else step(bound.low, -math.inf)]
    limits = [] if bound.open else [bound.low]
    if bound.high < math.inf:
        beyond.append(step(bound.high, math.inf))
        limits.append(bound.high)
    file = tmp_path / "config.yaml"
    for value in beyond:
        field = _set(plain(getattr(owner, path[0])), path[1:], value)
        with pytest.raises(ValueError) as info:
            replace(owner, **{path[0]: field})
        assert str(info.value) == f"{'.'.join(keys)}: {rule(bound)}"
        file.write_text(yaml.safe_dump(
            _set(plain(config), owner_path + path, value)))
        with pytest.raises(bio.ConfigError) as info:
            load(file)
        assert str(info.value) == (
            f"{file}: {'.'.join(map(str, owner_path + keys))}: {rule(bound)}")
    hint = get_type_hints(type(owner), include_extras=True)[path[0]]
    for value in limits:
        field = _set(plain(getattr(owner, path[0])), path[1:], value)
        assert plain(typed(field, hint, path[:1])) == field


class TestMotivatingCases:
    """Values a config file refused that the library let through, each now
    a ValueError naming its field."""

    @pytest.mark.parametrize("build, message", [
        (lambda: NoiseConfig(process_pos_std=True),
         "process_pos_std: must be a finite number"),
        (lambda: TrackerConfig(iou_threshold=True, use_buffer=0),
         "iou_threshold: must be a finite number"),
        (lambda: TrackerConfig(use_buffer=0), "use_buffer: must be true or "
         "false"),
        (lambda: ScenarioConfig(num_objects=2.5),
         "num_objects: must be an integer"),
        (lambda: bio.AppConfig(scale_breakpoints=(1.0, math.nan)),
         "scale_breakpoints: must be a finite number")])
    def test_kind_is_checked(self, build, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda v: ScenarioConfig(frame_dt=v), "frame_dt"),
        (lambda v: NoiseConfig(meas_pos_std=v), "meas_pos_std"),
        (lambda v: ClueWeights(head=v), "head"),
        (lambda v: TrackerConfig(similarity_gate=v), "similarity_gate"),
        (lambda v: EvalConfig(match_distance=v), "match_distance"),
        (lambda v: SpawnSpec(0.0, v, 0.0, 1.0), "y")])
    def test_int_beyond_the_float_range_names_its_field(self, build, field):
        with pytest.raises(ValueError,
                           match=f"^{field}: must be a finite number$"):
            build(10**400)


class TestConversions:
    def test_numpy_numbers_and_lists_become_plain(self):
        cfg = ScenarioConfig(arena=[60, 60], num_objects=np.int64(4),
                             speed_range=list(np.array([2.0, 6.0])))
        assert cfg == ScenarioConfig()
        assert type(cfg.num_objects) is int
        assert type(cfg.arena) is tuple
        assert [type(v) for v in cfg.arena] == [float, float]
        trk = TrackerConfig(buffer_ratios=[0.5, 0.1], max_age=np.int32(2),
                            ema_alpha=np.float32(0.5))
        assert hash(trk) == hash(TrackerConfig(buffer_ratios=(0.5, 0.1),
                                               max_age=2, ema_alpha=0.5))
        assert (type(trk.max_age), type(trk.ema_alpha)) == (int, float)

    def test_nested_mapping_builds_the_config(self):
        app = bio.AppConfig(tracker={"max_age": 3},
                            refiner={"image": {"num_levels": 1,
                                               "scope_radii": [2],
                                               "kernel_sizes": [3]}})
        assert app.tracker == TrackerConfig(max_age=3)
        assert app.refiner.image == RefinerGridConfig(1, (2.0,), (3,))
        assert app.refiner.bev == RefinerConfig().bev
        with pytest.raises(ValueError,
                           match=r"^tracker\.max_age: must be an integer$"):
            bio.AppConfig(tracker={"max_age": True})

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="^process_pos_std: must be a "
                           "finite number$"):
            replace(NoiseConfig(), process_pos_std=True)
        assert replace(TrackerConfig(), buffer_ratios=[0.4]).buffer_ratios \
            == (0.4,)

    def test_numpy_bool_is_a_bool(self):
        assert typed(np.bool_(True), bool) is True
        cfg = TrackerConfig(use_buffer=np.bool_(False))
        assert cfg.use_buffer is False and cfg == TrackerConfig(
            use_buffer=False)
        for value in (np.int64(1), np.float64(0.0)):
            with pytest.raises(FieldError, match="^use_buffer: must be true "
                               "or false$"):
                typed(value, bool, ("use_buffer",))
        with pytest.raises(FieldError, match="^must be an integer$"):
            typed(np.bool_(True), int)

    def test_array_hint_gives_its_dtype(self):
        out = typed([1, 2], NDArray[np.float64])
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0]
        same = np.zeros(3)
        assert typed(same, NDArray[np.float64]) is same
        assert typed([1, 0], NDArray[np.bool_]).tolist() == [True, False]

    def test_typed_names_the_path(self):
        with pytest.raises(FieldError) as info:
            typed({"car": [1, 2, "3"]}, dict[str, tuple[float, float, float]],
                  ("size_classes",))
        assert (info.value.where, info.value.message) == (
            ("size_classes", "car"), "must be a finite number")
        assert str(info.value) == "size_classes.car: must be a finite number"
        assert typed([1, 2], tuple[float, ...]) == (1.0, 2.0)
        assert typed(None, ScenarioConfig, default=SCENARIO) is SCENARIO


class TestYamlScalars:
    def _load(self, tmp_path, text, load=bio.load_config):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        return path, load(path)

    def test_exponent_floats_are_numbers_wherever_they_appear(self,
                                                               tmp_path):
        """-1e9, 1e-6, 1.0e3, .5e3 and 1_000.5e1 load as the numbers they
        spell; in a string field, as a value or as a key, an unquoted one
        is a number too and is refused there, and quoted it loads."""
        _, cfg = self._load(
            tmp_path, "tracker: {similarity_gate: -1e9}\n"
            "motion: {meas_pos_std: 1e-6, meas_yaw_std: 1.0e3,\n"
            "         meas_dim_std: .5e3, process_pos_std: 1_000.5e1}\n")
        assert cfg.tracker.similarity_gate == -1e9
        assert (cfg.motion.meas_pos_std, cfg.motion.meas_yaw_std,
                cfg.motion.meas_dim_std, cfg.motion.process_pos_std) == (
            1e-6, 1e3, 500.0, 10005.0)
        for text, key in [("size_classes: {1e5: [1, 1, 1]}\n",
                           "size_classes.100000.0"),
                          ("object_classes: [car, car, car, 2e0]\n",
                           "object_classes")]:
            with pytest.raises(bio.ConfigError,
                               match=re.escape(f"{key}: must be a string")):
                self._load(tmp_path, text, bio.load_scenario)
        _, scenario = self._load(tmp_path, "size_classes: {'1e5': [1, 1, 1]}"
                                 "\n", bio.load_scenario)
        assert scenario.size_classes == {"1e5": (1.0, 1.0, 1.0)}

    def test_quoted_number_in_a_float_field_is_refused(self, tmp_path):
        """As a quoted integer in an int field already was."""
        for text, key in [("tracker: {iou_threshold: '0.5'}\n",
                           "tracker.iou_threshold"),
                          ("motion: {meas_pos_std: \"1e-6\"}\n",
                           "motion.meas_pos_std")]:
            with pytest.raises(bio.ConfigError, match=re.escape(
                    f"{key}: must be a finite number")):
                self._load(tmp_path, text)
