"""Deterministic synthetic scenarios: ground truth plus noisy detections.

Objects follow constant-speed, constant-turn-rate trajectories. Each
ground-truth identity owns one orthogonalized unit anchor vector per
appearance clue; its detections perturb that anchor and re-normalize, so
appearance matching is testable without a trained network.

All randomness flows from one seeded generator with a fixed draw order
(the schedule below), so a config value of zero still consumes its draws
and never reorders the rest:

  1. per object: spawn x, y, heading, speed, turn rate
     (overrides/companions then overwrite some of these with fresh draws)
  2. per clue family (img, bev, head): anchor matrix, orthogonalized
  3. per frame, per object: miss u, box noise (3 pos + yaw + 3 dims),
     3 x C embedding noise, score
  4. per frame: false-positive count (Poisson), then per FP: x, y, yaw,
     dims class pick, score, 3 x C embedding draws
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (AtLeastOne, Box3D, Count, FieldError, NonNegative,
                       Positive, Unit, check_fields, typed, wrap_angle)
from .tracker import DetectionFrame

DEFAULT_SIZE_CLASSES: dict[str, tuple[float, float, float]] = {
    "car": (4.5, 1.9, 1.6),
    "pedestrian": (0.6, 0.6, 1.7),
    "truck": (8.0, 2.5, 3.0),
}


@dataclass(frozen=True)
class SpawnSpec:
    """Pins an object's initial pose and motion (used by scripted suites)."""

    x: float
    y: float
    heading: float
    speed: float
    turn_rate: float = 0.0

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: Count = 0
    num_objects: Count = 4
    num_frames: AtLeastOne = 40
    frame_dt: Positive = 0.1
    arena: tuple[Positive, Positive] = (60.0, 60.0)
    size_classes: dict[str, tuple[Positive, Positive, Positive]] = field(
        default_factory=lambda: dict(DEFAULT_SIZE_CLASSES))
    object_classes: tuple[str, ...] | None = None  # per-object; None = cycle
    speed_range: tuple[float, float] = (2.0, 6.0)
    turn_rate_range: tuple[float, float] = (-0.2, 0.2)
    pos_std: NonNegative = 0.0
    yaw_std: NonNegative = 0.0
    dim_std: NonNegative = 0.0
    fp_rate: NonNegative = 0.0
    fn_rate: Unit = 0.0
    embedding_dim: AtLeastOne = 32
    embedding_noise_std: NonNegative = 0.0
    score_range: tuple[Unit, Unit] = (0.6, 1.0)
    fp_score_range: tuple[Unit, Unit] = (0.1, 0.9)
    # (obj, start, len)
    occlusion_events: tuple[tuple[int, Count, Count], ...] = ()
    spawn_overrides: dict[int, SpawnSpec] = field(default_factory=dict)
    # (leader, follower, gap): follower spawns within gap meters of the
    # leader and copies its motion, staying a close neighbor for the whole
    # scenario
    companions: tuple[tuple[int, int, NonNegative], ...] = ()

    def __post_init__(self):
        check_fields(self)
        n = self.num_objects
        # one frame draws num_objects x (7 + 3 x embedding_dim) values into
        # one array, whose size numpy's index type must hold
        limit = int(np.iinfo(np.intp).max)
        per_object = 7 + 3 * self.embedding_dim
        if per_object > limit:
            raise ValueError(
                f"embedding_dim: must be <= {(limit - 7) // 3}")
        if n * per_object > limit:
            raise ValueError(
                f"num_objects: must be <= {limit // per_object} with "
                f"embedding_dim {self.embedding_dim}")
        if not self.size_classes:
            raise ValueError("size_classes: must name at least one class")
        for name in ("speed_range", "turn_rate_range", "score_range",
                     "fp_score_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(
                    f"{name}: must be [low, high] with low <= high")
        if self.object_classes is not None:
            if len(self.object_classes) != n:
                raise ValueError("object_classes: must name every object")
            unknown = sorted(set(self.object_classes) - set(self.size_classes))
            if unknown:
                raise ValueError(f"object_classes: {unknown} are not in "
                                 f"size_classes")
        named = [("occlusion_events", event[0])
                 for event in self.occlusion_events]
        named += [("spawn_overrides", obj) for obj in self.spawn_overrides]
        named += [("companions", obj) for pair in self.companions
                  for obj in pair[:2]]
        for name, obj in named:
            if not 0 <= obj < n:
                raise ValueError(f"{name}: names object {obj}, but "
                                 f"num_objects is {n}")

    def noiseless(self) -> "ScenarioConfig":
        """Same trajectories and occlusions, zero observation corruption."""
        return replace(self, pos_std=0.0, yaw_std=0.0, dim_std=0.0,
                       fp_rate=0.0, fn_rate=0.0, embedding_noise_std=0.0)


@dataclass(frozen=True)
class GroundTruthFrame:
    """One frame of ground truth: an integer frame id, a finite timestamp
    and a (gt_id, box, visible) triple per object, each gt_id an integer
    once in the frame, each box a Box3D and visible a bool. Ids and flags
    are kept as ``typed`` gives them; a breach is a ValueError naming the
    field."""

    frame_id: int
    timestamp: float
    # (gt_id, box, visible) per object, each part checked under its name
    # below; a bare hint, so check_fields does not walk the objects twice
    objects: tuple

    def __post_init__(self):
        check_fields(self)
        objects = {}  # by gt_id
        for obj in self.objects:
            if not isinstance(obj, (tuple, list)) or len(obj) != 3:
                raise FieldError(("objects",), "each must be a (gt_id, box, "
                                 "visible) triple")
            gid, box, visible = obj
            gid = typed(gid, int, ("gt_id",))
            if gid in objects:
                raise FieldError(("gt_id",),
                                 f"{gid} repeats in frame {self.frame_id}")
            if not isinstance(box, Box3D):
                raise FieldError(("box",), "must be a Box3D")
            objects[gid] = (gid, box, typed(visible, bool, ("visible",)))
        object.__setattr__(self, "objects", tuple(objects.values()))


def _anchor_matrix(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n orthogonalized unit row vectors (falls back to plain normalized
    rows when n > dim)."""
    raw = rng.normal(size=(n, dim))
    if n <= dim:
        q, _ = np.linalg.qr(raw.T)
        return q.T[:n]
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The norm of each last-axis row of v, taken one row at a time as
    ``np.linalg.norm`` takes a vector's, so every norm keeps its bits."""
    rows = v.reshape(-1, v.shape[-1])
    return np.sqrt([row.dot(row) for row in rows]).reshape(v.shape[:-1])


# box row columns (cx, cy, cz, length, width, height, yaw) in the order of
# the per-object box noise draws (3 pos, yaw, 3 dims)
_NOISE_COLUMNS = [0, 1, 2, 4, 5, 6, 3]


def generate(cfg: ScenarioConfig) -> tuple[list[GroundTruthFrame],
                                           list[DetectionFrame]]:
    """Simulate one scenario; fully reproducible from cfg.seed. Each frame's
    detections are one DetectionFrame, true detections in object order
    before the false positives, with levels from the footprint rule; a
    frame without any keeps its frame id and timestamp."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_objects
    class_names = list(cfg.size_classes)
    if cfg.object_classes is not None:
        classes = list(cfg.object_classes)
    else:
        classes = [class_names[i % len(class_names)] for i in range(n)]

    # schedule step 1: spawn draws, one row (x, y, heading, speed, turn
    # rate) per object
    xs, ys, headings, speeds, turns = np.array([
        (rng.uniform(-0.4, 0.4) * cfg.arena[0],
         rng.uniform(-0.4, 0.4) * cfg.arena[1],
         rng.uniform(-math.pi, math.pi), rng.uniform(*cfg.speed_range),
         rng.uniform(*cfg.turn_rate_range)) for _ in range(n)]).reshape(n, 5).T
    for i, spec in sorted(cfg.spawn_overrides.items()):
        xs[i], ys[i] = spec.x, spec.y
        headings[i], speeds[i], turns[i] = spec.heading, spec.speed, spec.turn_rate
    for leader, follower, gap in cfg.companions:
        angle = rng.uniform(-math.pi, math.pi)
        radius = rng.uniform(0.5 * gap, gap)
        xs[follower] = xs[leader] + radius * math.cos(angle)
        ys[follower] = ys[leader] + radius * math.sin(angle)
        headings[follower] = headings[leader]
        speeds[follower] = speeds[leader]
        turns[follower] = turns[leader]

    # schedule step 2: appearance anchors, (n, 3, C) in clue order
    dim = cfg.embedding_dim
    anchors = np.stack([_anchor_matrix(rng, n, dim) for _clue in range(3)],
                       axis=1)

    occluded: set[tuple[int, int]] = set()
    for obj, start, duration in cfg.occlusion_events:
        for f in range(start, start + duration):
            occluded.add((obj, f))

    dims = np.array([cfg.size_classes[c] for c in classes]).reshape(n, 3)
    box_std = np.array([cfg.pos_std] * 3 + [cfg.dim_std] * 3 + [cfg.yaw_std])
    gt_frames: list[GroundTruthFrame] = []
    det_frames: list[DetectionFrame] = []
    pos = np.stack([xs, ys], axis=1)
    heading = headings.copy()

    for f in range(cfg.num_frames):
        t = f * cfg.frame_dt
        if f > 0:
            heading = heading + turns * cfg.frame_dt
            step = speeds * cfg.frame_dt
            pos = pos + np.stack([step * np.cos(heading),
                                  step * np.sin(heading)], axis=1)
        boxes = np.column_stack([pos, dims[:, 2] / 2.0, dims,
                                 wrap_angle(heading)])
        visible = [(i, f) not in occluded for i in range(n)]

        # schedule step 3 (draws consumed for every object, visible or
        # not, so occlusion windows never shift later draws); one normal
        # draw of 7 + 3 x C values is the box noise, then the embeddings'
        draws = [(rng.uniform(), rng.normal(size=7 + 3 * dim),
                  rng.uniform(*cfg.score_range)) for _ in range(n)]
        kept = [i for i, (miss, _, _) in enumerate(draws)
                if visible[i] and miss >= cfg.fn_rate]
        noise = np.reshape([draws[i][1] for i in kept], (-1, 7 + 3 * dim))
        scores = [draws[i][2] for i in kept]
        det_boxes = boxes[kept] + box_std * noise[:, _NOISE_COLUMNS]
        det_boxes[:, 3:6] = np.maximum(det_boxes[:, 3:6], 0.05)
        det_anchors = anchors[kept]
        det_emb = det_anchors + cfg.embedding_noise_std * noise[
            :, 7:].reshape(-1, 3, dim)
        norms = _row_norms(det_emb)
        # a noisy embedding of (near) zero norm falls back to its anchor
        small = norms < 1e-12
        det_emb[small], norms[small] = det_anchors[small], 1.0
        det_emb /= norms[..., None]

        # schedule step 4: false positives
        fp_boxes, fp_noise = [], []
        for _ in range(int(rng.poisson(cfg.fp_rate))):
            fx = rng.uniform(-0.5, 0.5) * cfg.arena[0]
            fy = rng.uniform(-0.5, 0.5) * cfg.arena[1]
            fyaw = rng.uniform(-math.pi, math.pi)
            cls = class_names[int(rng.integers(len(class_names)))]
            scores.append(rng.uniform(*cfg.fp_score_range))
            fp_noise.append(rng.normal(size=3 * dim))
            dl, dw, dh = cfg.size_classes[cls]
            fp_boxes.append((fx, fy, dh / 2.0, dl, dw, dh, fyaw))
        fp_emb = np.reshape(fp_noise, (-1, 3, dim))
        fp_emb /= _row_norms(fp_emb)[..., None]

        gt_frames.append(GroundTruthFrame(frame_id=f, timestamp=t, objects=(
            tuple((i, Box3D(*box), vis) for i, (box, vis)
                  in enumerate(zip(boxes.tolist(), visible))))))
        det_frames.append(DetectionFrame.from_rows(
            f, t, np.concatenate([det_boxes, np.reshape(fp_boxes, (-1, 7))]),
            scores, [None] * len(scores),
            np.concatenate([det_emb, fp_emb])))
    return gt_frames, det_frames


def standard_suites() -> dict[str, ScenarioConfig]:
    """The fixed six-scenario suite with pinned seeds.

    basic           gentle motion, light noise
    crossing        two cars whose paths cross (offset in time)
    occlusion       objects hidden for several consecutive frames
    dense-neighbors large objects with a close small neighbor
    small-objects   fast pedestrians whose raw inter-frame IoU vanishes
    high-fp         heavy clutter of false detections
    """
    suites: dict[str, ScenarioConfig] = {}
    suites["basic"] = ScenarioConfig(
        seed=101, num_objects=4, num_frames=40, frame_dt=0.1,
        object_classes=("car", "car", "truck", "pedestrian"),
        speed_range=(2.0, 6.0), pos_std=0.1, yaw_std=0.02, dim_std=0.05,
        embedding_noise_std=0.1,
    )
    suites["crossing"] = ScenarioConfig(
        seed=202, num_objects=2, num_frames=20, frame_dt=0.1,
        object_classes=("car", "car"),
        spawn_overrides={
            0: SpawnSpec(x=-12.0, y=-2.0, heading=0.0, speed=6.0),
            1: SpawnSpec(x=12.0, y=2.0, heading=math.pi, speed=6.0),
        },
        pos_std=0.1, embedding_noise_std=0.1,
    )
    # turning objects + half-second frames: constant-velocity predictions
    # drift meters across an occlusion window, so re-identification falls
    # to the appearance clues
    suites["occlusion"] = ScenarioConfig(
        seed=303, num_objects=4, num_frames=40, frame_dt=0.5,
        object_classes=("car", "car", "car", "truck"),
        speed_range=(3.0, 5.0), turn_rate_range=(-0.3, 0.3),
        pos_std=0.15, yaw_std=0.03, dim_std=0.05,
        embedding_noise_std=0.15, fn_rate=0.1,
        occlusion_events=((0, 10, 4), (1, 22, 4), (2, 30, 5)),
    )
    # vans (level 3) trailed by motorcycles (level 1): with a level gap of
    # 2 the buffered footprints still reach IoUs above the gate, so flat
    # matching can cross-assign them whenever one detection is missed
    suites["dense-neighbors"] = ScenarioConfig(
        seed=404, num_objects=8, num_frames=50, frame_dt=0.4,
        size_classes={
            "van": (4.6, 2.9, 2.2),
            "motorcycle": (2.4, 0.9, 1.3),
            "car": (4.5, 1.9, 1.6),
        },
        object_classes=("van", "motorcycle", "van", "motorcycle",
                        "van", "motorcycle", "car", "car"),
        speed_range=(1.5, 3.0), turn_rate_range=(-0.1, 0.1),
        companions=((0, 1, 1.6), (2, 3, 1.6), (4, 5, 1.6)),
        pos_std=0.2, yaw_std=0.05, dim_std=0.05,
        embedding_noise_std=0.25, fn_rate=0.25,
    )
    # fast pedestrians at half-second frames: consecutive footprints are
    # disjoint, and the detection jitter often exceeds the raw-IoU pass
    # band while staying inside the buffered one
    suites["small-objects"] = ScenarioConfig(
        seed=505, num_objects=5, num_frames=40, frame_dt=0.5, arena=(30.0, 30.0),
        object_classes=("pedestrian",) * 5,
        speed_range=(1.2, 1.8), turn_rate_range=(-0.15, 0.15),
        pos_std=0.22, yaw_std=0.1, dim_std=0.02,
        embedding_noise_std=0.25, fn_rate=0.15,
    )
    suites["high-fp"] = ScenarioConfig(
        seed=606, num_objects=4, num_frames=40, frame_dt=0.25,
        object_classes=("car", "car", "truck", "pedestrian"),
        speed_range=(2.0, 5.0), pos_std=0.2, yaw_std=0.05, dim_std=0.05,
        embedding_noise_std=0.25, fn_rate=0.1, fp_rate=3.0,
    )
    return suites


ADVERSARIAL_SUITES: tuple[str, ...] = ("dense-neighbors", "occlusion",
                                       "small-objects", "high-fp")

