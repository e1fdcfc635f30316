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

from .association import AppearanceState
from .geometry import Box3D, footprint_scale_level, wrap_angle
from .tracker import Detection

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


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    num_objects: int = 4
    num_frames: int = 40
    frame_dt: float = 0.1
    arena: tuple[float, float] = (60.0, 60.0)
    size_classes: dict[str, tuple[float, float, float]] = field(
        default_factory=lambda: dict(DEFAULT_SIZE_CLASSES))
    object_classes: tuple[str, ...] | None = None  # per-object; None = cycle
    speed_range: tuple[float, float] = (2.0, 6.0)
    turn_rate_range: tuple[float, float] = (-0.2, 0.2)
    pos_std: float = 0.0
    yaw_std: float = 0.0
    dim_std: float = 0.0
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    embedding_dim: int = 32
    embedding_noise_std: float = 0.0
    score_range: tuple[float, float] = (0.6, 1.0)
    fp_score_range: tuple[float, float] = (0.1, 0.9)
    occlusion_events: tuple[tuple[int, int, int], ...] = ()  # (obj, start, len)
    spawn_overrides: dict[int, SpawnSpec] = field(default_factory=dict)
    # (leader, follower, gap): follower spawns within gap meters of the
    # leader and copies its motion, staying a close neighbor for the whole
    # scenario
    companions: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        n = self.num_objects
        if n < 0:
            raise ValueError("num_objects must be >= 0")
        if self.num_frames < 1:
            raise ValueError("num_frames must be >= 1")
        if not self.frame_dt > 0:
            raise ValueError("frame_dt must be > 0")
        if not min(self.arena) > 0:
            raise ValueError("arena extents must be > 0")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if not self.size_classes:
            raise ValueError("size_classes must name at least one class")
        for cls, dims in self.size_classes.items():
            if not min(dims) > 0:
                raise ValueError(f"size_classes.{cls} dims must be > 0")
        for name in ("speed_range", "turn_rate_range", "score_range",
                     "fp_score_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(
                    f"{name} must be [low, high] with low <= high")
            if name.endswith("score_range") and (low < 0 or high > 1):
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.fn_rate <= 1.0:
            raise ValueError("fn_rate: must be in [0, 1]")
        for name in ("fp_rate", "pos_std", "yaw_std", "dim_std",
                     "embedding_noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        if self.object_classes is not None:
            if len(self.object_classes) != n:
                raise ValueError("object_classes must name every object")
            unknown = sorted(set(self.object_classes) - set(self.size_classes))
            if unknown:
                raise ValueError(f"object_classes {unknown} are not in "
                                 f"size_classes")
        named = [("occlusion_events", event[0])
                 for event in self.occlusion_events]
        named += [("spawn_overrides", obj) for obj in self.spawn_overrides]
        named += [("companions", obj) for pair in self.companions
                  for obj in pair[:2]]
        for name, obj in named:
            if not 0 <= obj < n:
                raise ValueError(f"{name} names object {obj}, but "
                                 f"num_objects is {n}")
        if any(start < 0 or duration < 0
               for _, start, duration in self.occlusion_events):
            raise ValueError("occlusion_events need start >= 0 and "
                             "duration >= 0")
        if any(gap < 0 for _, _, gap in self.companions):
            raise ValueError("companions need gap >= 0")

    def noiseless(self) -> "ScenarioConfig":
        """Same trajectories and occlusions, zero observation corruption."""
        return replace(self, pos_std=0.0, yaw_std=0.0, dim_std=0.0,
                       fp_rate=0.0, fn_rate=0.0, embedding_noise_std=0.0)


@dataclass(frozen=True)
class GroundTruthFrame:
    frame_id: int
    timestamp: float
    objects: tuple[tuple[int, Box3D, bool], ...]  # (gt_id, box, visible)


def _anchor_matrix(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n orthogonalized unit row vectors (falls back to plain normalized
    rows when n > dim)."""
    raw = rng.normal(size=(n, dim))
    if n <= dim:
        q, _ = np.linalg.qr(raw.T)
        return q.T[:n]
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _noisy_unit(anchor: np.ndarray, noise: np.ndarray, std: float) -> np.ndarray:
    v = anchor + std * noise
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return anchor.copy()
    return v / norm


def generate(cfg: ScenarioConfig) -> tuple[list[GroundTruthFrame],
                                           list[list[Detection]]]:
    """Simulate one scenario; fully reproducible from cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_objects
    class_names = list(cfg.size_classes)
    if cfg.object_classes is not None:
        classes = list(cfg.object_classes)
    else:
        classes = [class_names[i % len(class_names)] for i in range(n)]

    # schedule step 1: spawn draws
    xs = np.empty(n)
    ys = np.empty(n)
    headings = np.empty(n)
    speeds = np.empty(n)
    turns = np.empty(n)
    for i in range(n):
        xs[i] = rng.uniform(-0.4, 0.4) * cfg.arena[0]
        ys[i] = rng.uniform(-0.4, 0.4) * cfg.arena[1]
        headings[i] = rng.uniform(-math.pi, math.pi)
        speeds[i] = rng.uniform(*cfg.speed_range)
        turns[i] = rng.uniform(*cfg.turn_rate_range)
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

    # schedule step 2: appearance anchors
    anchors = {clue: _anchor_matrix(rng, n, cfg.embedding_dim)
               for clue in ("img", "bev", "head")}

    occluded: set[tuple[int, int]] = set()
    for obj, start, duration in cfg.occlusion_events:
        for f in range(start, start + duration):
            occluded.add((obj, f))

    dims = np.array([cfg.size_classes[c] for c in classes])
    gt_frames: list[GroundTruthFrame] = []
    det_frames: list[list[Detection]] = []
    pos = np.stack([xs, ys], axis=1)
    heading = headings.copy()

    for f in range(cfg.num_frames):
        t = f * cfg.frame_dt
        if f > 0:
            heading = heading + turns * cfg.frame_dt
            step = speeds * cfg.frame_dt
            pos = pos + np.stack([step * np.cos(heading),
                                  step * np.sin(heading)], axis=1)

        rows = []
        dets: list[Detection] = []
        for i in range(n):
            box = Box3D(cx=pos[i, 0], cy=pos[i, 1], cz=dims[i, 2] / 2.0,
                        length=dims[i, 0], width=dims[i, 1],
                        height=dims[i, 2], yaw=wrap_angle(heading[i]))
            visible = (i, f) not in occluded
            rows.append((i, box, visible))

            # schedule step 3 (draws consumed for every object, visible or
            # not, so occlusion windows never shift later draws)
            miss = rng.uniform()
            box_noise = rng.normal(size=7)
            emb_noise = {clue: rng.normal(size=cfg.embedding_dim)
                         for clue in ("img", "bev", "head")}
            score = rng.uniform(*cfg.score_range)
            if not visible or miss < cfg.fn_rate:
                continue
            noisy_box = Box3D(
                cx=box.cx + cfg.pos_std * box_noise[0],
                cy=box.cy + cfg.pos_std * box_noise[1],
                cz=box.cz + cfg.pos_std * box_noise[2],
                yaw=wrap_angle(box.yaw + cfg.yaw_std * box_noise[3]),
                length=max(0.05, box.length + cfg.dim_std * box_noise[4]),
                width=max(0.05, box.width + cfg.dim_std * box_noise[5]),
                height=max(0.05, box.height + cfg.dim_std * box_noise[6]),
            )
            appearance = AppearanceState(
                e_img=_noisy_unit(anchors["img"][i], emb_noise["img"],
                                  cfg.embedding_noise_std),
                e_bev=_noisy_unit(anchors["bev"][i], emb_noise["bev"],
                                  cfg.embedding_noise_std),
                e_head=_noisy_unit(anchors["head"][i], emb_noise["head"],
                                   cfg.embedding_noise_std),
            )
            dets.append(Detection(box=noisy_box, score=float(score),
                                  appearance=appearance,
                                  scale_level=footprint_scale_level(noisy_box),
                                  timestamp=t, frame_id=f))

        # schedule step 4: false positives
        n_fp = int(rng.poisson(cfg.fp_rate))
        for _ in range(n_fp):
            fx = rng.uniform(-0.5, 0.5) * cfg.arena[0]
            fy = rng.uniform(-0.5, 0.5) * cfg.arena[1]
            fyaw = rng.uniform(-math.pi, math.pi)
            cls = class_names[int(rng.integers(len(class_names)))]
            fscore = rng.uniform(*cfg.fp_score_range)
            emb = {clue: rng.normal(size=cfg.embedding_dim)
                   for clue in ("img", "bev", "head")}
            dl, dw, dh = cfg.size_classes[cls]
            fp_box = Box3D(cx=fx, cy=fy, cz=dh / 2.0, length=dl, width=dw,
                           height=dh, yaw=fyaw)
            appearance = AppearanceState(
                e_img=emb["img"] / np.linalg.norm(emb["img"]),
                e_bev=emb["bev"] / np.linalg.norm(emb["bev"]),
                e_head=emb["head"] / np.linalg.norm(emb["head"]),
            )
            dets.append(Detection(box=fp_box, score=float(fscore),
                                  appearance=appearance,
                                  scale_level=footprint_scale_level(fp_box),
                                  timestamp=t, frame_id=f))

        gt_frames.append(GroundTruthFrame(frame_id=f, timestamp=t,
                                          objects=tuple(rows)))
        det_frames.append(dets)
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


def intra_inter_similarity(cfg: ScenarioConfig,
                           clue: str = "img") -> tuple[float, float]:
    """Mean same-identity vs cross-identity cosine similarity of the
    generated detection embeddings (diagnostic for the identity signal)."""
    gt_frames, det_frames = generate(cfg)
    by_id: dict[int, list[np.ndarray]] = {}
    for gtf, dets in zip(gt_frames, det_frames):
        centers = {gid: (box.cx, box.cy) for gid, box, vis in gtf.objects if vis}
        for det in dets:
            best = None
            for gid, (cx, cy) in centers.items():
                d = math.hypot(det.box.cx - cx, det.box.cy - cy)
                if d < 1.0 and (best is None or d < best[1]):
                    best = (gid, d)
            if best is not None:
                by_id.setdefault(best[0], []).append(
                    getattr(det.appearance, f"e_{clue}"))
    intra: list[float] = []
    inter: list[float] = []
    ids = sorted(by_id)
    for gid in ids:
        vecs = by_id[gid]
        for a in range(len(vecs)):
            for b in range(a + 1, len(vecs)):
                intra.append(float(vecs[a] @ vecs[b]))
    for ai in range(len(ids)):
        for bi in range(ai + 1, len(ids)):
            for va in by_id[ids[ai]][:5]:
                for vb in by_id[ids[bi]][:5]:
                    inter.append(float(va @ vb))
    return float(np.mean(intra)), float(np.mean(inter))
