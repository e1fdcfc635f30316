"""Oriented 3D boxes and rotated BEV IoU with footprint buffering.

IoU is computed on the yaw-rotated rectangle footprints in the BEV plane;
height overlap is ignored. The kernel is ``bevtrack._iou_py``, the only
one: an exact polygon clip per pair, run in matrices only on pairs whose
circumscribed circles (widened by the clip's edge tolerance) meet, so
every other pair is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import _iou_py


def iou_backend() -> str:
    """Name of the IoU kernel; always 'python'."""
    return "python"


def wrap_angle(angle: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D bounding box: BEV-plane center, dims, heading.

    All lengths in meters, yaw in radians. Yaw is normalized into
    (-pi, pi] on construction; every field must be finite and dims
    strictly positive.
    """

    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    yaw: float

    def __post_init__(self):
        finite = math.isfinite
        if not (finite(self.cx) and finite(self.cy) and finite(self.cz)
                and finite(self.length) and finite(self.width)
                and finite(self.height) and finite(self.yaw)):
            raise ValueError(
                f"box fields must be finite, got ({self.cx}, {self.cy}, "
                f"{self.cz}, {self.length}, {self.width}, {self.height}, "
                f"{self.yaw})")
        if not (self.length > 0 and self.width > 0 and self.height > 0):
            raise ValueError(
                f"box dims must be positive, got "
                f"({self.length}, {self.width}, {self.height})"
            )
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    @property
    def footprint_area(self) -> float:
        return self.length * self.width

    def corners_bev(self) -> np.ndarray:
        """Footprint corners, (4, 2), counter-clockwise."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        dx, dy = 0.5 * self.length, 0.5 * self.width
        local = np.array([(dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy)])
        rot = np.array([(c, -s), (s, c)])
        return local @ rot.T + np.array([self.cx, self.cy])

    def to_array(self) -> np.ndarray:
        """(cx, cy, cz, length, width, height, yaw) as float64."""
        return np.array([self.cx, self.cy, self.cz, self.length,
                         self.width, self.height, self.yaw])

    @classmethod
    def from_array(cls, arr: Sequence[float]) -> "Box3D":
        cx, cy, cz, length, width, height, yaw = (float(v) for v in arr)
        return cls(cx, cy, cz, length, width, height, yaw)


@dataclass(frozen=True)
class BufferRatioTable:
    """Per-scale-level footprint buffer ratios, index 0 = smallest level.

    Smaller objects get larger ratios, so the list must be non-increasing.
    """

    ratios: tuple[float, ...] = (0.50, 0.40, 0.30, 0.20, 0.10)

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if any(r < 0 for r in self.ratios):
            raise ValueError("buffer ratios must be non-negative")
        if any(a < b for a, b in zip(self.ratios, self.ratios[1:])):
            raise ValueError(
                "buffer ratios must be non-increasing from smallest to "
                "largest scale level"
            )

    def __len__(self) -> int:
        return len(self.ratios)

    def ratio(self, level: int) -> float:
        return self.ratios[min(max(level, 0), len(self.ratios) - 1)]


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Rotated-rectangle IoU of the two BEV footprints, in [0, 1]."""
    return _iou_py.rect_iou(a.cx, a.cy, a.length, a.width, a.yaw,
                            b.cx, b.cy, b.length, b.width, b.yaw)


def bev_iou_matrix(boxes_a: Sequence[Box3D], boxes_b: Sequence[Box3D]) -> np.ndarray:
    """Pairwise BEV IoU, shape (len(a), len(b))."""
    arr_a = np.array([(b.cx, b.cy, b.length, b.width, b.yaw) for b in boxes_a])
    arr_b = np.array([(b.cx, b.cy, b.length, b.width, b.yaw) for b in boxes_b])
    return _iou_py.iou_matrix(arr_a, arr_b)


def buffer_box(b: Box3D, r: float) -> Box3D:
    """Scale the BEV footprint dims by (1 + r); pose and height unchanged.

    The buffered box only widens the matching footprint, so cz and height
    stay as-is.
    """
    if r < 0:
        raise ValueError(f"buffer ratio must be >= 0, got {r}")
    if r == 0:
        return b
    return replace(b, length=(1.0 + r) * b.length, width=(1.0 + r) * b.width)


def buffered_iou(a: Box3D, b: Box3D, ra: float, rb: float) -> float:
    """BEV IoU after buffering each footprint with its own ratio."""
    return bev_iou(buffer_box(a, ra), buffer_box(b, rb))


def buffered_iou_matrix(boxes_a: Sequence[Box3D], boxes_b: Sequence[Box3D],
                        ratios_a: Sequence[float],
                        ratios_b: Sequence[float]) -> np.ndarray:
    """Pairwise buffered IoU with a per-box buffer ratio on each side."""
    buf_a = [buffer_box(b, r) for b, r in zip(boxes_a, ratios_a)]
    buf_b = [buffer_box(b, r) for b, r in zip(boxes_b, ratios_b)]
    return bev_iou_matrix(buf_a, buf_b)


# BEV footprint-area breakpoints (m^2) assigning scale levels when no
# upstream level estimate is present: area < 1 -> 0, < 4 -> 1, < 12 -> 2,
# < 30 -> 3, else 4.
DEFAULT_SCALE_BREAKPOINTS: tuple[float, ...] = (1.0, 4.0, 12.0, 30.0)


def footprint_scale_level(box: Box3D,
                          breakpoints: Sequence[float] = DEFAULT_SCALE_BREAKPOINTS) -> int:
    """Scale level from footprint area quantile breakpoints (0 = smallest)."""
    area = box.footprint_area
    for level, edge in enumerate(breakpoints):
        if area < edge:
            return level
    return len(breakpoints)
