"""Oriented 3D boxes and rotated BEV IoU with footprint buffering.

IoU is computed on the yaw-rotated rectangle footprints in the BEV plane;
height overlap is ignored. Matrices take ``(N, 5)`` footprint rectangles
(cx, cy, length, width, yaw) from ``bev_rects`` or ``motion.state_rects``.

There is one IoU kernel, ``_rect_iou``: it clips one rectangle footprint
by the other (Sutherland-Hodgman) and takes the intersection area with
the shoelace formula. ``buffered_iou_matrix`` runs that clip only on pairs
whose circumscribed circles can meet: a numpy pre-filter compares squared
centre distances against ``(r_a + r_b + m)**2``, with circumradius
``r = 0.5 * hypot(l, w)``, and leaves every other pair at exactly 0.

The margin ``m = 2 * _EDGE_EPS / min(l_b, w_b)`` exists because the clip's
inside test keeps points up to ``_EDGE_EPS / |edge|`` outside each edge of
box b, so two boxes a hair apart (corner to corner, say) still score a tiny
positive IoU. That band reaches at most ``m / sqrt(2)`` past b's
circumcircle, so with the margin the matrix equals ``_rect_iou`` pair by
pair, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


def is_number(value, kind) -> bool:
    """value is an instance of the numbers ABC kind and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def iou_backend() -> str:
    """Name of the IoU kernel; always 'python'."""
    return "python"


def wrap_angle(angle: float | np.ndarray) -> float | np.ndarray:
    """Normalize an angle, or an array of angles elementwise, into (-pi, pi]."""
    if isinstance(angle, np.ndarray):
        a = np.fmod(angle + math.pi, 2.0 * math.pi)
        return np.where(a <= 0.0, a + 2.0 * math.pi, a) - math.pi
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


# Tolerance for the half-plane inside test; points lying on a clip edge are
# kept so that identical rectangles clip to themselves.
_EDGE_EPS = 1e-9
_DEGENERATE_EPS = 1e-12


def _corners(cx, cy, length, width, yaw):
    """BEV footprint corners in counter-clockwise order."""
    c = math.cos(yaw)
    s = math.sin(yaw)
    dx = 0.5 * length
    dy = 0.5 * width
    return [
        (cx + c * dx - s * dy, cy + s * dx + c * dy),
        (cx - c * dx - s * dy, cy - s * dx + c * dy),
        (cx - c * dx + s * dy, cy - s * dx - c * dy),
        (cx + c * dx + s * dy, cy + s * dx - c * dy),
    ]


def _clip(poly, a, b):
    """Clip polygon by the half-plane left of directed edge a->b."""
    ex = b[0] - a[0]
    ey = b[1] - a[1]
    out = []
    if not poly:
        return out
    sx, sy = poly[-1]
    s_in = ex * (sy - a[1]) - ey * (sx - a[0]) >= -_EDGE_EPS
    for px, py in poly:
        p_in = ex * (py - a[1]) - ey * (px - a[0]) >= -_EDGE_EPS
        if p_in != s_in:
            dx = px - sx
            dy = py - sy
            den = ex * dy - ey * dx
            if abs(den) > _DEGENERATE_EPS:
                t = (ex * (a[1] - sy) - ey * (a[0] - sx)) / den
                out.append((sx + t * dx, sy + t * dy))
            # near-parallel crossing within tolerance: skip the intersection
            # point, the neighbouring vertices bound the area error by eps
        if p_in:
            out.append((px, py))
        sx, sy, s_in = px, py, p_in
    return out


def _shoelace(poly):
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    x0, y0 = poly[-1]
    for x1, y1 in poly:
        acc += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return 0.5 * abs(acc)


def _rect_iou(ax, ay, al, aw, ayaw, bx, by, bl, bw, byaw):
    """IoU of two yaw-rotated BEV rectangles (cx, cy, length, width, yaw)."""
    pa = _corners(ax, ay, al, aw, ayaw)
    pb = _corners(bx, by, bl, bw, byaw)
    poly = pa
    prev = pb[-1]
    for v in pb:
        poly = _clip(poly, prev, v)
        if not poly:
            break
        prev = v
    inter = _shoelace(poly)
    union = al * aw + bl * bw - inter
    if union <= _DEGENERATE_EPS:
        return 0.0
    iou = inter / union
    return min(max(iou, 0.0), 1.0)


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


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Rotated-rectangle IoU of the two BEV footprints, in [0, 1]."""
    return _rect_iou(a.cx, a.cy, a.length, a.width, a.yaw,
                     b.cx, b.cy, b.length, b.width, b.yaw)


# columns of a box row that make its footprint rectangle
RECT_COLUMNS = [0, 1, 3, 4, 6]


def box_rows(boxes: Sequence[Box3D]) -> np.ndarray:
    """(N, 7) rows (cx, cy, cz, length, width, height, yaw) of boxes, the
    order of a log's box field."""
    return np.array([(b.cx, b.cy, b.cz, b.length, b.width, b.height, b.yaw)
                     for b in boxes], dtype=np.float64).reshape(-1, 7)


def bev_rects(boxes: Sequence[Box3D]) -> np.ndarray:
    """(N, 5) footprint rectangles (cx, cy, length, width, yaw) of boxes."""
    return box_rows(boxes)[:, RECT_COLUMNS]


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


def buffered_iou_matrix(rects_a: np.ndarray, rects_b: np.ndarray,
                        ratios_a: np.ndarray, ratios_b: np.ndarray) -> np.ndarray:
    """Pairwise BEV IoU of two (N, 5) / (M, 5) rectangle arrays after
    scaling each rectangle's length and width by (1 + its ratio); equal,
    pair by pair, to ``buffered_iou`` of the boxes."""
    buffered = []
    for rects, ratios in ((rects_a, ratios_a), (rects_b, ratios_b)):
        ratios = np.asarray(ratios, dtype=np.float64)
        if (ratios < 0).any():
            raise ValueError("buffer ratios must be >= 0")
        rects = np.array(rects, dtype=np.float64).reshape(-1, 5)
        rects[:, 2:4] *= (1.0 + ratios)[:, None]
        buffered.append(rects)
    boxes_a, boxes_b = buffered
    out = np.zeros((len(boxes_a), len(boxes_b)), dtype=np.float64)
    # circumradii; b's also carries the clip's edge tolerance (module doc)
    ra = 0.5 * np.hypot(boxes_a[:, 2], boxes_a[:, 3])
    rb = 0.5 * np.hypot(boxes_b[:, 2], boxes_b[:, 3])
    rb += 2.0 * _EDGE_EPS / np.minimum(boxes_b[:, 2], boxes_b[:, 3])
    dx = boxes_a[:, 0, None] - boxes_b[None, :, 0]
    dy = boxes_a[:, 1, None] - boxes_b[None, :, 1]
    reach = ra[:, None] + rb[None, :]
    rows, cols = np.nonzero(dx * dx + dy * dy <= reach * reach)
    # Python floats: the scalar clip runs about 2x slower on numpy scalars
    rows_a = boxes_a.tolist()
    rows_b = boxes_b.tolist()
    for i, j in zip(rows.tolist(), cols.tolist()):
        out[i, j] = _rect_iou(*rows_a[i], *rows_b[j])
    return out


# BEV footprint-area breakpoints (m^2) assigning scale levels when no
# upstream level estimate is present: area < 1 -> 0, < 4 -> 1, < 12 -> 2,
# < 30 -> 3, else 4.
DEFAULT_SCALE_BREAKPOINTS: tuple[float, ...] = (1.0, 4.0, 12.0, 30.0)


def footprint_levels(areas, breakpoints: Sequence[float]) -> np.ndarray:
    """Scale level of each footprint area (m^2): the number of breakpoints
    at or below it (0 = smallest). breakpoints must be increasing."""
    return np.searchsorted(breakpoints, areas, side="right")


def footprint_scale_level(box: Box3D,
                          breakpoints: Sequence[float] = DEFAULT_SCALE_BREAKPOINTS) -> int:
    """Scale level of the box's footprint area, by ``footprint_levels``."""
    return int(footprint_levels(box.footprint_area, breakpoints))
