"""Rotated-rectangle IoU kernel, the only one bevtrack uses.

``rect_iou`` clips one rectangle footprint by the other (Sutherland-Hodgman)
and takes the intersection area with the shoelace formula. ``iou_matrix``
runs that clip only on pairs whose circumscribed circles can meet: a numpy
pre-filter compares squared centre distances against
``(r_a + r_b + m)**2``, with circumradius ``r = 0.5 * hypot(l, w)``, and
leaves every other pair at exactly 0.

The margin ``m = 2 * _EDGE_EPS / min(l_b, w_b)`` exists because the clip's
inside test keeps points up to ``_EDGE_EPS / |edge|`` outside each edge of
box b, so two boxes a hair apart (corner to corner, say) still score a tiny
positive IoU. That band reaches at most ``m / sqrt(2)`` past b's
circumcircle, so with the margin the matrix equals ``rect_iou`` pair by
pair, bit for bit.
"""

import math

import numpy as np

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


def rect_iou(ax, ay, al, aw, ayaw, bx, by, bl, bw, byaw):
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


def iou_matrix(boxes_a, boxes_b):
    """Pairwise rect_iou for two (N,5) / (M,5) arrays of BEV rectangles."""
    boxes_a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 5)
    boxes_b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 5)
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
        out[i, j] = rect_iou(*rows_a[i], *rows_b[j])
    return out
