"""Oriented 3D boxes and rotated BEV IoU with footprint buffering.

IoU is computed on the yaw-rotated rectangle footprints in the BEV plane;
height overlap is ignored. Matrices take ``(N, 5)`` footprint rectangles
(cx, cy, length, width, yaw): the ``RECT_COLUMNS`` of ``box_rows``, or
``motion.state_rects``.

The one IoU kernel is ``_iou_pairs``: it clips one rectangle footprint
by the other (Sutherland-Hodgman) and takes the intersection area with the
shoelace formula, for every pair at once, as array operations on one flat
vertex list of all pairs (each vertex tagged with its pair id), so each of
the four clip edges is a fixed set of numpy operations and dropping the
vertices outside is one index. ``buffered_iou_matrix`` runs it, and
``bev_iou`` is the one cell of that matrix for two boxes with zero ratios
(scaling by ``1.0 + 0.0`` is exact). It repeats the arithmetic of the
scalar clip ``rect_iou`` of ``tests/oracles.py`` operation for operation:
corners from ``math.cos``/``math.sin``, the same operand order in the
inside test, the crossing parameter and point, the shoelace's running sum
(from 0.0, starting at the last vertex), the union and the clamp, and the
same ``_EDGE_EPS``/``_DEGENERATE_EPS`` tests, so the two give the same
bits, which the tests check. The clip costs some forty numpy operations
(about 300 us) however few pairs it takes, so a matrix with no candidate
pair returns before it.

``buffered_iou_matrix`` runs the clip only on pairs whose circumscribed
circles can meet: it compares squared centre distances against
``(r_a + r_b + m)**2``, with circumradius ``r = 0.5 * hypot(l, w)``, and
leaves every other pair at exactly 0. The margin
``m = 2 * _EDGE_EPS / min(l_b, w_b)`` exists because the clip's inside test
keeps points up to ``_EDGE_EPS / |edge|`` outside each edge of box b, so two
boxes a hair apart (corner to corner, say) still score a tiny positive IoU.
That band reaches at most ``m / sqrt(2)`` past b's circumcircle, so with
the margin every cell equals the clip of its pair, bit for bit.

The circle test runs on a sweep's candidates, not on all N x M pairs: b is
sorted by cx, and each a takes the b whose cx lies within
``half = (r_a + max(r_b)) * (1 + 1e-9)`` of its own. That window holds
every pair the test passes. A pass needs the rounded ``dx * dx`` to be at
most the rounded ``reach * reach``, so the exact ``|ax - bx|`` is at most
``reach`` times ``1 + 4u`` (u = 2**-53; the subtraction, the squares and the
sum each round once), below ``half``. The bounds ``ax -+ half`` are rounded
too, but rounding is monotone: a float bx within the exact bounds is also
within the rounded ones. So the candidates equal the dense test's pairs.

The module also holds the input rules every other module shares:
``is_number``, ``InputError``, and ``typed``, the one kind and range check
of a config value. A field's range rule is a ``Bound`` in its type hint
(``Unit``, ``NonNegative``, ``Positive``, ``Count``, ``AtLeastOne``).
Every config dataclass starts its ``__post_init__`` with ``check_fields``,
which runs each field through ``typed`` by its type hint, and keeps only
the rules that relate fields or lengths after it; ``io`` reads the YAML
files through ``typed`` too, so the library and the files refuse the same
values with the same ``FieldError`` messages.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, is_dataclass, replace
from functools import cache, partial
from typing import (Annotated, Sequence, get_args, get_origin,
                    get_type_hints)

import numpy as np


def is_number(value, kind) -> bool:
    """value is an instance of the numbers ABC kind and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


class InputError(ValueError):
    """A ValueError that describes bad input, not a fault of the program:
    ``bevtrack`` reports it as one ``error:`` line and exit code 1."""


class FieldError(ValueError):
    """A config value that breaks a kind or range rule: ``where`` is the
    path of keys to it (empty for the whole value), ``message`` the rule."""

    def __init__(self, where: tuple, message: str):
        super().__init__(f"{'.'.join(map(str, where))}: {message}" if where
                         else message)
        self.where, self.message = where, message


_KINDS = {int: (numbers.Integral, "must be an integer"),
          float: (numbers.Real, "must be a finite number"),
          bool: (bool, "must be true or false"),
          str: (str, "must be a string")}


@dataclass(frozen=True)
class Bound:
    """The range rule of a number, declared in its type hint as
    ``Annotated[kind, Bound(...)]``: at least ``low`` (above it when
    ``open``) and at most ``high``."""

    low: float
    high: float = math.inf
    open: bool = False

    def check(self, value, where: tuple):
        """value, if it keeps the rule; else FieldError ``must be >= low``,
        ``must be > low`` or ``must be in [low, high]``."""
        if (value > self.low if self.open else value >= self.low) \
                and value <= self.high:
            return value
        if self.high < math.inf:
            raise FieldError(where, f"must be in {'(' if self.open else '['}"
                                    f"{self.low}, {self.high}]")
        raise FieldError(where, f"must be {'>' if self.open else '>='} "
                                f"{self.low}")


Unit = Annotated[float, Bound(0, 1)]
NonNegative = Annotated[float, Bound(0)]
Positive = Annotated[float, Bound(0, open=True)]
Count = Annotated[int, Bound(0)]
AtLeastOne = Annotated[int, Bound(1)]


def typed(value, hint, where: tuple = (), default=None):
    """value as the kind its type hint names, from Python or from YAML: the
    one kind and range check of every config value.

    An ``int`` takes an Integral and a ``float`` a Real whose float is
    finite, neither a bool, and each gives the plain Python number; a
    ``bool`` takes True or False and a ``str`` a string. ``Annotated[kind,
    Bound(...)]`` takes a kind that keeps the bound, else "must be >= low",
    "must be > low" or "must be in [low, high]". A tuple takes a
    list or a tuple, of the hint's length unless it ends in ``...``, and
    gives a tuple; a dict takes a dict; ``X | None`` takes None or an X. A
    dataclass takes an instance as it is, or a mapping of its fields: the
    given ones replace those of default, and null keeps default; without a
    default it is built from the given fields alone. An unknown key, a
    missing field and a rule of the dataclass raise FieldError too, a rule
    message "field: ..." at that field. Any other hint (an array) takes
    the value as it is, for its class to check.
    """
    if hint in _KINDS:
        kind, message = _KINDS[hint]
        try:
            if type(value) is hint or is_number(value, kind):
                value = hint(value)
                if hint is not float or math.isfinite(value):
                    return value
        except OverflowError:  # an int beyond the float range
            pass
        raise FieldError(where, message)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:  # a kind and its Bound
        return args[1].check(typed(value, args[0], where), where)
    if type(None) in args:  # X | None
        return None if value is None else typed(value, args[0], where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise FieldError(where, "must be a list")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise FieldError(where, f"must have {len(items)} entries")
        return tuple(typed(v, h, where) for v, h in zip(value, items))
    if origin is dict:
        if not isinstance(value, dict):
            raise FieldError(where, "must be a mapping")
        return {typed(k, args[0], where + (k,)):
                typed(v, args[1], where + (k,)) for k, v in value.items()}
    if not is_dataclass(hint):
        return value  # an array, which its class checks
    if isinstance(value, hint) or value is None and default is not None:
        return default if value is None else value
    if not isinstance(value, dict):
        raise FieldError(where, "must be a mapping")
    hints = _field_hints(hint)
    for k in value:
        if k not in hints:
            raise FieldError(where + (k,), "unknown key")
    given = {k: typed(v, hints[k], where + (k,), getattr(default, k, None))
             for k, v in value.items()}
    try:
        return hint(**given) if default is None else replace(default, **given)
    except (TypeError, ValueError) as exc:  # a missing field, a rule
        name, sep, rest = str(exc).partition(": ")
        if sep and name in hints:
            raise FieldError(where + (name,), rest) from exc
        raise FieldError(where, str(exc)) from exc


_field_hints = cache(partial(get_type_hints, include_extras=True))


def check_fields(config) -> None:
    """Run each field of a config dataclass through ``typed`` by its type
    hint and keep what ``typed`` gives, so a config holds plain numbers and
    tuples however it was built. Every config's ``__post_init__`` starts
    with it; the config's rules that relate fields or lengths follow."""
    for name, hint in _field_hints(type(config)).items():
        object.__setattr__(config, name,
                           typed(getattr(config, name), hint, (name,)))


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


# columns of a box row that make its footprint rectangle
RECT_COLUMNS = [0, 1, 3, 4, 6]


def box_rows(boxes: Sequence[Box3D]) -> np.ndarray:
    """(N, 7) rows (cx, cy, cz, length, width, height, yaw) of boxes, the
    order of a log's box field."""
    return np.array([(b.cx, b.cy, b.cz, b.length, b.width, b.height, b.yaw)
                     for b in boxes], dtype=np.float64).reshape(-1, 7)


def _candidate_pairs(boxes_a: np.ndarray, boxes_b: np.ndarray):
    """(rows, cols) of the pairs whose circumscribed circles can meet
    (module doc): a sweep over b sorted by cx finds each a's window, and the
    circle test runs on the window's pairs only."""
    # circumradii; b's also carries the clip's edge tolerance (module doc)
    ra = 0.5 * np.hypot(boxes_a[:, 2], boxes_a[:, 3])
    rb = 0.5 * np.hypot(boxes_b[:, 2], boxes_b[:, 3])
    rb += 2.0 * _EDGE_EPS / np.minimum(boxes_b[:, 2], boxes_b[:, 3])
    if not len(ra) or not len(rb):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.argsort(boxes_b[:, 0], kind="stable")
    xb = boxes_b[order, 0]
    ax = boxes_a[:, 0]
    half = (ra + rb.max()) * (1.0 + 1e-9)
    lo = np.searchsorted(xb, ax - half, side="left")
    hi = np.searchsorted(xb, ax + half, side="right")
    counts = hi - lo
    rows = np.repeat(np.arange(len(ra)), counts)
    offset = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = order[np.repeat(lo, counts) + offset]
    dx = boxes_a[rows, 0] - boxes_b[cols, 0]
    dy = boxes_a[rows, 1] - boxes_b[cols, 1]
    reach = ra[rows] + rb[cols]
    hit = dx * dx + dy * dy <= reach * reach
    return rows[hit], cols[hit]


def _iou_pairs(rects_a: np.ndarray, rects_b: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """IoU of each rectangle pair (rects_a[rows[k]], rects_b[cols[k]]),
    the same bits as the scalar clip of the pair (module doc)."""
    n_a = len(rects_a)
    xc, yc = _corner_arrays(np.concatenate([rects_a, rects_b]))
    xb, yb = xc[n_a:][cols], yc[n_a:][cols]
    # a's footprint per pair as one flat vertex list, tagged by pair id
    xs = xc[rows].ravel()
    ys = yc[rows].ravel()
    pid = np.repeat(np.arange(len(rows)), 4)
    # den is 0 on near-parallel rows, which take no crossing point
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(4):  # clip by b's edge from corner k-1 to corner k
            prev = _ring_prev(pid)[1]
            ax, ay = xb[:, k - 1], yb[:, k - 1]
            ex, ey = (xb[:, k] - ax)[pid], (yb[:, k] - ay)[pid]
            ax, ay = ax[pid], ay[pid]
            p_in = ex * (ys - ay) - ey * (xs - ax) >= -_EDGE_EPS
            sx, sy = xs[prev], ys[prev]
            dx = xs - sx
            dy = ys - sy
            den = ex * dy - ey * dx
            t = (ex * (ay - sy) - ey * (ax - sx)) / den
            # each vertex emits its crossing point, if any, then itself
            emit = np.empty((len(pid), 2), dtype=bool)
            np.not_equal(p_in, p_in[prev], out=emit[:, 0])
            emit[:, 0] &= np.abs(den) > _DEGENERATE_EPS
            emit[:, 1] = p_in
            keep = np.flatnonzero(emit)
            xs = _interleave(sx + t * dx, xs)[keep]
            ys = _interleave(sy + t * dy, ys)[keep]
            pid = pid[keep >> 1]
        inter = _shoelace_pairs(xs, ys, pid, len(rows))
        area_a = rects_a[:, 2] * rects_a[:, 3]
        area_b = rects_b[:, 2] * rects_b[:, 3]
        union = area_a[rows] + area_b[cols] - inter
        iou = np.where(union <= _DEGENERATE_EPS, 0.0, inter / union)
    # min(max(iou, 0.0), 1.0), in the order Python compares
    iou = np.where(0.0 > iou, 0.0, iou)
    return np.where(1.0 < iou, 1.0, iou)


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """first[0], second[0], first[1], second[1], ..."""
    out = np.empty((len(first), 2), dtype=np.float64)
    out[:, 0] = first
    out[:, 1] = second
    return out.ravel()


def _corner_arrays(rects: np.ndarray):
    """(N, 4) x and y arrays of each rectangle's corners, counter-clockwise
    and formed as the scalar clip forms them (module doc)."""
    cx, cy, length, width, yaw = rects.T
    # math.cos and math.sin as in the scalar clip; numpy's may round otherwise
    yaw = yaw.tolist()
    c = np.fromiter(map(math.cos, yaw), dtype=np.float64, count=len(yaw))
    s = np.fromiter(map(math.sin, yaw), dtype=np.float64, count=len(yaw))
    dx = 0.5 * length
    dy = 0.5 * width
    cdx, cdy, sdx, sdy = c * dx, c * dy, s * dx, s * dy
    xs = np.empty((len(yaw), 4), dtype=np.float64)
    ys = np.empty((len(yaw), 4), dtype=np.float64)
    xs[:, 0] = cx + cdx - sdy
    xs[:, 1] = cx - cdx - sdy
    xs[:, 2] = cx - cdx + sdy
    xs[:, 3] = cx + cdx + sdy
    ys[:, 0] = cy + sdx + cdy
    ys[:, 1] = cy - sdx + cdy
    ys[:, 2] = cy - sdx - cdy
    ys[:, 3] = cy + sdx - cdy
    return xs, ys


def _ring_prev(pid: np.ndarray):
    """(starts, prev) of a flat vertex list sorted by pair id: each
    polygon's first index, and each vertex's predecessor in its polygon,
    where the first vertex follows the last (``poly[-1]`` in the scalar
    clip)."""
    new = np.empty(len(pid), dtype=bool)
    new[:1] = True
    np.not_equal(pid[1:], pid[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    prev = np.arange(-1, len(pid) - 1)
    prev[starts[:-1]] = starts[1:] - 1
    prev[starts[-1:]] = len(pid) - 1
    return starts, prev


def _shoelace_pairs(xs, ys, pid, n_pairs: int) -> np.ndarray:
    """Shoelace area of each pair's polygon in a flat vertex list: the
    scalar clip's running sum from 0.0, term by term in vertex order."""
    inter = np.zeros(n_pairs, dtype=np.float64)
    if not len(pid):
        return inter
    starts, prev = _ring_prev(pid)
    sizes = np.diff(starts, append=len(pid))
    # one row of terms per polygon, padded with zeros after its last term:
    # adding 0.0 leaves a sum unchanged but for the sign of a zero, which
    # abs() drops
    width = sizes.max()
    grid = np.zeros((len(starts), width), dtype=np.float64)
    at = np.arange(len(pid)) + np.repeat(
        np.arange(0, len(starts) * width, width) - starts, sizes)
    grid.ravel()[at] = xs[prev] * ys - xs * ys[prev]
    acc = np.zeros(len(starts), dtype=np.float64)
    for column in grid.T:
        acc += column
    inter[pid[starts]] = np.where(sizes >= 3, 0.5 * np.abs(acc), 0.0)
    return inter


def buffered_iou_matrix(rects_a: np.ndarray, rects_b: np.ndarray,
                        ratios_a: np.ndarray, ratios_b: np.ndarray) -> np.ndarray:
    """Pairwise BEV IoU of two (N, 5) / (M, 5) rectangle arrays after
    scaling each rectangle's length and width by (1 + its ratio); equal,
    pair by pair, to the scalar clip of the scaled rectangles (module
    doc). Each side takes one finite ratio >= 0 per rectangle."""
    buffered = []
    for rects, ratios in ((rects_a, ratios_a), (rects_b, ratios_b)):
        ratios = np.asarray(ratios, dtype=np.float64)
        rects = np.array(rects, dtype=np.float64).reshape(-1, 5)
        if ratios.shape != (len(rects),):
            raise ValueError(f"{len(rects)} rectangles need as many buffer "
                             f"ratios, got shape {ratios.shape}")
        if not (np.isfinite(ratios).all() and (ratios >= 0).all()):
            raise ValueError("buffer ratios must be >= 0 and finite")
        rects[:, 2:4] *= (1.0 + ratios)[:, None]
        buffered.append(rects)
    boxes_a, boxes_b = buffered
    out = np.zeros((len(boxes_a), len(boxes_b)), dtype=np.float64)
    rows, cols = _candidate_pairs(boxes_a, boxes_b)
    if len(rows):  # the clip's fixed cost buys nothing without a pair
        out[rows, cols] = _iou_pairs(boxes_a, boxes_b, rows, cols)
    return out


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Rotated-rectangle IoU of the two BEV footprints, in [0, 1]: the one
    cell of ``buffered_iou_matrix`` with zero ratios."""
    rect_a, rect_b = (box_rows([box])[:, RECT_COLUMNS] for box in (a, b))
    return float(buffered_iou_matrix(rect_a, rect_b, [0.0], [0.0])[0, 0])


# BEV footprint-area breakpoints (m^2) assigning scale levels when no
# upstream level estimate is present: area < 1 -> 0, < 4 -> 1, < 12 -> 2,
# < 30 -> 3, else 4.
DEFAULT_SCALE_BREAKPOINTS: tuple[float, ...] = (1.0, 4.0, 12.0, 30.0)


def footprint_levels(areas, breakpoints: Sequence[float]) -> np.ndarray:
    """Scale level of each footprint area (m^2): the number of breakpoints
    at or below it (0 = smallest). breakpoints must be increasing."""
    return np.searchsorted(breakpoints, areas, side="right")
