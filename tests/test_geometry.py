import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevtrack import geometry
from bevtrack.geometry import (DEFAULT_SCALE_BREAKPOINTS, RECT_COLUMNS, Box3D,
                               _candidate_pairs, _iou_pairs, bev_iou,
                               box_rows, buffered_iou_matrix,
                               footprint_levels, wrap_angle)

from oracles import (buffered_iou, rasterized_iou, rasterized_iou_dense,
                     rect_iou)


def random_box(rng, span=4.0):
    return Box3D(
        cx=rng.uniform(-span, span), cy=rng.uniform(-span, span),
        cz=rng.uniform(0, 2),
        length=rng.uniform(0.4, 6.0), width=rng.uniform(0.4, 3.0),
        height=rng.uniform(0.5, 3.0), yaw=rng.uniform(-math.pi, math.pi),
    )


def dense_circle_pairs(rects_a, rects_b):
    """(rows, cols) of the circumcircle test over every pair, with b's
    edge margin (geometry module doc)."""
    ra = 0.5 * np.hypot(rects_a[:, 2], rects_a[:, 3])
    rb = 0.5 * np.hypot(rects_b[:, 2], rects_b[:, 3])
    rb += 2.0 * 1e-9 / np.minimum(rects_b[:, 2], rects_b[:, 3])
    dx = rects_a[:, 0, None] - rects_b[None, :, 0]
    dy = rects_a[:, 1, None] - rects_b[None, :, 1]
    reach = ra[:, None] + rb[None, :]
    return np.nonzero(dx * dx + dy * dy <= reach * reach)


def as_tuple(b):
    return (b.cx, b.cy, b.length, b.width, b.yaw)


class TestBox3D:
    def test_yaw_normalized_on_construction(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3.5 + 2 * math.pi).yaw == pytest.approx(
            3.5 - 2 * math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, math.pi).yaw == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, -math.pi).yaw == pytest.approx(math.pi)

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_nonpositive_dims(self, dims):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, *dims, 0.0)

    @pytest.mark.parametrize("field", range(7))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        vals = [1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3]
        vals[field] = bad
        with pytest.raises(ValueError, match="finite"):
            Box3D(*vals)

    def test_wrap_angle_range(self):
        for a in np.linspace(-20, 20, 401):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)
            assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)

    def test_wrap_angle_array_equals_scalar(self):
        angles = np.r_[np.linspace(-20, 20, 401), -math.pi, math.pi,
                       3 * math.pi, 0.0, -0.0]
        got = wrap_angle(angles)
        assert got.tolist() == [wrap_angle(float(a)) for a in angles]
        assert wrap_angle(np.float64(4.0)) == wrap_angle(4.0)


class TestBevIou:
    def test_identical_boxes(self):
        b = Box3D(1, 2, 0.5, 4, 2, 1.5, 0.3)
        assert bev_iou(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_far_apart(self):
        a = Box3D(0, 0, 0, 5, 2, 1, 0.7)
        b = Box3D(100, 0, 0, 5, 2, 1, -0.2)
        assert bev_iou(a, b) == 0.0

    def test_axis_aligned_shift_matches_oracle(self):
        # 4x2 box against itself shifted +2 m along length: overlap 2x2,
        # union 12 -> exact 1/3
        a = Box3D(0, 0, 0, 4, 2, 1, 0)
        b = Box3D(2, 0, 0, 4, 2, 1, 0)
        iou = bev_iou(a, b)
        assert iou == pytest.approx(1 / 3, abs=1e-9)
        assert iou == pytest.approx(rasterized_iou(as_tuple(a), as_tuple(b)),
                                    abs=1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            assert abs(bev_iou(a, b) - bev_iou(b, a)) < 1e-9

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            theta = rng.uniform(-math.pi, math.pi)
            tx, ty = rng.uniform(-30, 30, size=2)
            c, s = math.cos(theta), math.sin(theta)

            def move(bx):
                return Box3D(
                    cx=c * bx.cx - s * bx.cy + tx,
                    cy=s * bx.cx + c * bx.cy + ty,
                    cz=bx.cz, length=bx.length, width=bx.width,
                    height=bx.height, yaw=bx.yaw + theta)

            assert abs(bev_iou(a, b) - bev_iou(move(a), move(b))) < 1e-6

    def test_range_and_matrix_consistency(self):
        # the matrix clips only pairs that pass the circumcircle pre-filter;
        # every cell must still equal the scalar clip of its pair exactly,
        # and the sweep must find exactly the pairs of the dense circle test
        rng = np.random.default_rng(13)

        def check(boxes_a, boxes_b, ratios_a=None, ratios_b=None):
            ratios_a = np.zeros(len(boxes_a)) if ratios_a is None else ratios_a
            ratios_b = np.zeros(len(boxes_b)) if ratios_b is None else ratios_b
            rects_a = box_rows(boxes_a)[:, RECT_COLUMNS]
            rects_b = box_rows(boxes_b)[:, RECT_COLUMNS]
            mat = buffered_iou_matrix(rects_a, rects_b, ratios_a, ratios_b)
            assert mat.shape == (len(boxes_a), len(boxes_b))
            rects_a[:, 2:4] *= (1.0 + np.asarray(ratios_a))[:, None]
            rects_b[:, 2:4] *= (1.0 + np.asarray(ratios_b))[:, None]
            assert (sorted(zip(*map(np.ndarray.tolist,
                                    _candidate_pairs(rects_a, rects_b))))
                    == sorted(zip(*map(np.ndarray.tolist,
                                       dense_circle_pairs(rects_a, rects_b)))))
            for i, (a, ra) in enumerate(zip(boxes_a, ratios_a)):
                for j, (b, rb) in enumerate(zip(boxes_b, ratios_b)):
                    assert 0.0 <= mat[i, j] <= 1.0
                    assert mat[i, j] == buffered_iou(a, b, ra, rb)
                    if ra == rb == 0:
                        assert mat[i, j] == rect_iou(*as_tuple(a),
                                                     *as_tuple(b))

        boxes_a = [random_box(rng) for _ in range(8)]
        boxes_b = [random_box(rng) for _ in range(5)]
        spread = [random_box(rng, span=40.0) for _ in range(40)]
        same = [random_box(rng)] * 3
        for a, b in ((boxes_a, boxes_b), (spread, spread), (same, same),
                     ([], boxes_b), (boxes_a, [])):
            check(a, b)

        # axis-aligned boxes touching edge to edge and corner to corner
        # (along the diagonal, where the circumcircles touch); the clip's
        # edge tolerance gives some of these a tiny positive IoU
        for length, width in ((4.0, 2.0), (1e-4, 1e-4), (1e-4, 3e-4)):
            diag = math.hypot(length, width)
            for gap in (1e-12, 1e-9, 1e-6):
                boxes = [Box3D(x, y, 0, length, width, 1, 0) for x, y in (
                    (0.0, 0.0), (length + gap, 0.0), (0.0, width + gap),
                    (length * (1 + gap / diag), width * (1 + gap / diag)))]
                check(boxes, boxes)

        for r in np.linspace(0.0, 0.5, 6):
            ratios_b = rng.uniform(0.0, r, size=len(spread))
            check(boxes_a + spread, spread,
                  np.full(len(boxes_a) + len(spread), r), ratios_b)

        # 1e6 m from the origin, where a coordinate's rounding step (about
        # 1e-10 m) outgrows a 1e-4 m box's reach slack
        far = [replace(b, cx=b.cx + 1e6, cy=b.cy - 1e6) for b in spread]
        check(far, far)
        for offset in (0.0, 1e6, 1e6 + 0.3):
            for length, width in ((4.0, 2.0), (1e-4, 1e-4), (1e-4, 3e-4)):
                boxes = [Box3D(x + offset, y + offset, 0, length, width, 1, 0)
                         for x, y in ((0.0, 0.0), (length, 0.0),
                                      (0.0, width), (length, width))]
                check(boxes, boxes)

        # centres exactly the matrix's reach apart (circumradii plus b's
        # edge margin, module doc), in many directions, near the origin and
        # 1e6 m from it; rounding puts some just inside the circle test and
        # some just outside, and the sweep's window must hold every one
        # that passes
        for offset in (0.0, 1e6, -1e6 + 0.7):
            for la, wa, lb, wb in ((4.0, 2.0, 4.0, 2.0), (1e-4, 1e-4, 1e-4, 3e-4),
                                   (4.0, 2.0, 1e-4, 1e-4)):
                reach = float(0.5 * np.hypot(la, wa) + (
                    0.5 * np.hypot(lb, wb) + 2e-9 / min(lb, wb)))
                centre = [Box3D(offset, offset, 0, la, wa, 1, 0.0)]
                ring = [Box3D(offset + reach * math.cos(theta) * (1 + k * 1e-16),
                              offset + reach * math.sin(theta), 0, lb, wb, 1,
                              theta)
                        for theta in np.linspace(-math.pi, math.pi, 17)
                        for k in range(-3, 4)]
                check(centre, ring)

        # b one and two steps of float spacing past a's centre plus the
        # reach on the x axis: the rounding of ax - bx puts some of these
        # inside the circle test
        for _ in range(200):
            la, wa, lb, wb = rng.uniform(0.3, 6.0, 4)
            reach = float(0.5 * np.hypot(la, wa) + (
                0.5 * np.hypot(lb, wb) + 2e-9 / min(lb, wb)))
            ax = rng.uniform(-3.0, 3.0) * 10.0 ** rng.integers(-6, 1)
            past = np.nextafter(ax + reach, math.inf)
            check([Box3D(ax, 0, 0, la, wa, 1, 0)],
                  [Box3D(bx, 0, 0, lb, wb, 1, 0)
                   for bx in (past, np.nextafter(past, math.inf))])

    def test_agreement_with_rasterization_oracle(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            a, b = random_box(rng, span=3.0), random_box(rng, span=3.0)
            got = bev_iou(a, b)
            want = rasterized_iou(as_tuple(a), as_tuple(b), cell=0.001)
            worst = max(worst, abs(got - want))
        assert worst < 1e-3

    def test_row_oracle_matches_dense_oracle(self):
        # guards the fast per-row counting against the literal dense grid
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = as_tuple(random_box(rng, span=1.5))
            b = as_tuple(random_box(rng, span=1.5))
            fast = rasterized_iou(a, b, cell=0.02)
            dense = rasterized_iou_dense(a, b, cell=0.02)
            assert fast == pytest.approx(dense, abs=1e-12)


_FAMILIES = ("identical", "edge", "corner", "parallel", "tiny", "free")


def _rect_pair(rng, family: str, far: bool):
    """One (a, b) pair of footprint rectangles (cx, cy, length, width, yaw)
    of a family of the clip's hard cases, its numbers drawn from rng:
    identical boxes; edge or corner contact at gaps from 0 to 1e-6 m, the
    inside test's tolerance band among them, with yaws 1e-13 apart;
    near-parallel or quarter-turned yaws; 1e-4 m boxes; or a free pair.
    Yaws include +-pi; far puts both centres 1e6 m out."""
    def dims():
        if family == "tiny":
            return list(rng.uniform(1e-4, 3e-4, 2))
        # round dims put vertices exactly on the tolerance band's edges
        return list(rng.choice([rng.uniform(0.3, 6.0), 0.6, 1.0, 2.0, 4.0],
                               2))

    yaw = rng.choice([rng.uniform(-math.pi, math.pi), 0.0, math.pi / 2,
                      math.pi, -math.pi])
    a = [*rng.uniform(-20.0, 20.0, 2), *dims(), yaw]
    if family == "identical":
        b = list(a)
    elif family in ("edge", "corner"):
        # b beside a along a's length axis, and past its width too for a
        # corner
        lb, wb = dims()
        gap = rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-9 / lb, 1e-9 / a[2]])
        along = 0.5 * (a[2] + lb) + gap
        side = (0.5 * (a[3] + wb) + gap if family == "corner"
                else rng.uniform(-0.5, 0.5) * (a[3] + wb))
        c, s = math.cos(yaw), math.sin(yaw)
        b = [a[0] + c * along - s * side, a[1] + s * along + c * side,
             lb, wb, yaw + rng.choice([0.0, 1e-13, -1e-13, 1e-12])]
    else:
        reach = 3e-4 if family == "tiny" else 4.0
        b = [*(np.array(a[:2]) + rng.uniform(-reach, reach, 2)), *dims(),
             rng.uniform(-math.pi, math.pi)]
        if family == "parallel":
            b[4] = wrap_angle(yaw + rng.choice(
                [1e-12, -1e-9, 1e-6, math.pi / 2, math.pi]))
    if far:
        a[:2] = a[0] + 1e6, a[1] - 1e6
        b[:2] = b[0] + 1e6, b[1] - 1e6
    return [float(v) for v in a], [float(v) for v in b]


class TestBatchedIou:
    @settings(max_examples=80, deadline=None)
    @given(kinds=st.lists(st.tuples(st.sampled_from(_FAMILIES), st.booleans()),
                          min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_iou_pairs_equals_scalar_kernel_bit_for_bit(self, kinds, seed):
        # eight pairs of each drawn kind: 8 to 64 pairs per example
        rng = np.random.default_rng(seed)
        pairs = [_rect_pair(rng, family, far) for family, far in kinds
                 for _ in range(8)]
        n = len(pairs)
        rects_a = np.array([a for a, _ in pairs])
        rects_b = np.array([b for _, b in pairs][::-1])
        want = np.array([rect_iou(*a, *b) for a, b in pairs])
        # no pair, one drawn pair, and every pair at once
        for rows in (np.arange(0), rng.integers(n, size=1), np.arange(n)):
            got = _iou_pairs(rects_a, rects_b, rows, n - 1 - rows)
            assert got.dtype == np.float64
            assert (got.view(np.int64).tolist()
                    == want[rows].view(np.int64).tolist())

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(_FAMILIES), far=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_bev_iou_equals_scalar_kernel_bit_for_bit(self, family, far,
                                                      seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            a, b = (Box3D(cx, cy, 0.0, length, width, 1.0, yaw)
                    for cx, cy, length, width, yaw
                    in _rect_pair(rng, family, far))
            got = bev_iou(a, b)
            assert type(got) is float
            assert got.hex() == rect_iou(*as_tuple(a), *as_tuple(b)).hex()

    def test_matrix_without_candidate_pairs_skips_the_clip(self,
                                                           monkeypatch):
        def clip(*args):
            raise AssertionError("clip called")

        monkeypatch.setattr(geometry, "_iou_pairs", clip)
        rects = box_rows([Box3D(0, 0, 0, 4, 2, 1, 0.3),
                          Box3D(100, 0, 0, 4, 2, 1, 0)])[:, RECT_COLUMNS]
        for a, b in ((rects[:1], rects[1:]), (rects, rects[:0]),
                     (rects[:0], rects)):
            mat = buffered_iou_matrix(a, b, np.zeros(len(a)),
                                      np.zeros(len(b)))
            assert mat.shape == (len(a), len(b))
            assert not mat.any()
        with pytest.raises(AssertionError, match="clip called"):
            buffered_iou_matrix(rects, rects, np.zeros(2), np.zeros(2))


def pair_iou(a, b, ra, rb):
    """The one cell of ``buffered_iou_matrix`` of boxes a and b."""
    rect_a, rect_b = (box_rows([box])[:, RECT_COLUMNS] for box in (a, b))
    return buffered_iou_matrix(rect_a, rect_b, [ra], [rb])[0, 0]


class TestBufferedIou:
    def test_negative_ratio_rejected(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        for ra, rb in ((-0.1, 0.0), (0.0, -0.1)):
            with pytest.raises(ValueError, match="ratios must be >= 0"):
                pair_iou(a, a, ra, rb)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_ratio_rejected(self, bad):
        a = Box3D(0, 0, 0, 4, 2, 1, 0)
        for ra, rb in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError,
                               match="ratios must be >= 0 and finite"):
                pair_iou(a, a, ra, rb)

    def test_one_ratio_per_rectangle(self):
        rects = box_rows([Box3D(0, 0, 0, 4, 2, 1, 0)] * 2)[:, RECT_COLUMNS]
        two = [0.1, 0.1]
        for ra, rb in (([0.1], two), (two, 0.1), (two, [[0.1, 0.1]]),
                       (two, [0.1, 0.1, 0.1])):
            with pytest.raises(ValueError, match=re.escape(
                    "2 rectangles need as many buffer ratios")):
                buffered_iou_matrix(rects, rects, ra, rb)
        assert (buffered_iou_matrix(rects, rects, two, two) == 1.0).all()

    def test_touching_boxes_gain_overlap(self):
        # 2x2 footprints side by side: zero overlap raw, positive buffered
        a = Box3D(0, 0, 0, 2, 2, 1, 0)
        b = Box3D(2.05, 0, 0, 2, 2, 1, 0)
        assert pair_iou(a, b, 0.0, 0.0) == 0.0
        buffed = pair_iou(a, b, 0.3, 0.3)
        assert buffed > 0.0
        want = rasterized_iou(
            (0, 0, 2.6, 2.6, 0), (2.05, 0, 2.6, 2.6, 0), cell=0.001)
        assert buffed == pytest.approx(want, abs=1e-3)

    def test_identical_boxes_any_ratio(self):
        b = Box3D(5, 5, 0, 3, 1.5, 1.2, 0.9)
        for ra, rb in ((0, 0), (0.4, 0.4), (0.7, 0.7)):
            assert pair_iou(b, b, ra, rb) == pytest.approx(1.0, abs=1e-12)

    def test_far_disjoint_stays_zero(self):
        a = Box3D(0, 0, 0, 4, 2, 1, 0.3)
        b = Box3D(50, 50, 0, 4, 2, 1, -0.4)
        assert pair_iou(a, b, 0.5, 0.5) == 0.0

    def test_overlap_positivity_monotone_in_ratios(self):
        # buffered footprints are supersets, so an overlap can only appear,
        # never vanish, as either ratio grows (full IoU monotonicity does
        # not hold once boxes overlap: the union can outgrow the
        # intersection)
        rng = np.random.default_rng(31)
        ratios = np.linspace(0, 0.8, 9)
        for _ in range(60):
            a, b = random_box(rng, span=5.0), random_box(rng, span=5.0)
            for fixed in (0.0, 0.3):
                for seq in ([pair_iou(a, b, r, fixed) for r in ratios],
                            [pair_iou(a, b, fixed, r) for r in ratios]):
                    for x, y in zip(seq, seq[1:]):
                        if x > 1e-12:
                            assert y > 0.0

    def test_monotone_at_overlap_onset(self):
        # in the matching-relevant regime (disjoint raw footprints entering
        # overlap) growing the buffers never reduces the IoU
        a = Box3D(0, 0, 0, 2, 1, 1, 0)
        b = Box3D(2.4, 0, 0, 2, 1, 1, 0)
        seq = [pair_iou(a, b, r, r) for r in np.linspace(0, 0.4, 9)]
        assert seq[0] == 0.0
        for x, y in zip(seq, seq[1:]):
            assert y >= x - 1e-9
        assert seq[-1] > 0.0


class TestScaleLevel:
    def test_breakpoints(self):
        areas = [0.6 * 0.6,    # 0.36 m^2
                 2.0 * 1.0,    # 2 m^2
                 4.5 * 1.9,    # 8.55 m^2
                 8.0 * 2.5,    # 20 m^2
                 12.0 * 3.0]   # 36 m^2
        assert (footprint_levels(areas, DEFAULT_SCALE_BREAKPOINTS).tolist()
                == [0, 1, 2, 3, 4])


def _first_level_below(area, breakpoints):
    """The footprint rule as stated: the first level whose breakpoint
    exceeds the area, else one past the last."""
    for level, edge in enumerate(breakpoints):
        if area < edge:
            return level
    return len(breakpoints)


@settings(max_examples=60, deadline=None)
@given(breakpoints=st.one_of(
           st.just(DEFAULT_SCALE_BREAKPOINTS),
           st.lists(st.floats(0.01, 100.0), min_size=1, max_size=5,
                    unique=True).map(sorted)),
       extra=st.lists(st.floats(0.001, 200.0), max_size=5))
def test_footprint_levels_equal_the_scalar_rule(breakpoints, extra):
    # at, just below and just above every breakpoint, and anywhere
    edges = np.array(breakpoints)
    areas = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf), extra])
    want = [_first_level_below(a, breakpoints) for a in areas.tolist()]
    assert footprint_levels(areas, breakpoints).tolist() == want
