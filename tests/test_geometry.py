import math

import numpy as np
import pytest

from bevtrack.geometry import (Box3D, BufferRatioTable, bev_iou,
                               bev_iou_matrix, buffer_box, buffered_iou,
                               buffered_iou_matrix, footprint_scale_level,
                               wrap_angle)

from oracles import rasterized_iou, rasterized_iou_dense


def random_box(rng, span=4.0):
    return Box3D(
        cx=rng.uniform(-span, span), cy=rng.uniform(-span, span),
        cz=rng.uniform(0, 2),
        length=rng.uniform(0.4, 6.0), width=rng.uniform(0.4, 3.0),
        height=rng.uniform(0.5, 3.0), yaw=rng.uniform(-math.pi, math.pi),
    )


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
        # every cell must still equal the per-pair IoU exactly
        rng = np.random.default_rng(13)

        def check(boxes_a, boxes_b, mat):
            assert mat.shape == (len(boxes_a), len(boxes_b))
            for i, a in enumerate(boxes_a):
                for j, b in enumerate(boxes_b):
                    assert 0.0 <= mat[i, j] <= 1.0
                    assert mat[i, j] == bev_iou(a, b)

        boxes_a = [random_box(rng) for _ in range(8)]
        boxes_b = [random_box(rng) for _ in range(5)]
        spread = [random_box(rng, span=40.0) for _ in range(40)]
        same = [random_box(rng)] * 3
        for a, b in ((boxes_a, boxes_b), (spread, spread), (same, same),
                     ([], boxes_b), (boxes_a, [])):
            check(a, b, bev_iou_matrix(a, b))

        # axis-aligned boxes touching edge to edge and corner to corner
        # (along the diagonal, where the circumcircles touch); the clip's
        # edge tolerance gives some of these a tiny positive IoU
        for length, width in ((4.0, 2.0), (1e-4, 1e-4), (1e-4, 3e-4)):
            diag = math.hypot(length, width)
            for gap in (1e-12, 1e-9, 1e-6):
                boxes = [Box3D(x, y, 0, length, width, 1, 0) for x, y in (
                    (0.0, 0.0), (length + gap, 0.0), (0.0, width + gap),
                    (length * (1 + gap / diag), width * (1 + gap / diag)))]
                check(boxes, boxes, bev_iou_matrix(boxes, boxes))

        for r in np.linspace(0.0, 0.5, 6):
            ratios_b = rng.uniform(0.0, r, size=len(spread))
            mat = buffered_iou_matrix(boxes_a + spread, spread,
                                      [r] * (len(boxes_a) + len(spread)),
                                      ratios_b)
            check([buffer_box(b, r) for b in boxes_a + spread],
                  [buffer_box(b, rb) for b, rb in zip(spread, ratios_b)], mat)

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


class TestBufferBox:
    def test_direct_application(self):
        b = buffer_box(Box3D(1, 1, 0.8, 4.0, 2.0, 1.6, 0.2), 0.25)
        assert (b.length, b.width) == (5.0, 2.5)
        assert (b.cx, b.cy, b.cz, b.height) == (1, 1, 0.8, 1.6)
        assert b.yaw == pytest.approx(0.2)

    def test_zero_ratio_is_identity(self):
        a = Box3D(3, -2, 0.5, 1.0, 0.5, 1.7, -1.1)
        assert buffer_box(a, 0.0) == a

    def test_small_box(self):
        b = buffer_box(Box3D(0, 0, 0, 1.0, 0.5, 1.0, 0), 0.5)
        assert (b.length, b.width) == (1.5, 0.75)

    def test_footprint_area_scaling(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            a = random_box(rng)
            r = rng.uniform(0, 1)
            assert buffer_box(a, r).footprint_area == pytest.approx(
                (1 + r) ** 2 * a.footprint_area, rel=1e-12)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            buffer_box(Box3D(0, 0, 0, 1, 1, 1, 0), -0.1)


class TestBufferedIou:
    def test_touching_boxes_gain_overlap(self):
        # 2x2 footprints side by side: zero overlap raw, positive buffered
        a = Box3D(0, 0, 0, 2, 2, 1, 0)
        b = Box3D(2.05, 0, 0, 2, 2, 1, 0)
        assert buffered_iou(a, b, 0.0, 0.0) == 0.0
        buffed = buffered_iou(a, b, 0.3, 0.3)
        assert buffed > 0.0
        want = rasterized_iou(
            (0, 0, 2.6, 2.6, 0), (2.05, 0, 2.6, 2.6, 0), cell=0.001)
        assert buffed == pytest.approx(want, abs=1e-3)

    def test_identical_boxes_any_ratio(self):
        b = Box3D(5, 5, 0, 3, 1.5, 1.2, 0.9)
        for ra, rb in ((0, 0), (0.4, 0.4), (0.7, 0.7)):
            assert buffered_iou(b, b, ra, rb) == pytest.approx(1.0, abs=1e-12)

    def test_far_disjoint_stays_zero(self):
        a = Box3D(0, 0, 0, 4, 2, 1, 0.3)
        b = Box3D(50, 50, 0, 4, 2, 1, -0.4)
        assert buffered_iou(a, b, 0.5, 0.5) == 0.0

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
                for seq in ([buffered_iou(a, b, r, fixed) for r in ratios],
                            [buffered_iou(a, b, fixed, r) for r in ratios]):
                    for x, y in zip(seq, seq[1:]):
                        if x > 1e-12:
                            assert y > 0.0

    def test_monotone_at_overlap_onset(self):
        # in the matching-relevant regime (disjoint raw footprints entering
        # overlap) growing the buffers never reduces the IoU
        a = Box3D(0, 0, 0, 2, 1, 1, 0)
        b = Box3D(2.4, 0, 0, 2, 1, 1, 0)
        seq = [buffered_iou(a, b, r, r) for r in np.linspace(0, 0.4, 9)]
        assert seq[0] == 0.0
        for x, y in zip(seq, seq[1:]):
            assert y >= x - 1e-9
        assert seq[-1] > 0.0


class TestBufferRatioTable:
    def test_default_table(self):
        t = BufferRatioTable()
        assert t.ratios == (0.50, 0.40, 0.30, 0.20, 0.10)
        assert t.ratio(0) == 0.5
        assert t.ratio(4) == 0.1
        assert t.ratio(99) == 0.1  # clamped

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            BufferRatioTable((0.1, 0.2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BufferRatioTable((0.3, -0.1))


class TestScaleLevel:
    def test_breakpoints(self):
        mk = lambda l, w: Box3D(0, 0, 0, l, w, 1, 0)
        assert footprint_scale_level(mk(0.6, 0.6)) == 0    # 0.36 m^2
        assert footprint_scale_level(mk(2.0, 1.0)) == 1    # 2 m^2
        assert footprint_scale_level(mk(4.5, 1.9)) == 2    # 8.55 m^2
        assert footprint_scale_level(mk(8.0, 2.5)) == 3    # 20 m^2
        assert footprint_scale_level(mk(12.0, 3.0)) == 4   # 36 m^2
