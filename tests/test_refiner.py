import math

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from bevtrack.refiner import (DeformableFusionParams, FeatureGrid, FilterMask,
                              InjectedMaps, ObjectPrior, assign_scale_level,
                              backward_refine, bilinear_sample, combine_masks,
                              object_mask, peak_amplitude, refine_features,
                              temporal_fuse)

from oracles import _bilinear_point, naive_box_conv, naive_temporal_fuse


def make_maps(seed=0, dim=12, levels=3):
    return InjectedMaps.from_seed(seed, dim, levels)


def random_prior(rng, dim, grid_shape):
    h, w = grid_shape
    return ObjectPrior(e_cat=rng.normal(size=dim),
                       center_cell=(rng.uniform(0, h - 1), rng.uniform(0, w - 1)),
                       footprint=(rng.uniform(1, 3), rng.uniform(1, 3)))


class TestAssignScaleLevel:
    def test_identity_map_on_one_hot(self):
        maps = make_maps()
        ident = np.zeros((3, 12))
        ident[:3, :3] = np.eye(3)
        maps = InjectedMaps(num_levels=3, level_matrix=ident,
                            weight_vector=maps.weight_vector,
                            scope_radii=maps.scope_radii,
                            kernel_sizes=maps.kernel_sizes)
        e = np.zeros(12)
        e[2] = 1.0
        assert assign_scale_level(
            ObjectPrior(e, (0.0, 0.0), (1.0, 1.0)), maps) == 2

    def test_all_zero_ties_to_level_zero(self):
        maps = make_maps()
        assert assign_scale_level(
            ObjectPrior(np.zeros(12), (0.0, 0.0), (1.0, 1.0)), maps) == 0

    def test_matches_matmul_argmax_oracle(self):
        rng = np.random.default_rng(3)
        maps = make_maps(seed=5)
        for _ in range(200):
            o = random_prior(rng, 12, (16, 16))
            want = int(np.argmax(maps.level_matrix @ o.e_cat))
            assert assign_scale_level(o, maps) == want

    def test_reproducible_from_seed(self):
        a = InjectedMaps.from_seed(42, 24, 5)
        b = InjectedMaps.from_seed(42, 24, 5)
        np.testing.assert_array_equal(a.level_matrix, b.level_matrix)
        np.testing.assert_array_equal(a.weight_vector, b.weight_vector)


class TestObjectMask:
    def test_peak_value_at_center_cell(self):
        rng = np.random.default_rng(5)
        maps = make_maps(seed=7)
        o = ObjectPrior(rng.normal(size=12), (8.0, 6.0), (2.0, 2.0))
        mask = object_mask(o, 1, maps, (16, 16))
        amp = peak_amplitude(o, maps)
        assert 0.0 <= amp <= 1.0
        assert mask.data[8, 6] == pytest.approx(amp, abs=1e-12)
        assert mask.data.argmax() == 8 * 16 + 6

    def test_exact_zero_outside_scope(self):
        rng = np.random.default_rng(7)
        maps = make_maps(seed=9)
        o = ObjectPrior(rng.normal(size=12), (10.0, 10.0), (2.0, 2.0))
        level = 0  # radius 2 cells
        mask = object_mask(o, level, maps, (21, 21))
        rr, cc = np.mgrid[0:21, 0:21]
        d2 = (rr - 10.0) ** 2 + (cc - 10.0) ** 2
        outside = d2 > maps.scope_radii[level] ** 2
        assert (mask.data[outside] == 0.0).all()
        assert (mask.data[~outside] > 0.0).all()

    def test_one_sigma_value(self):
        rng = np.random.default_rng(9)
        maps = make_maps(seed=11, levels=3)
        o = ObjectPrior(rng.normal(size=12), (12.0, 12.0), (2.0, 2.0))
        level = 2  # radius 8 -> sigma 8/3
        mask = object_mask(o, level, maps, (25, 25))
        amp = peak_amplitude(o, maps)
        sigma = maps.scope_radii[level] / 3.0
        # sample the Gaussian along the row through the center at a known
        # squared distance; use an integer offset cell and closed form
        offset = 2
        want = amp * math.exp(-(offset**2) / (2 * sigma**2))
        assert mask.data[12, 12 + offset] == pytest.approx(want, abs=1e-9)

    def test_bitwise_equal_to_full_grid_formula(self):
        # the mask is evaluated on the scope's window only; every cell must
        # equal the Gaussian formula evaluated over the whole grid
        rng = np.random.default_rng(27)
        maps = InjectedMaps.from_seed(13, 12, 3, scope_radii=(2.0, 5.5, 40.0))
        h, w = 16, 12
        centers = [(0.0, 0.0), (0.0, w - 1.0), (h - 1.0, 0.0),
                   (h - 1.0, w - 1.0), (0.0, 4.3), (h - 1.0, 7.7),
                   (6.5, 0.0), (9.25, w - 1.0), (7.5, 5.5)]
        centers += [(rng.uniform(0, h - 1), rng.uniform(0, w - 1))
                    for _ in range(20)]
        for center in centers:
            o = ObjectPrior(rng.normal(size=12), center, (2.0, 2.0))
            for level in range(3):
                radius = maps.scope_radii[level]
                sigma = radius / 3.0
                rr = np.arange(h, dtype=np.float64)[:, None]
                cc = np.arange(w, dtype=np.float64)[None, :]
                d2 = (rr - center[0]) ** 2 + (cc - center[1]) ** 2
                want = peak_amplitude(o, maps) * np.exp(
                    -d2 / (2.0 * sigma * sigma))
                want[d2 > radius * radius] = 0.0
                got = object_mask(o, level, maps, (h, w)).data
                assert np.array_equal(got, want), (center, level)

    def test_center_outside_grid_rejected(self):
        maps = make_maps()
        o = ObjectPrior(np.zeros(12), (30.0, 2.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            object_mask(o, 0, maps, (16, 16))


class TestCombineMasks:
    def test_single_mask_identity(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(0, 1, size=(8, 8))
        m = FilterMask(1, data)
        out = combine_masks([m], 1)
        np.testing.assert_array_equal(out.data, data)

    def test_empty_list_gives_zero_mask(self):
        out = combine_masks([], 2, (6, 7))
        assert out.level == 2
        assert out.data.shape == (6, 7)
        assert not out.data.any()

    def test_disjoint_supports_preserved(self):
        a = np.zeros((8, 8))
        a[1, 1] = 0.7
        b = np.zeros((8, 8))
        b[6, 6] = 0.4
        out = combine_masks([FilterMask(0, a), FilterMask(0, b)], 0)
        assert out.data[1, 1] == 0.7
        assert out.data[6, 6] == 0.4

    def test_overlapping_max_matches_oracle(self):
        rng = np.random.default_rng(13)
        datas = [rng.uniform(0, 1, size=(10, 10)) for _ in range(4)]
        out = combine_masks([FilterMask(3, d) for d in datas], 3)
        want = np.maximum.reduce(datas)
        np.testing.assert_array_equal(out.data, want)
        assert out.data.max() <= 1.0 and out.data.min() >= 0.0

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_masks([FilterMask(0, np.zeros((4, 4)))], 1)


class TestRefineFeatures:
    def test_all_zero_masks_pass_through(self):
        rng = np.random.default_rng(15)
        f = FeatureGrid(rng.normal(size=(8, 8, 4)))
        masks = [FilterMask(l, np.zeros((8, 8))) for l in range(3)]
        out = refine_features(f, masks, (1, 3, 5))
        np.testing.assert_array_equal(out.data, f.data)

    def test_all_one_masks_identity_kernels(self):
        rng = np.random.default_rng(17)
        f = FeatureGrid(rng.normal(size=(6, 6, 3)))
        masks = [FilterMask(l, np.ones((6, 6))) for l in range(3)]
        out = refine_features(f, masks, (1, 1, 1))
        np.testing.assert_allclose(out.data, f.data, atol=1e-12)

    def test_spread_matches_naive_convolution(self):
        f_data = np.zeros((7, 7, 2))
        f_data[3, 3] = (1.0, -2.0)
        f = FeatureGrid(f_data)
        mask = np.ones((7, 7))
        out = refine_features(FeatureGrid(f_data),
                              [FilterMask(0, mask)], (3,))
        want = 0.5 * (f_data + naive_box_conv(f_data, 3))
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_bitwise_equal_to_mean_of_branches(self):
        rng = np.random.default_rng(29)
        f = FeatureGrid(rng.normal(size=(20, 18, 5)))
        kernels = (1, 3, 5, 7, 9)
        for trial in range(6):
            masks = []
            for level in range(5):
                data = np.zeros((20, 18))
                if rng.uniform() < 0.7:  # leave some levels empty
                    data = rng.uniform(0, 1, size=(20, 18))
                    data[rng.uniform(size=(20, 18)) < 0.5] = 0.0
                masks.append(FilterMask(level, data))
            # the branches exactly as refine_features smooths them; only the
            # averaging is under test here
            branches = [f.data] + [
                uniform_filter(m.data[:, :, None] * f.data,
                               size=(kernels[m.level], kernels[m.level], 1),
                               mode="constant", cval=0.0)
                for m in masks if m.data.any()]
            want = np.mean(branches, axis=0)
            got = refine_features(f, masks, kernels).data
            assert np.array_equal(got, want), trial

    def test_shape_mismatch_rejected(self):
        f = FeatureGrid(np.zeros((4, 4, 2)))
        with pytest.raises(ValueError):
            refine_features(f, [FilterMask(0, np.zeros((5, 5)))], (3,))


class TestBilinearSample:
    def test_integer_positions_read_exact(self):
        rng = np.random.default_rng(19)
        data = rng.normal(size=(5, 6, 3))
        rows = np.array([0.0, 2.0, 4.0])
        cols = np.array([1.0, 3.0, 5.0])
        out = bilinear_sample(data, rows, cols)
        for k, (r, c) in enumerate(zip(rows, cols)):
            np.testing.assert_allclose(out[k], data[int(r), int(c)])

    def test_linear_ramp_midpoint(self):
        ramp = np.arange(6, dtype=float)[:, None, None] * np.ones((6, 4, 1))
        out = bilinear_sample(ramp, np.array([2.5]), np.array([1.0]))
        assert out[0, 0] == pytest.approx(2.5)

    def test_outside_reads_zero(self):
        data = np.ones((3, 3, 1))
        out = bilinear_sample(data, np.array([-5.0, 10.0]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(out, np.zeros((2, 1)))

    def test_border_fades_to_zero_padding(self):
        data = np.ones((3, 3, 1))
        out = bilinear_sample(data, np.array([-0.5]), np.array([1.0]))
        assert out[0, 0] == pytest.approx(0.5)

    def test_exactly_equals_point_oracle(self):
        rng = np.random.default_rng(31)
        h, w = 5, 7
        data = rng.normal(size=(h, w, 3))
        eps = 1e-9
        row_vals = [0.0, 2.0, h - 1.0, 1.25, 3.7, -1.0, -0.5, h - 1 + eps, h,
                    -1.0 - eps, h + 0.5, -5.0, 1e3, -1e3]
        col_vals = [0.0, 3.0, w - 1.0, 2.5, 5.1, -1.0, -0.5, w - 1 + eps, w,
                    -1.0 - eps, w + 0.5, -5.0, 1e3, -1e3]
        rows, cols = np.meshgrid(row_vals, col_vals, indexing="ij")
        rows = np.concatenate([rows.ravel(), rng.uniform(-3, h + 2, 200)])
        cols = np.concatenate([cols.ravel(), rng.uniform(-3, w + 2, 200)])
        got = bilinear_sample(data, rows, cols)
        for k, (r, c) in enumerate(zip(rows, cols)):
            want = _bilinear_point(data, float(r), float(c))
            assert np.array_equal(got[k], want), (r, c)


def identity_params(c):
    """Single head, K=1, zero offsets/attention, W_out @ W_value = I."""
    return DeformableFusionParams(
        heads=1, points=1,
        w_value=np.eye(c)[None, :, :],
        w_out=np.eye(c)[None, :, :],
        w_offset=np.zeros((1, 1, 2, 2 * c)),
        w_attention=np.zeros((1, 1, 2 * c)),
    )


class TestTemporalFuse:
    def test_identity_configuration_returns_current(self):
        rng = np.random.default_rng(21)
        prev = FeatureGrid(rng.normal(size=(5, 5, 4)))
        curr = FeatureGrid(rng.normal(size=(5, 5, 4)))
        out = temporal_fuse(prev, curr, identity_params(4))
        np.testing.assert_allclose(out.data, curr.data, atol=1e-12)

    def test_constant_offset_samples_linear_ramp_midpoint(self):
        c = 2
        p = identity_params(c)
        w_offset = np.zeros((1, 1, 2, 2 * c))
        p = DeformableFusionParams(
            heads=1, points=1, w_value=p.w_value, w_out=p.w_out,
            w_offset=w_offset, w_attention=p.w_attention)
        # offset generator is linear in the concatenated features; feed a
        # constant-1 channel so a fixed row offset of 0.5 comes out
        h, w = 4, 4
        ramp = np.arange(h, dtype=float)[:, None, None] * np.ones((h, w, c))
        ones = np.ones((h, w, c))
        w_offset[0, 0, 0, 0] = 0.5  # 0.5 * prev channel 0 (== 1 everywhere)
        prev = FeatureGrid(ones)
        curr = FeatureGrid(ramp)
        out = temporal_fuse(prev, curr, p)
        np.testing.assert_allclose(out.data[:3], ramp[:3] + 0.5, atol=1e-12)

    def test_attention_normalization(self):
        rng = np.random.default_rng(23)
        c, heads, points = 8, 2, 4
        p = DeformableFusionParams.from_seed(3, c, heads, points)
        cat = rng.normal(size=(6, 6, 2 * c))
        logits = np.einsum("hkc,ijc->ijhk", p.w_attention, cat)
        att = np.exp(logits - logits.max(axis=3, keepdims=True))
        att /= att.sum(axis=3, keepdims=True)
        np.testing.assert_allclose(att.sum(axis=3), np.ones((6, 6, heads)),
                                   atol=1e-9)

    def test_matches_naive_quadruple_loop(self):
        rng = np.random.default_rng(25)
        for trial in range(10):
            h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            c = int(rng.choice([2, 4, 8]))
            heads = int(rng.choice([1, 2]))
            points = int(rng.integers(1, 4))
            p = DeformableFusionParams.from_seed(100 + trial, c, heads,
                                                 points, offset_scale=2.0)
            prev = FeatureGrid(rng.normal(size=(h, w, c)))
            curr = FeatureGrid(rng.normal(size=(h, w, c)))
            got = temporal_fuse(prev, curr, p).data
            want = naive_temporal_fuse(prev.data, curr.data, p)
            assert np.abs(got - want).max() < 1e-9
        # four heads and large offsets: many samples land off the grid
        for trial in range(6):
            h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            c = int(rng.choice([4, 8]))
            points = int(rng.integers(1, 4))
            p = DeformableFusionParams.from_seed(200 + trial, c, 4, points,
                                                 offset_scale=8.0)
            prev = FeatureGrid(rng.normal(size=(h, w, c)))
            curr = FeatureGrid(rng.normal(size=(h, w, c)))
            got = temporal_fuse(prev, curr, p).data
            want = naive_temporal_fuse(prev.data, curr.data, p)
            assert np.abs(got - want).max() < 1e-9

    def test_shape_mismatch_rejected(self):
        p = identity_params(4)
        with pytest.raises(ValueError):
            temporal_fuse(FeatureGrid(np.zeros((4, 4, 4))),
                          FeatureGrid(np.zeros((5, 5, 4))), p)


class TestBackwardRefine:
    def _setup(self, seed=0, n_objects=3):
        rng = np.random.default_rng(seed)
        c = 4
        img = FeatureGrid(rng.normal(size=(12, 16, c)), kind="image")
        bev = FeatureGrid(rng.normal(size=(24, 24, c)), kind="bev")
        img_maps = InjectedMaps.from_seed(seed + 1, 3 * c, 3)
        bev_maps = InjectedMaps.from_seed(seed + 2, 3 * c, 5)
        objects = []
        for _ in range(n_objects):
            e_cat = rng.normal(size=3 * c)
            objects.append((
                ObjectPrior(e_cat, (rng.uniform(0, 11), rng.uniform(0, 15)),
                            (2.0, 2.0)),
                ObjectPrior(e_cat, (rng.uniform(0, 23), rng.uniform(0, 23)),
                            (2.0, 2.0)),
            ))
        return img, bev, objects, img_maps, bev_maps

    def test_zero_objects_pass_through(self):
        img, bev, _, img_maps, bev_maps = self._setup()
        out_img, out_bev, levels = backward_refine(img, bev, [], img_maps,
                                                   bev_maps)
        np.testing.assert_array_equal(out_img.data, img.data)
        np.testing.assert_array_equal(out_bev.data, bev.data)
        assert levels == []

    def test_single_object_masks_only_its_level(self):
        img, bev, objects, img_maps, bev_maps = self._setup(n_objects=1)
        obj = objects[0]
        bev_level = assign_scale_level(obj[1], bev_maps)
        shape = bev.shape[:2]
        for level in range(bev_maps.num_levels):
            members = [object_mask(obj[1], level, bev_maps, shape)] \
                if level == bev_level else []
            combined = combine_masks(members, level, shape)
            assert combined.data.any() == (level == bev_level)

    def test_levels_returned_for_association(self):
        img, bev, objects, img_maps, bev_maps = self._setup(n_objects=4)
        _, _, levels = backward_refine(img, bev, objects, img_maps, bev_maps)
        assert len(levels) == 4
        for obj, lv in zip(objects, levels):
            assert lv == assign_scale_level(obj[1], bev_maps)
            assert 0 <= lv < bev_maps.num_levels

    def test_outside_scope_suppression(self):
        # with sub-unit mask amplitudes, the averaged branches shrink the
        # feature magnitude away from every object scope; trials where one
        # large scope swallows the whole grid have no outside cells and are
        # skipped
        evaluated = 0
        for t in range(20):
            img, bev, objects, img_maps, bev_maps = self._setup(seed=40 + t,
                                                                n_objects=3)
            out_img, out_bev, levels = backward_refine(img, bev, objects,
                                                       img_maps, bev_maps)
            shape = bev.shape[:2]
            in_scope = np.zeros(shape, dtype=bool)
            for (_, prior), lv in zip(objects, levels):
                r0, c0 = prior.center_cell
                rr, cc = np.mgrid[0:shape[0], 0:shape[1]]
                d2 = (rr - r0) ** 2 + (cc - c0) ** 2
                in_scope |= d2 <= bev_maps.scope_radii[lv] ** 2
            outside = ~in_scope
            if not outside.any():
                continue
            evaluated += 1
            before = np.abs(bev.data[outside]).mean()
            after = np.abs(out_bev.data[outside]).mean()
            assert after <= before
        assert evaluated >= 10

    def test_deterministic_under_fixed_seed(self):
        a = self._setup(seed=77)
        b = self._setup(seed=77)
        out_a = backward_refine(a[0], a[1], a[2], a[3], a[4])
        out_b = backward_refine(b[0], b[1], b[2], b[3], b[4])
        np.testing.assert_array_equal(out_a[0].data, out_b[0].data)
        np.testing.assert_array_equal(out_a[1].data, out_b[1].data)
        assert out_a[2] == out_b[2]


class TestMaskContract:
    def test_random_object_sets(self):
        rng = np.random.default_rng(33)
        for trial in range(30):
            c = 4
            levels_n = int(rng.choice([3, 5]))
            maps = InjectedMaps.from_seed(200 + trial, 3 * c, levels_n)
            h, w = int(rng.integers(12, 40)), int(rng.integers(12, 40))
            priors = [random_prior(rng, 3 * c, (h, w))
                      for _ in range(int(rng.integers(1, 6)))]
            levels = [assign_scale_level(o, maps) for o in priors]
            union_scope = np.zeros((h, w), dtype=bool)
            rr, cc = np.mgrid[0:h, 0:w]
            for level in range(levels_n):
                members = [object_mask(o, level, maps, (h, w))
                           for o, lv in zip(priors, levels) if lv == level]
                mask = combine_masks(members, level, (h, w))
                assert mask.data.min() >= 0.0
                assert mask.data.max() <= 1.0
                scope = np.zeros((h, w), dtype=bool)
                for o, lv in zip(priors, levels):
                    if lv != level:
                        continue
                    d2 = (rr - o.center_cell[0]) ** 2 + (cc - o.center_cell[1]) ** 2
                    scope |= d2 <= maps.scope_radii[level] ** 2
                assert (mask.data[~scope] == 0.0).all()
                union_scope |= scope
