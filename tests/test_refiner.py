import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter

from bevtrack.refiner import (DEFAULT_BEV_GRID, DEFAULT_IMAGE_GRID,
                              DeformableFusionParams, FeatureGrid, FilterMask,
                              InjectedMaps, ObjectPrior, RefinerGridConfig,
                              assign_scale_level, backward_refine,
                              bilinear_sample, combine_masks, object_mask,
                              peak_amplitude, refine_features, refine_grid,
                              temporal_fuse, _TILE_ROWS)

from oracles import _bilinear_point, naive_box_conv, naive_temporal_fuse


def make_maps(seed=0, dim=12, levels=3):
    return InjectedMaps.from_seed(seed, dim, levels)


def bitwise_equal(a, b):
    """Equal values and equal sign bits, so -0.0 differs from 0.0."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def with_signed_zeros(rng, data, share=0.2):
    """data with a share of its cells set to 0.0 or -0.0 at random."""
    data = data.copy()
    hit = rng.uniform(size=data.shape) < share
    zeros = np.where(rng.uniform(size=data.shape) < 0.5, -0.0, 0.0)
    data[hit] = zeros[hit]
    return data


def random_prior(rng, dim, grid_shape):
    h, w = grid_shape
    return ObjectPrior(e_cat=rng.normal(size=dim),
                       center_cell=(rng.uniform(0, h - 1), rng.uniform(0, w - 1)),
                       footprint=(rng.uniform(1, 3), rng.uniform(1, 3)))


class TestObjectPrior:
    @pytest.mark.parametrize("center, footprint", [
        ((5.0, 5.0, 9.0), (1.0, 1.0)), ((5.0,), (1.0, 1.0)),
        ((math.nan, 1.0), (1.0, 1.0)), ((1.0, 1e999), (1.0, 1.0)),
        ((True, 1.0), (1.0, 1.0)), ("ab", (1.0, 1.0)), (3.0, (1.0, 1.0)),
        ((1.0, 1.0), (math.nan, 1.0)), ((1.0, 1.0), (1.0,)),
        ((1.0, 1.0), (1.0, "2")), ((1.0, 1.0), (1.0, 1.0, 1.0))])
    def test_rejects_anything_but_two_finite_numbers(self, center, footprint):
        with pytest.raises(ValueError, match="must be two finite numbers"):
            ObjectPrior(np.zeros(3), center, footprint)

    def test_rejects_negative_footprint(self):
        with pytest.raises(ValueError, match="non-negative"):
            ObjectPrior(np.zeros(3), (1.0, 1.0), (-0.5, 1.0))

    def test_pairs_become_float_tuples(self):
        o = ObjectPrior(np.zeros(3), [np.float64(1.5), 2], np.array([0, 3.0]))
        assert o.center_cell == (1.5, 2.0) and o.footprint == (0.0, 3.0)
        assert all(type(v) is float for v in o.center_cell + o.footprint)


class TestInjectedMaps:
    @pytest.mark.parametrize("levels, radii, kernels, message", [
        (0, (), (), "num_levels: must be >= 1"),
        (3, (2.0, 4.0), (1, 3, 5), "scope_radii: 2 entries for 3 levels"),
        (3, (2.0, 4.0, 8.0), (1, 3, 5, 7),
         "kernel_sizes: 4 entries for 3 levels"),
        (3, (2.0, 0.0, 8.0), (1, 3, 5), "scope_radii: must be > 0"),
        (3, (2.0, -4.0, 8.0), (1, 3, 5), "scope_radii: must be > 0"),
        (3, (2.0, 4.0, math.inf), (1, 3, 5),
         "scope_radii: must be a finite number"),
        (3, (2.0, 4.0, 8.0), (1, 3, 4), "kernel_sizes: each must be odd"),
        (3, (2.0, 4.0, 8.0), (0, 3, 5), "kernel_sizes: each must be odd"),
        (3, (2.0, 4.0, 8.0), (-1, 3, 5), "kernel_sizes: each must be odd"),
        (3, (2.0, 4.0, 8.0), (1, 3.9, 5), "kernel_sizes: must be an integer"),
        (3, (2.0, 4.0, 8.0), (True, 3, 5), "kernel_sizes: must be an integer"),
        (3, ("2", 4.0, 8.0), (1, 3, 5), "scope_radii: must be a finite number"),
        (3, (2.0, False, 8.0), (1, 3, 5),
         "scope_radii: must be a finite number"),
    ])
    def test_rejects_bad_grid(self, levels, radii, kernels, message):
        """InjectedMaps keeps every rule of RefinerGridConfig."""
        for build in (RefinerGridConfig, lambda n, r, k: InjectedMaps(
                num_levels=n, scope_radii=r, kernel_sizes=k,
                level_matrix=np.zeros((n, 6)), weight_vector=np.zeros(6))):
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                build(levels, radii, kernels)

    @pytest.mark.parametrize("levels", [3.0, True])
    def test_rejects_non_integer_level_count(self, levels):
        with pytest.raises(ValueError,
                           match="^num_levels: must be an integer"):
            RefinerGridConfig(levels, (2.0,), (1,))

    @pytest.mark.parametrize("settings, message", [
        ({"kernel_sizes": (1, 3.9, 5)}, "kernel_sizes: must be an integer"),
        ({"scope_radii": ("2", 4, 8)}, "scope_radii: must be a finite number")])
    def test_from_seed_passes_settings_through(self, settings, message):
        """from_seed hands its settings to the grid rules unconverted, so
        3.9 is not truncated to 3 and "2" is not read as 2.0."""
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            InjectedMaps.from_seed(0, 6, 3, **settings)
        maps = InjectedMaps.from_seed(0, 6, 3, scope_radii=[2, 4.5, 8],
                                      kernel_sizes=[1, 3, 5])
        assert maps.scope_radii == (2, 4.5, 8)
        assert maps.kernel_sizes == (1, 3, 5)

    def test_from_seed_defaults_are_the_default_grids(self):
        for grid in (DEFAULT_IMAGE_GRID, DEFAULT_BEV_GRID):
            maps = InjectedMaps.from_seed(4, 12, grid.num_levels)
            assert RefinerGridConfig(maps.num_levels, maps.scope_radii,
                                     maps.kernel_sizes) == grid
        assert (DEFAULT_IMAGE_GRID.num_levels,
                DEFAULT_BEV_GRID.num_levels) == (3, 5)
        with pytest.raises(ValueError, match="no default grid settings"):
            InjectedMaps.from_seed(4, 12, 4)


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

    @pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
    def test_k1_branch_with_one_corner_cell(self, corner):
        # the only level-0 (k = 1) mask cell sits in a grid corner, next to
        # a full-grid k = 5 branch; still bitwise the mean of the branches
        rng = np.random.default_rng(53)
        f = FeatureGrid(rng.normal(size=(9, 11, 3)))
        corner_mask = np.zeros((9, 11))
        corner_mask[corner] = 0.6
        wide_mask = rng.uniform(0, 1, size=(9, 11))
        masks = [FilterMask(0, corner_mask), FilterMask(1, np.zeros((9, 11))),
                 FilterMask(2, wide_mask)]
        branches = [f.data, corner_mask[:, :, None] * f.data,
                    uniform_filter(wide_mask[:, :, None] * f.data,
                                   size=(5, 5, 1), mode="constant", cval=0.0)]
        want = np.mean(branches, axis=0)
        got = refine_features(f, masks, (1, 3, 5)).data
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("smoothed", [False, True])
    def test_k1_branch_keeps_signed_zeros_outside_its_mask(self, smoothed):
        # the k = 1 product spans the whole grid; where its mask is 0 it is
        # 0 with the cell's sign, so each cell of the sum keeps its bits.
        # np.mean sums from +0.0, so the reference adds the branches to the
        # grid in order, as refine_features does.
        rng = np.random.default_rng(67)
        f = FeatureGrid(with_signed_zeros(rng, rng.normal(size=(12, 10, 3)),
                                          share=0.4))
        mask = np.zeros((12, 10))
        mask[4:7, 3:6] = rng.uniform(0.1, 1.0, size=(3, 3))
        wide = rng.uniform(size=(12, 10)) if smoothed else np.zeros((12, 10))
        masks = [FilterMask(0, mask), FilterMask(1, wide)]
        branches = [f.data, mask[:, :, None] * f.data]
        if smoothed:
            branches.append(uniform_filter(wide[:, :, None] * f.data,
                                           size=(3, 3, 1), mode="constant",
                                           cval=0.0))
        want = branches[0].copy()
        for branch in branches[1:]:
            want += branch
        want /= len(branches)
        got = refine_features(f, masks, (1, 3)).data
        assert bitwise_equal(got, want)
        outside = got[(mask == 0)[:, :, None] & (got == 0)]
        assert smoothed or np.signbit(outside).any()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (4, 3)])
    def test_grid_smaller_than_kernel(self, shape):
        # k = 9 reaches past the grid on at least one axis
        rng = np.random.default_rng(sum(shape))
        f = FeatureGrid(with_signed_zeros(rng, rng.normal(size=shape + (3,))))
        masks = [FilterMask(0, rng.uniform(size=shape)),
                 FilterMask(1, rng.uniform(size=shape))]
        branches = [f.data, masks[0].data[:, :, None] * f.data,
                    uniform_filter(masks[1].data[:, :, None] * f.data,
                                   size=(9, 9, 1), mode="constant", cval=0.0)]
        want = np.mean(branches, axis=0)
        assert bitwise_equal(refine_features(f, masks, (1, 9)).data, want)

    @pytest.mark.parametrize("h", [1, _TILE_ROWS - 1, _TILE_ROWS,
                                   _TILE_ROWS + 1, 2 * _TILE_ROWS + 3])
    def test_tiles_bitwise_equal_to_uniform_filter(self, h):
        # heights around the tile size, and a kernel wider than a tile: the
        # pass along H carries its state across tile boundaries, and the
        # k = 1 branch has tiles of +0 and of -0 mask rows (a -0 mask flips
        # the sign of the zeros it adds)
        rng = np.random.default_rng(h)
        w, c = 7, 3
        f = FeatureGrid(with_signed_zeros(rng, rng.normal(size=(h, w, c)),
                                          share=0.3))
        kernels = (1, 3, 9, 2 * _TILE_ROWS + 3)
        sparse = np.zeros((h, w))
        sparse[:2] = -0.0
        sparse[h // 2] = rng.uniform(0.1, 1.0, size=w)
        masks = [FilterMask(0, sparse)]
        for level in range(1, len(kernels)):
            data = rng.uniform(size=(h, w))
            data[rng.uniform(size=(h, w)) < 0.5] = 0.0
            masks.append(FilterMask(level, data))
        want = f.data.copy()
        count = 1
        for m, k in zip(masks, kernels):
            want += uniform_filter(m.data[:, :, None] * f.data,
                                   size=(k, k, 1), mode="constant", cval=0.0)
            count += 1
        want /= count
        assert bitwise_equal(refine_features(f, masks, kernels).data, want)

    def test_inputs_untouched_and_not_shared(self):
        rng = np.random.default_rng(61)
        f = FeatureGrid(with_signed_zeros(rng, rng.normal(size=(12, 10, 4))))
        masks = [FilterMask(level, rng.uniform(size=(12, 10)))
                 for level in range(3)]
        before = [f.data.copy()] + [m.data.copy() for m in masks]
        out = refine_features(f, masks, (1, 3, 5))
        for arr, old in zip([f.data] + [m.data for m in masks], before):
            assert bitwise_equal(arr, old)
            assert not np.shares_memory(out.data, arr)

    def test_shape_mismatch_rejected(self):
        f = FeatureGrid(np.zeros((4, 4, 2)))
        with pytest.raises(ValueError):
            refine_features(f, [FilterMask(0, np.zeros((5, 5)))], (3,))

    @pytest.mark.parametrize("kernels, message", [
        ((3, 2), "kernel_sizes: each must be odd and >= 1"),
        ((4,), "kernel_sizes: each must be odd and >= 1"),
        ((0,), "kernel_sizes: each must be odd and >= 1"),
        ((-1,), "kernel_sizes: each must be odd and >= 1"),
        ((3.0,), "kernel_sizes: each must be an integer"),
        ((True,), "kernel_sizes: each must be an integer")],
        ids=["even-empty-level", "4", "0", "-1", "float", "bool"])
    def test_bad_kernel_size_rejected(self, kernels, message):
        # the rule of RefinerGridConfig, checked before any work, also for
        # a level whose mask is empty
        f = FeatureGrid(np.ones((9, 8, 2)))
        masks = [FilterMask(0, np.full((9, 8), 0.5))] + [
            FilterMask(level, np.zeros((9, 8)))
            for level in range(1, len(kernels))]
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            refine_features(f, masks, kernels)

    @pytest.mark.parametrize("level", [3, -1])
    def test_level_without_kernel_size_rejected(self, level):
        f = FeatureGrid(np.ones((4, 4, 2)))
        for data in (np.ones((4, 4)), np.zeros((4, 4))):
            with pytest.raises(ValueError, match="kernel size"):
                refine_features(f, [FilterMask(level, data)], (3,))


def masked_mean_oracle(grid, masks, kernels):
    """refine_features by its definition: each level branch with weight is
    uniform_filter of the masked grid, added to the grid in mask order,
    and the sum is divided by the count."""
    want = grid.copy()
    count = 1
    for m in masks:
        if m.data.any():
            k = kernels[m.level]
            want += uniform_filter(m.data[:, :, None] * grid, size=(k, k, 1),
                                   mode="constant", cval=0.0)
            count += 1
    want /= count
    return want


class TestSmoothRows:
    @pytest.mark.parametrize("k", [3, 5, 9, 61, 121])
    def test_bitwise_equal_to_uniform_filter1d(self, k):
        # one smoothed branch against scipy's filter of the stored masked
        # grid: values and sign bits, for grids shorter and taller than
        # the kernel and than a tile
        rng = np.random.default_rng(k)
        for h in range(1, 41):
            c, w = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            grid = with_signed_zeros(
                rng, rng.normal(size=(h, w, c)) * rng.choice([1e-3, 1, 1e3]))
            mask = with_signed_zeros(rng, rng.uniform(size=(h, w)), 0.3)
            masks = [FilterMask(0, mask)]
            got = refine_features(FeatureGrid(grid), masks, (k,)).data
            want = masked_mean_oracle(grid, masks, (k,))
            assert bitwise_equal(got, want), (h, c, w)


@st.composite
def _refine_cases(draw):
    """A grid, its level masks and odd kernel sizes, some wider than a
    tile; levels may be empty, and grids and masks hold signed zeros."""
    h = draw(st.integers(1, 3 * _TILE_ROWS + 2))
    w = draw(st.integers(1, 9))
    c = draw(st.integers(1, 3))
    kernels = tuple(draw(st.lists(
        st.one_of(st.integers(0, 5), st.integers(_TILE_ROWS // 2,
                                                  2 * _TILE_ROWS)),
        min_size=1, max_size=4).map(lambda ks: [2 * k + 1 for k in ks])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = with_signed_zeros(rng, rng.normal(size=(h, w, c)),
                             draw(st.sampled_from([0.0, 0.3, 0.9])))
    masks = []
    for level in range(len(kernels)):
        share = draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))
        masks.append(FilterMask(level, with_signed_zeros(
            rng, rng.uniform(size=(h, w)), share)))
    return grid, masks, kernels


@settings(max_examples=60, deadline=None)
@given(case=_refine_cases())
def test_refine_features_bitwise_equal_to_oracle(case):
    grid, masks, kernels = case
    got = refine_features(FeatureGrid(grid), masks, kernels).data
    assert bitwise_equal(got, masked_mean_oracle(grid, masks, kernels))


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

    def test_2d_positions_exactly_equal_point_oracle(self):
        rng = np.random.default_rng(37)
        h, w = 6, 4
        data = rng.normal(size=(h, w, 2))
        rows = rng.uniform(-3, h + 2, size=(9, 5))
        cols = rng.uniform(-3, w + 2, size=(9, 5))
        rows[0] = [-1.0, -0.5, h - 1.0, h, 2.0]
        cols[0] = [-1.0, w - 1.0, -0.5, w, 1.0]
        got = bilinear_sample(data, rows, cols)
        assert got.shape == (9, 5, 2)
        for i in range(9):
            for j in range(5):
                want = _bilinear_point(data, float(rows[i, j]),
                                       float(cols[i, j]))
                assert np.array_equal(got[i, j], want), (rows[i, j], cols[i, j])

    def test_weights_sum_the_last_sample_axis(self):
        rng = np.random.default_rng(41)
        h, w, c = 7, 5, 3
        data = rng.normal(size=(h, w, c))
        # about half the samples sit partly or wholly off the grid
        rows = rng.uniform(-4, h + 3, size=(6, 4, 5))
        cols = rng.uniform(-4, w + 3, size=(6, 4, 5))
        rows[0, 0] = [-1.0, -0.5, h - 0.5, h, 1e3]
        weights = rng.normal(size=rows.shape)
        got = bilinear_sample(data, rows, cols, weights=weights)
        want = np.sum(weights[..., None] * bilinear_sample(data, rows, cols),
                      axis=-2)
        assert got.shape == (6, 4, c)
        assert np.abs(got - want).max() < 1e-12

    def test_far_off_positions_read_zero_without_warning(self):
        data = np.ones((3, 4, 2))
        rows = np.array([1e300, -1e300, 1e19, 1.0])
        cols = np.array([1.0, 1.0, 1.0, -1e19])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflowing integer cast
            out = bilinear_sample(data, rows, cols)
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_mismatched_position_shapes_rejected(self):
        data = np.ones((3, 3, 1))
        with pytest.raises(ValueError, match="shape"):
            bilinear_sample(data, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="shape"):
            bilinear_sample(data, np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shape"):  # would broadcast
            bilinear_sample(data, np.zeros((2, 1)), np.zeros((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_rejected(self, bad):
        data = np.ones((3, 3, 1))
        good = np.array([0.5, 1.0])
        with pytest.raises(ValueError, match="NaN/Inf"):
            bilinear_sample(data, np.array([0.5, bad]), good)
        with pytest.raises(ValueError, match="NaN/Inf"):
            bilinear_sample(data, good, np.array([bad, 1.0]))

    def test_weights_shape_mismatch_rejected(self):
        data = np.ones((3, 3, 1))
        rows = np.zeros((2, 3))
        for weights in (np.ones(3), np.ones((3, 2)), np.ones((2, 3, 1))):
            with pytest.raises(ValueError, match="weights"):
                bilinear_sample(data, rows, rows, weights=weights)
        with pytest.raises(ValueError, match="weights"):
            bilinear_sample(data, np.array(1.0), np.array(1.0),
                            weights=np.array(1.0))


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

    def test_matches_naive_loop_on_mid_size_grid(self):
        rng = np.random.default_rng(43)
        p = DeformableFusionParams.from_seed(300, 8, heads=2, points=4,
                                             offset_scale=8.0)
        prev = FeatureGrid(rng.normal(size=(24, 20, 8)))
        curr = FeatureGrid(rng.normal(size=(24, 20, 8)))
        got = temporal_fuse(prev, curr, p).data
        want = naive_temporal_fuse(prev.data, curr.data, p)
        assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("h", [_TILE_ROWS - 11, _TILE_ROWS + 5])
    def test_tiles_match_naive_loop(self, h):
        # one short tile, and a last tile shorter than the others
        rng = np.random.default_rng(47 + h)
        p = DeformableFusionParams.from_seed(400 + h, 4, heads=2, points=3,
                                             offset_scale=8.0)
        prev = FeatureGrid(rng.normal(size=(h, 3, 4)))
        curr = FeatureGrid(rng.normal(size=(h, 3, 4)))
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


class TestRefineGrid:
    def test_masks_equal_combined_object_masks(self):
        # refine_grid raises each level's grid to every scope window in
        # place; that must equal combine_masks over the full-grid
        # object_mask of each member exactly. Image (3 levels) and BEV (5
        # levels) maps, centres on the border and in corners, a cluster of
        # same-level overlapping scopes, and levels without objects.
        rng = np.random.default_rng(47)
        c = 4
        empty_levels = 0
        for trial in range(24):
            kind, levels_n = (("image", 3), ("bev", 5))[trial % 2]
            maps = InjectedMaps.from_seed(500 + trial, 3 * c, levels_n)
            h, w = int(rng.integers(6, 30)), int(rng.integers(6, 30))
            centers = [(rng.uniform(0, h - 1), rng.uniform(0, w - 1))
                       for _ in range(int(rng.integers(0, 8)))]
            centers += [(0.0, rng.uniform(0, w - 1)), (h - 1.0, w - 1.0),
                        (rng.uniform(0, h - 1), 0.0), (0.0, 0.0)]
            priors = [ObjectPrior(rng.normal(size=3 * c), ctr, (2.0, 2.0))
                      for ctr in centers]
            r0, c0 = rng.uniform(0, h - 1), rng.uniform(0, w - 1)
            shared = rng.normal(size=3 * c)  # one level for the cluster
            priors += [ObjectPrior(shared, (min(r0 + dr, h - 1.0), c0),
                                   (2.0, 2.0)) for dr in (0.0, 0.4, 1.3)]
            grid = FeatureGrid(rng.normal(size=(h, w, c)), kind=kind)
            refined, levels, masks = refine_grid(grid, priors, maps)
            assert levels == [assign_scale_level(o, maps) for o in priors]
            want = []
            for level in range(levels_n):
                members = [object_mask(o, level, maps, (h, w))
                           for o, lv in zip(priors, levels) if lv == level]
                empty_levels += not members
                want.append(combine_masks(members, level, (h, w)))
            assert [m.level for m in masks] == list(range(levels_n))
            for got_mask, want_mask in zip(masks, want):
                assert np.array_equal(got_mask.data, want_mask.data)
            assert np.array_equal(
                refined.data,
                refine_features(grid, want, maps.kernel_sizes).data)
        assert empty_levels > 0

    def test_prior_off_grid_rejected(self):
        maps = make_maps()
        grid = FeatureGrid(np.zeros((16, 16, 4)))
        inside = ObjectPrior(np.zeros(12), (3.0, 3.0), (1.0, 1.0))
        outside = ObjectPrior(np.zeros(12), (3.0, 16.5), (1.0, 1.0))
        with pytest.raises(ValueError, match="outside 16x16 grid"):
            refine_grid(grid, [inside, outside], maps)


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


class TestTileAllocations:
    """On a 128 x 128 x 32 grid, refinement allocates little past its
    result and the fusion little past its result and its zero-bordered
    values: everything else spans one tile of rows. Peaks are counted in
    grids above the traced memory at the start of the call."""

    SHAPE = (128, 128, 32)

    def _peak_grids(self, call):
        call()  # imports and caches settle before the traced call
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result is not None
        return (peak - start) / (8 * math.prod(self.SHAPE))

    def test_refine_grid_peak(self):
        rng = np.random.default_rng(71)
        grid = FeatureGrid(rng.normal(size=self.SHAPE))
        maps = InjectedMaps.from_seed(72, 12, 5)
        priors = [random_prior(rng, 12, self.SHAPE[:2]) for _ in range(50)]
        assert self._peak_grids(
            lambda: refine_grid(grid, priors, maps)) <= 2.25

    def test_temporal_fuse_peak(self):
        rng = np.random.default_rng(73)
        prev = FeatureGrid(rng.normal(size=self.SHAPE))
        curr = FeatureGrid(rng.normal(size=self.SHAPE))
        p = DeformableFusionParams.from_seed(74, self.SHAPE[2])
        assert self._peak_grids(lambda: temporal_fuse(prev, curr, p)) <= 3.0
