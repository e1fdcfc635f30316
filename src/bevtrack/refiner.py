"""Object-masked feature refinement and deformable temporal fusion.

Posterior object information (embeddings + predicted pose) is turned into
per-scale-level attention masks that suppress responses away from objects,
then the masked features are smoothed and fused back with the original
grid (``refine_grid`` does this for one grid). A deformable-attention step
fuses the refined previous-frame grid into the current one.

The fusion projects values before sampling them, as multi-scale deformable
attention does, so each head samples C/heads channels instead of C.
Bilinear sampling with zero padding is linear in the grid, so it commutes
with the per-cell projection and the order changes only rounding. Each
head's values are projected once into the interior of a zero-bordered
grid. The sampling is one sparse operator of bilinear taps for all
heads, with each cell's attention weights folded in: it yields the
attention-weighted sum of the K sampled points per cell directly, and the
samples themselves are never stored.

The level masks of a grid are built in one L x H x W array: each object
raises its level's mask to its Gaussian only inside its scope's bounding
window. Max is exact, so this equals combining the full-grid object masks
bit for bit. Refinement and fusion run over tiles of ``_TILE_ROWS`` grid
rows. A smoothed branch reads its tile's masked rows from a zero-padded
window, repeats scipy's running sum along H and runs scipy's pass along
W, so it is bitwise ``uniform_filter`` of the masked grid. The fusion
forms a tile's offsets, attention, taps and output at a time. Past the
grids a call returns and the fusion's bordered values, nothing a call
allocates is larger than a tile plus the widest kernel.

Learned components are replaced by seeded injected linear maps and
ordinary normalized box convolutions: the artifact verifies the masking,
scoping, combination, and fusion arithmetic, not learned quality.

scipy loads on the first call that uses it: ``scipy.ndimage`` in
``refine_features`` and ``scipy.sparse`` where the tap operators are built.
``bevtrack.io`` and the CLI import this module for its configs, and jobs
which never refine (simulating, evaluating, tracking) do not load either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .geometry import (AtLeastOne, Count, NonNegative, Positive,
                       check_fields, typed)

# Grid rows in one tile of refine_features and temporal_fuse.
_TILE_ROWS = 16


@dataclass(frozen=True)
class RefinerGridConfig:
    """Per-level settings of one grid, indexed by level with 0 = smallest
    object class: the mask scope radius (cells) and the smoothing kernel
    size. Image grids use 3 levels and BEV grids 5 by default. Each rule's
    message starts with the field it breaks."""

    num_levels: AtLeastOne
    scope_radii: tuple[Positive, ...]
    kernel_sizes: tuple[int, ...]

    def __post_init__(self):
        check_fields(self)
        for name in ("scope_radii", "kernel_sizes"):
            n = len(getattr(self, name))
            if n != self.num_levels:
                raise ValueError(
                    f"{name}: {n} entries for {self.num_levels} levels")
        _check_kernel_sizes(self.kernel_sizes)


def _check_kernel_sizes(kernel_sizes: Sequence[int]) -> None:
    """The range rule of a smoothing kernel size: odd and >= 1. Raises
    ValueError naming the field."""
    if any(k < 1 or k % 2 == 0 for k in kernel_sizes):
        raise ValueError("kernel_sizes: each must be odd and >= 1")


DEFAULT_IMAGE_GRID = RefinerGridConfig(3, (2.0, 4.0, 8.0), (1, 3, 5))
DEFAULT_BEV_GRID = RefinerGridConfig(5, (2.0, 4.0, 8.0, 16.0, 24.0),
                                     (1, 3, 5, 7, 9))


@dataclass(frozen=True)
class RefinerConfig:
    """The settings of a run's image and BEV grids."""

    image: RefinerGridConfig = DEFAULT_IMAGE_GRID
    bev: RefinerGridConfig = DEFAULT_BEV_GRID

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class FeatureGrid:
    """Dense H x W x C feature map, image-like or BEV-like."""

    data: NDArray[np.float64]
    kind: str = "bev"

    def __post_init__(self):
        check_fields(self)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError("feature grid must be H x W x C with all dims >= 1")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature grid contains NaN/Inf")
        if self.kind not in ("image", "bev"):
            raise ValueError(f"unknown grid kind {self.kind!r}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class ObjectPrior:
    """One predicted object projected onto a grid: concatenated embedding,
    fractional center cell, and footprint extent in cells."""

    e_cat: NDArray[np.float64]
    center_cell: tuple[float, float]
    footprint: tuple[NonNegative, NonNegative]

    def __post_init__(self):
        check_fields(self)
        if self.e_cat.ndim != 1:
            raise ValueError("e_cat must be a vector")
        if not np.all(np.isfinite(self.e_cat)):
            raise ValueError("e_cat contains NaN/Inf")


@dataclass(frozen=True)
class FilterMask:
    """Per-level attention grid in [0, 1], zero outside object scopes."""

    level: Count
    data: NDArray[np.float64]

    def __post_init__(self):
        check_fields(self)
        if self.data.ndim != 2:
            raise ValueError("mask must be 2-D")
        if self.data.size and (self.data.min() < 0 or self.data.max() > 1):
            raise ValueError("mask values must lie in [0, 1]")


@dataclass(frozen=True)
class InjectedMaps(RefinerGridConfig):
    """A grid's level settings plus seeded stand-ins for the learned level
    classifier and weight head.

    level_matrix (L x 3C) maps e_cat to level scores (argmax = level);
    weight_vector (3C) maps e_cat through a sigmoid to the mask peak
    amplitude. Both are reproducible from the seed.
    """

    level_matrix: NDArray[np.float64]
    weight_vector: NDArray[np.float64]

    def __post_init__(self):
        super().__post_init__()  # check_fields, then the grid rules
        if self.level_matrix.shape[0] != self.num_levels:
            raise ValueError("level_matrix must have one row per level")

    @classmethod
    def from_seed(cls, seed: int, embed_dim: int, num_levels: int,
                  scope_radii: Sequence[float] | None = None,
                  kernel_sizes: Sequence[int] | None = None) -> "InjectedMaps":
        """Draw level_matrix then weight_vector from one seeded generator.
        Settings left out come from the default grid with num_levels
        levels."""
        embed_dim = typed(embed_dim, AtLeastOne, ("embed_dim",))
        num_levels = typed(num_levels, AtLeastOne, ("num_levels",))
        default = {g.num_levels: g for g in (DEFAULT_IMAGE_GRID,
                                              DEFAULT_BEV_GRID)}.get(num_levels)
        if default is None and (scope_radii is None or kernel_sizes is None):
            raise ValueError(f"no default grid settings for L={num_levels}")
        radii = default.scope_radii if scope_radii is None else scope_radii
        kernels = default.kernel_sizes if kernel_sizes is None else kernel_sizes
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(embed_dim)
        level_matrix = rng.normal(0.0, scale, size=(num_levels, embed_dim))
        weight_vector = rng.normal(0.0, scale, size=embed_dim)
        return cls(num_levels=num_levels, level_matrix=level_matrix,
                   weight_vector=weight_vector, scope_radii=tuple(radii),
                   kernel_sizes=tuple(kernels))


def assign_scale_level(o: ObjectPrior, maps: InjectedMaps) -> int:
    """argmax of the injected level map; ties resolve to the lowest index."""
    scores = maps.level_matrix @ o.e_cat
    return int(np.argmax(scores))


def peak_amplitude(o: ObjectPrior, maps: InjectedMaps) -> float:
    """Mask peak in [0, 1]: sigmoid of the injected weight map output."""
    return float(1.0 / (1.0 + np.exp(-maps.weight_vector @ o.e_cat)))


def _scope_window(o: ObjectPrior, level: int, maps: InjectedMaps,
                  grid_shape: tuple[int, int],
                  ) -> tuple[tuple[slice, slice], np.ndarray]:
    """The bounding window of o's scope at level and the mask values in it.

    Returns (slices, window): the window as row and column slices of the
    grid, and the Gaussian weights there, hard-zeroed outside the scope.
    Every cell outside the window is zero in the mask. Raises ValueError
    for a centre off the grid.
    """
    h, w = grid_shape
    r0, c0 = o.center_cell
    if not (0 <= r0 <= h - 1 and 0 <= c0 <= w - 1):
        raise ValueError(f"object center {o.center_cell} outside {h}x{w} grid")
    radius = maps.scope_radii[level]
    sigma = radius / 3.0
    amp = peak_amplitude(o, maps)
    # One spare cell on each side keeps the rounding of r0 +- radius from
    # dropping a boundary cell, so every cell left out has d2 > radius^2 by
    # more than a cell.
    top = max(math.ceil(r0 - radius) - 1, 0)
    bottom = min(math.floor(r0 + radius) + 1, h - 1)
    left = max(math.ceil(c0 - radius) - 1, 0)
    right = min(math.floor(c0 + radius) + 1, w - 1)
    rr = np.arange(top, bottom + 1, dtype=np.float64)[:, None]
    cc = np.arange(left, right + 1, dtype=np.float64)[None, :]
    d2 = (rr - r0) ** 2 + (cc - c0) ** 2
    window = amp * np.exp(-d2 / (2.0 * sigma * sigma))
    window[d2 > radius * radius] = 0.0
    return (slice(top, bottom + 1), slice(left, right + 1)), window


def object_mask(o: ObjectPrior, level: int, maps: InjectedMaps,
                grid_shape: tuple[int, int]) -> FilterMask:
    """Isotropic Gaussian weight mask, hard-zeroed outside the level scope.

    sigma is scope_radius / 3, so the scope boundary sits at three sigma.
    """
    slices, window = _scope_window(o, level, maps, grid_shape)
    data = np.zeros(grid_shape)
    data[slices] = window
    return FilterMask(level=level, data=data)


def combine_masks(masks: Sequence[FilterMask], level: int,
                  grid_shape: tuple[int, int] | None = None) -> FilterMask:
    """Element-wise maximum of same-level masks (max keeps [0,1] closure
    and preserves per-object peaks)."""
    if not masks:
        if grid_shape is None:
            raise ValueError("grid_shape required to combine an empty mask list")
        return FilterMask(level=level, data=np.zeros(grid_shape))
    shape = masks[0].data.shape
    for m in masks:
        if m.level != level:
            raise ValueError("combine_masks received a mask of another level")
        if m.data.shape != shape:
            raise ValueError("masks must share one grid shape")
    return FilterMask(level=level, data=np.maximum.reduce([m.data for m in masks]))


def refine_features(f: FeatureGrid, masks: Sequence[FilterMask],
                    kernel_sizes: Sequence[int]) -> FeatureGrid:
    """Mask, smooth, and fuse: mean of the original grid and every level
    branch that carries any mask weight.

    Each branch is M_l * F smoothed by the level's normalized box kernel,
    bitwise ``uniform_filter`` of the masked H x W x C grid. All-zero masks
    contribute no branch, so an object-free grid passes through unchanged
    (residual path). Kernel sizes follow ``RefinerGridConfig``'s rule.

    The result is built one tile of ``_TILE_ROWS`` rows at a time, on the
    grid read as its H x C x W transpose; the rows a tile's windows reach
    are copied out of that view once per tile. A branch of kernel k > 1
    fills the shared window with the masked rows top - k//2 - 1 to
    stop + k//2 - 1, zero off the grid, as scipy pads a line, and runs
    scipy's pass along H over it: its running sum, the one state kept
    between tiles, adds in[hi] - in[lo] per output row and is divided by k.
    scipy's ``uniform_filter1d`` runs the pass along W. A k = 1 branch is
    the product alone.
    """
    h, w, c = f.shape
    kernel_sizes = typed(kernel_sizes, tuple[int, ...], ("kernel_sizes",))
    _check_kernel_sizes(kernel_sizes)
    if len(kernel_sizes) != len(masks):
        raise ValueError("need one kernel size per mask level")
    for mask in masks:
        if mask.data.shape != (h, w):
            raise ValueError(
                f"mask shape {mask.data.shape} does not match grid {(h, w)}")
        if mask.level >= len(kernel_sizes):
            raise ValueError(f"mask level {mask.level} has no kernel size "
                             f"(levels 0..{len(kernel_sizes) - 1})")
    from scipy.ndimage import uniform_filter1d

    rows = f.data.transpose(0, 2, 1)
    # (mask, k, running sum of the pass along H) per branch with weight
    branches = [(m.data, kernel_sizes[m.level], np.zeros((c, w)))
                for m in masks if m.data.any()]
    # Adding each branch to the tile in turn sums in the same order as
    # np.mean over the stacked branches, so the result is bitwise the same
    # without holding every branch at once (np.mean starts from +0.0, so
    # where every branch is -0.0 it gives +0.0 and this sum -0.0).
    count = 1 + len(branches)
    out = np.empty((h, w, c))
    tile = min(_TILE_ROWS, h)
    total_buf = np.empty((tile, c, w))
    branch_buf = np.empty((tile, c, w))
    # rows the widest window reaches above its tile (one fewer below)
    reach = max((k for _, k, _ in branches), default=1) // 2 + 1
    window_buf = np.empty((tile + 2 * reach - 1, c, w))
    block_buf = np.empty_like(window_buf)
    for top in range(0, h, tile):
        part = slice(top, min(top + tile, h))
        n = part.stop - top
        total, branch = total_buf[:n], branch_buf[:n]
        # the grid rows the tile's windows read, out of the strided view
        start = max(top - reach, 0)
        block = block_buf[:min(part.stop + reach - 1, h) - start]
        np.copyto(block, rows[start:start + len(block)])
        own = block[top - start:top - start + n]
        np.copyto(total, own)
        for data, k, acc in branches:
            if k == 1:
                total += np.multiply(data[part, None, :], own, out=branch)
                continue
            # normalized k x k box convolution, zero padded
            first = top - k // 2 - 1
            window = window_buf[:n + k]
            lo, hi = max(first, 0), min(first + n + k, h)
            window[:lo - first] = 0.0
            np.multiply(data[lo:hi, None, :], block[lo - start:hi - start],
                        out=window[lo - first:hi - first])
            window[hi - first:] = 0.0
            if top == 0:
                for j in range(k):
                    acc += window[j]
            np.subtract(window[k:], window[:n], out=branch)
            for r in range(n):
                acc += branch[r]
                np.divide(acc, k, out=branch[r])
            # scipy copies each line out before it writes it back, so the
            # W pass may run in place
            total += uniform_filter1d(branch, k, axis=2, output=branch,
                                      mode="constant", cval=0.0)
        np.divide(total, count, out=out[part].transpose(0, 2, 1))
    return FeatureGrid(out, kind=f.kind)


@dataclass(frozen=True)
class DeformableFusionParams:
    """Injected weights for the deformable temporal fusion.

    heads * (C / heads) value projections w_value (H, C_v, C) and output
    projections w_out (H, C, C_v); offset and attention generators are
    linear maps over the concatenated (prev, curr) features.
    """

    heads: AtLeastOne
    points: AtLeastOne
    w_value: NDArray[np.float64]
    w_out: NDArray[np.float64]
    w_offset: NDArray[np.float64]
    w_attention: NDArray[np.float64]

    def __post_init__(self):
        check_fields(self)
        hh, kk = self.heads, self.points
        c_v, c = self.w_value.shape[1], self.w_value.shape[2]
        if c % hh != 0 or c_v != c // hh:
            raise ValueError("channels must divide evenly across heads")
        if self.w_value.shape != (hh, c_v, c) or self.w_out.shape != (hh, c, c_v):
            raise ValueError("value/output projection shapes inconsistent")
        if self.w_offset.shape != (hh, kk, 2, 2 * c):
            raise ValueError("offset generator must map 2C features to HxKx2")
        if self.w_attention.shape != (hh, kk, 2 * c):
            raise ValueError("attention generator must map 2C features to HxK")

    @property
    def channels(self) -> int:
        return self.w_value.shape[2]

    @classmethod
    def from_seed(cls, seed: int, channels: int, heads: int = 2,
                  points: int = 4, offset_scale: float = 1.0) -> "DeformableFusionParams":
        """Draw w_value, w_out, w_offset, w_attention in that order."""
        channels = typed(channels, AtLeastOne, ("channels",))
        heads = typed(heads, AtLeastOne, ("heads",))
        points = typed(points, AtLeastOne, ("points",))
        offset_scale = typed(offset_scale, NonNegative, ("offset_scale",))
        # the draws divide by C / heads before the constructor's shape rule
        if channels % heads != 0:
            raise ValueError("channels must be divisible by heads")
        c_v = channels // heads
        rng = np.random.default_rng(seed)
        w_value = rng.normal(0.0, 1.0 / math.sqrt(channels),
                             size=(heads, c_v, channels))
        w_out = rng.normal(0.0, 1.0 / math.sqrt(c_v),
                           size=(heads, channels, c_v))
        w_offset = rng.normal(0.0, offset_scale / math.sqrt(2 * channels),
                              size=(heads, points, 2, 2 * channels))
        w_attention = rng.normal(0.0, 1.0 / math.sqrt(2 * channels),
                                 size=(heads, points, 2 * channels))
        return cls(heads=heads, points=points, w_value=w_value, w_out=w_out,
                   w_offset=w_offset, w_attention=w_attention)


def _bilinear_taps(h: int, w: int, rows: np.ndarray, cols: np.ndarray,
                   index_dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear taps of fractional cells on an H x W grid with a zero border.

    Returns (flat_index, weight), each of shape S + (4,) for positions of
    shape S: corners (r0, c0), (r0, c0+1), (r0+1, c0), (r0+1, c0+1), and
    their flat indices (of index_dtype) into the (H+2) x (W+2)
    zero-bordered grid. Each corner index is clipped to [-1, H] / [-1, W]
    after its +0/+1 offset and then shifted into the border, so a corner
    off the grid lands on a zero cell.
    """
    r0 = np.floor(rows)
    c0 = np.floor(cols)
    fr = rows - r0
    fc = cols - c0
    # Clipping to one cell beyond the border first changes no corner and
    # keeps far-off positions inside the integer range. After it r0 lies
    # in [-2, H], so r0 clipped to [-1, H] needs only the max and r0 + 1
    # only the min (and likewise for c0); +1 shifts each into the border.
    r0 = np.minimum(np.maximum(r0, -2, out=r0), h, out=r0).astype(index_dtype)
    c0 = np.minimum(np.maximum(c0, -2, out=c0), w, out=c0).astype(index_dtype)
    row_lo = (np.maximum(r0, -1) + 1) * (w + 2)
    row_hi = np.minimum(r0 + 2, h + 1) * (w + 2)
    col_lo = np.maximum(c0, -1) + 1
    col_hi = np.minimum(c0 + 2, w + 1)
    flat_index = np.empty(rows.shape + (4,), dtype=index_dtype)
    np.add(row_lo, col_lo, out=flat_index[..., 0])
    np.add(row_lo, col_hi, out=flat_index[..., 1])
    np.add(row_hi, col_lo, out=flat_index[..., 2])
    np.add(row_hi, col_hi, out=flat_index[..., 3])
    gr = 1 - fr
    gc = 1 - fc
    weight = np.empty(rows.shape + (4,))
    np.multiply(gr, gc, out=weight[..., 0])
    np.multiply(gr, fc, out=weight[..., 1])
    np.multiply(fr, gc, out=weight[..., 2])
    np.multiply(fr, fc, out=weight[..., 3])
    return flat_index, weight


def _tap_layout(h: int, w: int, n_out: int, blocks: int,
                points: int) -> tuple[type, np.ndarray]:
    """The index type and row pointers of every tap operator of up to
    n_out positions with ``points`` samples per row on each of ``blocks``
    stacked (H+2) x (W+2) zero-bordered grids.

    The index type is the narrowest that holds every column and tap, so
    the sparse matrix takes the taps without a copy; an operator of fewer
    positions takes a prefix of the row pointers.
    """
    from scipy.sparse import get_index_dtype

    per_row, n_rows = 4 * points, n_out * blocks
    index_dtype = get_index_dtype(
        maxval=max(blocks * (h + 2) * (w + 2), per_row * n_rows))
    return index_dtype, np.arange(n_rows + 1, dtype=index_dtype) * per_row


def _tap_operator(h: int, w: int, rows: np.ndarray, cols: np.ndarray,
                  weights: np.ndarray, index_dtype: type,
                  indptr: np.ndarray):
    """The weighted bilinear taps of fractional cells as one sparse
    operator on B stacked, flattened (H+2) x (W+2) zero-bordered grids.

    rows, cols and weights share one shape (N, B, K), and index_dtype and
    indptr come from ``_tap_layout`` for at least N positions of B blocks.
    Operator row (n, b) holds the K samples of block b at n, each tap on
    block b's grid, with its weight folded in, so the operator forms the
    weighted sum without storing the samples. A row sums its taps sample
    by sample, four corners each in order. Its product with the blocks'
    values stacked as (B (H+2)(W+2), C) is (N B, C), with the B blocks of
    an n side by side when read as (N, B C).
    """
    from scipy.sparse import csr_matrix

    n_cells = (h + 2) * (w + 2)
    n_out, blocks, _ = rows.shape
    flat_index, tap_weight = _bilinear_taps(h, w, rows, cols, index_dtype)
    flat_index += (np.arange(blocks, dtype=index_dtype)
                   * n_cells)[:, None, None]
    tap_weight *= weights[..., None]
    return csr_matrix(
        (tap_weight.ravel(), flat_index.ravel(),
         indptr[:n_out * blocks + 1]),
        shape=(n_out * blocks, blocks * n_cells))


def bilinear_sample(data: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    weights: np.ndarray | None = None) -> np.ndarray:
    """Bilinear interpolation of an H x W x C grid at fractional cells.

    Samples outside the grid read as zero. rows/cols may have any common
    shape S; the result has shape S + (C,). With ``weights`` (shape S), the
    samples along the last axis of S are summed with those weights instead,
    and the result has shape S[:-1] + (C,).

    The taps form one sparse matrix (``_tap_operator``) applied to the grid
    copied into a zero border one cell wide. Without weights each sample is
    a sum of one point with weight 1, which is the sample exactly.
    """
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    if rows.shape != cols.shape:
        raise ValueError(
            f"rows shape {rows.shape} does not match cols shape {cols.shape}")
    if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
        raise ValueError("sample positions contain NaN/Inf")
    if weights is None:
        rows, cols = rows[..., None], cols[..., None]
        weights = np.ones(rows.shape)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if rows.ndim == 0 or weights.shape != rows.shape:
            raise ValueError(f"weights shape {weights.shape} must equal the "
                             f"sample shape {rows.shape} (at least 1-D)")
    h, w, c = data.shape
    n_out, points = math.prod(rows.shape[:-1]), rows.shape[-1]
    one_block = (n_out, 1, points)
    taps = _tap_operator(h, w, rows.reshape(one_block),
                         cols.reshape(one_block), weights.reshape(one_block),
                         *_tap_layout(h, w, n_out, 1, points))
    padded = np.zeros((h + 2, w + 2, c))
    padded[1:-1, 1:-1] = data
    return (taps @ padded.reshape(-1, c)).reshape(rows.shape[:-1] + (c,))


def temporal_fuse(prev_refined: FeatureGrid, curr: FeatureGrid,
                  p: DeformableFusionParams) -> FeatureGrid:
    """Deformable-attention fusion of the refined previous grid into the
    current one.

    Offsets and attention logits come from the concatenated (prev, curr)
    features at each cell; per head the attention over the K sampled
    points is softmax-normalized, samples are bilinear reads of the
    current grid with zero padding, and the head outputs are projected and
    summed.

    Values are projected before they are sampled: each head's value
    projection is one product over the current grid, written into the
    interior of that head's zero-bordered grid, and each head then samples
    its C/heads value channels instead of all C input channels. Bilinear
    sampling is a fixed linear combination of grid cells (zero padding
    included), so it commutes with the per-cell value projection, and the
    result equals sampling first and projecting after up to rounding.

    The rest runs one tile of ``_TILE_ROWS`` grid rows at a time. The
    generators are split into their prev and curr halves, so a tile's
    offsets and logits are prev @ W_prev + curr @ W_curr over its cells
    and the (H, W, 2C) concatenation is never built. The heads' bordered
    grids are stacked, and one sampling operator per tile
    (``_tap_operator``) holds every head's taps on its own grid, in
    (cell, head) rows, with the attention over the K points folded in, so
    the K samples per cell are never stored. Its product holds the heads'
    sampled values side by side, so the output projection is one product
    per tile, written into the result's rows.
    """
    if prev_refined.shape != curr.shape:
        raise ValueError("grids must share one shape")
    if curr.shape[2] != p.channels:
        raise ValueError("params channel count does not match the grids")
    h, w, c = curr.shape
    heads, points = p.heads, p.points
    c_v = c // heads
    x_prev = prev_refined.data.reshape(h * w, c)
    x_curr = curr.data.reshape(h * w, c)

    values = np.zeros((heads, h + 2, w + 2, c_v))
    for head in range(heads):
        np.matmul(curr.data, p.w_value[head].T, out=values[head, 1:-1, 1:-1])
    values = values.reshape(-1, c_v)
    # one generator row per (head, point, row/col offset), then one per
    # (head, point) logit
    w_gen = np.concatenate([p.w_offset.reshape(-1, 2 * c),
                            p.w_attention.reshape(-1, 2 * c)])
    n_off = heads * points * 2
    w_out = p.w_out.transpose(0, 2, 1).reshape(heads * c_v, c)
    fused = np.empty((h * w, c))
    tile = min(_TILE_ROWS, h) * w
    layout = _tap_layout(h, w, tile, heads, points)
    cc = np.tile(np.arange(w, dtype=np.float64), tile // w)[:, None, None]
    for start in range(0, h * w, tile):
        cells = slice(start, min(start + tile, h * w))
        m = cells.stop - start
        gen = x_prev[cells] @ w_gen[:, :c].T
        gen += x_curr[cells] @ w_gen[:, c:].T
        offsets = gen[:, :n_off].reshape(m, heads, points, 2)
        logits = gen[:, n_off:].reshape(m, heads, points)
        # softmax over the K points with explicit K-term max and sum:
        # numpy's reductions over a short axis cost more than K - 1
        # elementwise steps
        top = logits[..., 0].copy()
        for k in range(1, points):
            np.maximum(top, logits[..., k], out=top)
        att = logits - top[..., None]
        np.exp(att, out=att)
        total = att[..., 0].copy()
        for k in range(1, points):
            total += att[..., k]
        att /= total[..., None]

        rr = np.repeat(np.arange(start // w, cells.stop // w,
                                 dtype=np.float64), w)[:, None, None]
        taps = _tap_operator(h, w, rr + offsets[..., 0],
                             cc[:m] + offsets[..., 1], att, *layout)
        np.matmul((taps @ values).reshape(m, heads * c_v), w_out,
                  out=fused[cells])
    return FeatureGrid(fused.reshape(h, w, c), kind=curr.kind)


def refine_grid(grid: FeatureGrid, priors: Sequence[ObjectPrior],
                maps: InjectedMaps,
                ) -> tuple[FeatureGrid, list[int], list[FilterMask]]:
    """Refine one grid: assign each prior a scale level, build its mask,
    combine the masks per level, and refine the grid with them.

    Returns the refined grid, the per-prior levels, and the combined mask
    of every level. Raises ValueError for a prior centred off the grid.
    """
    shape = grid.shape[:2]
    levels = [assign_scale_level(o, maps) for o in priors]
    # Max is exact, so raising each level's grid to every scope window in
    # place equals combine_masks over the full-grid object masks bit for
    # bit, without a full grid per object.
    combined = np.zeros((maps.num_levels,) + shape)
    for o, level in zip(priors, levels):
        slices, window = _scope_window(o, level, maps, shape)
        region = combined[level][slices]
        np.maximum(region, window, out=region)
    masks = [FilterMask(level, combined[level])
             for level in range(maps.num_levels)]
    return refine_features(grid, masks, maps.kernel_sizes), levels, masks


def backward_refine(f_img: FeatureGrid, f_bev: FeatureGrid,
                    objects: Sequence[tuple[ObjectPrior, ObjectPrior]],
                    img_maps: InjectedMaps, bev_maps: InjectedMaps,
                    ) -> tuple[FeatureGrid, FeatureGrid, list[int]]:
    """Full refinement pass over both grids.

    objects pairs each object's image-grid prior with its BEV-grid prior.
    Returns the refined grids and the per-object BEV scale levels, which
    downstream association consumes.
    """
    refined_img, _, _ = refine_grid(f_img, [pair[0] for pair in objects],
                                    img_maps)
    refined_bev, bev_levels, _ = refine_grid(
        f_bev, [pair[1] for pair in objects], bev_maps)
    return refined_img, refined_bev, bev_levels
