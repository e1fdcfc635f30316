"""Object-masked feature refinement and deformable temporal fusion.

Posterior object information (embeddings + predicted pose) is turned into
per-scale-level attention masks that suppress responses away from objects,
then the masked features are smoothed and fused back with the original
grid (``refine_grid`` does this for one grid). A deformable-attention step
fuses the refined previous-frame grid into the current one.

The fusion projects values before sampling them, as multi-scale deformable
attention does, so each head samples C/heads channels instead of C.
Bilinear sampling with zero padding is linear in the grid, so it commutes
with the per-cell projection and the order changes only rounding.

Learned components are replaced by seeded injected linear maps and
ordinary normalized box convolutions: the artifact verifies the masking,
scoping, combination, and fusion arithmetic, not learned quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.ndimage import uniform_filter

# Per-level mask scope radii (cells) and smoothing kernel sizes, indexed by
# level with 0 = smallest object class. Image grids use 3 levels, BEV grids
# 5 (kernel sets {5,3,1} and {9,7,5,3,1}, largest level gets the largest
# kernel).
DEFAULT_SCOPE_RADII = {3: (2.0, 4.0, 8.0), 5: (2.0, 4.0, 8.0, 16.0, 24.0)}
DEFAULT_KERNEL_SIZES = {3: (1, 3, 5), 5: (1, 3, 5, 7, 9)}


@dataclass(frozen=True)
class FeatureGrid:
    """Dense H x W x C feature map, image-like or BEV-like."""

    data: np.ndarray
    kind: str = "bev"

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
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

    e_cat: np.ndarray
    center_cell: tuple[float, float]
    footprint: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "e_cat", np.asarray(self.e_cat, dtype=np.float64))
        if self.e_cat.ndim != 1:
            raise ValueError("e_cat must be a vector")
        if not np.all(np.isfinite(self.e_cat)):
            raise ValueError("e_cat contains NaN/Inf")
        if min(self.footprint) < 0:
            raise ValueError("footprint extents must be non-negative")


@dataclass(frozen=True)
class FilterMask:
    """Per-level attention grid in [0, 1], zero outside object scopes."""

    level: int
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 2:
            raise ValueError("mask must be 2-D")
        if self.data.size and (self.data.min() < 0 or self.data.max() > 1):
            raise ValueError("mask values must lie in [0, 1]")


@dataclass(frozen=True)
class InjectedMaps:
    """Seeded stand-ins for the learned level classifier and weight head.

    level_matrix (L x 3C) maps e_cat to level scores (argmax = level);
    weight_vector (3C) maps e_cat through a sigmoid to the mask peak
    amplitude. Both are reproducible from the seed.
    """

    num_levels: int
    level_matrix: np.ndarray
    weight_vector: np.ndarray
    scope_radii: tuple[float, ...]
    kernel_sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "level_matrix",
                           np.asarray(self.level_matrix, dtype=np.float64))
        object.__setattr__(self, "weight_vector",
                           np.asarray(self.weight_vector, dtype=np.float64))
        if self.level_matrix.shape[0] != self.num_levels:
            raise ValueError("level_matrix must have one row per level")
        if len(self.scope_radii) != self.num_levels:
            raise ValueError("need one scope radius per level")
        if len(self.kernel_sizes) != self.num_levels:
            raise ValueError("need one kernel size per level")
        if any(k < 1 or k % 2 == 0 for k in self.kernel_sizes):
            raise ValueError("kernel sizes must be odd and >= 1")

    @classmethod
    def from_seed(cls, seed: int, embed_dim: int, num_levels: int,
                  scope_radii: Sequence[float] | None = None,
                  kernel_sizes: Sequence[int] | None = None) -> "InjectedMaps":
        """Draw level_matrix then weight_vector from one seeded generator."""
        if scope_radii is None:
            if num_levels not in DEFAULT_SCOPE_RADII:
                raise ValueError(f"no default scope radii for L={num_levels}")
            scope_radii = DEFAULT_SCOPE_RADII[num_levels]
        if kernel_sizes is None:
            if num_levels not in DEFAULT_KERNEL_SIZES:
                raise ValueError(f"no default kernel sizes for L={num_levels}")
            kernel_sizes = DEFAULT_KERNEL_SIZES[num_levels]
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(embed_dim)
        level_matrix = rng.normal(0.0, scale, size=(num_levels, embed_dim))
        weight_vector = rng.normal(0.0, scale, size=embed_dim)
        return cls(num_levels=num_levels, level_matrix=level_matrix,
                   weight_vector=weight_vector,
                   scope_radii=tuple(float(r) for r in scope_radii),
                   kernel_sizes=tuple(int(k) for k in kernel_sizes),
                   seed=seed)


def assign_scale_level(o: ObjectPrior, maps: InjectedMaps) -> int:
    """argmax of the injected level map; ties resolve to the lowest index."""
    scores = maps.level_matrix @ o.e_cat
    return int(np.argmax(scores))


def peak_amplitude(o: ObjectPrior, maps: InjectedMaps) -> float:
    """Mask peak in [0, 1]: sigmoid of the injected weight map output."""
    return float(1.0 / (1.0 + np.exp(-maps.weight_vector @ o.e_cat)))


def object_mask(o: ObjectPrior, level: int, maps: InjectedMaps,
                grid_shape: tuple[int, int]) -> FilterMask:
    """Isotropic Gaussian weight mask, hard-zeroed outside the level scope.

    sigma is scope_radius / 3, so the scope boundary sits at three sigma.
    """
    h, w = grid_shape
    r0, c0 = o.center_cell
    if not (0 <= r0 <= h - 1 and 0 <= c0 <= w - 1):
        raise ValueError(f"object center {o.center_cell} outside {h}x{w} grid")
    radius = maps.scope_radii[level]
    sigma = radius / 3.0
    amp = peak_amplitude(o, maps)
    # Only the scope's bounding window can be non-zero. One spare cell on
    # each side keeps the rounding of r0 +- radius from dropping a boundary
    # cell, so every cell left out has d2 > radius^2 by more than a cell.
    top = max(math.ceil(r0 - radius) - 1, 0)
    bottom = min(math.floor(r0 + radius) + 1, h - 1)
    left = max(math.ceil(c0 - radius) - 1, 0)
    right = min(math.floor(c0 + radius) + 1, w - 1)
    rr = np.arange(top, bottom + 1, dtype=np.float64)[:, None]
    cc = np.arange(left, right + 1, dtype=np.float64)[None, :]
    d2 = (rr - r0) ** 2 + (cc - c0) ** 2
    window = amp * np.exp(-d2 / (2.0 * sigma * sigma))
    window[d2 > radius * radius] = 0.0
    data = np.zeros((h, w))
    data[top:bottom + 1, left:right + 1] = window
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


def _box_smooth(data: np.ndarray, k: int) -> np.ndarray:
    """Normalized k x k box convolution per channel, zero padded."""
    if k == 1:
        return data
    return uniform_filter(data, size=(k, k, 1), mode="constant", cval=0.0)


def refine_features(f: FeatureGrid, masks: Sequence[FilterMask],
                    kernel_sizes: Sequence[int] | None = None) -> FeatureGrid:
    """Mask, smooth, and fuse: mean of the original grid and every level
    branch that carries any mask weight.

    Each branch is M_l * F smoothed by the level's normalized box kernel.
    All-zero masks contribute no branch, so an object-free grid passes
    through unchanged (residual path).
    """
    h, w, _ = f.shape
    if kernel_sizes is None:
        kernel_sizes = DEFAULT_KERNEL_SIZES.get(len(masks))
        if kernel_sizes is None:
            raise ValueError(f"no default kernel sizes for L={len(masks)}")
    if len(kernel_sizes) != len(masks):
        raise ValueError("need one kernel size per mask level")
    # A running sum adds the branches in the same order as np.mean over
    # the stacked branches, so the result is bitwise the same without
    # holding every branch at once.
    total = f.data.copy()
    count = 1
    for mask in masks:
        if mask.data.shape != (h, w):
            raise ValueError(
                f"mask shape {mask.data.shape} does not match grid {(h, w)}")
        if not mask.data.any():
            continue
        masked = mask.data[:, :, None] * f.data
        total += _box_smooth(masked, int(kernel_sizes[mask.level]))
        count += 1
    total /= count
    return FeatureGrid(total, kind=f.kind)


@dataclass(frozen=True)
class DeformableFusionParams:
    """Injected weights for the deformable temporal fusion.

    heads * (C / heads) value projections w_value (H, C_v, C) and output
    projections w_out (H, C, C_v); offset and attention generators are
    linear maps over the concatenated (prev, curr) features.
    """

    heads: int
    points: int
    w_value: np.ndarray
    w_out: np.ndarray
    w_offset: np.ndarray
    w_attention: np.ndarray
    seed: int = 0

    def __post_init__(self):
        for name in ("w_value", "w_out", "w_offset", "w_attention"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
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
                   w_offset=w_offset, w_attention=w_attention, seed=seed)


def bilinear_sample(data: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of an H x W x C grid at fractional cells.

    Samples outside the grid read as zero. rows/cols may have any common
    shape S; the result has shape S + (C,).

    The grid is copied into a zero border one cell wide. Each corner index
    is clipped to [-1, H] / [-1, W] after its +0/+1 offset and then shifted
    into the padded grid, so a corner off the grid reads an exact zero and
    all four corners come from one gather.
    """
    h, w, c = data.shape
    padded = np.zeros((h + 2, w + 2, c))
    padded[1:-1, 1:-1] = data
    r0 = np.floor(rows)
    c0 = np.floor(cols)
    fr = rows - r0
    fc = cols - c0
    r0 = r0.astype(np.int64)
    c0 = c0.astype(np.int64)
    row_lo = (np.clip(r0, -1, h) + 1) * (w + 2)
    row_hi = (np.clip(r0 + 1, -1, h) + 1) * (w + 2)
    col_lo = np.clip(c0, -1, w) + 1
    col_hi = np.clip(c0 + 1, -1, w) + 1
    flat_index = np.stack([row_lo + col_lo, row_lo + col_hi,
                           row_hi + col_lo, row_hi + col_hi])
    corners = padded.reshape(-1, c).take(flat_index, axis=0)  # (4,) + S + (C,)
    corners *= np.stack([(1 - fr) * (1 - fc), (1 - fr) * fc,
                         fr * (1 - fc), fr * fc])[..., None]
    out = corners[0] + corners[1]
    out += corners[2]
    out += corners[3]
    return out


def temporal_fuse(prev_refined: FeatureGrid, curr: FeatureGrid,
                  p: DeformableFusionParams) -> FeatureGrid:
    """Deformable-attention fusion of the refined previous grid into the
    current one.

    Offsets and attention logits come from the concatenated (prev, curr)
    features at each cell; per head the attention over the K sampled
    points is softmax-normalized, samples are bilinear reads of the
    current grid with zero padding, and the head outputs are projected and
    summed.

    Values are projected before they are sampled: each head's w_value is
    applied to the whole current grid once, and the head then samples its
    C/heads value channels instead of all C input channels. Bilinear
    sampling is a fixed linear combination of grid cells (zero padding
    included), so it commutes with the per-cell value projection, and the
    result equals sampling first and projecting after up to rounding.
    """
    if prev_refined.shape != curr.shape:
        raise ValueError("grids must share one shape")
    if curr.shape[2] != p.channels:
        raise ValueError("params channel count does not match the grids")
    h, w, c = curr.shape

    cat = np.concatenate([prev_refined.data, curr.data], axis=2)
    offsets = np.einsum("hkdc,ijc->ijhkd", p.w_offset, cat, optimize=True)
    logits = np.einsum("hkc,ijc->ijhk", p.w_attention, cat, optimize=True)
    logits -= logits.max(axis=3, keepdims=True)
    att = np.exp(logits)
    att /= att.sum(axis=3, keepdims=True)

    values = np.einsum("hvc,ijc->hijv", p.w_value, curr.data, optimize=True)
    rr = np.arange(h, dtype=np.float64)[:, None, None]
    cc = np.arange(w, dtype=np.float64)[None, :, None]
    fused = np.zeros((h, w, c))
    for head in range(p.heads):
        sampled = bilinear_sample(values[head],
                                  rr + offsets[:, :, head, :, 0],
                                  cc + offsets[:, :, head, :, 1])  # (H,W,K,C_v)
        per_head = np.einsum("ijk,ijkv->ijv", att[:, :, head], sampled)
        fused += per_head @ p.w_out[head].T
    return FeatureGrid(fused, kind=curr.kind)


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
    masks = []
    for level in range(maps.num_levels):
        members = [object_mask(o, level, maps, shape)
                   for o, lv in zip(priors, levels) if lv == level]
        masks.append(combine_masks(members, level, shape))
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
