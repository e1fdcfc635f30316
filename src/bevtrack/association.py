"""Appearance similarity and gated optimal assignment.

Each object carries three appearance embeddings (image ROI, BEV, detection
head). Pairwise similarity is the weighted sum of the three cosine
similarities; the negated similarity matrix feeds a minimum-cost bipartite
assignment with a similarity gate.

``solve_assignment`` imports scipy's solver on its first call, so that jobs
which never assign (refining, simulating, evaluating) do not load
``scipy.optimize`` and the ``scipy.linalg`` and ``scipy.special`` it pulls in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import NonNegative, check_fields

# Entries above any reachable cost; used to steer the solver away from
# gated-out pairs, which are dropped from its output afterwards.
_INFEASIBLE_COST = 1e6
_NORM_EPS = 1e-12


@dataclass(frozen=True)
class AppearanceState:
    """Image / BEV / head embeddings of one object, equal dims, finite."""

    e_img: np.ndarray
    e_bev: np.ndarray
    e_head: np.ndarray

    def __post_init__(self):
        for name in ("e_img", "e_bev", "e_head"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        if not (self.e_img.shape == self.e_bev.shape == self.e_head.shape):
            raise ValueError("appearance embeddings must share one dimension")
        if self.e_img.ndim != 1:
            raise ValueError("appearance embeddings must be 1-D vectors")
        for name in ("e_img", "e_bev", "e_head"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains NaN/Inf")

    def blend(self, other: "AppearanceState", alpha: float) -> "AppearanceState":
        """Exponential smoothing: alpha*self + (1-alpha)*other, per clue."""
        return AppearanceState(
            e_img=alpha * self.e_img + (1.0 - alpha) * other.e_img,
            e_bev=alpha * self.e_bev + (1.0 - alpha) * other.e_bev,
            e_head=alpha * self.e_head + (1.0 - alpha) * other.e_head,
        )


@dataclass(frozen=True)
class ClueWeights:
    """Weights of the image, BEV and head cosine similarity clues."""

    img: NonNegative = 1.0 / 3.0
    bev: NonNegative = 1.0 / 3.0
    head: NonNegative = 1.0 / 3.0

    def __post_init__(self):
        check_fields(self)
        if self.img + self.bev + self.head <= 0:
            raise ValueError("clue weights must not all be zero")


@dataclass(frozen=True)
class CostMatrix:
    """values: N x M assignment costs (rows = detections, cols = tracklets);
    gate_mask: True where the pair is admissible."""

    values: np.ndarray
    gate_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "gate_mask", np.asarray(self.gate_mask, dtype=bool))
        if self.values.shape != self.gate_mask.shape or self.values.ndim != 2:
            raise ValueError("values and gate_mask must be equal 2-D shapes")


def stack_appearance(states: Sequence[AppearanceState]) -> np.ndarray:
    """(N, 3, C) rows of (e_img, e_bev, e_head); (0, 3, 0) when empty."""
    if not states:
        return np.zeros((0, 3, 0))
    return np.array([(a.e_img, a.e_bev, a.e_head) for a in states])


def unstack_appearance(stack: np.ndarray) -> list[AppearanceState]:
    """Inverse of ``stack_appearance``: one state per (3, C) row, each a
    view of the stack. The stack is checked once, not state by state."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != 3:
        raise ValueError("appearance stack must have shape (N, 3, C)")
    if not np.isfinite(stack).all():
        raise ValueError("appearance stack contains NaN/Inf")
    states = []
    for e_img, e_bev, e_head in stack:
        state = object.__new__(AppearanceState)
        state.__dict__.update(e_img=e_img, e_bev=e_bev, e_head=e_head)
        states.append(state)
    return states


def _unit_rows(stack: np.ndarray) -> np.ndarray:
    """Each embedding of an (N, 3, C) stack scaled to unit norm; zero-norm
    embeddings become 0."""
    norms = np.linalg.norm(stack, axis=2, keepdims=True)
    tiny = norms < _NORM_EPS
    unit = stack / np.where(tiny, 1.0, norms)
    unit[tiny[..., 0]] = 0.0
    return unit


def build_similarity_matrix(dets: np.ndarray, trks: np.ndarray,
                            w: ClueWeights, sim_gate: float) -> CostMatrix:
    """Negated multi-clue similarity with a >= sim_gate admissibility mask.

    Each side is an (N, 3, C) ``stack_appearance`` array.
    """
    n, m = len(dets), len(trks)
    if n == 0 or m == 0:
        return CostMatrix(np.zeros((n, m)), np.zeros((n, m), dtype=bool))
    du, tu = _unit_rows(dets), _unit_rows(trks)
    sim = np.zeros((n, m))
    for clue, weight in enumerate((w.img, w.bev, w.head)):
        if weight != 0:
            sim += weight * (du[:, clue] @ tu[:, clue].T)
    return CostMatrix(values=-sim, gate_mask=sim >= sim_gate)


def solve_assignment(c: CostMatrix) -> list[tuple[int, int]]:
    """Minimum-cost bipartite matching restricted to admissible pairs.

    Gated-out pairs carry a cost far above any admissible one, so the
    solver uses as many admissible pairs as possible and minimizes their
    total cost; forced inadmissible pairings are dropped from the result.
    Pairs are returned sorted by detection index.
    """
    values, gate = c.values, c.gate_mask
    if values.size == 0 or not gate.any():
        return []
    from scipy.optimize import linear_sum_assignment

    padded = np.where(gate, values, _INFEASIBLE_COST)
    rows, cols = linear_sum_assignment(padded)  # rows come out ascending
    keep = gate[rows, cols]
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))
