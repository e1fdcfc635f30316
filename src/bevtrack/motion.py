"""Constant-velocity Kalman filter over oriented 3D boxes.

State is the 10-vector (cx, cy, cz, yaw, length, width, height, vx, vy, vz).
Position follows a linear constant-velocity transition; yaw and dims are
random walks. Measurements are full boxes (the first 7 components).
Predict/update are pure: they return new states and never mutate inputs.

Every function works on stacked rows: a ``KalmanState`` may carry leading
dimensions (``mean (..., 10)``, ``cov (..., 10, 10)``), and each row is
filtered independently with exactly the arithmetic of a single state, which
is the one-row case. A tracker therefore filters all of its objects with
one call per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box3D, wrap_angle

STATE_DIM = 10
MEAS_DIM = 7
MIN_DIM = 0.01  # meters; dims in the mean are clamped to this floor

_POS = slice(0, 3)
_YAW = 3
_DIMS = slice(4, 7)
_VEL = slice(7, 10)


class NumericFailure(RuntimeError):
    """Innovation covariance stayed singular after jitter retry."""


@dataclass(frozen=True)
class NoiseConfig:
    """Per-step process stds and measurement stds, all strictly positive.

    Process noise is applied once per predict call (per step, not per
    second).
    """

    process_pos_std: float = 0.5
    process_vel_std: float = 1.0
    process_yaw_std: float = 0.1
    process_dim_std: float = 0.05
    meas_pos_std: float = 0.5
    meas_yaw_std: float = 0.1
    meas_dim_std: float = 0.1

    def __post_init__(self):
        for name in ("process_pos_std", "process_vel_std", "process_yaw_std",
                     "process_dim_std", "meas_pos_std", "meas_yaw_std",
                     "meas_dim_std"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    def process_cov(self) -> np.ndarray:
        q = np.empty(STATE_DIM)
        q[_POS] = self.process_pos_std**2
        q[_YAW] = self.process_yaw_std**2
        q[_DIMS] = self.process_dim_std**2
        q[_VEL] = self.process_vel_std**2
        return np.diag(q)

    def meas_cov(self) -> np.ndarray:
        r = np.empty(MEAS_DIM)
        r[_POS] = self.meas_pos_std**2
        r[_YAW] = self.meas_yaw_std**2
        r[_DIMS] = self.meas_dim_std**2
        return np.diag(r)


@dataclass(frozen=True)
class KalmanState:
    """Mean (..., 10) and covariance (..., 10, 10); leading dims are rows."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=np.float64))
        if (self.mean.ndim < 1 or self.mean.shape[-1] != STATE_DIM
                or self.cov.shape != self.mean.shape + (STATE_DIM,)):
            raise ValueError("state must be 10-vectors with 10x10 covariances")

    @property
    def rows(self) -> tuple[int, ...]:
        """Leading dimensions; () for a single state."""
        return self.mean.shape[:-1]


def _measurement_matrix() -> np.ndarray:
    h = np.zeros((MEAS_DIM, STATE_DIM))
    h[:MEAS_DIM, :MEAS_DIM] = np.eye(MEAS_DIM)
    return h


def _transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[0, 7] = f[1, 8] = f[2, 9] = dt
    return f


def init_state(box: Box3D | Sequence[Box3D], noise: NoiseConfig) -> KalmanState:
    """Cold start from first detections: pose/dims set, velocity 0.

    A single box gives a single state, a sequence of boxes one row per
    box. Velocity variance starts large (10^2 m^2/s^2) so the first
    updates pin it down quickly.
    """
    z = _measurements(box)
    mean = np.zeros(z.shape[:-1] + (STATE_DIM,))
    mean[..., :MEAS_DIM] = z
    var = np.empty(STATE_DIM)
    var[_POS] = noise.meas_pos_std**2
    var[_YAW] = noise.meas_yaw_std**2
    var[_DIMS] = noise.meas_dim_std**2
    var[_VEL] = 100.0
    cov = np.broadcast_to(np.diag(var), mean.shape + (STATE_DIM,)).copy()
    return KalmanState(mean, cov)


def predict(s: KalmanState, dt: float, noise: NoiseConfig) -> KalmanState:
    """Advance every row by dt seconds: x <- Fx, P <- FPF' + Q."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    f = _transition_matrix(dt)
    mean = (f @ s.mean[..., None])[..., 0]
    cov = f @ s.cov @ f.T + noise.process_cov()
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return KalmanState(mean, cov)


def update(s: KalmanState, z: Box3D | Sequence[Box3D],
           noise: NoiseConfig) -> KalmanState:
    """Kalman correction of every row against its observed box.

    z is one box for a single state, else one box per row (row order).
    The yaw innovation is wrapped into (-pi, pi] so near-cut measurements
    do not produce ~2*pi jumps. Covariance uses the Joseph form to stay
    PSD. A row whose innovation covariance is singular gets one 1e-6
    diagonal jitter retry, which leaves every other row unchanged;
    NumericFailure is raised when the retry fails too.
    """
    h = _measurement_matrix()
    r = noise.meas_cov()
    z_vec = _measurements(z).reshape(s.rows + (MEAS_DIM,))
    innov = z_vec - (h @ s.mean[..., None])[..., 0]
    innov[..., 3] = wrap_angle(innov[..., 3])

    hp = h @ s.cov
    s_mat = hp @ h.T + r
    try:
        gain = np.swapaxes(np.linalg.solve(s_mat, hp), -1, -2)
    except np.linalg.LinAlgError:
        gain = _jittered_gain(s_mat, hp)

    mean = s.mean + (gain @ innov[..., None])[..., 0]
    mean[..., _DIMS] = np.maximum(mean[..., _DIMS], MIN_DIM)
    ikh = np.eye(STATE_DIM) - gain @ h
    cov = (ikh @ s.cov @ np.swapaxes(ikh, -1, -2)
           + gain @ r @ np.swapaxes(gain, -1, -2))
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return KalmanState(mean, cov)


def _jittered_gain(s_mat: np.ndarray, hp: np.ndarray) -> np.ndarray:
    """Gains row by row, retrying only the singular rows with jitter."""
    rows_s = s_mat.reshape(-1, MEAS_DIM, MEAS_DIM)
    rows_hp = hp.reshape(-1, MEAS_DIM, STATE_DIM)
    sol = np.empty_like(rows_hp)
    for i, (sm, b) in enumerate(zip(rows_s, rows_hp)):
        try:
            sol[i] = np.linalg.solve(sm, b)
        except np.linalg.LinAlgError:
            try:
                sol[i] = np.linalg.solve(sm + 1e-6 * np.eye(MEAS_DIM), b)
            except np.linalg.LinAlgError as exc:
                raise NumericFailure("innovation covariance is singular") from exc
    return np.swapaxes(sol.reshape(hp.shape), -1, -2)


def state_to_box(s: KalmanState) -> Box3D | list[Box3D]:
    """Project the mean onto a box; dims floored at MIN_DIM.

    A single state gives one box, stacked rows a list of boxes in row
    order.
    """
    boxes = [Box3D(cx=cx, cy=cy, cz=cz, length=max(length, MIN_DIM),
                   width=max(width, MIN_DIM), height=max(height, MIN_DIM),
                   yaw=yaw)
             for cx, cy, cz, yaw, length, width, height
             in s.mean.reshape(-1, STATE_DIM)[:, :MEAS_DIM].tolist()]
    return boxes[0] if s.mean.ndim == 1 else boxes


def _measurements(z: Box3D | Sequence[Box3D]) -> np.ndarray:
    """(7,) measurement vector of one box, (N, 7) of a sequence."""
    if isinstance(z, Box3D):
        return np.array([z.cx, z.cy, z.cz, z.yaw, z.length, z.width, z.height])
    return np.array([(b.cx, b.cy, b.cz, b.yaw, b.length, b.width, b.height)
                     for b in z], dtype=np.float64).reshape(-1, MEAS_DIM)
