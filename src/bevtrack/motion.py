"""Constant-velocity Kalman filter over oriented 3D boxes.

State is the 10-vector (cx, cy, cz, yaw, length, width, height, vx, vy, vz).
Position follows a linear constant-velocity transition; yaw and dims are
random walks. Measurements are full boxes (the first 7 components).
Predict/update are pure: they return new states and never mutate inputs.

P0, Q and R are diagonal and F couples each position only with its own
velocity, so the covariance is always three (position, velocity) 2x2
blocks plus the yaw and dim variances. A ``KalmanState`` stores just that,
and predict/update are elementwise array code; ``cov`` builds the 10x10
matrix for inspection. ``state_rects`` gives the rows' BEV rectangles.

Every function works on stacked rows: a ``KalmanState`` may carry leading
dimensions (``mean (..., 10)``, ``var (..., 10)``, ``cross (..., 3)``), and
each row is filtered independently with exactly the arithmetic of a single
state, which is the one-row case. A tracker therefore filters all of its
objects with one call per step.

Predict and update compute with numpy's overflow and invalid-value
warnings off: an overflow leaves an inf or nan in the new state, and the
``KalmanState`` check turns that into a ValueError, also where warnings
are errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, Positive, box_rows, check_fields, wrap_angle

STATE_DIM = 10
MEAS_DIM = 7
MIN_DIM = 0.01  # meters; dims in the mean are clamped to this floor

_POS = slice(0, 3)
_YAW = 3
_DIMS = slice(4, 7)
_VEL = slice(7, 10)
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max
# measurement order of a box row's (cx, cy, cz, length, width, height, yaw)
_MEAS_FROM_BOX = [0, 1, 2, 6, 3, 4, 5]


@dataclass(frozen=True)
class NoiseConfig:
    """Per-step process stds and measurement stds, all strictly positive.

    Process noise is applied once per predict call (per step, not per
    second).
    """

    process_pos_std: Positive = 0.5
    process_vel_std: Positive = 1.0
    process_yaw_std: Positive = 0.1
    process_dim_std: Positive = 0.05
    meas_pos_std: Positive = 0.5
    meas_yaw_std: Positive = 0.1
    meas_dim_std: Positive = 0.1

    def __post_init__(self):
        check_fields(self)

    def process_var(self) -> np.ndarray:
        """(10,) diagonal of the process covariance Q."""
        return np.repeat([self.process_pos_std, self.process_yaw_std,
                          self.process_dim_std, self.process_vel_std],
                         [3, 1, 3, 3]) ** 2

    def meas_var(self) -> np.ndarray:
        """(7,) diagonal of the measurement covariance R."""
        return np.repeat([self.meas_pos_std, self.meas_yaw_std,
                          self.meas_dim_std], [3, 1, 3]) ** 2


@dataclass(frozen=True)
class KalmanState:
    """Mean (..., 10), variances (..., 10) and x/y/z position-velocity
    covariances (..., 3); leading dims are rows.

    Rejects (ValueError) non-finite values, non-positive variances and a
    position-velocity block that is not PSD (cross^2 > var_pos * var_vel).
    """

    mean: np.ndarray
    var: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        for name in ("mean", "var", "cross"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=np.float64))
        mean, var, cross = self.mean, self.var, self.cross
        if (mean.ndim < 1 or mean.shape[-1] != STATE_DIM
                or var.shape != mean.shape
                or cross.shape != mean.shape[:-1] + (3,)):
            raise ValueError("state must be 10-vectors with 10 variances and "
                             "3 position-velocity covariances")
        if not all(np.isfinite(a).all() for a in (mean, var, cross)):
            raise ValueError("state must be finite")
        if not (var > 0).all():
            raise ValueError("variances must be positive")
        p, v = var[..., _POS], var[..., _VEL]
        with np.errstate(over="ignore", under="ignore"):
            pv = p * v
            not_psd = cross * cross > pv
            # Where p * v left the normal range it lost its bits, so the
            # square roots are compared there. Elsewhere the products decide:
            # an overflowed cross^2 (inf) exceeds every finite p * v, and an
            # underflowed one lies below every normal p * v.
            rough = (pv < _TINY) | (pv > _HUGE)
            if rough.any():
                not_psd[rough] = (np.abs(cross[rough])
                                  > np.sqrt(p[rough]) * np.sqrt(v[rough]))
        if not_psd.any():
            raise ValueError("position-velocity covariance is not PSD")

    @property
    def rows(self) -> tuple[int, ...]:
        """Leading dimensions; () for a single state."""
        return self.mean.shape[:-1]

    @property
    def cov(self) -> np.ndarray:
        """The (..., 10, 10) covariance matrix, built on each access."""
        cov = np.zeros(self.var.shape + (STATE_DIM,))
        idx = np.arange(STATE_DIM)
        cov[..., idx, idx] = self.var
        pos = np.arange(3)
        cov[..., pos, pos + 7] = cov[..., pos + 7, pos] = self.cross
        return cov


def init_state(boxes, noise: NoiseConfig) -> KalmanState:
    """Cold start from first detections: pose/dims set, velocity 0.

    boxes are (..., 7) box rows (``geometry.box_rows`` order) or one
    Box3D: one row gives a single state, N rows N states.
    Velocity variance starts large (10^2 m^2/s^2) so the first updates pin
    it down quickly.
    """
    z = _measurements(boxes)
    mean = np.zeros(z.shape[:-1] + (STATE_DIM,))
    mean[..., :MEAS_DIM] = z
    var = np.empty_like(mean)
    var[..., :MEAS_DIM] = noise.meas_var()
    var[..., _VEL] = 100.0
    return KalmanState(mean, var, np.zeros(z.shape[:-1] + (3,)))


def predict(s: KalmanState, dt: float, noise: NoiseConfig) -> KalmanState:
    """Advance every row by dt seconds: x <- Fx, P <- FPF' + Q.

    Per axis with position variance p, velocity variance v and covariance
    c: p += dt (2c + dt v) + q_pos, c += dt v, v += q_vel.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = s.mean.copy()
        mean[..., _POS] += dt * s.mean[..., _VEL]
        var = s.var.copy()
        var[..., _POS] += dt * (2.0 * s.cross + dt * s.var[..., _VEL])
        var += noise.process_var()
        cross = s.cross + dt * s.var[..., _VEL]
    return KalmanState(mean, var, cross)


def update(s: KalmanState, z, noise: NoiseConfig) -> KalmanState:
    """Kalman correction of every row against its observed box.

    z holds one box row per state row, in row order, in any form
    ``init_state`` takes. The yaw innovation is wrapped into (-pi, pi] so
    near-cut measurements do not produce ~2*pi jumps. The innovation
    covariance is diagonal, s = p + r per measured component, so each gain
    is k = p / s and the velocities take k_v = c / s from their position's
    innovation. Then p <- (1 - k) p, c <- (1 - k) c, v <- v - k_v c with
    1 - k = r / s; per axis the block determinant scales by r / s, so the
    covariance stays PSD.
    """
    z_vec = _measurements(z).reshape(s.rows + (MEAS_DIM,))
    with np.errstate(over="ignore", invalid="ignore"):
        innov = z_vec - s.mean[..., :MEAS_DIM]
        innov[..., _YAW] = wrap_angle(innov[..., _YAW])

        p, r = s.var[..., :MEAS_DIM], noise.meas_var()
        s_diag = p + r
        gain, keep = p / s_diag, r / s_diag
        gain_vel = s.cross / s_diag[..., _POS]
        mean = s.mean.copy()
        mean[..., :MEAS_DIM] += gain * innov
        mean[..., _VEL] += gain_vel * innov[..., _POS]
        mean[..., _DIMS] = np.maximum(mean[..., _DIMS], MIN_DIM)

        var = s.var.copy()
        var[..., :MEAS_DIM] *= keep
        var[..., _VEL] -= gain_vel * s.cross
        cross = keep[..., _POS] * s.cross
    return KalmanState(mean, var, cross)


def _floored(s: KalmanState) -> np.ndarray:
    """(N, 7) measured columns of the means, dims floored at MIN_DIM."""
    z = s.mean.reshape(-1, STATE_DIM)[:, :MEAS_DIM].copy()
    z[:, _DIMS] = np.maximum(z[:, _DIMS], MIN_DIM)
    return z


def state_to_box(s: KalmanState) -> Box3D | list[Box3D]:
    """Project the mean onto a box; dims floored at MIN_DIM.

    A single state gives one box, stacked rows a list of boxes in row
    order.
    """
    boxes = [Box3D(cx, cy, cz, length, width, height, yaw)
             for cx, cy, cz, yaw, length, width, height in _floored(s).tolist()]
    return boxes[0] if s.mean.ndim == 1 else boxes


def state_rects(s: KalmanState) -> np.ndarray:
    """(N, 5) BEV rectangles (cx, cy, length, width, yaw) of the rows:
    the ``geometry.RECT_COLUMNS`` of ``box_rows(state_to_box(s))``, without
    the boxes."""
    z = _floored(s)
    return np.column_stack([z[:, :2], z[:, 4:6], wrap_angle(z[:, _YAW])])


def _measurements(boxes) -> np.ndarray:
    """(..., 7) measurement rows (cx, cy, cz, yaw, length, width, height)
    of box rows or of one Box3D."""
    if isinstance(boxes, Box3D):
        boxes = box_rows([boxes])[0]
    return boxes[..., _MEAS_FROM_BOX]
