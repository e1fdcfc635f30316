import math

import numpy as np
import pytest

from bevtrack.geometry import Box3D
from bevtrack.motion import (MIN_DIM, KalmanState, NoiseConfig,
                             NumericFailure, init_state, predict,
                             state_to_box, update)


def random_state(rng):
    mean = rng.normal(0, 3, size=10)
    mean[4:7] = rng.uniform(0.5, 5.0, size=3)
    a = rng.normal(0, 1, size=(10, 10))
    cov = a @ a.T + 0.1 * np.eye(10)
    return KalmanState(mean, cov)


def random_box(rng):
    return Box3D(*rng.uniform(-5, 5, size=3), *rng.uniform(0.5, 5.0, size=3),
                 rng.uniform(-math.pi, math.pi))


class TestNoiseConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseConfig(process_pos_std=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(meas_yaw_std=-1.0)


class TestPredict:
    def test_position_advances_by_velocity(self):
        n = NoiseConfig()
        mean = np.zeros(10)
        mean[4:7] = 1.0
        mean[7:10] = (1.0, 2.0, 0.0)
        s = KalmanState(mean, np.eye(10))
        out = predict(s, 0.5, n)
        np.testing.assert_allclose(out.mean[:3], [0.5, 1.0, 0.0], atol=1e-12)

    def test_zero_velocity_keeps_position(self):
        n = NoiseConfig()
        mean = np.zeros(10)
        mean[:3] = (3.0, -2.0, 0.7)
        mean[4:7] = 1.0
        s = KalmanState(mean, np.eye(10))
        for dt in (0.05, 0.5, 2.0):
            np.testing.assert_allclose(predict(s, dt, n).mean[:3],
                                       s.mean[:3], atol=1e-12)

    def test_covariance_matches_matrix_arithmetic_oracle(self):
        rng = np.random.default_rng(3)
        n = NoiseConfig()
        for _ in range(50):
            s = random_state(rng)
            dt = rng.uniform(0.05, 1.0)
            out = predict(s, dt, n)
            f = np.eye(10)
            f[0, 7] = f[1, 8] = f[2, 9] = dt
            q = n.process_cov()
            want = f @ s.cov @ f.T + q
            np.testing.assert_allclose(out.cov, 0.5 * (want + want.T),
                                       atol=1e-10)

    def test_trace_increases_from_fresh_states(self):
        # holds whenever position-velocity cross terms are non-negative,
        # which covers every state the filter itself produces from scratch
        rng = np.random.default_rng(5)
        n = NoiseConfig()
        s = init_state(random_box(rng), n)
        for _ in range(20):
            out = predict(s, 0.1, n)
            assert np.trace(out.cov) > np.trace(s.cov)
            s = update(out, random_box(rng), n)

    def test_rejects_nonpositive_dt(self):
        s = init_state(Box3D(0, 0, 0, 4, 2, 1.5, 0), NoiseConfig())
        with pytest.raises(ValueError):
            predict(s, 0.0, NoiseConfig())


class TestUpdate:
    def test_tiny_measurement_noise_pins_posterior_to_measurement(self):
        n = NoiseConfig(meas_pos_std=1e-9, meas_yaw_std=1e-9, meas_dim_std=1e-9)
        s = init_state(Box3D(0, 0, 0, 4, 2, 1.5, 0), n)
        s = KalmanState(s.mean, np.eye(10))  # uncertain prior
        z = Box3D(1.0, -2.0, 0.3, 4.2, 1.9, 1.4, 0.5)
        out = update(s, z, n)
        np.testing.assert_allclose(
            out.mean[:7], [1.0, -2.0, 0.3, 0.5, 4.2, 1.9, 1.4], atol=1e-6)

    def test_zero_innovation_keeps_mean(self):
        n = NoiseConfig()
        s = init_state(Box3D(1, 2, 0.5, 4, 2, 1.5, 0.3), n)
        out = update(s, Box3D(1, 2, 0.5, 4, 2, 1.5, 0.3), n)
        np.testing.assert_allclose(out.mean, s.mean, atol=1e-12)

    def test_scalar_gain_matches_closed_form(self):
        # decoupled diagonal covariance: the cx update must follow the
        # 1-D Kalman gain k = P / (P + R)
        n = NoiseConfig(meas_pos_std=0.7)
        prior_var = 2.3
        mean = np.zeros(10)
        mean[4:7] = 1.0
        s = KalmanState(mean, np.diag(np.full(10, prior_var)))
        z = Box3D(1.0, 0, 0, 1, 1, 1, 0)
        out = update(s, z, n)
        k = prior_var / (prior_var + 0.7**2)
        assert out.mean[0] == pytest.approx(k * 1.0, rel=1e-12)
        assert out.cov[0, 0] == pytest.approx((1 - k) * prior_var, rel=1e-9)

    def test_yaw_innovation_wraps(self):
        n = NoiseConfig()
        mean = np.zeros(10)
        mean[3] = -math.pi + 0.01
        mean[4:7] = 1.0
        s = KalmanState(mean, np.eye(10))
        z = Box3D(0, 0, 0, 1, 1, 1, math.pi - 0.01)
        out = update(s, z, n)
        # posterior yaw moves a little toward the wrapped innovation of
        # -0.02, never by ~2*pi
        assert abs(out.mean[3] - mean[3]) < 0.05

    def test_posterior_not_larger_than_prior(self):
        rng = np.random.default_rng(7)
        n = NoiseConfig()
        for _ in range(100):
            s = random_state(rng)
            out = update(s, random_box(rng), n)
            diff_eigs = np.linalg.eigvalsh(s.cov - out.cov)
            assert diff_eigs.min() >= -1e-8

    def test_dims_clamped_positive(self):
        n = NoiseConfig(meas_dim_std=10.0)
        mean = np.zeros(10)
        mean[4:7] = (0.2, 0.2, 0.2)
        s = KalmanState(mean, 100 * np.eye(10))
        out = update(s, Box3D(0, 0, 0, 0.05, 0.05, 0.05, 0), n)
        assert (out.mean[4:7] >= 0.01 - 1e-15).all()

    def test_singular_innovation_recovered_by_jitter(self):
        # a (non-physical) prior covariance canceling R exactly makes the
        # innovation covariance singular; the one-shot diagonal jitter must
        # rescue the update
        n = NoiseConfig()
        cov = np.zeros((10, 10))
        cov[:7, :7] = -n.meas_cov()
        mean = np.zeros(10)
        mean[4:7] = 1.0
        s = KalmanState(mean, cov)
        out = update(s, Box3D(0.5, 0, 0, 1, 1, 1, 0), n)
        assert np.all(np.isfinite(out.mean))
        assert np.all(np.isfinite(out.cov))


class TestStateToBox:
    def test_field_projection(self):
        mean = np.array([1, 2, 0.5, 0.1, 4, 2, 1.5, 9, 9, 9], dtype=float)
        b = state_to_box(KalmanState(mean, np.eye(10)))
        assert (b.cx, b.cy, b.cz) == (1, 2, 0.5)
        assert (b.length, b.width, b.height) == (4, 2, 1.5)
        assert b.yaw == pytest.approx(0.1)

    def test_negative_dim_clamped(self):
        mean = np.zeros(10)
        mean[4:7] = (-0.5, 1.0, 1.0)
        b = state_to_box(KalmanState(mean, np.eye(10)))
        assert b.length == 0.01

    def test_yaw_normalized(self):
        mean = np.zeros(10)
        mean[3] = 3.5
        mean[4:7] = 1.0
        b = state_to_box(KalmanState(mean, np.eye(10)))
        assert b.yaw == pytest.approx(3.5 - 2 * math.pi)


class TestFilterProperties:
    def test_noiseless_constant_velocity_roundtrip(self):
        # exact measurements, near-zero noise: after a burn-in the filter
        # must follow a constant-velocity truth to < 1e-6 m for 100 steps
        n = NoiseConfig(process_pos_std=1e-6, process_vel_std=1e-6,
                        process_yaw_std=1e-6, process_dim_std=1e-6,
                        meas_pos_std=1e-6, meas_yaw_std=1e-6,
                        meas_dim_std=1e-6)
        vel = np.array([2.0, -1.0, 0.0])
        dt = 0.1

        def truth(k):
            pos = vel * dt * k
            return Box3D(pos[0], pos[1], pos[2], 4.0, 2.0, 1.5, 0.3)

        s = init_state(truth(0), n)
        worst = 0.0
        for k in range(1, 101):
            s = predict(s, dt, n)
            z = truth(k)
            err = np.linalg.norm(s.mean[:3] - [z.cx, z.cy, z.cz])
            if k > 5:
                worst = max(worst, err)
            s = update(s, z, n)
        assert worst < 1e-6

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(11)
        n = NoiseConfig()
        s = init_state(random_box(rng), n)
        for k in range(2000):
            s = predict(s, rng.uniform(0.02, 0.5), n)
            if k % 3 != 0:
                s = update(s, random_box(rng), n)
            assert np.abs(s.cov - s.cov.T).max() < 1e-9
            assert np.linalg.eigvalsh(s.cov).min() >= -1e-9


def stack(states):
    return KalmanState(np.array([s.mean for s in states]),
                       np.array([s.cov for s in states]))


def row(s, i):
    return KalmanState(s.mean[i], s.cov[i])


def singular_row():
    # prior covariance canceling R exactly: singular innovation covariance
    n = NoiseConfig()
    cov = np.zeros((10, 10))
    cov[:7, :7] = -n.meas_cov()
    mean = np.zeros(10)
    mean[4:7] = 1.0
    return KalmanState(mean, cov)


class TestStackedRows:
    """An N-row state filters exactly like N single states."""

    def _rows_and_boxes(self, seed, n_rows=12):
        rng = np.random.default_rng(seed)
        states = [random_state(rng) for _ in range(n_rows)]
        boxes = [random_box(rng) for _ in range(n_rows)]
        # yaw innovation across the cut at +-pi
        m = states[1].mean.copy()
        m[3] = -math.pi + 1e-3
        states[1] = KalmanState(m, states[1].cov)
        boxes[1] = Box3D(0, 0, 0, 1, 1, 1, math.pi - 1e-3)
        # x and length strongly correlated: a far-left measurement drags
        # the length below zero, which the floor must clamp
        cov = np.eye(10)
        cov[0, 4] = cov[4, 0] = 0.9
        states[2] = KalmanState(np.r_[np.zeros(4), 0.2, 0.2, 0.2, np.zeros(3)],
                                cov)
        boxes[2] = Box3D(-50.0, 0, 0, 0.2, 0.2, 0.2, 0)
        return states, boxes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_predict_equals_rows(self, seed):
        n = NoiseConfig()
        states, _ = self._rows_and_boxes(seed)
        out = predict(stack(states), 0.37, n)
        for i, s in enumerate(states):
            one = predict(s, 0.37, n)
            np.testing.assert_array_equal(out.mean[i], one.mean)
            np.testing.assert_array_equal(out.cov[i], one.cov)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_equals_rows(self, seed):
        n = NoiseConfig()
        states, boxes = self._rows_and_boxes(seed)
        out = update(stack(states), boxes, n)
        for i, (s, z) in enumerate(zip(states, boxes)):
            one = update(s, z, n)
            np.testing.assert_array_equal(out.mean[i], one.mean)
            np.testing.assert_array_equal(out.cov[i], one.cov)
        assert abs(out.mean[1, 3] - states[1].mean[3]) < 0.05
        assert out.mean[2, 4] == MIN_DIM

    def test_singular_row_recovered_alone(self):
        n = NoiseConfig()
        states, boxes = self._rows_and_boxes(4)
        states[5] = singular_row()
        out = update(stack(states), boxes, n)
        assert np.isfinite(out.mean).all() and np.isfinite(out.cov).all()
        for i, (s, z) in enumerate(zip(states, boxes)):
            one = update(s, z, n)
            np.testing.assert_array_equal(out.mean[i], one.mean)
            np.testing.assert_array_equal(out.cov[i], one.cov)

    def test_failed_jitter_raises(self):
        # innovation covariance diag(0, -1e-6, 1, ...): singular, and
        # singular again after the 1e-6 jitter (all sums exact)
        r = 2.0**-30
        n = NoiseConfig(meas_pos_std=2.0**-15, meas_yaw_std=2.0**-15,
                        meas_dim_std=2.0**-15)
        cov = np.eye(10)
        cov[0, 0] = -r
        cov[1, 1] = -(1e-6 + r)
        bad = KalmanState(np.r_[np.zeros(4), 1.0, 1.0, 1.0, np.zeros(3)], cov)
        states, boxes = self._rows_and_boxes(5)
        states[3] = bad
        with pytest.raises(NumericFailure):
            update(bad, boxes[3], n)
        with pytest.raises(NumericFailure):
            update(stack(states), boxes, n)

    def test_init_and_state_to_box_equal_rows(self):
        n = NoiseConfig()
        rng = np.random.default_rng(9)
        boxes = [random_box(rng) for _ in range(5)]
        s = init_state(boxes, n)
        assert s.rows == (5,)
        for i, b in enumerate(boxes):
            one = init_state(b, n)
            np.testing.assert_array_equal(s.mean[i], one.mean)
            np.testing.assert_array_equal(s.cov[i], one.cov)
        m = s.mean.copy()
        m[0, 4] = -1.0
        s = KalmanState(m, s.cov)
        assert state_to_box(s) == [state_to_box(row(s, i)) for i in range(5)]
        assert state_to_box(s)[0].length == MIN_DIM

    def test_empty_stack(self):
        n = NoiseConfig()
        s = KalmanState(np.zeros((0, 10)), np.zeros((0, 10, 10)))
        assert predict(s, 0.1, n).rows == (0,)
        assert update(s, [], n).rows == (0,)
        assert state_to_box(s) == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KalmanState(np.zeros((3, 10)), np.zeros((2, 10, 10)))
        with pytest.raises(ValueError):
            KalmanState(np.zeros(10), np.zeros((1, 10, 10)))
        with pytest.raises(ValueError):
            update(KalmanState(np.zeros((2, 10)), np.zeros((2, 10, 10))),
                   [Box3D(0, 0, 0, 1, 1, 1, 0)], NoiseConfig())
