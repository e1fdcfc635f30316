import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bevtrack.geometry import RECT_COLUMNS, Box3D, box_rows
from bevtrack.motion import (MIN_DIM, KalmanState, NoiseConfig, init_state,
                             predict, state_rects, state_to_box, update)
from oracles import dense_kalman_predict, dense_kalman_update


def random_state(rng):
    mean = rng.normal(0, 3, size=10)
    mean[4:7] = rng.uniform(0.5, 5.0, size=3)
    var = rng.uniform(0.1, 10.0, size=10)
    cross = rng.uniform(-0.95, 0.95, size=3) * np.sqrt(var[:3] * var[7:])
    return KalmanState(mean, var, cross)


def unit_state(mean, scale=1.0):
    """Identity-scaled covariance: every variance `scale`, no cross terms."""
    return KalmanState(mean, np.full(10, scale), np.zeros(3))


def random_box(rng):
    return Box3D(*rng.uniform(-5, 5, size=3), *rng.uniform(0.5, 5.0, size=3),
                 rng.uniform(-math.pi, math.pi))


class TestNoiseConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseConfig(process_pos_std=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(meas_yaw_std=-1.0)

    @pytest.mark.parametrize("name", ["process_pos_std", "process_vel_std",
                                      "meas_pos_std", "meas_dim_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        # the text a config file gives for the key; a NaN std would reach
        # the first birth as "state must be finite"
        with pytest.raises(ValueError, match=f"^{name}: must be a finite "
                           "number$"):
            NoiseConfig(**{name: value})


class TestPredict:
    def test_position_advances_by_velocity(self):
        n = NoiseConfig()
        mean = np.zeros(10)
        mean[4:7] = 1.0
        mean[7:10] = (1.0, 2.0, 0.0)
        s = unit_state(mean)
        out = predict(s, 0.5, n)
        np.testing.assert_allclose(out.mean[:3], [0.5, 1.0, 0.0], atol=1e-12)

    def test_zero_velocity_keeps_position(self):
        n = NoiseConfig()
        mean = np.zeros(10)
        mean[:3] = (3.0, -2.0, 0.7)
        mean[4:7] = 1.0
        s = unit_state(mean)
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
            q = np.diag(n.process_var())
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
        s = unit_state(s.mean)  # uncertain prior
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
        s = unit_state(mean, prior_var)
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
        s = unit_state(mean)
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
        s = unit_state(mean, 100.0)
        out = update(s, Box3D(0, 0, 0, 0.05, 0.05, 0.05, 0), n)
        assert (out.mean[4:7] >= 0.01 - 1e-15).all()

    def test_singular_innovation_input_rejected(self):
        # a (non-physical) prior covariance canceling R exactly would make
        # the innovation covariance singular; no state can hold it
        with pytest.raises(ValueError, match="positive"):
            singular_row()


class TestStateToBox:
    def test_field_projection(self):
        mean = np.array([1, 2, 0.5, 0.1, 4, 2, 1.5, 9, 9, 9], dtype=float)
        b = state_to_box(unit_state(mean))
        assert (b.cx, b.cy, b.cz) == (1, 2, 0.5)
        assert (b.length, b.width, b.height) == (4, 2, 1.5)
        assert b.yaw == pytest.approx(0.1)

    def test_negative_dim_clamped(self):
        mean = np.zeros(10)
        mean[4:7] = (-0.5, 1.0, 1.0)
        b = state_to_box(unit_state(mean))
        assert b.length == 0.01

    def test_yaw_normalized(self):
        mean = np.zeros(10)
        mean[3] = 3.5
        mean[4:7] = 1.0
        b = state_to_box(unit_state(mean))
        assert b.yaw == pytest.approx(3.5 - 2 * math.pi)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_rects_equal_rects_of_boxes(self, seed):
        rng = np.random.default_rng(seed)
        mean = rng.normal(0, 3, size=(40, 10))
        mean[:, 3] = rng.uniform(-12.0, 12.0, size=40)  # yaw beyond +-pi
        mean[:, 3][:4] = (math.pi, -math.pi, 3 * math.pi, -5 * math.pi)
        mean[:, 4:7] = rng.uniform(-0.05, 5.0, size=(40, 3))
        mean[:, 4:7][:6] = rng.uniform(-1.0, MIN_DIM, size=(6, 3))
        s = KalmanState(mean, np.ones((40, 10)), np.zeros((40, 3)))
        got = state_rects(s)
        assert got.shape == (40, 5)
        np.testing.assert_array_equal(
            got, box_rows(state_to_box(s))[:, RECT_COLUMNS])
        assert (got[:6, 2:4] == MIN_DIM).all()
        assert state_rects(KalmanState(np.zeros((0, 10)), np.ones((0, 10)),
                                       np.zeros((0, 3)))).shape == (0, 5)


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
    return KalmanState(*(np.array([getattr(s, name) for s in states])
                         for name in ("mean", "var", "cross")))


def row(s, i):
    return KalmanState(s.mean[i], s.var[i], s.cross[i])


def assert_rows_equal(out, i, one):
    np.testing.assert_array_equal(out.mean[i], one.mean)
    np.testing.assert_array_equal(out.var[i], one.var)
    np.testing.assert_array_equal(out.cross[i], one.cross)


def singular_row():
    # prior variances canceling R exactly: singular innovation covariance
    var = np.zeros(10)
    var[:7] = -NoiseConfig().meas_var()
    mean = np.zeros(10)
    mean[4:7] = 1.0
    return KalmanState(mean, var, np.zeros(3))


class TestStackedRows:
    """An N-row state filters exactly like N single states."""

    def _rows_and_boxes(self, seed, n_rows=12):
        rng = np.random.default_rng(seed)
        states = [random_state(rng) for _ in range(n_rows)]
        boxes = [random_box(rng) for _ in range(n_rows)]
        # yaw innovation across the cut at +-pi
        m = states[1].mean.copy()
        m[3] = -math.pi + 1e-3
        states[1] = KalmanState(m, states[1].var, states[1].cross)
        boxes[1] = Box3D(0, 0, 0, 1, 1, 1, math.pi - 1e-3)
        # an uncertain 0.2 m length measured at 0.005 m: the posterior
        # length falls below MIN_DIM, which the floor must clamp
        states[2] = unit_state(np.r_[np.zeros(4), 0.2, 0.2, 0.2, np.zeros(3)])
        boxes[2] = Box3D(0, 0, 0, 0.005, 0.2, 0.2, 0)
        return states, boxes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_predict_equals_rows(self, seed):
        n = NoiseConfig()
        states, _ = self._rows_and_boxes(seed)
        out = predict(stack(states), 0.37, n)
        for i, s in enumerate(states):
            assert_rows_equal(out, i, predict(s, 0.37, n))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_equals_rows(self, seed):
        n = NoiseConfig()
        states, boxes = self._rows_and_boxes(seed)
        out = update(stack(states), box_rows(boxes), n)
        for i, (s, z) in enumerate(zip(states, boxes)):
            assert_rows_equal(out, i, update(s, z, n))
        assert abs(out.mean[1, 3] - states[1].mean[3]) < 0.05
        assert out.mean[2, 4] == MIN_DIM

    def test_singular_row_rejected_in_stack(self):
        # one singular row among well-conditioned ones: the stack is
        # rejected as a whole, before any row is filtered
        states, _ = self._rows_and_boxes(4)
        rows = stack(states)
        var = rows.var.copy()
        var[5, :7] = -NoiseConfig().meas_var()
        with pytest.raises(ValueError, match="positive"):
            KalmanState(rows.mean, var, rows.cross)

    def test_negative_variances_rejected(self):
        # the variances that used to leave the innovation covariance
        # singular even after a 1e-6 diagonal jitter
        r = 2.0**-30
        var = np.ones(10)
        var[0] = -r
        var[1] = -(1e-6 + r)
        mean = np.r_[np.zeros(4), 1.0, 1.0, 1.0, np.zeros(3)]
        with pytest.raises(ValueError, match="positive"):
            KalmanState(mean, var, np.zeros(3))
        states, _ = self._rows_and_boxes(5)
        rows = stack(states)
        all_var = rows.var.copy()
        all_var[3] = var
        with pytest.raises(ValueError, match="positive"):
            KalmanState(rows.mean, all_var, rows.cross)

    def test_init_and_state_to_box_equal_rows(self):
        n = NoiseConfig()
        rng = np.random.default_rng(9)
        boxes = [random_box(rng) for _ in range(5)]
        s = init_state(box_rows(boxes), n)
        assert s.rows == (5,)
        for i, b in enumerate(boxes):
            assert_rows_equal(s, i, init_state(b, n))
        m = s.mean.copy()
        m[0, 4] = -1.0
        s = KalmanState(m, s.var, s.cross)
        assert state_to_box(s) == [state_to_box(row(s, i)) for i in range(5)]
        assert state_to_box(s)[0].length == MIN_DIM

    def test_empty_stack(self):
        n = NoiseConfig()
        s = KalmanState(np.zeros((0, 10)), np.zeros((0, 10)),
                        np.zeros((0, 3)))
        assert predict(s, 0.1, n).rows == (0,)
        assert update(s, box_rows([]), n).rows == (0,)
        assert state_to_box(s) == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KalmanState(np.zeros((3, 10)), np.ones((2, 10)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            KalmanState(np.zeros((3, 10)), np.ones((3, 10)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            KalmanState(np.zeros(10), np.ones((1, 10)), np.zeros(3))
        with pytest.raises(ValueError):
            KalmanState(np.zeros(10), np.ones(10), np.zeros((10, 10)))
        with pytest.raises(ValueError):
            update(KalmanState(np.zeros((2, 10)), np.ones((2, 10)),
                               np.zeros((2, 3))),
                   box_rows([Box3D(0, 0, 0, 1, 1, 1, 0)]), NoiseConfig())


class TestKalmanState:
    def test_cov_is_block_form(self):
        s = random_state(np.random.default_rng(2))
        cov = s.cov
        pos, vel = np.arange(3), np.arange(7, 10)
        np.testing.assert_array_equal(np.diag(cov), s.var)
        np.testing.assert_array_equal(cov[pos, vel], s.cross)
        np.testing.assert_array_equal(cov[vel, pos], s.cross)
        cov[np.arange(10), np.arange(10)] = 0.0
        cov[pos, vel] = cov[vel, pos] = 0.0
        assert not cov.any()
        np.testing.assert_array_equal(stack([s, s]).cov[1], s.cov)

    @pytest.mark.parametrize("name, index, value", [
        ("mean", 0, np.nan), ("mean", 7, np.inf), ("var", 3, np.inf),
        ("cross", 1, np.nan), ("var", 9, 0.0), ("var", 4, -1.0),
        ("cross", 2, 1.0 + 1e-12), ("cross", 0, -1.5)])
    def test_rejects_invalid_values(self, name, index, value):
        fields = {"mean": np.zeros(10), "var": np.ones(10),
                  "cross": np.zeros(3)}
        KalmanState(**fields)
        fields[name][index] = value
        with pytest.raises(ValueError):
            KalmanState(**fields)

    # (var_pos, var_vel, cross): p * v overflows or underflows, so the
    # products alone cannot decide; no overflow warning is raised either
    @pytest.mark.parametrize("p, v, c", [
        (1e300, 1e10, 1e160),     # cross^2 = 1e320 > p * v = 1e310
        (1e-200, 1e-200, 2e-200)])  # cross^2 = 4e-400 > p * v = 1e-400
    def test_not_psd_where_p_times_v_is_out_of_range(self, p, v, c):
        var = np.ones(10)
        var[0], var[7] = p, v
        with pytest.raises(ValueError, match="not PSD"):
            KalmanState(np.zeros(10), var, np.array([c, 0.0, 0.0]))

    @pytest.mark.parametrize("p, v, c", [
        (1e300, 1e300, 1e299),    # cross^2 = 1e598 < p * v = 1e600
        (1e-200, 1e-200, 5e-201)])  # cross^2 = 2.5e-401 < p * v = 1e-400
    def test_psd_where_p_times_v_is_out_of_range(self, p, v, c):
        var = np.ones(10)
        var[0], var[7] = p, v
        KalmanState(np.zeros(10), var, np.array([c, 0.0, 0.0]))

    def test_singular_block_accepted(self):
        # cross^2 == var_pos * var_vel is PSD (rank one), so it is valid
        s = KalmanState(np.zeros(10), np.full(10, 4.0), np.full(3, -4.0))
        assert np.linalg.eigvalsh(s.cov).min() >= -1e-12


# ---------------------------------------------------------------------------
# the per-axis filter against the dense textbook filter on full matrices

_std = st.floats(0.01, 3.0)
_yaw = (st.floats(-math.pi, -math.pi + 1e-3) | st.floats(math.pi - 1e-3, math.pi)
        | st.floats(-math.pi, math.pi))


@st.composite
def block_states(draw):
    """A state whose covariance has the block form, PSD, well scaled."""
    var = np.array(draw(st.lists(st.floats(1e-3, 1e2), min_size=10,
                                 max_size=10)))
    rho = np.array(draw(st.lists(st.floats(-0.99, 0.99), min_size=3,
                                 max_size=3)))
    mean = np.r_[draw(st.lists(st.floats(-50, 50), min_size=3, max_size=3)),
                 draw(_yaw),
                 draw(st.lists(st.floats(0.1, 6.0), min_size=3, max_size=3)),
                 draw(st.lists(st.floats(-20, 20), min_size=3, max_size=3))]
    return KalmanState(mean, var, rho * np.sqrt(var[:3] * var[7:]))


_boxes = st.builds(Box3D, st.floats(-50, 50), st.floats(-50, 50),
                   st.floats(-5, 5), st.floats(0.005, 6.0),
                   st.floats(0.005, 6.0), st.floats(0.005, 6.0), _yaw)


def assert_rel_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestDenseOracle:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(block_states(), _boxes), min_size=1,
                         max_size=6),
           dt=st.floats(0.02, 1.0),
           stds=st.lists(_std, min_size=7, max_size=7))
    def test_predict_and_update_match_dense_filter(self, rows, dt, stds):
        n = NoiseConfig(*stds)
        states = [s for s, _ in rows]
        boxes = [z for _, z in rows]
        for s, z in rows:  # +-pi innovations wrap either way: skip them
            innov = math.remainder(z.yaw - s.mean[3], 2.0 * math.pi)
            assume(abs(abs(innov) - math.pi) > 1e-9)
        pred = predict(stack(states), dt, n)
        post = update(stack(states), box_rows(boxes), n)
        pred_cov, post_cov = pred.cov, post.cov
        for i, (s, z) in enumerate(rows):
            mean, cov = dense_kalman_predict(s.mean, s.cov, dt,
                                             n.process_var())
            assert_rel_close(pred.mean[i], mean)
            assert_rel_close(pred_cov[i], cov)
            z_vec = [z.cx, z.cy, z.cz, z.yaw, z.length, z.width, z.height]
            mean, cov = dense_kalman_update(s.mean, s.cov, z_vec,
                                            n.meas_var(), MIN_DIM)
            assert_rel_close(post.mean[i], mean)
            assert_rel_close(post_cov[i], cov)
