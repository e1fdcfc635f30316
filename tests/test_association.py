import math

import numpy as np
import pytest

from bevtrack.association import (AppearanceState, ClueWeights, CostMatrix,
                                  build_similarity_matrix, solve_assignment,
                                  stack_appearance, unstack_appearance)

from oracles import (brute_force_assignment, multi_clue_similarity,
                     normalized_inner_product)


def random_appearance(rng, dim=8):
    return AppearanceState(*(rng.normal(size=dim) for _ in range(3)))


class TestNormalizedInnerProduct:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert normalized_inner_product(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert normalized_inner_product([1, 0], [0, 1]) == 0.0

    def test_hand_value(self):
        assert normalized_inner_product([1, 1], [1, 0]) == pytest.approx(
            1 / math.sqrt(2), abs=1e-6)

    def test_zero_norm_returns_zero(self):
        assert normalized_inner_product([0, 0, 0], [1, 2, 3]) == 0.0
        assert normalized_inner_product([1e-13, 0], [1, 0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            normalized_inner_product([1, 2], [1, 2, 3])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.normal(size=6), rng.normal(size=6)
            base = normalized_inner_product(u, v)
            for scale in (1e-3, 7.5, 1e4):
                assert abs(normalized_inner_product(scale * u, v) - base) < 1e-9
                assert abs(normalized_inner_product(u, scale * v) - base) < 1e-9


class TestAppearanceState:
    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            AppearanceState([1, 2], [1, 2, 3], [1, 2])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AppearanceState([1, np.nan], [1, 2], [1, 2])

    def test_blend_is_convex_combination(self):
        a = AppearanceState([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        b = AppearanceState([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
        out = a.blend(b, 0.9)
        np.testing.assert_allclose(out.e_img, [0.9, 0.1])


class TestClueWeights:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            ClueWeights(0, 0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ClueWeights(-0.1, 0.5, 0.6)

    @pytest.mark.parametrize("name", ["img", "bev", "head"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        # a NaN weight gates every stage-1 pair out without a word
        with pytest.raises(ValueError,
                           match=f"^{name}: must be a finite number$"):
            ClueWeights(**{name: value})


class TestMultiClueSimilarity:
    def test_identical_states(self):
        rng = np.random.default_rng(5)
        s = random_appearance(rng)
        w = ClueWeights()
        assert multi_clue_similarity(s, s, w) == pytest.approx(1.0)

    def test_zero_weighted_terms_vanish(self):
        w = ClueWeights(1.0, 0.0, 0.0)
        d = AppearanceState([1, 0], [1, 0], [1, 0])
        t = AppearanceState([1, 0], [0, 1], [0, 1])
        assert multi_clue_similarity(d, t, w) == pytest.approx(1.0)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d, t = random_appearance(rng), random_appearance(rng)
            w = ClueWeights(*rng.uniform(0.05, 1.0, size=3))
            want = (
                w.img * np.dot(d.e_img, t.e_img)
                / (np.linalg.norm(d.e_img) * np.linalg.norm(t.e_img))
                + w.bev * np.dot(d.e_bev, t.e_bev)
                / (np.linalg.norm(d.e_bev) * np.linalg.norm(t.e_bev))
                + w.head * np.dot(d.e_head, t.e_head)
                / (np.linalg.norm(d.e_head) * np.linalg.norm(t.e_head)))
            got = multi_clue_similarity(d, t, w)
            assert abs(got - want) < 1e-9
            assert abs(got) <= w.img + w.bev + w.head + 1e-12


class TestBuildSimilarityMatrix:
    def test_single_identical_pair(self):
        rng = np.random.default_rng(9)
        s = random_appearance(rng)
        c = build_similarity_matrix(stack_appearance([s]),
                                    stack_appearance([s]), ClueWeights(), 0.5)
        assert c.values.shape == (1, 1)
        assert c.values[0, 0] == pytest.approx(-1.0)
        assert c.gate_mask[0, 0]

    def test_empty_inputs(self):
        rng = np.random.default_rng(11)
        trks = [random_appearance(rng) for _ in range(3)]
        c = build_similarity_matrix(stack_appearance([]),
                                    stack_appearance(trks), ClueWeights(), 0.3)
        assert c.values.shape == (0, 3)
        assert solve_assignment(c) == []

    def test_gate_matches_threshold_oracle(self):
        rng = np.random.default_rng(13)
        dets = [random_appearance(rng) for _ in range(3)]
        trks = [random_appearance(rng) for _ in range(3)]
        # a zero-norm row and a zero-weighted clue
        trks.append(AppearanceState(np.zeros(8), np.zeros(8), np.zeros(8)))
        theta = 0.1
        for w in (ClueWeights(), ClueWeights(0.5, 0.0, 0.25)):
            c = build_similarity_matrix(stack_appearance(dets),
                                        stack_appearance(trks), w, theta)
            for i in range(3):
                for j in range(4):
                    sim = multi_clue_similarity(dets[i], trks[j], w)
                    assert c.values[i, j] == pytest.approx(-sim, abs=1e-12)
                    assert c.gate_mask[i, j] == (sim >= theta)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        dets = [random_appearance(rng) for _ in range(4)]
        trks = [random_appearance(rng) for _ in range(5)]
        w = ClueWeights()
        base = build_similarity_matrix(stack_appearance(dets),
                                       stack_appearance(trks), w, 0.2)
        perm_d = [2, 0, 3, 1]
        perm_t = [4, 2, 0, 1, 3]
        shuffled = build_similarity_matrix(
            stack_appearance([dets[i] for i in perm_d]),
            stack_appearance([trks[j] for j in perm_t]), w, 0.2)
        np.testing.assert_allclose(shuffled.values,
                                   base.values[np.ix_(perm_d, perm_t)],
                                   atol=1e-12)
        np.testing.assert_array_equal(shuffled.gate_mask,
                                      base.gate_mask[np.ix_(perm_d, perm_t)])


class TestStackAppearance:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        states = [random_appearance(rng, dim=5) for _ in range(4)]
        stacked = stack_appearance(states)
        assert stacked.shape == (4, 3, 5)
        back = unstack_appearance(stacked)
        for x, y in zip(states, back):
            for clue in ("e_img", "e_bev", "e_head"):
                np.testing.assert_array_equal(getattr(x, clue),
                                              getattr(y, clue))
        assert stack_appearance([]).shape == (0, 3, 0)
        assert unstack_appearance(np.zeros((0, 3, 7))) == []

    def test_unstack_rejects_non_finite_and_bad_shape(self):
        stacked = np.ones((2, 3, 4))
        stacked[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            unstack_appearance(stacked)
        with pytest.raises(ValueError, match="shape"):
            unstack_appearance(np.ones((2, 4)))


class TestSolveAssignment:
    def test_diagonal_optimum(self):
        c = CostMatrix(np.array([[-1.0, 0.0], [0.0, -1.0]]),
                       np.ones((2, 2), dtype=bool))
        assert solve_assignment(c) == [(0, 0), (1, 1)]

    def test_antidiagonal_optimum(self):
        c = CostMatrix(np.array([[-0.9, -1.0], [-1.0, -0.2]]),
                       np.ones((2, 2), dtype=bool))
        pairs = solve_assignment(c)
        assert pairs == [(0, 1), (1, 0)]
        assert sum(c.values[i, j] for i, j in pairs) == pytest.approx(-2.0)

    def test_gated_pairs_never_returned(self):
        values = np.array([[-1.0, -0.5], [-0.9, -0.8]])
        gate = np.array([[False, True], [True, False]])
        pairs = solve_assignment(CostMatrix(values, gate))
        assert pairs == [(0, 1), (1, 0)]
        values = np.full((2, 2), -1.0)
        assert solve_assignment(CostMatrix(values, np.zeros((2, 2), bool))) == []

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for trial in range(300):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            values = rng.normal(size=(n, m))
            gate = rng.uniform(size=(n, m)) < 0.8
            pairs = solve_assignment(CostMatrix(values, gate))
            want_pairs, want_cost = brute_force_assignment(values, gate)
            got_cost = math.fsum(values[i, j] for i, j in pairs)
            assert got_cost == pytest.approx(want_cost, abs=1e-12)
            assert len(pairs) == len(want_pairs)

    def test_pairs_sorted_plain_ints_and_gated(self):
        # tall, wide and square matrices: the pairs come out ordered by
        # detection index as Python ints, and only gated pairs survive
        rng = np.random.default_rng(23)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            values = rng.normal(size=(n, m))
            gate = rng.uniform(size=(n, m)) < 0.4
            pairs = solve_assignment(CostMatrix(values, gate))
            assert pairs == sorted(pairs)
            assert all(type(i) is int and type(j) is int for i, j in pairs)
            assert all(gate[i, j] for i, j in pairs)
            assert len({j for _, j in pairs}) == len(pairs)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        values = rng.normal(size=(5, 5))
        gate = rng.uniform(size=(5, 5)) < 0.7
        first = solve_assignment(CostMatrix(values, gate))
        for _ in range(10):
            assert solve_assignment(CostMatrix(values.copy(), gate.copy())) \
                == first
