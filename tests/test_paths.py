import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readpath.paths import (
    _check_permutation,
    _move_ranks,
    divergence_matrix,
    greedy_t2p_path,
    greedy_t2t_path,
    rank_distribution,
)
from readpath.surprise import kl_divergence, t2p_series

from conftest import random_simplex


def consecutive_ranks(matrix: np.ndarray, order) -> np.ndarray:
    """Plain reference for the ranks inside `rank_distribution`: rank of
    each consecutive move's divergence within its row (1 = nearest
    neighbor), excluding the self entry; equal divergences share the
    minimum (competition) rank."""
    m = np.asarray(matrix, dtype=np.float64)
    d = m.shape[0]
    o = _check_permutation(order, d)
    cur, nxt = o[:-1], o[1:]
    rows = m[cur]
    chosen = m[cur, nxt]
    less = (rows < chosen[:, None]).sum(axis=1)
    less -= (m[cur, cur] < chosen).astype(np.int64)  # self entry never competes
    return (less + 1).astype(np.int64)


def random_matrix_strategy(d=6):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda seed: _random_matrix(np.random.default_rng(seed), d)
    )


def tie_heavy_matrix(rng, d, kind):
    """Matrices with many exact ties: small integers (the diagonal too),
    divergences of repeated theta rows (exact off-diagonal zeros), or
    small integers with some NaN entries."""
    if kind == "duplicate_thetas":
        distinct = random_simplex(rng, max(1, d // 3), 3)
        return divergence_matrix(distinct[rng.integers(0, len(distinct), d)])
    m = rng.integers(0, 3, (d, d)).astype(np.float64)
    if kind == "nan":
        m[rng.random((d, d)) < 0.2] = np.nan
    return m


def _random_matrix(rng, d):
    m = rng.random((d, d))
    np.fill_diagonal(m, 0.0)
    return m


class TestDivergenceMatrix:
    def test_orientation_diagonal_and_sign(self, rng):
        thetas = random_simplex(rng, 5, 4)
        m = divergence_matrix(thetas)
        assert np.all(np.diag(m) == 0.0)
        assert m.min() >= 0.0
        assert m[1, 3] == pytest.approx(kl_divergence(thetas[3], thetas[1]), abs=1e-10)
        assert not np.allclose(m, m.T)  # asymmetric in general

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 12),
        k=st.integers(1, 8),
        concentration=st.sampled_from([0.05, 1.0, 50.0]),
        duplicates=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1, k=3, concentration=1.0, duplicates=False, seed=0)
    @example(d=2, k=2, concentration=1.0, duplicates=True, seed=1)
    @example(d=2, k=5, concentration=0.05, duplicates=False, seed=2)
    def test_bit_equal_to_two_temporary_expression(self, d, k, concentration, duplicates, seed):
        # The expression `divergence_matrix` had before it was built in
        # place, kept as the bitwise oracle. Repeated rows give exact-zero
        # and slightly negative entries that the clip meets.
        rng = np.random.default_rng(seed)
        thetas = np.maximum(rng.dirichlet(np.full(k, concentration), size=d), 1e-300)
        if duplicates:
            thetas = thetas[rng.integers(0, d, d)]
        log_t = np.log2(thetas)
        negent = np.sum(thetas * log_t, axis=1)
        expected = negent[None, :] - log_t @ thetas.T
        np.fill_diagonal(expected, 0.0)
        expected = np.maximum(expected, 0.0)
        assert divergence_matrix(thetas).tobytes() == expected.tobytes()


class TestGreedyT2T:
    def test_tie_break_gives_ascending_order(self):
        m = np.full((5, 5), 2.0)
        np.fill_diagonal(m, 0.0)
        path = greedy_t2t_path(m, start_index=2)
        assert path.order == (2, 0, 1, 3, 4)
        assert path.mean_bits == 2.0

    def test_four_node_toy_against_brute_force(self, rng):
        m = _random_matrix(rng, 4)
        path = greedy_t2t_path(m, 0)
        visited = {0}
        cur = 0
        for nxt in path.order[1:]:
            candidates = [j for j in range(4) if j not in visited]
            assert m[cur, nxt] == min(m[cur, j] for j in candidates)
            visited.add(nxt)
            cur = nxt

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            greedy_t2t_path(np.zeros((0, 0)))

    @given(random_matrix_strategy())
    @settings(max_examples=60)
    def test_output_is_permutation_attaining_row_minima(self, m):
        path = greedy_t2t_path(m, 0)
        assert sorted(path.order) == list(range(6))
        visited = {path.order[0]}
        for s, nxt in enumerate(path.order[1:]):
            cur = path.order[s]
            best = min(m[cur, j] for j in range(6) if j not in visited)
            assert m[cur, nxt] == best
            assert path.step_bits[s] == m[cur, nxt]
            visited.add(nxt)


class TestGreedyT2P:
    def test_two_documents_only_path(self, rng):
        thetas = random_simplex(rng, 2, 3)
        path = greedy_t2p_path(thetas, 0)
        assert path.order == (0, 1)
        assert path.mean_bits == pytest.approx(t2p_series(thetas).values[0], abs=1e-12)

    def test_identical_thetas_ascending_zero(self):
        path = greedy_t2p_path(np.tile([0.25, 0.75], (5, 1)), 0)
        assert path.order == (0, 1, 2, 3, 4)
        assert path.mean_bits == 0.0
        # non-dyadic weights accumulate float noise in the running mean
        noisy = greedy_t2p_path(np.tile([0.3, 0.7], (5, 1)), 0)
        assert noisy.order == (0, 1, 2, 3, 4)
        assert noisy.mean_bits <= 1e-12

    def test_four_document_per_step_brute_force(self, rng):
        thetas = random_simplex(rng, 4, 3)
        path = greedy_t2p_path(thetas, 0)
        visited = [0]
        for nxt in path.order[1:]:
            past_mean = thetas[visited].mean(axis=0)
            candidates = {
                j: kl_divergence(thetas[j], past_mean) for j in range(4) if j not in visited
            }
            assert candidates[nxt] == pytest.approx(min(candidates.values()), abs=1e-12)
            visited.append(nxt)

    def test_start_out_of_range(self, rng):
        with pytest.raises(ValueError):
            greedy_t2p_path(random_simplex(rng, 3, 2), 3)


class TestRanks:
    def test_nearest_neighbor_order_all_rank_one(self):
        d = 5
        m = np.full((d, d), 2.0) + np.arange(d)[None, :] * 0.01
        np.fill_diagonal(m, 0.0)
        for i in range(d - 1):
            m[i, i + 1] = 1.0  # unique global nearest neighbor of i is i+1
        ranks = consecutive_ranks(m, list(range(d)))
        assert np.all(ranks == 1)

    def test_hand_computed_ranks(self):
        m = np.array(
            [
                [0.0, 3.0, 1.0, 2.0],
                [5.0, 0.0, 4.0, 6.0],
                [9.0, 7.0, 0.0, 8.0],
                [1.0, 2.0, 3.0, 0.0],
            ]
        )
        # moves 0->1 (3.0 is 3rd smallest in row 0 excl self), 1->2 (4.0 is
        # 1st), 2->3 (8.0 is 2nd)
        ranks = consecutive_ranks(m, [0, 1, 2, 3])
        assert ranks.tolist() == [3, 1, 2]

    def test_rank_ties_use_competition_rank(self):
        m = np.array([[0.0, 2.0, 2.0, 5.0]] * 4)
        np.fill_diagonal(m, 0.0)
        ranks = consecutive_ranks(m, [0, 2, 1, 3])
        assert ranks[0] == 1  # 2.0 ties for nearest: minimum rank

    def test_monotone_transform_invariance(self, rng):
        m = _random_matrix(rng, 6)
        order = list(rng.permutation(6))
        r1 = consecutive_ranks(m, order)
        r2 = consecutive_ranks(np.exp(3.0 * m) - 1.0, order)
        np.testing.assert_array_equal(r1, r2)

    def test_non_permutation_rejected(self, rng):
        m = _random_matrix(rng, 4)
        null_orders = np.array([rng.permutation(4) for _ in range(3)])
        with pytest.raises(ValueError, match="permutation"):
            rank_distribution(m, [0, 1, 1, 3], null_orders)
        with pytest.raises(ValueError):
            consecutive_ranks(m, [0, 1, 1, 3])

    def test_distribution_bins_and_ratio(self, rng):
        d = 9
        m = _random_matrix(rng, d)
        observed = list(range(d))
        null_orders = np.array([rng.permutation(d) for _ in range(200)])
        rd = rank_distribution(m, observed, null_orders)
        assert rd.bin_edges[0] == 1.0
        assert rd.bin_edges[-1] >= d - 1
        assert rd.observed_counts.sum() == d - 1
        assert rd.null_counts.sum() == 200 * (d - 1)
        ok = np.isfinite(rd.ratio)
        assert np.all(rd.ratio_low[ok] <= rd.ratio_high[ok])
        np.testing.assert_allclose(
            rd.ratio[ok], rd.observed_props[ok] / rd.null_props[ok], atol=1e-12
        )

    @settings(max_examples=120, deadline=None)
    @given(
        d=st.integers(2, 12),
        n_null=st.integers(1, 8),
        kind=st.sampled_from(["integer", "duplicate_thetas", "nan"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=7, n_null=1, kind="duplicate_thetas", seed=0)
    @example(d=2, n_null=1, kind="integer", seed=3)
    def test_sorted_row_ranks_equal_consecutive_ranks(self, d, n_null, kind, seed):
        rng = np.random.default_rng(seed)
        m = tie_heavy_matrix(rng, d, kind)
        orders = np.array([rng.permutation(d) for _ in range(n_null + 1)])
        expected = np.array([consecutive_ranks(m, o) for o in orders])
        np.testing.assert_array_equal(np.vstack(_move_ranks(m, orders[0], orders[1:])), expected)
        rd = rank_distribution(m, orders[0], orders[1:])
        np.testing.assert_array_equal(rd.observed_ranks, expected[0])
        np.testing.assert_array_equal(rd.null_counts, np.histogram(expected[1:], bins=rd.bin_edges)[0])

    @pytest.mark.parametrize(
        "null_orders",
        [np.zeros((0, 4), dtype=int), np.arange(4), [[0, 1, 2]], [[0, 1, 2, 3], [0, 1, 1, 3]]],
        ids=["empty", "one_dimensional", "wrong_length", "not_a_permutation"],
    )
    def test_bad_null_orders_rejected(self, rng, null_orders):
        with pytest.raises(ValueError):
            rank_distribution(_random_matrix(rng, 4), np.arange(4), null_orders)
