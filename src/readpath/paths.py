"""Greedy low-surprise traversals and rank statistics of consecutive choices.

The divergence matrix is oriented for reading direction: ``m[i, j]`` is
the surprise of moving to document j immediately after document i, so a
greedy walk scans its current row for the smallest unvisited entry. The
matrix is generally asymmetric.

The rank statistics rank each consecutive move's divergence within its
row (1 = nearest neighbor), excluding the self entry, with equal
divergences sharing the minimum (competition) rank, and compare the
observed order's log-binned ranks with the null orders'. They are two
steps. `rank_counts`, the only one that reads the matrix, sorts each row
once and ranks every move of the observed and the M null orders by binary
search in its row: O(D² log D + M·D log D) time and O(M·D) extra memory.
`rank_bands`, the Clopper-Pearson bands, is the only one that loads
scipy. The ranks step frees the D x D matrix between them, in `run` and
staged alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surprise import _check_distributions


def divergence_matrix(thetas) -> np.ndarray:
    """D x D matrix with m[i, j] = KL(theta_j | theta_i) in bits and an
    exactly-zero diagonal."""
    t = _check_distributions(thetas)
    log_t = np.log2(t)
    negent = np.sum(t * log_t, axis=1)  # sum_x theta_j log2 theta_j
    m = log_t @ t.T  # [i, j]; the only D x D array
    np.subtract(negent[None, :], m, out=m)
    np.fill_diagonal(m, 0.0)
    np.maximum(m, 0.0, out=m)
    return m


@dataclass(frozen=True)
class GreedyPath:
    order: tuple[int, ...]
    step_bits: np.ndarray  # one entry per move, len(order) - 1

    @property
    def mean_bits(self) -> float:
        return float(self.step_bits.mean()) if len(self.step_bits) else 0.0


def greedy_t2t_path(matrix, start_index: int = 0) -> GreedyPath:
    """Visit every document once, always moving to the unvisited document
    with the smallest divergence from the current one; ties break to the
    lowest index."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.size == 0:
        raise ValueError("empty matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    d = m.shape[0]
    if not (0 <= start_index < d):
        raise ValueError(f"start_index {start_index} out of range")
    visited = np.zeros(d, dtype=bool)
    visited[start_index] = True
    order = [start_index]
    steps = np.empty(d - 1, dtype=np.float64)
    cur = start_index
    for s in range(d - 1):
        row = np.where(visited, np.inf, m[cur])
        nxt = int(np.argmin(row))  # argmin takes the first minimum: lowest index
        steps[s] = m[cur, nxt]
        visited[nxt] = True
        order.append(nxt)
        cur = nxt
    return GreedyPath(order=tuple(order), step_bits=steps)


def greedy_t2p_path(thetas, start_index: int = 0) -> GreedyPath:
    """Like the local greedy walk, but each step minimizes the divergence
    from the candidate to the running mean of everything visited so far."""
    t = _check_distributions(thetas)
    d = t.shape[0]
    if not (0 <= start_index < d):
        raise ValueError(f"start_index {start_index} out of range")
    negent = np.sum(t * np.log2(t), axis=1)
    visited = np.zeros(d, dtype=bool)
    visited[start_index] = True
    order = [start_index]
    steps = np.empty(d - 1, dtype=np.float64)
    running = t[start_index].copy()
    for s in range(d - 1):
        past_mean = running / len(order)
        vals = negent - t @ np.log2(past_mean)
        vals = np.where(visited, np.inf, np.maximum(vals, 0.0))
        nxt = int(np.argmin(vals))
        steps[s] = vals[nxt]
        visited[nxt] = True
        order.append(nxt)
        running += t[nxt]
    return GreedyPath(order=tuple(order), step_bits=steps)


def _check_permutation(order, d: int) -> np.ndarray:
    o = np.asarray(order, dtype=np.int64)
    if o.shape != (d,) or not np.array_equal(np.sort(o), np.arange(d)):
        raise ValueError("order must be a permutation of 0..D-1")
    return o


@dataclass(frozen=True)
class RankDistribution:
    observed_ranks: np.ndarray
    bin_edges: np.ndarray  # powers of 2: [1, 2, 4, ...]
    observed_counts: np.ndarray
    null_counts: np.ndarray
    observed_props: np.ndarray
    null_props: np.ndarray
    ratio: np.ndarray  # observed/null per bin; nan where the null is empty
    ratio_low: np.ndarray  # 95% band from binomial (Clopper-Pearson) bounds
    ratio_high: np.ndarray


def _move_ranks(m: np.ndarray, observed: np.ndarray, null_orders: np.ndarray) -> np.ndarray:
    """Move ranks of the observed order and of every null order (checked
    permutations), from one sort per matrix row: row i's moves are i -> the
    document after i in each order, and a move's count of smaller entries
    in the row is a binary search of the sorted row. Returns ranks[o, i],
    the rank of the move out of document i in order o (row 0 the observed
    order, row j + 1 null order j), and 0 where i is the order's last."""
    d = m.shape[0]
    orders = np.arange(len(null_orders) + 1)
    last = np.concatenate((observed[-1:], null_orders[:, -1]))
    # moves[o, i]: the document after i in order o (i itself when i is last),
    # overwritten column by column with the rank of that move; both are below
    # D. The orders are scattered into it one by one, not stacked into one
    # copy first, and the caller bins its rows in place, not a gathered copy:
    # the count pass runs while the D x D matrix is live, and sets the peak RSS.
    moves = np.empty((len(orders), d), dtype=np.int32)
    moves[0, observed[:-1]] = observed[1:]
    moves[orders[1:, None], null_orders[:, :-1]] = null_orders[:, 1:]
    moves[orders, last] = last
    for i in range(d):
        row = m[i]
        chosen = row[moves[:, i]]
        sorted_row = np.sort(row)
        less = np.searchsorted(sorted_row, chosen, side="left")
        if np.isnan(sorted_row[-1]):  # sorted last; a NaN divergence beats nothing
            less[np.isnan(chosen)] = 0
        less -= row[i] < chosen  # self entry never competes
        moves[:, i] = less + 1
    moves[orders, last] = 0  # no move leaves an order's last document
    return moves


@dataclass(frozen=True)
class RankCounts:
    """The matrix-dependent half of a `RankDistribution`: the observed
    ranks and the binned counts of the observed and null moves."""

    observed_ranks: np.ndarray
    bin_edges: np.ndarray
    observed_counts: np.ndarray
    null_counts: np.ndarray


def rank_counts(matrix, observed_order, null_orders) -> RankCounts:
    """Rank every move of the observed order and of the null ensemble's
    orders within its matrix row, from one sort per row, and bin the ranks
    by powers of 2. Nothing of the matrix stays referenced by the result."""
    m = np.asarray(matrix, dtype=np.float64)
    d = m.shape[0]
    if d < 2:
        raise ValueError("need at least 2 documents")
    observed = _check_permutation(observed_order, d)
    null_orders = np.asarray(null_orders, dtype=np.int64)
    if null_orders.ndim != 2 or len(null_orders) == 0:
        raise ValueError("null_orders must be a nonempty 2-D array of permutations")
    if null_orders.shape[1] != d or np.any(np.sort(null_orders, axis=1) != np.arange(d)):
        raise ValueError("order must be a permutation of 0..D-1")
    ranks = _move_ranks(m, observed, null_orders)
    obs_ranks = ranks[0, observed[:-1]]

    # Every rank in [1, D-1] falls strictly inside [2^b, 2^(b+1)), and the
    # 0 of each order's last document below them all.
    n_bins = int(np.floor(np.log2(d - 1))) + 1
    edges = 2.0 ** np.arange(n_bins + 1)
    obs_counts, _ = np.histogram(obs_ranks, bins=edges)
    null_counts, _ = np.histogram(ranks[1:], bins=edges)
    return RankCounts(
        observed_ranks=obs_ranks, bin_edges=edges, observed_counts=obs_counts, null_counts=null_counts
    )


def rank_bands(counts: RankCounts) -> RankDistribution:
    """Per-bin proportions, observed/null ratios and their 95% bands from
    Clopper-Pearson bounds; the one step that loads scipy."""
    obs_counts, null_counts = counts.observed_counts, counts.null_counts
    n_obs = len(counts.observed_ranks)
    n_null = int(null_counts.sum())  # every rank falls in a bin: M * (D - 1)
    obs_props = obs_counts / n_obs
    null_props = null_counts / n_null

    lo = np.array([_beta_bound(c, n_obs, 0.025) for c in obs_counts])
    hi = np.array([_beta_bound(c, n_obs, 0.975) for c in obs_counts])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(null_props > 0, obs_props / null_props, np.nan)
        ratio_low = np.where(null_props > 0, lo / null_props, np.nan)
        ratio_high = np.where(null_props > 0, hi / null_props, np.nan)
    return RankDistribution(
        observed_ranks=counts.observed_ranks,
        bin_edges=counts.bin_edges,
        observed_counts=obs_counts,
        null_counts=null_counts,
        observed_props=obs_props,
        null_props=null_props,
        ratio=ratio,
        ratio_low=ratio_low,
        ratio_high=ratio_high,
    )


def _beta_bound(count: int, n: int, q: float) -> float:
    """Clopper-Pearson binomial proportion bound: the q-quantile of a Beta
    distribution, through the inverse regularized incomplete beta function."""
    # Loaded here, not at module import: scipy.special costs about 0.3 s to
    # import, and only the ranks stage needs it.
    from scipy.special import betaincinv

    if q < 0.5:
        return 0.0 if count == 0 else float(betaincinv(count, n - count + 1, q))
    return 1.0 if count == n else float(betaincinv(count + 1, n - count, q))
