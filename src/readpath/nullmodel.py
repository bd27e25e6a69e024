"""Publication-constrained null model and publication-order baseline.

The null holds the reading dates fixed and redraws which title was read
at each date, restricted to titles already published by that date (year
resolution: pub_year <= year of the slot's read date). Slots are filled
in ascending date order by a uniform choice over the feasible remaining
titles. Because the feasible sets are nested as slot years ascend, and
removing any feasible title shrinks every later slot's feasible count by
exactly one, the number of completions never depends on which feasible
title is chosen, so this sequential procedure is exactly uniform over
all valid permutations.

Sample j of an ensemble draws from its own PCG64 stream seeded by
(seed, j). `null_permutations` is the one place that samples: both null
kinds (`build_null`) and the rank statistics read the same M orders. It
fills all M permutations slot by slot together, one array step per slot
(D steps over M rows), in one `sample_batch` call.

Both ensembles evaluate their orders with `surprise._OrderValues`, the
one evaluator of every order's surprise: the M null orders and the Monte
Carlo publication orders, each order once for both kinds, in O(D * k)
scratch beside the (M, D-1) values of each kind that `build_null` reduces.
The within-year shuffles are drawn once per call, one order at a time,
and each serves both kinds. The exact publication-order mean evaluates
each year's tie orders through `surprise`'s row kernel in fixed-size
blocks.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .surprise import KINDS, PUBLICATION_ORDER, SurpriseSeries, _check_sequence, _kl_rows, _OrderValues

# Stream tag for within-year shuffles, disjoint from per-sample tags (0..M-1).
_PUBORDER_STREAM = 2**62

# Tie orders per array in the exact publication-order mean (bounds memory).
EXACT_BLOCK = 120


@dataclass(frozen=True)
class NullConfig:
    samples: int = 1000
    seed: int = 0
    within_year_exact_threshold: int = 6
    within_year_samples: int = 100

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.within_year_exact_threshold < 1 or self.within_year_samples < 1:
            raise ValueError("within-year settings must be >= 1")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


class ConstrainedPermutationSampler:
    """Uniform sampler over date-feasible assignments of titles to slots.

    ``sample_batch`` returns permutations ``perm`` where ``perm[t]`` is the
    original index of the title assigned to reading slot t (slots in
    reading order). The one-row ``sample`` has no caller in the program; it
    stays because perfbench's tracer (``perfbench/tracer.py``) counts the
    permutations drawn through it and looks it up by name.
    """

    def __init__(self, records):
        if not records:
            raise InputError("cannot sample permutations of an empty reading list")
        dates = [r.read_date for r in records]
        if any(b < a for a, b in zip(dates, dates[1:])):
            raise ValueError("records must be in reading order (nondecreasing dates)")
        self.n = len(records)
        self.slot_years = np.array([r.read_date.year for r in records], dtype=np.int64)
        self.pub_years = np.array([r.pub_year for r in records], dtype=np.int64)
        # Titles enter the candidate pool in (pub_year, index) order.
        self.arrival_order = np.lexsort((np.arange(self.n), self.pub_years))
        sorted_pub = self.pub_years[self.arrival_order]
        self.available_by_slot = np.searchsorted(sorted_pub, self.slot_years, side="right")
        infeasible = np.nonzero(self.available_by_slot < np.arange(1, self.n + 1))[0]
        if len(infeasible):
            t = int(infeasible[0])
            raise InputError(
                f"infeasible reading list: slot {t} (year {self.slot_years[t]}) has only "
                f"{self.available_by_slot[t]} feasible titles for {t + 1} slots"
            )

    def sample_batch(self, rngs: Sequence[np.random.Generator], count: int) -> np.ndarray:
        """Draw ``count`` independent permutations, row i from the uniforms
        of ``rngs[i]``. One Generator repeated, ``[rng] * count``, fills the
        rows from its uniforms in turn.

        Every row is filled slot by slot in lockstep: at slot t each row's
        pool of feasible titles not yet placed has the same size,
        ``available_by_slot[t] - t``, so one array step appends the slot's
        arrivals to every pool, picks ``pool[int(u * size)]`` in each row
        and swap-removes the pick.
        """
        if len(rngs) != count:
            raise ValueError(f"need one generator per sample: {len(rngs)} for {count}")
        # The result is allocated first, below the temporaries in the heap,
        # so that they can be given back to the system when freed.
        out = np.empty((count, self.n), dtype=np.int64)
        u = np.empty((count, self.n))
        for row, g in zip(u, rngs):
            g.random(out=row)
        sizes = self.available_by_slot - np.arange(self.n)
        # min() keeps u = 1.0 in the pool; a Generator's doubles stay below 1.
        picks = np.minimum((u * sizes).astype(np.int64), sizes - 1)
        rows = np.arange(count)
        pool = np.empty((count, self.n), dtype=np.int64)
        size = 0
        for t, stop in enumerate(self.available_by_slot.tolist()):
            arrivals = self.arrival_order[size + t : stop]
            pool[:, size : size + len(arrivals)] = arrivals
            size += len(arrivals) - 1
            j = picks[:, t]
            out[:, t] = pool[rows, j]
            pool[rows, j] = pool[:, size]
        return out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_batch([rng], 1)[0]

    def check(self, perm: np.ndarray) -> None:
        if np.any(self.pub_years[perm] > self.slot_years):
            raise AssertionError("sampled permutation violates the publication constraint")


def _sample_rng(seed: int, j: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, j))))


def null_permutations(records, config: NullConfig) -> np.ndarray:
    """The ensemble's M permutations as an (M, D) array, each checked
    against the publication constraint; row j comes from stream (seed, j),
    so a rerun regenerates exactly the same orders."""
    sampler = ConstrainedPermutationSampler(records)
    rngs = [_sample_rng(config.seed, j) for j in range(config.samples)]
    out = sampler.sample_batch(rngs, config.samples)
    sampler.check(out)
    return out


@dataclass(frozen=True)
class NullEnsemble:
    """Null statistics for one surprise kind over M constrained permutations."""

    kind: str
    position_mean: np.ndarray  # length D-1
    position_std: np.ndarray  # length D-1
    sample_aggregates: np.ndarray  # length M
    observed_aggregate: float
    p_value: float

    def __post_init__(self):
        _check_kind(self.kind)
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError("p-value out of [0, 1]")

    @property
    def aggregate_mean(self) -> float:
        return float(self.sample_aggregates.mean())

    @property
    def aggregate_std(self) -> float:
        return float(self.sample_aggregates.std())

    def aggregate_quantiles(self) -> list[float]:
        """The 2.5% and 97.5% quantiles of the sample aggregates."""
        return [float(x) for x in np.quantile(self.sample_aggregates, (0.025, 0.975))]


def build_null(thetas, perms) -> dict[str, NullEnsemble]:
    """Evaluate both surprise kinds of each permutation in ``perms`` (an
    (M, D) array of orders, as from `null_permutations`) and reduce each
    kind to per-position and aggregate null statistics, keyed by kind.

    The one-sided empirical p-value tests for below-null surprise:
    (#{samples with aggregate <= observed} + 1) / (M + 1).
    """
    thetas = _check_sequence(thetas)
    perms = np.asarray(perms, dtype=np.int64)
    d = thetas.shape[0]
    if perms.ndim != 2 or len(perms) == 0 or perms.shape[1] != d:
        raise ValueError("perms must be a nonempty (M, D) array of orders over the D thetas")
    if perms.min() < 0 or perms.max() >= d:
        raise ValueError("perms must index the D thetas")
    evaluate = _OrderValues(thetas)
    # One array per kind: one stacked (2, M, D-1) block raised the later
    # peak RSS of a long-list run by about 2 MB, as freed blocks that large
    # stay with the process.
    values = [np.empty((len(perms), d - 1)) for _ in KINDS]
    for j, perm in enumerate(perms):
        evaluate(perm, [v[j] for v in values])
    observed = np.empty((len(KINDS), d - 1))
    evaluate(np.arange(d), observed)

    out = {}
    for kind, kind_values, kind_observed in zip(KINDS, values, observed):
        aggregates = kind_values.mean(axis=1)
        observed_mean = float(kind_observed.mean())
        p = (int(np.count_nonzero(aggregates <= observed_mean)) + 1) / (len(perms) + 1)
        out[kind] = NullEnsemble(
            kind=kind,
            position_mean=kind_values.mean(axis=0),
            position_std=kind_values.std(axis=0),
            sample_aggregates=aggregates,
            observed_aggregate=observed_mean,
            p_value=p,
        )
    return out


def _year_groups(records) -> list[list[int]]:
    """Document indices grouped by publication year, each group in a
    canonical (pub_year, reading-order) sort."""
    order = sorted(range(len(records)), key=lambda i: (records[i].pub_year, records[i].read_seq))
    groups: list[list[int]] = []
    for i in order:
        if groups and records[groups[-1][-1]].pub_year == records[i].pub_year:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _exact_within_year_values(thetas: np.ndarray, groups: list[list[int]], kind: str) -> np.ndarray:
    """Per-position expectation over the product of all within-year orders.

    Positions inside a year group depend only on that group's order; the
    only cross-group term is the local (T2T) value at a group boundary,
    whose expectation factorizes into a uniform pair average because the
    last element of one group and the first of the next are independent
    and uniform under uniform within-group orders. A group's orders go
    through `_kl_rows` as (orders, m, k) blocks of `EXACT_BLOCK`, summed
    in enumeration order.
    """
    k = thetas.shape[1]
    parts = []
    prefix = np.zeros(k)
    n_before = 0
    prev_group: list[int] | None = None
    for g in groups:
        m = len(g)
        # T2T starts at each group's second document, T2P at the corpus's.
        lo = 1 if kind == "T2T" or n_before == 0 else 0
        acc = np.zeros(m)
        orders = itertools.permutations(g)
        while block := list(itertools.islice(orders, EXACT_BLOCK)):
            q = thetas[np.array(block)]
            if kind == "T2P":
                start = np.broadcast_to(prefix, (len(block), 1, k))
                past = np.cumsum(np.concatenate([start, q[:, :-1]], axis=1), axis=1)[:, lo:]
                past /= (n_before + np.arange(lo, m))[:, None]
                block_vals = _kl_rows(q[:, lo:], np.divide(q[:, lo:], past, out=past))
            else:
                block_vals = _kl_rows(q[:, 1:], q[:, 1:] / q[:, :-1])
            acc[lo:] = np.cumsum(np.vstack([acc[lo:], block_vals]), axis=0)[-1]
        acc /= math.factorial(m)
        if kind == "T2T" and prev_group is not None:
            firsts = thetas[g][None, :, :]
            pairs = _kl_rows(firsts, firsts / thetas[prev_group][:, None, :])
            acc[0] = float(np.mean(pairs.ravel()))
        parts.append(acc)
        prefix += thetas[g].sum(axis=0)
        n_before += m
        prev_group = g
    return np.concatenate(parts)[1:]


def _within_year_orders(groups: list[list[int]], config: NullConfig):
    """Yield the ``within_year_samples`` Monte Carlo publication orders, one
    at a time in one reused array: each shuffles every year group in turn,
    all from the one stream (seed, 2**62). Each order starts as the groups
    in canonical order and each group's slice is shuffled in place, which
    draws what ``rng.permutation(group)`` draws (a copy, then the same
    shuffle); a group of one draws nothing, so it is skipped."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((config.seed, _PUBORDER_STREAM)))
    )
    bounds = np.cumsum([0] + [len(g) for g in groups]).tolist()
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi - lo > 1]
    canonical = np.array([i for g in groups for i in g], dtype=np.int64)
    order = np.empty_like(canonical)
    for _ in range(config.within_year_samples):
        order[:] = canonical
        for lo, hi in spans:
            rng.shuffle(order[lo:hi])
        yield order


def publication_order_series(thetas, records, config: NullConfig) -> dict[str, SurpriseSeries]:
    """Both kinds of surprise along publication order, keyed by kind,
    averaged over within-year tie orders: exactly (per-group enumeration)
    when every tie group is at most ``within_year_exact_threshold``
    documents, otherwise over ``within_year_samples`` Monte Carlo
    shuffles, drawn once for both kinds. Positions are ordinal.
    """
    thetas = _check_sequence(thetas)
    if thetas.shape[0] != len(records):
        raise ValueError("thetas and records must align")

    groups = _year_groups(records)
    if all(len(g) <= config.within_year_exact_threshold for g in groups):
        vals = [_exact_within_year_values(thetas, groups, kind) for kind in KINDS]
    else:
        evaluate = _OrderValues(thetas)
        acc = np.zeros((len(KINDS), thetas.shape[0] - 1))
        row = np.empty_like(acc)
        for order in _within_year_orders(groups, config):
            evaluate(order, row)
            acc += row
        vals = acc / config.within_year_samples
    return {
        kind: SurpriseSeries(kind=kind, values=v, ordering=PUBLICATION_ORDER)
        for kind, v in zip(KINDS, vals)
    }


def publication_order_ids(records) -> list[int]:
    """Canonical representative order (pub_year, then reading order);
    within-year averaging makes per-position documents representative
    only, which series metadata should note."""
    return [i for g in _year_groups(records) for i in g]
