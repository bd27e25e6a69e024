import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from readpath import nullmodel
from readpath.errors import InputError
from readpath.nullmodel import (
    ConstrainedPermutationSampler,
    NullConfig,
    build_null,
    null_permutations,
    publication_order_series,
)
from readpath.surprise import _OrderValues, kl_divergence, t2p_series, t2t_series

from conftest import make_records, random_simplex


def kl_rows(q, p):
    """`kl_divergence` along the last axis, in plain array arithmetic."""
    return np.maximum(np.sum(q * np.log2(q / p), axis=-1), 0.0)


def pairwise_values(thetas):
    """T2T oracle: KL from each row to the one before it."""
    return kl_rows(thetas[1:], thetas[:-1])


def window_mean_values(thetas):
    """T2P oracle: KL from each row to the mean of every row before it,
    a difference of prefix sums over the count."""
    cs = np.vstack([np.zeros(thetas.shape[1]), np.cumsum(thetas, axis=0)])
    counts = np.arange(1.0, thetas.shape[0])
    return kl_rows(thetas[1:], (cs[1:-1] - cs[0]) / counts[:, None])


SERIES_VALUES = {"T2T": pairwise_values, "T2P": window_mean_values}


def scalar_exact_within_year_values(thetas, groups, kind):
    """Loop reference for the exact publication-order mean: one scalar
    `kl_divergence` per (order, position), summed in enumeration order."""
    vals, prefix, n_before, prev = [], np.zeros(thetas.shape[1]), 0, None
    for g in groups:
        acc = np.zeros(len(g))
        for perm in itertools.permutations(g):
            running, nb = prefix.copy(), n_before
            for r, doc in enumerate(perm):
                if kind == "T2P" and nb > 0:
                    acc[r] += kl_divergence(thetas[doc], running / nb)
                elif kind == "T2T" and r >= 1:
                    acc[r] += kl_divergence(thetas[doc], thetas[perm[r - 1]])
                running += thetas[doc]
                nb += 1
        acc /= math.factorial(len(g))
        if kind == "T2T" and prev is not None:
            acc[0] = np.mean([kl_divergence(thetas[b], thetas[a]) for a in prev for b in g])
        vals.extend(acc)
        prefix += thetas[g].sum(axis=0)
        n_before += len(g)
        prev = g
    return np.array(vals[1:])


def loop_sample_batch(sampler, u):
    """Per-sample loop reference for `sample_batch`: each row fills its
    slots one by one from a list pool, with uniforms ``u[row]``."""
    out = np.empty(u.shape, dtype=np.int64)
    arrival = sampler.arrival_order.tolist()
    avail = sampler.available_by_slot.tolist()
    for s, us in enumerate(u.tolist()):
        pool, ptr = [], 0
        for t in range(sampler.n):
            while ptr < avail[t]:
                pool.append(arrival[ptr])
                ptr += 1
            m = len(pool)
            j = min(int(us[t] * m), m - 1)
            out[s, t] = pool[j]
            pool[j] = pool[-1]
            pool.pop()
    return out


def loop_build_null(thetas, perms, kind):
    """Per-order loop reference for `build_null`: each order's series from
    `surprise`'s value function of the kind, then the same reductions."""
    series_values = SERIES_VALUES[kind]
    values = np.empty((len(perms), thetas.shape[0] - 1))
    for j, perm in enumerate(perms):
        values[j] = series_values(thetas[perm])
    observed = float(series_values(thetas).mean())
    aggregates = values.mean(axis=1)
    p = (int(np.count_nonzero(aggregates <= observed)) + 1) / (len(perms) + 1)
    return values.mean(axis=0), values.std(axis=0), aggregates, observed, p


def loop_monte_carlo_publication_order(thetas, records, kind, config):
    """Per-sample loop reference for the Monte Carlo publication order: each
    shuffle drawn from list groups, one kind at a time."""
    groups = nullmodel._year_groups(records)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 2**62))))
    acc = np.zeros(thetas.shape[0] - 1)
    for _ in range(config.within_year_samples):
        order = np.concatenate([rng.permutation(g) for g in groups])
        acc += SERIES_VALUES[kind](thetas[order])
    return acc / config.within_year_samples


@st.composite
def theta_rows(draw):
    """Strictly positive simplex rows: Dirichlet draws, some rows repeated,
    some entries tiny."""
    d = draw(st.integers(2, 12))
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = rng.dirichlet(np.full(k, draw(st.sampled_from([0.05, 1.0, 20.0]))), size=d)
    if draw(st.booleans()):
        thetas[rng.integers(0, d, d // 2)] = thetas[rng.integers(0, d)]
    thetas = np.maximum(thetas, draw(st.sampled_from([1e-300, 1e-12])))
    return thetas / thetas.sum(axis=1, keepdims=True)


TWO_BY_TWO = np.array([[0.3, 0.7], [0.6, 0.4]])
REPEATED = np.tile([0.2, 0.3, 0.5], (5, 1))
TINY = np.array([[1e-300, 1 - 1e-300], [0.5, 0.5], [1 - 1e-300, 1e-300], [1e-300, 1 - 1e-300]])


class FixedUniforms:
    """Stands in for a Generator whose next uniforms are ``values``."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, out):
        out[:] = self.values


def valid_permutations(records):
    """Brute-force enumeration oracle over all date-feasible assignments."""
    n = len(records)
    slot_years = [r.read_date.year for r in records]
    pubs = [r.pub_year for r in records]
    out = []
    for perm in itertools.permutations(range(n)):
        if all(pubs[perm[t]] <= slot_years[t] for t in range(n)):
            out.append(perm)
    return out


class TestSampler:
    def test_forced_choices_identity(self, rng):
        records = make_records(pub_years=[1840, 1850, 1860], read_years=[1840, 1850, 1860])
        perm = ConstrainedPermutationSampler(records).sample_batch([rng])[0]
        assert list(perm) == [0, 1, 2]

    def test_unconstrained_four_titles_uniform(self):
        records = make_records(pub_years=[1840] * 4, read_years=[1850] * 4)
        oracle = valid_permutations(records)
        assert len(oracle) == 24
        sampler = ConstrainedPermutationSampler(records)
        draws = sampler.sample_batch([np.random.default_rng(7)] * 12000)
        counts = Counter(tuple(d) for d in draws)
        expected = 12000 / 24
        chi2 = sum((counts.get(p, 0) - expected) ** 2 / expected for p in oracle)
        assert chi2 < stats.chi2.ppf(0.999, df=23)

    def test_partially_constrained_two_orders(self):
        records = make_records(pub_years=[1840, 1850, 1850], read_years=[1840, 1850, 1850])
        oracle = valid_permutations(records)
        assert len(oracle) == 2
        sampler = ConstrainedPermutationSampler(records)
        draws = sampler.sample_batch([np.random.default_rng(1)] * 8000)
        counts = Counter(tuple(d) for d in draws)
        assert set(counts) == set(oracle)
        assert abs(counts[oracle[0]] / 8000 - 0.5) < 0.02

    def test_every_sample_satisfies_constraint(self, rng):
        records = make_records(
            pub_years=[1840, 1841, 1843, 1843, 1845], read_years=[1841, 1842, 1843, 1845, 1846]
        )
        sampler = ConstrainedPermutationSampler(records)
        for perm in sampler.sample_batch([rng] * 500):
            sampler.check(perm)  # raises on violation

    @settings(max_examples=80, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=30),
        count=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(steps=[(1, 0)] * 5, count=3, seed=0)  # every pool holds one title
    @example(steps=[(0, 3)] * 8, count=4, seed=1)  # one shared pool
    def test_lockstep_batch_matches_per_sample_loop(self, steps, count, seed):
        read_years = 1840 + np.cumsum([gap for gap, _ in steps])
        pub_years = read_years - np.array([lag for _, lag in steps])
        sampler = ConstrainedPermutationSampler(make_records(pub_years.tolist(), read_years.tolist()))
        rng = np.random.default_rng(seed)
        u = rng.random((count, sampler.n))
        # the largest double below 1 takes a pool's last title; 1.0 itself,
        # which no Generator draws, exercises the j >= size guard
        edge = rng.random(u.shape)
        u[edge < 0.2] = np.nextafter(1.0, 0.0)
        u[edge > 0.9] = 1.0
        expected = loop_sample_batch(sampler, u)
        got = sampler.sample_batch([FixedUniforms(row) for row in u])
        np.testing.assert_array_equal(got, expected)
        # one Generator repeated fills the rows from its uniforms in turn
        got = sampler.sample_batch([np.random.default_rng(seed)] * count)
        expected = loop_sample_batch(sampler, np.random.default_rng(seed).random((count, sampler.n)))
        np.testing.assert_array_equal(got, expected)

    def test_infeasible_instance_rejected(self):
        # no title is published by the first slot's year
        records = make_records(pub_years=[1842, 1843], read_years=[1840, 1843])
        with pytest.raises(InputError, match="infeasible"):
            ConstrainedPermutationSampler(records)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            ConstrainedPermutationSampler([])


class TestBuildNull:
    def test_identical_thetas_degenerate(self, rng):
        records = make_records(pub_years=[1840] * 5, read_years=[1850] * 5)
        thetas = np.tile([0.25, 0.25, 0.5], (5, 1))
        ens = build_null(thetas, null_permutations(records, NullConfig(samples=100, seed=0)))["T2T"]
        assert ens.observed_aggregate == 0.0
        assert np.all(ens.sample_aggregates == 0.0)
        assert ens.p_value == 1.0

    def test_single_sample_forced_identity_equals_observed(self, rng):
        records = make_records(pub_years=list(range(1840, 1845)), read_years=list(range(1840, 1845)))
        thetas = random_simplex(rng, 5, 3)
        ens = build_null(thetas, null_permutations(records, NullConfig(samples=1, seed=9)))["T2T"]
        observed = t2t_series(thetas).values
        np.testing.assert_array_equal(ens.position_mean, observed)
        assert np.all(ens.position_std == 0.0)
        assert ens.sample_aggregates[0] == ens.observed_aggregate

    @pytest.mark.parametrize("kind,series_fn", [("T2T", t2t_series), ("T2P", t2p_series)])
    def test_monte_carlo_matches_enumeration(self, rng, kind, series_fn):
        records = make_records(
            pub_years=[1840, 1841, 1842, 1842, 1843], read_years=[1841, 1842, 1842, 1843, 1844]
        )
        thetas = random_simplex(rng, 5, 4)
        oracle_vals = np.array(
            [series_fn(thetas[list(p)]).values for p in valid_permutations(records)]
        )
        exact_mean = oracle_vals.mean(axis=0)
        exact_std = oracle_vals.std(axis=0)
        m = 800
        ens = build_null(thetas, null_permutations(records, NullConfig(samples=m, seed=4)))[kind]
        se = exact_std / np.sqrt(m)
        assert np.all(np.abs(ens.position_mean - exact_mean) <= 3 * se + 1e-12)

    def test_p_value_floor_when_observed_below_all_samples(self):
        # thetas drift unevenly along a simplex path: the reading order is
        # the strict aggregate minimum over all 720 permutations
        ws = np.array([0.0, 0.05, 0.15, 0.4, 0.75, 1.0])
        a, b = np.array([0.85, 0.1, 0.05]), np.array([0.05, 0.15, 0.8])
        thetas = np.array([(1 - w) * a + w * b for w in ws])
        records = make_records(pub_years=[1840] * 6, read_years=[1850] * 6)
        ens = build_null(thetas, null_permutations(records, NullConfig(samples=50, seed=0)))["T2T"]
        assert ens.sample_aggregates.min() > ens.observed_aggregate
        assert ens.p_value == pytest.approx(1 / 51)

    def test_deterministic_and_thread_invariant(self, rng):
        records = make_records(
            pub_years=[1840, 1841, 1842, 1842, 1843, 1843], read_years=[1841, 1842, 1843, 1844, 1845, 1846]
        )
        thetas = random_simplex(rng, 6, 4)
        cfg = NullConfig(samples=120, seed=5)
        a = build_null(thetas, null_permutations(records, cfg))["T2T"]
        b = build_null(thetas, null_permutations(records, cfg))["T2T"]
        np.testing.assert_array_equal(a.position_mean, b.position_mean)
        np.testing.assert_array_equal(a.sample_aggregates, b.sample_aggregates)
        assert a.p_value == b.p_value

    def test_null_permutations_match_ensemble_streams(self, rng):
        records = make_records(pub_years=[1840] * 4, read_years=[1850] * 4)
        cfg = NullConfig(samples=25, seed=13)
        perms1 = null_permutations(records, cfg)
        perms2 = null_permutations(records, cfg)
        np.testing.assert_array_equal(perms1, perms2)

    def test_null_permutations_are_per_stream_reference_draws(self):
        records = make_records(
            pub_years=[1838, 1840, 1840, 1841, 1835, 1843, 1842, 1844],
            read_years=[1840, 1840, 1841, 1842, 1843, 1843, 1844, 1845],
        )
        cfg = NullConfig(samples=30, seed=11)
        sampler = ConstrainedPermutationSampler(records)
        # row j draws its D uniforms from the PCG64 stream seeded by (seed, j)
        u = np.array([
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, j)))).random(len(records))
            for j in range(cfg.samples)
        ])
        np.testing.assert_array_equal(null_permutations(records, cfg), loop_sample_batch(sampler, u))

    def test_bad_kind_rejected(self, rng):
        records = make_records(pub_years=[1840] * 3, read_years=[1850] * 3)
        ensembles = build_null(random_simplex(rng, 3, 3), null_permutations(records, NullConfig(samples=5)))
        assert list(ensembles) == ["T2T", "T2P"]
        with pytest.raises(ValueError):
            dataclasses.replace(ensembles["T2T"], kind="T2N")


class TestOrderValues:
    @settings(max_examples=60, deadline=None)
    @given(thetas=theta_rows(), seed=st.integers(0, 2**32 - 1))
    @example(thetas=TWO_BY_TWO, seed=0)
    @example(thetas=REPEATED, seed=1)
    @example(thetas=TINY, seed=2)
    def test_evaluator_equals_value_functions_bitwise(self, thetas, seed):
        order = np.random.default_rng(seed).permutation(len(thetas))
        out = np.empty((2, len(thetas) - 1))
        _OrderValues(thetas)(order, out)
        np.testing.assert_array_equal(out[0], SERIES_VALUES["T2T"](thetas[order]))
        np.testing.assert_array_equal(out[1], SERIES_VALUES["T2P"](thetas[order]))

    @settings(max_examples=40, deadline=None)
    @given(thetas=theta_rows(), samples=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @example(thetas=TWO_BY_TWO, samples=3, seed=0)
    @example(thetas=REPEATED, samples=4, seed=1)
    @example(thetas=TINY, samples=5, seed=2)
    def test_build_null_equals_per_order_loop_bitwise(self, thetas, samples, seed):
        d = len(thetas)
        records = make_records(pub_years=[1840 + i % 3 for i in range(d)], read_years=[1850] * d)
        perms = null_permutations(records, NullConfig(samples=samples, seed=seed))
        ensembles = build_null(thetas, perms)
        assert list(ensembles) == ["T2T", "T2P"]
        for kind, ens in ensembles.items():
            mean, std, aggregates, observed, p = loop_build_null(thetas, perms, kind)
            np.testing.assert_array_equal(ens.position_mean, mean)
            np.testing.assert_array_equal(ens.position_std, std)
            np.testing.assert_array_equal(ens.sample_aggregates, aggregates)
            assert ens.observed_aggregate == observed
            assert ens.p_value == p

    def test_orders_out_of_range_rejected(self, rng):
        with pytest.raises(ValueError, match="index"):
            build_null(random_simplex(rng, 3, 3), np.array([[0, 1, 3]]))


class TestPublicationOrder:
    def test_distinct_years_single_deterministic_order(self, rng):
        records = make_records(pub_years=[1843, 1840, 1841], read_years=[1850, 1850, 1850])
        thetas = random_simplex(rng, 3, 3)
        series = publication_order_series(thetas, records, NullConfig())["T2T"]
        expected = t2t_series(thetas[[1, 2, 0]]).values
        np.testing.assert_allclose(series.values, expected, atol=1e-12)
        assert series.ordering == "publication-order"

    def test_same_year_identical_thetas_zero(self):
        records = make_records(pub_years=[1840] * 4, read_years=[1850] * 4)
        thetas = np.tile([0.4, 0.6], (4, 1))
        for kind in ("T2T", "T2P"):
            series = publication_order_series(thetas, records, NullConfig())[kind]
            assert np.all(series.values == 0.0)

    @pytest.mark.parametrize("kind,series_fn", [("T2T", t2t_series), ("T2P", t2p_series)])
    def test_tie_pair_hand_average(self, rng, kind, series_fn):
        records = make_records(pub_years=[1840, 1850, 1850], read_years=[1850, 1850, 1851])
        thetas = random_simplex(rng, 3, 3)
        series = publication_order_series(thetas, records, NullConfig())[kind]
        v1 = series_fn(thetas[[0, 1, 2]]).values
        v2 = series_fn(thetas[[0, 2, 1]]).values
        np.testing.assert_allclose(series.values, (v1 + v2) / 2, atol=1e-12)

    @pytest.mark.parametrize("kind", ["T2T", "T2P"])
    def test_exact_mode_matches_full_product_enumeration(self, rng, kind):
        # two tie groups of size 2 and 3: enumerate all 2! * 3! joint orders
        records = make_records(
            pub_years=[1840, 1840, 1852, 1852, 1852], read_years=[1852] * 5
        )
        thetas = random_simplex(rng, 5, 4)
        series = publication_order_series(thetas, records, NullConfig())[kind]
        from readpath.surprise import t2p_series as _t2p, t2t_series as _t2t

        fn = _t2t if kind == "T2T" else _t2p
        acc = np.zeros(4)
        count = 0
        for g1 in itertools.permutations([0, 1]):
            for g2 in itertools.permutations([2, 3, 4]):
                acc += fn(thetas[list(g1 + g2)]).values
                count += 1
        np.testing.assert_allclose(series.values, acc / count, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4).filter(
            lambda sizes: sum(sizes) >= 2 and math.prod(map(math.factorial, sizes)) <= 1440
        ),
        k=st.integers(2, 8),
        kind=st.sampled_from(["T2T", "T2P"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sizes=[2, 6, 1], k=3, kind="T2T", seed=0)  # 720 orders: several blocks
    @example(sizes=[6, 2], k=8, kind="T2P", seed=1)
    def test_exact_mode_matches_full_product_enumeration_any_ties(self, sizes, k, kind, seed):
        rng = np.random.default_rng(seed)
        pub_years = rng.permutation(np.repeat(1840 + np.arange(len(sizes)), sizes)).tolist()
        records = make_records(pub_years=pub_years, read_years=[1850] * len(pub_years))
        thetas = random_simplex(rng, len(records), k)
        series = publication_order_series(thetas, records, NullConfig())[kind]
        fn = t2t_series if kind == "T2T" else t2p_series
        groups = [[i for i, y in enumerate(pub_years) if y == year] for year in sorted(set(pub_years))]
        orders = itertools.product(*[itertools.permutations(g) for g in groups])
        values = [fn(thetas[list(itertools.chain(*order))]).values for order in orders]
        np.testing.assert_allclose(series.values, np.mean(values, axis=0), rtol=0, atol=1e-12)
        # the blocked kernel keeps the loop's arithmetic, so the exports stay byte-stable
        reference = scalar_exact_within_year_values(thetas, groups, kind)
        np.testing.assert_array_equal(series.values, reference)

    def test_monte_carlo_mode_approximates_exact(self, rng):
        records = make_records(pub_years=[1840, 1850, 1850], read_years=[1850, 1850, 1851])
        thetas = random_simplex(rng, 3, 3)
        exact = publication_order_series(thetas, records, NullConfig())
        mc = publication_order_series(
            thetas,
            records,
            NullConfig(seed=2, within_year_exact_threshold=1, within_year_samples=4000),
        )
        for kind in ("T2T", "T2P"):
            np.testing.assert_allclose(mc[kind].values, exact[kind].values, atol=0.05)

    @settings(max_examples=40, deadline=None)
    @given(
        thetas=theta_rows(),
        samples=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        years=st.integers(1, 4),
    )
    @example(thetas=TWO_BY_TWO, samples=3, seed=0, years=1)
    @example(thetas=REPEATED, samples=4, seed=1, years=2)
    @example(thetas=TINY, samples=5, seed=2, years=1)
    def test_monte_carlo_mode_equals_per_sample_loop_bitwise(self, thetas, samples, seed, years):
        d = len(thetas)
        pub_years = np.random.default_rng(seed).integers(1840, 1840 + years, d).tolist()
        pub_years[1] = pub_years[0]  # a tie group of two: the Monte Carlo branch
        records = make_records(pub_years=pub_years, read_years=[1850] * d)
        cfg = NullConfig(seed=seed, within_year_exact_threshold=1, within_year_samples=samples)
        series = publication_order_series(thetas, records, cfg)
        assert list(series) == ["T2T", "T2P"]
        for kind, s in series.items():
            assert s.kind == kind and s.ordering == "publication-order"
            expected = loop_monte_carlo_publication_order(thetas, records, kind, cfg)
            np.testing.assert_array_equal(s.values, expected)

    def test_one_within_year_draw_per_call(self, rng, monkeypatch):
        draws = Counter()
        orders = nullmodel._within_year_orders

        def counted(groups, config):
            draws["within-year"] += 1
            return orders(groups, config)

        monkeypatch.setattr(nullmodel, "_within_year_orders", counted)
        records = make_records(pub_years=[1840, 1850, 1850, 1850], read_years=[1850] * 4)
        cfg = NullConfig(within_year_exact_threshold=2, within_year_samples=7)
        publication_order_series(random_simplex(rng, 4, 3), records, cfg)
        # both kinds read the one set of shuffles
        assert draws == {"within-year": 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            publication_order_series(np.ones((0, 2)), [], NullConfig())
