import dataclasses
import itertools
import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln, logsumexp

from readpath.epochs import (
    _BLOCK,
    VARIANCE_FLOOR,
    EpochSearchConfig,
    _infeasible,
    _min_length_by_start,
    epoch_mean_relative,
    evidence_prior,
    fit,
    placement_log_counts,
    segment_loglik,
    select_n,
)
from readpath.errors import InputError

IDX = lambda n_max=3, min_length=2: EpochSearchConfig(  # noqa: E731
    n_max=n_max, min_length=min_length, min_years=None
)


def hand_loglik(segments):
    """Independent arithmetic for the segment formula."""
    total = 0.0
    for seg in segments:
        seg = np.asarray(seg, dtype=float)
        mu = seg.mean()
        var = max(float(np.mean((seg - mu) ** 2)), 1e-12)
        total += -(len(seg) / 2.0) * (1.0 + math.log(2.0 * math.pi * var))
    return total


class TestSegmentLoglik:
    def test_single_segment_is_whole_series_mle(self, rng):
        x = rng.normal(0, 1, 50)
        assert segment_loglik(x, [0]) == pytest.approx(hand_loglik([x]), abs=1e-9)

    def test_six_point_hand_value(self):
        x = np.array([0.0, 0.0, 1.0, 5.0, 5.0, 6.0])
        assert segment_loglik(x, [0, 3]) == pytest.approx(
            hand_loglik([x[:3], x[3:]]), abs=1e-12
        )

    def test_true_break_beats_mid_block_break(self, rng):
        x = np.concatenate([rng.normal(0, 1, 60), rng.normal(5, 1, 60)])
        assert segment_loglik(x, [0, 60]) > segment_loglik(x, [0, 30])

    def test_variance_floor_on_constant_segment(self):
        x = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0])
        v = segment_loglik(x, [0, 3])
        floored = -1.5 * (1.0 + math.log(2.0 * math.pi * VARIANCE_FLOOR))
        fitted = -1.5 * (1.0 + math.log(2.0 * math.pi * float(np.var(x[3:]))))
        assert v == floored + fitted

    def test_errors(self):
        with pytest.raises(ValueError):
            segment_loglik(np.array([]), [0])
        with pytest.raises(ValueError):
            segment_loglik(np.ones(6), [0, 5])  # second segment has 1 point
        with pytest.raises(ValueError):
            segment_loglik(np.ones(6), [1, 3])  # must start at 0


class TestFit:
    def test_n1_whole_series(self, rng):
        x = rng.normal(2, 3, 40)
        m = fit(x, 1, IDX())
        assert m.breaks == (0,)
        assert m.means[0] == pytest.approx(x.mean())
        assert m.variances[0] == pytest.approx(np.mean((x - x.mean()) ** 2))
        assert m.n_params == 2

    def test_matches_single_break_brute_force(self, rng):
        for _ in range(10):
            n = int(rng.integers(12, 80))
            x = rng.normal(0, 1, n)
            min_len = int(rng.integers(2, max(3, n // 4)))
            cfg = IDX(min_length=min_len)
            m = fit(x, 2, cfg)
            best = max(
                range(min_len, n - min_len + 1),
                key=lambda b: segment_loglik(x, [0, b]),
            )
            assert m.breaks == (0, best)

    def test_matches_double_break_brute_force(self, rng):
        x = rng.normal(0, 1, 30)
        cfg = IDX(min_length=3)
        m = fit(x, 3, cfg)
        best_ll, best_breaks = -np.inf, None
        for b1 in range(3, 25):
            for b2 in range(b1 + 3, 28):
                ll = segment_loglik(x, [0, b1, b2])
                if ll > best_ll:
                    best_ll, best_breaks = ll, (0, b1, b2)
        assert m.breaks == best_breaks
        assert m.log_likelihood == pytest.approx(best_ll, abs=1e-9)

    def test_constant_series_ties_break_lexicographically(self):
        x = np.zeros(10)
        m = fit(x, 2, IDX(min_length=2))
        assert m.breaks == (0, 2)
        m3 = fit(x, 3, IDX(min_length=2))
        assert m3.breaks == (0, 2, 4)

    def test_nested_loglik_monotone(self, rng):
        x = rng.normal(0, 1, 60)
        cfg = IDX(n_max=4, min_length=5)
        lls = [fit(x, n, cfg).log_likelihood for n in (1, 2, 3, 4)]
        assert all(a <= b + 1e-9 for a, b in zip(lls, lls[1:]))

    def test_infeasible_rejected(self, rng):
        with pytest.raises(InputError):
            fit(rng.normal(0, 1, 10), 3, IDX(min_length=4))

    def test_deterministic(self, rng):
        x = rng.normal(0, 1, 80)
        assert fit(x, 3, IDX(min_length=5)).breaks == fit(x, 3, IDX(min_length=5)).breaks

    def test_calendar_min_length_resolution(self, rng):
        # yearly dates: a five-year span needs six positions (the spec's
        # default), so a three-year minimum needs four
        x = rng.normal(0, 1, 12)
        dates = [date(1840 + i, 1, 1) for i in range(12)]
        cfg = EpochSearchConfig(n_max=2, min_years=3.0)
        m = fit(x, 2, cfg, dates=dates)
        assert 4 <= m.breaks[1] <= 8
        with pytest.raises(ValueError):
            fit(x, 2, cfg)  # dates required for calendar form

    def test_calendar_infeasible_when_span_too_short(self, rng):
        x = rng.normal(0, 1, 10)
        dates = [date(1840, 1, 1 + i) for i in range(10)]  # ten days total
        with pytest.raises(InputError):
            fit(x, 2, EpochSearchConfig(n_max=2, min_years=5.0), dates=dates)


class TestSelectN:
    def test_parameter_counts_and_relative_likelihood(self, rng):
        x = rng.normal(0, 1, 60)
        best, table, _, _ = select_n(x, IDX(n_max=3, min_length=5))
        assert [row["n_params"] for row in table] == [2, 5, 8]
        selected = next(r for r in table if r["n"] == best.n)
        assert selected["relative_likelihood"] == 1.0
        assert all(r["relative_likelihood"] <= 1.0 for r in table)
        assert table[0]["delta_loglik"] is None
        for prev, row in zip(table, table[1:]):
            assert row["delta_loglik"] == pytest.approx(
                row["log_likelihood"] - prev["log_likelihood"]
            )

    def test_planted_two_regime_selects_two(self, rng):
        x = np.concatenate([rng.normal(0, 1, 120), rng.normal(3, 1, 120)])
        best = select_n(x, IDX(n_max=2, min_length=10))[0]
        assert best.n == 2
        assert abs(best.breaks[1] - 120) <= 3

    def test_aic_per_point_limit(self):
        # AIC_1 / D -> 1 + ln(2*pi) + ln(var): 4/D vanishes and the variance
        # MLE of a unit Gaussian concentrates at 1
        x = np.random.default_rng(99).normal(0, 1, 200_000)
        m = fit(x, 1, IDX())
        assert m.aic / len(x) == pytest.approx(1 + math.log(2 * math.pi), abs=0.01)


def chain_log_evidence(seg, prior):
    """Independent arithmetic for one segment's marginal likelihood: the
    product of Student-t posterior predictives, updating the
    Normal-Inverse-Gamma posterior one point at a time."""
    m, k, a, b = prior["m0"], prior["kappa0"], prior["a0"], prior["b0"]
    total = 0.0
    for x in seg:
        scale = math.sqrt(b * (k + 1) / (a * k))
        total += stats.t.logpdf(x, df=2 * a, loc=m, scale=scale)
        b += k * (x - m) ** 2 / (2 * (k + 1))
        m = (k * m + x) / (k + 1)
        k += 1
        a += 0.5
    return total


def table_evidence(x, config, dates=None) -> list[float]:
    """The log evidence column of `select_n`'s table."""
    return [row["log_evidence"] for row in select_n(x, config, dates)[1]]


def n_max_message(config, length, fits) -> str:
    minimum = (
        f"epochs.min_length = {config.min_length}" if config.min_length is not None
        else f"epochs.min_years = {config.min_years:g}"
    )
    return (
        f"epochs.n_max = {config.n_max} does not fit the series of {length} positions under "
        f"{minimum}: the largest number of epochs that fits is {fits}"
    )


class TestLogEvidence:
    def test_single_segment_matches_predictive_chain(self, rng):
        x = rng.normal(1.5, 2.0, 40)
        cfg = IDX(n_max=1)
        expected = chain_log_evidence(x, evidence_prior(x))
        assert table_evidence(x, cfg)[0] == pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_over_placements(self, rng):
        x = rng.normal(0, 1, 14)
        cfg = IDX(n_max=3, min_length=3)
        prior = evidence_prior(x)
        got = table_evidence(x, cfg)
        for n in (1, 2, 3):
            terms = []
            for inner in itertools.combinations(range(1, 14), n - 1):
                bounds = [0, *inner, 14]
                if all(e - s >= 3 for s, e in zip(bounds, bounds[1:])):
                    terms.append(sum(chain_log_evidence(x[s:e], prior)
                                     for s, e in zip(bounds, bounds[1:])))
            expected = logsumexp(terms) - math.log(len(terms))
            assert got[n - 1] == pytest.approx(expected, abs=1e-9)

    def test_prior_is_empirical_bayes(self, rng):
        x = rng.normal(3, 2, 50)
        prior = evidence_prior(x)
        assert prior == {
            "m0": pytest.approx(x.mean()), "kappa0": 0.1, "a0": 1.0, "b0": pytest.approx(x.var())
        }
        assert evidence_prior(np.ones(5))["b0"] == 1e-12  # variance floor

    def test_select_n_table_is_relative_evidence(self, rng):
        x = rng.normal(0, 1, 80)
        cfg = IDX(n_max=3, min_length=8)
        best, table, _, prior = select_n(x, cfg)
        assert prior == evidence_prior(x)
        ev = np.array([row["log_evidence"] for row in table])
        assert ev.tobytes() == table_log_evidence(x, cfg, None).tobytes()
        assert best.n == int(np.argmax(ev)) + 1
        for row, e in zip(table, ev):
            assert row["relative_likelihood"] == pytest.approx(math.exp(e - ev.max()))
            assert row["aic"] == fit(x, row["n"], cfg).aic


class TestSharedPlacementCount:
    def test_placement_count_matches_combinatorics(self):
        # 14 positions, segments of at least 3: C(14 - 3n + n - 1, n - 1) placements
        got = placement_log_counts(14, IDX(n_max=4, min_length=3))
        expected = [math.log(math.comb(14 - 3 * n + n - 1, n - 1)) for n in (1, 2, 3, 4)]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("calendar", [False, True])
    def test_passed_count_gives_the_same_selection(self, rng, calendar):
        # two series of one length and dates (T2T and T2P of a run) share the count
        length = 120
        dates = [date(1830, 1, 1) + timedelta(days=45 * i) for i in range(length)]
        cfg = EpochSearchConfig(n_max=3, min_years=2.0) if calendar else IDX(n_max=3, min_length=9)
        shared = placement_log_counts(length, cfg, dates)
        for x in (rng.normal(0, 1, length), np.r_[rng.normal(0, 1, 60), rng.normal(2, 1, 60)]):
            best, table, landscape, _ = select_n(x, cfg, dates, log_placements=shared)
            best0, table0, landscape0, _ = select_n(x, cfg, dates)
            assert best == best0 and table == table0
            np.testing.assert_array_equal(landscape, landscape0)
            expected = table_log_evidence(x, cfg, dates)
            assert np.array([row["log_evidence"] for row in table]).tobytes() == expected.tobytes()

    def test_count_for_other_n_max_rejected(self, rng):
        with pytest.raises(ValueError, match="placement count"):
            select_n(rng.normal(0, 1, 30), IDX(n_max=3), log_placements=np.zeros(2))

    @pytest.mark.parametrize(
        ("cfg", "fits"),
        [
            (IDX(n_max=3, min_length=4), 2),  # 10 positions of at least 4
            (EpochSearchConfig(n_max=2, min_years=4.5), 1),  # a segment spans 6 yearly dates
        ],
        ids=["min_length", "min_years"],
    )
    def test_n_max_that_cannot_fit_gives_the_command_line_message(self, rng, cfg, fits):
        x = rng.normal(0, 1, 10)
        dates = [date(1840 + i, 1, 1) for i in range(10)]
        message = n_max_message(cfg, 10, fits)
        for call in (lambda: placement_log_counts(10, cfg, dates), lambda: select_n(x, cfg, dates)):
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == message
        assert len(select_n(x, dataclasses.replace(cfg, n_max=fits), dates)[1]) == fits


class TestEpochMeanRelative:
    def test_single_segment_matching_null(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(epoch_mean_relative(v, v, [0]), [0.0])

    def test_two_segment_hand_means(self):
        v = np.array([1.0, 2.0, 4.0, 6.0])
        null = np.array([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(epoch_mean_relative(v, null, [0, 2]), [0.5, 4.0])

    def test_invalid_breaks_rejected(self):
        v = np.ones(4)
        for breaks in ([], [1], [0, 0], [0, 5]):
            with pytest.raises(ValueError):
                epoch_mean_relative(v, v, breaks)


class TestLandscape:
    def test_peak_matches_fit_and_infeasible_nan(self, rng):
        x = np.concatenate([rng.normal(0, 1, 40), rng.normal(4, 1, 40)])
        cfg = IDX(min_length=10)
        land = select_n(x, cfg)[2]
        assert np.isnan(land[0]) and np.isnan(land[5]) and np.isnan(land[-1])
        b_star = int(np.nanargmax(land))
        assert b_star == fit(x, 2, cfg).breaks[1]
        assert land[b_star] == pytest.approx(segment_loglik(x, [0, b_star]), abs=1e-9)


# The whole-table segment builders and dynamic programs that the blocked
# `_suffix_dp` replaced, kept verbatim as the bitwise oracle. Each builds
# (L+1)^2 float64 tables.


def _segment_score_table(x: np.ndarray, min_len: np.ndarray, variance_floor: float) -> np.ndarray:
    """(L+1) x (L+1) table: entry [a, b] is the segment [a, b) loglik, or
    -inf where the segment is infeasible. Series is centered first so the
    prefix-sum variance stays numerically tame."""
    length = len(x)
    c = x - x.mean()
    cs = np.concatenate([[0.0], np.cumsum(c)])
    css = np.concatenate([[0.0], np.cumsum(c * c)])
    a = np.arange(length + 1)
    m = a[None, :] - a[:, None]
    s = cs[None, :] - cs[:, None]
    ss = css[None, :] - css[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = s / m
        var = np.maximum(ss / m - mu * mu, variance_floor)
        table = -(m / 2.0) * (1.0 + np.log(2.0 * np.pi * var))
    table[m < min_len[:, None]] = -np.inf
    return table


def _best_suffix_scores(table: np.ndarray, n_max: int) -> np.ndarray:
    """Row j, entry a: the top total score splitting the suffix [a, L)
    into j feasible segments (-inf where none exists), for j = 0..n_max."""
    length = table.shape[0] - 1
    best = np.full((n_max + 1, length + 1), -np.inf)
    best[0, length] = 0.0
    for j in range(1, n_max + 1):
        best[j] = np.max(table + best[j - 1][None, :], axis=1)
    return best


def _ml_breaks(table: np.ndarray, best: np.ndarray, n: int) -> list[int]:
    """Forward reconstruction of the n-segment maximum, which makes ties
    resolve to the lexicographically smallest break vector."""
    if not np.isfinite(best[n, 0]):
        raise _infeasible(table.shape[0] - 1, n)
    breaks = [0]
    a = 0
    for j in range(n, 1, -1):
        cand = table[a] + best[j - 1]
        b = int(np.nonzero(cand == best[j, a])[0][0])
        breaks.append(b)
        a = b
    return breaks


def _landscape(table: np.ndarray) -> np.ndarray:
    length = table.shape[0] - 1
    out = np.full(length + 1, np.nan)
    v = table[0, 1:length] + table[1:length, length]
    out[1:length] = np.where(np.isfinite(v), v, np.nan)
    return out


def _segment_evidence_table(x: np.ndarray, min_len: np.ndarray, prior: dict) -> np.ndarray:
    """(L+1) x (L+1) table: entry [a, b] is the log marginal likelihood of
    segment [a, b) under the prior, or -inf where the segment is
    infeasible. Deviations are taken from m0, so prefix sums stay tame."""
    length = len(x)
    c = x - prior["m0"]
    cs = np.concatenate([[0.0], np.cumsum(c)])
    css = np.concatenate([[0.0], np.cumsum(c * c)])
    a = np.arange(length + 1)
    m = a[None, :] - a[:, None]
    s = cs[None, :] - cs[:, None]
    ss = css[None, :] - css[:, None]
    k0, a0, b0 = prior["kappa0"], prior["a0"], prior["b0"]
    # Terms that depend on the segment length only, indexed by it.
    lengths = a.astype(np.float64)
    by_length = (
        gammaln(a0 + lengths / 2.0) - gammaln(a0) + a0 * math.log(b0)
        + 0.5 * (math.log(k0) - np.log(k0 + lengths)) - (lengths / 2.0) * math.log(2.0 * math.pi)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_dev = s / m  # segment mean minus m0
        scatter = np.maximum(ss - s * mean_dev, 0.0)
        bn = b0 + scatter / 2.0 + k0 * m * mean_dev * mean_dev / (2.0 * (k0 + m))
        table = by_length[np.maximum(m, 0)] - (a0 + m / 2.0) * np.log(bn)
    table[m < min_len[:, None]] = -np.inf
    return table


def _log_path_sums(table: np.ndarray, n_max: int) -> np.ndarray:
    """Entry n - 1 is the log of the sum, over every split of [0, L) into
    n feasible segments, of exp(total segment score): the suffix dynamic
    program of `fit` with logsumexp in place of max."""
    length = table.shape[0] - 1
    acc = np.full(length + 1, -np.inf)
    acc[length] = 0.0
    out = []
    for _ in range(n_max):
        terms = table + acc[None, :]
        top = terms.max(axis=1)
        finite = np.isfinite(top)
        acc = np.full(length + 1, -np.inf)
        with np.errstate(invalid="ignore"):
            acc[finite] = top[finite] + np.log(
                np.exp(terms[finite] - top[finite, None]).sum(axis=1)
            )
        out.append(acc[0])
    return np.array(out)


def table_log_evidence(x, config, dates):
    """The log evidence for n = 1..n_max from one evidence table, as before
    the blocked pass; -inf where n epochs do not fit."""
    min_len = _min_length_by_start(len(x), config, dates)
    table = _segment_evidence_table(x, min_len, evidence_prior(x))
    log_count = _log_path_sums(np.where(np.isfinite(table), 0.0, -np.inf), config.n_max)
    log_total = _log_path_sums(table, config.n_max)
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(log_count), log_total - log_count, -np.inf)


def table_breaks_and_landscape(x, config, dates):
    """Per n, the ML breaks or the infeasibility message, and the landscape,
    from one score table."""
    table = _segment_score_table(x, _min_length_by_start(len(x), config, dates), VARIANCE_FLOOR)
    best = _best_suffix_scores(table, config.n_max)
    per_n = []
    for n in range(1, config.n_max + 1):
        try:
            per_n.append(_ml_breaks(table, best, n))
        except InputError as err:
            per_n.append(str(err))
    return per_n, _landscape(table)


BLOCK_EDGE_LENGTHS = [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


@st.composite
def epoch_problems(draw):
    """A series with its config and dates: lengths at the block edges,
    index or calendar minimums (some infeasible for the larger n), and
    values with planted shifts or many exact ties."""
    length = draw(st.sampled_from(BLOCK_EDGE_LENGTHS))
    n_max = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["noise", "shift", "ties"]))
    if shape == "ties":
        x = rng.integers(0, 3, length).astype(np.float64)
    else:
        x = rng.normal(0, 1, length)
        if shape == "shift":
            x[rng.integers(0, length):] += 3.0
    if draw(st.booleans()):
        min_length = draw(st.integers(2, max(2, length // 2 + 1)))
        return x, EpochSearchConfig(n_max=n_max, min_length=min_length, min_years=None), None
    days = np.cumsum(rng.integers(0, 40, length))
    dates = [date(1830, 1, 1) + timedelta(days=int(d)) for d in days]
    span_years = max(int(days[-1]), 1) / 365.25
    min_years = span_years * draw(st.floats(0.01, 0.6))
    return x, EpochSearchConfig(n_max=n_max, min_years=min_years), dates


# Window edges of `_suffix_dp`, for L = 2 * _BLOCK + 1, whose blocks start
# at rows _BLOCK + 2, 2 and 0:
# - SKIP: positions ten days apart and a minimum of 10 * _BLOCK - 15 days
#   (_BLOCK positions), so no start from _BLOCK + 2 on can open a segment
#   and that whole block is skipped, while n = 2 still fits (breaks _BLOCK
#   and _BLOCK + 1);
# - EMPTY: minimum _BLOCK // 3 and n_max = 4, so in the block at _BLOCK + 2
#   level 3 has no finite entry from c0 on and levels 4 and up are never
#   reduced;
# - ONE_COLUMN: minimum (L - 2) / 3, so n = 3 fits exactly and level 3 of
#   the block at row 2 reduces over the single column 2 + minimum.
WINDOW_LENGTH = 2 * _BLOCK + 1
SKIP = (
    np.random.default_rng(4).normal(0, 1, WINDOW_LENGTH),
    EpochSearchConfig(n_max=2, min_years=(10 * _BLOCK - 15) / 365.25),
    [date(1830, 1, 1) + timedelta(days=10 * i) for i in range(WINDOW_LENGTH)],
)
EMPTY = (np.random.default_rng(5).normal(0, 1, WINDOW_LENGTH), IDX(n_max=4, min_length=_BLOCK // 3), None)
ONE_COLUMN = (
    np.random.default_rng(6).normal(0, 1, WINDOW_LENGTH),
    IDX(n_max=3, min_length=(WINDOW_LENGTH - 2) // 3),
    None,
)
# A series, found by search, on which summing the exponentials over the
# window alone instead of the full row moves the n = 2 log evidence by one
# ulp: the pairwise sum groups the window's terms differently. Most series
# hide that change, as log(sum) is added to a far larger top.
FULL_ROW_SUM = (np.random.default_rng(629).normal(0, 1, WINDOW_LENGTH), IDX(n_max=3, min_length=5), None)


class TestBlockedDP:
    @settings(max_examples=60, deadline=None)
    @given(problem=epoch_problems())
    @example(problem=SKIP)
    @example(problem=EMPTY)
    @example(problem=ONE_COLUMN)
    @example(problem=FULL_ROW_SUM)
    @example(problem=(np.random.default_rng(0).normal(0, 1, 2 * _BLOCK + 1), IDX(n_max=3, min_length=5), None))
    @example(problem=(np.random.default_rng(1).normal(0, 1, _BLOCK - 1), IDX(n_max=4, min_length=3), None))
    @example(problem=(np.random.default_rng(2).normal(0, 1, _BLOCK + 1), IDX(n_max=4, min_length=(_BLOCK + 1) * 15 // 32), None))
    def test_bit_equal_to_whole_table_oracle(self, problem):
        x, cfg, dates = problem
        expected_ev = table_log_evidence(x, cfg, dates)
        expected_breaks, expected_land = table_breaks_and_landscape(x, cfg, dates)
        fits = sum(not isinstance(e, str) for e in expected_breaks)
        for n, expected in enumerate(expected_breaks, start=1):
            if isinstance(expected, str):
                assert expected_ev[n - 1] == -np.inf
                with pytest.raises(InputError) as err:
                    fit(x, n, cfg, dates)
                assert str(err.value) == expected
            else:
                m = fit(x, n, cfg, dates)
                assert list(m.breaks) == expected
                segments = [x[s:e] for s, e in zip(expected, expected[1:] + [len(x)])]
                assert m.log_likelihood == hand_loglik(segments)
        if fits < cfg.n_max:
            with pytest.raises(InputError) as err:
                select_n(x, cfg, dates)
            assert str(err.value) == n_max_message(cfg, len(x), fits)
            if fits == 0:
                return
            cfg = dataclasses.replace(cfg, n_max=fits)  # the feasible n, each as bit-equal
        best, rows, land, _ = select_n(x, cfg, dates)
        assert land.tobytes() == expected_land.tobytes()
        assert [r["breaks"] for r in rows] == expected_breaks[:fits]
        assert np.array([r["log_evidence"] for r in rows]).tobytes() == expected_ev[:fits].tobytes()
        assert best.n == int(np.argmax(expected_ev[:fits])) + 1

    def test_no_whole_table_allocated(self):
        # One (L+1)^2 float64 table at L = 2,000 is 32 MB; the whole-table
        # code peaked at 275 MB here.
        length = 2000
        x = np.random.default_rng(3).normal(0, 1, length)
        tracemalloc.start()
        try:
            select_n(x, IDX(n_max=3, min_length=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (length + 1) ** 2 * 8
