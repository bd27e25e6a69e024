import itertools
import math
from datetime import date

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from readpath.epochs import (
    EpochSearchConfig,
    break_to_date,
    evidence_prior,
    fit,
    log_evidence,
    segment_loglik,
    select_n,
    single_break_landscape,
)
from readpath.errors import InputError

from conftest import make_records

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
        v = segment_loglik(x, [0, 3], variance_floor=1e-6)
        assert np.isfinite(v)

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
        best, table = select_n(x, IDX(n_max=3, min_length=5))
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
        best, _ = select_n(x, IDX(n_max=2, min_length=10))
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


class TestLogEvidence:
    def test_single_segment_matches_predictive_chain(self, rng):
        x = rng.normal(1.5, 2.0, 40)
        cfg = IDX(n_max=1)
        expected = chain_log_evidence(x, evidence_prior(x, cfg))
        assert log_evidence(x, cfg)[0] == pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_over_placements(self, rng):
        x = rng.normal(0, 1, 14)
        cfg = IDX(n_max=3, min_length=3)
        prior = evidence_prior(x, cfg)
        got = log_evidence(x, cfg)
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
        prior = evidence_prior(x, IDX())
        assert prior == {
            "m0": pytest.approx(x.mean()), "kappa0": 0.1, "a0": 1.0, "b0": pytest.approx(x.var())
        }
        assert evidence_prior(np.ones(5), IDX())["b0"] == 1e-12  # variance floor

    def test_infeasible_n_is_minus_infinity(self, rng):
        ev = log_evidence(rng.normal(0, 1, 10), IDX(n_max=3, min_length=4))
        assert np.isfinite(ev[:2]).all() and ev[2] == -np.inf

    def test_select_n_table_is_relative_evidence(self, rng):
        x = rng.normal(0, 1, 80)
        cfg = IDX(n_max=3, min_length=8)
        best, table = select_n(x, cfg)
        ev = log_evidence(x, cfg)
        assert best.n == int(np.argmax(ev)) + 1
        for row, e in zip(table, ev):
            assert row["log_evidence"] == e
            assert row["relative_likelihood"] == pytest.approx(math.exp(e - ev.max()))
            assert row["aic"] == fit(x, row["n"], cfg).aic


class TestBreakToDate:
    def test_maps_indices_to_read_dates(self, rng):
        records = make_records(
            pub_years=[1840] * 5, read_dates=[date(1850, 1, 1 + i) for i in range(5)]
        )
        x = rng.normal(0, 1, 4)
        m = fit(x, 2, IDX(min_length=2))
        pairs = break_to_date(m, records)
        assert pairs[0] == (0, date(1850, 1, 1))
        assert all(records[b].read_date == d for b, d in pairs)

    def test_fourth_record_example(self, rng):
        records = make_records(
            pub_years=[1840] * 5, read_dates=[date(1850, 1, 1 + i) for i in range(5)]
        )
        model = fit(np.array([0.0, 0.1, 5.0, 5.1, 5.05]), 2, IDX(min_length=2))
        # force a specific mapping check: index 3 -> 4th record
        from readpath.epochs import EpochModel

        m = EpochModel(
            breaks=(0, 3), means=(0.0, 0.0), variances=(1.0, 1.0),
            log_likelihood=0.0, n_params=5, aic=10.0,
        )
        assert break_to_date(m, records)[1] == (3, date(1850, 1, 4))

    def test_monotone_dates_give_monotone_breaks(self, rng):
        records = make_records(
            pub_years=[1840] * 30, read_dates=[date(1850, 1, 1) + __import__("datetime").timedelta(days=3 * i) for i in range(30)]
        )
        x = rng.normal(0, 1, 29)
        m = fit(x, 3, IDX(min_length=4))
        dates = [d for _, d in break_to_date(m, records)]
        assert all(a <= b for a, b in zip(dates, dates[1:]))

    def test_out_of_range_rejected(self, rng):
        records = make_records(pub_years=[1840] * 3)
        from readpath.epochs import EpochModel

        m = EpochModel(breaks=(0, 5), means=(0, 0), variances=(1, 1),
                       log_likelihood=0.0, n_params=5, aic=10.0)
        with pytest.raises(IndexError):
            break_to_date(m, records)


class TestLandscape:
    def test_peak_matches_fit_and_infeasible_nan(self, rng):
        x = np.concatenate([rng.normal(0, 1, 40), rng.normal(4, 1, 40)])
        cfg = IDX(min_length=10)
        land = single_break_landscape(x, cfg)
        assert np.isnan(land[0]) and np.isnan(land[5]) and np.isnan(land[-1])
        b_star = int(np.nanargmax(land))
        assert b_star == fit(x, 2, cfg).breaks[1]
        assert land[b_star] == pytest.approx(segment_loglik(x, [0, b_star]), abs=1e-9)
