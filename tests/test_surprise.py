import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readpath import surprise
from readpath.surprise import (
    KINDS,
    _OrderValues,
    kl_divergence,
    t2n_series,
    t2p_series,
    t2t_series,
)

from conftest import random_simplex


def simplex_strategy(k=5):
    return (
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=k, max_size=k)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


class TestKL:
    def test_quarter_bit_worked_example(self):
        assert kl_divergence([0.25, 0.5, 0.25], [0.5, 0.25, 0.25]) == pytest.approx(0.25, abs=1e-12)

    def test_identity_is_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_evaluated_example(self):
        # 0.9*log2(1.8) + 0.1*log2(0.2)
        assert kl_divergence([0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.5310, abs=1e-4)

    def test_asymmetry_witness(self):
        a = kl_divergence([0.9, 0.1], [0.5, 0.5])
        b = kl_divergence([0.5, 0.5], [0.9, 0.1])
        assert a != b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.2, -0.2])

    @given(simplex_strategy(), simplex_strategy())
    @settings(max_examples=200)
    def test_nonnegative_and_zero_iff_equal(self, q, p):
        v = kl_divergence(q, p)
        assert v >= 0.0
        if np.abs(q - p).max() > 1e-9:
            assert v > 0.0
        assert kl_divergence(q, q) == 0.0


class TestSeries:
    def test_t2t_identical_rows_all_zero(self):
        t = np.tile([0.2, 0.3, 0.5], (6, 1))
        assert np.all(t2t_series(t).values == 0.0)

    def test_t2t_hand_example(self):
        t = np.array([[0.8, 0.2], [0.8, 0.2], [0.2, 0.8]])
        # 0.2*log2(0.25) + 0.8*log2(4) = 1.2
        assert t2t_series(t).values == pytest.approx([0.0, 1.2], abs=1e-12)

    def test_single_document_rejected(self):
        with pytest.raises(ValueError):
            t2t_series(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            t2p_series(np.array([[0.5, 0.5]]))

    def test_t2p_past_mean_cancellation(self):
        t = np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]])
        values = t2p_series(t).values
        assert values[1] == pytest.approx(0.0, abs=1e-12)

    def test_t2n_window_one_hand_value(self):
        t = np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]])
        v = t2n_series(t, 1).values
        assert v[1] == pytest.approx(0.3219, abs=1e-4)

    def test_t2n_bad_window_rejected(self):
        with pytest.raises(ValueError):
            t2n_series(np.array([[0.5, 0.5], [0.4, 0.6]]), 0)

    def test_t2n_interior_window_hand_check(self, rng):
        # window of 2 on 5 documents: position i compares against the mean
        # of the two immediately preceding rows
        t = random_simplex(rng, 5, 4)
        got = t2n_series(t, 2).values
        for i in range(1, 5):
            past = t[max(0, i - 2):i].mean(axis=0)
            assert got[i - 1] == pytest.approx(kl_divergence(t[i], past), abs=1e-10)

    def test_t2n_collapses_to_t2t_and_t2p(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 30))
            t = random_simplex(rng, d, 6)
            np.testing.assert_allclose(
                t2n_series(t, 1).values, t2t_series(t).values, atol=1e-12
            )
            np.testing.assert_allclose(
                t2n_series(t, d).values, t2p_series(t).values, atol=1e-12
            )
            np.testing.assert_allclose(
                t2n_series(t, d + 7).values, t2p_series(t).values, atol=1e-12
            )

    def test_first_position_t2p_equals_t2t(self, rng):
        for _ in range(25):
            t = random_simplex(rng, int(rng.integers(2, 20)), 4)
            assert t2p_series(t).values[0] == pytest.approx(t2t_series(t).values[0], abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_series_evaluates_its_own_kind_once(self, rng, monkeypatch, kind):
        t = random_simplex(rng, 9, 4)
        out = np.empty((len(KINDS), 8))
        _OrderValues(t)(np.arange(9), out)
        calls = []
        kl_rows = surprise._kl_rows

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return kl_rows(*args, **kwargs)

        monkeypatch.setattr(surprise, "_kl_rows", counted)
        series = {"T2T": t2t_series, "T2P": t2p_series}[kind](t)
        # one kernel pass, with the bits of the evaluator's row of that kind
        assert calls == [(8, 4)]
        assert series.values.tobytes() == out[KINDS.index(kind)].tobytes()

    def test_series_metadata(self):
        t = np.array([[0.8, 0.2], [0.2, 0.8]])
        s = t2n_series(t, 3, ordering="publication-order")
        assert s.kind == "T2N" and s.n_window == 3 and s.ordering == "publication-order"
        assert len(s) == 1
