"""Information-theoretic surprise along an ordered document sequence.

All divergences are Kullback-Leibler in base 2 ("bits"), computed from
strictly positive topic distributions. Positivity is an input contract
enforced upstream by the Dirichlet-smoothed topic estimates; there is no
epsilon-smoothing here, so a nonpositive entry fails loudly instead of
silently bending the measure.

Series conventions: for D ordered documents, surprise is defined at
positions 1..D-1 (the first document has no predecessor), stored in a
length D-1 array where ``values[j]`` belongs to position j+1. Every
series value here comes from one row kernel, `_kl_rows`, which
`nullmodel._OrderValues` repeats in place, bit for bit, for the sampled
orders; the scalar `kl_divergence` is its test reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SERIES_KINDS = ("T2T", "T2P", "T2N")

READING_ORDER = "reading-order"
PUBLICATION_ORDER = "publication-order"


def _check_distributions(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2:
        raise ValueError("expected a vector or matrix of distributions")
    if m.size == 0:
        raise ValueError("empty distribution input")
    if m.min() <= 0:
        raise ValueError("distributions must be strictly positive everywhere")
    return m


def kl_divergence(q, p) -> float:
    """KL divergence D(q|p) in bits: expected excess code length when the
    next observation follows q but expectations were built on p.

    Asymmetric in general; zero exactly when q == p elementwise.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape or q.ndim != 1:
        raise ValueError(f"shape mismatch: {q.shape} vs {p.shape}")
    if q.min() <= 0 or p.min() <= 0:
        raise ValueError("distributions must be strictly positive everywhere")
    v = float(np.sum(q * np.log2(q / p)))
    # Rounding can leave a ~1e-16 negative residue when q is very close
    # to p; the true value is nonnegative.
    return max(v, 0.0)


@dataclass(frozen=True)
class SurpriseSeries:
    """Per-position surprise (bits) for one document ordering."""

    kind: str  # "T2T" | "T2P" | "T2N"
    values: np.ndarray  # positions 1..D-1
    ordering: str = READING_ORDER
    n_window: int | None = None  # window size for T2N

    def __post_init__(self):
        if self.kind not in SERIES_KINDS:
            raise ValueError(f"kind must be one of {SERIES_KINDS}")
        if self.kind == "T2N" and (self.n_window is None or self.n_window < 1):
            raise ValueError("T2N series needs n_window >= 1")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or len(v) < 1:
            raise ValueError("series needs at least one position")
        if not np.all(np.isfinite(v)) or v.min() < 0:
            raise ValueError("surprise values must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean_bits(self) -> float:
        return float(self.values.mean())


def _kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """`kl_divergence` along the last axis of any stack of row pairs."""
    return np.maximum(np.sum(q * np.log2(q / p), axis=-1), 0.0)


def _pairwise_values(thetas: np.ndarray) -> np.ndarray:
    """KL from each row to the one before it (per order in a stack)."""
    return _kl_rows(thetas[..., 1:, :], thetas[..., :-1, :])


def _window_mean_values(thetas: np.ndarray, n_window: int | None = None) -> np.ndarray:
    """KL from each row to the mean of its preceding window (full past when
    ``n_window`` is None or covers it)."""
    d = thetas.shape[0]
    cs = np.vstack([np.zeros(thetas.shape[1]), np.cumsum(thetas, axis=0)])
    i = np.arange(1, d)
    lo = np.zeros(d - 1, dtype=np.int64) if n_window is None else np.maximum(i - n_window, 0)
    span = (i - lo).astype(np.float64)
    past_mean = (cs[i] - cs[lo]) / span[:, None]
    return _kl_rows(thetas[1:], past_mean)


# The kinds that the null model and the publication order compare, with
# the value functions that `nullmodel._OrderValues` repeats in place.
SERIES_VALUES = {"T2T": _pairwise_values, "T2P": _window_mean_values}


def _check_sequence(thetas) -> np.ndarray:
    thetas = _check_distributions(thetas)
    if thetas.shape[0] < 2:
        raise ValueError("need at least 2 documents")
    return thetas


def t2t_series(thetas, ordering: str = READING_ORDER) -> SurpriseSeries:
    """Local surprise: KL from each document to the one read just before."""
    thetas = _check_sequence(thetas)
    return SurpriseSeries(kind="T2T", values=_pairwise_values(thetas), ordering=ordering)


def t2p_series(thetas, ordering: str = READING_ORDER) -> SurpriseSeries:
    """Global surprise: KL from each document to the unweighted mean of
    every document read before it."""
    thetas = _check_sequence(thetas)
    return SurpriseSeries(kind="T2P", values=_window_mean_values(thetas), ordering=ordering)


def t2n_series(thetas, n_window: int, ordering: str = READING_ORDER) -> SurpriseSeries:
    """Windowed surprise: KL from each document to the mean of the
    min(n_window, i) immediately preceding documents. Collapses to the
    local measure at n_window=1 and to the global one at n_window >= D.
    """
    if n_window < 1:
        raise ValueError(f"n_window must be >= 1, got {n_window}")
    thetas = _check_sequence(thetas)
    # The definition collapses at the extremes; reuse the identical
    # arithmetic there so the equalities hold exactly, not just to
    # rounding error.
    if n_window == 1:
        values = _pairwise_values(thetas)
    elif n_window >= thetas.shape[0] - 1:
        values = _window_mean_values(thetas)
    else:
        values = _window_mean_values(thetas, n_window)
    return SurpriseSeries(kind="T2N", values=values, ordering=ordering, n_window=n_window)


def _series_values(series) -> np.ndarray:
    if isinstance(series, SurpriseSeries):
        return series.values
    return np.asarray(series, dtype=np.float64)


def check_breaks(breaks, length: int) -> list[int]:
    breaks = [int(b) for b in breaks]
    if not breaks or breaks[0] != 0:
        raise ValueError("breaks must start at 0")
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        raise ValueError("breaks must be strictly increasing")
    if breaks[-1] >= length:
        raise ValueError(f"break {breaks[-1]} out of range for length {length}")
    return breaks


def epoch_mean_relative(series, null_mean_per_position, breaks) -> np.ndarray:
    """Mean of (surprise - null mean) within each segment; sign marks
    exploration (+) versus exploitation (-)."""
    v = _series_values(series)
    null_mean = np.asarray(null_mean_per_position, dtype=np.float64)
    if v.shape != null_mean.shape:
        raise ValueError(f"length mismatch: {v.shape} vs {null_mean.shape}")
    bounds = check_breaks(breaks, len(v)) + [len(v)]
    rel = v - null_mean
    return np.array([rel[a:b].mean() for a, b in zip(bounds, bounds[1:])])
