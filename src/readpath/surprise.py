"""Information-theoretic surprise along an ordered document sequence.

All divergences are Kullback-Leibler in base 2 ("bits"), computed from
strictly positive topic distributions. Positivity is an input contract
enforced upstream by the Dirichlet-smoothed topic estimates; there is no
epsilon-smoothing here, so a nonpositive entry fails loudly instead of
silently bending the measure.

Series conventions: for D ordered documents, surprise is defined at
positions 1..D-1 (the first document has no predecessor), stored in a
length D-1 array where ``values[j]`` belongs to position j+1.

Every T2T, T2P and T2N value of the program goes through one row kernel,
`_kl_rows`, which turns the ratios q / p into KL rows in place. One order
evaluator, `_OrderValues`, gives both kinds (`KINDS`) of any order of the
rows of theta through it, one method per kind: the reading order here,
one kind per series, and the null and Monte Carlo publication orders in
`nullmodel`, both kinds per order. The scalar `kl_divergence` is the
kernel's test reference. `epochs` segments these series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SERIES_KINDS = ("T2T", "T2P", "T2N")

# The kinds that the null model and the publication order compare, in the
# order of `_OrderValues` rows.
KINDS = ("T2T", "T2P")

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


def _kl_rows(q: np.ndarray, ratios: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`kl_divergence` along the last axis of any stack of row pairs (q, p),
    given ``ratios`` = q / p, which it overwrites; into ``out`` when given."""
    np.log2(ratios, out=ratios)
    np.multiply(q, ratios, out=ratios)
    out = ratios.sum(axis=-1, out=out)
    return np.maximum(out, 0.0, out=out)


class _OrderValues:
    """Both surprise kinds of any order of the D rows of ``thetas``, into
    buffers allocated once: O(D * k) time per order and no allocation.
    One method per kind: `t2t` compares each row with the one before it;
    `t2p` compares it with the mean of the rows before it, their running
    sum divided by their count."""

    def __init__(self, thetas: np.ndarray):
        d, k = thetas.shape
        self.thetas = thetas
        self.q = np.empty((d, k))
        self.work = np.empty((d - 1, k))
        # Dividing by a full array, not a broadcast column, keeps the
        # division contiguous; the quotients are the same.
        self.counts = np.repeat(np.arange(1.0, d), k).reshape(d - 1, k)

    def __call__(self, order: np.ndarray, out) -> None:
        """Write the T2T and T2P values of ``order`` (D indices, each in
        range) into ``out[0]`` and ``out[1]``, two rows of D - 1."""
        np.take(self.thetas, order, axis=0, out=self.q, mode="clip")
        self.t2t(self.q, out[0])
        self.t2p(self.q, out[1])

    def t2t(self, q: np.ndarray, out: np.ndarray) -> None:
        """The T2T values of the D rows of ``q``, in their order, into ``out``."""
        np.divide(q[1:], q[:-1], out=self.work)
        _kl_rows(q[1:], self.work, out)

    def t2p(self, q: np.ndarray, out: np.ndarray) -> None:
        """The T2P values of the D rows of ``q``, in their order, into ``out``."""
        work = self.work
        np.cumsum(q[:-1], axis=0, out=work)
        np.divide(work, self.counts, out=work)  # the past means
        np.divide(q[1:], work, out=work)
        _kl_rows(q[1:], work, out)


def _reading_values(thetas: np.ndarray, kind: str) -> np.ndarray:
    """The ``kind`` values ("T2T" or "T2P") of the order the rows of
    ``thetas`` are in."""
    out = np.empty(thetas.shape[0] - 1)
    getattr(_OrderValues(thetas), kind.lower())(thetas, out)
    return out


def _check_sequence(thetas) -> np.ndarray:
    thetas = _check_distributions(thetas)
    if thetas.shape[0] < 2:
        raise ValueError("need at least 2 documents")
    return thetas


def t2t_series(thetas, ordering: str = READING_ORDER) -> SurpriseSeries:
    """Local surprise: KL from each document to the one read just before."""
    thetas = _check_sequence(thetas)
    return SurpriseSeries(kind="T2T", values=_reading_values(thetas, "T2T"), ordering=ordering)


def t2p_series(thetas, ordering: str = READING_ORDER) -> SurpriseSeries:
    """Global surprise: KL from each document to the unweighted mean of
    every document read before it."""
    thetas = _check_sequence(thetas)
    return SurpriseSeries(kind="T2P", values=_reading_values(thetas, "T2P"), ordering=ordering)


def t2n_series(thetas, n_window: int, ordering: str = READING_ORDER) -> SurpriseSeries:
    """Windowed surprise: KL from each document to the mean of the
    min(n_window, i) immediately preceding documents. Collapses to the
    local measure at n_window=1 and to the global one at n_window >= D.
    """
    if n_window < 1:
        raise ValueError(f"n_window must be >= 1, got {n_window}")
    thetas = _check_sequence(thetas)
    d = thetas.shape[0]
    # The definition collapses at the extremes; reuse the identical
    # arithmetic there so the equalities hold exactly, not just to
    # rounding error.
    if n_window == 1 or n_window >= d - 1:
        values = _reading_values(thetas, "T2T" if n_window == 1 else "T2P")
    else:
        cs = np.vstack([np.zeros(thetas.shape[1]), np.cumsum(thetas, axis=0)])
        i = np.arange(1, d)
        lo = np.maximum(i - n_window, 0)
        past = (cs[i] - cs[lo]) / (i - lo)[:, None]
        values = _kl_rows(thetas[1:], np.divide(thetas[1:], past, out=past))
    return SurpriseSeries(kind="T2N", values=values, ordering=ordering, n_window=n_window)


def _series_values(series) -> np.ndarray:
    if isinstance(series, SurpriseSeries):
        return series.values
    return np.asarray(series, dtype=np.float64)
