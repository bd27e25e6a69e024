"""Maximum-likelihood segmentation of a surprise series into Gaussian epochs.

Each epoch is a run of consecutive positions modeled as i.i.d. Gaussian
with its own mean and variance; a segmentation into n epochs has 3n - 1
free parameters (n - 1 interior break positions, n means, n variances).
The profiled log-likelihood of a segmentation is

    sum_i -(m_i / 2) * (1 + ln(2 * pi * max(var_i, floor)))

with m_i the segment length and var_i the maximum-likelihood variance
(mean squared deviation). Additive prior constants are dropped: every
use is a comparison between segmentations. Natural log throughout, so a
log-likelihood gain dL means exp(dL) times as likely.

`fit` searches all break placements that satisfy the minimum epoch
length with a suffix dynamic program over segment scores and returns the
global maximum; ties resolve to the lexicographically smallest break
vector.

The number of epochs is chosen by Bayesian evidence (Fearnhead 2006,
Stat. Comput. 16:203). Under a conjugate Normal-Inverse-Gamma prior,
mu | var ~ N(m0, var / kappa0) and var ~ InvGamma(a0, b0), each segment
has an exact marginal likelihood; the evidence for n epochs is the mean
of their product over every admissible placement of the n - 1 breaks
(a uniform prior over placements), summed by the same dynamic program
with logsumexp in place of max. The prior is empirical Bayes: m0 is the
series mean, b0 = a0 * var(series), with a0 = 1 and kappa0 = 0.1.
Unlike AIC, which rewards the best of several hundred candidate breaks,
the evidence averages over them, so it does not overfit pure noise. The
selected model's breaks are still the maximum-likelihood ones `fit`
finds; the log-likelihood and AIC = 2*(3n - 1) - 2*loglik are kept
alongside for comparison.

Each dynamic program is one `_suffix_dp` pass, which scores segments
from prefix sums in blocks of B = _BLOCK start rows, O(B * L) memory per
pass for a series of L positions. A block scores only the segment ends
its starts can reach, and each level sums or maximizes only over the ends
that the level below can still complete, so a minimum of mu positions
leaves about (L - mu)^2 / 2 scores per pass and ever fewer terms per
level: O(L^2) time at most. `select_n` costs a series a max, an evidence
and a placement-count pass, and reads its single-break landscape from row
0 and column L of the scores, O(L). The count pass depends only on the
minimum lengths, so `placement_log_counts` lets series that share their
dates share it; it is also where an ``n_max`` that the series cannot hold
is found, with one message for the library and the command line.

`epoch_mean_relative` gives each epoch's mean surprise relative to the
null, whose sign marks exploration (+) or exploitation (-).

The minimum epoch length is either a fixed index count or a calendar
duration; the calendar form resolves, for each candidate segment start,
to the smallest index span whose dates cover the duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from functools import partial

import numpy as np

from .errors import InputError
from .surprise import _series_values

DAYS_PER_YEAR = 365.25

# Normal-Inverse-Gamma prior for the evidence; m0 and b0 are set from the
# series (see evidence_prior).
PRIOR_KAPPA0 = 0.1
PRIOR_A0 = 1.0

# Start rows scored at once by `_suffix_dp`. A block's score temporaries,
# about ten arrays of _BLOCK x L floats, set the peak RSS of a run's epoch
# stage; 32 rows keep them within the cache, and the pass is faster than
# with 128 (at L = 1,599, 39 against 53-63 ms per select_n).
_BLOCK = 32

# Lower bound on every segment variance, so a constant segment has a
# finite log-likelihood.
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class EpochSearchConfig:
    n_max: int = 3
    min_length: int | None = None  # index-count minimum; overrides min_years
    min_years: float | None = 5.0  # calendar minimum, resolved via read dates

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.min_length is None and self.min_years is None:
            raise ValueError("set min_length (indices) or min_years (calendar)")
        if self.min_length is not None and self.min_length < 2:
            raise ValueError("min_length must be >= 2")
        if self.min_years is not None and self.min_years <= 0:
            raise ValueError("min_years must be positive")


@dataclass(frozen=True)
class EpochModel:
    breaks: tuple[int, ...]  # segment start indices; breaks[0] == 0
    means: tuple[float, ...]
    variances: tuple[float, ...]
    log_likelihood: float
    n_params: int  # 3n - 1
    aic: float

    @property
    def n(self) -> int:
        return len(self.breaks)


def check_breaks(breaks, length: int) -> list[int]:
    """``breaks`` as a list of segment starts of a series of ``length``
    positions: from 0, strictly increasing and in range."""
    breaks = [int(b) for b in breaks]
    if not breaks or breaks[0] != 0:
        raise ValueError("breaks must start at 0")
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        raise ValueError("breaks must be strictly increasing")
    if breaks[-1] >= length:
        raise ValueError(f"break {breaks[-1]} out of range for length {length}")
    return breaks


def segment_loglik(series, breaks) -> float:
    """Profiled Gaussian log-likelihood of a given segmentation."""
    x = _series_values(series)
    if len(x) == 0:
        raise ValueError("empty series")
    breaks = check_breaks(breaks, len(x))
    for s, e in zip(breaks, breaks[1:] + [len(x)]):
        if e - s < 2:
            raise ValueError(f"segment [{s}, {e}) shorter than 2 positions")
    return _model(x, breaks).log_likelihood


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


def _min_length_by_start(length: int, config: EpochSearchConfig, dates: list[date] | None) -> np.ndarray:
    """Minimum feasible segment length for each candidate start index.
    Entries larger than the remaining span mark starts that cannot open a
    segment at all."""
    big = length + 1
    if config.min_length is not None:
        ml = np.full(length + 1, max(2, config.min_length), dtype=np.int64)
        ml[length] = big
        return ml
    if dates is None:
        raise ValueError("calendar minimum epoch length needs per-position dates")
    if len(dates) != length:
        raise ValueError(f"need one date per series position ({length}), got {len(dates)}")
    t = np.array([d.toordinal() for d in dates], dtype=np.float64)
    if np.any(np.diff(t) < 0):
        raise ValueError("dates must be nondecreasing")
    # Smallest m such that dates[s + m - 1] lies min_years after dates[s].
    target = t + config.min_years * DAYS_PER_YEAR
    first_far = np.searchsorted(t, target, side="left")
    ml = np.where(first_far < length, first_far - np.arange(length) + 1, big)
    ml = np.maximum(ml, 2)
    return np.concatenate([ml, [big]]).astype(np.int64)


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative sums of the series and of its squares, entry i covering
    x[:i]. The series is centred at its mean first, which is also the
    prior's m0, so the prefix-sum moments stay numerically tame."""
    c = x - x.mean()
    return np.concatenate([[0.0], np.cumsum(c)]), np.concatenate([[0.0], np.cumsum(c * c)])


def _loglik_scores(cs, css, min_len: np.ndarray, a, b) -> np.ndarray:
    """Profiled loglik of segments [a, b) over broadcast index arrays, or
    -inf where a segment is shorter than the minimum of its start."""
    m = b - a
    s = cs[b] - cs[a]
    ss = css[b] - css[a]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = s / m
        var = np.maximum(ss / m - mu * mu, VARIANCE_FLOOR)
        score = -(m / 2.0) * (1.0 + np.log(2.0 * np.pi * var))
    score[m < min_len[a]] = -np.inf
    return score


def _evidence_scores(
    cs, css, min_len: np.ndarray, prior: dict, by_length: np.ndarray, a, b
) -> np.ndarray:
    """Log marginal likelihood of segments [a, b) under the prior, over
    broadcast index arrays, or -inf where a segment is shorter than the
    minimum of its start. The prefix sums are deviations from m0, and
    ``by_length`` holds the terms that depend on the segment length only
    (`_evidence_scorer`)."""
    m = b - a
    s = cs[b] - cs[a]
    ss = css[b] - css[a]
    k0, a0, b0 = prior["kappa0"], prior["a0"], prior["b0"]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_dev = s / m  # segment mean minus m0
        scatter = np.maximum(ss - s * mean_dev, 0.0)
        bn = b0 + scatter / 2.0 + k0 * m * mean_dev * mean_dev / (2.0 * (k0 + m))
        score = by_length[np.maximum(m, 0)] - (a0 + m / 2.0) * np.log(bn)
    score[m < min_len[a]] = -np.inf
    return score


def _evidence_scorer(x: np.ndarray, min_len: np.ndarray, prior: dict) -> partial:
    """`_evidence_scores` bound to the prefix sums, minimums and per-length
    terms of series x, the last built once for every segment length."""
    # Loaded here, not at module import: scipy.special costs about 0.3 s to
    # import, and most pipeline stages never score evidence.
    from scipy.special import gammaln

    k0, a0, b0 = prior["kappa0"], prior["a0"], prior["b0"]
    lengths = np.arange(len(x) + 1, dtype=np.float64)
    by_length = (
        gammaln(a0 + lengths / 2.0) - gammaln(a0) + a0 * math.log(b0)
        + 0.5 * (math.log(k0) - np.log(k0 + lengths)) - (lengths / 2.0) * math.log(2.0 * math.pi)
    )
    return partial(_evidence_scores, *_prefix_sums(x), min_len, prior, by_length)


def _feasible_scores(min_len: np.ndarray, a, b) -> np.ndarray:
    """0 where segment [a, b) meets the minimum of its start, else -inf:
    summed over placements, these count the admissible ones."""
    return np.where(b - a < min_len[a], -np.inf, 0.0)


def _row_max(window: np.ndarray, f0: int, width: int) -> np.ndarray:
    return window.max(axis=1)


def _row_logsumexp(window: np.ndarray, f0: int, width: int) -> np.ndarray:
    """Row logsumexp of rows ``width`` wide whose terms are -inf outside
    the columns ``window`` holds, from f0 on. The exponentials go
    back into a zero-filled row of the full width before the sum: numpy's
    pairwise row sum then meets the same array as over the whole row, so
    the result has the same bits, which a sum over the window alone would
    not."""
    top = window.max(axis=1)
    finite = np.isfinite(top)
    out = np.full(len(window), -np.inf)
    spread = np.zeros((np.count_nonzero(finite), width))
    with np.errstate(invalid="ignore"):
        spread[:, f0:f0 + window.shape[1]] = np.exp(window[finite] - top[finite, None])
        out[finite] = top[finite] + np.log(spread.sum(axis=1))
    return out


def _suffix_dp(score, min_len: np.ndarray, n_max: int, reduce) -> np.ndarray:
    """Row j, entry a: ``reduce`` (`_row_max` or `_row_logsumexp`) over
    every split of the suffix [a, L) into j feasible segments of their
    total ``score``, -inf where none exists, for j = 0..n_max. ``min_len``
    is the scorer's `_min_length_by_start`.

    Start row a meets only suffix entries b >= a + min_len[a], so the rows
    go in descending blocks of _BLOCK, each run through every j before the
    next block, and a block scores only the columns [c0, L] its rows can
    reach. Level j then reduces over [f0, f1], the first and last finite
    entries of level j - 1 from c0 on; level 1 reads column L alone. At
    most O(L^2) time and O(_BLOCK * L) memory, far less under a long
    minimum or a large j."""
    length = len(min_len) - 1
    acc = np.full((n_max + 1, length + 1), -np.inf)
    acc[0, length] = 0.0
    for hi in range(length + 1, 0, -_BLOCK):
        lo = max(hi - _BLOCK, 0)
        starts = np.arange(lo, hi)
        c0 = int((starts + min_len[lo:hi]).min())
        if c0 > length:  # no row of the block can open a segment
            continue
        rows = score(starts[:, None], np.arange(c0, length + 1))
        for j in range(1, n_max + 1):
            reach = np.flatnonzero(np.isfinite(acc[j - 1, c0:]))
            if len(reach) == 0:  # and none at any larger j either
                break
            f0, f1 = c0 + int(reach[0]), c0 + int(reach[-1])
            window = rows[:, f0 - c0:f1 + 1 - c0] + acc[j - 1, f0:f1 + 1]
            acc[j, lo:hi] = reduce(window, f0, length + 1)
    return acc


def _infeasible(length: int, n: int) -> InputError:
    return InputError(f"series of {length} positions cannot hold {n} epoch(s) of the minimum length")


def _ml_breaks(score, best: np.ndarray, n: int) -> list[int]:
    """Forward reconstruction of the n-segment maximum from the `_suffix_dp`
    row maxima, scoring only the rows it walks; taking the first maximizer
    makes ties resolve to the lexicographically smallest break vector."""
    length = best.shape[1] - 1
    if not np.isfinite(best[n, 0]):
        raise _infeasible(length, n)
    cols = np.arange(length + 1)
    breaks = [0]
    a = 0
    for j in range(n, 1, -1):
        cand = score(a, cols) + best[j - 1]
        b = int(np.nonzero(cand == best[j, a])[0][0])
        breaks.append(b)
        a = b
    return breaks


def _model(x: np.ndarray, breaks: list[int]) -> EpochModel:
    """The model of x split at ``breaks``: each segment's mean and
    maximum-likelihood variance, and their profiled log-likelihood summed
    in segment order."""
    means, variances, ll = [], [], 0.0
    for s, e in zip(breaks, breaks[1:] + [len(x)]):
        mu = x[s:e].mean()
        var = max(float(np.mean((x[s:e] - mu) ** 2)), VARIANCE_FLOOR)
        means.append(float(mu))
        variances.append(var)
        ll += -((e - s) / 2.0) * (1.0 + math.log(2.0 * math.pi * var))
    n_params = 3 * len(breaks) - 1
    return EpochModel(
        breaks=tuple(breaks),
        means=tuple(means),
        variances=tuple(variances),
        log_likelihood=ll,
        n_params=n_params,
        aic=2.0 * n_params - 2.0 * ll,
    )


def _loglik_scorer(x: np.ndarray, min_len: np.ndarray) -> partial:
    """`_loglik_scores` bound to the prefix sums and minimums of series x."""
    return partial(_loglik_scores, *_prefix_sums(x), min_len)


def fit(series, n: int, config: EpochSearchConfig, dates: list[date] | None = None) -> EpochModel:
    """Globally optimal n-epoch segmentation under the minimum-length
    constraint: one `_suffix_dp` max pass, at most O(L^2) time and
    O(_BLOCK * L) memory, with forward reconstruction, which makes ties
    resolve to the lexicographically smallest break vector."""
    x = _series_values(series)
    if len(x) == 0:
        raise ValueError("empty series")
    if n < 1:
        raise ValueError("n must be >= 1")
    length = len(x)
    min_len = _min_length_by_start(length, config, dates)
    if n == 1:  # one segment, the whole series: no search
        if length < min_len[0]:
            raise _infeasible(length, 1)
        return _model(x, [0])
    score = _loglik_scorer(x, min_len)
    return _model(x, _ml_breaks(score, _suffix_dp(score, min_len, n, _row_max), n))


def evidence_prior(series) -> dict:
    """Empirical-Bayes Normal-Inverse-Gamma prior used by `select_n`."""
    x = _series_values(series)
    if len(x) == 0:
        raise ValueError("empty series")
    var = max(float(np.var(x)), VARIANCE_FLOOR)
    return {"m0": float(x.mean()), "kappa0": PRIOR_KAPPA0, "a0": PRIOR_A0, "b0": PRIOR_A0 * var}


def placement_log_counts(
    length: int, config: EpochSearchConfig, dates: list[date] | None = None
) -> np.ndarray:
    """Log number of admissible break placements for n = 1..n_max epochs
    over ``length`` positions: one `_suffix_dp` logsumexp pass. It depends
    only on the minimum lengths, so every series of that length and those
    dates shares it. An ``n_max`` that does not fit is an InputError naming
    it, the minimum in use and the largest number of epochs that fits."""
    min_len = _min_length_by_start(length, config, dates)
    counts = _suffix_dp(partial(_feasible_scores, min_len), min_len, config.n_max, _row_logsumexp)[1:, 0]
    if counts[-1] == -np.inf:
        minimum = (
            f"epochs.min_length = {config.min_length}" if config.min_length is not None
            else f"epochs.min_years = {config.min_years:g}"
        )
        raise InputError(
            f"epochs.n_max = {config.n_max} does not fit the series of {length} positions under "
            f"{minimum}: the largest number of epochs that fits is {np.isfinite(counts).sum()}"
        )
    return counts


def select_n(
    series,
    config: EpochSearchConfig,
    dates: list[date] | None = None,
    log_placements: np.ndarray | None = None,
) -> tuple[EpochModel, list[dict], np.ndarray, dict]:
    """Fit n = 1..n_max and pick the n with the largest log evidence
    (ties favor fewer epochs); the chosen model carries the
    maximum-likelihood breaks for that n. One evidence pass and one max
    pass for every n's breaks. ``log_placements`` is `placement_log_counts`
    of the series' length and dates, computed here when not given (an
    ``n_max`` that does not fit raises there).

    Returns ``(best, table, landscape, prior)``:
    - the chosen model;
    - a table row per n with the parameter count, log-likelihood, AIC,
      log evidence, evidence relative to the selected n (so the selected
      row is exactly 1.0), the log-likelihood gain over n - 1 and the
      breaks;
    - the single-break landscape: entry b is the two-epoch log-likelihood
      of segments [0, b) and [b, L), NaN where b violates the minimum
      length;
    - the `evidence_prior` the evidence was computed under.
    """
    x = _series_values(series)
    if len(x) == 0:
        raise ValueError("empty series")
    length = len(x)
    if log_placements is None:
        log_placements = placement_log_counts(length, config, dates)
    elif np.shape(log_placements) != (config.n_max,):
        raise ValueError(f"need one placement count per n = 1..{config.n_max}")
    min_len = _min_length_by_start(length, config, dates)
    score = _loglik_scorer(x, min_len)
    best = _suffix_dp(score, min_len, config.n_max, _row_max)
    models = [_model(x, _ml_breaks(score, best, n)) for n in range(1, config.n_max + 1)]
    prior = evidence_prior(x)
    log_total = _suffix_dp(_evidence_scorer(x, min_len, prior), min_len, config.n_max, _row_logsumexp)
    evidence = log_total[1:, 0] - log_placements
    chosen = int(np.argmax(evidence))
    rows = [
        {
            "n": m.n,
            "n_params": m.n_params,
            "log_likelihood": m.log_likelihood,
            "aic": m.aic,
            "log_evidence": float(evidence[i]),
            "relative_likelihood": math.exp(evidence[i] - evidence[chosen]),
            "delta_loglik": None if i == 0 else m.log_likelihood - models[i - 1].log_likelihood,
            "breaks": list(m.breaks),
        }
        for i, m in enumerate(models)
    ]
    inner = np.arange(1, length)
    landscape = np.full(length + 1, np.nan)
    two = score(0, inner) + score(inner, length)  # row 0 and column L: O(L)
    landscape[1:length] = np.where(np.isfinite(two), two, np.nan)
    return models[chosen], rows, landscape, prior
