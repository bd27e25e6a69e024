"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Criterion 8 is split into its planted-break and pure-noise clauses
so each reports separately.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from readpath.cli import main
from readpath.corpus import CorpusMatrix
from readpath.epochs import EpochSearchConfig, fit, segment_loglik, select_n
from readpath.nullmodel import (
    ConstrainedPermutationSampler,
    NullConfig,
    build_null,
    null_permutations,
)
from readpath.paths import greedy_t2t_path
from readpath.surprise import kl_divergence, t2n_series, t2p_series, t2t_series
from readpath.topics import TopicModelParams, sweep_k, train

from conftest import build_demo, make_records, random_simplex
from test_topics import matrix_from_docs


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_c01_kl_worked_example():
    q, p = [0.25, 0.5, 0.25], [0.5, 0.25, 0.25]
    kl_divergence(q, p)  # warm
    t0 = time.perf_counter()
    value = kl_divergence(q, p)
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.25) <= 1e-12 and elapsed < 1e-3
    report(1, ok, f"coding-failure example = {value} bits in {elapsed * 1e6:.0f} us")


def test_c02_kl_axioms():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    qs = random_simplex(rng, 10_000, 80)
    ps = random_simplex(rng, 10_000, 80)
    nonneg = True
    positive_when_unequal = True
    asymmetry_witnessed = False
    for q, p in zip(qs, ps):
        v = kl_divergence(q, p)
        nonneg &= v >= 0.0
        if np.abs(q - p).max() > 1e-9:
            positive_when_unequal &= v > 0.0
        if not asymmetry_witnessed and v != kl_divergence(p, q):
            asymmetry_witnessed = True
    zero_on_equal = all(kl_divergence(q, q) == 0.0 for q in qs[:100])
    elapsed = time.perf_counter() - t0
    ok = nonneg and positive_when_unequal and zero_on_equal and asymmetry_witnessed and elapsed < 1.0
    report(
        2,
        ok,
        f"10,000 simplex pairs (k=80): nonneg={nonneg}, zero-iff-equal="
        f"{positive_when_unequal and zero_on_equal}, asymmetry={asymmetry_witnessed}, {elapsed:.2f}s",
    )


def test_c03_definition_collapses():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 51))
        k = int(rng.integers(2, 12))
        thetas = random_simplex(rng, d, k)
        t2t = t2t_series(thetas).values
        t2p = t2p_series(thetas).values
        worst = max(worst, np.abs(t2n_series(thetas, 1).values - t2t).max())
        worst = max(worst, np.abs(t2n_series(thetas, d).values - t2p).max())
        worst = max(worst, np.abs(t2n_series(thetas, d + 5).values - t2p).max())
        worst = max(worst, abs(t2p[0] - t2t[0]))
    ok = worst <= 1e-12
    report(3, ok, f"window collapses on 100 random corpora, worst gap {worst:.2e}")


def _random_feasible_instance(rng):
    n = int(rng.integers(4, 7))
    slot_years = 1840 + np.cumsum(rng.integers(0, 3, size=n))
    pub_years = slot_years - rng.integers(0, 3, size=n)
    return make_records(
        pub_years=[int(p) for p in pub_years], read_years=[int(y) for y in slot_years]
    )


def _valid_permutations(records):
    n = len(records)
    slot_years = [r.read_date.year for r in records]
    pubs = [r.pub_year for r in records]
    return [
        perm
        for perm in itertools.permutations(range(n))
        if all(pubs[perm[t]] <= slot_years[t] for t in range(n))
    ]


def test_c04_null_uniformity():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    draws_per_instance = 20_000
    failures = []
    for inst in range(50):
        records = _random_feasible_instance(rng)
        sampler = ConstrainedPermutationSampler(records)
        oracle = _valid_permutations(records)
        draws = sampler.sample_batch([rng] * draws_per_instance, draws_per_instance)
        slot_years = sampler.slot_years
        pubs = sampler.pub_years
        if np.any(pubs[draws] > slot_years[None, :]):
            failures.append((inst, "constraint violated"))
            continue
        counts = Counter(tuple(d) for d in draws)
        if set(counts) - set(oracle):
            failures.append((inst, "invalid permutation sampled"))
            continue
        if len(oracle) == 1:
            if counts[oracle[0]] != draws_per_instance:
                failures.append((inst, "forced instance mismatch"))
            continue
        expected = draws_per_instance / len(oracle)
        chi2 = sum((counts.get(p, 0) - expected) ** 2 / expected for p in oracle)
        crit = stats.chi2.ppf(1 - 0.001, df=len(oracle) - 1)
        if chi2 >= crit:
            failures.append((inst, f"chi2 {chi2:.1f} >= {crit:.1f}"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(
        4,
        ok,
        f"50 instances x 20,000 draws uniform vs enumeration at alpha=0.001 "
        f"({elapsed:.1f}s){'; failures: ' + repr(failures[:3]) if failures else ''}",
    )


def test_c05_null_ensemble_oracle():
    rng = np.random.default_rng(11)
    records = make_records(
        pub_years=[1840, 1841, 1842, 1842, 1843], read_years=[1841, 1842, 1842, 1843, 1844]
    )
    thetas = random_simplex(rng, 5, 6)
    oracle_vals = np.array(
        [t2t_series(thetas[list(p)]).values for p in _valid_permutations(records)]
    )
    exact_mean = oracle_vals.mean(axis=0)
    exact_std = oracle_vals.std(axis=0)
    m = 2000
    ens = build_null(thetas, null_permutations(records, NullConfig(samples=m, seed=1)))["T2T"]
    se = exact_std / np.sqrt(m)
    gaps = np.abs(ens.position_mean - exact_mean)
    ok = bool(np.all(gaps <= 3 * se + 1e-12))
    report(
        5,
        ok,
        f"Monte Carlo (M=2000) per-position means within 3 SE of enumeration "
        f"(max gap {gaps.max():.4f}, max allowance {(3 * se).max():.4f})",
    )


def test_c06_greedy_correctness():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        m = rng.random((20, 20))
        np.fill_diagonal(m, 0.0)
        path = greedy_t2t_path(m, 0)
        rerun = greedy_t2t_path(m, 0)
        ok &= path.order == rerun.order
        visited = {path.order[0]}
        for s, nxt in enumerate(path.order[1:]):
            cur = path.order[s]
            best = min(m[cur, j] for j in range(20) if j not in visited)
            ok &= m[cur, nxt] == best
            visited.add(nxt)
        ok &= sorted(path.order) == list(range(20))
    report(6, ok, "100 random 20x20 matrices: every greedy step attains the row minimum")


def test_c07_segmentation_oracle_equivalence():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(50):
        length = int(rng.integers(10, 201))
        x = rng.normal(0, 1, length)
        min_len = int(rng.integers(2, max(3, length // 3)))
        cfg = EpochSearchConfig(n_max=2, min_length=min_len, min_years=None)
        got = fit(x, 2, cfg).breaks
        best = max(
            range(min_len, length - min_len + 1), key=lambda b: segment_loglik(x, [0, b])
        )
        ok &= got == (0, best)
    report(7, ok, "fit(n=2) equals single-break brute force on 50 random series")


def test_c08_planted_break_recovery():
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    cfg = EpochSearchConfig(n_max=2, min_length=30, min_years=None)
    within_5 = 0
    chose_two = 0
    trials = 100
    for _ in range(trials):
        x = np.concatenate([rng.normal(0, 1, 300), rng.normal(2, 1, 300)])
        best = select_n(x, cfg)[0]
        if best.n == 2:
            chose_two += 1
            if abs(best.breaks[1] - 300) <= 5:
                within_5 += 1
        else:
            model2 = fit(x, 2, cfg)
            if abs(model2.breaks[1] - 300) <= 5:
                within_5 += 1
    elapsed = time.perf_counter() - t0
    ok = within_5 >= 95 and chose_two >= 95 and elapsed < 30.0
    report(
        8,
        ok,
        f"two-regime series: break within +-5 in {within_5}/100, n=2 chosen in "
        f"{chose_two}/100 ({elapsed:.1f}s)",
    )


def test_c08_iid_noise_prefers_single_epoch():
    """On 100 pure-noise series of 400 points (no true break), `select_n`
    keeps a single epoch in at least 90, within 30 s. This guards against
    the sup-likelihood-ratio overfitting of penalized-likelihood criteria:
    the best of the ~340 admissible breaks gains more than AIC's
    3-log-unit penalty about half the time, whereas the evidence averages
    over the breaks instead of maximizing over them.
    """
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()
    cfg = EpochSearchConfig(n_max=2, min_length=30, min_years=None)
    chose_one = 0
    for _ in range(100):
        x = rng.normal(0, 1, 400)
        best = select_n(x, cfg)[0]
        if best.n == 1:
            chose_one += 1
    elapsed = time.perf_counter() - t0
    ok = chose_one >= 90 and elapsed < 30.0
    report(
        8,
        ok,
        f"i.i.d. N(0,1), D=400: n=1 chosen in {chose_one}/100 (need >= 90; {elapsed:.1f}s)",
    )


def test_c09_aic_bookkeeping():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 90)
    best, table, _, _ = select_n(x, EpochSearchConfig(n_max=3, min_length=10, min_years=None))
    counts_ok = [row["n_params"] for row in table] == [2, 5, 8]
    selected = next(r for r in table if r["n"] == best.n)
    rel_ok = selected["relative_likelihood"] == 1.0
    ok = counts_ok and rel_ok
    report(9, ok, f"parameter counts {[r['n_params'] for r in table]}, selected model rel. likelihood 1.0")


def test_c10_topic_model_recovery():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    n_docs, tokens_per_doc, half = 200, 200, 100
    weights = rng.uniform(0.0, 1.0, size=n_docs)
    docs = []
    for w in weights:
        from_first = rng.random(tokens_per_doc) < w
        toks = np.where(
            from_first,
            rng.integers(0, half, tokens_per_doc),
            rng.integers(half, 2 * half, tokens_per_doc),
        )
        docs.append(toks.tolist())
    matrix = matrix_from_docs(docs, 2 * half)
    planted = np.column_stack([weights, 1.0 - weights])

    model = train(matrix, TopicModelParams(k=2, alpha=1.0, iterations=200, seed=1))
    errs = [
        np.abs(model.theta[:, list(perm)] - planted).mean()
        for perm in itertools.permutations(range(2))
    ]
    mae = min(errs)

    sweep_ok = True
    for m in sweep_k(matrix, [2, 4, 8], TopicModelParams(k=2, alpha=1.0, iterations=120, seed=2)):
        for mat in (m.theta, m.phi):
            sweep_ok &= np.abs(mat.sum(axis=1) - 1.0).max() < 1e-9 and mat.min() > 0
    elapsed = time.perf_counter() - t0
    ok = mae < 0.1 and sweep_ok and elapsed < 120.0
    report(
        10,
        ok,
        f"planted-topic MAE {mae:.4f} (< 0.1), sweep k in {{2,4,8}} simplex-valid ({elapsed:.1f}s)",
    )


def test_c11_end_to_end_determinism(tmp_path):
    cfg = build_demo(tmp_path, docs=14, tokens=120, seed=9)
    rc1 = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r1"), "--threads", "1"])
    rc2 = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r2"), "--threads", "1"])
    rc3 = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r3"), "--threads", "8"])
    s1 = (tmp_path / "r1" / "k2" / "summary.json").read_bytes()
    s2 = (tmp_path / "r2" / "k2" / "summary.json").read_bytes()
    s3 = (tmp_path / "r3" / "k2" / "summary.json").read_bytes()
    ok = rc1 == rc2 == rc3 == 0 and s1 == s2 == s3
    # also confirm the summaries carry real content
    payload = json.loads(s1)
    ok = ok and payload["surprise"]["T2T"]["observed_bits_per_step"] > 0
    report(11, ok, "rerun and threads=1 vs threads=8 give identical summary JSON")
