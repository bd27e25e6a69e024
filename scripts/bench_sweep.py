#!/usr/bin/env python3
"""Time the Gibbs sweep on an ingested corpus or a synthetic Zipf corpus.

Trains the models of a k sweep with ``readpath.topics.sweep_k`` (the call
``train`` and ``run`` make) and prints one JSON line: the wall seconds of
each repeat, ns per (token, topic) update as perfbench counts it (sweep_k
seconds over tokens x sum(k) x sweeps), the share of tokens that are not
the first of their sparse (document, word) entry, the peak RSS, and a
SHA-256 over every model's theta and phi bytes, so two source trees can be
compared for speed and for identical results. It also prints the kernel's
build flags (``-mavx2`` when the CPU has AVX2) and the numpy and scipy
versions and numpy's SIMD extensions.

Usage:
    PYTHONPATH=src python scripts/bench_sweep.py --corpus out --k-list 80 --sweeps 40
    PYTHONPATH=src python scripts/bench_sweep.py --zipf 75,40000,30000 --k-list 80 --sweeps 100
    PYTHONPATH=src python scripts/bench_sweep.py --builds 15

``--zipf D,N,V`` draws D documents of N tokens each from a Zipf(1) law over
V words, in memory. ``--last-sweep-stats`` also replays each chain sweep by
sweep and reports, among repeated tokens of the last sweep, the share whose
previous token drew the topic this token gives back (every term reused).
``--builds N`` also compiles the kernel N times, each into an empty
temporary cache (what a process with an empty cache pays), and prints the
median wall seconds; with no corpus it prints only that. ``--per-k`` times
each k of ``--k-list`` as its own one-thread chain instead (the median of
``--repeats``), and prints each k's ns per token and their least-squares
split into a fixed part and a part per topic: ns per token = fixed +
per_topic * k.

    PYTHONPATH=src python scripts/bench_sweep.py --corpus out --k-list 2,20,40,80 --sweeps 40 --per-k
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from readpath import topics
from readpath.corpus import CorpusMatrix
from readpath.exports import _numeric_stack, load_cache


def zipf_corpus(n_docs: int, doc_tokens: int, n_vocab: int, seed: int) -> CorpusMatrix:
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, n_vocab + 1)
    p /= p.sum()
    indptr, indices, counts = [0], [], []
    for _ in range(n_docs):
        c = rng.multinomial(doc_tokens, p)
        nz = np.flatnonzero(c)
        indices.append(nz)
        counts.append(c[nz])
        indptr.append(indptr[-1] + nz.size)
    return CorpusMatrix(np.array(indptr), np.concatenate(indices), np.concatenate(counts), n_vocab)


def repeat_fraction(corpus: CorpusMatrix) -> float:
    return (corpus.total_tokens - corpus.counts.size) / corpus.total_tokens


def last_sweep_reuse(corpus: CorpusMatrix, params: topics.TopicModelParams) -> float:
    """Replays ``train``'s chain and returns, among repeated tokens of the
    last sweep, the share whose previous token drew the topic it gives back."""
    k, alpha = params.k, params.resolved_alpha
    rng = np.random.Generator(np.random.PCG64(params.seed))
    z, n_dk, n_kv, n_k = topics._init_chain(rng, corpus, k)
    for _ in range(params.iterations):
        before = z.copy()
        topics._sweep(rng, corpus, z, n_dk, n_kv, n_k, alpha, params.beta)
    repeat = np.ones(z.size, dtype=bool)
    repeat[np.cumsum(corpus.counts)[:-1]] = False  # the first token of each entry
    return float((z[:-1] == before[1:])[repeat[1:]].mean())


def models_digest(models) -> str:
    h = hashlib.sha256()
    for m in models:
        h.update(m.theta.tobytes())
        h.update(m.phi.tobytes())
    return h.hexdigest()


def per_k_split(corpus: CorpusMatrix, k_list: list[int], params: topics.TopicModelParams, repeats: int) -> dict:
    """Each k's chain alone on one thread, ns per token (median of
    ``repeats``), and the least-squares line ns per token = fixed +
    per_topic * k through them."""
    ns, models = {}, []
    for k in k_list:
        seconds = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            model = topics.sweep_k(corpus, [k], params, threads=1)[0]
            seconds.append(time.perf_counter() - t0)
        models.append(model)
        ns[k] = 1e9 * statistics.median(seconds) / (corpus.total_tokens * params.iterations)
    out = {"tokens": corpus.total_tokens, "sweeps": params.iterations, "repeats": repeats,
           "ns_per_token": {str(k): round(v, 2) for k, v in ns.items()}, "models_sha256": models_digest(models)}
    if len(ns) > 1:
        per_topic, fixed = np.polyfit(list(ns), list(ns.values()), 1)
        out |= {"fixed_ns_per_token": round(fixed, 2), "ns_per_token_per_topic": round(per_topic, 3)}
    return out


def median_build_s(n: int) -> float:
    """Median wall seconds of ``n`` kernel builds, each into an empty cache."""
    seconds = []
    for _ in range(n):
        with tempfile.TemporaryDirectory() as cache, mock.patch.dict(os.environ, XDG_CACHE_HOME=cache):
            t0 = time.perf_counter()
            topics._build_kernel()
            seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--corpus", help="output directory of `readpath ingest` (its corpus cache)")
    src.add_argument("--zipf", help="D,N,V: D documents of N tokens over V words")
    ap.add_argument("--k-list", default="80")
    ap.add_argument("--sweeps", type=int, default=40)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--last-sweep-stats", action="store_true")
    ap.add_argument("--per-k", action="store_true", help="time each k as its own one-thread chain")
    ap.add_argument("--builds", type=int, default=0, help="time N kernel builds into empty caches")
    args = ap.parse_args()
    if not (args.corpus or args.zipf or args.builds > 0):
        ap.error("give --corpus, --zipf or --builds N")

    out = {"kernel_flags": " ".join(topics.kernel_flags()), **_numeric_stack()}
    if args.builds > 0:
        out["kernel_builds"] = args.builds
        out["kernel_build_s_median"] = round(median_build_s(args.builds), 4)
    if not (args.corpus or args.zipf):
        print(json.dumps(out))
        return

    if args.corpus:
        corpus = load_cache(Path(args.corpus))[2]
    else:
        n_docs, doc_tokens, n_vocab = (int(x) for x in args.zipf.split(","))
        corpus = zipf_corpus(n_docs, doc_tokens, n_vocab, args.seed)
    k_list = [int(k) for k in args.k_list.split(",")]
    params = topics.TopicModelParams(k=k_list[0], iterations=args.sweeps, seed=args.seed)
    topics.sweep_kernel()  # build and load the kernel before timing

    if args.per_k:
        out |= per_k_split(corpus, k_list, params, args.repeats)
        print(json.dumps(out))
        return

    seconds, digest = [], None
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        models = topics.sweep_k(corpus, k_list, params, threads=args.threads)
        seconds.append(time.perf_counter() - t0)
        digest = models_digest(models)
    updates = corpus.total_tokens * sum(k_list) * args.sweeps
    out |= {
        "tokens": corpus.total_tokens,
        "docs": corpus.n_docs,
        "vocab": corpus.n_vocab,
        "k_list": k_list,
        "sweeps": args.sweeps,
        "threads": args.threads,
        "kernel": topics.sweep_kernel(),
        "seconds": [round(s, 4) for s in seconds],
        "ns_per_token_topic": round(1e9 * statistics.median(seconds) / updates, 4),
        "repeat_fraction": round(repeat_fraction(corpus), 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "models_sha256": digest,
    }
    if args.last_sweep_stats:
        out["last_sweep_prev_eq_old"] = {
            k: round(last_sweep_reuse(corpus, dataclasses.replace(params, k=k, seed=args.seed + i)), 4)
            for i, k in enumerate(k_list)
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
