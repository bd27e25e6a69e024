#!/usr/bin/env python3
"""Time the null ensemble and the Monte Carlo publication order on synthetic theta.

Draws D Dirichlet(1) topic rows over k topics and a reading list of D
volumes read over 25 years, whose publication years tie in groups larger
than the exact-enumeration threshold, so the publication order takes its
Monte Carlo branch. Then times ``null_permutations`` (the M orders),
``build_null`` and ``publication_order_series`` (both surprise kinds per
call, as ``run`` makes them) and prints one JSON line: the best seconds of
each step over the repeats, the peak RSS, a SHA-256 over every output
array, so two source trees can be compared for speed and for identical
results, and the numpy and scipy versions and numpy's SIMD extensions,
which pick the code that computes those arrays.

Usage:
    PYTHONPATH=src python scripts/bench_null.py --docs 2000 --k 80 --samples 1000
    PYTHONPATH=src python scripts/bench_null.py --docs 2000 --k 80 --samples 5000 --repeats 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from datetime import date, timedelta

import numpy as np

from readpath.corpus import VolumeRecord
from readpath.exports import _numeric_stack
from readpath.nullmodel import NullConfig, build_null, null_permutations, publication_order_series


def synthetic_inputs(n_docs: int, k: int, seed: int) -> tuple[np.ndarray, list[VolumeRecord]]:
    """Topic rows and a reading list: reads spread evenly over 25 years,
    each volume published 0-40 years before it is read (mean lag 8)."""
    rng = np.random.default_rng(seed)
    thetas = rng.dirichlet(np.ones(k), size=n_docs)
    start = date(1836, 1, 1)
    reads = [start + timedelta(days=int(d)) for d in np.sort(rng.integers(0, 25 * 365, n_docs))]
    lags = np.minimum(rng.geometric(1 / 9, n_docs) - 1, 40)
    records = [
        VolumeRecord(
            id=f"v{i:05d}", title="", read_date=d, read_seq=i,
            pub_year=d.year - int(lag), text_path=f"v{i:05d}.txt",
        )
        for i, (d, lag) in enumerate(zip(reads, lags))
    ]
    return thetas, records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--docs", type=int, default=2000, help="D, documents in the reading list")
    ap.add_argument("--k", type=int, default=80, help="topics per row")
    ap.add_argument("--samples", type=int, default=1000, help="M, null permutations")
    ap.add_argument("--within-year-samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    thetas, records = synthetic_inputs(args.docs, args.k, args.seed)
    config = NullConfig(
        samples=args.samples, seed=args.seed, within_year_samples=args.within_year_samples
    )
    seconds: dict[str, list[float]] = {"null_permutations": [], "build_null": [], "puborder": []}
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        perms = null_permutations(records, config)
        t1 = time.perf_counter()
        ensembles = build_null(thetas, perms)
        t2 = time.perf_counter()
        series = publication_order_series(thetas, records, config)
        t3 = time.perf_counter()
        seconds["null_permutations"].append(t1 - t0)
        seconds["build_null"].append(t2 - t1)
        seconds["puborder"].append(t3 - t2)
        del perms

    h = hashlib.sha256()
    for kind, ens in ensembles.items():
        h.update(kind.encode())
        for arr in (ens.position_mean, ens.position_std, ens.sample_aggregates):
            h.update(arr.tobytes())
        h.update(repr((ens.observed_aggregate, ens.p_value)).encode())
    for kind, s in series.items():
        h.update(kind.encode())
        h.update(s.values.tobytes())
    print(json.dumps({
        "docs": args.docs,
        "k": args.k,
        "samples": args.samples,
        "within_year_samples": args.within_year_samples,
        "largest_tie_group": max(np.unique([r.pub_year for r in records], return_counts=True)[1].tolist()),
        "repeats": args.repeats,
        "seconds_best": {name: round(min(v), 4) for name, v in seconds.items()},
        "seconds": {name: [round(x, 4) for x in v] for name, v in seconds.items()},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "outputs_sha256": h.hexdigest(),
        **_numeric_stack(),
    }))


if __name__ == "__main__":
    main()
