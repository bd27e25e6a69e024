"""Latent-topic model fit by collapsed Gibbs sampling.

The sampler sweeps token-level topic assignments with the standard
collapsed conditional p(z=j) proportional to (n_dk + alpha) * (n_kv + beta)
/ (n_k + V*beta). Document-topic rows (theta) and topic-word rows (phi)
are Dirichlet-smoothed point estimates, so every entry is strictly
positive and downstream KL divergences stay finite.

Randomness comes from numpy's PCG64 stream seeded explicitly, and the
per-sweep update order is fixed, so a (corpus, params) pair always
produces the same model. Word-topic counts are stored word-major (V x k).
The inner sweep is a small C function (``_gibbs.c``, whose header says how
it walks the corpus's sparse rows, reuses terms and draws, four lanes at a
time when built with `-mavx2` for an AVX2 CPU and two otherwise), compiled
with the system C compiler on first use, cached per user and called
through ctypes, which releases the GIL so chains for different k train in
parallel. It is the only sweep `train` runs: without a C compiler (`cc`)
and without a cached build, `train` is an InputError. The reference sweep,
the test oracle in ``tests/test_topics.py``, has its bits at both widths.

Memory per token is flat: every chain reads the corpus's sparse rows in
place, and z and every count array are int32, so a corpus of 2**31 or more
tokens is an InputError. The initial topics and each sweep's uniforms are
drawn `_CHUNK` tokens at a time, the kernel is called once per chunk with a
cursor that carries its place in the rows, and chunked draws are the same
numbers as one whole draw: the chunk size changes no bit of a model.
`exports` writes and reads a model's artifact.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CorpusMatrix
from .errors import InputError

ROW_SUM_TOL = 1e-9

# Tokens per draw of the initial topics, per draw of a sweep's uniforms and
# per kernel call: beyond z, a chain's per-token arrays are one chunk long,
# whatever the corpus size.
_CHUNK = 1 << 18


_C_SOURCE = Path(__file__).with_name("_gibbs.c")
_C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_CPUINFO = Path("/proc/cpuinfo")


def _cpu_has_avx2() -> bool:
    """Whether this is an x86-64 Linux CPU whose `/proc/cpuinfo` flags list
    AVX2; every other case (another OS or machine, an unreadable file) is
    "no"."""
    if sys.platform != "linux" or platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        with open(_CPUINFO, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return "avx2" in line.split()
    except OSError:
        pass
    return False


def kernel_flags() -> tuple[str, ...]:
    """The C compiler flags of the sweep: `_C_FLAGS`; on Linux `-nostdlib`,
    since the sweep calls no library function and a link without the C
    library shortens the build; and `-mavx2` (four lanes instead of two)
    when the CPU has AVX2. They are part of the cached library's key, so
    a cache shared between hosts never hands an AVX2 build to a CPU
    without AVX2."""
    flags = _C_FLAGS + (("-nostdlib",) if sys.platform == "linux" else ())
    return flags + (("-mavx2",) if _cpu_has_avx2() else ())


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "readpath"


def _build_kernel() -> Path:
    """Compile ``_gibbs.c`` into the per-user cache unless a library built
    from the same source, flags and platform is already there. The build
    goes to a temporary name and is renamed into place, so concurrent
    processes never load a half-written library."""
    source = _C_SOURCE.read_bytes()
    flags = kernel_flags()
    key = hashlib.sha256(
        b"\0".join([source, " ".join(flags).encode(), sys.platform.encode(),
                    platform.machine().encode()])
    ).hexdigest()[:16]
    lib = _cache_dir() / f"gibbs-{key}.so"
    if lib.exists():
        return lib
    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *flags, "-o", tmp, str(_C_SOURCE)],
            check=True, capture_output=True, text=True,
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.lru_cache(maxsize=None)
def _load_kernel():
    """The compiled library, its ``gibbs_sweep`` and ``gibbs_counts`` typed
    for ctypes. A kernel that cannot be built or loaded is an InputError:
    `train` needs a C compiler (`cc`) unless the cache already holds it."""
    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = " ".join(str(getattr(exc, "stderr", "") or exc).split())
        raise InputError(
            f"the Gibbs sweep needs a C compiler (cc) to build {_C_SOURCE.name}: {detail}"
        ) from exc
    i32, i64, f64 = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS") for t in (np.int32, np.int64, np.float64))
    lib.gibbs_sweep.restype = lib.gibbs_counts.restype = None
    lib.gibbs_sweep.argtypes = [ctypes.c_int64] * 3 + [i64] * 4 + [i32] * 4 + [ctypes.c_double] * 2 + [f64] * 3
    lib.gibbs_counts.argtypes = [ctypes.c_int64] * 2 + [i64] * 3 + [i32] * 4
    return lib


def sweep_kernel() -> str:
    """Which Gibbs sweep `train` uses: always "c", built and loaded here
    (an InputError when it cannot be)."""
    _load_kernel()
    return "c"


def _init_chain(rng, corpus: CorpusMatrix, k: int):
    """Initial topics z, drawn chunk by chunk as int64 (the dtype of the one
    whole draw they reproduce), and the int32 counts (n_dk, n_kv, n_k) they
    imply, from one walk of the sparse rows."""
    n_tokens = corpus.total_tokens
    z = np.empty(n_tokens, dtype=np.int32)
    for start in range(0, n_tokens, _CHUNK):
        drawn = rng.integers(0, k, min(_CHUNK, n_tokens - start), dtype=np.int64)
        z[start:start + drawn.shape[0]] = drawn
    n_dk, n_kv, n_k = (np.zeros(shape, dtype=np.int32) for shape in ((corpus.n_docs, k), (corpus.n_vocab, k), k))
    _load_kernel().gibbs_counts(corpus.n_docs, k, corpus.indptr, corpus.indices, corpus.counts,
                                z, n_dk, n_kv, n_k)
    return z, n_dk, n_kv, n_k


def _sweep(rng, corpus: CorpusMatrix, z, n_dk, n_kv, n_k, alpha, beta) -> None:
    """One sweep in token order: the uniforms are drawn and the kernel is
    called one chunk at a time, the same draws as one uniform per token."""
    kernel = _load_kernel().gibbs_sweep
    n_tokens = z.shape[0]
    v, k = n_kv.shape
    cursor, cum, term = np.zeros(3, dtype=np.int64), np.empty(k), np.empty(k)
    for start in range(0, n_tokens, _CHUNK):
        u = rng.random(min(_CHUNK, n_tokens - start))
        kernel(u.shape[0], k, v, corpus.indptr, corpus.indices, corpus.counts, cursor,
               z[start:start + u.shape[0]], n_dk, n_kv, n_k, alpha, beta, u, cum, term)


@dataclass(frozen=True)
class TopicModelParams:
    k: int = 80
    alpha: float | None = None  # None = 50/k
    beta: float = 0.01
    iterations: int = 1000
    seed: int = 0
    # Trailing sweeps averaged into the point estimate; 1 = final state only.
    average_last: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (1 <= self.average_last <= self.iterations):
            raise ValueError("average_last must be in [1, iterations]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def resolved_alpha(self) -> float:
        return self.alpha if self.alpha is not None else 50.0 / self.k


@dataclass(frozen=True)
class TopicModel:
    theta: np.ndarray  # D x k document-topic rows
    phi: np.ndarray  # k x V topic-word rows
    params: TopicModelParams

    def __post_init__(self):
        for name, m in (("theta", self.theta), ("phi", self.phi)):
            if not np.abs(m.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL:  # NaN fails too
                raise ValueError(f"{name} rows must sum to 1 within {ROW_SUM_TOL}")
            if m.min() <= 0:
                raise ValueError(f"{name} entries must be strictly positive")

    @property
    def k(self) -> int:
        return self.theta.shape[1]


def train(corpus: CorpusMatrix, params: TopicModelParams) -> TopicModel:
    """Fit a model; deterministic for a fixed (corpus, params) pair."""
    if corpus.n_docs == 0:
        raise InputError("cannot train on an empty corpus")
    n_tokens = corpus.total_tokens
    if n_tokens >= 2**31:
        raise InputError(f"corpus has {n_tokens} tokens; the Gibbs sampler holds fewer than 2**31")
    if params.k > n_tokens:
        raise InputError(f"k={params.k} exceeds the total token count {n_tokens}")

    k, v, d = params.k, corpus.n_vocab, corpus.n_docs
    alpha, beta = float(params.resolved_alpha), float(params.beta)
    rng = np.random.Generator(np.random.PCG64(params.seed))

    z, n_dk, n_kv, n_k = _init_chain(rng, corpus, k)
    n_doc = n_dk.sum(axis=1)

    theta_acc = np.zeros((d, k), dtype=np.float64)
    phi_acc = np.zeros((k, v), dtype=np.float64)
    first_kept = params.iterations - params.average_last
    for sweep in range(params.iterations):
        _sweep(rng, corpus, z, n_dk, n_kv, n_k, alpha, beta)
        if sweep >= first_kept:
            theta_acc += (n_dk + alpha) / (n_doc[:, None] + k * alpha)
            phi_acc += (n_kv.T + beta) / (n_k[:, None] + v * beta)

    theta = theta_acc / params.average_last
    phi = phi_acc / params.average_last
    return TopicModel(theta=theta, phi=phi, params=params)


def sweep_k(
    corpus: CorpusMatrix,
    k_list: list[int],
    base_params: TopicModelParams,
    threads: int = 1,
) -> list[TopicModel]:
    """Train one independent model per k; model i is seeded base seed + i.

    Models are independent chains, so they may train concurrently, each
    reading the corpus's sparse rows in place. A chain costs about k per
    token, so the pool starts the largest k first and the short chains fill
    in behind; the returned list always follows ``k_list`` order.
    """
    if not k_list:
        raise ValueError("k_list must be nonempty")
    all_params = [
        dataclasses.replace(base_params, k=k_i, seed=base_params.seed + i)
        for i, k_i in enumerate(k_list)
    ]
    if threads > 1 and len(all_params) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {
                p: pool.submit(train, corpus, p)
                for p in sorted(all_params, key=lambda p: p.k, reverse=True)
            }
            return [futures[p].result() for p in all_params]
    return [train(corpus, p) for p in all_params]
