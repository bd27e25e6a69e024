import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readpath import topics
from conftest import hide_cc, restamp
from readpath.corpus import CorpusMatrix
from readpath.errors import InputError
from readpath.exports import load_model, save_model
from readpath.topics import (
    TopicModelParams,
    sweep_k,
    sweep_kernel,
    train,
)


def matrix_from_docs(docs: list[list[int]], n_vocab: int) -> CorpusMatrix:
    indptr = [0]
    indices = []
    counts = []
    for toks in docs:
        c = Counter(toks)
        for tok in sorted(c):
            indices.append(tok)
            counts.append(c[tok])
        indptr.append(len(indices))
    return CorpusMatrix(np.array(indptr), np.array(indices), np.array(counts), n_vocab=n_vocab)


def planted_two_topic_corpus(rng, n_docs=40, tokens_per_doc=120, words_per_topic=12):
    """Documents sampled from two disjoint-vocabulary topics; returns the
    matrix and each document's planted first-topic weight."""
    weights = rng.uniform(0.05, 0.95, size=n_docs)
    docs = []
    for w in weights:
        from_first = rng.random(tokens_per_doc) < w
        toks = np.where(
            from_first,
            rng.integers(0, words_per_topic, tokens_per_doc),
            rng.integers(words_per_topic, 2 * words_per_topic, tokens_per_doc),
        )
        docs.append(toks.tolist())
    return matrix_from_docs(docs, 2 * words_per_topic), weights


PARAMS = TopicModelParams(k=2, alpha=1.0, beta=0.01, iterations=80, seed=11)


def _gibbs_sweep(doc_of, word_of, z, n_dk, n_kv, n_k, alpha, beta, u, cum):
    """The reference sweep: every term recomputed for every token and the
    draw found by a linear scan, with the compiled sweep's arithmetic."""
    n_tokens = z.shape[0]
    v, k = n_kv.shape
    vbeta = v * beta
    for t in range(n_tokens):
        d = doc_of[t]
        w = word_of[t]
        old = z[t]
        n_dk[d, old] -= 1
        n_kv[w, old] -= 1
        n_k[old] -= 1
        total = 0.0
        for j in range(k):
            total += (n_dk[d, j] + alpha) * (n_kv[w, j] + beta) / (n_k[j] + vbeta)
            cum[j] = total
        r = u[t] * total
        new = 0
        while cum[new] < r:
            new += 1
        z[t] = new
        n_dk[d, new] += 1
        n_kv[w, new] += 1
        n_k[new] += 1


def _python_kernel(n_tokens, k, v, doc_of, word_of, z, n_dk, n_kv, n_k, alpha, beta, u, cum, term):
    """`_gibbs_sweep` behind the compiled kernel's ctypes signature, so a
    test swaps it in with `monkeypatch.setattr(topics, "_load_kernel", ...)`."""
    _gibbs_sweep(doc_of, word_of, z, n_dk, n_kv, n_k, alpha, beta, u, cum)


class TestTrain:
    def test_rows_are_distributions(self, rng):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=12, tokens_per_doc=60)
        model = train(matrix, PARAMS)
        for m in (model.theta, model.phi):
            assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-9
            assert m.min() > 0

    def test_same_seed_bitwise_identical(self, rng):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=10, tokens_per_doc=50)
        m1 = train(matrix, PARAMS)
        m2 = train(matrix, PARAMS)
        assert np.array_equal(m1.theta, m2.theta)
        assert np.array_equal(m1.phi, m2.phi)

    def test_different_seed_differs(self, rng):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=10, tokens_per_doc=50)
        m1 = train(matrix, PARAMS)
        m2 = train(matrix, TopicModelParams(k=2, alpha=1.0, iterations=80, seed=12))
        assert not np.array_equal(m1.theta, m2.theta)

    def test_planted_recovery(self, rng):
        matrix, weights = planted_two_topic_corpus(rng)
        model = train(matrix, TopicModelParams(k=2, alpha=1.0, iterations=150, seed=5))
        est = model.theta[:, 0]
        err = min(np.abs(est - weights).mean(), np.abs(est - (1 - weights)).mean())
        assert err < 0.1

    def test_sample_averaging_config(self, rng):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=10, tokens_per_doc=50)
        avg = TopicModelParams(k=2, alpha=1.0, iterations=80, seed=11, average_last=40)
        m_avg = train(matrix, avg)
        assert np.abs(m_avg.theta.sum(axis=1) - 1.0).max() < 1e-9
        assert not np.array_equal(m_avg.theta, train(matrix, PARAMS).theta)

    def test_empty_corpus_rejected(self):
        empty = CorpusMatrix(np.array([0]), np.array([], dtype=int), np.array([], dtype=int), 5)
        with pytest.raises(InputError):
            train(empty, PARAMS)

    def test_k_larger_than_token_count_rejected(self):
        matrix = matrix_from_docs([[0], [1]], 2)
        with pytest.raises(InputError, match="token count"):
            train(matrix, TopicModelParams(k=3, iterations=5))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            TopicModelParams(k=1)
        with pytest.raises(ValueError):
            TopicModelParams(alpha=-1.0)
        with pytest.raises(ValueError):
            TopicModelParams(beta=0.0)
        with pytest.raises(ValueError):
            TopicModelParams(iterations=0)


@pytest.fixture(params=[2, 4], ids=["2-lanes", "4-lanes-avx2"])
def sweep_width(request, monkeypatch, kernel_cache):
    """Lanes of the sweep that `_load_kernel` then builds into an empty
    cache: the CPU probe is patched, and 4 (AVX2) is skipped on a CPU
    without AVX2."""
    avx2 = request.param == 4
    if avx2 and not topics._cpu_has_avx2():
        pytest.skip("this CPU has no AVX2")
    monkeypatch.setattr(topics, "_cpu_has_avx2", lambda: avx2)
    return request.param


class TestCompiledSweep:
    def test_compiled_kernel_in_use(self):
        assert sweep_kernel() == "c"

    def test_cached_kernel_loads_without_cc(self, tmp_path, monkeypatch, kernel_cache):
        assert sweep_kernel() == "c"  # built into the empty cache
        hide_cc(tmp_path, monkeypatch)
        topics._load_kernel.cache_clear()
        assert sweep_kernel() == "c"

    def test_bitwise_equal_to_python_sweep(self, rng, monkeypatch):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=12, tokens_per_doc=50, words_per_topic=20)
        cases = [
            TopicModelParams(k=2, alpha=1.0, iterations=20, seed=1),
            TopicModelParams(k=3, iterations=20, seed=2, average_last=10),
            TopicModelParams(k=8, beta=0.1, iterations=20, seed=3),
            TopicModelParams(k=17, alpha=0.05, iterations=20, seed=4, average_last=20),
        ]
        compiled = [train(matrix, p) for p in cases]
        monkeypatch.setattr(topics, "_load_kernel", lambda: _python_kernel)
        for p, fast in zip(cases, compiled):
            slow = train(matrix, p)
            assert np.array_equal(fast.theta, slow.theta), p
            assert np.array_equal(fast.phi, slow.phi), p

    def test_each_width_bitwise_equal_to_python_sweep(self, rng, monkeypatch, sweep_width):
        """Each width the host runs, for k below, at and around 2 and 4 lanes."""
        assert ("-mavx2" in topics.kernel_flags()) == (sweep_width == 4)
        matrix, _ = planted_two_topic_corpus(rng, n_docs=8, tokens_per_doc=30, words_per_topic=10)
        cases = [TopicModelParams(k=k, iterations=4, seed=k) for k in (2, 3, 4, 5, 7, 8, 9, 17, 80, 81)]
        compiled = [train(matrix, p) for p in cases]
        with monkeypatch.context() as m:
            m.setattr(topics, "_load_kernel", lambda: _python_kernel)
            for p, fast in zip(cases, compiled):
                slow = train(matrix, p)
                assert np.array_equal(fast.theta, slow.theta), p
                assert np.array_equal(fast.phi, slow.phi), p

    def test_each_width_is_its_own_cached_library(self, monkeypatch, kernel_cache):
        commands = []
        run = topics.subprocess.run
        monkeypatch.setattr(topics.subprocess, "run",
                            lambda cmd, **kw: commands.append(cmd) or run(cmd, **kw))
        monkeypatch.setattr(topics, "_cpu_has_avx2", lambda: False)
        assert "-mavx2" not in topics.kernel_flags()
        two = topics._build_kernel()
        assert "-mavx2" not in commands[-1]
        monkeypatch.setattr(topics, "_cpu_has_avx2", lambda: True)
        four = topics._build_kernel()
        assert "-mavx2" in commands[-1]
        assert two != four
        assert sorted(kernel_cache.glob("readpath/gibbs-*.so")) == sorted([two, four])
        # a second look finds each in the cache and runs no compiler
        monkeypatch.setattr(topics, "_cpu_has_avx2", lambda: False)
        assert topics._build_kernel() == two and len(commands) == 2

    @pytest.mark.parametrize("machine, flags, avx2", [
        ("x86_64", "fpu sse2 avx avx2 fma", True),
        ("x86_64", "fpu sse2 avx avx512f", False),
        ("aarch64", "fp asimd avx2", False),
    ])
    def test_cpu_probe_reads_the_first_flags_line(self, tmp_path, monkeypatch, machine, flags, avx2):
        cpuinfo = tmp_path / "cpuinfo"
        cpuinfo.write_text(f"processor\t: 0\nflags\t\t: {flags}\n\nprocessor\t: 1\nflags\t\t: avx2\n")
        monkeypatch.setattr(topics, "_CPUINFO", cpuinfo)
        monkeypatch.setattr(topics.sys, "platform", "linux")
        monkeypatch.setattr(topics.platform, "machine", lambda: machine)
        assert topics._cpu_has_avx2() is avx2
        monkeypatch.setattr(topics, "_CPUINFO", tmp_path / "missing")
        assert topics._cpu_has_avx2() is False


_LAST_U = float(np.nextafter(1.0, 0.0))


def _sweep_case(k, pairs, z, us):
    """(k, D, V, doc_of, word_of, z, [u per sweep]) with int32/float64 arrays."""
    doc_of = np.array([d for d, _ in pairs], dtype=np.int32)
    word_of = np.array([w for _, w in pairs], dtype=np.int32)
    return (k, int(doc_of.max()) + 1, int(word_of.max()) + 1, doc_of, word_of,
            np.array(z, dtype=np.int32), [np.array(u, dtype=np.float64) for u in us])


@st.composite
def sweep_cases(draw):
    """Token streams made of runs of one (document, word) pair, so repeats
    are common; runs of length 1 give one-token documents and pairs that
    change at every token."""
    k = draw(st.integers(2, 40))
    runs = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(1, 25)), min_size=1, max_size=10
    ))
    pairs = [(d, w) for d, w, n in runs for _ in range(n)]
    z = draw(st.lists(st.integers(0, k - 1), min_size=len(pairs), max_size=len(pairs)))
    u_value = st.sampled_from([0.0, 0.5, _LAST_U]) | st.floats(0.0, 1.0, exclude_max=True)
    us = draw(st.lists(
        st.lists(u_value, min_size=len(pairs), max_size=len(pairs)), min_size=1, max_size=4
    ))
    return _sweep_case(k, pairs, z, us)


class TestSweepReuse:
    """The compiled sweep reuses its terms across a run of one (document,
    word) pair and draws by counting the running sums below r, several
    lanes at a time; the pure-Python sweep recomputes every term and scans.
    Both must leave the same state after every sweep."""

    @settings(max_examples=150, deadline=None)
    @given(case=sweep_cases())
    # prev == old: token 0 takes topic 0 (u = 0) and token 1 gives back 0.
    @example(case=_sweep_case(5, [(0, 0)] * 3, [0, 0, 0], [[0.0] * 3] * 2))
    # lo == 0: token 0 takes topic 0, token 1 gives back topic 4.
    @example(case=_sweep_case(5, [(0, 0)] * 3, [4, 4, 4], [[0.0, 0.3, 0.6]] * 2))
    # prev == old == k-1, the only way min(prev, old) reaches k-1.
    @example(case=_sweep_case(5, [(0, 0)] * 3, [4, 4, 4], [[_LAST_U] * 3] * 2))
    # lo == k-2: token 0 takes k-1, token 1 gives back k-2; only the last
    # two sums are redone.
    @example(case=_sweep_case(5, [(0, 0)] * 3, [0, 3, 3], [[_LAST_U, 0.5, 0.5]] * 2))
    # A tie: both terms equal, so r = 0.5 * 2x = cum[0] and the draw is 0.
    @example(case=_sweep_case(2, [(0, 0)] * 3, [0, 0, 1], [[0.5, 0.5, 0.5]]))
    # A tie inside the lanes: token 0 gives back topic 0 and sees the terms
    # (1 + a)(1 + b)/(1 + b), then a sixteen times; this u makes r = cum[4]
    # exactly, so the draw is 4 (5 for a count of cum[j] <= r).
    @example(case=_sweep_case(17, [(0, 0)] * 2, [0, 0], [[0.30795847750865063, 0.5]]))
    def test_same_state_as_python_sweep(self, case):
        assert sweep_kernel() == "c"
        kernel = topics._load_kernel()
        k, n_docs, n_vocab, doc_of, word_of, z0, us = case
        z = z0.copy()
        n_dk = np.zeros((n_docs, k), dtype=np.int32)
        n_kv = np.zeros((n_vocab, k), dtype=np.int32)
        np.add.at(n_dk, (doc_of, z), 1)
        np.add.at(n_kv, (word_of, z), 1)
        n_k = np.bincount(z, minlength=k).astype(np.int32)
        fast = [z, n_dk, n_kv, n_k]
        slow = [a.copy() for a in fast]
        alpha, beta = 50.0 / k, 0.01
        for u in us:
            kernel(len(z), k, n_vocab, doc_of, word_of, *fast, alpha, beta, u, np.empty(k), np.empty(k))
            _gibbs_sweep(doc_of, word_of, *slow, alpha, beta, u, np.empty(k))
            for a, b in zip(fast, slow):
                assert np.array_equal(a, b)

    @staticmethod
    def _plateau_state():
        """z, n_dk, n_kv, n_k for one token (document 0, word 0, topic 0;
        V = 1) whose term 6 is too small to move the running sum, so
        cum[5] == cum[6]. No token stream of test size reaches such counts:
        the term must be below half an ulp of the sum before it."""
        rows = np.array([[2, 1, 1, 1, 1, 10**5, 0, 10**5, 1]], dtype=np.int32)
        n_k = np.array([2, 1, 1, 1, 1, 10**5, 2 * 10**9, 10**5, 1], dtype=np.int32)
        return [np.zeros(1, dtype=np.int32), rows, rows.copy(), n_k]

    @pytest.mark.parametrize("on_plateau", [False, True], ids=["r-above", "r-on-plateau"])
    def test_plateau_same_draw_as_python_sweep(self, sweep_width, on_plateau):
        kernel = topics._load_kernel()
        k, alpha, beta = 9, 0.01, 0.01
        token = np.zeros(1, dtype=np.int32)
        cum = np.empty(k)
        _gibbs_sweep(token, token, *self._plateau_state(), alpha, beta, np.zeros(1), cum)
        assert cum[5] == cum[6] < cum[7]
        # On the plateau, r == cum[5] == cum[6] and the draw is 5 (7 for a
        # count of cum[j] <= r); above it, r lies between cum[6] and cum[7].
        u = 0.5000100996929693 if on_plateau else 0.6
        assert (u * cum[8] == cum[5]) == on_plateau and u * cum[8] < cum[7]
        fast, slow = self._plateau_state(), self._plateau_state()
        kernel(1, k, 1, token, token, *fast, alpha, beta, np.array([u]), np.empty(k), np.empty(k))
        _gibbs_sweep(token, token, *slow, alpha, beta, np.array([u]), np.empty(k))
        assert fast[0][0] == (5 if on_plateau else 7)
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("u", [1.0, 2.0])
    def test_draw_stays_in_its_rows_for_u_of_1_or_more(self, sweep_width, u):
        """`_sweep` passes u < 1, which keeps r <= cum[k-1]. Beyond that the
        count below k-1 still keeps the draw, and so every count it writes,
        in the token's rows: each count array has a guard slot past row 0."""
        kernel = topics._load_kernel()
        k = 9
        guarded = [np.zeros(k + 1, dtype=np.int32) for _ in range(3)]
        for counts in guarded:
            counts[0] = 1
        z, token = np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32)
        rows = [counts[:k] for counts in guarded]
        kernel(1, k, 1, token, token, z, *rows, 0.5, 0.01, np.array([u]), np.empty(k), np.empty(k))
        assert z[0] == k - 1
        assert [counts[k] for counts in guarded] == [0, 0, 0]


def _straddling_corpus() -> CorpusMatrix:
    """Runs of one (document, word) pair of 1 to 17 tokens, so that with
    7-token chunks many chunk boundaries fall inside a run."""
    docs = [[w for w, n in enumerate(counts) for _ in range(n)]
            for counts in ([9, 1, 17, 4], [3, 11, 2, 8, 1], [16, 5, 6], [1, 1, 13, 7, 9])]
    return matrix_from_docs(docs, 5)


class TestChunks:
    """`train` draws z and u and calls the sweep one chunk of tokens at a
    time; the chunk size must not change a bit."""

    CASES = [
        TopicModelParams(k=2, alpha=1.0, iterations=15, seed=1),
        TopicModelParams(k=3, iterations=15, seed=2, average_last=8),
        TopicModelParams(k=17, alpha=0.05, iterations=15, seed=4, average_last=15),
    ]

    def test_chunk_of_7_same_model_as_default_and_python_sweep(self, monkeypatch):
        matrix = _straddling_corpus()
        assert matrix.total_tokens < topics._CHUNK
        doc_of, word_of = matrix.token_streams()
        inside = [b for b in range(7, len(doc_of), 7)
                  if doc_of[b] == doc_of[b - 1] and word_of[b] == word_of[b - 1]]
        assert len(inside) >= 8  # boundaries that split a run of one pair
        default = [train(matrix, p) for p in self.CASES]
        monkeypatch.setattr(topics, "_CHUNK", 7)
        variants = [[train(matrix, p) for p in self.CASES]]
        monkeypatch.setattr(topics, "_load_kernel", lambda: _python_kernel)
        variants.append([train(matrix, p) for p in self.CASES])
        for models in variants:
            for p, a, b in zip(self.CASES, default, models):
                assert np.array_equal(a.theta, b.theta), p
                assert np.array_equal(a.phi, b.phi), p

    @pytest.mark.parametrize("chunk", [7, 65536])
    @pytest.mark.parametrize("k", [2, 3, 17, 80, 500])
    def test_chunked_draws_equal_one_draw(self, monkeypatch, k, chunk):
        n, n_docs, n_vocab = 20_011, 50, 300
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int32), n // n_docs + 1)[:n]
        word_of = np.random.default_rng(k).integers(0, n_vocab, n).astype(np.int32)
        one = np.random.Generator(np.random.PCG64(9))
        z_ref = one.integers(0, k, n, dtype=np.int64)
        u_ref = one.random(n)

        monkeypatch.setattr(topics, "_CHUNK", chunk)
        drawn_u = []
        monkeypatch.setattr(topics, "_load_kernel",
                            lambda: lambda *args: drawn_u.append(args[11].copy()))
        chunked = np.random.Generator(np.random.PCG64(9))
        z, n_dk, n_kv, n_k = topics._init_chain(chunked, doc_of, word_of, k, n_docs, n_vocab)
        topics._sweep(chunked, doc_of, word_of, z, n_dk, n_kv, n_k, 1.0, 0.01, None, None)

        assert np.array_equal(z, z_ref) and z.dtype == np.int32
        assert np.array_equal(np.concatenate(drawn_u), u_ref)
        assert {len(u) for u in drawn_u[:-1]} <= {chunk}
        assert chunked.bit_generator.state == one.bit_generator.state
        ref_dk = np.zeros((n_docs, k), dtype=np.int64)
        ref_kv = np.zeros((n_vocab, k), dtype=np.int64)
        np.add.at(ref_dk, (doc_of, z_ref), 1)
        np.add.at(ref_kv, (word_of, z_ref), 1)
        for got, ref in ((n_dk, ref_dk), (n_kv, ref_kv), (n_k, np.bincount(z_ref, minlength=k))):
            assert got.dtype == np.int32 and got.flags.c_contiguous
            assert np.array_equal(got, ref)

    def test_corpus_of_2_31_tokens_rejected_before_any_stream(self, monkeypatch):
        huge = CorpusMatrix(np.array([0, 1]), np.array([0]), np.array([2**31]), n_vocab=1)

        def no_streams(self):
            raise AssertionError("token streams built for a corpus over the int32 limit")

        monkeypatch.setattr(CorpusMatrix, "token_streams", no_streams)
        with pytest.raises(InputError, match="2\\*\\*31"):
            train(huge, PARAMS)
        with pytest.raises(InputError, match="2\\*\\*31"):
            sweep_k(huge, [2, 3], PARAMS, threads=2)

    def test_sweep_k_builds_read_only_streams_once(self, rng, monkeypatch):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=8, tokens_per_doc=40)
        built = []
        token_streams = CorpusMatrix.token_streams

        def counted(self):
            streams = token_streams(self)
            built.append(streams)
            return streams

        monkeypatch.setattr(CorpusMatrix, "token_streams", counted)
        sweep_k(matrix, [2, 3, 4], PARAMS, threads=2)
        assert len(built) == 1
        for a in built[0]:
            assert a.dtype == np.int32 and not a.flags.writeable


class TestSweepK:
    def test_singleton_sweep_matches_train(self, rng):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=8, tokens_per_doc=40)
        model = sweep_k(matrix, [2], PARAMS)[0]
        assert np.array_equal(model.theta, train(matrix, PARAMS).theta)

    def test_distinct_ks_and_derived_seeds(self, rng):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=8, tokens_per_doc=40)
        models = sweep_k(matrix, [2, 4], PARAMS)
        assert [m.k for m in models] == [2, 4]
        assert [m.params.seed for m in models] == [11, 12]
        for m in models:
            assert np.abs(m.theta.sum(axis=1) - 1.0).max() < 1e-9
            assert m.theta.min() > 0

    def test_threaded_sweep_identical(self, rng):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=8, tokens_per_doc=40)
        serial = sweep_k(matrix, [2, 3, 4], PARAMS)
        threaded = sweep_k(matrix, [2, 3, 4], PARAMS, threads=3)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.theta, b.theta)

    def test_pool_starts_largest_k_first_and_keeps_k_list_order(self, rng, monkeypatch):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=8, tokens_per_doc=40)
        serial = sweep_k(matrix, [3, 2, 4], PARAMS)
        started = []
        first_two = threading.Barrier(2, timeout=30)

        def recording_train(corpus, params, streams=None):
            started.append(params.k)
            if len(started) <= 2:  # neither worker finishes before both have begun
                first_two.wait()
            return train(corpus, params, streams)

        monkeypatch.setattr(topics, "train", recording_train)
        threaded = sweep_k(matrix, [3, 2, 4], PARAMS, threads=2)
        # The two workers take k=4 and k=3; k=2 waits for a free one.
        assert sorted(started[:2]) == [3, 4] and started[2] == 2
        for models in (serial, threaded):
            assert [m.k for m in models] == [3, 2, 4]
            assert [m.params.seed for m in models] == [11, 12, 13]
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.theta, b.theta)
            assert np.array_equal(a.phi, b.phi)

    def test_empty_k_list_rejected(self, rng):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=8, tokens_per_doc=40)
        with pytest.raises(ValueError):
            sweep_k(matrix, [], PARAMS)


class TestModelArtifact:
    def test_roundtrip_and_stable_bytes(self, rng, tmp_path):
        matrix, _ = planted_two_topic_corpus(rng, n_docs=8, tokens_per_doc=40)
        model = train(matrix, PARAMS)
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        for p in (p1, p2):
            p.mkdir()
            save_model(p, model, "f" * 64)
        assert (p1 / "model.bin").read_bytes() == (p2 / "model.bin").read_bytes()
        loaded = load_model(p1, 8, "f" * 64)
        assert np.array_equal(loaded.theta, model.theta)
        assert np.array_equal(loaded.phi, model.phi)
        assert loaded.params == model.params
        with pytest.raises(InputError, match="another corpus"):
            load_model(p1, 8, "e" * 64)

    def test_bad_artifact_rejected(self, tmp_path):
        p = tmp_path / "model.bin"
        p.write_bytes(b"not a model\n")
        (tmp_path / "model.meta.json").write_text("{}", encoding="utf-8")
        restamp(p)
        with pytest.raises(InputError):
            load_model(tmp_path, 8, "f" * 64)
