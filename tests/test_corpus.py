import hashlib
import json
import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readpath.corpus import (
    CorpusMatrix,
    TokenizerConfig,
    Vocabulary,
    VolumeRecord,
    build_corpus,
    _is_token,
    _stopwords,
    _words,
    ingest_stats,
    load_manifest,
    tokenize,
)
from readpath.errors import InputError
from readpath.exports import load_cache, save_cache

from conftest import restamp, write_manifest

CFG_OPEN = TokenizerConfig(min_count=0, max_count=10**9)

# Pieces of text that exercise every tokenizer step: case, stopwords,
# accents and ligatures, apostrophes, hyphens at and inside line breaks,
# digits, and the \x1c-\x1f separators that str.split treats as spaces.
TEXT_PIECES = [
    "Origin", "origin", "ORIGIN", "the", "The", "and", "of", "Species",
    "café", "naïve", "Über", "ﬁnches", "straße", "İsland", "Æther",
    "Darwin's", "it’s", "'tis", "natu-\n", "natu-\r\n", "ral", "well-known", "-",
    "1859", "spec1es", "x2", "\x1c", "\x1d", "\x1e", "\x1f",
    " ", "\n", "\r\n", "\t", "\u2003", ".", ",", "—",
]
texts = st.lists(st.sampled_from(TEXT_PIECES), max_size=60).map("".join) | st.text(max_size=80)


def reference_build_corpus(texts, config):
    """Token-list reference for `build_corpus` on in-memory texts: every
    token held as a string, counted per document after `tokenize`."""
    doc_tokens = [tokenize(t, config) for t in texts]
    freq = Counter()
    for toks in doc_tokens:
        freq.update(toks)
    retained = {t: c for t, c in freq.items() if config.min_count <= c <= config.max_count}
    ordered = sorted(retained)
    index = {t: i for i, t in enumerate(ordered)}
    indptr, indices, counts = [0], [], []
    for toks in doc_tokens:
        doc = Counter(t for t in toks if t in index)
        for tok in sorted(doc):
            indices.append(index[tok])
            counts.append(doc[tok])
        indptr.append(len(indices))
    return tuple(ordered), tuple(retained[t] for t in ordered), indptr, indices, counts


def reference_cache_bytes(records, vocab, matrix):
    """The corpus cache as one canonical JSON dump of the whole payload."""
    payload = {
        "format_version": 1,
        "kind": "corpus-cache",
        "records": [
            {
                "id": r.id,
                "title": r.title,
                "read_date": r.read_date.isoformat(),
                "read_seq": r.read_seq,
                "pub_year": r.pub_year,
                "text_path": str(r.text_path),
            }
            for r in records
        ],
        "vocabulary": {"tokens": list(vocab.tokens), "frequencies": list(vocab.frequencies)},
        "documents": {
            "indptr": matrix.indptr.tolist(),
            "indices": matrix.indices.tolist(),
            "counts": matrix.counts.tolist(),
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def corpus_fingerprint(vocab, matrix) -> str:
    """The test oracle for the corpus fingerprint that `save_cache` hashes as
    it writes: the SHA-256 of one canonical JSON dump of the vocabulary's
    tokens and the counts' arrays."""
    payload = {
        "tokens": list(vocab.tokens),
        "indptr": matrix.indptr.tolist(),
        "indices": matrix.indices.tolist(),
        "counts": matrix.counts.tolist(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


class TestLoadManifest:
    def test_ties_follow_row_order(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [
                ("b", "B", "1850-01-01", 1849, "b.txt"),
                ("a", "A", "1850-01-01", 1849, "a.txt"),
                ("c", "C", "1849-05-01", 1848, "c.txt"),
            ],
            {"a.txt": "x", "b.txt": "x", "c.txt": "x"},
        )
        records = load_manifest(manifest)
        assert [r.id for r in records] == ["c", "b", "a"]
        assert [r.read_seq for r in records] == [0, 1, 2]
        assert all(
            r1.read_date <= r2.read_date for r1, r2 in zip(records, records[1:])
        )

    def test_empty_after_header(self, tmp_path):
        manifest = write_manifest(tmp_path, [], {})
        assert load_manifest(manifest) == []

    def test_pub_year_after_read_year_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path, [("late", "L", "1860-01-01", 1870, "t.txt")], {"t.txt": "x"}
        )
        with pytest.raises(InputError, match="late"):
            load_manifest(manifest)

    def test_duplicate_id_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [("dup", "A", "1850-01-01", 1849, "t.txt"), ("dup", "B", "1851-01-01", 1850, "t.txt")],
            {"t.txt": "x"},
        )
        with pytest.raises(InputError, match="dup"):
            load_manifest(manifest)

    def test_unparsable_date_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path, [("bad", "B", "01/05/1850", 1849, "t.txt")], {"t.txt": "x"}
        )
        with pytest.raises(InputError, match="bad"):
            load_manifest(manifest)

    def test_missing_text_file_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [("gone", "G", "1850-01-01", 1849, "gone.txt")], {})
        with pytest.raises(InputError, match="gone"):
            load_manifest(manifest)

    def test_symlinked_directory_with_parent_and_absolute_cells(self, tmp_path):
        # texts live beside the manifest's real directory, which is reached
        # through a symlink whose lexical parent holds no "shared": a
        # "../" cell must climb from the real directory, as the OS does.
        real = tmp_path / "real"
        shared = tmp_path / "shared"
        real.mkdir()
        manifest = write_manifest(
            real,
            [("a", "A", "1850-01-01", 1849, "a.txt"), ("b", "B", "1851-01-01", 1850, "b.txt")],
            {"a.txt": "alpha beta", "b.txt": "beta gamma"},
        )
        shared.mkdir()
        (shared / "c.txt").write_text("gamma delta", encoding="utf-8")
        elsewhere = tmp_path / "elsewhere" / "deep"
        elsewhere.mkdir(parents=True)
        (elsewhere / "link").symlink_to(real, target_is_directory=True)
        with open(manifest, "a", newline="", encoding="utf-8") as fh:
            fh.write("c,C,1852-01-01,1851,../shared/c.txt\n")
            fh.write(f"d,D,1853-01-01,1852,{real / 'texts' / 'a.txt'}\n")
        caches = []
        for where in (manifest, elsewhere / "link" / "manifest.csv"):
            records = load_manifest(where)
            assert [r.text_file.read_text(encoding="utf-8") for r in records] == [
                "alpha beta", "beta gamma", "gamma delta", "alpha beta"
            ]
            vocab, matrix = build_corpus(records, CFG_OPEN)
            save_cache(tmp_path, records, vocab, matrix)
            caches.append((tmp_path / "corpus.json").read_bytes())
        assert caches[0] == caches[1]
        assert b'"text_path":"../shared/c.txt"' in caches[0]

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,title,when,pub_year,text_path\n", encoding="utf-8")
        with pytest.raises(InputError, match="header"):
            load_manifest(p)


class TestTokenize:
    def test_hyphen_linebreak_merged(self):
        assert tokenize("natu-\nral selection", CFG_OPEN) == ["natural", "selection"]

    def test_intra_line_hyphen_drops_token(self):
        assert tokenize("natu-ral selection", CFG_OPEN) == ["selection"]

    def test_digits_and_punctuation_dropped(self):
        assert tokenize("Origin 1859 spec1es", CFG_OPEN) == ["origin"]

    def test_lowercase_and_stopwords(self, tmp_path):
        sw = tmp_path / "sw.txt"
        sw.write_text("the\n", encoding="utf-8")
        cfg = TokenizerConfig(min_count=0, max_count=10**9, stopword_path=sw)
        assert tokenize("The THE the", cfg) == []

    def test_ascii_transliteration(self):
        assert tokenize("naïve café", CFG_OPEN) == ["naive", "cafe"]

    def test_apostrophes_count_as_punctuation(self):
        assert tokenize("Darwin's finches", CFG_OPEN) == ["finches"]

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text, CFG_OPEN)
        assert tokenize(" ".join(once), CFG_OPEN) == once

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            TokenizerConfig(min_count=10, max_count=5)

    @settings(max_examples=200)
    @given(texts)
    @example("Natu-\nral natu-\r\nral NATURAL the The 1859 café's Café\x1ccafe\x1dCAFE ﬁnch")
    def test_counted_words_equal_counted_token_list(self, text):
        # build_corpus counts the words first and tests each distinct one once
        stopwords = _stopwords(CFG_OPEN)
        counts = {w: c for w, c in Counter(_words(text)).items() if _is_token(w, stopwords)}
        assert counts == Counter(tokenize(text, CFG_OPEN))


def _tiny_corpus(tmp_path, texts=None):
    texts = texts or {
        "a.txt": "apple banana apple",
        "b.txt": "banana cherry banana",
        "c.txt": "cherry apple date",
    }
    manifest = write_manifest(
        tmp_path,
        [
            ("a", "A", "1850-01-01", 1849, "a.txt"),
            ("b", "B", "1850-02-01", 1849, "b.txt"),
            ("c", "C", "1850-03-01", 1850, "c.txt"),
        ],
        texts,
    )
    return load_manifest(manifest)


class TestBuildCorpus:
    def test_hand_counted_vocabulary_min_count_2(self, tmp_path):
        # apple x3, banana x3, cherry x2, date x1 -> date filtered out
        records = _tiny_corpus(tmp_path)
        vocab, matrix = build_corpus(records, TokenizerConfig(min_count=2, max_count=10**9))
        assert vocab.tokens == ("apple", "banana", "cherry")
        assert vocab.frequencies == (3, 3, 2)
        assert matrix.total_tokens == 8

    def test_identity_filter_keeps_everything(self, tmp_path):
        records = _tiny_corpus(tmp_path)
        vocab, _ = build_corpus(records, CFG_OPEN)
        assert vocab.tokens == ("apple", "banana", "cherry", "date")

    def test_min_count_boundary(self, tmp_path):
        texts = {
            "a.txt": " ".join(["rare"] * 29 + ["common"] * 30),
            "b.txt": "common rare-free filler filler" + " filler" * 28,
            "c.txt": "filler common" + " common" * 28,
        }
        records = _tiny_corpus(tmp_path, texts)
        vocab, _ = build_corpus(records, TokenizerConfig(min_count=30, max_count=10**9))
        assert "rare" not in vocab  # 29 occurrences: below the floor
        assert "common" in vocab and "filler" in vocab

    def test_document_emptied_by_filter_is_an_error(self, tmp_path):
        texts = {
            "a.txt": "alpha alpha beta",
            "b.txt": "alpha beta beta",
            "c.txt": "singleton",
        }
        records = _tiny_corpus(tmp_path, texts)
        with pytest.raises(InputError, match="'c'"):
            build_corpus(records, TokenizerConfig(min_count=2, max_count=10**9))

    def test_deterministic_and_lexicographic(self, tmp_path):
        records = _tiny_corpus(tmp_path)
        v1, m1 = build_corpus(records, CFG_OPEN)
        v2, m2 = build_corpus(records, CFG_OPEN)
        assert v1.tokens == v2.tokens == tuple(sorted(v1.tokens))
        assert np.array_equal(m1.indices, m2.indices)
        assert np.array_equal(m1.counts, m2.counts)

    def test_matrix_total_matches_ingest_stats(self, tmp_path):
        records = _tiny_corpus(tmp_path)
        vocab, matrix = build_corpus(records, TokenizerConfig(min_count=2, max_count=10**9))
        stats = ingest_stats(vocab, matrix)
        assert stats["tokens"] == matrix.total_tokens
        assert stats["documents"] == 3
        assert stats["vocabulary"] == len(vocab)


class TestCountFirstCorpus:
    @settings(max_examples=30, deadline=None)
    @given(
        docs=st.lists(texts | st.just("natu-\rral natu-\r\nral\rorigin"), min_size=1, max_size=5),
        min_count=st.integers(0, 3),
        max_count=st.integers(3, 10**9),
    )
    def test_equals_token_list_reference(self, docs, min_count, max_count):
        config = TokenizerConfig(min_count=min_count, max_count=max_count)
        with tempfile.TemporaryDirectory() as tmp:
            records = []
            for i, text in enumerate(docs):
                path = Path(tmp) / f"{i}.txt"
                path.write_text(text, encoding="utf-8")
                records.append(VolumeRecord(
                    id=f"v{i}", title="", read_date=date(1850, 1, 1), read_seq=i, pub_year=1849,
                    text_path=path.name, text_file=path,
                ))
            # the texts as read back, line ends translated
            read_back = [r.text_file.read_text(encoding="utf-8") for r in records]
            tokens, freqs, indptr, indices, counts = reference_build_corpus(read_back, config)
            if any(b == a for a, b in zip(indptr, indptr[1:])):
                with pytest.raises(InputError, match="no tokens remain"):
                    build_corpus(records, config)
                return
            vocab, matrix = build_corpus(records, config)
        assert vocab.tokens == tokens and vocab.frequencies == freqs
        assert matrix.indptr.tolist() == indptr
        assert matrix.indices.tolist() == indices
        assert matrix.counts.tolist() == counts


@st.composite
def cached_corpora(draw):
    """Records, vocabulary and counts of a small corpus, with text that
    needs escaping in JSON."""
    name = st.text(max_size=8)
    n_docs = draw(st.integers(1, 5))
    tokens = sorted(draw(st.sets(name.filter(bool), min_size=1, max_size=8)))
    records = [
        VolumeRecord(
            id=draw(name), title=draw(name), read_date=date(1850, 1 + i, 1), read_seq=i,
            pub_year=draw(st.integers(1800, 1850)), text_path=draw(name),
        )
        for i in range(n_docs)
    ]
    rows = [
        sorted(draw(st.sets(st.integers(0, len(tokens) - 1), max_size=len(tokens))))
        for _ in range(n_docs)
    ]
    indices = [i for row in rows for i in row]
    counts = [draw(st.integers(1, 10**12)) for _ in indices]
    matrix = CorpusMatrix(np.cumsum([0] + [len(r) for r in rows]), indices, counts, len(tokens))
    freqs = [draw(st.integers(1, 10**6)) for _ in tokens]
    return records, Vocabulary(tokens=tuple(tokens), frequencies=tuple(freqs)), matrix


class TestCache:
    @settings(max_examples=50, deadline=None)
    @given(corpus=cached_corpora())
    def test_save_cache_encodes_once_same_bytes_and_fingerprint(self, corpus):
        records, vocab, matrix = corpus
        with tempfile.TemporaryDirectory() as tmp:
            save_cache(Path(tmp), records, vocab, matrix)
            assert (Path(tmp) / "corpus.json").read_bytes() == reference_cache_bytes(records, vocab, matrix)
            _, v2, m2, fingerprint = load_cache(Path(tmp))
        assert fingerprint == corpus_fingerprint(v2, m2) == corpus_fingerprint(vocab, matrix)

    def test_roundtrip_and_stable_bytes(self, tmp_path):
        records = _tiny_corpus(tmp_path)
        vocab, matrix = build_corpus(records, CFG_OPEN)
        p1, p2 = tmp_path / "c1", tmp_path / "c2"
        for p in (p1, p2):
            p.mkdir()
            save_cache(p, records, vocab, matrix)
        assert (p1 / "corpus.json").read_bytes() == (p2 / "corpus.json").read_bytes()
        r2, v2, m2, _ = load_cache(p1)
        assert [r.id for r in r2] == [r.id for r in records]
        assert v2.tokens == vocab.tokens
        assert np.array_equal(m2.counts, matrix.counts)
        assert corpus_fingerprint(v2, m2) == corpus_fingerprint(vocab, matrix)

    def test_bad_cache_rejected(self, tmp_path):
        p = tmp_path / "corpus.json"
        p.write_text("{}", encoding="utf-8")
        (tmp_path / "corpus.meta.json").write_text('{"corpus_fingerprint": ""}', encoding="utf-8")
        restamp(p)
        with pytest.raises(InputError):
            load_cache(tmp_path)
