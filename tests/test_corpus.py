from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from readpath.corpus import (
    TokenizerConfig,
    build_corpus,
    corpus_fingerprint,
    ingest_stats,
    load_cache,
    load_manifest,
    save_cache,
    tokenize,
)
from readpath.errors import InputError

from conftest import write_manifest

CFG_OPEN = TokenizerConfig(min_count=0, max_count=10**9)


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
            save_cache(tmp_path / "corpus.json", records, vocab, matrix)
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


class TestCache:
    def test_roundtrip_and_stable_bytes(self, tmp_path):
        records = _tiny_corpus(tmp_path)
        vocab, matrix = build_corpus(records, CFG_OPEN)
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        save_cache(p1, records, vocab, matrix)
        save_cache(p2, records, vocab, matrix)
        assert p1.read_bytes() == p2.read_bytes()
        r2, v2, m2 = load_cache(p1)
        assert [r.id for r in r2] == [r.id for r in records]
        assert v2.tokens == vocab.tokens
        assert np.array_equal(m2.counts, matrix.counts)
        assert corpus_fingerprint(v2, m2) == corpus_fingerprint(vocab, matrix)

    def test_bad_cache_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}", encoding="utf-8")
        with pytest.raises(InputError):
            load_cache(p)
