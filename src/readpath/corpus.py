"""Reading-manifest ingestion and term-count corpus construction.

A corpus starts from a CSV manifest describing an ordered reading list
(one row per volume: identity, date read, publication year, path to the
plain text). Texts are tokenized with a fixed normalization pipeline,
globally frequency-filtered, and packed into an immutable sparse
count matrix whose row order is the reading order. `exports` writes and
reads the corpus cache that later stages reload.
"""

from __future__ import annotations

import csv
import functools
import io
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from datetime import date
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InputError, read_text

MANIFEST_COLUMNS = ("id", "title", "read_date", "pub_year", "text_path")

# A hyphen glued to the following line break marks a word split by
# typesetting; both characters are deleted to rejoin the word. Hyphens
# inside a line are left alone (the token is later dropped as
# punctuation-bearing).
_HYPHEN_LINEBREAK = re.compile(r"-\r?\n")


@dataclass(frozen=True)
class VolumeRecord:
    """One volume in the reading sequence.

    ``text_path`` is the manifest's cell as written, which the corpus cache
    stores; ``text_file`` is the file that ingest reads, the cell joined to
    the manifest's resolved directory, known only to records loaded from a
    manifest.
    """

    id: str
    title: str
    read_date: date
    read_seq: int
    pub_year: int
    text_path: str
    text_file: Path | None = None


@dataclass(frozen=True)
class TokenizerConfig:
    min_count: int = 30
    max_count: int = 15000
    stopword_path: Path | None = None  # None = packaged English list

    def __post_init__(self):
        if not (0 <= self.min_count <= self.max_count):
            raise ValueError(
                f"need 0 <= min_count <= max_count, got [{self.min_count}, {self.max_count}]"
            )


@dataclass(frozen=True)
class Vocabulary:
    """Bijection between retained token strings and dense indices.

    Tokens are stored in lexicographic order, so index assignment is a
    pure function of the token set. ``frequencies[i]`` is the corpus-wide
    count of ``tokens[i]``.
    """

    tokens: tuple[str, ...]
    frequencies: tuple[int, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.frequencies):
            raise ValueError("tokens and frequencies must align")
        if any(f <= 0 for f in self.frequencies):
            raise ValueError("every retained token needs a positive frequency")

    @functools.cached_property
    def index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


class CorpusMatrix:
    """Per-document sparse token counts over vocabulary indices (CSR layout).

    Document order is reading order. Stored counts are strictly positive
    and per-document indices are ascending.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, counts: np.ndarray, n_vocab: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.n_vocab = int(n_vocab)
        if (
            self.indptr.ndim != 1
            or len(self.indptr) == 0
            or self.indptr[0] != 0
            or self.indptr[-1] != len(self.indices)
        ):
            raise ValueError("malformed indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(self.indices) != len(self.counts):
            raise ValueError("indices and counts must align")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= self.n_vocab):
            raise ValueError("token index out of vocabulary range")
        if np.any(self.counts <= 0):
            raise ValueError("stored counts must be positive")

    @property
    def n_docs(self) -> int:
        return len(self.indptr) - 1

    @property
    def total_tokens(self) -> int:
        return int(self.counts.sum())

    def token_streams(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand counts into parallel, read-only int32 (document, vocab
        index) arrays with one entry per token occurrence, in document
        order. Built as int32 from the start; the caller keeps the token
        count below 2**31."""
        doc_of = np.repeat(np.arange(self.n_docs, dtype=np.int32), np.diff(self.indptr))
        doc_of = np.repeat(doc_of, self.counts)
        word_of = np.repeat(self.indices.astype(np.int32), self.counts)
        doc_of.flags.writeable = word_of.flags.writeable = False
        return doc_of, word_of


def load_manifest(path: Path | str) -> list[VolumeRecord]:
    """Read a reading-list CSV and return validated records in reading order.

    Rows are sorted by read date; rows sharing a date keep their file order
    (the manifest's row order is the tie order). ``read_seq`` is the 0-based
    position after sorting. A record is rejected when its id repeats, its
    date does not parse, its publication year postdates the reading year,
    or its text file is missing; each rejection names the manifest.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"manifest not found: {path}")
    rows = []
    reader = csv.reader(io.StringIO(read_text(path, newline=""), newline=""))
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != MANIFEST_COLUMNS:
        raise InputError(
            f"manifest {path}: header must be {','.join(MANIFEST_COLUMNS)}, got {header}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(MANIFEST_COLUMNS):
            raise InputError(f"manifest {path} line {lineno}: expected {len(MANIFEST_COLUMNS)} fields")
        rows.append((lineno, [c.strip() for c in row]))

    # Resolved once: a realpath per row would be half of this function's
    # time. An absolute cell replaces the base when joined, and the OS walks
    # a relative one from the real directory, so "../" climbs out of the
    # directory the manifest really is in, as a per-row resolve() did.
    base = path.parent.resolve()
    parsed = []
    seen_ids = set()
    for lineno, (rid, title, read_date_s, pub_year_s, text_path_s) in rows:
        if rid in seen_ids:
            raise InputError(f"manifest {path} line {lineno}: duplicate record id {rid!r}")
        seen_ids.add(rid)
        try:
            read_date = date.fromisoformat(read_date_s)
        except ValueError as exc:
            raise InputError(
                f"manifest {path}: record {rid!r}: unparsable read_date {read_date_s!r}"
            ) from exc
        try:
            pub_year = int(pub_year_s)
        except ValueError as exc:
            raise InputError(f"manifest {path}: record {rid!r}: unparsable pub_year {pub_year_s!r}") from exc
        if pub_year > read_date.year:
            raise InputError(
                f"manifest {path}: record {rid!r}: pub_year {pub_year} is after reading year {read_date.year}"
            )
        text_file = base / text_path_s
        if not text_file.is_file():  # an empty cell names the manifest's directory
            raise InputError(f"manifest {path}: record {rid!r}: text file not found: {text_file}")
        parsed.append((read_date, rid, title, pub_year, text_path_s, text_file))

    # Stable sort: ties on read_date keep manifest row order.
    parsed.sort(key=lambda t: t[0])
    return [
        VolumeRecord(
            id=rid, title=title, read_date=rd, read_seq=i, pub_year=py, text_path=tp, text_file=tf
        )
        for i, (rd, rid, title, py, tp, tf) in enumerate(parsed)
    ]


def _ascii_text(text: str) -> str:
    """Rejoin words split by a hyphen + line break, then transliterate to
    ASCII (NFKD decomposition, unmappable characters dropped)."""
    text = _HYPHEN_LINEBREAK.sub("", text)
    return unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")


@functools.lru_cache(maxsize=8)
def _stopwords(config: TokenizerConfig) -> frozenset[str]:
    """The lowercased stopwords of ``config``'s newline-delimited UTF-8 file
    (one token per line), or of the packaged English list."""
    default = resources.files("readpath").joinpath("data/stopwords_english.txt")
    path = Path(str(config.stopword_path or default))
    if not path.exists():
        raise InputError(f"stopword file not found: {path}")
    return frozenset(tok.lower() for line in read_text(path).splitlines() if (tok := line.strip()))


def tokenize(text: str, config: TokenizerConfig) -> list[str]:
    """Normalize raw text to a token list.

    Pipeline, in order: rejoin words split by a hyphen + line break;
    transliterate to ASCII (NFKD decomposition, unmappable characters
    dropped); split on whitespace; drop tokens containing anything but
    letters (digits, punctuation, including apostrophes); lowercase;
    drop stopwords. Deterministic; empty output is allowed.
    """
    stopwords = _stopwords(config)
    return [word for word in _words(text) if _is_token(word, stopwords)]


def _words(text: str) -> list[str]:
    """Every whitespace-separated word of the ASCII text, lowercased.
    Lowercasing the ASCII text whole changes no split and no letter test,
    so lowercasing before the letter test keeps the words that `tokenize`'s
    documented order keeps."""
    return _ascii_text(text).lower().split()


def _is_token(word: str, stopwords: frozenset[str]) -> bool:
    return word.isalpha() and word not in stopwords


def build_corpus(
    records: list[VolumeRecord], config: TokenizerConfig
) -> tuple[Vocabulary, CorpusMatrix]:
    """Count every record's tokens and build the frequency-filtered corpus.

    Global token frequencies are computed over the whole reading list;
    tokens with corpus frequency outside [min_count, max_count] are removed
    everywhere. A document left with zero tokens is an error: every
    document must be able to carry a topic distribution downstream.

    Each document is held as the counts of its distinct `_words`, so memory
    grows with the distinct (document, word) pairs, not with the tokens,
    and each distinct word of the corpus is tested as a token once: the
    counts are those of `tokenize`.
    """
    doc_counts = []
    freq = Counter()
    for rec in records:
        if rec.text_file is None:
            raise InputError(f"record {rec.id!r}: no text file to read (load the manifest to ingest)")
        try:
            text = read_text(rec.text_file)
        except InputError as exc:
            raise InputError(f"record {rec.id!r}: {exc}") from exc
        words = _words(text)
        freq.update(words)
        doc_counts.append(Counter(words))
    stopwords = _stopwords(config)
    retained = {
        t: c for t, c in freq.items()
        if _is_token(t, stopwords) and config.min_count <= c <= config.max_count
    }

    ordered = sorted(retained)
    vocab = Vocabulary(tokens=tuple(ordered), frequencies=tuple(retained[t] for t in ordered))
    index = vocab.index

    indptr = [0]
    indices: list[int] = []
    counts: list[int] = []
    for rec, doc in zip(records, doc_counts):
        kept = sorted(doc.keys() & index.keys())
        if not kept:
            raise InputError(
                f"record {rec.id!r}: no tokens remain after frequency filtering"
            )
        indices.extend(map(index.__getitem__, kept))
        counts.extend(map(doc.__getitem__, kept))
        indptr.append(len(indices))

    matrix = CorpusMatrix(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        n_vocab=len(vocab),
    )
    return vocab, matrix


def ingest_stats(vocab: Vocabulary, matrix: CorpusMatrix) -> dict:
    """Summary counts; the token total is tallied from vocabulary
    frequencies, independently of the matrix."""
    return {
        "documents": matrix.n_docs,
        "tokens": int(sum(vocab.frequencies)),
        "vocabulary": len(vocab),
    }
