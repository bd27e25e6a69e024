"""Every artifact's file name, format, writer and reader; the compute
modules write no file and read no artifact. The two artifacts that every
stage reloads, ``corpus.json`` and ``model.bin``, each get a sidecar
(``corpus.meta.json``, ``model.meta.json``) recording the sha256 of their
bytes, which the reader checks before it parses. The series,
publication-order, null and summary exports each get a sidecar with their
lineage, those two sha256 (`_lineage`), which `check_lineage` compares.

JSON exports (`write_json`): sorted keys, indent 2, a trailing newline,
``null`` for a non-finite entry of a float array. CSV (`_write_csv`): a
header row, then ``csv.writer`` rows (``\\r\\n`` ends), a float as
``repr(float)`` and an empty cell for a non-finite one. Each writer takes
its directory (the output directory, or the bundle directory ``out/k<K>``)
and names its own files, one per kind where there are kinds.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import datetime as _dt
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from .corpus import CorpusMatrix, Vocabulary, VolumeRecord
from .errors import InputError, read_bytes, read_text
from .surprise import KINDS
from .topics import TopicModel, TopicModelParams, kernel_flags

CACHE_FORMAT_VERSION = 1
MODEL_FORMAT_VERSION = 1
SUMMARY_FORMAT_VERSION = 1

# The entries of the epochs_*.json and ranks.json payloads that summary.json
# repeats; its break dates drop their indices.
_SUMMARY_EPOCH_KEYS = (
    "selected_n", "breaks", "segment_means", "segment_variances", "segment_relative_means", "model_table",
)
_SUMMARY_RANK_KEYS = ("bin_edges", "observed_props", "null_props", "ratio")


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


@functools.cache
def _numeric_stack() -> dict:
    """The numpy and scipy versions and the SIMD extensions numpy found on
    this CPU, which pick the code that computes the exports' floats. The
    scipy version comes from scipy's own ``version.py``, run alone: scipy
    stays unloaded (its import takes about 0.3 s), and so does
    importlib.metadata, whose modules stay resident (about 1 MB)."""
    version_py = Path(importlib.util.find_spec("scipy").origin).with_name("version.py")
    spec = importlib.util.spec_from_file_location("_scipy_version", version_py)
    scipy_version = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scipy_version)
    return {
        "numpy_version": np.__version__,
        "scipy_version": scipy_version.version,
        "numpy_simd": list(np.show_config(mode="dicts")["SIMD Extensions"]["found"]),
    }


@contextlib.contextmanager
def _writing(path: Path, mode: str, **kwargs):
    """A file for ``path``, written under a temporary name in its directory
    and renamed into place, so a failed write leaves the old file whole and
    no temporary. An OSError is an InputError naming ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path} (check run.out): {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)  # still there only if the write failed


def _write_digested(path: Path, pieces) -> str:
    """Write the byte ``pieces`` to ``path`` in turn; their sha256."""
    digest = hashlib.sha256()
    with _writing(path, "wb") as fh:
        for piece in pieces:
            fh.write(piece)
            digest.update(piece)
    return digest.hexdigest()


def write_json(path: Path, payload: dict) -> None:
    with _writing(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _writing(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cell(x) -> str:
    x = float(x)
    return repr(x) if math.isfinite(x) else ""


def _floats(values) -> list[float | None]:
    return [float(x) if math.isfinite(x) else None for x in values]


def bundle_files(export_matrix: bool) -> list[str]:
    """The files of one bundle directory that its manifest.json declares."""
    per_kind = ("series_{}.csv", "series_{}.meta.json", "null_{}.json", "null_{}.csv", "puborder_{}.csv",
                "puborder_{}.meta.json", "greedy_{}.csv", "epochs_{}.json", "landscape_{}.csv")
    names = ["model.bin", "model.meta.json", "ranks.csv", "ranks.json", "summary.json"]
    names += [name.format(kind.lower()) for kind in KINDS for name in per_kind]
    return sorted(names + ["matrix.csv"] * export_matrix)


def _require(path: Path, what: str, hint: str) -> Path:
    if not path.exists():
        raise InputError(f"missing {what}: {path} (run `readpath {hint}` first)")
    return path


def _json_object(path: Path, text: str | bytes, what: str) -> dict:
    """``text``, the content of ``path``, as a JSON object; anything else is
    an InputError naming the file as ``what``."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # not JSON, or bytes that are not UTF-8
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError(f"{what} {path} is not a JSON object")
    return payload


def _check_digest(path: Path, meta_path: Path, command: str, pieces, *keys: str) -> dict:
    """The payload of ``path``'s sidecar ``meta_path``, which must hold a
    string under each of ``keys``, the first the sha256 of ``pieces`` (the
    file's bytes in order); else an InputError naming both files."""
    if not meta_path.exists():
        raise InputError(f"{path} has no sidecar {meta_path} with its sha256 (re-run `readpath {command}`)")
    meta = _json_object(meta_path, read_text(meta_path), f"{path.name} sidecar")
    if not all(isinstance(meta.get(key), str) for key in keys):
        raise InputError(f"{path.name} sidecar {meta_path} lacks a string {' or '.join(keys)}")
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    if digest.hexdigest() != meta[keys[0]]:
        raise InputError(
            f"{path} does not have the sha256 that {meta_path} records: it changed after "
            f"`readpath {command}` wrote it (re-run `readpath {command}`)"
        )
    return meta


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# The arrays that the corpus fingerprint covers, in the key order of its
# canonical JSON. The cache file holds them in the same order (the
# documents' counts, indices and indptr, then the vocabulary's tokens), so
# `save_cache` hashes each one as it writes it.
_FINGERPRINTED = ("counts", "indices", "indptr", "tokens")


def _array_json(vocab: Vocabulary, matrix: CorpusMatrix, key: str) -> bytes:
    return canonical_json_bytes(list(vocab.tokens) if key == "tokens" else getattr(matrix, key).tolist())


def corpus_cached(out: Path) -> bool:
    return (out / "corpus.json").exists()


def save_cache(out: Path, records: list[VolumeRecord], vocab: Vocabulary, matrix: CorpusMatrix) -> None:
    """``corpus.json``, the corpus as canonical JSON (byte-stable across
    runs), and ``corpus.meta.json``, its sha256 and the corpus fingerprint
    (the SHA-256 of the canonical JSON of the tokens and the counts), all
    from one encoding of each array, held one at a time."""
    records_json = canonical_json_bytes([
        {
            "id": r.id,
            "title": r.title,
            "read_date": r.read_date.isoformat(),
            "read_seq": r.read_seq,
            "pub_year": r.pub_year,
            "text_path": str(r.text_path),
        }
        for r in records
    ])
    # The file's text before each fingerprinted array: the canonical JSON
    # of the cache payload, keys sorted at every level.
    before = {
        "counts": b'{"documents":{"counts":',
        "indices": b',"indices":',
        "indptr": b',"indptr":',
        "tokens": b'},"format_version":' + canonical_json_bytes(CACHE_FORMAT_VERSION)
        + b',"kind":"corpus-cache","records":' + records_json
        + b',"vocabulary":{"frequencies":' + canonical_json_bytes(list(vocab.frequencies))
        + b',"tokens":',
    }
    fingerprint = hashlib.sha256()  # of the canonical JSON object of the _FINGERPRINTED arrays

    def pieces():
        for i, key in enumerate(_FINGERPRINTED):
            piece = _array_json(vocab, matrix, key)
            fingerprint.update((b"," if i else b"{") + canonical_json_bytes(key) + b":")
            fingerprint.update(piece)
            yield from (before[key], piece)
        fingerprint.update(b"}")
        yield b"}}"

    corpus_sha256 = _write_digested(out / "corpus.json", pieces())
    write_json(
        out / "corpus.meta.json",
        {"corpus_fingerprint": fingerprint.hexdigest(), "corpus_sha256": corpus_sha256},
    )


def load_cache(out: Path) -> tuple[list[VolumeRecord], Vocabulary, CorpusMatrix, str]:
    """The records, vocabulary and counts of ``corpus.json``, and the corpus
    fingerprint its checked sidecar records. A payload that is not the
    cache's shape, or records out of reading order (dates not
    nondecreasing, or a ``read_seq`` other than the record's position), is
    an InputError naming the file."""
    path = _require(out / "corpus.json", "corpus cache", "ingest")
    text = read_text(path, newline="")
    meta = _check_digest(
        path, out / "corpus.meta.json", "ingest", [text.encode("utf-8")], "corpus_sha256", "corpus_fingerprint"
    )
    payload = _json_object(path, text, "corpus cache")
    del text
    if payload.get("kind") != "corpus-cache" or payload.get("format_version") != CACHE_FORMAT_VERSION:
        raise InputError(f"corpus cache {path}: unsupported format tag")
    try:
        records = [
            VolumeRecord(
                id=r["id"],
                title=r["title"],
                read_date=_dt.date.fromisoformat(r["read_date"]),
                read_seq=int(r["read_seq"]),
                pub_year=int(r["pub_year"]),
                text_path=r["text_path"],
            )
            for r in payload["records"]
        ]
        vocab = Vocabulary(
            tokens=tuple(payload["vocabulary"]["tokens"]),
            frequencies=tuple(payload["vocabulary"]["frequencies"]),
        )
        docs = payload["documents"]
        matrix = CorpusMatrix(
            indptr=np.asarray(docs["indptr"], dtype=np.int64),
            indices=np.asarray(docs["indices"], dtype=np.int64),
            counts=np.asarray(docs["counts"], dtype=np.int64),
            n_vocab=len(vocab),
        )
    except KeyError as exc:
        raise InputError(f"malformed corpus cache {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed corpus cache {path}: {exc}") from exc
    if len(records) != matrix.n_docs:
        raise InputError(
            f"malformed corpus cache {path}: {len(records)} records for {matrix.n_docs} documents"
        )
    for i, rec in enumerate(records):
        if rec.read_seq != i:
            raise InputError(
                f"malformed corpus cache {path}: record {rec.id!r} at position {i} "
                f"has read_seq {rec.read_seq}"
            )
        if i and rec.read_date < records[i - 1].read_date:
            raise InputError(
                f"malformed corpus cache {path}: record {rec.id!r} read on {rec.read_date} after "
                f"{records[i - 1].id!r} read on {records[i - 1].read_date}; records must be in reading order"
            )
    return records, vocab, matrix, meta["corpus_fingerprint"]


def save_model(kdir: Path, model: TopicModel, corpus_fingerprint: str) -> None:
    """``model.bin``, one canonical-JSON header line and then theta and phi as
    row-major float64 bytes (no timestamps, so identical models serialize
    to identical bytes), and ``model.meta.json``, which records its sha256
    and the build flags of the sweep kernel. Both name the fingerprint of
    the corpus the model was trained on, which `load_model` checks."""
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "topic-model",
        "d": model.theta.shape[0],
        "k": model.theta.shape[1],
        "v": model.phi.shape[1],
        "params": dataclasses.asdict(model.params),
        "corpus_fingerprint": corpus_fingerprint,
    }
    model_sha256 = _write_digested(kdir / "model.bin", (
        canonical_json_bytes(header) + b"\n",
        np.ascontiguousarray(model.theta, dtype=np.float64),
        np.ascontiguousarray(model.phi, dtype=np.float64),
    ))
    write_json(
        kdir / "model.meta.json",
        {
            "created_utc": _utc_now(),
            "k": model.k,
            "seed": model.params.seed,
            "iterations": model.params.iterations,
            "corpus_fingerprint": corpus_fingerprint,
            "model_sha256": model_sha256,
            "sweep_kernel_flags": " ".join(kernel_flags()),
            **_numeric_stack(),
        },
    )


def load_model(kdir: Path, n_docs: int, corpus_fingerprint: str) -> TopicModel:
    """The model of ``kdir``, which must have been trained on the corpus of
    ``n_docs`` documents and ``corpus_fingerprint``. A malformed header, a
    body of the wrong size or one that breaks the model's invariants (rows
    on the simplex, strictly positive) is an InputError naming the file."""
    path = _require(kdir / "model.bin", "topic model", "train")
    data = read_bytes(path)
    _check_digest(path, kdir / "model.meta.json", "train", [data], "model_sha256")
    body_start = data.find(b"\n") + 1 or len(data)
    body = memoryview(data)[body_start:]  # a view, not a second copy of theta and phi
    header = _json_object(path, data[:body_start], "model artifact")
    if header.get("kind") != "topic-model" or header.get("format_version") != MODEL_FORMAT_VERSION:
        raise InputError(f"model artifact {path}: unsupported format tag")
    try:
        d, k, v = (int(header[key]) for key in ("d", "k", "v"))
        params = TopicModelParams(**header["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"model artifact {path}: bad header entry {exc}") from exc
    if len(body) != (d * k + k * v) * 8:
        raise InputError(
            f"model artifact {path}: {len(body)} bytes after the header, expected "
            f"{(d * k + k * v) * 8} for d={d}, k={k}, v={v} (truncated or oversized)"
        )
    if d != n_docs:
        raise InputError(f"stale topic model {path}: {d} documents, corpus has {n_docs}")
    if header.get("corpus_fingerprint") != corpus_fingerprint:
        raise InputError(
            f"stale topic model {path}: trained on another corpus than the one corpus.meta.json"
            " records (re-run `readpath train`)"
        )
    theta = np.frombuffer(body, dtype=np.float64, count=d * k).reshape(d, k)
    phi = np.frombuffer(body, dtype=np.float64, offset=d * k * 8).reshape(k, v)
    try:
        return TopicModel(theta=theta, phi=phi, params=params)
    except ValueError as exc:
        raise InputError(f"corrupted model artifact {path}: {exc}") from exc


def write_series(kdir: Path, stem: str, series: dict, doc_ids: list[str], dates: list[str]) -> None:
    """``<stem>_<kind>.csv`` (each position's document, date and bits) and
    its ``.meta.json`` sidecar with its lineage, for each kind of ``series``."""
    for kind, s in series.items():
        path = kdir / f"{stem}_{kind.lower()}.csv"
        _write_csv(
            path,
            ["position", "doc_id", "date", "value_bits"],
            ([j + 1, doc_ids[j], dates[j], _cell(v)] for j, v in enumerate(s.values)),
        )
        write_json(
            path.with_suffix(".meta.json"),
            {
                "format_version": 1,
                "kind": s.kind,
                "n_window": s.n_window,
                "ordering": s.ordering,
                "positions": len(s),
                "mean_bits": s.mean_bits,
                **_lineage(kdir),
            },
        )


def _lineage(kdir: Path) -> dict:
    """The sha256 of the corpus cache and the model of bundle ``kdir``, as
    their sidecars record them (each step has checked both files first)."""
    corpus_meta = load_bundle_json(kdir.parent / "corpus.meta.json")
    model_meta = load_bundle_json(kdir / "model.meta.json")
    return {"corpus_sha256": corpus_meta.get("corpus_sha256"), "model_sha256": model_meta.get("model_sha256")}


def check_lineage(path: Path, command: str) -> None:
    """The sidecar of bundle file ``path`` (``null.meta.json`` for the null's)
    must hold its `_lineage`; else an InputError naming the files that differ."""
    meta_path = path.with_name("null.meta.json" if path.name.startswith("null_") else f"{path.stem}.meta.json")
    if not meta_path.exists():
        raise InputError(f"{path} has no sidecar {meta_path} naming its corpus and model (re-run `readpath {command}`)")
    meta = _json_object(meta_path, read_text(meta_path), f"{path.name} sidecar")
    for key, value in _lineage(path.parent).items():
        if not isinstance(value, str) or meta.get(key) != value:
            raise InputError(
                f"stale {path}: its sidecar {meta_path} records another {key} than "
                f"{key.removesuffix('_sha256')}.meta.json (re-run `readpath {command}`)"
            )


def write_null(kdir: Path, nulls: dict, config) -> None:
    """``null_<kind>.json`` (the aggregate test) and ``null_<kind>.csv`` (each
    position's null) for each kind of ``nulls``, and ``null.meta.json``, the
    lineage of the ensemble: the corpus and model it was computed from."""
    for kind, ens in nulls.items():
        lo, hi = ens.aggregate_quantiles()
        write_json(
            kdir / f"null_{kind.lower()}.json",
            {
                "format_version": 1,
                "kind": ens.kind,
                "config": dataclasses.asdict(config),
                "observed_aggregate_bits": ens.observed_aggregate,
                "null_aggregate_mean_bits": ens.aggregate_mean,
                "null_aggregate_std_bits": ens.aggregate_std,
                "null_aggregate_q025_bits": lo,
                "null_aggregate_q975_bits": hi,
                "p_value_below_null": ens.p_value,
            },
        )
        rows = zip(itertools.count(1), map(_cell, ens.position_mean), map(_cell, ens.position_std))
        _write_csv(kdir / f"null_{kind.lower()}.csv", ["position", "null_mean_bits", "null_std_bits"], rows)
    write_json(kdir / "null.meta.json", {"format_version": 1, **_lineage(kdir)})


def load_null_means(kdir: Path, kind: str, positions: int, required: bool) -> np.ndarray | None:
    """The per-position null means of ``null_<kind>.csv``; None when the
    file does not exist and is not ``required``. The ensemble must come
    from the corpus and model in use, as its sidecar ``null.meta.json``
    records."""
    path = kdir / f"null_{kind.lower()}.csv"
    if not path.exists():
        if required:
            raise InputError(f"missing null ensemble: {path} (run `readpath null` first)")
        return None
    check_lineage(path, "null")
    rows = list(csv.reader(io.StringIO(read_text(path, newline=""), newline="")))[1:]
    if len(rows) != positions:
        raise InputError(f"stale null ensemble {path}: {len(rows)} positions, expected {positions}")
    try:
        means = np.array([float(r[1]) for r in rows])
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed null ensemble {path}: a row has no numeric mean") from exc
    if not np.all(np.isfinite(means)):
        raise InputError(f"malformed null ensemble {path}: a row has a non-finite mean")
    return means


def write_greedy(kdir: Path, greedy: dict, doc_ids: list[str]) -> None:
    """``greedy_<kind>.csv``: the path's documents in visiting order and the
    bits of each step."""
    for kind, gp in greedy.items():
        steps = [[0, doc_ids[gp.order[0]], ""]]
        steps += [[s, doc_ids[i], _cell(b)] for s, (i, b) in enumerate(zip(gp.order[1:], gp.step_bits), 1)]
        _write_csv(kdir / f"greedy_{kind.lower()}.csv", ["step", "doc_id", "step_bits"], steps)


def write_matrix(kdir: Path, matrix: np.ndarray) -> None:
    """``matrix.csv``: the D x D divergence matrix, one row per document."""
    rows = ([i] + [_cell(x) for x in row.tolist()] for i, row in enumerate(matrix))
    _write_csv(kdir / "matrix.csv", ["row"] + [str(j) for j in range(len(matrix))], rows)


def write_ranks(kdir: Path, rd) -> dict:
    """``ranks.json`` and ``ranks.csv`` of a rank distribution; returns the
    JSON payload."""
    payload = {
        "format_version": 1,
        "bin_edges": _floats(rd.bin_edges),
        "observed_counts": [int(c) for c in rd.observed_counts],
        "null_counts": [int(c) for c in rd.null_counts],
        "observed_props": _floats(rd.observed_props),
        "null_props": _floats(rd.null_props),
        "ratio": _floats(rd.ratio),
        "ratio_low": _floats(rd.ratio_low),
        "ratio_high": _floats(rd.ratio_high),
    }
    write_json(kdir / "ranks.json", payload)
    edges = rd.bin_edges.astype(int)
    floats = (rd.observed_props, rd.null_props, rd.ratio, rd.ratio_low, rd.ratio_high)
    _write_csv(
        kdir / "ranks.csv",
        ["bin_low", "bin_high", "observed_count", "null_count",
         "observed_prop", "null_prop", "ratio", "ratio_low", "ratio_high"],
        zip(edges[:-1], edges[1:], rd.observed_counts, rd.null_counts, *(map(_cell, a) for a in floats)),
    )
    return payload


def write_epochs(
    kdir: Path, kind: str, series_input: str, best, table: list[dict],
    break_dates: list[tuple[int, _dt.date]], relative_means: list[float] | None, prior: dict,
    landscape: np.ndarray,
) -> dict:
    """``epochs_<kind>.json`` (the selected model and the table over n) and
    ``landscape_<kind>.csv`` (the two-epoch log-likelihood at each admissible
    break); returns the JSON payload."""
    payload = {
        "format_version": 1,
        "kind": kind,
        "series_input": series_input,  # "raw" | "relative"
        "selected_n": best.n,
        "breaks": list(best.breaks),
        "break_dates": [[b, d.isoformat()] for b, d in break_dates],
        "segment_means": list(best.means),
        "segment_variances": list(best.variances),
        "segment_relative_means": relative_means,
        "log_likelihood": best.log_likelihood,
        "aic": best.aic,
        "evidence_prior": prior,
        "model_table": table,
    }
    write_json(kdir / f"epochs_{kind.lower()}.json", payload)
    _write_csv(
        kdir / f"landscape_{kind.lower()}.csv",
        ["break_position", "log_likelihood"],
        ([b, _cell(v)] for b, v in enumerate(landscape) if np.isfinite(v)),
    )
    return payload


def write_summary(
    kdir: Path, k: int, documents: int, seed: int, series: dict, nulls: dict, greedy: dict,
    puborder: dict, epochs: dict, ranks: dict,
) -> None:
    """``summary.json``: the headline numbers of each kind, the blocks of the
    ``epochs`` payloads (by kind) and of the ``ranks`` payload that
    `report` reads; and ``summary.meta.json``, its lineage."""
    surprise = {}
    for kind, ens in nulls.items():
        lo, hi = ens.aggregate_quantiles()
        surprise[kind] = {
            "observed_bits_per_step": series[kind].mean_bits,
            "null_mean_bits_per_step": ens.aggregate_mean,
            "null_std_bits_per_step": ens.aggregate_std,
            "null_q025_bits_per_step": lo,
            "null_q975_bits_per_step": hi,
            "p_value_below_null": ens.p_value,
            "greedy_bits_per_step": greedy[kind].mean_bits,
            "publication_order_bits_per_step": puborder[kind].mean_bits,
        }
    write_json(
        kdir / "summary.json",
        {
            "format_version": SUMMARY_FORMAT_VERSION,
            "k": k,
            "documents": documents,
            "seed": seed,
            "surprise": surprise,
            "epochs": {
                kind: {key: payload[key] for key in _SUMMARY_EPOCH_KEYS}
                | {"break_dates": [d for _, d in payload["break_dates"]]}
                for kind, payload in epochs.items()
            },
            "ranks": {key: ranks[key] for key in _SUMMARY_RANK_KEYS},
        },
    )
    write_json(kdir / "summary.meta.json", {"format_version": 1, **_lineage(kdir)})


def write_manifest(kdir: Path, k: int, export_matrix: bool) -> None:
    write_json(kdir / "manifest.json", {"format_version": 1, "k": k, "files": bundle_files(export_matrix)})


def write_run_meta(out: Path, telemetry: dict) -> None:
    """``run_meta.json`` in the output directory: ``telemetry`` with the time
    of writing and the numeric stack."""
    write_json(out / "run_meta.json", {"created_utc": _utc_now(), **telemetry, **_numeric_stack()})


def load_bundle_json(path: Path) -> dict:
    """A bundle's JSON file as a dict; anything else is an input error."""
    return _json_object(path, read_text(path), "bundle file")


def load_summary(kdir: Path) -> dict:
    """Bundle ``kdir``'s ``summary.json``, once its manifest's files exist,
    ``model.bin`` has its recorded sha256 and `check_lineage` passes."""
    manifest_path = kdir / "manifest.json"
    if not manifest_path.exists():
        raise InputError(f"not a result bundle (no manifest.json): {kdir}")
    files = load_bundle_json(manifest_path).get("files")
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise InputError(f"malformed bundle file {manifest_path}: no list of file names")
    for name in files:
        if not (kdir / name).exists():
            raise InputError(f"bundle is missing an artifact that {manifest_path} declares: {name}")
    model_path = kdir / "model.bin"
    _check_digest(model_path, kdir / "model.meta.json", "train", [read_bytes(model_path)], "model_sha256")
    names = [f"{stem}_{kind.lower()}.csv" for stem in ("series", "puborder", "null") for kind in KINDS]
    for name in names + ["summary.json"]:
        check_lineage(kdir / name, "run")
    return load_bundle_json(kdir / "summary.json")
