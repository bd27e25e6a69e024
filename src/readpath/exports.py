"""Every export's file name, format and writer, and the readers of the
exports that later stages load back; the compute modules write nothing.

JSON (`write_json`): sorted keys, indent 2, a trailing newline, ``null``
for a non-finite entry of a float array. CSV (`_write_csv`): a header row, then
``csv.writer`` rows (``\\r\\n`` ends), a float as ``repr(float)`` and an
empty cell for a non-finite one. Each writer takes the bundle directory
(``out/k<K>``) and names its own files, one per kind where there are kinds.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as _dt
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .errors import InputError, read_text

SUMMARY_FORMAT_VERSION = 1

# The entries of the epochs_*.json and ranks.json payloads that summary.json
# repeats; its break dates drop their indices.
_SUMMARY_EPOCH_KEYS = (
    "selected_n", "breaks", "segment_means", "segment_variances", "segment_relative_means", "model_table",
)
_SUMMARY_RANK_KEYS = ("bin_edges", "observed_props", "null_props", "ratio")


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    names += [name.format(kind) for kind in ("t2t", "t2p") for name in per_kind]
    return sorted(names + ["matrix.csv"] * export_matrix)


def write_model_meta(kdir: Path, model) -> None:
    write_json(
        kdir / "model.meta.json",
        {
            "created_utc": _utc_now(),
            "k": model.k,
            "seed": model.params.seed,
            "iterations": model.params.iterations,
            "corpus_fingerprint": model.corpus_fingerprint,
        },
    )


def write_series(kdir: Path, stem: str, series: dict, doc_ids: list[str], dates: list[str],
                 model_fingerprint: str) -> None:
    """``<stem>_<kind>.csv`` (each position's document, date and bits) and
    its ``.meta.json`` sidecar, for each kind of ``series``."""
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
                "model_fingerprint": model_fingerprint,
            },
        )


def write_null(kdir: Path, nulls: dict, config) -> None:
    """``null_<kind>.json`` (the aggregate test) and ``null_<kind>.csv`` (each
    position's null) for each kind of ``nulls``."""
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


def load_null_means(kdir: Path, kind: str, positions: int, required: bool) -> np.ndarray | None:
    """The per-position null means of ``null_<kind>.csv``; None when the
    file does not exist and is not ``required``."""
    path = kdir / f"null_{kind.lower()}.csv"
    if not path.exists():
        if required:
            raise InputError(f"missing null ensemble: {path} (run `readpath null` first)")
        return None
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
    `report` reads."""
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


def write_manifest(kdir: Path, k: int, export_matrix: bool) -> None:
    write_json(kdir / "manifest.json", {"format_version": 1, "k": k, "files": bundle_files(export_matrix)})


def write_run_meta(out: Path, telemetry: dict) -> None:
    """``run_meta.json`` in the output directory: ``telemetry`` with the time
    of writing."""
    write_json(out / "run_meta.json", {"created_utc": _utc_now(), **telemetry})


def load_bundle_json(path: Path) -> dict:
    """A bundle's JSON file as a dict; anything else is an input error."""
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed bundle file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError(f"malformed bundle file {path}: not a JSON object")
    return payload
