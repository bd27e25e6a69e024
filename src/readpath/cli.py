"""Command-line front end.

Subcommands cover each pipeline stage (ingest, train, surprise, null,
puborder, greedy, ranks, epochs) plus `run` for the whole chain and
`report` to pretty-print a result bundle; `_COMMANDS` lists them with
their steps. Every value in the config file can be overridden with a flag
of the same dotted name, e.g. ``--topics.k 40`` or ``--null.samples=200``;
the common flags ``--out``, ``--seed``, ``--k``, ``--samples`` and
``--threads`` are shorthand for ``--run.out``, ``--run.seed``,
``--topics.k``, ``--null.samples`` and ``--run.threads``, applied before
the dotted names. `config.load_run_config` builds the file and the
overrides into one frozen `RunConfig`, and each step passes its stage's
config (``cfg.corpus``, ``cfg.topics``, ``cfg.null``, ``cfg.epochs``) to
the compute modules.

Every artifact is written and read through `exports`, which owns the file
names and formats. All exports are byte-deterministic for a fixed (inputs,
config, seed); wall-clock timestamps appear only in the *.meta.json sidecars.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import epochs as epochs_mod
from . import exports as exports_mod
from . import nullmodel as null_mod
from . import paths as paths_mod
from . import surprise as surprise_mod
from . import topics as topics_mod
from .config import RunConfig, load_run_config
from .errors import InputError

# The common flags: each is shorthand for a dotted override.
_SHORTHAND = {
    "out": "run.out", "seed": "run.seed", "k": "topics.k", "samples": "null.samples", "threads": "run.threads",
}


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextlib.contextmanager
def _timed(seconds: dict[str, float], peaks: dict[str, float], stage: str):
    """Add the wall time of the block to ``seconds[stage]``, and set
    ``peaks[stage]`` to the process's peak RSS when the block ends."""
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[stage] += time.perf_counter() - start
        peaks[stage] = _peak_rss_mb()


def _release_free_heap() -> None:
    """Give the pages of freed heap blocks back to the system (glibc's
    malloc_trim; nothing elsewhere). Freed arrays otherwise stay resident
    under what later stages allocate, by an amount that moves with the
    heap's layout (up to several MB)."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass


def _peak_rss_mb() -> float:
    """This process's peak resident set size (ru_maxrss: bytes on macOS, KiB elsewhere)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _kdirs(cfg: RunConfig) -> list[Path]:
    """The bundle directory of each k of ``topics.k_list``, in its order."""
    return [cfg.out / f"k{k}" for k in cfg.k_list]


def _load_stage_corpus(cfg: RunConfig):
    """The cached records and the corpus fingerprint that every model a
    stage loads must carry. The vocabulary and counts are freed on return:
    held for the whole stage, they stay resident under its peak."""
    records, _, _, fingerprint = exports_mod.load_cache(cfg.out)
    return records, fingerprint


def _load_model(cfg: RunConfig, kdir: Path, records, fingerprint: str) -> topics_mod.TopicModel:
    """The model of ``kdir``, trained on the cached corpus. When no setting
    named k, an error loading it also says where the default k came from."""
    try:
        return exports_mod.load_model(kdir, len(records), fingerprint)
    except InputError as exc:
        if cfg.k_given:
            raise
        raise InputError(f"{exc}; {cfg.k_note()}") from exc


# --------------------------------------------------------------------------
# pipeline steps (each writes its exports and returns its results)

def cmd_ingest(cfg: RunConfig) -> None:
    """Write the corpus cache and print its counts."""
    if cfg.manifest is None:
        raise InputError("corpus.manifest is required for ingest")
    records = corpus_mod.load_manifest(cfg.manifest)
    vocab, matrix = corpus_mod.build_corpus(records, cfg.corpus)
    cfg.out.mkdir(parents=True, exist_ok=True)
    exports_mod.save_cache(cfg.out, records, vocab, matrix)
    print(json.dumps(corpus_mod.ingest_stats(vocab, matrix), sort_keys=True))


def _train_models(cfg: RunConfig, matrix, fingerprint: str) -> list[topics_mod.TopicModel]:
    models = topics_mod.sweep_k(
        matrix, cfg.k_list, cfg.topics, fingerprint=fingerprint, threads=cfg.threads
    )
    for kdir, model in zip(_kdirs(cfg), models):
        kdir.mkdir(parents=True, exist_ok=True)
        exports_mod.save_model(kdir, model)
        _note(f"trained k={model.k}")
    return models


def cmd_train(cfg: RunConfig) -> None:
    _, _, matrix, fingerprint = exports_mod.load_cache(cfg.out)
    _train_models(cfg, matrix, fingerprint)


def _reading_series(model) -> dict[str, surprise_mod.SurpriseSeries]:
    return {"T2T": surprise_mod.t2t_series(model.theta), "T2P": surprise_mod.t2p_series(model.theta)}


def _step_surprise(kdir: Path, model, records) -> dict[str, surprise_mod.SurpriseSeries]:
    out = _reading_series(model)
    doc_ids = [r.id for r in records[1:]]
    dates = [r.read_date.isoformat() for r in records[1:]]
    exports_mod.write_series(kdir, "series", out, doc_ids, dates, model.corpus_fingerprint)
    return out


def cmd_surprise(cfg: RunConfig) -> None:
    records, fingerprint = _load_stage_corpus(cfg)
    for kdir in _kdirs(cfg):
        _step_surprise(kdir, _load_model(cfg, kdir, records, fingerprint), records)


def _step_null(kdir: Path, model, perms, cfg: RunConfig) -> dict[str, null_mod.NullEnsemble]:
    out = null_mod.build_null(model.theta, perms)
    exports_mod.write_null(kdir, out, cfg.null)
    return out


def cmd_null(cfg: RunConfig) -> None:
    records, fingerprint = _load_stage_corpus(cfg)
    perms = null_mod.null_permutations(records, cfg.null)
    for kdir in _kdirs(cfg):
        _step_null(kdir, _load_model(cfg, kdir, records, fingerprint), perms, cfg)


def _step_puborder(kdir: Path, model, records, cfg: RunConfig) -> dict[str, surprise_mod.SurpriseSeries]:
    rep_order = null_mod.publication_order_ids(records)
    doc_ids = [records[i].id for i in rep_order[1:]]
    pub_years = [str(records[i].pub_year) for i in rep_order[1:]]
    out = null_mod.publication_order_series(model.theta, records, cfg.null)
    exports_mod.write_series(kdir, "puborder", out, doc_ids, pub_years, model.corpus_fingerprint)
    return out


def cmd_puborder(cfg: RunConfig) -> None:
    records, fingerprint = _load_stage_corpus(cfg)
    for kdir in _kdirs(cfg):
        _step_puborder(kdir, _load_model(cfg, kdir, records, fingerprint), records, cfg)


def _step_greedy(kdir: Path, model, records, cfg: RunConfig, matrix) -> dict[str, paths_mod.GreedyPath]:
    out = {
        "T2T": paths_mod.greedy_t2t_path(matrix, start_index=0),
        "T2P": paths_mod.greedy_t2p_path(model.theta, start_index=0),
    }
    exports_mod.write_greedy(kdir, out, [r.id for r in records])
    if cfg.export_matrix:
        exports_mod.write_matrix(kdir, matrix)
    return out


def cmd_greedy(cfg: RunConfig) -> None:
    records, fingerprint = _load_stage_corpus(cfg)
    for kdir in _kdirs(cfg):
        model = _load_model(cfg, kdir, records, fingerprint)
        _step_greedy(kdir, model, records, cfg, paths_mod.divergence_matrix(model.theta))


def cmd_ranks(cfg: RunConfig) -> None:
    records, fingerprint = _load_stage_corpus(cfg)
    perms = null_mod.null_permutations(records, cfg.null)
    for kdir in _kdirs(cfg):
        matrix = paths_mod.divergence_matrix(_load_model(cfg, kdir, records, fingerprint).theta)
        ranks = paths_mod.rank_distribution(matrix, np.arange(len(matrix)), perms)
        exports_mod.write_ranks(kdir, ranks)


def _series_dates(records) -> list:
    """The read date at each series position: the first D - 1 documents'."""
    return [r.read_date for r in records[: len(records) - 1]]


def _placements(records, cfg: RunConfig):
    """Log placement counts of the epoch search: they depend only on the
    series dates, so both kinds and every k share one count."""
    return epochs_mod.placement_log_counts(len(records) - 1, cfg.epochs, _series_dates(records))


def _step_epochs(
    kdir: Path, series: dict[str, surprise_mod.SurpriseSeries], records, cfg: RunConfig,
    nulls: dict[str, null_mod.NullEnsemble] | None, placements,
) -> dict[str, dict]:
    """Fit epoch models for both series kinds. The series handed to the
    segmenter is the raw surprise by default (epochs.input = raw) or the
    null-relative surprise (epochs.input = relative); per-epoch relative
    means are reported whenever null statistics are available (``nulls``,
    else the bundle's null exports). ``placements`` is `_placements` of
    the records. Returns the epochs export's payload of each kind."""
    dates = _series_dates(records)
    relative = cfg.epoch_input == "relative"
    out = {}
    for kind in surprise_mod.SERIES_VALUES:
        values = series[kind].values
        if nulls is not None:
            null_means = nulls[kind].position_mean
        else:
            null_means = exports_mod.load_null_means(kdir, kind, len(values), required=relative)
        fit_values = values - null_means if relative else values
        best, table, landscape = epochs_mod.select_n_with_landscape(
            fit_values, cfg.epochs, dates=dates, log_placements=placements
        )
        rel_means = None
        if null_means is not None:
            rel_means = [float(x) for x in surprise_mod.epoch_mean_relative(values, null_means, best.breaks)]
        out[kind] = exports_mod.write_epochs(
            kdir, kind, cfg.epoch_input, best, table, epochs_mod.break_to_date(best, records),
            rel_means, epochs_mod.evidence_prior(fit_values, cfg.epochs), landscape,
        )
    return out


def cmd_epochs(cfg: RunConfig) -> None:
    records, fingerprint = _load_stage_corpus(cfg)
    placements = _placements(records, cfg)
    for kdir in _kdirs(cfg):
        model = _load_model(cfg, kdir, records, fingerprint)
        _step_epochs(kdir, _reading_series(model), records, cfg, None, placements)


def cmd_run(cfg: RunConfig) -> None:
    """Whole pipeline: ingest (when needed), train per k, every analysis,
    one bundle directory per k with a summary and a file manifest."""
    stage_s = dict.fromkeys(_STAGES, 0.0)
    stage_rss = dict.fromkeys(_STAGES, 0.0)
    cfg.out.mkdir(parents=True, exist_ok=True)
    with _timed(stage_s, stage_rss, "ingest"):
        if not exports_mod.corpus_cached(cfg.out):
            if cfg.manifest is None:
                raise InputError("no corpus cache and no corpus.manifest configured")
            cmd_ingest(cfg)
        # The models train on the reloaded cache, the counts that ingest
        # fingerprinted; keeping the ingested objects instead raises peak RSS.
        records, _, matrix, fingerprint = exports_mod.load_cache(cfg.out)
    with _timed(stage_s, stage_rss, "train"):
        models = _train_models(cfg, matrix, fingerprint)
    with _timed(stage_s, stage_rss, "null"):
        perms = null_mod.null_permutations(records, cfg.null)

    placements = None
    for kdir, model in zip(_kdirs(cfg), models):
        with _timed(stage_s, stage_rss, "surprise"):
            series = _step_surprise(kdir, model, records)
        with _timed(stage_s, stage_rss, "null"):
            nulls = _step_null(kdir, model, perms, cfg)
        with _timed(stage_s, stage_rss, "puborder"):
            puborder = _step_puborder(kdir, model, records, cfg)
        with _timed(stage_s, stage_rss, "greedy"):
            matrix = paths_mod.divergence_matrix(model.theta)
            greedy = _step_greedy(kdir, model, records, cfg, matrix)
        with _timed(stage_s, stage_rss, "ranks"):
            # The count pass sets a long reading list's peak RSS, on top of
            # the live D x D matrix; give back the freed pages of the earlier
            # stages first, or they stay resident under that peak.
            _release_free_heap()
            counts = paths_mod.rank_counts(matrix, np.arange(len(matrix)), perms)
            # Free the D x D divergence matrix, and the pages of what is
            # freed by now, before the bands load scipy and before the epoch
            # fit: neither needs them, and the run's peak RSS falls in those.
            del matrix
            _release_free_heap()
            ranks = exports_mod.write_ranks(kdir, paths_mod.rank_bands(counts))
        with _timed(stage_s, stage_rss, "epochs"):
            # First needed here, after the matrix is freed: the count pass's
            # temporaries would otherwise stay resident under its peak.
            if placements is None:
                placements = _placements(records, cfg)
            epoch_info = _step_epochs(kdir, series, records, cfg, nulls, placements)

        exports_mod.write_summary(
            kdir, model.k, len(records), cfg.seed, series, nulls, greedy, puborder, epoch_info, ranks
        )
        exports_mod.write_manifest(kdir, model.k, cfg.export_matrix)
        _note(f"bundle complete: {kdir}")

    exports_mod.write_run_meta(
        cfg.out,
        {
            "k_list": cfg.k_list,
            "seed": cfg.seed,
            "stage_seconds": stage_s,
            "stage_peak_rss_mb": stage_rss,
            "peak_rss_mb": _peak_rss_mb(),
            "sweep_kernel": topics_mod.sweep_kernel(),
        },
    )
    # Give the freed heap's pages back before interpreter teardown, which
    # touches memory of its own: on top of pages still resident from the
    # run, it set the process's peak 0.5-0.7 MB above `peak_rss_mb`.
    _release_free_heap()


def _report_lines(summary: dict) -> list[str]:
    sur = summary["surprise"]
    lines = [f"bits per step (k={summary['k']}, {summary['documents']} documents)"]
    rows = [
        ("reading order", "observed_bits_per_step", "{:.4f}"),
        ("null mean", "null_mean_bits_per_step", "{:.4f}"),
        ("null std", "null_std_bits_per_step", "{:.4f}"),
        ("null 2.5%", "null_q025_bits_per_step", "{:.4f}"),
        ("null 97.5%", "null_q975_bits_per_step", "{:.4f}"),
        ("p-value (below null)", "p_value_below_null", "{:.6g}"),
        ("greedy shortest path", "greedy_bits_per_step", "{:.4f}"),
        ("publication order", "publication_order_bits_per_step", "{:.4f}"),
    ]
    lines.append(f"  {'measure':<24}{'T2T':>12}{'T2P':>12}")
    for label, key, fmt in rows:
        t2t = fmt.format(sur["T2T"][key])
        t2p = fmt.format(sur["T2P"][key])
        lines.append(f"  {label:<24}{t2t:>12}{t2p:>12}")

    for kind in surprise_mod.SERIES_VALUES:
        ep = summary["epochs"][kind]
        lines.append(f"\nepochs from {kind} surprise: n={ep['selected_n']} selected by Bayesian evidence")
        bounds = ep["breaks"] + [summary["documents"] - 1]
        for i, b in enumerate(ep["breaks"]):
            rel = ep["segment_relative_means"]
            rel_s = f"  relative {rel[i]:+.4f}" if rel is not None else ""
            lines.append(
                f"  epoch {i + 1}: positions [{b}, {bounds[i + 1]}) from {ep['break_dates'][i]}"
                f"  mean {ep['segment_means'][i]:.4f}  var {ep['segment_variances'][i]:.4f}{rel_s}"
            )
        lines.append("  n  params      loglik         AIC    log evidence  rel.evidence")
        for row in ep["model_table"]:
            lines.append(
                f"  {row['n']}  {row['n_params']:>6}  {row['log_likelihood']:>10.3f}"
                f"  {row['aic']:>10.3f}  {row['log_evidence']:>12.3f}"
                f"  {row['relative_likelihood']:>12.6g}"
            )
    return lines


def cmd_report(bundle: Path) -> None:
    bundle = Path(bundle)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        raise InputError(f"not a result bundle (no manifest.json): {bundle}")
    files = exports_mod.load_bundle_json(manifest_path).get("files")
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise InputError(f"malformed bundle file {manifest_path}: no list of file names")
    for name in files:
        if not (bundle / name).exists():
            raise InputError(f"bundle is missing an artifact that {manifest_path} declares: {name}")
    exports_mod.check_bundle_fingerprints(bundle, files)
    summary_path = bundle / "summary.json"
    summary = exports_mod.load_bundle_json(summary_path)
    try:
        lines = _report_lines(summary)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"malformed bundle file {summary_path}: bad or missing entry {exc}") from exc
    print("\n".join(lines))


# --------------------------------------------------------------------------
# argument handling

# The pipeline stages, in order; `run` records each one's wall seconds and
# peak RSS in run_meta.json.
_STAGES = {
    "ingest": cmd_ingest, "train": cmd_train, "surprise": cmd_surprise, "null": cmd_null,
    "puborder": cmd_puborder, "greedy": cmd_greedy, "ranks": cmd_ranks, "epochs": cmd_epochs,
}
# Every subcommand, in `readpath --help` order.
_COMMANDS = {**_STAGES, "run": cmd_run, "report": cmd_report}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readpath",
        description="Exploration/exploitation analysis of an ordered reading corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "report":
            p.add_argument("bundle", type=Path, help="result bundle directory (out/k<NN>)")
            continue
        p.add_argument("--config", type=Path, default=None, help="INI configuration file")
        for flag, dotted in _SHORTHAND.items():
            p.add_argument(f"--{flag}", default=None, help=f"shorthand for --{dotted}")
    return parser


def _split_overrides(rest: list[str]) -> list[tuple[str, str]]:
    """Interpret leftover args as dotted-name overrides: --section.key value
    or --section.key=value."""
    out = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--") or "." not in tok:
            raise InputError(f"unrecognized argument: {tok}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(rest):
                raise InputError(f"override {tok} needs a value")
            key, value = body, rest[i + 1]
            i += 2
        out.append((key, value))
    return out


def _config_from_args(args, overrides: list[tuple[str, str]]) -> RunConfig:
    """The config file with the command line's overrides applied in order:
    the common flags first, then the dotted names."""
    common = [(dotted, getattr(args, flag)) for flag, dotted in _SHORTHAND.items()]
    common = [(dotted, value) for dotted, value in common if value is not None]
    return load_run_config(args.config, common + overrides)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and bad usage
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "report":
            if rest:
                raise InputError(f"unrecognized argument: {rest[0]}")
            cmd_report(args.bundle)
            return 0
        _COMMANDS[args.command](_config_from_args(args, _split_overrides(rest)))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
