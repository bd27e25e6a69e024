"""Run configuration: INI file with sections mirroring the module names,
plus dotted-name command-line overrides (e.g. ``--topics.k 40``)."""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import TokenizerConfig
from .epochs import EpochSearchConfig
from .errors import InputError, read_text
from .nullmodel import NullConfig
from .topics import TopicModelParams

EPOCH_INPUTS = ("raw", "relative")


@dataclass
class RunConfig:
    # [corpus]
    manifest: Path | None = None
    stopwords: Path | None = None
    min_count: int = 30
    max_count: int = 15000
    # [topics]
    k_list: list[int] = field(default_factory=lambda: [80])
    alpha: float | None = None
    beta: float = 0.01
    iterations: int = 1000
    average_last: int = 1
    # [null]
    samples: int = 1000
    within_year_exact_threshold: int = 6
    within_year_samples: int = 100
    # [epochs]
    epoch_n_max: int = 3
    epoch_min_length: int | None = None
    epoch_min_years: float | None = 5.0
    epoch_input: str = "raw"
    # [run]
    out: Path = Path("out")
    seed: int = 0
    threads: int = 1
    export_matrix: bool = False

    def tokenizer_config(self) -> TokenizerConfig:
        return TokenizerConfig(
            min_count=self.min_count, max_count=self.max_count, stopword_path=self.stopwords
        )

    def topic_params(self) -> TopicModelParams:
        return TopicModelParams(
            k=self.k_list[0],
            alpha=self.alpha,
            beta=self.beta,
            iterations=self.iterations,
            seed=self.seed,
            average_last=self.average_last,
        )

    def null_config(self) -> NullConfig:
        return NullConfig(
            samples=self.samples,
            seed=self.seed,
            within_year_exact_threshold=self.within_year_exact_threshold,
            within_year_samples=self.within_year_samples,
        )

    def epoch_config(self) -> EpochSearchConfig:
        return EpochSearchConfig(
            n_max=self.epoch_n_max,
            min_length=self.epoch_min_length,
            min_years=None if self.epoch_min_length is not None else self.epoch_min_years,
        )

    def validate(self) -> None:
        if self.epoch_input not in EPOCH_INPUTS:
            raise InputError(f"epochs.input must be one of {EPOCH_INPUTS}")
        if not self.k_list:
            raise InputError("topics.k or topics.k_list must name at least one k")
        repeated = sorted({k for k in self.k_list if self.k_list.count(k) > 1})
        if repeated:
            raise InputError(f"topics.k_list repeats k={repeated[0]}; each k names one bundle")
        if self.threads < 1:
            raise InputError("run.threads must be >= 1")
        if self.seed < 0:
            raise InputError("run.seed must be nonnegative")
        # Each stage's config checks its own ranges; a value it rejects is bad input.
        try:
            self.tokenizer_config()
            self.null_config()
            self.epoch_config()
            for k in self.k_list:
                dataclasses.replace(self.topic_params(), k=k)
        except ValueError as exc:
            raise InputError(f"bad configuration: {exc}") from exc


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> list[int]:
    return [int(p) for p in s.replace(",", " ").split()]


def _parse_optional_int(s: str) -> int | None:
    return None if s.strip().lower() in ("", "none") else int(s)


def _parse_optional_float(s: str) -> float | None:
    return None if s.strip().lower() in ("", "none") else float(s)


# (section, key) -> (RunConfig attribute, parser, resolve-as-path)
_SCHEMA = {
    ("corpus", "manifest"): ("manifest", str, True),
    ("corpus", "stopwords"): ("stopwords", str, True),
    ("corpus", "min_count"): ("min_count", int, False),
    ("corpus", "max_count"): ("max_count", int, False),
    ("topics", "k"): ("k_list", lambda s: [int(s)], False),
    ("topics", "k_list"): ("k_list", _parse_int_list, False),
    ("topics", "alpha"): ("alpha", _parse_optional_float, False),
    ("topics", "beta"): ("beta", float, False),
    ("topics", "iterations"): ("iterations", int, False),
    ("topics", "average_last"): ("average_last", int, False),
    ("null", "samples"): ("samples", int, False),
    ("null", "within_year_exact_threshold"): ("within_year_exact_threshold", int, False),
    ("null", "within_year_samples"): ("within_year_samples", int, False),
    ("epochs", "n_max"): ("epoch_n_max", int, False),
    ("epochs", "min_length"): ("epoch_min_length", _parse_optional_int, False),
    ("epochs", "min_years"): ("epoch_min_years", _parse_optional_float, False),
    ("epochs", "input"): ("epoch_input", str, False),
    ("run", "out"): ("out", str, True),
    ("run", "seed"): ("seed", int, False),
    ("run", "threads"): ("threads", int, False),
    ("run", "export_matrix"): ("export_matrix", _parse_bool, False),
}


def _assign(cfg: RunConfig, section: str, key: str, raw: str, base: Path) -> None:
    try:
        attr, parser, is_path = _SCHEMA[(section, key)]
    except KeyError:
        raise InputError(f"unknown configuration key {section}.{key}") from None
    try:
        value = parser(raw)
    except ValueError as exc:
        raise InputError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
    if is_path and value is not None:
        p = Path(value)
        value = p if p.is_absolute() else (base / p)
    setattr(cfg, attr, value)


def load_run_config(path: Path | str | None) -> RunConfig:
    """Parse the INI config; relative paths resolve against the file's
    directory. A missing path yields pure defaults. An error in the file,
    its values included, is an InputError naming it."""
    cfg = RunConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(read_text(path), source=str(path))
    except configparser.Error as exc:
        raise InputError(f"cannot parse config {path}: {exc}") from exc
    try:
        if parser.has_option("topics", "k") and parser.has_option("topics", "k_list"):
            raise InputError("sets both topics.k and topics.k_list; pick one")
        for section in parser.sections():
            for key, raw in parser.items(section):
                _assign(cfg, section, key, raw, path.parent.resolve())
        cfg.validate()
    except InputError as exc:
        raise InputError(f"config {path}: {exc}") from exc
    return cfg


def apply_override(cfg: RunConfig, dotted: str, raw: str) -> None:
    """Apply a ``section.key=value`` override; paths resolve against cwd."""
    if "." not in dotted:
        raise InputError(f"override must look like section.key, got {dotted!r}")
    section, key = dotted.split(".", 1)
    _assign(cfg, section, key, raw, Path.cwd())
