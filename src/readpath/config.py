"""Run configuration: an INI file whose sections mirror the module names,
plus dotted-name command-line overrides (e.g. ``--topics.k 40``).

Each stage setting and its default live in that stage's config dataclass
(`TokenizerConfig`, `TopicModelParams`, `NullConfig`, `EpochSearchConfig`),
which also checks its ranges. `RunConfig` holds one built instance of each,
beside the settings that no stage owns. `_SCHEMA` maps each key to the
field it sets; `load_run_config` collects the file's values, then the
overrides', and builds the frozen config from them.
"""

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

# The config dataclass of each stage, by the owner name `_SCHEMA` uses.
_STAGE_CONFIGS = {
    "corpus": TokenizerConfig, "topics": TopicModelParams, "null": NullConfig, "epochs": EpochSearchConfig,
}


@dataclass(frozen=True)
class RunConfig:
    corpus: TokenizerConfig
    topics: TopicModelParams  # k is k_list[0]; each chain takes its own k
    null: NullConfig
    epochs: EpochSearchConfig
    manifest: Path | None = None
    k_list: list[int] = field(default_factory=lambda: [TopicModelParams.k])
    epoch_input: str = "raw"
    out: Path = Path("out")
    threads: int = 1
    export_matrix: bool = False
    # Where the settings came from, for messages; no key sets these.
    source: Path | None = None
    k_given: bool = False

    def __post_init__(self):
        if self.epoch_input not in EPOCH_INPUTS:
            raise InputError(f"epochs.input must be one of {EPOCH_INPUTS}")
        if not self.k_list:
            raise InputError("topics.k or topics.k_list must name at least one k")
        repeated = sorted({k for k in self.k_list if self.k_list.count(k) > 1})
        if repeated:
            raise InputError(f"topics.k_list repeats k={repeated[0]}; each k names one bundle")
        if self.threads < 1:
            raise InputError("run.threads must be >= 1")
        for k in self.k_list:  # each chain's parameters; TopicModelParams rejects k < 2
            dataclasses.replace(self.topics, k=k)

    @property
    def seed(self) -> int:
        """``run.seed``, which seeds both the topic chains and the null."""
        return self.topics.seed

    def k_note(self) -> str:
        """Where ``k_list`` came from when no setting named k (not ``k_given``)."""
        default = f"k={self.k_list[0]} is the default topics.k_list"
        if self.source is None:
            return f"{default}: no config file is given and no flag sets topics.k or topics.k_list"
        return f"{default}: neither config {self.source} nor a flag sets topics.k or topics.k_list"


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


# (section, key) -> (parser, the "owner.field" each value sets). The owner is
# a stage of `_STAGE_CONFIGS` or "run", RunConfig itself. A `Path` value
# resolves against the directory of the layer that sets it.
_SCHEMA = {
    ("corpus", "manifest"): (Path, "run.manifest"),
    ("corpus", "stopwords"): (Path, "corpus.stopword_path"),
    ("corpus", "min_count"): (int, "corpus.min_count"),
    ("corpus", "max_count"): (int, "corpus.max_count"),
    ("topics", "k"): (lambda s: [int(s)], "run.k_list"),
    ("topics", "k_list"): (_parse_int_list, "run.k_list"),
    ("topics", "alpha"): (_parse_optional_float, "topics.alpha"),
    ("topics", "beta"): (float, "topics.beta"),
    ("topics", "iterations"): (int, "topics.iterations"),
    ("topics", "average_last"): (int, "topics.average_last"),
    ("null", "samples"): (int, "null.samples"),
    ("null", "within_year_exact_threshold"): (int, "null.within_year_exact_threshold"),
    ("null", "within_year_samples"): (int, "null.within_year_samples"),
    ("epochs", "n_max"): (int, "epochs.n_max"),
    ("epochs", "min_length"): (_parse_optional_int, "epochs.min_length"),
    ("epochs", "min_years"): (_parse_optional_float, "epochs.min_years"),
    ("epochs", "input"): (str, "run.epoch_input"),
    ("run", "out"): (Path, "run.out"),
    ("run", "seed"): (int, "topics.seed", "null.seed"),
    ("run", "threads"): (int, "run.threads"),
    ("run", "export_matrix"): (_parse_bool, "run.export_matrix"),
}


def _check_one_k_setting(dotted_keys, where: str) -> None:
    """One layer sets k by topics.k or by topics.k_list, not both."""
    if {"topics.k", "topics.k_list"} <= set(dotted_keys):
        raise InputError(f"{where} sets both topics.k and topics.k_list; pick one")


def _assign(values: dict[str, object], section: str, key: str, raw: str, base: Path) -> None:
    """Parse ``raw`` as ``section.key`` into ``values``, {"owner.field": value}."""
    try:
        parser, *targets = _SCHEMA[(section, key)]
    except KeyError:
        raise InputError(f"unknown configuration key {section}.{key}") from None
    try:
        value = parser(raw)
    except ValueError as exc:
        raise InputError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
    if parser is Path:
        value = base / value
    for target in targets:
        values[target] = value


def _build(values: dict[str, object], source: Path | None) -> RunConfig:
    """The config of ``values``; each dataclass supplies the defaults of the
    fields that ``values`` leaves unset. A value that one rejects is an
    InputError."""
    kwargs = {owner: {} for owner in (*_STAGE_CONFIGS, "run")}
    for target, value in values.items():
        owner, name = target.split(".")
        kwargs[owner][name] = value
    run = kwargs.pop("run")
    if run.get("k_list"):
        kwargs["topics"]["k"] = run["k_list"][0]
    try:
        stages = {owner: cls(**kwargs[owner]) for owner, cls in _STAGE_CONFIGS.items()}
        return RunConfig(**stages, **run, source=source, k_given="run.k_list" in values)
    except ValueError as exc:
        raise InputError(f"bad configuration: {exc}") from exc


def load_run_config(path: Path | str | None, overrides: list[tuple[str, str]] = ()) -> RunConfig:
    """The INI config at ``path`` (None: no file, all defaults) with the
    ``(section.key, value)`` overrides applied in order. Relative paths
    resolve against the file's directory in the file and against the working
    directory in an override. An error in the file, its values included, is
    an InputError naming it."""
    values: dict[str, object] = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise InputError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read_string(read_text(path), source=str(path))
        except configparser.Error as exc:
            raise InputError(f"cannot parse config {path}: {exc}") from exc
        try:
            _check_one_k_setting((f"{s}.{k}" for s in parser.sections() for k in parser[s]), "the file")
            for section in parser.sections():
                for key, raw in parser.items(section):
                    _assign(values, section, key, raw, path.parent.resolve())
            _build(values, path)
        except InputError as exc:
            raise InputError(f"config {path}: {exc}") from exc
    _check_one_k_setting((dotted for dotted, _ in overrides), "the command line")
    for dotted, raw in overrides:
        section, _, key = dotted.partition(".")
        _assign(values, section, key, raw, Path.cwd())
    return _build(values, path)
