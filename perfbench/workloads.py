"""Workload definitions shared by the orchestrator, the generator and the
output checks. Standard library only: the orchestrator imports this and must
stay small, because a child process inherits its parent's peak RSS.

Each workload fixes the shape of the synthetic corpus (the generator draws
the actual corpus from the benchmark's --seed), the run configuration the
program receives, and the CLI processes that make up one pipeline run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# One pipeline stage per process, in the order a user runs them by hand.
STAGES = ("ingest", "train", "surprise", "null", "puborder", "greedy", "ranks", "epochs")

# Export file -> the stage that writes it (for blaming a failed check on a process).
EXPORT_STAGE = {
    "corpus.json": "ingest",
    "model.bin": "train",
    "series": "surprise",
    "null": "null",
    "puborder": "puborder",
    "greedy": "greedy",
    "ranks": "ranks",
    "epochs": "epochs",
    "landscape": "epochs",
    "manifest": "run",
}


@dataclass(frozen=True)
class Workload:
    tag: int  # mixed into the generator seed so workloads never share a corpus
    docs: int
    tokens_per_doc: int  # mean; each volume draws 0.5x to 1.5x of it
    planted_topics: int
    words_per_topic: int
    read_start: int  # first reading year
    read_years: int  # reading span
    max_lag: int  # publication lag in years, at most this
    lag_mean: float | None  # None: lag uniform on [0, max_lag]; else exponential
    max_pub_group: int | None  # cap on volumes sharing a publication year
    config: dict = field(default_factory=dict)  # INI sections -> key -> value
    commands: tuple[str, ...] = ("run",)
    cli_flags: tuple[str, ...] = ()
    recovery_mae: float = 0.05  # bound on planted-mixture recovery error

    @property
    def k_list(self) -> list[int]:
        topics = self.config["topics"]
        raw = topics.get("k_list", topics.get("k"))
        return [int(x) for x in str(raw).split(",")]


WORKLOADS = {
    # A paper-like fit: few volumes per year, long texts, k=80. Training is
    # most of the run; publication-year groups stay at most 5 volumes, so
    # `puborder` takes its exact within-year enumeration.
    "paper-shape": Workload(
        tag=1,
        docs=400,
        tokens_per_doc=1000,
        planted_topics=20,
        words_per_topic=100,
        read_start=1760,
        read_years=100,
        max_lag=3,
        lag_mean=None,
        max_pub_group=5,
        config={
            "corpus": {"manifest": "manifest.csv", "min_count": 1, "max_count": 10**9},
            "topics": {"k": 80, "iterations": 40},
            "null": {"samples": 200},
            "epochs": {"n_max": 3, "min_length": 20},
        },
        recovery_mae=0.02,
    ),
    # The notebooks' shape: many short volumes per reading year, published
    # up to decades earlier. Analyses (ranks, null, epochs) dominate;
    # `puborder` takes its Monte Carlo branch and epochs the calendar
    # minimum length.
    "long-list": Workload(
        tag=2,
        docs=1600,
        tokens_per_doc=100,
        planted_topics=20,
        words_per_topic=50,
        read_start=1836,
        read_years=25,
        max_lag=40,
        lag_mean=8.0,
        max_pub_group=None,
        config={
            "corpus": {"manifest": "manifest.csv", "min_count": 1, "max_count": 10**9},
            "topics": {"k": 20, "iterations": 20},
            "null": {"samples": 200},
            "epochs": {"n_max": 3, "min_years": 5},
        },
        recovery_mae=0.08,
    ),
    # The paper's k sweep run stage by stage, one process per stage, with
    # the chains trained on two threads. Every stage reloads the artifacts
    # of the one before it and pays the package import.
    "k-sweep-staged": Workload(
        tag=3,
        docs=200,
        tokens_per_doc=1000,
        planted_topics=20,
        words_per_topic=100,
        read_start=1820,
        read_years=30,
        max_lag=10,
        lag_mean=None,
        max_pub_group=None,
        config={
            "corpus": {"manifest": "manifest.csv", "min_count": 1, "max_count": 10**9},
            "topics": {"k_list": "20,40,60,80", "iterations": 20},
            "null": {"samples": 200},
            "epochs": {"n_max": 3, "min_length": 10},
        },
        commands=STAGES,
        cli_flags=("--threads", "2"),
        recovery_mae=0.04,
    ),
}


def config_text(w: Workload, seed: int) -> str:
    """INI text of the run configuration; the program's seed is the
    benchmark's seed."""
    sections = {**w.config, "run": {"seed": seed}}
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
        lines.append("")
    return "\n".join(lines)
