"""Shared builders for toy corpora and record lists."""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from readpath import topics
from readpath.corpus import VolumeRecord


def make_records(pub_years, read_years=None, read_dates=None) -> list[VolumeRecord]:
    """Record list with dummy text paths, in reading order."""
    n = len(pub_years)
    if read_dates is None:
        if read_years is None:
            read_years = [max(pub_years)] * n
        read_dates = [date(y, 6, 1) + timedelta(days=i) for i, y in enumerate(read_years)]
    return [
        VolumeRecord(
            id=f"v{i:03d}",
            title=f"Volume {i}",
            read_date=read_dates[i],
            read_seq=i,
            pub_year=pub_years[i],
            text_path=Path(f"v{i:03d}.txt"),
        )
        for i in range(n)
    ]


def restamp(path: Path) -> None:
    """Record ``path``'s current sha256 in its digest sidecar (``corpus.json``
    in ``corpus.meta.json``, ``model.bin`` in ``model.meta.json``), so that a
    test that damages the artifact reaches the check behind the digest."""
    meta = path.with_name(f"{path.stem}.meta.json")
    payload = json.loads(meta.read_text(encoding="utf-8"))
    payload[f"{path.stem}_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    meta.write_text(json.dumps(payload), encoding="utf-8")


def write_manifest(tmp_path: Path, rows, texts: dict[str, str]) -> Path:
    """rows: (id, title, read_date, pub_year, text_file); texts: file -> body."""
    texts_dir = tmp_path / "texts"
    texts_dir.mkdir(exist_ok=True)
    for name, body in texts.items():
        (texts_dir / name).write_text(body, encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "title", "read_date", "pub_year", "text_path"])
        for row in rows:
            rid, title, rd, py, tf = row
            w.writerow([rid, title, rd, py, f"texts/{tf}"])
    return manifest


def random_simplex(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return rng.dirichlet(np.ones(k), size=n)


TOPIC_A = [f"a{c1}{c2}" for c1 in "abcde" for c2 in "abcde"]
TOPIC_B = [f"b{c1}{c2}" for c1 in "abcde" for c2 in "abcde"]


def build_demo(tmp_path: Path, docs: int = 12, tokens: int = 150, seed: int = 3) -> Path:
    """Tiny two-topic corpus plus a config file; returns the config path."""
    rng = np.random.default_rng(seed)
    rows, texts = [], {}
    for i in range(docs):
        vid = f"v{i:03d}"
        frac = i / max(docs - 1, 1)
        pick_b = rng.random(tokens) < (0.15 + 0.7 * frac)
        words = [(TOPIC_B if b else TOPIC_A)[rng.integers(0, 25)] for b in pick_b]
        texts[f"{vid}.txt"] = " ".join(words)
        year = 1840 + i
        rows.append(
            (vid, f"Volume {i}", f"{year}-06-0{1 + i % 9}", year - int(rng.integers(0, 3)), f"{vid}.txt")
        )
    write_manifest(tmp_path, rows, texts)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "[corpus]",
                "manifest = manifest.csv",
                "min_count = 1",
                "max_count = 1000000",
                "[topics]",
                "k = 2",
                "alpha = 1.0",
                "iterations = 60",
                "[null]",
                "samples = 50",
                "[epochs]",
                "n_max = 2",
                "min_length = 3",
                "[run]",
                "out = out",
                "seed = 5",
            ]
        ),
        encoding="utf-8",
    )
    return cfg


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """A private, empty cache for the compiled sweep. The loaded kernel is
    forgotten before and after the test, so what the test builds or hides
    is seen by no other test."""
    cache = tmp_path / "kernel-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    topics._load_kernel.cache_clear()
    yield cache
    topics._load_kernel.cache_clear()


def hide_cc(tmp_path: Path, monkeypatch) -> None:
    """Make `cc` unfindable: PATH is one empty directory."""
    empty = tmp_path / "empty-path"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
