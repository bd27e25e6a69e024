"""Seeded corruption fuzz: every damaged artifact is an input error, never a
traceback.

The demo bundle is built once. Each artifact then gets a fixed list of 23
mutations: 5 truncations, 12 single-byte overwrites and 6 short cuts (1 to
8 bytes deleted from inside the file). Every mutation runs, in process
through `cli.main`, each command that reads the artifact, on a fresh copy
of the bundle, with ``--out`` inside the copy. The exit must be 0 or 1, and
an exit-1 message must name the damaged file; a config whose manifest path
was damaged may instead name the manifest path it now gives.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import shutil
from pathlib import Path

import numpy as np
import pytest

from readpath.cli import main

from conftest import build_demo

SEED = 20261019
TRUNCATIONS, OVERWRITES, SHORT_CUTS = 5, 12, 6

STAGES = ("train", "surprise", "null", "puborder", "greedy", "ranks", "epochs")

# artifact (relative to the bundle root) -> the commands that read it. An
# artifact's mutations are seeded by its position here, so a new artifact
# goes last and changes no other artifact's list.
READERS = {
    "manifest.csv": ("ingest",),
    "out/corpus.json": STAGES,
    "out/k2/manifest.json": ("report",),
    "out/k2/model.bin": ("report", *STAGES[1:]),
    "out/k2/model.meta.json": ("report", *STAGES[1:]),
    "out/k2/null_t2t.csv": ("epochs",),
    "out/k2/series_t2t.meta.json": ("report",),
    "out/k2/summary.json": ("report",),
    "run.cfg": ("ingest", "surprise", "epochs"),
    "texts/v003.txt": ("ingest",),
    "out/corpus.meta.json": ("report", *STAGES),
    "out/k2/null.meta.json": ("report", "epochs"),
    "out/k2/summary.meta.json": ("report",),
}


def mutations(data: bytes, seed: int) -> list[tuple[str, bytes]]:
    """The fixed mutation list of one artifact: (label, mutated bytes)."""
    rng = np.random.default_rng(seed)
    n = len(data)
    out = []
    for _ in range(TRUNCATIONS):
        keep = int(rng.integers(0, n))
        out.append((f"truncate to {keep}", data[:keep]))
    for _ in range(OVERWRITES):
        at = int(rng.integers(0, n))
        byte = (data[at] + int(rng.integers(1, 256))) % 256  # never the byte it replaces
        out.append((f"byte {at} = {byte:#04x}", data[:at] + bytes([byte]) + data[at + 1:]))
    for _ in range(SHORT_CUTS):
        width = int(rng.integers(1, 9))
        at = int(rng.integers(1, n - width))
        out.append((f"cut {width} at {at}", data[:at] + data[at + width:]))
    return out


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("pristine")
    cfg = build_demo(root)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(cfg)]) == 0
    return root


def _names(artifact: str, damaged: bytes) -> list[str]:
    """What an exit-1 message may name for a damaged artifact."""
    names = [Path(artifact).name]
    if artifact == "run.cfg":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(damaged.decode("utf-8"))
            names.append(parser.get("corpus", "manifest"))
        except (UnicodeDecodeError, configparser.Error):
            pass
    return names


def _run(root: Path, command: str) -> tuple[int, str]:
    if command == "report":
        argv = ["report", str(root / "out" / "k2")]
    else:
        argv = [command, "--config", str(root / "run.cfg"), "--out", str(root / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("artifact", sorted(READERS))
def test_corrupted_artifact_is_exit_0_or_1_naming_it(pristine, tmp_path, artifact):
    data = (pristine / artifact).read_bytes()
    seed = SEED + list(READERS).index(artifact)
    failures = []
    for i, (label, damaged) in enumerate(mutations(data, seed)):
        for command in READERS[artifact]:
            root = tmp_path / f"{i}-{command}"
            shutil.copytree(pristine, root)
            (root / artifact).write_bytes(damaged)
            code, err = _run(root, command)
            if code not in (0, 1) or (code == 1 and not any(n in err for n in _names(artifact, damaged))):
                failures.append(f"{label} / {command}: exit {code}: {err.strip()[-300:]}")
            shutil.rmtree(root)
    assert not failures, "\n".join(failures)


def test_mutation_list_is_fixed():
    data = bytes(range(256)) * 4
    first, again = mutations(data, SEED), mutations(data, SEED)
    assert [m for _, m in first] == [m for _, m in again]
    assert len(first) == TRUNCATIONS + OVERWRITES + SHORT_CUTS
    assert all(m != data for _, m in first)
