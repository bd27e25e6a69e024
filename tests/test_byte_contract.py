"""The byte contract as a check: the demo run's exports keep their sha256.

The demo corpus (``scripts/make_demo_corpus.py`` defaults) runs with
``--topics.k_list 3,4 --run.export_matrix true``, once with
``epochs.input`` raw and once relative. The sha256 of every export (every
file except ``*meta.json``) and of `report`'s stdout for each bundle must
equal the ones in ``export_digests.json``. A change that moves the bytes
on purpose regenerates that file, and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_byte_contract.py --update
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from readpath.cli import main

DIGESTS = Path(__file__).with_name("export_digests.json")
DEMO_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_corpus.py"
EPOCH_INPUTS = ("raw", "relative")


def _quiet(argv: list[str]) -> str:
    """Run ``argv`` through `cli.main`, which must exit 0; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def demo_digests(root: Path) -> dict[str, str]:
    """sha256 of each export and report of the demo runs under ``root``,
    keyed ``<epochs.input>/<path in the output directory>``."""
    subprocess.run([sys.executable, str(DEMO_SCRIPT), str(root / "demo")], check=True, capture_output=True)
    cfg = root / "demo" / "run.cfg"
    digests = {}
    for epoch_input in EPOCH_INPUTS:
        out = root / epoch_input
        _quiet(["run", "--config", str(cfg), "--topics.k_list", "3,4", "--run.export_matrix", "true",
                "--epochs.input", epoch_input, "--out", str(out)])
        for path in sorted(out.rglob("*")):
            if path.is_file() and not path.name.endswith("meta.json"):
                digests[f"{epoch_input}/{path.relative_to(out).as_posix()}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        for kdir in sorted(p for p in out.iterdir() if p.is_dir()):
            report = _quiet(["report", str(kdir)]).encode("utf-8")
            digests[f"{epoch_input}/{kdir.name}/report.stdout"] = hashlib.sha256(report).hexdigest()
    return digests


def numeric_stack() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": importlib.metadata.version("scipy")}


def test_demo_exports_keep_their_bytes(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected, got = recorded["sha256"], demo_digests(tmp_path)
    differ = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    now = numeric_stack()
    assert not differ, (
        f"{len(differ)} of {len(expected)} demo exports changed their bytes: {', '.join(differ)}. "
        f"The digests were recorded with numpy {recorded['numpy']} and scipy {recorded['scipy']}; "
        f"this is numpy {now['numpy']} and scipy {now['scipy']}. A numpy or scipy upgrade may move "
        f"them; a change that moves them on purpose regenerates them (python {Path(__file__).name} --update) and says why in CHANGES.md."
    )


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--update"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        payload = {**numeric_stack(), "sha256": demo_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['sha256'])} digests to {DIGESTS}")
