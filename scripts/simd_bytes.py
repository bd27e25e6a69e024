#!/usr/bin/env python3
"""List the exports whose bytes depend on numpy's AVX512 code paths.

Runs ``readpath run --config CFG`` twice, each in a child process with an
output directory of its own: once as is, and once with numpy's AVX512
paths off through ``NPY_DISABLE_CPU_FEATURES`` (the X86_V4 and AVX512
entries of the SIMD extensions numpy found on this CPU). Then prints one
JSON object: the features turned off, the number of exports compared
(every file of the output directory but the ``*meta.json`` sidecars, as
the byte contract counts them) and the exports whose sha256 differ. Any
further argument goes to both runs, as a dotted override. The children run
readpath from this checkout's ``src``; this script uses the standard
library only.

Usage:
    python3 scripts/simd_bytes.py --config demo/run.cfg
    python3 scripts/simd_bytes.py --config long/run.cfg --topics.k_list 20,40
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DISABLE = "NPY_DISABLE_CPU_FEATURES"
FOUND_SIMD = "import json, numpy; print(json.dumps(numpy.show_config(mode='dicts')['SIMD Extensions']['found']))"


def child_env(disabled: list[str]) -> dict[str, str]:
    """This process's environment with ``src`` first on PYTHONPATH and
    ``disabled`` as numpy's disabled CPU features (none when empty)."""
    env = {key: value for key, value in os.environ.items() if key != DISABLE}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if disabled:
        env[DISABLE] = " ".join(disabled)
    return env


def avx512_features() -> list[str]:
    """The X86_V4 and AVX512 entries of the SIMD extensions numpy found."""
    found = subprocess.run(
        [sys.executable, "-c", FOUND_SIMD], env=child_env([]), check=True, capture_output=True, text=True
    ).stdout
    return [name for name in json.loads(found) if name == "X86_V4" or name.startswith("AVX512")]


def run_digests(argv: list[str], out: Path, disabled: list[str]) -> dict[str, str]:
    """The sha256 of each export of ``readpath run <argv> --out <out>``, by
    its path under ``out``; exits 1 with the child's stderr if it fails."""
    cmd = [sys.executable, "-m", "readpath.cli", "run", *argv, "--out", str(out)]
    proc = subprocess.run(cmd, env=child_env(disabled), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"readpath run exited {proc.returncode} with {DISABLE}={' '.join(disabled)!r}:\n{proc.stderr}")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith("meta.json")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", type=Path, required=True, help="the run's INI configuration file")
    args, overrides = parser.parse_known_args(argv)
    disabled = avx512_features()
    run_argv = ["--config", str(args.config.resolve()), *overrides]
    with tempfile.TemporaryDirectory(prefix="simd_bytes_") as work:
        default = run_digests(run_argv, Path(work) / "default", [])
        without = run_digests(run_argv, Path(work) / "without_avx512", disabled)
    print(json.dumps({
        "config": str(args.config),
        DISABLE: " ".join(disabled),
        "exports": len(default),
        "differ": sorted(name for name in default.keys() | without.keys() if default.get(name) != without.get(name)),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
