"""The library's public surface: README's example runs, its configuration
block loads to the stage defaults, every exported name resolves, no
module imports a name it never uses, and the benchmark scripts run."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import readpath
from readpath import config
from readpath.corpus import TokenizerConfig
from readpath.epochs import EpochSearchConfig
from readpath.nullmodel import NullConfig
from readpath.topics import TopicModelParams

from conftest import make_records

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name that ``path`` imports and never
    reads (``__future__`` imports aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_readme_example_runs_exports_resolve_and_no_unused_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    records = make_records(pub_years=[1830 + i % 10 for i in range(40)])
    namespace = {"records": records}
    exec(compile(block, "README.md (Library use)", "exec"), namespace)
    assert set(namespace["nulls"]) == {"T2T", "T2P"}

    missing = [name for name in readpath.__all__ if not hasattr(readpath, name)]
    assert missing == []

    modules = sorted((ROOT / "src" / "readpath").glob("*.py"))
    unused = [u for m in modules if m.name != "__init__.py" for u in _unused_imports(m)]
    assert unused == []


def test_readme_configuration_loads_to_the_stage_defaults_and_names_every_key(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Configuration\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "run.cfg"
    path.write_text(block, encoding="utf-8")
    cfg = config.load_run_config(path)
    assert (cfg.corpus, cfg.topics, cfg.null, cfg.epochs) == (
        TokenizerConfig(), TopicModelParams(), NullConfig(), EpochSearchConfig()
    )

    # Every key, set or shown as a commented-out alternative.
    named, section = set(), None
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = header[1]
        elif key := re.match(r";?\s*(\w+)\s*=", line):
            named.add((section, key[1]))
    assert named == set(config._SCHEMA)


def test_bench_scripts_run_and_print_a_json_line_last():
    """Each script runs on a tiny input as a child process, so a script that
    uses a name the library no longer has fails here."""
    pythonpath = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}

    def last_json(script: str, *args: str) -> dict:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    sweep = last_json("bench_sweep.py", "--zipf", "6,200,40", "--k-list", "2,3", "--sweeps", "2",
                      "--last-sweep-stats")
    assert sweep["tokens"] == 1200 and 0 < sweep["repeat_fraction"] < 1
    assert set(sweep["last_sweep_prev_eq_old"]) == {"2", "3"}
    null = last_json("bench_null.py", "--docs", "40", "--k", "4", "--samples", "8", "--repeats", "1")
    assert null["docs"] == 40 and len(null["outputs_sha256"]) == 64
