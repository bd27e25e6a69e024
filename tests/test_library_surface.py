"""The library's public surface: README's example runs, its configuration
block loads to the stage defaults, every exported name resolves, and no
module imports a name it never uses."""

import ast
import re
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
