#!/usr/bin/env python3
"""Benchmark of the readpath pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Generates the workload's corpus from --seed, then runs the program as a
user does: the ``readpath`` CLI in child processes, one after another,
from the sources under ``src/``, with a warm private kernel cache and a
fresh output directory per pipeline run. Whole pipeline runs ("rounds")
repeat while they fit in --seconds. The first round's exports are checked
(``check.py``); every later round must reproduce them byte for byte.

--trace 0 prints the end-to-end metrics: ``setup_s`` (median of fresh
imports, each compiling the C sweep into an empty cache; one before the
first round and one before each round), ``run_s`` (median round wall
time) and ``peak_rss_mb`` (median of each round's largest child peak
RSS). --trace 1 alternates untraced and traced rounds
(``tracer.py``) and prints the per-layer metrics. The last line of stdout
is the result JSON; the line before it describes the environment.

This file uses the standard library only: a child process inherits its
parent's peak RSS through exec, so the parent must stay small.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import EXPORT_STAGE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
LAYERS = ("corpus", "topics", "surprise", "nullmodel", "paths", "epochs", "cli")

CLI = "import sys; from readpath.cli import main; sys.exit(main())"
SETUP = (
    "import json, readpath, numpy, scipy; from readpath import topics; "
    "print(json.dumps({'kernel': topics.sweep_kernel(), 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'package': readpath.__file__}))"
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, generator failure)."""


class KernelMissing(Exception):
    """The compiled sweep is not in use; the pure-Python fallback is a
    different program, so the workload stops."""


def spawn(argv: list[str], env: dict, stdout: Path, log: Path) -> tuple[int, int]:
    """Run a child to completion; (exit code, its peak RSS in KB)."""
    with open(stdout, "wb") as out, open(log, "ab") as err:
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def export_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every export; the *.meta.json and run_meta.json sidecars
    carry timestamps and are left out."""
    hashes = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name.endswith("meta.json"):
            continue
        hashes[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def export_stage(rel: str) -> str:
    name = Path(rel).name
    if name in EXPORT_STAGE:
        return EXPORT_STAGE[name]
    return EXPORT_STAGE.get(name.split("_")[0].split(".")[0], "run")


class Bench:
    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.w = WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.input = self.work / "input"
        self.log = self.work / "children.log"
        self.cache = self.work / "setup-cache0"  # warm private kernel cache of the rounds
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None
        self.check_info: dict = {}
        self.setup_s: list[float] = []
        self.report: dict = {}

    def env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["XDG_CACHE_HOME"] = str(cache)
        env["TMPDIR"] = str(self.work / "tmp")
        return env

    def python(self, args: list[str], cache: Path, tag: str) -> tuple[int, int, Path]:
        stdout = self.work / f"{tag}.out"
        code, rss = spawn([sys.executable, *args], self.env(cache), stdout, self.log)
        return code, rss, stdout

    def generate(self) -> None:
        code, _, _ = self.python(
            [str(HERE / "gen.py"), self.name, str(self.seed), str(self.input)], self.cache, "gen")
        if code != 0:
            raise BenchError(f"corpus generator exited {code}; see {self.log}")

    def setup_once(self) -> None:
        """Time a fresh process that imports readpath and gets the sweep
        kernel, compiling it into an empty private cache. The first such
        cache is the warm one every round uses."""
        cache = self.work / f"setup-cache{len(self.setup_s)}"
        start = time.perf_counter()
        code, _, stdout = self.python(["-c", SETUP], cache, cache.name)
        wall = time.perf_counter() - start
        try:
            report = json.loads(stdout.read_text())
        except ValueError:
            report = {"kernel": None, "package": ""}
        if code != 0 or report["kernel"] != "c":
            raise KernelMissing(f"the sweep kernel is {report['kernel']!r}, not 'c' (exit {code})")
        if not Path(report["package"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"readpath was imported from {report['package']}, not from {ROOT / 'src'}")
        self.report = report
        self.setup_s.append(wall)

    def kernel_build_s(self) -> float:
        """Time of `topics._build_kernel` compiling into an empty cache."""
        trace = self.work / "kernel-build.json"
        code, _, _ = self.python([str(HERE / "tracer.py"), str(trace), "--kernel-build"],
                                 self.work / "kernel-cache", "kernel-build")
        if code != 0:
            raise KernelMissing(f"the kernel build exited {code}")
        return sum(s["end"] - s["start"] for s in json.loads(trace.read_text())["spans"])

    def round(self, traced: bool) -> dict:
        """One pipeline run in a fresh output directory."""
        index = self.rounds
        self.rounds += 1
        out = self.work / f"out{index}"
        cfg = self.input / "run.cfg"
        traces = []
        failed: set[str] = set()
        peak = 0
        start = time.perf_counter()
        for cmd in self.w.commands:
            args = [cmd, "--config", str(cfg), "--out", str(out), *self.w.cli_flags]
            if traced:
                trace = self.work / f"trace{index}-{cmd}.json"
                args = [str(HERE / "tracer.py"), str(trace), *args]
                traces.append(trace)
            else:
                args = ["-c", CLI, *args]
            code, rss, _ = self.python(args, self.cache, f"cli{index}-{cmd}")
            peak = max(peak, rss)
            if code != 0:
                failed.add(cmd)
        wall = time.perf_counter() - start

        hashes = export_hashes(out) if out.exists() else {}
        if self.reference is None:
            self.reference = hashes
            failed |= self.check(out)
        elif hashes != self.reference:
            changed = set(hashes.items()) ^ set(self.reference.items())
            failed |= {export_stage(rel) for rel, _ in changed}
        # `run` exports (summary, manifest) exist only where `run` is the one process.
        failed = {cmd if cmd in self.w.commands else self.w.commands[0] for cmd in failed}
        self.attempted += len(self.w.commands)
        self.failed += len(failed)
        shutil.rmtree(out, ignore_errors=True)
        loaded = [json.loads(t.read_text()) for t in traces if t.exists()]
        return {"wall": wall, "peak_kb": peak, "traces": loaded}

    def pair(self) -> tuple[dict, dict]:
        """An untraced and a traced round, in alternating order so that
        neither side always runs first; returns (untraced, traced)."""
        if self.rounds % 4 == 0:
            return self.round(traced=False), self.round(traced=True)
        traced = self.round(traced=True)
        return self.round(traced=False), traced

    def check(self, out: Path) -> set[str]:
        code, _, stdout = self.python(
            [str(HERE / "check.py"), self.name, str(self.input), str(out)], self.cache, "check")
        try:
            result = json.loads(stdout.read_text())
        except ValueError:
            result = None
        if code != 0 or result is None:
            print(f"output check crashed (exit {code}); see {self.log}", file=sys.stderr)
            return set(self.w.commands)
        for stage, msg in result["failures"]:
            print(f"check failed [{stage}]: {msg}", file=sys.stderr)
        self.check_info = result["info"]
        return {stage for stage, _ in result["failures"]}

    def repeat(self, step) -> list:
        """Call ``step`` while another call still fits in the run length."""
        results = []
        start = time.perf_counter()
        while True:
            before = time.perf_counter()
            results.append(step())
            now = time.perf_counter()
            if now - start + (now - before) > self.seconds:
                return results


def layer_metrics(traces: list[dict], kernel_build_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round (one trace per CLI process)."""
    time_s, cpu_s, calls, rise_kb, counts = Counter(), Counter(), Counter(), Counter(), Counter()
    self_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        child_s = defaultdict(float)
        for span in spans:
            name, dur = span["name"], span["end"] - span["start"]
            time_s[name] += dur
            cpu_s[name] += span["cpu_end"] - span["cpu_start"]
            calls[name] += 1
            if span["parent"] is not None:
                child_s[span["parent"]] += dur
            if name != "cli.main":
                layer = name.split(".")[0]
                rise_kb[layer] = max(rise_kb[layer], span["rss_kb_after"] - span["rss_kb_before"])
        self_s += sum(s["end"] - s["start"] - child_s[i] for i, s in enumerate(spans) if s["name"] == "cli.main")
        counts.update(trace["counts"])

    def total(*names: str) -> float:
        return sum(time_s[n] for n in names)

    def per(n: float, d: float) -> float:
        return n / d if d > 0 else 0.0

    ingest = total("corpus.load_manifest", "corpus.build_corpus", "corpus.save_cache", "corpus.ingest_stats")
    sampling = total("nullmodel.build_null", "nullmodel.null_permutations")
    m = {
        "corpus.ingest_s": ingest,
        "corpus.ingest_tokens_per_s": per(counts["corpus.tokens"], ingest),
        "corpus.cache_load_s": time_s["corpus.load_cache"],
        "corpus.fingerprint_s": time_s["corpus.corpus_fingerprint"],
        "topics.train_s": time_s["topics.sweep_k"],
        "topics.train_cpu_s": cpu_s["topics.sweep_k"],
        "topics.ns_per_token_topic": 1e9 * per(time_s["topics.sweep_k"], counts["topics.token_topic_sweeps"]),
        "topics.model_io_s": total("topics.save_model", "topics.load_model"),
        "topics.kernel_build_s": kernel_build_s,
        "surprise.series_s": sum(t for n, t in time_s.items() if n.startswith("surprise.")),
        "surprise.series_calls": calls["surprise.t2t_series"] + calls["surprise.t2p_series"],
        "nullmodel.build_null_s": time_s["nullmodel.build_null"],
        "nullmodel.null_permutations_s": time_s["nullmodel.null_permutations"],
        "nullmodel.permutations_drawn": counts["nullmodel.permutations_drawn"],
        "nullmodel.permutations_per_s": per(counts["nullmodel.permutations_drawn"], sampling),
        "nullmodel.puborder_s": total("nullmodel.publication_order_series", "nullmodel.publication_order_ids"),
        "paths.divergence_matrix_calls": calls["paths.divergence_matrix"],
        "paths.divergence_matrix_s": time_s["paths.divergence_matrix"],
        "paths.greedy_s": total("paths.greedy_t2t_path", "paths.greedy_t2p_path"),
        "paths.rank_distribution_s": time_s["paths.rank_distribution"],
        "epochs.select_n_s": time_s["epochs.select_n"],
        "epochs.landscape_s": time_s["epochs.single_break_landscape"],
        "epochs.fit_calls": calls["epochs.fit"],
        "cli.import_s": time_s["cli.import"],
        "cli.self_s": self_s,
    }
    for layer in LAYERS:
        m[f"{layer}.rss_rise_mb"] = rise_kb[layer] / 1024
    return m


UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_calls", "count"), ("_drawn", "count"),
         ("_mb", "MB"), ("_topic", "ns"))


def unit(name: str) -> str:
    return next(u for suffix, u in UNITS if name.endswith(suffix))


def result_line(correct: bool, bench: Bench, metrics: dict[str, float]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    })


def run(args) -> int:
    if not (ROOT / "src" / "readpath" / "cli.py").is_file():
        raise BenchError(f"no program sources at {ROOT / 'src' / 'readpath'}")
    bench = Bench(args.workload, args.seed, args.seconds)
    bench.generate()
    try:
        bench.setup_once()  # also warms the kernel cache the rounds use
        if not args.trace:
            def step():
                bench.setup_once()
                return bench.round(traced=False)

            rounds = bench.repeat(step)
            metrics = {
                "setup_s": statistics.median(bench.setup_s),
                "run_s": statistics.median(r["wall"] for r in rounds),
                "peak_rss_mb": statistics.median(r["peak_kb"] for r in rounds) / 1024,
            }
            round_s = [round(r["wall"], 4) for r in rounds]
        else:
            pairs = bench.repeat(bench.pair)
            build_s = bench.kernel_build_s()
            per_round = [layer_metrics(traced["traces"], build_s) for _, traced in pairs]
            metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
            metrics["trace.overhead_s"] = (statistics.median(t["wall"] for _, t in pairs)
                                           - statistics.median(u["wall"] for u, _ in pairs))
            round_s = [[round(u["wall"], 4), round(t["wall"], 4)] for u, t in pairs]
    except KernelMissing as exc:
        bench.attempted += 1
        bench.failed += 1
        print(f"{exc}; workload stopped", file=sys.stderr)
        print(result_line(False, bench, {}))
        return 1
    info = {key: bench.report[key] for key in ("kernel", "numpy", "scipy")}
    info.update(
        nproc=os.cpu_count(), python=sys.version.split()[0], workload=args.workload, seed=args.seed,
        round_s=round_s, setup_s=[round(x, 4) for x in bench.setup_s], checks=bench.check_info,
        exports_sha256=hashlib.sha256(json.dumps(bench.reference, sort_keys=True).encode()).hexdigest(),
    )
    print("env " + json.dumps(info, sort_keys=True))
    print(result_line(bench.failed == 0, bench, metrics))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
