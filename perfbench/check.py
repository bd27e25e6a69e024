"""Check a pipeline run's exports against computations made apart from the
program, or against properties the method must have.

    python3 perfbench/check.py <workload> <input-dir> <out-dir>

Prints one JSON object: ``failures`` (a list of [stage, message], where
stage names the CLI process that wrote the faulty export) and ``info``
(measured check figures such as the planted-recovery error). Uses numpy
only; nothing here imports the program.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from datetime import date
from pathlib import Path

import numpy as np

from workloads import EXPORT_STAGE, WORKLOADS, Workload

ROW_SUM_TOL = 1e-9
DAYS_PER_YEAR = 365.25


def close(a, b, tol: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_model(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Header line, then theta (d x k) and phi (k x v) as float64 bytes."""
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    d, k, v = header["d"], header["k"], header["v"]
    body = np.frombuffer(raw[nl + 1:], dtype=np.float64)
    if body.size != d * k + k * v:
        raise ValueError(f"{path}: {body.size} floats for d={d}, k={k}, v={v}")
    return header, body[: d * k].reshape(d, k), body[d * k:].reshape(k, v)


def kl_bits(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """KL(q_i | p_i) in bits, row by row (p broadcasts), clipped at 0."""
    return np.maximum(np.sum(q * (np.log2(q) - np.log2(p)), axis=-1), 0.0)


def reading_series(theta: np.ndarray) -> dict[str, np.ndarray]:
    past = np.cumsum(theta, axis=0)[:-1] / np.arange(1, len(theta))[:, None]
    return {"t2t": kl_bits(theta[1:], theta[:-1]), "t2p": kl_bits(theta[1:], past)}


def gaussian_loglik(seg: np.ndarray, floor: float = 1e-12) -> float:
    var = max(float(np.var(seg)), floor)
    return -0.5 * len(seg) * (1.0 + math.log(2.0 * math.pi * var))


class Checker:
    def __init__(self, w: Workload, inp: Path, out: Path):
        self.w, self.inp, self.out = w, inp, out
        self.staged = w.commands != ("run",)
        self.failures: list[list[str]] = []
        self.info: dict = {}

    def fail(self, export: str, msg: str) -> None:
        self.failures.append([EXPORT_STAGE[export] if self.staged else "run", msg])

    # -- inputs, counted from the texts
    def load_inputs(self) -> None:
        with open(self.inp / "manifest.csv", newline="", encoding="utf-8") as fh:
            self.rows = list(csv.DictReader(fh))
        self.ids = [r["id"] for r in self.rows]
        self.dates = [date.fromisoformat(r["read_date"]) for r in self.rows]
        self.pub_years = [int(r["pub_year"]) for r in self.rows]
        self.docs = [(self.inp / r["text_path"]).read_text(encoding="utf-8").split() for r in self.rows]
        planted = json.loads((self.inp / "planted.json").read_text(encoding="utf-8"))
        self.vocabularies = planted["vocabularies"]
        self.vocab = sorted({t for doc in self.docs for t in doc})

    def check_corpus(self) -> None:
        path = self.out / "corpus.json"
        if not path.exists():
            return self.fail("corpus.json", "corpus.json missing")
        cache = json.loads(path.read_text(encoding="utf-8"))
        if cache["vocabulary"]["tokens"] != self.vocab:
            return self.fail("corpus.json", "vocabulary differs from the sorted distinct words of the texts")
        if [r["id"] for r in cache["records"]] != self.ids:
            return self.fail("corpus.json", "records differ from the manifest order")
        index = {t: i for i, t in enumerate(self.vocab)}
        docs = cache["documents"]
        indptr, indices, counts = docs["indptr"], docs["indices"], docs["counts"]
        for i, doc in enumerate(self.docs):
            ids, cnt = np.unique([index[t] for t in doc], return_counts=True)
            lo, hi = indptr[i], indptr[i + 1]
            if indices[lo:hi] != ids.tolist() or counts[lo:hi] != cnt.tolist():
                return self.fail("corpus.json", f"term counts of {self.ids[i]} differ from the text")

    def expected_files(self) -> list[str]:
        names = ["model.bin", "ranks.csv", "ranks.json"]
        for kind in ("t2t", "t2p"):
            names += [f"{stem}_{kind}{ext}" for stem, ext in (
                ("series", ".csv"), ("null", ".json"), ("null", ".csv"), ("puborder", ".csv"),
                ("greedy", ".csv"), ("epochs", ".json"), ("landscape", ".csv"))]
        return names

    def check_files(self, kdir: Path) -> bool:
        if not self.staged:
            manifest = kdir / "manifest.json"
            if not manifest.exists():
                self.fail("manifest", f"{kdir.name}/manifest.json missing")
                return False
            names = json.loads(manifest.read_text(encoding="utf-8"))["files"]
            missing = [n for n in names if not (kdir / n).exists()]
            if missing:
                self.fail("manifest", f"{kdir.name}: declared exports missing: {missing}")
        missing = [n for n in self.expected_files() if not (kdir / n).exists()]
        for n in missing:
            self.fail(n if n == "model.bin" else n.split("_")[0].split(".")[0], f"{kdir.name}/{n} missing")
        return not missing

    # -- the model
    def check_model(self, kdir: Path, k: int):
        try:
            _, theta, phi = read_model(kdir / "model.bin")
        except (ValueError, KeyError) as exc:
            return self.fail("model.bin", f"{kdir.name}/model.bin unreadable: {exc}")
        d, v = len(self.ids), len(self.vocab)
        if theta.shape != (d, k) or phi.shape != (k, v):
            return self.fail("model.bin", f"{kdir.name}: theta {theta.shape}, phi {phi.shape}")
        for name, m in (("theta", theta), ("phi", phi)):
            if m.min() <= 0:
                return self.fail("model.bin", f"{kdir.name}: {name} has a nonpositive entry")
            if np.abs(m.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
                return self.fail("model.bin", f"{kdir.name}: {name} rows do not sum to 1")
        # Planted recovery: each fitted topic's phi mass on each planted
        # vocabulary maps theta to planted-topic fractions.
        index = {t: i for i, t in enumerate(self.vocab)}
        topic_of = np.full(v, -1, dtype=np.int64)
        for p, words in enumerate(self.vocabularies):
            for word in words:
                if word in index:
                    topic_of[index[word]] = p
        n_planted = len(self.vocabularies)
        mass = np.zeros((k, n_planted))
        for p in range(n_planted):
            mass[:, p] = phi[:, topic_of == p].sum(axis=1)
        truth = np.zeros((d, n_planted))
        for i, doc in enumerate(self.docs):
            truth[i] = np.bincount(topic_of[[index[t] for t in doc]], minlength=n_planted) / len(doc)
        mae = float(np.abs(theta @ mass - truth).mean())
        self.info[f"recovery_mae_k{k}"] = mae
        if mae > self.w.recovery_mae:
            self.fail("model.bin", f"{kdir.name}: planted recovery MAE {mae:.4f} > {self.w.recovery_mae}")
        return theta

    # -- analyses
    def check_series(self, kdir: Path, series: dict[str, np.ndarray]) -> None:
        for kind, values in series.items():
            rows = read_csv(kdir / f"series_{kind}.csv")
            got = [float(r["value_bits"]) for r in rows]
            if [r["doc_id"] for r in rows] != self.ids[1:] or not close(got, values):
                self.fail("series", f"{kdir.name}/series_{kind}.csv differs from KL recomputed from theta")

    def check_greedy(self, kdir: Path, theta: np.ndarray) -> None:
        index = {vid: i for i, vid in enumerate(self.ids)}
        log_t = np.log2(theta)
        for kind in ("t2t", "t2p"):
            rows = read_csv(kdir / f"greedy_{kind}.csv")
            order = [index.get(r["doc_id"], -1) for r in rows]
            if sorted(order) != list(range(len(self.ids))):
                self.fail("greedy", f"{kdir.name}/greedy_{kind}.csv is not a permutation")
                continue
            visited = np.zeros(len(order), dtype=bool)
            visited[order[0]] = True
            running = theta[order[0]].copy()
            for step, (cur, nxt) in enumerate(zip(order, order[1:]), start=1):
                ref = log_t[cur] if kind == "t2t" else np.log2(running / step)
                vals = np.maximum(np.sum(theta * (log_t - ref), axis=1), 0.0)
                best = vals[~visited].min()
                bits = float(rows[step]["step_bits"])
                if vals[nxt] > best + 1e-9 * max(1.0, best) or not close(bits, vals[nxt]):
                    self.fail("greedy", f"{kdir.name}/greedy_{kind}.csv step {step} is not the minimum")
                    break
                visited[nxt] = True
                running += theta[nxt]

    def check_null(self, kdir: Path, series: dict[str, np.ndarray]) -> None:
        m = int(self.w.config["null"]["samples"])
        for kind, values in series.items():
            ens = json.loads((kdir / f"null_{kind}.json").read_text(encoding="utf-8"))
            means = [float(r["null_mean_bits"]) for r in read_csv(kdir / f"null_{kind}.csv")]
            scaled = ens["p_value_below_null"] * (m + 1)
            if abs(scaled - round(scaled)) > 1e-6 or not 1 <= round(scaled) <= m + 1:
                self.fail("null", f"{kdir.name}/null_{kind}.json: p*(M+1) = {scaled} is not in 1..M+1")
            if len(means) != len(values) or not close(ens["null_aggregate_mean_bits"], np.mean(means)):
                self.fail("null", f"{kdir.name}/null_{kind}: aggregate mean is not the mean of position means")
            if not close(ens["observed_aggregate_bits"], values.mean()):
                self.fail("null", f"{kdir.name}/null_{kind}.json: observed aggregate differs from theta")

    def check_puborder(self, kdir: Path) -> None:
        order = sorted(range(len(self.ids)), key=lambda i: (self.pub_years[i], i))
        for kind in ("t2t", "t2p"):
            rows = read_csv(kdir / f"puborder_{kind}.csv")
            vals = np.array([float(r["value_bits"]) for r in rows])
            if [r["doc_id"] for r in rows] != [self.ids[i] for i in order[1:]]:
                self.fail("puborder", f"{kdir.name}/puborder_{kind}.csv is not in publication order")
            elif not (np.all(np.isfinite(vals)) and vals.min() >= 0):
                self.fail("puborder", f"{kdir.name}/puborder_{kind}.csv has a negative or non-finite value")

    def check_ranks(self, kdir: Path, theta: np.ndarray) -> None:
        """Observed counts against ranks recomputed from theta. A move whose
        divergence lies within 1e-12 bits of another candidate's may fall in
        either neighbouring bin, so those moves only bound the counts."""
        rd = json.loads((kdir / "ranks.json").read_text(encoding="utf-8"))
        d = len(theta)
        n_bins = int(math.floor(math.log2(d - 1))) + 1
        if rd["bin_edges"] != [2.0 ** b for b in range(n_bins + 1)]:
            return self.fail("ranks", f"{kdir.name}/ranks.json: bin edges are not powers of 2")
        log_t = np.log2(theta)
        sure = np.zeros(n_bins, dtype=np.int64)  # moves whose bin is certain
        either = np.zeros(n_bins, dtype=np.int64)  # near-tied moves that may fall here
        for cur in range(d - 1):
            vals = np.maximum(np.sum(theta * (log_t - log_t[cur]), axis=1), 0.0)
            vals = np.delete(vals, cur)
            chosen = vals[cur]  # column cur + 1 moved to cur by the delete
            b_lo = int(math.log2(1 + np.count_nonzero(vals < chosen - 1e-12)))
            b_hi = int(math.log2(np.count_nonzero(vals < chosen + 1e-12)))  # chosen itself counts
            if b_lo == b_hi:
                sure[b_lo] += 1
            else:
                either[b_lo:b_hi + 1] += 1
        obs = np.array(rd["observed_counts"])
        if obs.sum() != d - 1 or np.any(obs < sure) or np.any(obs > sure + either):
            self.fail("ranks", f"{kdir.name}/ranks.json: observed counts {obs.tolist()} differ from "
                               f"recomputed ranks {sure.tolist()}")
        m = int(self.w.config["null"]["samples"])
        if sum(rd["null_counts"]) != m * (d - 1):
            self.fail("ranks", f"{kdir.name}/ranks.json: null counts do not sum to M*(D-1)")

    def min_length_ok(self, a: int, b: int) -> bool:
        ecfg = self.w.config["epochs"]
        if "min_length" in ecfg:
            return b - a >= int(ecfg["min_length"])
        span = self.dates[b - 1].toordinal() - self.dates[a].toordinal()
        return b - a >= 2 and span >= float(ecfg["min_years"]) * DAYS_PER_YEAR

    def check_epochs(self, kdir: Path, series: dict[str, np.ndarray]) -> None:
        for kind, x in series.items():
            rep = json.loads((kdir / f"epochs_{kind}.json").read_text(encoding="utf-8"))
            length = len(x)
            table = rep["model_table"]
            for row in table + [{"n": rep["selected_n"], "breaks": rep["breaks"]}]:
                bounds = row["breaks"] + [length]
                if bounds[0] != 0 or len(row["breaks"]) != row["n"] or not all(
                    self.min_length_ok(a, b) for a, b in zip(bounds, bounds[1:])
                ):
                    self.fail("epochs", f"{kdir.name}/epochs_{kind}.json: n={row['n']} breaks "
                                        f"{row['breaks']} violate the minimum length")
            chosen = [row for row in table if row["n"] == rep["selected_n"]]
            if len(chosen) != 1 or chosen[0]["relative_likelihood"] != 1.0:
                self.fail("epochs", f"{kdir.name}/epochs_{kind}.json: selected row's relative likelihood is not 1.0")
            # Brute-force single-break scan.
            scan = {
                b: gaussian_loglik(x[:b]) + gaussian_loglik(x[b:])
                for b in range(1, length) if self.min_length_ok(0, b) and self.min_length_ok(b, length)
            }
            two = [row for row in table if row["n"] == 2]
            if scan and two:
                best = max(scan.values())
                b = two[0]["breaks"][-1]
                if b not in scan or scan[b] < best - 1e-9 * abs(best):
                    self.fail("epochs", f"{kdir.name}/epochs_{kind}.json: n=2 break {b} is not the "
                                        f"brute-force optimum {max(scan, key=scan.get)}")
                elif not close(two[0]["log_likelihood"], scan[b]):
                    self.fail("epochs", f"{kdir.name}/epochs_{kind}.json: n=2 log-likelihood differs")
            land = {int(r["break_position"]): float(r["log_likelihood"])
                    for r in read_csv(kdir / f"landscape_{kind}.csv")}
            if sorted(land) != sorted(scan) or not close([land[b] for b in scan], list(scan.values())):
                self.fail("landscape", f"{kdir.name}/landscape_{kind}.csv differs from the brute-force scan")

    def run(self) -> None:
        self.load_inputs()
        self.check_corpus()
        for k in self.w.k_list:
            kdir = self.out / f"k{k}"
            if not self.check_files(kdir):
                continue
            theta = self.check_model(kdir, k)
            if theta is None:
                continue
            series = reading_series(theta)
            self.check_series(kdir, series)
            self.check_greedy(kdir, theta)
            self.check_null(kdir, series)
            self.check_puborder(kdir)
            self.check_ranks(kdir, theta)
            self.check_epochs(kdir, series)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.exit(__doc__)
    checker = Checker(WORKLOADS[argv[0]], Path(argv[1]), Path(argv[2]))
    checker.run()
    print(json.dumps({"failures": checker.failures, "info": checker.info}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
