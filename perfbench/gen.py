"""Generate a workload's synthetic reading corpus from a seed.

    python3 perfbench/gen.py <workload> <seed> <out-dir>

Writes ``manifest.csv``, one text per volume under ``texts/`` and
``run.cfg`` (all the program sees), plus ``planted.json`` beside them with
what was planted: each topic's vocabulary (topics have disjoint
vocabularies) and each volume's planted mixture. The same (workload, seed)
always gives the same bytes.

Reading dates are spread uniformly over the workload's reading span;
each volume's publication year is its reading year minus a drawn lag, so
every reading list is feasible for the publication-constrained null.
Mixtures drift with reading progress: a band of topics moves from the
first to the last topic, so the surprise series and the epoch fit have
structure to find.
"""

from __future__ import annotations

import csv
import json
import sys
from datetime import date
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload, config_text

SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
    "na", "pe", "qi", "ro", "su", "ta", "ve", "wi", "xo", "zu",
)
WORDS_PER_LINE = 12


def make_lexicon(rng: np.random.Generator, topics: int, words_per_topic: int) -> list[list[str]]:
    """Disjoint vocabularies of invented three-syllable words (no stopword
    can be spelled from these syllables)."""
    n = topics * words_per_topic
    codes = rng.choice(len(SYLLABLES) ** 3, size=n, replace=False)
    words = [
        SYLLABLES[c // 400] + SYLLABLES[(c // 20) % 20] + SYLLABLES[c % 20] for c in codes.tolist()
    ]
    return [words[t * words_per_topic:(t + 1) * words_per_topic] for t in range(topics)]


def publication_years(rng: np.random.Generator, w: Workload, read_years: list[int]) -> list[int]:
    """Reading year minus a lag. With ``max_pub_group`` set, a volume whose
    drawn year is full takes the nearest earlier year with room, so every
    publication-year group stays within the cap."""
    out = []
    filled: dict[int, int] = {}
    for ry in read_years:
        if w.lag_mean is None:
            lag = int(rng.integers(0, w.max_lag + 1))
        else:
            lag = min(int(rng.exponential(w.lag_mean)), w.max_lag)
        year = ry - lag
        if w.max_pub_group is not None:
            while filled.get(year, 0) >= w.max_pub_group:
                year -= 1
        filled[year] = filled.get(year, 0) + 1
        out.append(year)
    return out


def mixture(rng: np.random.Generator, frac: float, topics: int) -> np.ndarray:
    centre = frac * (topics - 1)
    band = np.exp(-(((np.arange(topics) - centre) / 2.0) ** 2))
    return rng.dirichlet(0.05 + 2.0 * band)


def generate(name: str, seed: int, out: Path) -> None:
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, w.tag])
    lexicon = make_lexicon(rng, w.planted_topics, w.words_per_topic)
    flat = np.array([word for vocab in lexicon for word in vocab])

    first = date(w.read_start, 1, 1).toordinal()
    last = date(w.read_start + w.read_years, 1, 1).toordinal()
    days = np.sort(rng.integers(first, last, size=w.docs)).tolist()
    read_dates = [date.fromordinal(d) for d in days]
    pub_years = publication_years(rng, w, [d.year for d in read_dates])

    (out / "texts").mkdir(parents=True, exist_ok=True)
    rows, mixtures = [], []
    for i in range(w.docs):
        vid = f"v{i:04d}"
        mix = mixture(rng, i / max(w.docs - 1, 1), w.planted_topics)
        n_tokens = max(1, int(w.tokens_per_doc * rng.uniform(0.5, 1.5)))
        counts = rng.multinomial(n_tokens, mix)
        topic_of = np.repeat(np.arange(w.planted_topics), counts)
        ids = topic_of * w.words_per_topic + rng.integers(0, w.words_per_topic, n_tokens)
        words = flat[rng.permutation(ids)].tolist()
        lines = [" ".join(words[j:j + WORDS_PER_LINE]) for j in range(0, len(words), WORDS_PER_LINE)]
        (out / "texts" / f"{vid}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows.append([vid, f"Volume {i}", read_dates[i].isoformat(), pub_years[i], f"texts/{vid}.txt"])
        mixtures.append([float(x) for x in mix])

    with open(out / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "title", "read_date", "pub_year", "text_path"])
        writer.writerows(rows)
    (out / "run.cfg").write_text(config_text(w, seed), encoding="utf-8")
    (out / "planted.json").write_text(
        json.dumps({"workload": name, "seed": seed, "vocabularies": lexicon, "mixtures": mixtures}),
        encoding="utf-8",
    )


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
