"""The benchmark's workloads: seeded inputs, CLI commands, output checks.

A workload writes its inputs once per set-up (``setup``), names the
``lextopic`` commands one pass runs (``commands``), and checks the
artifacts a pass leaves in its output directory (``check``). A check
raises ``CheckFailed`` naming the first thing that is wrong.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import persian

FIT_TOPICS = 20
FIT_SWEEPS = 3
FIT_BURN_IN = 1
SWEEP_GRID = (5, 10)
ROW_SUM_TOLERANCE = 1e-9
PERCENT_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An artifact of a pass is missing or violates an invariant."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int, bool], None]
    commands: Callable[[Path, Path], list[list[str]]]
    check: Callable[[Path, Path], None]


# --- inputs ----------------------------------------------------------------

def _synthetic_config(seed: int, tiny: bool):
    from lextopic.corpus import SynthConfig

    years = tuple(range(2002, 2022))
    if tiny:
        return SynthConfig(n_docs=40, n_topics=4, vocab_size=60, doc_length=30, years=years, seed=seed)
    return SynthConfig(n_docs=1000, n_topics=FIT_TOPICS, vocab_size=3000, doc_length=200, years=years, seed=seed)


def _persian_size(tiny: bool) -> persian.PersianSize:
    if tiny:
        return persian.PersianSize(n_records=80, n_regulation=50, n_topics=4, stems_per_topic=25)
    return persian.PersianSize()


def setup_synthetic(directory: Path, seed: int, tiny: bool) -> None:
    from lextopic.corpus import generate_synthetic_corpus, save_corpus

    corpus, _ = generate_synthetic_corpus(_synthetic_config(seed, tiny))
    save_corpus(corpus, directory / "corpus.jsonl")


def setup_persian(directory: Path, seed: int, tiny: bool) -> None:
    generated = persian.generate(seed, _persian_size(tiny))
    persian.write_jsonl(generated.records, directory / "corpus.jsonl")


def setup_persian_model(directory: Path, seed: int, tiny: bool) -> None:
    """The Persian corpus plus a model over all its records, in lextopic's format.

    The model is the generator's planted one: theta is each record's
    topic mixture and phi each topic's stem distribution, smoothed as a
    fit would be. It has the shape and size of a fitted model at a
    fraction of the cost.
    """
    from lextopic.lda import LdaConfig, LdaModel, save_model
    from lextopic.vectorize import Vocabulary

    generated = persian.generate(seed, _persian_size(tiny))
    persian.write_jsonl(generated.records, directory / "corpus.jsonl")
    n_topics, n_terms = generated.topic_word.shape
    config = LdaConfig(n_topics=n_topics, sweeps=1, burn_in=0, seed=seed)
    beta = config.beta
    topic_word = (generated.topic_word + beta) / (1.0 + n_terms * beta)
    model = LdaModel(
        config=config,
        doc_topic=generated.doc_topic,
        topic_word=topic_word,
        doc_ids=[record["id"] for record in generated.records],
        log_likelihood=[],
        vocab=Vocabulary(
            terms=generated.stems,
            index={stem: position for position, stem in enumerate(generated.stems)},
            df=generated.document_frequency.tolist(),
        ),
    )
    save_model(model, directory / "model.json")


# --- commands ----------------------------------------------------------------

def fit_commands(inputs: Path, out: Path) -> list[list[str]]:
    return [[
        "fit", "--corpus", str(inputs / "corpus.jsonl"), "--out", str(out),
        "--topics", str(FIT_TOPICS), "--sweeps", str(FIT_SWEEPS), "--burn-in", str(FIT_BURN_IN),
        "--seed", "0",
    ]]


def sweep_commands(inputs: Path, out: Path) -> list[list[str]]:
    return [[
        "sweep", "--corpus", str(inputs / "corpus.jsonl"), "--out", str(out),
        "--mode", "tfidf-pseudo", "--k-grid", ",".join(map(str, SWEEP_GRID)),
        "--sweeps", "1", "--burn-in", "0",
    ]]


def analyze_commands(inputs: Path, out: Path) -> list[list[str]]:
    corpus = str(inputs / "corpus.jsonl")
    return [
        ["ingest", "--corpus", corpus, "--out", str(out)],
        ["analyze", "--corpus", corpus, "--out", str(out), "--filter-type", "none",
         "--model", str(inputs / "model.json")],
    ]


# --- checks ------------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckFailed(f"{path.name} is missing")
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise CheckFailed(f"{what} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {text!r}")
    return value


def check_fit(inputs: Path, out: Path) -> None:
    from lextopic.errors import LextopicError
    from lextopic.lda import load_model

    try:
        model = load_model(out / "model.json")
    except (OSError, LextopicError, ValueError, KeyError) as exc:
        raise CheckFailed(f"model.json does not reload: {exc!r}") from None
    for name, table in (("theta", model.doc_topic), ("phi", model.topic_word)):
        worst = float(np.max(np.abs(table.sum(axis=1) - 1.0)))
        if not worst <= ROW_SUM_TOLERANCE:
            raise CheckFailed(f"{name} rows sum to 1 only within {worst:.3g}")
    rows = _rows(out / "trace.csv")
    if [row["sweep"] for row in rows] != [str(n) for n in range(1, FIT_SWEEPS + 1)]:
        raise CheckFailed(f"trace.csv has sweeps {[row['sweep'] for row in rows]}, expected 1..{FIT_SWEEPS}")
    for row in rows:
        _finite(row["log_likelihood"], f"trace.csv sweep {row['sweep']} log-likelihood")


def check_sweep(inputs: Path, out: Path) -> None:
    rows = _rows(out / "sweep.csv")
    if [row["n_topics"] for row in rows] != [str(k) for k in SWEEP_GRID]:
        raise CheckFailed(f"sweep.csv has K {[row['n_topics'] for row in rows]}, expected {list(SWEEP_GRID)}")
    for row in rows:
        perplexity = _finite(row["perplexity"], f"K={row['n_topics']} perplexity")
        coherence = _finite(row["mean_coherence"], f"K={row['n_topics']} coherence")
        if not perplexity > 1.0:
            raise CheckFailed(f"K={row['n_topics']} perplexity {perplexity} is not > 1")
        if not coherence <= 0.0:
            raise CheckFailed(f"K={row['n_topics']} coherence {coherence} is not <= 0")


def _sums_to_100(values: list[float], what: str) -> None:
    total = math.fsum(values)
    if not abs(total - 100.0) <= PERCENT_TOLERANCE * 100.0:
        raise CheckFailed(f"{what} percentages sum to {total!r}, not 100")


def corpus_records(inputs: Path) -> int:
    with (inputs / "corpus.jsonl").open(encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def check_analyze(inputs: Path, out: Path) -> None:
    n_records = corpus_records(inputs)
    stats = _rows(out / "stats.csv")
    counted = sum(int(value) for row in stats for key, value in row.items() if key != "type")
    if counted != n_records:
        raise CheckFailed(f"stats.csv counts {counted} records, corpus has {n_records}")
    if len(_rows(out / "ratios.csv")) != n_records:
        raise CheckFailed("ratios.csv does not have one row per record")
    shares = _rows(out / "shares.csv")
    _sums_to_100([_finite(row["percent"], "shares.csv percent") for row in shares], "shares.csv")
    if sum(int(row["count"]) for row in shares) != n_records:
        raise CheckFailed("shares.csv counts do not cover every record")
    by_topic: dict[str, list[float]] = {}
    for row in _rows(out / "trends.csv"):
        by_topic.setdefault(row["topic"], []).append(_finite(row["percent"], "trends.csv percent"))
    if len(by_topic) != len(shares):
        raise CheckFailed(f"trends.csv has {len(by_topic)} topics, shares.csv {len(shares)}")
    for topic, percents in by_topic.items():
        _sums_to_100(percents, f"trends.csv {topic}")
    for index in range(len(shares)):
        cloud = _rows(out / f"wordcloud_{index}.csv")
        if not cloud or float(cloud[0]["weight"]) != 1.0:
            raise CheckFailed(f"wordcloud_{index}.csv does not start at weight 1.0")
    topics = json.loads((out / "topics.json").read_text(encoding="utf-8"))
    if len(topics) != len(shares):
        raise CheckFailed(f"topics.json has {len(topics)} topics, shares.csv {len(shares)}")


# --- the table ---------------------------------------------------------------

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fit-sampling",
            "fit K=20 on 1k synthetic docs of 200 tokens: Gibbs sweeps dominate; the workload that writes a model",
            setup_synthetic, fit_commands, check_fit,
        ),
        Workload(
            "sweep-persian",
            "sweep K=5,10 on 10k Persian records (6.6k Regulation): preprocess and vectorize outweigh sampling",
            setup_persian, sweep_commands, check_sweep,
        ),
        Workload(
            "analyze-persian",
            "ingest + analyze of 10k Persian records and a 3 MB model: the read path, no preprocess or sampling",
            setup_persian_model, analyze_commands, check_analyze,
        ),
    )
}
