"""Span tracer that wraps lextopic's module attributes from outside.

Nothing under src/ knows about it. ``Tracer.install`` swaps public module
attributes (``lextopic.preprocess.preprocess_corpus``,
``lextopic.lda.gibbs_sweep``, ...) for timing wrappers, and
``Tracer.remove`` puts the originals back. The cli and lda modules look
these names up at call time, so the wrappers see every call the
commands make.

Calls made once per document (normalize, lemmatize, ...) are summed per
name instead of recorded as spans. Nothing is wrapped per token. A
self time is a call's duration minus the time its wrapped children
took. A probe whose target no longer exists, or that the program no
longer calls, reports 0.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Probe:
    target: str  # "<module>.<attribute>" under the lextopic package
    metric: str  # per-layer time metric the call's duration adds to
    per_document: bool = False  # summed per name, no span per call


PROBES = (
    Probe("corpus.load_corpus", "corpus.load_s"),
    Probe("corpus.type_counts_by_year", "corpus.stats_s"),
    Probe("corpus.length_ratio", "corpus.stats_s", per_document=True),
    Probe("preprocess.preprocess_corpus", "preprocess.s"),
    Probe("preprocess.normalize", "preprocess.normalize_s", per_document=True),
    Probe("preprocess.remove_punctuation", "preprocess.punctuation_s", per_document=True),
    Probe("preprocess.remove_stopwords", "preprocess.stopwords_s", per_document=True),
    Probe("preprocess.lemmatize", "preprocess.lemmatize_s", per_document=True),
    Probe("vectorize.build_vocabulary", "vectorize.vocab_s"),
    Probe("vectorize.count_matrix", "vectorize.counts_s"),
    Probe("vectorize.tfidf", "vectorize.tfidf_s"),
    Probe("vectorize.to_pseudo_counts", "vectorize.tfidf_s"),
    Probe("lda.fit", "lda.fit_s"),
    Probe("lda.init_assignments", "lda.init_s"),
    Probe("lda.gibbs_sweep", "lda.sweep_s"),
    Probe("lda.perplexity", "lda.perplexity_s"),
    Probe("lda.coherence_umass", "lda.coherence_s"),
    Probe("lda.save_model", "lda.save_s"),
    Probe("lda.load_model", "lda.load_s"),
    Probe("analyze.label_topics", "analyze.s"),
    Probe("analyze.topic_shares", "analyze.s"),
    Probe("analyze.yearly_topic_percentages", "analyze.s"),
    Probe("analyze.wordcloud_weights", "analyze.s", per_document=True),
    Probe("analyze.save_topics_json", "analyze.s"),
    Probe("analyze.save_shares_csv", "analyze.s"),
    Probe("analyze.save_trends_csv", "analyze.s"),
    Probe("analyze.save_wordcloud_csv", "analyze.s", per_document=True),
)

# Per-layer metrics: name -> (unit, better). Times are seconds per pass.
LAYER_METRICS = {
    "corpus.load_s": ("s", "lower"),
    "corpus.records": ("count", "higher"),
    "corpus.us_per_record": ("us/record", "lower"),
    "corpus.stats_s": ("s", "lower"),
    "preprocess.s": ("s", "lower"),
    "preprocess.normalize_s": ("s", "lower"),
    "preprocess.punctuation_s": ("s", "lower"),
    "preprocess.stopwords_s": ("s", "lower"),
    "preprocess.lemmatize_s": ("s", "lower"),
    "preprocess.tokens_out": ("count", "higher"),
    "preprocess.records_dropped": ("count", "lower"),
    "preprocess.distinct_ratio": ("ratio", "lower"),
    "vectorize.vocab_s": ("s", "lower"),
    "vectorize.counts_s": ("s", "lower"),
    "vectorize.tfidf_s": ("s", "lower"),
    "vectorize.n_terms": ("count", "higher"),
    "vectorize.nnz": ("count", "higher"),
    "vectorize.tokens": ("count", "higher"),
    "lda.init_s": ("s", "lower"),
    "lda.sweep_s": ("s", "lower"),
    "lda.sweeps": ("count", "higher"),
    "lda.token_sweeps": ("count", "higher"),
    "lda.sweep.ns_per_token": ("ns/token", "lower"),
    "lda.fit.self_s": ("s", "lower"),
    "lda.fit.self_ms_per_sweep": ("ms/sweep", "lower"),
    "lda.perplexity_s": ("s", "lower"),
    "lda.coherence_s": ("s", "lower"),
    "lda.save_s": ("s", "lower"),
    "lda.load_s": ("s", "lower"),
    "lda.model_bytes": ("bytes", "lower"),
    "analyze.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def matrix_size(matrix) -> tuple[int, int, int]:
    """(n_terms, nnz, tokens) of a document-term matrix."""
    counts = matrix.counts
    return matrix.n_terms, len(counts), int(sum(counts.values()))


class Tracer:
    """In-memory spans and per-name sums for one or more traced passes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.sums: list[dict] = []  # per pass: calls, seconds and self seconds by target
        self._stack: list[list] = []  # open calls: [span index or None, child seconds]
        self._originals: list[tuple[object, str, object]] = []
        self._pass: dict | None = None

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        for probe in PROBES:
            module_name, attribute = probe.target.rsplit(".", 1)
            module = importlib.import_module(f"lextopic.{module_name}")
            original = getattr(module, attribute, None)
            if original is None:
                continue
            self._originals.append((module, attribute, original))
            setattr(module, attribute, self._wrap(probe, original))

    def remove(self) -> None:
        while self._originals:
            module, attribute, original = self._originals.pop()
            setattr(module, attribute, original)

    def _wrap(self, probe: Probe, original):
        observe = getattr(self, "_after_" + probe.target.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            state = self._pass
            parent = self._stack[-1] if self._stack else None
            frame = [None, 0.0]
            if not probe.per_document:
                frame[0] = len(self.spans)
                self.spans.append(
                    {"pass": state["id"], "name": probe.target, "start": 0.0, "end": 0.0,
                     "parent": parent[0] if parent else state["span"]}
                )
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                elapsed = end - start
                if frame[0] is not None:
                    span = self.spans[frame[0]]
                    span["start"] = start - state["origin"]
                    span["end"] = end - state["origin"]
                if parent is None:
                    state["top_level_s"] += elapsed
                else:
                    parent[1] += elapsed
                state["seconds"][probe.metric] += elapsed
                state["total_s"][probe.target] += elapsed
                state["self_s"][probe.target] += elapsed - frame[1]
                state["calls"][probe.target] += 1
            if observe is not None:
                observed = time.perf_counter()
                observe(state, args, kwargs, result)
                state["observe_s"] += time.perf_counter() - observed
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- observers: counts read from arguments and results -----------------

    def _after_corpus_load_corpus(self, state, args, kwargs, result):
        state["facts"]["corpus.records"] += len(result.records)

    def _after_preprocess_preprocess_corpus(self, state, args, kwargs, result):
        corpus = args[0] if args else kwargs["corpus"]
        facts = state["facts"]
        facts["preprocess.tokens_out"] += sum(len(doc.tokens) for doc in result)
        facts["preprocess.records_dropped"] += len(corpus.records) - len(result)
        for doc in result:
            state["distinct"].update(doc.tokens)

    def _record_matrix(self, state, matrix):
        n_terms, nnz, tokens = matrix_size(matrix)
        state["facts"].update({"vectorize.n_terms": n_terms, "vectorize.nnz": nnz, "vectorize.tokens": tokens})

    def _after_vectorize_count_matrix(self, state, args, kwargs, result):
        self._record_matrix(state, result)

    def _after_vectorize_to_pseudo_counts(self, state, args, kwargs, result):
        self._record_matrix(state, result)

    def _after_lda_fit(self, state, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        config = args[1] if len(args) > 1 else kwargs["config"]
        tokens = matrix_size(matrix)[2]
        sweeps_done = state["calls"]["lda.gibbs_sweep"] - state["sweeps_seen"]
        state["sweeps_seen"] = state["calls"]["lda.gibbs_sweep"]
        facts = state["facts"]
        facts["lda.token_sweeps"] += tokens * config.sweeps
        facts["lda.fit_sweeps"] += config.sweeps
        facts["lda.sampled_tokens"] += tokens * sweeps_done

    def _after_lda_save_model(self, state, args, kwargs, result):
        state["facts"]["lda.model_bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def _after_lda_load_model(self, state, args, kwargs, result):
        state["facts"]["lda.model_bytes"] = os.path.getsize(args[0] if args else kwargs["path"])

    # -- passes ---------------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self._pass = {
            "id": pass_id,
            "span": len(self.spans),
            "origin": time.perf_counter(),
            "top_level_s": 0.0,
            "observe_s": 0.0,
            "sweeps_seen": 0,
            "seconds": defaultdict(float),
            "total_s": defaultdict(float),
            "self_s": defaultdict(float),
            "calls": defaultdict(int),
            "facts": defaultdict(int),
            "distinct": set(),
        }
        self.spans.append({"pass": pass_id, "name": "pass", "start": 0.0, "end": 0.0, "parent": None})

    def end_pass(self, wall_s: float) -> dict[str, float]:
        """Close the pass; return its per-layer metrics (without trace.overhead_s)."""
        state, self._pass = self._pass, None
        self.spans[state["span"]]["end"] = wall_s
        seconds, facts, calls = state["seconds"], state["facts"], state["calls"]
        metrics = {probe.metric: seconds[probe.metric] for probe in PROBES if probe.metric != "lda.fit_s"}
        for name in ("corpus.records", "preprocess.tokens_out", "preprocess.records_dropped",
                     "vectorize.n_terms", "vectorize.nnz", "vectorize.tokens",
                     "lda.token_sweeps", "lda.model_bytes"):
            metrics[name] = facts[name]
        metrics["corpus.us_per_record"] = _ratio(seconds["corpus.load_s"] * 1e6, facts["corpus.records"])
        metrics["preprocess.distinct_ratio"] = _ratio(len(state["distinct"]), facts["preprocess.tokens_out"])
        metrics["lda.sweeps"] = calls["lda.gibbs_sweep"]
        metrics["lda.sweep.ns_per_token"] = _ratio(seconds["lda.sweep_s"] * 1e9, facts["lda.sampled_tokens"])
        fit_self = state["self_s"]["lda.fit"]
        metrics["lda.fit.self_s"] = fit_self
        metrics["lda.fit.self_ms_per_sweep"] = _ratio(fit_self * 1e3, facts["lda.fit_sweeps"])
        metrics["cli.self_s"] = wall_s - state["top_level_s"] - state["observe_s"]
        self.sums.append(
            {"pass": state["id"], "calls": dict(calls), "seconds": dict(state["total_s"]),
             "self_s": dict(state["self_s"]), "observe_s": state["observe_s"]}
        )
        return metrics

    def dump(self, path: Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with Path(path).open("w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "sums": self.sums}, handle)
            handle.write("\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
