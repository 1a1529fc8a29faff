"""Batch command-line front door: ingest | fit | sweep | analyze.

A JSON run-configuration file (via --config or the LEXTOPIC_CONFIG env
var) supplies defaults; command-line flags win over the file. Every
command echoes the effective configuration into the output directory so
a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import analyze as analyze_mod
from . import corpus as corpus_mod
from . import lda as lda_mod
from . import preprocess as preprocess_mod
from . import vectorize as vectorize_mod
from ._files import atomic_writer
from .errors import AlignmentMismatch, EmptyContent, InvalidConfig, LextopicError

__all__ = ["RunConfig", "main"]

CONFIG_ENV_VAR = "LEXTOPIC_CONFIG"

_DEFAULTS = {
    "corpus": None,
    "format": "jsonl",
    "filter_type": "Regulation",
    "preprocess": {
        "stopwords": None,
        "lemma_rules": None,
        "min_token_length": 2,
        "on_empty": "drop",
    },
    "vectorize": {"min_df": 2, "max_df_ratio": 0.95, "norm": "l2", "pseudo_scale": 10.0},
    "lda": {
        "n_topics": 10,
        "alpha": None,
        "beta": 0.01,
        "sweeps": 1000,
        "burn_in": 500,
        "seed": 0,
        "input_mode": "counts",
    },
    "analyze": {"top_m": 10, "normalization": "per_topic", "labels": None},
    "out": "out",
}


@dataclass
class RunConfig:
    """Effective settings for one command, after file/flag merging."""

    corpus_path: str | None
    format: str
    filter_type: str
    stopwords_path: str | None
    lemma_rules_path: str | None
    min_token_length: int
    on_empty: str
    min_df: int
    max_df_ratio: float
    norm: str
    pseudo_scale: float
    lda: lda_mod.LdaConfig
    top_m: int
    normalization: str
    label_map_path: str | None
    out_dir: str
    raw: dict

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        lda_raw = raw["lda"]
        return cls(
            corpus_path=raw["corpus"],
            format=raw["format"],
            filter_type=raw["filter_type"],
            stopwords_path=raw["preprocess"]["stopwords"],
            lemma_rules_path=raw["preprocess"]["lemma_rules"],
            min_token_length=int(raw["preprocess"]["min_token_length"]),
            on_empty=raw["preprocess"]["on_empty"],
            min_df=int(raw["vectorize"]["min_df"]),
            max_df_ratio=float(raw["vectorize"]["max_df_ratio"]),
            norm=raw["vectorize"]["norm"],
            pseudo_scale=float(raw["vectorize"]["pseudo_scale"]),
            lda=lda_mod.LdaConfig(
                n_topics=int(lda_raw["n_topics"]),
                alpha=None if lda_raw["alpha"] is None else float(lda_raw["alpha"]),
                beta=float(lda_raw["beta"]),
                sweeps=int(lda_raw["sweeps"]),
                burn_in=int(lda_raw["burn_in"]),
                seed=int(lda_raw["seed"]),
                input_mode=lda_raw["input_mode"],
            ),
            top_m=int(raw["analyze"]["top_m"]),
            normalization=raw["analyze"]["normalization"],
            label_map_path=raw["analyze"]["labels"],
            out_dir=raw["out"],
            raw=raw,
        )


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


_FLAG_TO_PATH = {
    "corpus": ("corpus",),
    "format": ("format",),
    "filter_type": ("filter_type",),
    "topics": ("lda", "n_topics"),
    "alpha": ("lda", "alpha"),
    "beta": ("lda", "beta"),
    "sweeps": ("lda", "sweeps"),
    "burn_in": ("lda", "burn_in"),
    "seed": ("lda", "seed"),
    "mode": ("lda", "input_mode"),
    "min_df": ("vectorize", "min_df"),
    "max_df_ratio": ("vectorize", "max_df_ratio"),
    "top_m": ("analyze", "top_m"),
    "labels": ("analyze", "labels"),
    "out": ("out",),
}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    raw = json.loads(json.dumps(_DEFAULTS))
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        if not Path(config_path).is_file():
            raise InvalidConfig(f"config file not found: {config_path}")
        try:
            with open(config_path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise InvalidConfig(f"config file {config_path}: not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise InvalidConfig(f"config file {config_path}: not a JSON object")
        _deep_update(raw, payload)
    for flag, path in _FLAG_TO_PATH.items():
        value = getattr(args, flag, None)
        if value is not None:
            target = raw
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
    return RunConfig.from_mapping(raw)


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise InvalidConfig(f"no {what} given (flag or config file)")
    if not Path(path).is_file():
        raise InvalidConfig(f"{what} not found: {path}")
    return path


def _prepare_out_dir(config: RunConfig) -> Path:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_writer(out_dir / "run_config.json") as handle:
        json.dump(config.raw, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    return out_dir


def _load_corpus(config: RunConfig) -> corpus_mod.Corpus:
    path = _require_file(config.corpus_path, "corpus file")
    return corpus_mod.load_corpus(path, config.format)


def _preprocess_config(config: RunConfig) -> preprocess_mod.PreprocessConfig:
    base = preprocess_mod.default_config()
    stopwords = base.stopword_list
    rules = base.lemma_rules
    if config.stopwords_path:
        stopwords = preprocess_mod.load_stopwords(_require_file(config.stopwords_path, "stopwords file"))
    if config.lemma_rules_path:
        rules = preprocess_mod.load_lemma_rules(_require_file(config.lemma_rules_path, "lemma rules file"))
    return preprocess_mod.PreprocessConfig(
        stopword_list=stopwords,
        lemma_rules=rules,
        min_token_length=config.min_token_length,
    )


def _filtered_corpus(config: RunConfig) -> corpus_mod.Corpus:
    corpus = _load_corpus(config)
    if config.filter_type.lower() in ("none", "all", ""):
        return corpus
    return corpus_mod.filter_by_type(corpus, corpus_mod.parse_law_type(config.filter_type))


def _build_matrix(config: RunConfig, corpus: corpus_mod.Corpus):
    """filter -> preprocess -> vocabulary -> counts -> optional tf-idf bridge."""
    documents = preprocess_mod.preprocess_corpus(
        corpus, _preprocess_config(config), on_empty=config.on_empty
    )
    dropped = len(corpus.records) - len(documents)
    if dropped:
        print(f"warning: dropped {dropped} record(s) that preprocess to zero tokens", file=sys.stderr)
    vocab = vectorize_mod.build_vocabulary(documents, config.min_df, config.max_df_ratio)
    matrix = vectorize_mod.count_matrix(documents, vocab)
    if config.lda.input_mode == "tfidf-pseudo":
        weights = vectorize_mod.tfidf(matrix, config.norm)
        matrix = vectorize_mod.to_pseudo_counts(weights, config.pseudo_scale)
    return documents, vocab, matrix


def _labels(config: RunConfig) -> dict[int, str] | None:
    if not config.label_map_path:
        return None
    return analyze_mod.load_labels(_require_file(config.label_map_path, "label map"))


def _align_corpus(corpus: corpus_mod.Corpus, model: lda_mod.LdaModel) -> corpus_mod.Corpus:
    """Subset corpus records to the model's documents, in model order.

    Fit may have dropped empty-preprocess records, so the model can
    cover fewer records than the filtered corpus.
    """
    by_id = {record.id: record for record in corpus.records}
    records = []
    for doc_id in model.doc_ids:
        record = by_id.get(doc_id)
        if record is None:
            raise AlignmentMismatch(f"model document {doc_id!r} not found in the corpus")
        records.append(record)
    return corpus_mod.Corpus(records, source_description=corpus.source_description)


def cmd_ingest(config: RunConfig) -> int:
    corpus = _load_corpus(config)
    out_dir = _prepare_out_dir(config)
    table = corpus_mod.type_counts_by_year(corpus)
    with atomic_writer(out_dir / "stats.csv", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["type"] + [str(year) for year in table.axis_cols])
        for label, row in zip(table.axis_rows, table.counts):
            writer.writerow([label] + row)
    skipped = 0
    with atomic_writer(out_dir / "ratios.csv", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "length_ratio"])
        for record in corpus.records:
            try:
                writer.writerow([record.id, repr(corpus_mod.length_ratio(record))])
            except EmptyContent:
                skipped += 1
    print(f"records: {len(corpus.records)}")
    for label, row in zip(table.axis_rows, table.counts):
        print(f"  {label}: {sum(row)}")
    if skipped:
        print(f"  (skipped {skipped} empty-content record(s) in ratios.csv)")
    return 0


def cmd_fit(config: RunConfig) -> int:
    corpus = _filtered_corpus(config)
    out_dir = _prepare_out_dir(config)
    documents, vocab, matrix = _build_matrix(config, corpus)
    model = lda_mod.fit(matrix, config.lda, vocab)
    lda_mod.save_model(model, out_dir / "model.json")
    with atomic_writer(out_dir / "trace.csv", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sweep", "log_likelihood"])
        for sweep, value in enumerate(model.log_likelihood, start=1):
            writer.writerow([sweep, repr(value)])
    print(
        f"fitted {config.lda.n_topics} topics over {len(documents)} documents, "
        f"{len(vocab)} terms; model written to {out_dir / 'model.json'}"
    )
    return 0


def cmd_analyze(config: RunConfig, model_path: str | None) -> int:
    out_dir = _prepare_out_dir(config)
    model_file = model_path or str(out_dir / "model.json")
    model = lda_mod.load_model(_require_file(model_file, "model file"))
    corpus = _align_corpus(_filtered_corpus(config), model)
    labels = _labels(config)

    summaries = analyze_mod.label_topics(model, labels, top_m=config.top_m)
    analyze_mod.save_topics_json(summaries, out_dir / "topics.json")
    shares = analyze_mod.topic_shares(model, corpus, labels=labels)
    analyze_mod.save_shares_csv(shares, out_dir / "shares.csv")
    trends = analyze_mod.yearly_topic_percentages(
        model, corpus, normalization=config.normalization, labels=labels
    )
    analyze_mod.save_trends_csv(trends, out_dir / "trends.csv")
    n_topics = model.topic_word.shape[0]
    for topic in range(n_topics):
        pairs = analyze_mod.wordcloud_weights(model, topic, min(config.top_m, model.topic_word.shape[1]))
        analyze_mod.save_wordcloud_csv(pairs, out_dir / f"wordcloud_{topic}.csv")
    print(f"analysis written to {out_dir} ({n_topics} topics, {len(corpus.records)} documents)")
    return 0


def cmd_sweep(config: RunConfig, k_grid: list[int]) -> int:
    corpus = _filtered_corpus(config)
    out_dir = _prepare_out_dir(config)
    _, vocab, matrix = _build_matrix(config, corpus)
    rows = []
    for n_topics in sorted(k_grid):
        # 50/K at each K, unless a flag or the config file set alpha.
        alpha = None if config.raw["lda"]["alpha"] is None else config.lda.alpha
        lda_config = replace(config.lda, n_topics=n_topics, alpha=alpha)
        model = lda_mod.fit(matrix, lda_config, vocab)
        top_m = min(config.top_m, matrix.n_terms)
        coherences = lda_mod.coherence_umass(model, matrix, top_m=max(top_m, 2))
        rows.append(
            (
                n_topics,
                sum(coherences) / len(coherences),
                lda_mod.perplexity(model, matrix),
            )
        )
    with atomic_writer(out_dir / "sweep.csv", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_topics", "mean_coherence", "perplexity"])
        for n_topics, coherence, perp in rows:
            writer.writerow([n_topics, repr(coherence), repr(perp)])
    for n_topics, coherence, perp in rows:
        print(f"K={n_topics}: mean coherence {coherence:.4f}, perplexity {perp:.2f}")
    return 0


def _parse_k_grid(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidConfig(f"--k-grid expects comma-separated integers, got {text!r}") from None
    if not values:
        raise InvalidConfig("--k-grid is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lextopic",
        description="Topic-modeling pipeline for law-record corpora.",
    )
    parser.add_argument("--config", help=f"run-config JSON (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--corpus", help="corpus file path")
        cmd.add_argument("--format", choices=["jsonl", "csv"], help="corpus file format")
        cmd.add_argument("--filter-type", dest="filter_type", help="law type to keep ('none' disables)")
        cmd.add_argument("--out", help="output directory")

    def add_model_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--topics", type=int, help="number of topics")
        cmd.add_argument("--alpha", type=float, help="document-topic prior")
        cmd.add_argument("--beta", type=float, help="topic-word prior")
        cmd.add_argument("--sweeps", type=int, help="total Gibbs sweeps")
        cmd.add_argument("--burn-in", dest="burn_in", type=int, help="sweeps discarded before averaging")
        cmd.add_argument("--seed", type=int, help="random seed")
        cmd.add_argument("--mode", choices=["counts", "tfidf-pseudo"], help="sampler input mode")
        cmd.add_argument("--min-df", dest="min_df", type=int, help="minimum document frequency")
        cmd.add_argument("--max-df-ratio", dest="max_df_ratio", type=float, help="maximum df ratio")

    ingest = sub.add_parser("ingest", help="corpus statistics (counts by type/year, length ratios)")
    add_common(ingest)

    fit = sub.add_parser("fit", help="preprocess, vectorize, and fit the topic model")
    add_common(fit)
    add_model_flags(fit)

    sweep = sub.add_parser("sweep", help="fit a grid of topic counts and score each")
    add_common(sweep)
    add_model_flags(sweep)
    sweep.add_argument("--k-grid", dest="k_grid", required=True, help="comma-separated topic counts")
    sweep.add_argument("--top-m", dest="top_m", type=int, help="top words per topic for coherence")

    analyze = sub.add_parser("analyze", help="emit share/trend/top-word tables from a saved model")
    add_common(analyze)
    analyze.add_argument("--model", help="model file (default: <out>/model.json)")
    analyze.add_argument("--top-m", dest="top_m", type=int, help="top words per topic")
    analyze.add_argument("--labels", help="topic label sidecar JSON")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "fit":
            return cmd_fit(config)
        if args.command == "sweep":
            return cmd_sweep(config, _parse_k_grid(args.k_grid))
        if args.command == "analyze":
            return cmd_analyze(config, args.model)
        raise InvalidConfig(f"unknown command {args.command!r}")
    except LextopicError as exc:
        print(f"error [{exc.module}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [cli]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
