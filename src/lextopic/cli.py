"""Batch command-line front door: ingest | fit | sweep | analyze.

A JSON run-configuration file (via --config or the LEXTOPIC_CONFIG env
var) supplies defaults; command-line flags win over the file. Every
command echoes the effective configuration into the output directory so
a run can be reproduced from its artifacts alone.

Each setting is one row of SETTINGS: its dotted key in run_config.json,
its check, its default, its flag and the commands that take the flag.
The defaults, the parser's flags and the checks all come from that table.
The lda rows are lda.SETTINGS, by which LdaConfig checks its own fields.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import analyze as analyze_mod
from . import corpus as corpus_mod
from . import lda as lda_mod
from . import preprocess as preprocess_mod
from . import vectorize as vectorize_mod
from ._files import read_json_object, write_csv, write_json
from .errors import AlignmentMismatch, EmptyContent, InvalidConfig, LextopicError, _as_json, _quoted
from .lda import AT_LEAST_1, POSITIVE, Limit, Setting

__all__ = ["RunConfig", "SETTINGS", "main"]

CONFIG_ENV_VAR = "LEXTOPIC_CONFIG"

_ALL = ("ingest", "fit", "sweep", "analyze")
_MODEL = ("fit", "sweep")
_PREPROCESS = {field.name: field.default for field in fields(preprocess_mod.PreprocessConfig)}

# Row order is run_config.json's key order; the lda rows are lda.SETTINGS.
SETTINGS = (
    Setting("corpus", str, None, "--corpus", _ALL, "corpus file path"),
    Setting("format", str, "jsonl", "--format", _ALL, "corpus file format", choices=("jsonl", "csv")),
    Setting("filter_type", str, "Regulation", "--filter-type", ("fit", "sweep", "analyze"),
            "law type to keep ('none' disables)"),
    Setting("preprocess.stopwords", str, None, help="stopword list file (default: the bundled list)"),
    Setting("preprocess.lemma_rules", str, None, help="lemma rules file (default: the bundled rules)"),
    Setting("preprocess.min_token_length", int, _PREPROCESS["min_token_length"], help="shortest token kept"),
    Setting("preprocess.on_empty", str, "drop", help="a record that preprocesses to zero tokens",
            choices=("drop", "error")),
    Setting("vectorize.min_df", int, 2, "--min-df", _MODEL, "minimum document frequency", limit=AT_LEAST_1),
    Setting("vectorize.max_df_ratio", float, 0.95, "--max-df-ratio", _MODEL, "maximum df ratio",
            limit=Limit("in (0, 1]", lambda value: 0 < value <= 1)),
    Setting("vectorize.norm", str, "l2", help="tf-idf row norm (tfidf-pseudo mode)", choices=("l2", "none")),
    Setting("vectorize.pseudo_scale", float, 10.0, help="tf-idf weight scale before rounding to pseudo-counts",
            limit=POSITIVE),
    *lda_mod.SETTINGS,
    Setting("analyze.top_m", int, 10, "--top-m", ("sweep", "analyze"),
            "top words per topic (sweep: for coherence)", limit=AT_LEAST_1),
    Setting("analyze.normalization", str, "per_topic", help="yearly trend percentages",
            choices=("per_topic", "per_year")),
    Setting("analyze.labels", str, None, "--labels", ("analyze",), "topic label sidecar JSON"),
    Setting("out", str, "out", "--out", _ALL, "output directory"),
)

_BY_PATH = {tuple(setting.key.split(".")): setting for setting in SETTINGS}
_SECTIONS = {path[0] for path in _BY_PATH if len(path) == 2}


@dataclass
class RunConfig:
    """Checked settings for one command, nested as in run_config.json."""

    settings: dict
    lda: lda_mod.LdaConfig

    def __getitem__(self, key: str):
        """The setting at a dotted key, e.g. config["vectorize.min_df"]."""
        *section, name = key.split(".")
        return (self.settings[section[0]] if section else self.settings)[name]


def _file_values(payload: dict) -> dict[tuple[str, ...], object]:
    """A config file's values by path; an unknown key or a section that is not an object is rejected."""
    values = {}
    for name, value in payload.items():
        if name not in _SECTIONS:
            values[(name,)] = value
        elif isinstance(value, dict):
            values.update(((name, key), item) for key, item in value.items())
        else:
            raise InvalidConfig(f"{name} must be an object, got {_quoted(value, _as_json)}")
    for path in values:
        if path not in _BY_PATH:
            raise InvalidConfig(f"unknown config key {_quoted('.'.join(path))}")
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < flags, each value checked before any output is written."""
    payload = {}
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        if not Path(config_path).is_file():
            raise InvalidConfig(f"config file not found: {config_path}")
        payload = read_json_object(config_path, lambda reason: InvalidConfig(f"config file {config_path}: {reason}"))
    values = _file_values(payload)
    settings: dict = {}
    for path, setting in _BY_PATH.items():
        value = setting.check(values[path]) if path in values else setting.default
        given = getattr(args, setting.flag[2:].replace("-", "_"), None) if setting.flag else None
        if given is not None:
            value = setting.check(given)
        section = settings.setdefault(path[0], {}) if len(path) == 2 else settings
        section[path[-1]] = value
    return RunConfig(settings, lda_mod.LdaConfig(**settings["lda"]))


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise InvalidConfig(f"no {what} given (flag or config file)")
    if not Path(path).is_file():
        raise InvalidConfig(f"{what} not found: {path}")
    return path


def _prepare_out_dir(config: RunConfig) -> Path:
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "run_config.json", config.settings)
    return out_dir


def _load_corpus(config: RunConfig) -> corpus_mod.Corpus:
    path = _require_file(config["corpus"], "corpus file")
    return corpus_mod.load_corpus(path, config["format"])


def _preprocess_config(config: RunConfig) -> preprocess_mod.PreprocessConfig:
    # A copy: default_config() is cached and shared by every caller in the process.
    result = replace(preprocess_mod.default_config(), min_token_length=config["preprocess.min_token_length"])
    if config["preprocess.stopwords"]:
        path = _require_file(config["preprocess.stopwords"], "stopwords file")
        result.stopword_list = preprocess_mod.load_stopwords(path)
    if config["preprocess.lemma_rules"]:
        path = _require_file(config["preprocess.lemma_rules"], "lemma rules file")
        result.lemma_rules = preprocess_mod.load_lemma_rules(path)
    return result


def _filtered_corpus(config: RunConfig) -> corpus_mod.Corpus:
    corpus = _load_corpus(config)
    filter_type = config["filter_type"]
    if filter_type.lower() in ("none", "all", ""):
        return corpus
    return corpus_mod.filter_by_type(corpus, corpus_mod.parse_law_type(filter_type))


def _build_matrix(config: RunConfig, corpus: corpus_mod.Corpus):
    """preprocess -> vocabulary -> counts -> optional tf-idf bridge.

    A document left with no entries, by the document-frequency filters or
    by pseudo-counts that all round to 0, is dropped, so that no topic
    share counts a document the sampler never saw.
    """
    vocab, matrix = vectorize_mod.count_corpus(
        corpus, _preprocess_config(config), config["vectorize.min_df"], config["vectorize.max_df_ratio"],
        config["preprocess.on_empty"],
    )
    _warn_dropped(len(corpus.records) - matrix.n_docs, "record(s) that preprocess to zero tokens")
    matrix = _drop_empty_rows(matrix, "document(s) with no term left by the document-frequency filters")
    if config.lda.input_mode == "tfidf-pseudo":
        weights = vectorize_mod.tfidf(matrix, config["vectorize.norm"])
        matrix = vectorize_mod.to_pseudo_counts(weights, config["vectorize.pseudo_scale"])
        matrix = _drop_empty_rows(matrix, "document(s) whose pseudo-counts all round to zero")
    return vocab, matrix


def _drop_empty_rows(matrix: vectorize_mod.DocTermMatrix, what: str) -> vectorize_mod.DocTermMatrix:
    kept = vectorize_mod.drop_empty_rows(matrix)
    _warn_dropped(matrix.n_docs - kept.n_docs, what)
    return kept


def _warn_dropped(count: int, what: str) -> None:
    if count:
        print(f"warning: dropped {count} {what}", file=sys.stderr)


def _labels(config: RunConfig) -> dict[int, str] | None:
    if not config["analyze.labels"]:
        return None
    return analyze_mod.load_labels(_require_file(config["analyze.labels"], "label map"))


def _align_corpus(corpus: corpus_mod.Corpus, model: lda_mod.LdaModel) -> corpus_mod.Corpus:
    """Subset corpus records to the model's documents, in model order.

    Fit may have dropped records that preprocess to zero tokens or keep
    no term, so the model can cover fewer records than the filtered corpus.
    """
    by_id = {record.id: record for record in corpus.records}
    records = []
    for doc_id in model.doc_ids:
        record = by_id.get(doc_id)
        if record is None:
            raise AlignmentMismatch(f"model document {_quoted(doc_id)} not found in the corpus")
        records.append(record)
    return corpus_mod.Corpus(records)


def cmd_ingest(config: RunConfig) -> int:
    corpus = _load_corpus(config)
    out_dir = _prepare_out_dir(config)
    table = corpus_mod.type_counts_by_year(corpus)
    rows = ([label, *counts] for label, counts in zip(table.axis_rows, table.counts))
    write_csv(out_dir / "stats.csv", ["type", *table.axis_cols], rows)
    skipped = []

    def ratios():
        for record in corpus.records:
            try:
                yield record.id, corpus_mod.length_ratio(record)
            except EmptyContent:
                skipped.append(record.id)

    write_csv(out_dir / "ratios.csv", ["id", "length_ratio"], ratios())
    print(f"records: {len(corpus.records)}")
    for label, row in zip(table.axis_rows, table.counts):
        print(f"  {label}: {sum(row)}")
    if skipped:
        print(f"  (skipped {len(skipped)} empty-content record(s) in ratios.csv)")
    return 0


def cmd_fit(config: RunConfig) -> int:
    corpus = _filtered_corpus(config)
    out_dir = _prepare_out_dir(config)
    vocab, matrix = _build_matrix(config, corpus)
    model = lda_mod.fit(matrix, config.lda, vocab)
    lda_mod.save_model(model, out_dir / "model.json")
    write_csv(out_dir / "trace.csv", ["sweep", "log_likelihood"], enumerate(model.log_likelihood, start=1))
    print(
        f"fitted {config.lda.n_topics} topics over {matrix.n_docs} documents, "
        f"{len(vocab)} terms; model written to {out_dir / 'model.json'}"
    )
    return 0


def cmd_analyze(config: RunConfig, model_path: str | None) -> int:
    out_dir = _prepare_out_dir(config)
    model_file = model_path or str(out_dir / "model.json")
    model = lda_mod.load_model(_require_file(model_file, "model file"))
    corpus = _align_corpus(_filtered_corpus(config), model)
    labels = _labels(config)

    top_m = config["analyze.top_m"]
    summaries = analyze_mod.label_topics(model, labels, top_m=top_m)
    analyze_mod.save_topics_json(summaries, out_dir / "topics.json")
    shares = analyze_mod.topic_shares(model, corpus, labels=labels)
    analyze_mod.save_shares_csv(shares, out_dir / "shares.csv")
    trends = analyze_mod.yearly_topic_percentages(
        model, corpus, normalization=config["analyze.normalization"], labels=labels
    )
    analyze_mod.save_trends_csv(trends, out_dir / "trends.csv")
    n_topics = model.topic_word.shape[0]
    for topic in range(n_topics):
        pairs = analyze_mod.wordcloud_weights(model, topic, min(top_m, model.topic_word.shape[1]))
        analyze_mod.save_wordcloud_csv(pairs, out_dir / f"wordcloud_{topic}.csv")
    print(f"analysis written to {out_dir} ({n_topics} topics, {len(corpus.records)} documents)")
    return 0


def cmd_sweep(config: RunConfig, k_grid: list[int]) -> int:
    corpus = _filtered_corpus(config)
    out_dir = _prepare_out_dir(config)
    vocab, matrix = _build_matrix(config, corpus)
    rows = []
    for n_topics in sorted(k_grid):
        # 50/K at each K, unless a flag or the config file set alpha.
        lda_config = replace(config.lda, n_topics=n_topics, alpha=config["lda.alpha"])
        model = lda_mod.fit(matrix, lda_config, vocab)
        top_m = min(config["analyze.top_m"], matrix.n_terms)
        coherences = lda_mod.coherence_umass(model, matrix, top_m=max(top_m, 2))
        rows.append(
            (
                n_topics,
                sum(coherences) / len(coherences),
                lda_mod.perplexity(model, matrix),
            )
        )
    write_csv(out_dir / "sweep.csv", ["n_topics", "mean_coherence", "perplexity"], rows)
    for n_topics, coherence, perp in rows:
        print(f"K={n_topics}: mean coherence {coherence:.4f}, perplexity {perp:.2f}")
    return 0


def _parse_k_grid(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidConfig(f"--k-grid expects comma-separated integers, got {_quoted(text)}") from None
    if not values:
        raise InvalidConfig("--k-grid is empty")
    limit = _BY_PATH[("lda", "n_topics")].limit
    if not all(limit.holds(value) for value in values) or len(set(values)) < len(values):
        raise InvalidConfig(f"--k-grid expects distinct topic counts {limit.text}, got {_quoted(text)}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lextopic",
        description="Topic-modeling pipeline for law-record corpora.",
    )
    parser.add_argument("--config", help=f"run-config JSON (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "ingest": sub.add_parser("ingest", help="corpus statistics (counts by type/year, length ratios)"),
        "fit": sub.add_parser("fit", help="preprocess, vectorize, and fit the topic model"),
        "sweep": sub.add_parser("sweep", help="fit a grid of topic counts and score each"),
        "analyze": sub.add_parser("analyze", help="emit share/trend/top-word tables from a saved model"),
    }
    for setting in SETTINGS:
        for name in setting.commands:
            commands[name].add_argument(
                setting.flag, type=None if setting.type is str else setting.type,
                choices=setting.choices, help=setting.help,
            )
    commands["sweep"].add_argument("--k-grid", dest="k_grid", required=True, help="comma-separated topic counts")
    commands["analyze"].add_argument("--model", help="model file (default: <out>/model.json)")
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
        raise InvalidConfig(f"unknown command {_quoted(args.command)}")
    except LextopicError as exc:
        print(f"error [{exc.module}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [cli]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
