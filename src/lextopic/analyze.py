"""Post-fit analytics: topic attribution, shares, trends, word exports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._files import read_json_object, write_csv, write_json
from .corpus import Corpus
from .errors import AlignmentMismatch, MalformedLabels, UnknownTopicId
from .lda import LdaModel, _term_names
from .trends import PER_TOPIC, PER_YEAR, TrendTable, build_trend_table, year_table

__all__ = [
    "TopicSummary",
    "dominant_topic",
    "topic_shares",
    "yearly_topic_percentages",
    "top_words",
    "label_topics",
    "load_labels",
    "wordcloud_weights",
    "save_topics_json",
    "save_shares_csv",
    "save_trends_csv",
    "save_wordcloud_csv",
]


@dataclass
class TopicSummary:
    topic_id: int
    label: str
    top_words: list[tuple[str, float]]


def dominant_topic(theta_row) -> int:
    """Argmax topic of one document's topic-share row; ties pick the
    lowest index."""
    return int(np.argmax(np.asarray(theta_row)))


def _check_alignment(model: LdaModel, corpus: Corpus) -> None:
    record_ids = [record.id for record in corpus.records]
    if len(record_ids) != len(model.doc_ids):
        raise AlignmentMismatch(
            f"corpus has {len(record_ids)} records, model has {len(model.doc_ids)} documents"
        )
    for position, (record_id, doc_id) in enumerate(zip(record_ids, model.doc_ids)):
        if record_id != doc_id:
            raise AlignmentMismatch(
                f"position {position}: corpus record {record_id!r} vs model document {doc_id!r}"
            )


def _topic_labels(n_topics: int, labels: dict[int, str] | None) -> list[str]:
    labels = labels or {}
    return [labels.get(topic, f"topic-{topic}") for topic in range(n_topics)]


def topic_shares(
    model: LdaModel, corpus: Corpus, labels: dict[int, str] | None = None
) -> TrendTable:
    """Fraction of documents attributed to each topic, single 'all' column."""
    _check_alignment(model, corpus)
    n_topics = model.doc_topic.shape[1]
    dominant = np.argmax(model.doc_topic, axis=1)
    counts = [[count] for count in np.bincount(dominant, minlength=n_topics).tolist()]
    return build_trend_table(
        _topic_labels(n_topics, labels), ["all"], counts, normalization=PER_YEAR
    )


def yearly_topic_percentages(
    model: LdaModel,
    corpus: Corpus,
    normalization: str = PER_TOPIC,
    labels: dict[int, str] | None = None,
) -> TrendTable:
    """Dominant-topic counts per (topic, Gregorian year).

    per_topic spreads each topic's documents across years (row sums
    100); per_year gives each year's topic mix (column sums 100).
    """
    _check_alignment(model, corpus)
    n_topics = model.doc_topic.shape[1]
    return year_table(
        _topic_labels(n_topics, labels), np.argmax(model.doc_topic, axis=1), corpus.records, normalization
    )


def top_words(model: LdaModel, topic_id: int, n: int) -> list[tuple[str, float]]:
    """The n most probable terms of a topic, ties broken lexicographically,
    ranked by LdaModel.top_term_indices."""
    n_topics, n_terms = model.topic_word.shape
    if not 0 <= topic_id < n_topics:
        raise UnknownTopicId(topic_id)
    if not 1 <= n <= n_terms:
        raise ValueError(f"n must be in [1, {n_terms}], got {n}")
    names, row = _term_names(model), model.topic_word[topic_id]
    return [(names[term], float(row[term])) for term in model.top_term_indices(topic_id, n)]


def load_labels(path) -> dict[int, str]:
    """Sidecar JSON object mapping topic id (as a string key) to label.

    A file that is not such an object, or a label that UTF-8 cannot hold
    (a lone surrogate), raises MalformedLabels.
    """
    payload = read_json_object(path, lambda reason: MalformedLabels(path, reason))
    try:
        labels = {int(key): str(value) for key, value in payload.items()}
    except ValueError as exc:
        raise MalformedLabels(path, f"topic ids must be integers: {exc}") from None
    for topic, label in labels.items():
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLabels(path, f"the label of topic {topic} is not UTF-8 text") from None
    return labels


def label_topics(
    model: LdaModel, label_map: dict[int, str] | None = None, top_m: int = 10
) -> list[TopicSummary]:
    """Attach human-assigned labels; unlabeled topics get "topic-k"."""
    n_topics, n_terms = model.topic_word.shape
    label_map = label_map or {}
    for topic_id in label_map:
        if not 0 <= topic_id < n_topics:
            raise UnknownTopicId(topic_id)
    top_m = min(top_m, n_terms)
    return [
        TopicSummary(
            topic_id=topic,
            label=label_map.get(topic, f"topic-{topic}"),
            top_words=top_words(model, topic, top_m),
        )
        for topic in range(n_topics)
    ]


def wordcloud_weights(model: LdaModel, topic_id: int, n: int) -> list[tuple[str, float]]:
    """top_words rescaled so the heaviest term weighs exactly 1.0."""
    pairs = top_words(model, topic_id, n)
    peak = pairs[0][1]
    return [(term, probability / peak) for term, probability in pairs]


# --- deterministic file exports ---------------------------------------------

def save_topics_json(summaries: list[TopicSummary], path) -> None:
    payload = [
        {
            "topic_id": summary.topic_id,
            "label": summary.label,
            "top_words": [[term, probability] for term, probability in summary.top_words],
        }
        for summary in summaries
    ]
    write_json(path, payload)


def save_shares_csv(table: TrendTable, path) -> None:
    rows = zip(table.axis_rows, table.counts, table.percentages)
    write_csv(path, ["topic", "count", "percent"], ((label, count, percent) for label, [count], [percent] in rows))


def save_trends_csv(table: TrendTable, path) -> None:
    rows = (
        (label, year, count, percent, table.normalization)
        for label, counts, percents in zip(table.axis_rows, table.counts, table.percentages)
        for year, count, percent in zip(table.axis_cols, counts, percents)
    )
    write_csv(path, ["topic", "year", "count", "percent", "normalization"], rows)


def save_wordcloud_csv(pairs: list[tuple[str, float]], path) -> None:
    write_csv(path, ["term", "weight"], ((term, weight) for term, weight in pairs))
