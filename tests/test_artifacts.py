"""The exact bytes of every table artifact, from small hand-computed fixtures.

Each expected file is written out in full: comma-separated cells, CRLF line
ends for CSV, floats as Python's shortest repr (100/3 is 33.333333333333336)
and UTF-8 JSON with non-ASCII text kept as is.
"""

import hashlib

import numpy as np
import pytest

from conftest import jsonl_row, make_record, write_jsonl
from lextopic import lda as lda_mod
from lextopic.analyze import (
    label_topics,
    save_shares_csv,
    save_topics_json,
    save_trends_csv,
    save_wordcloud_csv,
    topic_shares,
    wordcloud_weights,
    yearly_topic_percentages,
)
from lextopic.cli import main
from lextopic.corpus import Corpus
from lextopic.lda import LdaConfig, LdaModel
from lextopic.trends import PER_TOPIC, PER_YEAR
from lextopic.vectorize import Vocabulary

Y2020 = {"raw": "1399/07/01", "year": 1399, "month": 7, "day": 1}


def _vocab(terms, df):
    return Vocabulary(terms=terms, index={term: i for i, term in enumerate(terms)}, df=df)


def _model(log_likelihood=()):
    """Four documents over three topics: dominant topics 0, 1, 0, 0; topic 2 is empty."""
    return LdaModel(
        config=LdaConfig(n_topics=3, alpha=1.0, beta=0.1, sweeps=2, burn_in=1),
        doc_topic=np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.5, 0.25, 0.25], [0.4, 0.35, 0.25]]),
        topic_word=np.array([[0.25, 0.25, 0.5], [0.6, 0.2, 0.2], [0.1, 0.3, 0.6]]),
        doc_ids=["d0", "d1", "d2", "d3"],
        log_likelihood=list(log_likelihood),
        vocab=_vocab(["b", "a", "c"], [3, 2, 1]),
    )


def _corpus():
    years = [2020, 2020, 2021, 2021]
    return Corpus([make_record(f"d{i}", year=year) for i, year in enumerate(years)])


def _bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_stats_ratios_and_run_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEXTOPIC_CONFIG", raising=False)
    write_jsonl(tmp_path / "corpus.jsonl", [
        jsonl_row("r1", title="t", content="abc", date=Y2020),
        jsonl_row("r2", title="ab", content="abc"),
        jsonl_row("r3", law_type="Bill", title="abc", content="ab"),
        jsonl_row("r4", law_type="Bill", title="empty", content="   "),
    ])
    assert main(["ingest", "--corpus", "corpus.jsonl", "--out", "out"]) == 0
    assert _bytes("out/stats.csv") == b"type,2020,2021\r\nBill,0,2\r\nRegulation,1,1\r\n"
    assert _bytes("out/ratios.csv") == b"id,length_ratio\r\nr1,0.3333333333333333\r\nr2,0.6666666666666666\r\nr3,1.5\r\n"
    assert _bytes("out/run_config.json").decode("utf-8") == """\
{
  "corpus": "corpus.jsonl",
  "format": "jsonl",
  "filter_type": "Regulation",
  "preprocess": {
    "stopwords": null,
    "lemma_rules": null,
    "min_token_length": 2,
    "on_empty": "drop"
  },
  "vectorize": {
    "min_df": 2,
    "max_df_ratio": 0.95,
    "norm": "l2",
    "pseudo_scale": 10.0
  },
  "lda": {
    "n_topics": 10,
    "alpha": null,
    "beta": 0.01,
    "sweeps": 1000,
    "burn_in": 500,
    "seed": 0,
    "input_mode": "counts"
  },
  "analyze": {
    "top_m": 10,
    "normalization": "per_topic",
    "labels": null
  },
  "out": "out"
}
"""


def test_shares_and_trends(tmp_path):
    model, corpus = _model(), _corpus()
    labels = {1: "سیاسی"}
    save_shares_csv(topic_shares(model, corpus, labels=labels), tmp_path / "shares.csv")
    assert _bytes(tmp_path / "shares.csv").decode("utf-8") == (
        "topic,count,percent\r\ntopic-0,3,75.0\r\nسیاسی,1,25.0\r\ntopic-2,0,0.0\r\n"
    )
    save_trends_csv(yearly_topic_percentages(model, corpus, PER_TOPIC), tmp_path / "per_topic.csv")
    assert _bytes(tmp_path / "per_topic.csv") == (
        b"topic,year,count,percent,normalization\r\n"
        b"topic-0,2020,1,33.333333333333336,per_topic\r\n"
        b"topic-0,2021,2,66.66666666666667,per_topic\r\n"
        b"topic-1,2020,1,100.0,per_topic\r\n"
        b"topic-1,2021,0,0.0,per_topic\r\n"
        b"topic-2,2020,0,0.0,per_topic\r\n"
        b"topic-2,2021,0,0.0,per_topic\r\n"
    )
    save_trends_csv(yearly_topic_percentages(model, corpus, PER_YEAR), tmp_path / "per_year.csv")
    assert _bytes(tmp_path / "per_year.csv") == (
        b"topic,year,count,percent,normalization\r\n"
        b"topic-0,2020,1,50.0,per_year\r\n"
        b"topic-0,2021,2,100.0,per_year\r\n"
        b"topic-1,2020,1,50.0,per_year\r\n"
        b"topic-1,2021,0,0.0,per_year\r\n"
        b"topic-2,2020,0,0.0,per_year\r\n"
        b"topic-2,2021,0,0.0,per_year\r\n"
    )


def test_topics_json_and_word_cloud(tmp_path):
    model = _model()
    save_topics_json(label_topics(model, {1: "سیاسی"}, top_m=2), tmp_path / "topics.json")
    # Topic 0 ties "b" and "a" at 0.25: the tie goes by term name.
    assert _bytes(tmp_path / "topics.json").decode("utf-8") == """\
[
  {
    "topic_id": 0,
    "label": "topic-0",
    "top_words": [
      [
        "c",
        0.5
      ],
      [
        "a",
        0.25
      ]
    ]
  },
  {
    "topic_id": 1,
    "label": "سیاسی",
    "top_words": [
      [
        "b",
        0.6
      ],
      [
        "a",
        0.2
      ]
    ]
  },
  {
    "topic_id": 2,
    "label": "topic-2",
    "top_words": [
      [
        "c",
        0.6
      ],
      [
        "a",
        0.3
      ]
    ]
  }
]
"""
    save_wordcloud_csv(wordcloud_weights(model, 1, 3), tmp_path / "wordcloud_1.csv")
    assert _bytes(tmp_path / "wordcloud_1.csv") == (
        b"term,weight\r\nb,1.0\r\na,0.33333333333333337\r\nc,0.33333333333333337\r\n"
    )


@pytest.fixture
def fit_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEXTOPIC_CONFIG", raising=False)
    write_jsonl(tmp_path / "corpus.jsonl", [jsonl_row(f"r{i}", content="budget finance tax") for i in range(4)])
    return ["--corpus", "corpus.jsonl", "--out", "out", "--sweeps", "2", "--burn-in", "1",
            "--min-df", "1", "--max-df-ratio", "1"]


def test_trace(fit_corpus, monkeypatch):
    monkeypatch.setattr(lda_mod, "fit", lambda matrix, config, vocab: _model([-12.0, -28.0 / 3]))
    assert main(["fit", *fit_corpus]) == 0
    assert _bytes("out/trace.csv") == b"sweep,log_likelihood\r\n1,-12.0\r\n2,-9.333333333333334\r\n"


def test_sweep(fit_corpus, monkeypatch):
    monkeypatch.setattr(lda_mod, "fit", lambda matrix, config, vocab: _model())
    monkeypatch.setattr(lda_mod, "coherence_umass", lambda model, matrix, top_m: [-1.0, -2.0, -2.0])
    monkeypatch.setattr(lda_mod, "perplexity", lambda model, matrix: 100.0 / 3)
    assert main(["sweep", "--k-grid", "3,2", *fit_corpus]) == 0
    assert _bytes("out/sweep.csv") == (
        b"n_topics,mean_coherence,perplexity\r\n2,-1.6666666666666667,33.333333333333336\r\n"
        b"3,-1.6666666666666667,33.333333333333336\r\n"
    )


# The whole file: θ and φ as base64 of their float64 bytes, and the log p(w | z) trace.
MODEL_SHA256 = "bd0edbae64e3d847ca539a55f28a111db966336c4ce1d9fb66c398bc990cac98"
# The bytes before the trace (config, vocabulary, doc_ids, θ and φ), pinned apart from it: a change to the
# traced statistic moves MODEL_SHA256 but must leave these.
MODEL_HEAD_SHA256 = "81d541fc88cecd6f9c152da5c75f3c54656c1f129cb86aba58a0310d2affea80"


def test_model(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEXTOPIC_CONFIG", raising=False)
    words = ["budget", "finance", "tax", "court", "judge", "قانون", "law", "appeal"]
    write_jsonl(tmp_path / "corpus.jsonl", [
        jsonl_row(f"r{i}", content=" ".join(words[i * j % 8] for j in range(1, 9))) for i in range(6)
    ])
    assert main(["fit", "--corpus", "corpus.jsonl", "--out", "out", "--topics", "3", "--sweeps", "4",
                 "--burn-in", "1", "--seed", "7", "--beta", "1e-6", "--min-df", "1", "--max-df-ratio", "1"]) == 0
    text = _bytes("out/model.json")
    assert text.endswith(b"]}\n")
    assert hashlib.sha256(text[:text.index(b', "log_likelihood": ')]).hexdigest() == MODEL_HEAD_SHA256
    assert hashlib.sha256(text).hexdigest() == MODEL_SHA256
