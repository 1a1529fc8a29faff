"""End-to-end command-line runs against a small on-disk corpus."""

import argparse
import base64
import csv
import gc
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import lextopic

from conftest import SYNTH_CONFIG, jsonl_row, write_jsonl
from lextopic import _gibbs, _jsonl, cli, lda
from lextopic.cli import SETTINGS, build_parser, main
from lextopic.corpus import SynthConfig, generate_synthetic_corpus, load_corpus, save_corpus
from lextopic.errors import LextopicError
from lextopic.lda import LdaConfig, coherence_umass, fit
from lextopic.preprocess import Document, default_config
from lextopic.vectorize import Vocabulary, count_matrix

FINANCE = "budget finance tax credit revenue"
COURTS = "contract court verdict appeal hearing"


def _rows():
    rows = []
    for i in range(5):
        rows.append(
            jsonl_row(
                f"fin-{i}",
                title="finance notice",
                content=f"{FINANCE} {FINANCE} budget tax",
                date={"raw": "1399/07/01", "year": 1399, "month": 7, "day": 1},
            )
        )
    for i in range(5):
        rows.append(
            jsonl_row(
                f"law-{i}",
                title="court notice",
                content=f"{COURTS} {COURTS} court appeal",
            )
        )
    rows.append(jsonl_row("bill-0", law_type="Bill", content=f"{FINANCE} extras"))
    rows.append(jsonl_row("bill-1", law_type="Bill", content=f"{COURTS} extras"))
    return rows


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, _rows())
    return str(path)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


FIT_FLAGS = ["--topics", "2", "--sweeps", "30", "--burn-in", "10", "--seed", "42"]


class TestIngest:
    def test_stats_and_ratios(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--corpus", corpus_path, "--out", str(out)]) == 0
        stats = _read_csv(out / "stats.csv")
        assert stats[0] == ["type", "2020", "2021"]
        by_type = {row[0]: [int(c) for c in row[1:]] for row in stats[1:]}
        assert by_type["Regulation"] == [5, 5]
        assert by_type["Bill"] == [0, 2]
        ratios = _read_csv(out / "ratios.csv")
        assert ratios[0] == ["id", "length_ratio"]
        assert len(ratios) == 13
        assert "records: 12" in capsys.readouterr().out

    def test_echoes_effective_config(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        main(["ingest", "--corpus", corpus_path, "--out", str(out)])
        echoed = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
        assert echoed["lda"]["n_topics"] == 10
        assert echoed["corpus"] == corpus_path

    def test_takes_no_type_filter(self, corpus_path, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["ingest", "--corpus", corpus_path, "--out", str(tmp_path / "out"), "--filter-type", "Bill"])
        assert "unrecognized arguments: --filter-type" in capsys.readouterr().err


class TestEmptyDocuments:
    @pytest.mark.parametrize("command", [["fit"], ["sweep", "--k-grid", "2"]], ids=["fit", "sweep"])
    @pytest.mark.parametrize("rows, flags", [
        ([jsonl_row(f"r{i}", title="a", content="b c") for i in range(3)], []),
        (_rows(), ["--filter-type", "Law"]),
    ], ids=["every-record-preprocesses-to-nothing", "type-filter-keeps-nothing"])
    def test_zero_documents_end_in_a_vectorize_error(self, tmp_path, capsys, command, rows, flags):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, rows)
        args = [*command, "--corpus", str(path), "--out", str(tmp_path / "out"), "--sweeps", "2", "--burn-in", "0"]
        assert main(args + flags) == 1
        assert capsys.readouterr().err == "error [vectorize]: cannot build a vocabulary from zero documents\n"

    def test_documents_left_with_no_term_are_not_counted_as_a_topic(self, tmp_path, capsys):
        rows = [jsonl_row(f"kept-{i}", title="budget notice", content=FINANCE) for i in range(2)]
        rows += [jsonl_row(f"alone-{i}", title=f"alone{i}", content=f"solo{i} single{i}") for i in range(4)]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, rows)
        out = tmp_path / "out"
        assert main(["fit", "--corpus", str(path), "--out", str(out), "--topics", "3", "--min-df", "2",
                     "--sweeps", "10", "--burn-in", "2"]) == 0
        assert "dropped 4 document(s) with no term left by the document-frequency filters" in capsys.readouterr().err
        assert main(["analyze", "--corpus", str(path), "--out", str(out)]) == 0
        shares = _read_csv(out / "shares.csv")[1:]
        assert sum(int(row[1]) for row in shares) == 2
        assert sum(float(row[2]) for row in shares) == pytest.approx(100.0)
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert model["doc_ids"] == ["kept-0", "kept-1"]

    def test_shares_count_only_modelled_documents(self, tmp_path, capsys):
        rows = [jsonl_row(f"kept-{i}", title="budget notice", content=FINANCE) for i in range(3)]
        rows += [jsonl_row(f"blank-{i}", title="a", content="b c") for i in range(2)]
        rows += [jsonl_row(f"alone-{i}", title=f"alone{i}", content=f"solo{i} single{i}") for i in range(2)]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, rows)
        out = tmp_path / "out"
        assert main(["fit", "--corpus", str(path), "--out", str(out), "--topics", "2", "--min-df", "2",
                     "--sweeps", "10", "--burn-in", "2"]) == 0
        err = capsys.readouterr().err
        assert "dropped 2 record(s) that preprocess to zero tokens" in err
        assert "dropped 2 document(s) with no term left by the document-frequency filters" in err
        assert main(["analyze", "--corpus", str(path), "--out", str(out)]) == 0
        shares = _read_csv(out / "shares.csv")[1:]
        assert sum(int(row[1]) for row in shares) == 3
        assert sum(float(row[2]) for row in shares) == pytest.approx(100.0, abs=1e-9)
        trends = _read_csv(out / "trends.csv")[1:]
        assert sum(int(row[2]) for row in trends) == 3

    def test_documents_whose_pseudo_counts_round_to_zero_are_dropped(self, tmp_path, capsys):
        many = " ".join(f"word{number}" for number in range(500))
        rows = [jsonl_row(f"wide-{i}", title="wide", content=many) for i in range(2)]
        rows += [jsonl_row(f"narrow-{i}", title="narrow", content="budget") for i in range(2)]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, rows)
        out = tmp_path / "out"
        assert main(["fit", "--corpus", str(path), "--out", str(out), "--mode", "tfidf-pseudo", "--topics", "2",
                     "--sweeps", "5", "--burn-in", "1"]) == 0
        assert "dropped 2 document(s) whose pseudo-counts all round to zero" in capsys.readouterr().err
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert model["doc_ids"] == ["narrow-0", "narrow-1"]


class TestFit:
    def test_same_seed_gives_identical_outputs(self, corpus_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = ["fit", "--corpus", corpus_path, "--out", str(out)] + FIT_FLAGS
            assert main(args) == 0
            outs.append(out)
        assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()

    def test_trace_has_one_row_per_sweep(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        main(["fit", "--corpus", corpus_path, "--out", str(out)] + FIT_FLAGS)
        trace = _read_csv(out / "trace.csv")
        assert trace[0] == ["sweep", "log_likelihood"]
        assert len(trace) == 31
        assert trace[1][0] == "1" and trace[-1][0] == "30"
        float(trace[-1][1])

    def test_model_metadata(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        main(["fit", "--corpus", corpus_path, "--out", str(out)] + FIT_FLAGS)
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert model["config"]["n_topics"] == 2
        assert model["config"]["seed"] == 42
        assert model["config"]["input_mode"] == "counts"
        # the two Bill records were filtered before fitting
        assert len(model["doc_ids"]) == 10
        assert all(not doc_id.startswith("bill") for doc_id in model["doc_ids"])

    def test_tfidf_pseudo_mode(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        args = ["fit", "--corpus", corpus_path, "--out", str(out), "--mode", "tfidf-pseudo"]
        assert main(args + FIT_FLAGS[:0] + ["--topics", "2", "--sweeps", "20", "--burn-in", "5"]) == 0
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert model["config"]["input_mode"] == "tfidf-pseudo"

    def _fit_at_scale(self, corpus_path, tmp_path, scale):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vectorize": {"pseudo_scale": scale}}), encoding="utf-8")
        args = ["--config", str(config), "fit", "--corpus", corpus_path, "--out", str(tmp_path / "out"),
                "--mode", "tfidf-pseudo", "--topics", "2", "--sweeps", "2", "--burn-in", "0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's cast of a pseudo-count past int64 warns
            return main(args)

    def test_pseudo_counts_past_int64_are_a_vectorize_error(self, corpus_path, tmp_path, capsys):
        assert self._fit_at_scale(corpus_path, tmp_path, 1e30) == 1
        assert capsys.readouterr().err == (
            "error [vectorize]: a pseudo-count at scale 1e+30 reaches 2**63, past what an int64 count holds\n"
        )

    @pytest.mark.parametrize("kernels", ["compiled", "fallback"])
    def test_a_token_total_the_sampler_cannot_allocate_is_an_lda_error(self, corpus_path, tmp_path, capsys,
                                                                       monkeypatch, kernels):
        # Hundreds of TiB of int64 token slots: an allocation that fails at once.
        if kernels == "fallback":
            monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        assert self._fit_at_scale(corpus_path, tmp_path, 1e12) == 1
        err = capsys.readouterr().err
        total = re.fullmatch(r"error \[lda\]: the matrix holds (\d+) tokens, more than the sampler can hold in memory\n",
                             err)
        assert total and 10**13 < int(total[1]) < 2**60


class TestAnalyze:
    def _fit(self, corpus_path, out):
        main(["fit", "--corpus", corpus_path, "--out", str(out)] + FIT_FLAGS)

    def test_outputs_and_determinism(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        self._fit(corpus_path, out)
        args = ["analyze", "--corpus", corpus_path, "--out", str(out)]
        assert main(args) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("topics.json", "shares.csv", "trends.csv", "wordcloud_0.csv", "wordcloud_1.csv")
        }
        assert main(args) == 0
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload

    def test_shares_sum_to_100(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        self._fit(corpus_path, out)
        main(["analyze", "--corpus", corpus_path, "--out", str(out)])
        shares = _read_csv(out / "shares.csv")[1:]
        assert sum(float(row[2]) for row in shares) == pytest.approx(100.0, abs=0.1)
        assert sum(int(row[1]) for row in shares) == 10

    def test_labels_applied(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        self._fit(corpus_path, out)
        labels = tmp_path / "labels.json"
        labels.write_text('{"0": "Economic"}', encoding="utf-8")
        args = [
            "analyze", "--corpus", corpus_path, "--out", str(out), "--labels", str(labels),
        ]
        assert main(args) == 0
        topics = json.loads((out / "topics.json").read_text(encoding="utf-8"))
        assert topics[0]["label"] == "Economic"
        assert topics[1]["label"] == "topic-1"
        shares = _read_csv(out / "shares.csv")
        assert shares[1][0] == "Economic"

    def test_explicit_model_path(self, corpus_path, tmp_path):
        fit_out = tmp_path / "fit"
        self._fit(corpus_path, fit_out)
        out = tmp_path / "analysis"
        args = [
            "analyze", "--corpus", corpus_path, "--out", str(out),
            "--model", str(fit_out / "model.json"),
        ]
        assert main(args) == 0
        assert (out / "trends.csv").is_file()


class TestSweep:
    def test_grid_rows_sorted_ascending(self, corpus_path, tmp_path):
        out = tmp_path / "out"
        args = [
            "sweep", "--corpus", corpus_path, "--out", str(out),
            "--k-grid", "3,2", "--sweeps", "20", "--burn-in", "5", "--seed", "7",
        ]
        assert main(args) == 0
        rows = _read_csv(out / "sweep.csv")
        assert rows[0] == ["n_topics", "mean_coherence", "perplexity"]
        assert [row[0] for row in rows[1:]] == ["2", "3"]
        for row in rows[1:]:
            float(row[1])
            assert float(row[2]) > 1.0

    def test_alpha_flag_is_used(self, corpus_path, tmp_path):
        def sweep_csv(name, *flags):
            out = tmp_path / name
            args = ["sweep", "--corpus", corpus_path, "--out", str(out), "--k-grid", "2",
                    "--sweeps", "20", "--burn-in", "5", "--seed", "7", *flags]
            assert main(args) == 0
            return (out / "sweep.csv").read_bytes()

        assert sweep_csv("low", "--alpha", "0.1") != sweep_csv("high", "--alpha", "5")
        # With no --alpha, each K gets 50/K.
        assert sweep_csv("default") == sweep_csv("fifty-over-k", "--alpha", "25")

    def test_without_a_compiler_the_fallback_is_announced_once(self, corpus_path, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(_gibbs, "find_compiler", lambda: None)
        args = ["sweep", "--corpus", corpus_path, "--out", str(tmp_path / "out"),
                "--k-grid", "2,3", "--sweeps", "5", "--burn-in", "1"]
        with caplog.at_level(logging.WARNING, logger="lextopic"):
            assert main(args) == 0
        warnings = [record.getMessage() for record in caplog.records if record.levelno == logging.WARNING]
        assert len(warnings) == 1 and "using the Python sweep" in warnings[0]

    def test_bad_grid_rejected(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["sweep", "--corpus", corpus_path, "--out", str(out), "--k-grid", "3,x"]
        assert main(args) == 1
        assert "error [config]" in capsys.readouterr().err

    # A K of 2**63 or more is checked by the lda.n_topics row, as --topics is.
    @pytest.mark.parametrize("grid", ["0,2", "2,2", f"2,{2**63}", str(10**30)])
    def test_grid_below_one_or_repeated_writes_nothing(self, corpus_path, tmp_path, capsys, grid):
        out = tmp_path / "out"
        args = ["sweep", "--corpus", corpus_path, "--out", str(out), "--k-grid", grid]
        assert main(args) == 1
        expected = f"error [config]: --k-grid expects distinct topic counts in [1, 2**63), got {grid!r}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_true_topic_count_scores_higher_than_inflated(self):
        # Structural effect, not a seed artifact: on three-topic data,
        # thirty topics fragment the top-word sets and lose coherence.
        config = SynthConfig(
            n_docs=100,
            n_topics=3,
            vocab_size=30,
            doc_length=30,
            alpha=0.4,
            beta=0.08,
            years=(2020,),
            seed=3,
        )
        corpus, _truth = generate_synthetic_corpus(config)
        docs = [
            Document(record.id, record.content.split(), record.date.gregorian_year)
            for record in corpus.records
        ]
        terms = [f"w{term:03d}" for term in range(config.vocab_size)]
        vocab = Vocabulary(
            terms=terms,
            index={term: position for position, term in enumerate(terms)},
            df=[sum(1 for doc in docs if term in set(doc.tokens)) for term in terms],
        )
        matrix = count_matrix(docs, vocab)
        means = {}
        for n_topics in (3, 30):
            lda_config = LdaConfig(
                n_topics=n_topics, beta=0.08, sweeps=200, burn_in=100, seed=5
            )
            model = fit(matrix, lda_config, vocab)
            scores = coherence_umass(model, matrix, top_m=5)
            means[n_topics] = sum(scores) / len(scores)
        assert means[3] > means[30]


class TestErrors:
    def test_missing_corpus_file(self, tmp_path, capsys):
        args = ["ingest", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert "error [config]" in capsys.readouterr().err

    def test_corpus_error_is_module_tagged(self, tmp_path, capsys):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [jsonl_row("same"), jsonl_row("same")])
        args = ["ingest", "--corpus", str(path), "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert "error [corpus]" in capsys.readouterr().err

    @pytest.mark.parametrize("field, message", [
        ("date", "malformed date 'xxx"),
        ("law_type", "unknown law type 'xxx"),
    ])
    def test_a_long_bad_value_is_quoted_in_part(self, tmp_path, capsys, field, message):
        path = tmp_path / "long.jsonl"
        write_jsonl(path, [jsonl_row("r1", **{field: "x" * 100_000})])
        assert main(["ingest", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error [corpus]: row 1: {message}{'x' * 77}'... (100000 characters)\n"
        )

    @pytest.mark.parametrize("date", [
        '{"year": 1e400, "month": 1, "day": 1}',
        '{"year": 100000000000000000000000, "month": 1, "day": 1}',
        '{"year": 10000, "month": 1, "day": 1}',
        '{"year": true, "month": 1, "day": 1}',
        '{"year": 1400, "month": 4.5, "day": 1}',
        '{"year": 1400, "month": 7, "day": NaN}',
    ])
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_a_dict_date_that_is_no_calendar_date_is_a_corpus_error(self, tmp_path, capsys, date, format):
        rows = [jsonl_row("first"), jsonl_row("second")]
        path = tmp_path / f"corpus.{format}"
        if format == "jsonl":
            lines = [json.dumps(row) for row in rows]
            lines[1] = lines[1].replace(json.dumps(rows[1]["date"]), date)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["id", "title", "content", "law_type", "date"])
                for row, cell in zip(rows, [json.dumps(rows[0]["date"]), date]):
                    writer.writerow([row["id"], row["title"], row["content"], row["law_type"], cell])
        out = tmp_path / "o"
        assert main(["ingest", "--corpus", str(path), "--format", format, "--out", str(out)]) == 1
        # Quoted as JSON; only the parsed value is left, so 1e400 reads Infinity.
        shown = date.replace("1e400", "Infinity")
        assert capsys.readouterr().err == f"error [corpus]: row 2: malformed date {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("date, shown", [
        ('{"year": "\\ud800", "month": 1, "day": 1, "raw": "تاریخ"}',
         '{"year": "\\ud800", "month": 1, "day": 1, "raw": "تاریخ"}'),
        ('{"year": null, "month": [1], "day": {"d": false}}', '{"year": null, "month": [1], "day": {"d": false}}'),
        (f'{{"year": "{"x" * 100}", "month": 1, "day": 1}}', f'{{"year": "{"x" * 70}... (134 characters)'),
    ], ids=["surrogate", "nested", "long"])
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_a_bad_dict_date_is_quoted_as_json(self, tmp_path, capsys, date, shown, format):
        path = tmp_path / f"corpus.{format}"
        if format == "jsonl":
            path.write_text(json.dumps(jsonl_row("r1", date="D")).replace('"D"', date) + "\n", encoding="utf-8")
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                csv.writer(handle).writerows([["id", "title", "content", "law_type", "date"],
                                              ["r1", "t", "body", "Regulation", date]])
        assert main(["ingest", "--corpus", str(path), "--format", format, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error [corpus]: row 1: malformed date {shown}\n"
        err.encode("utf-8")  # a lone surrogate shows as its escape, so a strict UTF-8 stderr can print the line

    def test_unfitted_analyze_fails_cleanly(self, corpus_path, tmp_path, capsys):
        args = ["analyze", "--corpus", corpus_path, "--out", str(tmp_path / "empty")]
        assert main(args) == 1
        assert "error [config]" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["{not json", "42"])
    def test_malformed_jsonl_line_names_its_row(self, tmp_path, capsys, line):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [jsonl_row("first"), jsonl_row("second")])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n" + line + "\n")
        args = ["ingest", "--corpus", str(path), "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert "error [corpus]: row 3: " in capsys.readouterr().err

    def test_top_word_absent_from_scored_matrix(self, tmp_path, capsys):
        # "alpha" is in the vocabulary, but its tf-idf pseudo-count rounds to 0
        # in both documents, so every topic ranks it as a top word that the
        # scored matrix never contains.
        path = tmp_path / "absent.jsonl"
        write_jsonl(
            path,
            [
                jsonl_row("a", title="notice", content="alpha " + "beta " * 30),
                jsonl_row("b", title="notice", content="alpha " + "gamma " * 30),
                jsonl_row("c", title="memo", content="delta " * 30),
            ],
        )
        args = ["sweep", "--corpus", str(path), "--out", str(tmp_path / "o"), "--mode", "tfidf-pseudo",
                "--min-df", "1", "--k-grid", "2", "--sweeps", "5", "--burn-in", "0"]
        assert main(args) == 1
        assert "error [lda]: topic 0 top word" in capsys.readouterr().err


def _drop_doc_topic(payload):
    del payload["doc_topic"]


def _drop_last_doc_id(payload):
    payload["doc_ids"].pop()


def _table(table: dict) -> np.ndarray:
    """A writable copy of a model.json table object's float64 array."""
    return np.frombuffer(base64.b64decode(table["base64"]), "<f8").reshape(table["shape"]).copy()


def _widen_topic_word(payload):
    topic_word = _table(payload["topic_word"])
    payload["topic_word"] = lda._encode_table(np.hstack([topic_word, np.zeros((len(topic_word), 1))]))


def _drop_last_df(payload):
    payload["vocabulary"]["df"].pop()


_LONG = "x" * 100_000
_CUT = f"{'x' * 80!r}... (100000 characters)"
_TOPIC = "1" + "0" * 3999  # a topic id of 4,000 digits, below Python's int digit limit
_TOPIC_CUT = f"{_TOPIC[:80]}... (4000 characters)"


def _config_file(payload):
    return lambda tmp_path, corpus, model: ["--config", _write(tmp_path / "run.json", json.dumps(payload)), "ingest",
                                            "--corpus", corpus]


def _write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _model_file(edit):
    def args(tmp_path, corpus, model):
        payload = json.loads(model.read_text(encoding="utf-8"))
        edit(payload)
        return ["analyze", "--corpus", corpus, "--model", _write(tmp_path / "model.json", json.dumps(payload))]
    return args


def _labels_file(text: str):
    return lambda tmp_path, corpus, model: ["analyze", "--corpus", corpus, "--model", str(model),
                                            "--labels", _write(tmp_path / "labels.json", text)]


def _corpus_file(rows, command, config=None):
    def args(tmp_path, corpus, model):
        path = tmp_path / "long.jsonl"
        write_jsonl(path, rows)
        flags = ["--config", _write(tmp_path / "run.json", json.dumps(config))] if config else []
        return [*flags, command, "--corpus", str(path)] + (FIT_FLAGS if command == "fit" else [])
    return args


class TestLongInputValues:
    """An input that holds one long value ends in one short line: the value cut as errors._quoted cuts it."""

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fit")
        corpus = out / "corpus.jsonl"
        write_jsonl(corpus, _rows())
        assert main(["fit", "--corpus", str(corpus), "--out", str(out)] + FIT_FLAGS) == 0
        return str(corpus), out / "model.json"

    @pytest.mark.parametrize("args, line, written", [
        (_config_file({"format": _LONG}),
         f'error [config]: format must be one of jsonl, csv, got "{"x" * 80}"... (100000 characters)', []),
        (_config_file({"lda": _LONG}),
         f'error [config]: lda must be an object, got "{"x" * 80}"... (100000 characters)', []),
        (_config_file({_LONG: 1}), f"error [config]: unknown config key {_CUT}", []),
        (lambda tmp_path, corpus, model: ["sweep", "--corpus", corpus, "--k-grid", _LONG],
         f"error [config]: --k-grid expects comma-separated integers, got {_CUT}", []),
        (lambda tmp_path, corpus, model: ["sweep", "--corpus", corpus, "--k-grid", "1," * 50_000],
         f"error [config]: --k-grid expects distinct topic counts in [1, 2**63), got {'1,' * 40!r}... "
         "(100000 characters)", []),
        (_corpus_file([jsonl_row(_LONG), jsonl_row(_LONG)], "ingest"),
         f"error [corpus]: row 2: duplicate record id {_CUT}", []),
        (_model_file(lambda payload: payload["doc_ids"].__setitem__(0, _LONG)),
         f"error [analyze]: model documents do not align with corpus records: model document {_CUT} not found in "
         "the corpus", ["run_config.json"]),
        (_model_file(lambda payload: payload["config"].__setitem__(_LONG, 1)),
         "error [lda]: model file {tmp}/model.json: unknown config key " + _CUT, ["run_config.json"]),
        (_corpus_file([*_rows(), jsonl_row(_LONG, title="!", content="?")], "fit",
                      {"preprocess": {"on_empty": "error"}}),
         f"error [preprocess]: record {_CUT} yields no tokens after preprocessing", ["run_config.json"]),
        (_labels_file(json.dumps({_TOPIC: "Economic"})),
         f"error [analyze]: label references topic id {_TOPIC_CUT} outside the model", ["run_config.json"]),
        (_labels_file(json.dumps({_TOPIC: "\ud800"})),
         "error [analyze]: label map {tmp}/labels.json: the label of topic " + _TOPIC_CUT + " is not UTF-8 text",
         ["run_config.json"]),
    ], ids=["config value", "config section", "config key", "k-grid text", "k-grid repeats", "duplicate id",
            "model doc id", "model config key", "empty record", "label topic id", "label of a topic"])
    def test_the_value_is_cut_in_the_one_error_line(self, fitted, tmp_path, capsys, args, line, written):
        out = tmp_path / "o"
        assert main(args(tmp_path, *fitted) + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == line.replace("{tmp}", str(tmp_path)) + "\n" and len(err) < 300
        assert (sorted(entry.name for entry in out.iterdir()) if out.exists() else []) == written


class TestCorruptModelFile:
    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fit")
        corpus = out / "corpus.jsonl"
        write_jsonl(corpus, _rows())
        assert main(["fit", "--corpus", str(corpus), "--out", str(out)] + FIT_FLAGS) == 0
        return corpus, (out / "model.json").read_text(encoding="utf-8")

    def _analyze(self, fitted, tmp_path, text):
        corpus, _ = fitted
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        return main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o"), "--model", str(model)])

    @pytest.mark.parametrize("edit", [_drop_doc_topic, _drop_last_doc_id, _widen_topic_word, _drop_last_df])
    def test_bad_payload_is_an_lda_error(self, fitted, tmp_path, capsys, edit):
        payload = json.loads(fitted[1])
        edit(payload)
        assert self._analyze(fitted, tmp_path, json.dumps(payload)) == 1
        assert capsys.readouterr().err.startswith(f"error [lda]: model file {tmp_path / 'model.json'}: ")

    def test_a_version_1_model_asks_for_a_refit(self, fitted, tmp_path, capsys):
        payload = json.loads(fitted[1])
        # Version 1 stored θ and φ as nested lists of decimal floats.
        payload.update(version=1, doc_topic=_table(payload["doc_topic"]).tolist(),
                       topic_word=_table(payload["topic_word"]).tolist())
        assert self._analyze(fitted, tmp_path, json.dumps(payload)) == 1
        assert capsys.readouterr().err == (
            f"error [lda]: model file {tmp_path / 'model.json'}: not a lextopic-model v2 file: 'lextopic-model' v1; "
            "this version of lextopic does not read v1 files, so refit the model\n"
        )

    @pytest.mark.parametrize("name", ["doc_topic", "topic_word"])
    @pytest.mark.parametrize("edit, detail", [
        (lambda table: table.update(base64="!" + table["base64"][1:]), "base64 does not decode: Only base64 data is allowed"),
        (lambda table: table.update(base64=table["base64"][:-1]), "base64 does not decode: Incorrect padding"),
        (lambda table: table.update(base64="ق" + table["base64"][1:]),
         "base64 does not decode: string argument should contain only ASCII characters"),
        (lambda table: table.update(base64=0), "base64 is not a string"),
        (lambda table: table.update(dtype=">f8"), "dtype is not '<f8'"),
        (lambda table: table["shape"].__setitem__(0, True), "shape is not two integers in [0, 2**63)"),
        (lambda table: table["shape"].append(1), "shape is not two integers in [0, 2**63)"),
        (lambda table: table["shape"].__setitem__(0, table["shape"][0] + 1), "holds {held} bytes, not the {wanted} "
                                                                             "of its shape {shape}"),
        (lambda table: table.update(base64=lda._encode_table(np.full(table["shape"], np.nan))["base64"]),
         "holds a non-finite value"),
    ], ids=["non-base64 character", "bad padding", "non-ASCII character", "number", "big-endian", "true dimension",
            "three dimensions", "one row more than its bytes", "NaN"])
    def test_a_flawed_table_is_an_lda_error_naming_the_file(self, fitted, tmp_path, capsys, name, edit, detail):
        payload = json.loads(fitted[1])
        table = payload[name]
        edit(table)
        if "{" in detail:
            rows, cols = table["shape"]
            detail = detail.format(held=8 * (rows - 1) * cols, wanted=8 * rows * cols, shape=[rows, cols])
        assert self._analyze(fitted, tmp_path, json.dumps(payload, ensure_ascii=False)) == 1
        assert capsys.readouterr().err == f"error [lda]: model file {tmp_path / 'model.json'}: {name} {detail}\n"
        assert sorted(entry.name for entry in (tmp_path / "o").iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("name", ["doc_topic", "topic_word"])
    def test_a_table_of_nested_lists_is_an_lda_error(self, fitted, tmp_path, capsys, name):
        payload = json.loads(fitted[1])
        payload[name] = _table(payload[name]).tolist()
        assert self._analyze(fitted, tmp_path, json.dumps(payload)) == 1
        assert capsys.readouterr().err == f"error [lda]: model file {tmp_path / 'model.json'}: {name} is not an object\n"

    @pytest.mark.parametrize("text", ["{not json", "", "[1, 2]"])
    def test_undecodable_json_is_an_lda_error(self, fitted, tmp_path, capsys, text):
        assert self._analyze(fitted, tmp_path, text) == 1
        assert capsys.readouterr().err.startswith("error [lda]: model file ")


class TestConfigFile:
    def _config_payload(self, corpus_path):
        return {"corpus": corpus_path, "lda": {"n_topics": 2, "sweeps": 25, "burn_in": 5}}

    def test_env_var_supplies_config(self, corpus_path, tmp_path, monkeypatch):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(self._config_payload(corpus_path)), encoding="utf-8")
        monkeypatch.setenv("LEXTOPIC_CONFIG", str(config_path))
        out = tmp_path / "out"
        assert main(["fit", "--out", str(out)]) == 0
        echoed = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
        assert echoed["lda"]["n_topics"] == 2
        assert echoed["lda"]["sweeps"] == 25

    def test_flags_override_config_file(self, corpus_path, tmp_path, monkeypatch):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(self._config_payload(corpus_path)), encoding="utf-8")
        monkeypatch.setenv("LEXTOPIC_CONFIG", str(config_path))
        out = tmp_path / "out"
        assert main(["fit", "--out", str(out), "--topics", "3"]) == 0
        echoed = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
        assert echoed["lda"]["n_topics"] == 3
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert model["config"]["n_topics"] == 3

    def test_missing_config_file_reported(self, tmp_path, capsys):
        args = ["--config", str(tmp_path / "absent.json"), "ingest"]
        assert main(args) == 1
        assert "error [config]" in capsys.readouterr().err


_COMMON_FLAGS = {
    ("--corpus",): ("corpus", None, None, False),
    ("--format",): ("format", None, ["jsonl", "csv"], False),
    ("--filter-type",): ("filter_type", None, None, False),
    ("--out",): ("out", None, None, False),
}
_MODEL_FLAGS = {
    ("--topics",): ("topics", int, None, False),
    ("--alpha",): ("alpha", float, None, False),
    ("--beta",): ("beta", float, None, False),
    ("--sweeps",): ("sweeps", int, None, False),
    ("--burn-in",): ("burn_in", int, None, False),
    ("--seed",): ("seed", int, None, False),
    ("--mode",): ("mode", None, ["counts", "tfidf-pseudo"], False),
    ("--min-df",): ("min_df", int, None, False),
    ("--max-df-ratio",): ("max_df_ratio", float, None, False),
}
FLAG_SURFACE = {
    None: {("--config",): ("config", None, None, False)},
    "ingest": {flags: row for flags, row in _COMMON_FLAGS.items() if flags != ("--filter-type",)},
    "fit": {**_COMMON_FLAGS, **_MODEL_FLAGS},
    "sweep": {
        **_COMMON_FLAGS, **_MODEL_FLAGS,
        ("--k-grid",): ("k_grid", None, None, True),
        ("--top-m",): ("top_m", int, None, False),
    },
    "analyze": {
        **_COMMON_FLAGS,
        ("--model",): ("model", None, None, False),
        ("--top-m",): ("top_m", int, None, False),
        ("--labels",): ("labels", None, None, False),
    },
}


def _flag_surface(parser):
    return {
        tuple(action.option_strings): (
            action.dest, action.type, None if action.choices is None else list(action.choices), action.required
        )
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(sorted({word for setting in SETTINGS for word in setting.choices or ()}))
    | st.sampled_from(["\ud800", "a\u0000b"])
)
_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _mostly(strategy, other=_JSON):
    return st.integers(0, 5).flatmap(lambda roll: other if roll == 0 else strategy)


def _payloads():
    """Known keys at any depth with values of their type, now and then any JSON or an unknown key instead."""
    typed = {int: st.integers(1, 9), float: st.floats(0.01, 1.0) | st.just(1), str: st.text(max_size=6)}
    known, sections = {}, {}
    for setting in SETTINGS:
        *section, name = setting.key.split(".")
        value = _mostly(st.sampled_from(setting.choices) if setting.choices else typed[setting.type])
        (sections.setdefault(section[0], {}) if section else known)[name] = value
    for section, values in sections.items():
        known[section] = _mostly(st.fixed_dictionaries({}, optional=values))
    unknown = _mostly(st.just({}), st.dictionaries(st.text(max_size=6), _JSON, min_size=1, max_size=1))
    return st.tuples(st.fixed_dictionaries({}, optional=known), unknown).map(lambda parts: {**parts[1], **parts[0]})


class TestSettingsTable:
    """Every setting is checked against its row before any output is written."""

    def test_flag_surface(self):
        parser = build_parser()
        subparsers = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        found = {None: _flag_surface(parser)}
        found.update((name, _flag_surface(command)) for name, command in subparsers.choices.items())
        assert found == FLAG_SURFACE

    @pytest.mark.parametrize("payload, key", [
        ({"lda": {"n_topics": 3.7}}, "lda.n_topics"),
        ({"lda": {"n_topics": "abc"}}, "lda.n_topics"),
        ({"lda": {"n_topics": "3"}}, "lda.n_topics"),
        ({"lda": {"seed": True}}, "lda.seed"),
        ({"lda": {"sweeps": None}}, "lda.sweeps"),
        ({"lda": [1]}, "lda"),
        ({"lda": {"n_topic": 3}}, "lda.n_topic"),
        ({"lda.n_topics": 3}, "lda.n_topics"),
        ({"format": 5}, "format"),
        ({"vectorize": {"norm": "l3"}}, "vectorize.norm"),
        ({"preprocess": {"on_empty": "keep"}}, "preprocess.on_empty"),
        ({"analyze": {"normalization": "per_doc"}}, "analyze.normalization"),
        ({"lda": {"beta": float("nan")}}, "lda.beta"),
        ({"out": "\ud800"}, "out"),
        ({"out": "a\u0000b"}, "out"),
    ])
    def test_bad_config_file_value(self, corpus_path, tmp_path, capsys, payload, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(config), "fit", "--corpus", corpus_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [config]: ") and key in [word.strip("'") for word in err.split()]
        assert not out.exists()

    @pytest.mark.parametrize("flags, key", [
        (["fit", "--beta", "nan"], "lda.beta"),
        (["fit", "--alpha", "inf"], "lda.alpha"),
        (["fit", "--min-df", "0"], "vectorize.min_df"),
        (["fit", "--max-df-ratio", "2"], "vectorize.max_df_ratio"),
        (["analyze", "--top-m", "0"], "analyze.top_m"),
        # LdaConfig's own bounds are reported under the same dotted keys.
        (["fit", "--topics", "0"], "lda.n_topics"),
        (["fit", "--beta", "0"], "lda.beta"),
        (["fit", "--seed", "-1"], "lda.seed"),
        (["fit", "--sweeps", "5", "--burn-in", "5"], "lda.burn_in"),
        # A K that rng.integers and the int64 count tables cannot take.
        (["fit", "--topics", str(10**400)], "lda.n_topics"),
        (["fit", "--topics", str(2**63)], "lda.n_topics"),
    ])
    def test_bad_flag_value(self, corpus_path, tmp_path, capsys, flags, key):
        out = tmp_path / "out"
        assert main(flags + ["--corpus", corpus_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error [config]: {key} must ")
        assert not out.exists()

    def test_word_list_settings_leave_the_shared_default_alone(self, corpus_path, tmp_path):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("budget\ncourt\n", encoding="utf-8")
        rules = tmp_path / "rules.txt"
        rules.write_text("s\t\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "preprocess": {"stopwords": str(stopwords), "lemma_rules": str(rules), "min_token_length": 3},
            "lda": {"n_topics": 2, "sweeps": 10, "burn_in": 2},
        }), encoding="utf-8")
        default_args = ["fit", "--corpus", corpus_path, "--min-df", "1", "--topics", "2", "--sweeps", "10",
                        "--burn-in", "2"]
        assert main(default_args + ["--out", str(tmp_path / "before")]) == 0
        assert main(["--config", str(config), "fit", "--corpus", corpus_path, "--min-df", "1",
                     "--out", str(tmp_path / "custom")]) == 0
        assert default_config() == default_config.__wrapped__()
        assert main(default_args + ["--out", str(tmp_path / "after")]) == 0
        for name in ("model.json", "trace.csv"):
            assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()

    def test_run_config_fed_back_reproduces_the_run(self, corpus_path, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"lda": {"beta": 1, "sweeps": 30, "burn_in": 10}}), encoding="utf-8")
        out = tmp_path / "out"
        args = ["--config", str(config), "fit", "--corpus", corpus_path, "--out", str(out), "--topics", "2",
                "--alpha", "0.5", "--seed", "42", "--min-df", "1"]
        assert main(args) == 0
        names = ("run_config.json", "model.json", "trace.csv")
        first = {name: (out / name).read_bytes() for name in names}
        # An integer for a float setting is echoed as the float it was run with.
        assert b'"beta": 1.0,' in first["run_config.json"]
        assert main(["--config", str(out / "run_config.json"), "fit"]) == 0
        assert {name: (out / name).read_bytes() for name in names} == first

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=_payloads())
    def test_any_config_file_runs_or_is_a_config_error(self, corpus_path, tmp_path, capsys, payload):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        code = main(["--config", str(config), "ingest", "--corpus", corpus_path, "--format", "jsonl",
                     "--out", str(out)])
        err = capsys.readouterr().err
        event(f"exit {code}")
        assert code == 0 and err == "" or code == 1 and err.startswith("error [config]: ")
        assert (out / "run_config.json").exists() == (code == 0)
        if code == 0:
            echoed = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
            for name, value in payload.items():
                if isinstance(echoed[name], dict):
                    assert value.items() <= echoed[name].items()
                elif name not in ("corpus", "format", "out"):  # the flags win
                    assert echoed[name] == value


_TEXT = st.text("ab \x00ك", max_size=5) | st.text(st.sampled_from("ab\ud800\udfff"), max_size=5)
_DATE = jsonl_row("r")["date"]


# A BOM, CR, NUL, and JSON and CSV syntax; a lone surrogate only where a CSV cell holds JSON.
_AWKWARD_TEXT = st.text(st.sampled_from("a ,[ك\ufeff\r\n\x00\\\""), max_size=4)
_OR_SURROGATE = _AWKWARD_TEXT | st.sampled_from(["\ud800", "a\udfff"])
# The same as bytes, with bytes that are not UTF-8, escapes to a lone surrogate, and more digits than
# Python's integer string limit (4,300) lets json parse.
_SPLICES = st.sampled_from([
    b"\xef\xbb\xbf", b"\r", b"\x00", b"\\u0000", b"\xff", b"\xed\xa0\x80", b"\\ud800", b"\\udfff", b"\\",
    b'"', b",", b"\n", b"[", b"{", b"}", b"null", b"9" * 4301,
])


@st.composite
def _corpus_files(draw) -> tuple[str, bytes]:
    """A corpus format and file bytes: rows of awkward text with a few splices and cuts, or any bytes at all."""
    format = draw(st.sampled_from(["jsonl", "csv"]))
    if draw(st.integers(0, 4)) == 0:
        return format, draw(st.binary(max_size=300))
    rows = [
        jsonl_row(record_id, title="t" + draw(_AWKWARD_TEXT), tags=draw(st.lists(_OR_SURROGATE, max_size=2)),
                  classes=draw(_AWKWARD_TEXT), date={**_DATE, "raw": draw(_OR_SURROGATE)})
        for record_id in ("a", "b")
    ]
    # json.dumps writes a lone surrogate as the escape \\ud800.
    if format == "jsonl":
        text = "".join(json.dumps(row) + "\n" for row in rows)
    else:
        buffer = io.StringIO(newline="")
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: value if isinstance(value, str) else json.dumps(value) for key, value in row.items()})
        text = buffer.getvalue()
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            data[at:at] = draw(_SPLICES)
        else:
            del data[at:at + draw(st.integers(1, 12))]
    return format, bytes(data)


# model.json's table markers, text the JSON inputs' readers must reject, and the splices above.
_JSON_SPLICES = st.sampled_from([b'"base64": "', b'"shape": [1, 1]', b'"dtype": "<f8"'] + [
    b"1e400", b"-1e400", b"\\ud800", b'"\\ud800"', b"[" * 5000, b"]", b":", b"0", b"-", b"1.5", b"true", b"NaN",
    b'"x"', b"[]", b"{}",
]) | _SPLICES
# Each input file as its flag and a copy of the file that loads; the model's is the fitted one.
_JSON_INPUTS = {
    "--labels": json.dumps({"0": "Economic", "1": "قانون"}, ensure_ascii=False).encode(),
    "--config": json.dumps({"analyze": {"top_m": 3, "normalization": "per_year"}, "format": "jsonl"}).encode(),
    "--model": None,
}


def _model_with_edited_values(model: Path, data) -> bytes:
    """model's bytes with up to two table rows or cells set to 0, a negative or ±1e308, re-encoded at their length."""
    payload = json.loads(model.read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(0, 2), label="value edits")):
        name = data.draw(st.sampled_from(["doc_topic", "topic_word"]), label="table")
        table = _table(payload[name])
        row = data.draw(st.integers(0, len(table) - 1), label="row")
        column = data.draw(st.none() | st.integers(0, table.shape[1] - 1), label="column (none: the whole row)")
        value = data.draw(st.sampled_from([0.0, -0.5, 1e308, -1e308]), label="value")
        table[row if column is None else (row, column)] = value
        payload[name] = lda._encode_table(table)
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


class TestUnreadableInputs:
    """Input files that cannot be read as intended end in `error [<module>]`, exit 1."""

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fit")
        corpus = out / "corpus.jsonl"
        write_jsonl(corpus, _rows())
        assert main(["fit", "--corpus", str(corpus), "--out", str(out)] + FIT_FLAGS) == 0
        return corpus, out / "model.json"

    def _analyze_with_labels(self, fitted, tmp_path, payload: bytes):
        corpus, model = fitted
        labels = tmp_path / "labels.json"
        labels.write_bytes(payload)
        return main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     "--model", str(model), "--labels", str(labels)])

    def test_jsonl_corpus_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.jsonl"
        write_jsonl(path, [jsonl_row("first"), jsonl_row("second", title="café")])
        path.write_bytes(path.read_bytes().replace("café".encode("utf-8"), b"caf\xff"))
        assert main(["ingest", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [corpus]: corpus file {path}: row 2: not UTF-8: invalid start byte")

    def test_csv_corpus_that_is_not_utf8(self, tmp_path, capsys):
        jsonl = tmp_path / "c.jsonl"
        write_jsonl(jsonl, [jsonl_row("first"), jsonl_row("second"), jsonl_row("third", title="café")])
        path = tmp_path / "latin.csv"
        save_corpus(load_corpus(jsonl), path, "csv")
        path.write_bytes(path.read_bytes().replace("café".encode("utf-8"), b"caf\xff"))
        args = ["ingest", "--corpus", str(path), "--format", "csv", "--out", str(tmp_path / "o")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [corpus]: corpus file {path}: row 3: not UTF-8: invalid start byte")

    def test_csv_cell_over_the_field_size_limit(self, tmp_path, capsys):
        jsonl = tmp_path / "c.jsonl"
        write_jsonl(jsonl, [jsonl_row("first", content="word " * 40_000)])
        path = tmp_path / "big.csv"
        save_corpus(load_corpus(jsonl), path, "csv")
        args = ["ingest", "--corpus", str(path), "--format", "csv", "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(
            f"error [corpus]: row 1: malformed CSV: field larger than field limit ({csv.field_size_limit()})")

    def test_jsonl_line_nested_past_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        write_jsonl(path, [jsonl_row("first")])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[" * 100_000 + "\n")
        assert main(["ingest", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "error [corpus]: row 2: malformed JSON line: nested deeper than the recursion limit")

    def test_jsonl_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "digits.jsonl"
        write_jsonl(path, [jsonl_row("first")])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(jsonl_row("second"))[:-1] + ', "extra": ' + "9" * 5000 + "}\n")
        assert main(["ingest", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "error [corpus]: row 2: malformed JSON line: Exceeds the limit (4300 digits) for integer string conversion")

    @pytest.mark.parametrize("name, cell, message", [
        ("tags", "[" + "9" * 5000 + "]", "missing or empty required field 'tags'"),
        ("classes", "[" + "9" * 5000 + "]", "missing or empty required field 'classes'"),
        ("date", '{"year": ' + "9" * 5000 + "}", "malformed date '{\"year\": 999"),
    ], ids=["tags", "classes", "date"])
    def test_csv_cell_integer_past_the_digit_limit(self, tmp_path, capsys, name, cell, message):
        row = {key: value if isinstance(value, str) else json.dumps(value) for key, value in jsonl_row("r").items()}
        path = tmp_path / "digits.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(row))
            writer.writeheader()
            writer.writerow({**row, name: cell})
        args = ["ingest", "--corpus", str(path), "--format", "csv", "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error [corpus]: row 1: {message}")

    @pytest.mark.parametrize("payload, detail", [(b"{not json", "not JSON"), (b"[1]", "not a JSON object")])
    def test_labels_file_that_is_not_a_json_object(self, fitted, tmp_path, capsys, payload, detail):
        assert self._analyze_with_labels(fitted, tmp_path, payload) == 1
        assert capsys.readouterr().err.startswith(f"error [analyze]: label map {tmp_path / 'labels.json'}: {detail}")

    def test_labels_file_with_a_non_integer_key(self, fitted, tmp_path, capsys):
        assert self._analyze_with_labels(fitted, tmp_path, b'{"first": "Economic"}') == 1
        assert "error [analyze]: label map" in capsys.readouterr().err

    def test_label_that_utf8_cannot_hold(self, fitted, tmp_path, capsys):
        assert self._analyze_with_labels(fitted, tmp_path, b'{"0": "Economic", "1": "\\ud800"}') == 1
        assert capsys.readouterr().err.startswith(
            f"error [analyze]: label map {tmp_path / 'labels.json'}: the label of topic 1 is not UTF-8 text")
        assert sorted(path.name for path in (tmp_path / "o").iterdir()) == ["run_config.json"]

    def test_config_key_that_utf8_cannot_hold(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"analyze": {"\\ud800": 1}}')
        args = ["--config", str(config), "ingest", "--corpus", corpus_path, "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error [config]: unknown config key 'analyze.\\ud800'\n")

    def test_model_config_key_that_utf8_cannot_hold(self, fitted, tmp_path, capsys):
        corpus, model = fitted
        path = tmp_path / "model.json"
        path.write_text(model.read_text(encoding="utf-8").replace('"alpha": ', '"\\ud800alpha": ', 1), encoding="utf-8")
        assert main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o"), "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [lda]: model file {path}: ") and "\\ud800alpha" in err

    @pytest.mark.parametrize("flag, message", [
        ("--model", "error [lda]: model file {path}: "),
        ("--config", "error [config]: config file {path}: "),
        ("--labels", "error [analyze]: label map {path}: "),
    ])
    def test_json_file_nested_past_the_recursion_limit(self, fitted, tmp_path, capsys, flag, message):
        corpus, model = fitted
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        args = ["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o"), "--model", str(model)]
        # --config goes before the command; a second --model overrides the first.
        args = [flag, str(path)] + args if flag == "--config" else args + [flag, str(path)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(message.format(path=path) + "nested deeper than the recursion limit")

    @pytest.mark.parametrize("text, detail", [("{not json", "not JSON"), ("[1]", "not a JSON object")])
    def test_config_file_that_is_not_a_json_object(self, corpus_path, tmp_path, capsys, text, detail):
        config = tmp_path / "run.json"
        config.write_text(text, encoding="utf-8")
        args = ["--config", str(config), "ingest", "--corpus", corpus_path, "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error [config]: config file {config}: {detail}")

    @pytest.mark.parametrize("key", ["stopwords", "lemma_rules"])
    def test_word_list_that_is_not_utf8(self, corpus_path, tmp_path, capsys, key):
        words = tmp_path / "words.txt"
        words.write_bytes(b"caf\xff\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"preprocess": {key: str(words)}}), encoding="utf-8")
        args = ["--config", str(config), "fit", "--corpus", corpus_path, "--out", str(tmp_path / "o")] + FIT_FLAGS
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error [preprocess]: word list {words}: not UTF-8")

    @pytest.mark.parametrize("edit, message", [
        (lambda payload: payload.update(log_likelihood="abc"), "log_likelihood is not a list of floats"),
        (lambda payload: payload.update(log_likelihood=[[1.0]]), "log_likelihood is not a list of floats"),
        (lambda payload: payload.update(doc_ids=list(range(len(payload["doc_ids"])))),
         "doc_ids is not a list of strings"),
        (lambda payload: payload["vocabulary"]["df"].__setitem__(0, "1"), "vocabulary df is not a list of integers"),
    ], ids=["string trace", "nested trace", "numeric doc_ids", "string df"])
    def test_model_member_of_the_wrong_type(self, fitted, tmp_path, capsys, edit, message):
        corpus, model = fitted
        payload = json.loads(model.read_text(encoding="utf-8"))
        edit(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        assert main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o"), "--model", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error [lda]: model file {path}: {message}")
        assert sorted(entry.name for entry in (tmp_path / "o").iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("key, text, message", [
        ("n_topics", "2.0", "an integer in [1, 2**63), got 2.0"),
        ("n_topics", "0", "an integer in [1, 2**63), got 0"),
        ("n_topics", "true", "an integer in [1, 2**63), got true"),
        ("n_topics", str(2**63), f"an integer in [1, 2**63), got {2**63}"),
        ("sweeps", "1e400", "an integer >= 1, got Infinity"),
        ("seed", "true", "an integer in [0, 2**64), got true"),
        ("seed", str(2**64), f"an integer in [0, 2**64), got {2**64}"),
        ("beta", '"0.01"', 'a finite number > 0, got "0.01"'),
    ])
    def test_model_config_outside_its_row(self, fitted, tmp_path, capsys, key, text, message):
        corpus, model = fitted
        path = tmp_path / "model.json"
        edited, count = re.subn(rf'"{key}": [^,}}]+', f'"{key}": {text}', model.read_text(encoding="utf-8"), count=1)
        assert count == 1
        path.write_text(edited, encoding="utf-8")
        assert main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o"), "--model", str(path)]) == 1
        assert capsys.readouterr().err == f"error [lda]: model file {path}: lda.{key} must be {message}\n"
        assert sorted(entry.name for entry in (tmp_path / "o").iterdir()) == ["run_config.json"]

    def test_a_topic_row_of_zeros_weighs_every_word_zero(self, fitted, tmp_path, capsys):
        corpus, model = fitted
        payload = json.loads(model.read_text(encoding="utf-8"))
        topic_word = _table(payload["topic_word"])
        topic_word[0] = 0.0
        payload["topic_word"] = lda._encode_table(topic_word)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["analyze", "--corpus", str(corpus), "--out", str(out), "--model", str(path)]) == 0
        rows = _read_csv(out / "wordcloud_0.csv")
        assert len(rows) > 1 and {weight for _, weight in rows[1:]} == {"0.0"}
        assert _read_csv(out / "wordcloud_1.csv")[1][1] == "1.0"

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_json_input_bytes_end_in_exit_0_or_a_lextopic_error(self, fitted, tmp_path, capsys, data):
        corpus, model = fitted
        flag = data.draw(st.sampled_from(sorted(_JSON_INPUTS)), label="flag")
        if data.draw(st.integers(0, 4), label="any bytes") == 0:
            content = data.draw(st.binary(max_size=300), label="content")
        else:
            content = bytearray(_JSON_INPUTS[flag] or _model_with_edited_values(model, data))
            for _ in range(data.draw(st.integers(0 if flag == "--model" else 1, 3), label="edits")):
                at = data.draw(st.integers(0, len(content)), label="at")
                if data.draw(st.booleans(), label="splice"):
                    content[at:at] = data.draw(_JSON_SPLICES, label="splice bytes")
                else:
                    del content[at:at + data.draw(st.integers(1, 40), label="cut")]
        path = tmp_path / "input.json"
        path.write_bytes(bytes(content))
        out = tmp_path / "o"
        shutil.rmtree(out, ignore_errors=True)
        args = ["analyze", "--corpus", str(corpus), "--out", str(out), "--model", str(model)]
        # --config goes before the command; a second --model overrides the first.
        args = [flag, str(path)] + args if flag == "--config" else args + [flag, str(path)]
        capsys.readouterr()
        code = main(args)
        event(f"{flag} exit {code}")
        if code != 0:
            assert code == 1 and capsys.readouterr().err.startswith("error [")
            written = {entry.name for entry in out.iterdir()} if out.exists() else set()
            assert written <= {"run_config.json"}

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(file=_corpus_files())
    def test_any_corpus_bytes_load_or_fail_with_a_lextopic_error(self, tmp_path, capsys, file):
        format, data = file
        path = tmp_path / f"corpus.{format}"
        path.write_bytes(data)
        commands = [["ingest"]]
        try:
            corpus = load_corpus(path, format)
        except LextopicError as exc:
            event(f"{format}: {type(exc).__name__}")
        else:
            event(f"{format}: {len(corpus)} records")
            save_corpus(corpus, tmp_path / f"saved.{format}", format)  # every record loaded can be written as UTF-8
            commands.append(["fit", "--min-df", "1", "--max-df-ratio", "1", "--topics", "2", "--sweeps", "2",
                             "--burn-in", "1"])
        for command in commands:
            shutil.rmtree(tmp_path / "o", ignore_errors=True)
            capsys.readouterr()
            code = main(command + ["--corpus", str(path), "--format", format, "--out", str(tmp_path / "o")])
            assert code == 0 or code == 1 and capsys.readouterr().err.startswith("error [")

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.fixed_dictionaries(
        {"id": _TEXT.map("r{}".format), "title": _TEXT.map("t{}".format), "content": _TEXT, "lead": _TEXT,
         "category": _TEXT},
        optional={"tags": st.lists(_TEXT, max_size=2), "date": _TEXT.map(lambda raw: {**_DATE, "raw": raw})},
    ))
    def test_one_row_of_any_text_ends_in_an_exit_code(self, tmp_path, capsys, fields):
        # json.dumps escapes a lone surrogate as \ud800, which the loader reads back as one.
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(jsonl_row("r", **fields)) + "\n", encoding="utf-8")
        fit = ["fit", "--min-df", "1", "--max-df-ratio", "1", "--topics", "2", "--sweeps", "2", "--burn-in", "1"]
        for command in (["ingest"], fit):
            shutil.rmtree(tmp_path / "o", ignore_errors=True)
            capsys.readouterr()
            code = main(command + ["--corpus", str(path), "--out", str(tmp_path / "o")])
            event(f"{command[0]} exit {code}")
            assert code == 0 or code == 1 and capsys.readouterr().err.startswith("error [")


class TestNonFiniteModel:
    def test_analyze_rejects_non_finite_values(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fit", "--corpus", corpus_path, "--out", str(out)] + FIT_FLAGS) == 0
        model = out / "model.json"
        payload = json.loads(model.read_text(encoding="utf-8"))
        doc_topic, topic_word = _table(payload["doc_topic"]), _table(payload["topic_word"])
        doc_topic[0, 0], topic_word[1, 0] = float("inf"), float("nan")
        payload.update(doc_topic=lda._encode_table(doc_topic), topic_word=lda._encode_table(topic_word))
        model.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", "--corpus", corpus_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error [lda]: model file {model}: doc_topic holds a non-finite value")
        assert not (out / "shares.csv").exists()
        assert not (out / "topics.json").exists()


class TestCollectorPause:
    """main runs each command with the cyclic collector paused, and leaves it on or off as the caller had it."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """gc.isenabled() as each ingest finds it; the collector is turned back on after the test."""
        seen = []
        ingest = cli.cmd_ingest

        def spy(config):
            seen.append(gc.isenabled())
            return ingest(config)

        monkeypatch.setattr(cli, "cmd_ingest", spy)
        yield seen
        gc.enable()

    def test_a_command_runs_paused_and_the_collector_is_on_after(self, seen, corpus_path, tmp_path):
        assert gc.isenabled()
        assert main(["ingest", "--corpus", corpus_path, "--out", str(tmp_path / "out")]) == 0
        assert seen == [False] and gc.isenabled()

    def test_on_after_an_error_exit(self, seen, tmp_path, capsys):
        assert main(["ingest", "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error [")
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("argv, error", [
        (["ingest", "--corpus", "c.jsonl", "--out", "out"], RuntimeError), (["no-such-command"], SystemExit),
    ])
    def test_on_after_an_unexpected_exception(self, seen, monkeypatch, capsys, argv, error):
        def fail(config):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "cmd_ingest", fail)
        with pytest.raises(error):
            main(argv)
        assert gc.isenabled()

    def test_off_after_a_command_when_the_caller_had_it_off(self, seen, corpus_path, tmp_path):
        gc.disable()
        assert main(["ingest", "--corpus", corpus_path, "--out", str(tmp_path / "out")]) == 0
        assert seen == [False] and not gc.isenabled()

    def test_the_garbage_a_fit_leaves_does_not_grow_with_its_sweeps(self, seen, corpus_path, tmp_path):
        # With the collector off from the caller, gc.collect() after a command finds all it left in cycles.
        def garbage(sweeps: int) -> int:
            flags = ["--topics", "2", "--sweeps", str(sweeps), "--burn-in", "1", "--seed", "42"]
            assert main(["fit", "--corpus", corpus_path, "--out", str(tmp_path / "out"), *flags]) == 0
            return gc.collect()

        gc.disable()
        garbage(5)  # what a first fit leaves once
        few, many = garbage(5), garbage(200)
        assert many <= few < 1000


class TestCommandImports:
    def test_each_command_leaves_unneeded_modules_unloaded(self, corpus_path, tmp_path):
        # ingest and analyze need no kernel module (numpy itself imports
        # ctypes). With both libraries already built, no command needs the
        # compiler plumbing, nor numpy.ma, which a plain np.unique imports.
        # Each command runs in a fresh process, after those before it.
        _gibbs.load_kernels()
        _jsonl.load_reader()
        out = str(tmp_path / "out")
        unneeded = ["numpy.ma", "subprocess"]
        commands = [
            ("ingest", ["ingest", "--corpus", corpus_path, "--out", out], ["lextopic._gibbs", *unneeded]),
            ("fit", ["fit", "--corpus", corpus_path, "--out", out] + FIT_FLAGS, unneeded),
            ("sweep", ["sweep", "--corpus", corpus_path, "--out", out, "--k-grid", "2,3", "--sweeps", "5",
                       "--burn-in", "1"], unneeded),
            ("analyze", ["analyze", "--corpus", corpus_path, "--out", out], ["lextopic._gibbs", *unneeded]),
        ]
        source_root = str(Path(lextopic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))
        reports = []
        for name, args, modules in commands:
            script = ["import sys", "from lextopic.cli import main", f"assert main({args!r}) == 0",
                      f"print('loaded after {name}:', sorted(set({modules!r}) & set(sys.modules)))"]
            result = subprocess.run([sys.executable, "-c", "\n".join(script)], capture_output=True, text=True,
                                    env=env, check=True)
            reports += [line for line in result.stdout.splitlines() if line.startswith("loaded after ")]
        assert reports == [f"loaded after {name}: []" for name, _, _ in commands]
