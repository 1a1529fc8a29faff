"""The benchmark's corpus-load probe still wraps the function the commands call.

``bench/spans.py`` times layers by replacing module attributes by name;
a probe whose target is renamed, or that the commands stop calling,
reads 0 without failing the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from conftest import jsonl_row, write_jsonl
from lextopic.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_load_probe_resolves_and_fires_during_ingest(tmp_path, monkeypatch):
    spans = _spans_module(monkeypatch)
    probes = [probe for probe in spans.PROBES if probe.target == "corpus.load_corpus"]
    assert len(probes) == 1
    probe = probes[0]
    module_name, attribute = probe.target.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"lextopic.{module_name}"), attribute, None))

    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [jsonl_row("a"), jsonl_row("b"), jsonl_row("c", law_type="Bill")])
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_pass(0)
        assert main(["ingest", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0
        metrics = tracer.end_pass(1.0)
    finally:
        tracer.remove()
    assert tracer.sums[0]["calls"].get("corpus.load_corpus") == 1
    assert metrics["corpus.records"] == 3
    assert metrics[probe.metric] > 0


def test_matrix_observers_read_the_traced_fit_and_sweep(tmp_path, monkeypatch):
    spans = _spans_module(monkeypatch)
    corpus = tmp_path / "corpus.jsonl"
    words = ["budget", "tax", "court", "appeal", "credit", "verdict"]
    write_jsonl(corpus, [jsonl_row(f"r{i}", content=" ".join(words[(i + j) % 6] for j in range(9))) for i in range(6)])
    common = ["--corpus", str(corpus), "--topics", "2", "--sweeps", "3", "--burn-in", "1", "--min-df", "1",
              "--max-df-ratio", "1"]
    commands = [
        ["fit", "--out", str(tmp_path / "fit"), *common],
        ["sweep", "--out", str(tmp_path / "sweep"), "--mode", "tfidf-pseudo", "--k-grid", "2,3", *common],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        passes = []
        for pass_id, argv in enumerate(commands):
            tracer.begin_pass(pass_id)
            assert main(argv) == 0
            passes.append(tracer.end_pass(1.0))
    finally:
        tracer.remove()
    fit, sweep = passes
    # The fit observer reads the counts of the matrix that fit is given.
    assert tracer.sums[0]["calls"]["lda.fit"] == 1 and fit["lda.token_sweeps"] > 0
    # The pseudo-count observer reads the same matrix as the two fits of the sweep.
    assert tracer.sums[1]["calls"]["vectorize.to_pseudo_counts"] == 1 and tracer.sums[1]["calls"]["lda.fit"] == 2
    assert 0 < sweep["vectorize.nnz"] <= sweep["vectorize.tokens"]
    assert sweep["lda.token_sweeps"] == 2 * 3 * sweep["vectorize.tokens"]
