"""Shared fixtures: small record factories and one session-scoped fit."""

import json
import time

import numpy as np
import pytest

from lextopic.corpus import (
    Corpus,
    LawRecord,
    LawType,
    RecordDate,
    SynthConfig,
    generate_synthetic_corpus,
)
from lextopic.lda import LdaConfig, fit
from lextopic.preprocess import Document
from lextopic.vectorize import Vocabulary, count_matrix


def record_date(gregorian_year: int, month: int = 7, day: int = 1) -> RecordDate:
    """A date whose derived Gregorian year is exactly gregorian_year.

    Jalali months 7-9 fall entirely inside jalali_year + 621.
    """
    jalali_year = gregorian_year - 621
    return RecordDate.from_jalali(f"{jalali_year:04d}/{month:02d}/{day:02d}", jalali_year, month, day)


def make_record(
    record_id: str,
    law_type: LawType = LawType.REGULATION,
    year: int = 2021,
    title: str = "a sample title",
    content: str = "some regulation content with several words",
    **kwargs,
) -> LawRecord:
    return LawRecord(
        id=record_id,
        title=title,
        content=content,
        law_type=law_type,
        date=record_date(year),
        **kwargs,
    )


@pytest.fixture
def mixed_corpus() -> Corpus:
    """Five records, two of them Regulation, spanning 2020-2022."""
    return Corpus(
        [
            make_record("r1", LawType.REGULATION, 2021),
            make_record("r2", LawType.BILL, 2021),
            make_record("r3", LawType.REGULATION, 2022),
            make_record("r4", LawType.OPINION, 2020),
            make_record("r5", LawType.PLAN, 2022),
        ],
        source_description="fixture",
    )


def float_from_bits(bits: int) -> float:
    """The float64 whose IEEE bits are the unsigned 64-bit integer bits."""
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def jsonl_row(record_id: str, law_type: str = "Regulation", **overrides) -> dict:
    row = {
        "id": record_id,
        "title": f"title {record_id}",
        "content": f"content body for {record_id}",
        "lead": "",
        "tags": ["tag one", "tag two"],
        "classes": ["class a"],
        "law_type": law_type,
        "category": "The Council of Ministers",
        "date": {"raw": "1400/07/01", "year": 1400, "month": 7, "day": 1},
    }
    row.update(overrides)
    return row


SYNTH_CONFIG = SynthConfig(
    n_docs=200,
    n_topics=3,
    vocab_size=30,
    doc_length=50,
    alpha=0.5,
    beta=0.1,
    years=(2020,),
    seed=11,
)


@pytest.fixture(scope="session")
def synth_bundle():
    """Synthetic corpus with ground truth plus a converged fit, shared
    across tests because the fit takes a few seconds."""
    corpus, truth = generate_synthetic_corpus(SYNTH_CONFIG)
    docs = [
        Document(record.id, record.content.split(), record.date.gregorian_year)
        for record in corpus.records
    ]
    terms = [f"w{term:03d}" for term in range(SYNTH_CONFIG.vocab_size)]
    vocab = Vocabulary(
        terms=terms,
        index={term: position for position, term in enumerate(terms)},
        df=[sum(1 for doc in docs if term in set(doc.tokens)) for term in terms],
    )
    matrix = count_matrix(docs, vocab)
    config = LdaConfig(n_topics=3, alpha=0.5, beta=0.1, sweeps=400, burn_in=200, seed=5)
    started = time.perf_counter()
    model = fit(matrix, config, vocab)
    fit_seconds = time.perf_counter() - started
    return {
        "corpus": corpus,
        "truth": truth,
        "docs": docs,
        "vocab": vocab,
        "matrix": matrix,
        "config": config,
        "model": model,
        "fit_seconds": fit_seconds,
    }
