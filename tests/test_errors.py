"""The one rule for showing an input value in a message: errors._quoted, at every library site."""

import numpy as np
import pytest

from lextopic.analyze import topic_shares
from lextopic.corpus import Corpus, load_corpus, save_corpus
from lextopic.errors import EmptyContent, LextopicError, MissingField, MissingYear, _as_json, _quoted
from lextopic.lda import LdaConfig, LdaModel
from lextopic.preprocess import preprocess_corpus
from lextopic.trends import build_trend_table
from lextopic.vectorize import DocTermMatrix, count_corpus, tfidf

from conftest import make_record

LONG = "x" * 100_000
CUT = f"{'x' * 80!r}... (100000 characters)"
BIG = 10**5000  # past Python's int digit limit: neither str nor repr can show it


@pytest.mark.parametrize("value, show, quoted", [
    ("abc", repr, "'abc'"),
    ("abc", _as_json, '"abc"'),
    ("x" * 80, repr, repr("x" * 80)),
    ("x" * 81, _as_json, f'"{"x" * 80}"... (81 characters)'),
    ("ق\ud800", _as_json, '"ق\\ud800"'),
    ("\ud800" * 100, repr, f"{chr(0xD800) * 80!r}... (100 characters)"),
    (7, str, "7"),
    (10**100, str, f"{'1' + '0' * 79}... (101 characters)"),
    (BIG, str, "an int of 16,610 bits"),
    ([BIG], _as_json, "a list too long to show"),
], ids=["repr", "json", "80 characters", "81 characters as json", "surrogate as json", "surrogates cut by repr",
        "number", "long number", "int past the digit limit", "list of such an int"])
def test_a_string_is_cut_by_its_own_characters_then_shown(value, show, quoted):
    assert _quoted(value, show) == quoted
    _quoted(value, show).encode("utf-8")  # printable on a strict UTF-8 stream


def _alignment_error(_):
    model = LdaModel(LdaConfig(n_topics=1, sweeps=2, burn_in=1), np.ones((1, 1)), np.ones((1, 1)), [LONG], [])
    topic_shares(model, Corpus([make_record("y" * 100_000)]))


def _corpus():
    return Corpus([make_record("r1")])


@pytest.mark.parametrize("call, message", [
    (lambda tmp_path: load_corpus(tmp_path / "corpus.jsonl", LONG), f"unknown corpus format {CUT}"),
    (lambda tmp_path: save_corpus(_corpus(), tmp_path / "corpus.jsonl", LONG), f"unknown corpus format {CUT}"),
    (lambda _: preprocess_corpus(_corpus(), None, LONG), f"on_empty must be 'error' or 'drop', got {CUT}"),
    (lambda _: count_corpus(_corpus(), None, 1, 1.0, LONG), f"on_empty must be 'error' or 'drop', got {CUT}"),
    (lambda _: tfidf(DocTermMatrix(1, 1, ([0], [0], [1]), ["a"]), LONG), f"norm must be 'none' or 'l2', got {CUT}"),
    (lambda _: build_trend_table(["a"], [2020], [[1]], LONG), f"unknown normalization {CUT}"),
    (_alignment_error, f"model documents do not align with corpus records: position 0: corpus record "
                       f"{'y' * 80!r}... (100000 characters) vs model document {CUT}"),
    (lambda _: LdaConfig(sweeps=10**3999, burn_in=10**3999),
     f"lda.burn_in must be < lda.sweeps ({'1' + '0' * 79}... (4000 characters)), got {'1' + '0' * 79}... (4000 "
     "characters)"),
    (lambda _: LdaConfig(sweeps=BIG, burn_in=BIG),
     "lda.burn_in must be < lda.sweeps (an int of 16,610 bits), got an int of 16,610 bits"),
    (lambda _: LdaConfig(n_topics=BIG), "lda.n_topics must be an integer in [1, 2**63), got an int of 16,610 bits"),
    (lambda _: LdaConfig(input_mode="قانون"),
     'lda.input_mode must be one of counts, tfidf-pseudo, got "قانون"'),
    (lambda _: LdaConfig(input_mode=LONG), f'lda.input_mode must be one of counts, tfidf-pseudo, got "{"x" * 80}"... '
                                         "(100000 characters)"),
], ids=["load_corpus format", "save_corpus format", "preprocess on_empty", "count_corpus on_empty", "tfidf norm",
        "trend normalization", "alignment position", "burn_in of 4,000 digits", "burn_in past the digit limit",
        "setting past the digit limit", "non-ASCII setting", "long setting"])
def test_a_library_argument_is_quoted_in_its_message(tmp_path, call, message):
    with pytest.raises((ValueError, LextopicError)) as raised:
        call(tmp_path)
    assert str(raised.value) == message


@pytest.mark.parametrize("error, message", [
    (MissingField(3, LONG), f"row 3: missing or empty required field {CUT}"),
    (EmptyContent(LONG), f"record {CUT} has empty content"),
    (MissingYear(LONG), f"record {CUT} has no derivable year"),
])
def test_a_record_field_or_id_is_quoted_in_its_message(error, message):
    assert str(error) == message
