"""Vocabulary, count matrix, and TF-IDF weighting."""

import importlib.util
import logging
import math
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from lextopic import _gibbs
from lextopic.corpus import Corpus, LawType, load_corpus
from lextopic.errors import (
    AllZero, EmptyDocument, EmptyVocabulary, EntryOutOfRange, MalformedEntries, MissingYear, NoDocuments,
    PseudoCountOverflow,
)
from lextopic.preprocess import Document, LemmaRules, PreprocessConfig, default_config, preprocess_corpus
from lextopic.vectorize import (
    DocTermMatrix,
    TfidfMatrix,
    Vocabulary,
    build_vocabulary,
    count_corpus,
    count_matrix,
    drop_empty_rows,
    idf,
    tfidf,
    to_pseudo_counts,
)
from reference import preprocess_document


def _docs(token_lists):
    return [
        Document(record_id=f"d{i}", tokens=list(tokens), gregorian_year=2021)
        for i, tokens in enumerate(token_lists)
    ]


class TestBuildVocabulary:
    def test_df_counts_documents_not_occurrences(self):
        docs = _docs([["law", "law", "tax"], ["law"], ["court", "tax"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        by_term = dict(zip(vocab.terms, vocab.df))
        assert by_term == {"law": 2, "tax": 2, "court": 1}

    def test_min_df_floor(self):
        docs = _docs([["law", "tax"], ["law"], ["court"]])
        vocab = build_vocabulary(docs, min_df=2, max_df_ratio=1.0)
        assert vocab.terms == ["law"]

    def test_max_df_ceiling(self):
        docs = _docs([["the", "law"], ["the", "tax"], ["the", "law"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=0.9)
        assert "the" not in vocab.index
        assert set(vocab.terms) == {"law", "tax"}

    def test_order_descending_df_then_lexicographic(self):
        docs = _docs([["b", "a", "z"], ["b", "a"], ["z"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        assert vocab.terms == ["a", "b", "z"]
        assert vocab.index == {"a": 0, "b": 1, "z": 2}

    def test_all_filtered_raises(self):
        docs = _docs([["law"], ["law"]])
        with pytest.raises(EmptyVocabulary):
            build_vocabulary(docs, min_df=3, max_df_ratio=1.0)

    def test_bad_params(self):
        docs = _docs([["law"]])
        with pytest.raises(ValueError):
            build_vocabulary([], min_df=1, max_df_ratio=1.0)
        with pytest.raises(ValueError):
            build_vocabulary(docs, min_df=0, max_df_ratio=1.0)
        with pytest.raises(ValueError):
            build_vocabulary(docs, min_df=1, max_df_ratio=1.5)

    def test_deterministic_across_input_order(self):
        lists = [["b", "a"], ["c", "a"], ["b", "c"]]
        forward = build_vocabulary(_docs(lists), min_df=1, max_df_ratio=1.0)
        backward = build_vocabulary(_docs(lists[::-1]), min_df=1, max_df_ratio=1.0)
        assert forward.terms == backward.terms


class TestCountMatrix:
    def test_counts_and_oov(self):
        docs = _docs([["law", "law", "tax", "unknown"], ["tax"]])
        vocab = Vocabulary(terms=["law", "tax"], index={"law": 0, "tax": 1}, df=[1, 2])
        matrix = count_matrix(docs, vocab)
        assert matrix.counts == {(0, 0): 2, (0, 1): 1, (1, 1): 1}
        assert matrix.doc_ids == ["d0", "d1"]
        assert matrix.n_docs == 2 and matrix.n_terms == 2

    def test_row_sums_match_in_vocab_token_counts(self):
        lists = [["a", "b", "a"], ["b"], ["c", "c", "c"]]
        docs = _docs(lists)
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        matrix = count_matrix(docs, vocab)
        totals = np.bincount(matrix.docs, weights=matrix.values, minlength=matrix.n_docs).tolist()
        for d, tokens in enumerate(lists):
            expected = sum(1 for t in tokens if t in vocab.index)
            assert totals[d] == expected


class TestIdf:
    def test_everywhere_term_scores_one(self):
        docs = _docs([["a", "b"], ["a"], ["a", "c"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        matrix = count_matrix(docs, vocab)
        scores = idf(matrix)
        assert scores[vocab.index["a"]] == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        # df(b) = 1 over D = 2 gives ln(3/2) + 1.
        docs = _docs([["a", "b"], ["a"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        matrix = count_matrix(docs, vocab)
        scores = idf(matrix)
        assert scores[vocab.index["b"]] == pytest.approx(1.405465, abs=1e-6)

    def test_rarer_terms_score_higher(self):
        docs = _docs([["a", "b", "c"], ["a", "b"], ["a"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        scores = idf(count_matrix(docs, vocab))
        a, b, c = (scores[vocab.index[t]] for t in "abc")
        assert a < b < c


class TestTfidf:
    def _fixture(self):
        docs = _docs([["a", "b"], ["a"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        return count_matrix(docs, vocab), vocab

    def test_worked_l2_row(self):
        matrix, vocab = self._fixture()
        weighted = tfidf(matrix, norm="l2")
        a, b = vocab.index["a"], vocab.index["b"]
        assert weighted.weights[(0, a)] == pytest.approx(0.57974, abs=1e-5)
        assert weighted.weights[(0, b)] == pytest.approx(0.81480, abs=1e-5)

    def test_unnormalized_are_count_times_idf(self):
        matrix, vocab = self._fixture()
        raw = tfidf(matrix, norm="none")
        a, b = vocab.index["a"], vocab.index["b"]
        assert raw.weights[(0, a)] == pytest.approx(1.0, abs=1e-12)
        assert raw.weights[(0, b)] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)

    def test_l2_rows_have_unit_norm(self):
        matrix, _ = self._fixture()
        weighted = tfidf(matrix, norm="l2")
        norms = {}
        for (d, _t), w in weighted.weights.items():
            norms[d] = norms.get(d, 0.0) + w * w
        for value in norms.values():
            assert math.sqrt(value) == pytest.approx(1.0, abs=1e-9)

    def test_bad_norm(self):
        matrix, _ = self._fixture()
        with pytest.raises(ValueError):
            tfidf(matrix, norm="l1")

    def test_a_row_of_zero_counts_keeps_zero_weights(self):
        matrix = DocTermMatrix(2, 2, ([0, 1], [0, 1], [0, 3]), ["a", "b"])
        assert tfidf(matrix, norm="l2").values.tolist() == [0.0, 1.0]

    @given(st.integers(min_value=2, max_value=5))
    def test_duplicating_every_token_scales_raw_but_not_l2(self, k):
        base = [["a", "a", "b"], ["b", "c"]]
        docs_once = _docs(base)
        docs_k = _docs([tokens * k for tokens in base])
        vocab = build_vocabulary(docs_once, min_df=1, max_df_ratio=1.0)
        raw_once = tfidf(count_matrix(docs_once, vocab), norm="none")
        raw_k = tfidf(count_matrix(docs_k, vocab), norm="none")
        for key, value in raw_once.weights.items():
            assert raw_k.weights[key] == pytest.approx(k * value, rel=1e-12)
        l2_once = tfidf(count_matrix(docs_once, vocab), norm="l2")
        l2_k = tfidf(count_matrix(docs_k, vocab), norm="l2")
        for key, value in l2_once.weights.items():
            assert l2_k.weights[key] == pytest.approx(value, abs=1e-12)


class TestPseudoCounts:
    def test_round_half_up_against_hand_values(self):
        docs = _docs([["a", "b"], ["a"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        weighted = tfidf(count_matrix(docs, vocab), norm="l2")
        counts = to_pseudo_counts(weighted, scale=10.0)
        a, b = vocab.index["a"], vocab.index["b"]
        assert counts.counts[(0, a)] == 6
        assert counts.counts[(0, b)] == 8
        assert counts.counts[(1, a)] == 10

    def test_zero_weights_dropped(self):
        docs = _docs([["a", "a", "a", "b"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        weighted = tfidf(count_matrix(docs, vocab), norm="l2")
        # scale small enough that the minor term rounds to zero
        counts = to_pseudo_counts(weighted, scale=1.5)
        assert (0, vocab.index["b"]) not in counts.counts
        assert counts.counts[(0, vocab.index["a"])] >= 1

    def test_all_zero_raises(self):
        docs = _docs([["a", "b"], ["c"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        weighted = tfidf(count_matrix(docs, vocab), norm="l2")
        with pytest.raises(AllZero):
            to_pseudo_counts(weighted, scale=0.1)

    def test_a_pseudo_count_past_int64_raises_naming_the_scale(self):
        weights = TfidfMatrix(2, 2, ([0, 1], [0, 1], [0.25, 1.0]), ["a", "b"])
        below = 2.0**63 - 1024  # the largest float64 below 2**63
        assert to_pseudo_counts(weights, below).values.tolist() == [2**61 - 256, 2**63 - 1024]
        for scale in (2.0**63, 1e30, sys.float_info.max):
            with pytest.raises(PseudoCountOverflow, match=rf"^a pseudo-count at scale {re.escape(str(scale))} reaches 2"):
                to_pseudo_counts(weights, scale)

    @pytest.mark.parametrize("scale, shown", [
        (10**5000, "an int of 16,610 bits"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0, "0"),
        (-0.5, "-0.5"), ("x" * 100, "x" * 80 + "... (100 characters)"), (None, "None"),
    ], ids=["an int past the float range", "nan", "inf", "-inf", "zero", "negative", "a long string", "None"])
    def test_a_scale_that_is_not_finite_and_positive_is_refused(self, scale, shown):
        weights = TfidfMatrix(1, 1, ([0], [0], [1.0]), ["a"])
        with pytest.raises(ValueError, match=f"^scale must be positive and finite, got {re.escape(shown)}$"):
            to_pseudo_counts(weights, scale)


# The dict loops the entry-array operations replaced, kept as their reference.


def reference_counts(docs, vocab):
    counts = {}
    for position, doc in enumerate(docs):
        for token, count in Counter(doc.tokens).items():
            term = vocab.index.get(token)
            if term is not None:
                counts[(position, term)] = count
    return counts


def reference_idf(counts, n_docs, n_terms):
    df_vector = np.zeros(n_terms, dtype=np.int64)
    for (_, term) in counts:
        df_vector[term] += 1
    return np.log((1.0 + n_docs) / (1.0 + df_vector)) + 1.0


def reference_tfidf(counts, n_docs, n_terms, norm):
    idf_vector = reference_idf(counts, n_docs, n_terms)
    weights = {key: count * idf_vector[key[1]] for key, count in counts.items()}
    if norm == "l2":
        row_norms = [0.0] * n_docs
        for (doc, _), weight in weights.items():
            row_norms[doc] += weight * weight
        row_norms = [math.sqrt(total) for total in row_norms]
        weights = {(doc, term): weight / row_norms[doc] for (doc, term), weight in weights.items()}
    return weights


def reference_pseudo_counts(weights, scale):
    counts = {}
    for key, weight in weights.items():
        pseudo = math.floor(scale * weight + 0.5)
        if pseudo > 0:
            counts[key] = pseudo
    return counts


TERMS = ["a", "b", "c", "d", "e"]
# Token lists over the vocabulary plus one out-of-vocabulary word; an
# empty row and a single-term row are always present.
corpora = st.lists(st.lists(st.sampled_from(TERMS + ["zz"]), max_size=12), max_size=8).map(
    lambda rows: rows + [[], ["c", "c"]]
)


class TestEntryArraysMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(corpora, st.permutations(TERMS), st.sampled_from(["none", "l2"]), st.floats(0.5, 40.0))
    def test_counts_idf_tfidf_and_pseudo_counts(self, token_lists, terms, norm, scale):
        docs = _docs(token_lists)
        vocab = Vocabulary(terms=terms, index={term: i for i, term in enumerate(terms)}, df=[1] * len(terms))
        n_docs, n_terms = len(docs), len(terms)
        matrix = count_matrix(docs, vocab)
        counts = reference_counts(docs, vocab)
        assert matrix.counts == counts
        entries = zip(matrix.docs.tolist(), matrix.terms.tolist(), matrix.values.tolist())
        assert list(entries) == sorted((d, t, c) for (d, t), c in counts.items())
        ordered = sorted(counts.items())
        triple = ([doc for (doc, _), _ in ordered], [term for (_, term), _ in ordered], [n for _, n in ordered])
        rebuilt = DocTermMatrix(n_docs, n_terms, triple, matrix.doc_ids)
        for name in ("docs", "terms", "values"):
            assert np.array_equal(getattr(rebuilt, name), getattr(matrix, name))
        assert np.array_equal(idf(matrix), reference_idf(counts, n_docs, n_terms))

        weighted = tfidf(matrix, norm=norm)
        expected = reference_tfidf(counts, n_docs, n_terms, norm)
        if norm == "none":
            assert weighted.weights == expected
        else:
            assert weighted.weights == pytest.approx(expected, rel=1e-12)
        pseudo = reference_pseudo_counts(weighted.weights, scale)
        if pseudo:
            assert to_pseudo_counts(weighted, scale).counts == pseudo
        else:
            with pytest.raises(AllZero):
                to_pseudo_counts(weighted, scale)

    def test_dict_views_are_read_only(self):
        matrix = count_matrix(_docs([["a", "b"]]), Vocabulary(["a", "b"], {"a": 0, "b": 1}, [1, 1]))
        with pytest.raises(TypeError):
            matrix.counts[(0, 0)] = 5
        with pytest.raises(TypeError):
            tfidf(matrix).weights[(0, 0)] = 0.5


# --- the corpus count: compiled chunk scan and term count ---------------------

WHITESPACE = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]
# Look like whitespace or are unusual, but str.split() keeps them inside a chunk.
NEAR_MISSES = ["\u200b", "\u180e", "\ufeff", "\u2060", "\x00", "\x1b", "\x7f", "\ud800", "\udfff"]
LETTERS = ["a", "B", "z", "7", "ا", "ی", "ي", "ك", "ـ", "۱", "،", "€", "\U0001f600"]


@pytest.fixture(scope="module")
def kernels():
    loaded = _gibbs.load_kernels()
    if loaded is None:
        assert _gibbs.find_compiler() is None, "a C compiler is on PATH but the compiled kernels did not load"
        pytest.skip("no C compiler on PATH")
    return loaded


def test_str_split_whitespace_is_29_code_points():
    assert len(WHITESPACE) == 29
    assert all(len(f"a{space}b".split()) == 2 for space in WHITESPACE)


def test_kernel_source_compiles_without_warnings(tmp_path):
    # The full build, not a syntax check: some warnings need the optimizer's analysis.
    compiler = _gibbs.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    result = subprocess.run(
        [compiler, *_gibbs.CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "gibbs.so"), str(_gibbs.SOURCE)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


_RECORD_TEXT = st.lists(st.sampled_from(WHITESPACE + NEAR_MISSES + LETTERS), max_size=14).map("".join)


class TestChunkScan:
    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(st.one_of(_RECORD_TEXT, st.sampled_from(["", "ab ab", "قانون  مالیات\tقانون"])),
                          max_size=8))
    def test_equals_str_split_with_first_occurrence_ids(self, kernels, texts):
        record_ptr = np.cumsum([0] + [len(text) for text in texts])
        occurrences, record_chunks, chunk_codes = kernels.scan_chunks(_code_points("".join(texts)), record_ptr)
        ids: dict[str, int] = {}
        expected = [ids.setdefault(chunk, len(ids)) for text in texts for chunk in text.split()]
        assert occurrences.tolist() == expected
        assert record_chunks.tolist() == [len(text.split()) for text in texts]
        assert chunk_codes.tolist() == _code_points("".join(f"{chunk} " for chunk in ids)).tolist()

    def test_many_distinct_chunks_grow_the_table(self, kernels):
        text = " ".join(f"w{number % 5000}" for number in range(10000))
        occurrences, _, chunk_codes = kernels.scan_chunks(_code_points(text), [0, len(text)])
        assert occurrences.tolist() == list(range(5000)) * 2
        assert chunk_codes.tobytes().decode("utf-32-le").split() == text.split()[:5000]

    def test_splits_on_exactly_the_code_points_str_split_does(self, kernels):
        # Record c is "a", code point c, "b", for every code point in one call.
        codes = np.arange(sys.maxunicode + 1, dtype=np.uint32)
        text = np.stack([np.full_like(codes, ord("a")), codes, np.full_like(codes, ord("b"))], axis=1)
        _, record_chunks, _ = kernels.scan_chunks(text.ravel(), np.arange(0, text.size + 1, 3))
        splits = np.flatnonzero(record_chunks == 2).tolist()
        assert splits == [ord(space) for space in WHITESPACE]
        assert np.count_nonzero(record_chunks == 1) == codes.size - len(splits)

    @pytest.mark.parametrize("record_ptr", [[0, 3], [1, 4], [0, 3, 2, 4]])
    def test_rejects_bad_offsets(self, kernels, record_ptr):
        with pytest.raises(ValueError):
            kernels.scan_chunks(b"ab c", record_ptr)

    @pytest.mark.parametrize("record_chunks, occurrences, chunk_tokens", [
        ([-1, 3], [0, 1], [0, 1]),  # counts that sum right but run past the occurrences
        ([2], [0, 2], [0, 1]),  # a chunk id past the chunks
        ([2], [0, 1], [0, 5]),  # a token id past the tokens
    ])
    def test_count_rejects_bad_chunk_arrays(self, kernels, record_chunks, occurrences, chunk_tokens):
        with pytest.raises(ValueError):
            kernels.term_entries(record_chunks, occurrences, [0, 1, 2], chunk_tokens, [0, 1], [0] * len(record_chunks), 2, 2)

    def test_term_entries_refuses_more_entries_than_given(self, kernels):
        with pytest.raises(ValueError, match="expected 1 entries"):
            kernels.term_entries([2], [0, 1], [0, 1, 2], [0, 1], [0, 1], [0], 2, 1)


def _outcome(call):
    """A (vocabulary, matrix) result as plain values, or the error it raised."""
    try:
        vocab, matrix = call()
    except (EmptyDocument, MissingYear, NoDocuments, EmptyVocabulary) as exc:
        return type(exc).__name__, str(exc)
    arrays = (matrix.docs, matrix.terms, matrix.values)
    assert all(array.dtype == np.int64 for array in arrays)
    return (vocab.terms, vocab.index, vocab.df, matrix.n_docs, matrix.n_terms, matrix.doc_ids,
            [array.tolist() for array in arrays])


def _reference(corpus, config, min_df, max_df_ratio, on_empty):
    """preprocess_document on each record in order, then build_vocabulary and count_matrix."""
    def call():
        documents = []
        for record in corpus.records:
            try:
                documents.append(preprocess_document(record, config))
            except EmptyDocument:
                if on_empty == "error":
                    raise
        vocab = build_vocabulary(documents, min_df, max_df_ratio)
        return vocab, count_matrix(documents, vocab)

    return _outcome(call)


BENCH = Path(__file__).resolve().parents[1] / "bench"
# The last two are two lone surrogates and the one character that UTF-16 would merge them into.
WORDS = ["law", "laws", "the", "tax", "taxes", "a", "ab", "کتاب", "کتاب‌ها", "كتابها", "و", "قانون", "x.y",
         "۱۲۳", "؟", "\ud800x", "ok\x00", "\ud83d\ude00", "\U0001f600"]
SEPARATORS = [" ", "  ", "\t", "\n", "\u3000", "\u00a0", "\u200b"]


@st.composite
def corpora(draw):
    def text():
        words = draw(st.lists(st.sampled_from(WORDS), max_size=7))
        return "".join(word + draw(st.sampled_from(SEPARATORS)) for word in words)

    records = []
    for number in range(draw(st.integers(0, 7))):
        if draw(st.integers(0, 5)) == 3:  # no token survives any config
            record = make_record(f"r{number}", title=draw(st.sampled_from(["", "؟"])), content=". ،")
        else:
            record = make_record(f"r{number}", title=text(), content=text())
        if draw(st.integers(0, 39)) == 17:  # hypothesis favours 0 and the bounds
            record.date = None
        records.append(record)
    return Corpus(records)


CONFIGS = st.builds(
    PreprocessConfig,
    stopword_list=st.sets(st.sampled_from(["the", "a", "و", "tax"]), max_size=3),
    lemma_rules=st.sampled_from([
        LemmaRules(),
        LemmaRules(exceptions={"laws": "law", "taxes": "tax"}, suffix_rules=[("ها", ""), ("s", "")]),
    ]),
    min_token_length=st.integers(1, 3),
)


class TestCountCorpus:
    @settings(max_examples=300, deadline=None)
    @given(corpus=corpora(), config=CONFIGS, min_df=st.integers(1, 3),
           max_df_ratio=st.sampled_from([1.0, 0.95, 0.5]), on_empty=st.sampled_from(["drop", "error"]))
    def test_equals_preprocess_vocabulary_and_count(self, kernels, corpus, config, min_df, max_df_ratio, on_empty):
        expected = _reference(corpus, config, min_df, max_df_ratio, on_empty)
        assert _outcome(lambda: count_corpus(corpus, config, min_df, max_df_ratio, on_empty)) == expected

    def _corpus(self):
        return Corpus([
            make_record("r0", title="law\ttax", content="the court tax"),
            make_record("r1", title="law", content="court\tverdict court"),
            make_record("r2", title="x", content="y"),
            make_record("r3", title="tax", content="verdict law"),
        ])

    def test_without_a_compiler_one_warning_and_the_same_result(self, kernels, monkeypatch, tmp_path, caplog):
        corpus = self._corpus()
        expected = _outcome(lambda: count_corpus(corpus, None, 1, 1.0, "drop"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_gibbs, "find_compiler", lambda: None)
        with caplog.at_level(logging.WARNING, logger="lextopic"):
            assert _outcome(lambda: count_corpus(corpus, None, 1, 1.0, "drop")) == expected
        warnings = [record.getMessage() for record in caplog.records if record.levelno == logging.WARNING]
        assert len(warnings) == 1 and "corpus count" in warnings[0]

    def test_zero_documents(self):
        corpus = Corpus([make_record("r0", title="a", content="b c")])
        with pytest.raises(NoDocuments, match="zero documents"):
            count_corpus(corpus, None, 1, 1.0, "drop")
        with pytest.raises(ValueError):
            count_corpus(Corpus([]), None, 1, 1.0, "drop")

    def test_bad_on_empty(self):
        with pytest.raises(ValueError, match="on_empty"):
            count_corpus(self._corpus(), on_empty="keep")

    def test_term_entries_past_two_bitmap_words(self, kernels):
        # 300 terms: five bitmap words, the last one partial. Records touch
        # the first and the last word, hold tokens outside the vocabulary,
        # and one record with terms has no row; every record after it must
        # see its bitmap words cleared. Both of count_corpus's calls are made.
        n_terms, n_tokens = 300, 320
        rng = np.random.default_rng(5)
        token_term = np.concatenate([rng.permutation(n_terms), np.full(n_tokens - n_terms, -1)])
        token_of = {int(term): token for token, term in enumerate(token_term.tolist()) if term >= 0}
        records = [[0, 299, 64, 5, 5], [1, 298, 130], [0, 63, 64, 127, 128, 299], [], [-1, -1]]
        records += [rng.integers(-1, n_terms, size=rng.integers(0, 30)).tolist() for _ in range(60)]
        record_doc = np.arange(len(records)) - 1
        record_doc[1] = record_doc[0] = -1
        record_tokens, chunk_tokens, chunk_ptr, occurrences = [], [], [0], []
        for terms in records:  # -1 stands for an out-of-vocabulary token
            record_tokens.append([token_of[term] if term >= 0 else int(rng.integers(n_terms, n_tokens)) for term in terms])
            for token in record_tokens[-1]:  # one chunk per occurrence
                occurrences.append(len(chunk_ptr) - 1)
                chunk_tokens.append(token)
                chunk_ptr.append(len(chunk_tokens))
        expected = [(int(doc), term, count) for terms, doc in zip(records, record_doc) if doc >= 0
                    for term, count in sorted(Counter(term for term in terms if term >= 0).items())]
        assert {term for terms in records for term in terms} >= {0, 63, 64, 256, 299}
        chunks = ([len(terms) for terms in records], occurrences, chunk_ptr, chunk_tokens)

        # Every token its own term and no record a row: no entries, each token's df and each record's length.
        *entries, token_df, token_totals = kernels.term_entries(
            *chunks, np.arange(n_tokens), np.full(len(records), -1), n_tokens, 0,
        )
        assert [entry.size for entry in entries] == [0, 0, 0]
        holders = Counter(token for tokens in record_tokens for token in set(tokens))
        assert token_df.tolist() == [holders[token] for token in range(n_tokens)]
        assert token_totals.tolist() == [len(tokens) for tokens in record_tokens]

        docs, terms, values, df, totals = kernels.term_entries(
            *chunks, token_term, record_doc, n_terms, len(expected),
        )
        assert list(zip(docs.tolist(), terms.tolist(), values.tolist())) == expected
        holders = Counter(term for terms in records for term in set(terms) if term >= 0)
        assert df.tolist() == [holders[term] for term in range(n_terms)]
        assert totals.tolist() == [sum(term >= 0 for term in terms) for terms in records]
        # count_corpus's vocab.df is the first call's df of each term's token.
        assert df.tolist() == token_df[[token_of[term] for term in range(n_terms)]].tolist()

    def test_a_generated_persian_corpus_equals_the_reference(self, tmp_path, monkeypatch):
        # The benchmark's generator: Arabic spellings, tatweel, half-spaces,
        # fused suffixes, broken plurals, both digit sets and Persian punctuation.
        spec = importlib.util.spec_from_file_location("bench_persian", BENCH / "persian.py")
        persian = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, persian)  # its dataclasses look their module up
        spec.loader.exec_module(persian)
        size = persian.PersianSize(n_records=300, n_regulation=200, n_topics=6, stems_per_topic=60)
        persian.write_jsonl(persian.generate(7, size).records, tmp_path / "corpus.jsonl")
        corpus = load_corpus(tmp_path / "corpus.jsonl")
        config = default_config()
        expected = _reference(corpus, config, 2, 0.95, "drop")
        assert expected[3] == 300 and len(expected[0]) > 300
        assert _outcome(lambda: count_corpus(corpus, config, 2, 0.95, "drop")) == expected
        assert preprocess_corpus(corpus, config) == [preprocess_document(record, config) for record in corpus.records]


class TestEntryCheck:
    @pytest.mark.parametrize("triple, shown", [
        (([0], [-1], [1]), "(doc 0, term -1) = 1"),
        (([0, 3], [0, 1], [1, 1]), "(doc 3, term 1) = 1"),
        (([0], [5], [1]), "(doc 0, term 5) = 1"),
    ], ids=["a negative term, which idf read", "a doc past n_docs, which drop_empty_rows read",
            "a term past n_terms, which tfidf read"])
    def test_an_entry_outside_the_matrix_is_refused_before_any_function_reads_it(self, triple, shown):
        message = f"^matrix entry {re.escape(shown)} is not a non-negative integer count inside a 1 x 2 matrix$"
        with pytest.raises(EntryOutOfRange, match=message):
            DocTermMatrix(1, 2, triple, ["a"])

    @pytest.mark.parametrize("make, n_ids, n_docs", [
        (lambda: drop_empty_rows(DocTermMatrix(3, 2, ([0, 2], [0, 1], [1, 1]), ["a", "b"])), 2, 3),
        (lambda: DocTermMatrix(2, 2, ([0, 1], [0, 1], [1, 1]), ["a"]), 1, 2),
        (lambda: TfidfMatrix(1, 2, ([0], [1], [0.5]), ["a", "b"]), 2, 1),
    ], ids=["ids that drop_empty_rows misread", "ids that fit misread", "tf-idf ids"])
    def test_doc_ids_that_are_not_one_per_doc_are_refused(self, make, n_ids, n_docs):
        with pytest.raises(MalformedEntries, match=f"^{n_ids} doc ids for a matrix of {n_docs} docs$"):
            make()


class TestDropEmptyRows:
    def test_rows_renumbered_in_order(self):
        matrix = DocTermMatrix(4, 3, ([0, 2, 2], [1, 0, 2], [2, 1, 3]), ["a", "b", "c", "d"])
        kept = drop_empty_rows(matrix)
        assert (kept.n_docs, kept.n_terms, kept.doc_ids) == (2, 3, ["a", "c"])
        assert [kept.docs.tolist(), kept.terms.tolist(), kept.values.tolist()] == [[0, 1, 1], [1, 0, 2], [2, 1, 3]]

    def test_no_empty_row_returns_the_matrix(self):
        matrix = DocTermMatrix(2, 2, ([0, 1], [1, 0], [2, 1]), ["a", "b"])
        assert drop_empty_rows(matrix) is matrix
