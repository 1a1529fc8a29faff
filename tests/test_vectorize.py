"""Vocabulary, count matrix, and TF-IDF weighting."""

import csv
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lextopic.errors import AllZero, EmptyVocabulary
from lextopic.preprocess import Document
from lextopic.vectorize import (
    DocTermMatrix,
    Vocabulary,
    build_vocabulary,
    count_matrix,
    idf,
    save_triplets,
    save_vocabulary,
    tfidf,
    to_pseudo_counts,
)


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
        totals = matrix.doc_totals()
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


class TestExports:
    def test_triplet_and_vocab_files_are_deterministic(self, tmp_path):
        docs = _docs([["b", "a", "a"], ["c", "b"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        weighted = tfidf(count_matrix(docs, vocab), norm="l2")
        first, second = tmp_path / "w1.csv", tmp_path / "w2.csv"
        save_triplets(weighted, vocab, first)
        save_triplets(weighted, vocab, second)
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text(encoding="utf-8").splitlines()[0]
        assert header == "doc_id,term,value"
        vocab_path = tmp_path / "vocab.csv"
        save_vocabulary(vocab, vocab_path)
        lines = vocab_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term,df"
        assert len(lines) == 1 + len(vocab.terms)

    def test_tfidf_triplet_values_are_plain_floats(self, tmp_path):
        docs = _docs([["b", "a", "a"], ["c", "b"], ["a"]])
        vocab = build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
        weighted = tfidf(count_matrix(docs, vocab), norm="l2")
        path = tmp_path / "weights.csv"
        save_triplets(weighted, vocab, path)
        with path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(weighted.weights)
        for row in rows:
            assert float(row["value"]) == weighted.weights[(int(row["doc_id"][1:]), vocab.index[row["term"]])]


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
        assert list(matrix.entries()) == sorted((d, t, c) for (d, t), c in counts.items())
        rebuilt = DocTermMatrix(n_docs, n_terms, counts, matrix.doc_ids)
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
