"""Collapsed Gibbs sampler, exact-enumeration oracle, and model metrics."""

import base64
import copy
import functools
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_from_bits
from lextopic import _gibbs, _jsonl, _native, lda
from lextopic.analyze import top_words
from lextopic.errors import (
    AbsentTopWord, CorruptModel, EmptyMatrix, EntryOutOfRange, InvalidConfig, LdaError, LextopicError, MalformedEntries,
    TooLarge, TooManyTokens, VocabularyMismatch,
)
from lextopic.lda import (
    LdaConfig,
    LdaModel,
    SamplerState,
    coherence_umass,
    collapsed_log_joint,
    exact_posterior,
    fit,
    gibbs_sweep,
    init_assignments,
    load_model,
    perplexity,
    save_model,
)
from lextopic.vectorize import (
    DocTermMatrix, TfidfMatrix, Vocabulary, drop_empty_rows, idf, tfidf, to_pseudo_counts,
)
from reference import gibbs_conditional, log_p_words


def _triple(*entries):
    """Lists (docs, terms, values) of (doc, term, value) entries, in (doc, term) order."""
    ordered = sorted(entries)
    return tuple([entry[part] for entry in ordered] for part in range(3))


def matrix_from_tokens(token_lists, n_terms):
    counts = Counter((doc, term) for doc, tokens in enumerate(token_lists) for term in tokens)
    return DocTermMatrix(
        n_docs=len(token_lists),
        n_terms=n_terms,
        counts=_triple(*((doc, term, count) for (doc, term), count in counts.items())),
        doc_ids=[f"d{i}" for i in range(len(token_lists))],
    )


class TestConfig:
    def test_alpha_defaults_to_fifty_over_k(self):
        assert LdaConfig(n_topics=10).alpha == pytest.approx(5.0)
        assert LdaConfig(n_topics=25).alpha == pytest.approx(2.0)
        assert LdaConfig(n_topics=2**63 - 1).alpha == 50 / (2**63 - 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_topics": 0},
            {"alpha": -0.5},
            {"beta": 0.0},
            {"sweeps": 0},
            {"sweeps": 10, "burn_in": 10},
            {"burn_in": -1},
            {"seed": -3},
            {"input_mode": "embeddings"},
            # At or above 2**63, past what rng.integers and the int64 count tables take.
            {"n_topics": 10**400},
            {"n_topics": 2**1100},
            {"n_topics": 2**63},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            LdaConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"beta": math.nan}, {"alpha": math.nan}, {"alpha": math.inf}, {"beta": math.inf}])
    def test_rejects_non_finite_priors(self, kwargs):
        with pytest.raises(InvalidConfig, match="must be a finite number > 0"):
            LdaConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"n_topics": 2.0}, {"n_topics": True}, {"n_topics": "3"}, {"n_topics": np.float64(2.0)},
        {"n_topics": object()}, {"sweeps": math.inf}, {"seed": True}, {"seed": np.bool_(True)}, {"seed": 2**64},
        {"beta": "0.01"}, {"beta": 10**5000}, {"beta": [0.1]}, {"input_mode": None},
    ])
    def test_rejects_a_value_outside_its_row(self, kwargs):
        [(name, _)] = kwargs.items()
        with pytest.raises(InvalidConfig, match=rf"^lda\.{name} must be "):
            LdaConfig(**kwargs)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        config = LdaConfig(n_topics=np.int64(4), beta=np.float32(0.5), sweeps=np.int32(3), burn_in=np.uint8(1),
                           seed=np.uint64(2**64 - 1), alpha=np.longdouble(0.25))
        assert [(type(value), value) for value in vars(config).values()] == [
            (int, 4), (float, 0.25), (float, 0.5), (int, 3), (int, 1), (int, 2**64 - 1), (str, "counts"),
        ]
        assert LdaConfig(n_topics=np.int16(5)).alpha == 10.0

    def test_model_fitted_with_numpy_settings_saves_and_reloads(self, tmp_path):
        matrix = matrix_from_tokens([[0, 0, 1], [2, 1]], n_terms=3)
        model = fit(matrix, LdaConfig(n_topics=np.int64(2), sweeps=np.int64(3), burn_in=np.int64(1)))
        save_model(model, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json").config == model.config == LdaConfig(n_topics=2, sweeps=3, burn_in=1)


class TestInitAssignments:
    def test_tables_match_assignments(self):
        matrix = matrix_from_tokens([[0, 0, 1], [2, 1]], n_terms=3)
        config = LdaConfig(n_topics=3, alpha=0.5, beta=0.1, sweeps=2, burn_in=1, seed=7)
        state = init_assignments(matrix, config)
        assert (state.n_dk, state.n_kw, state.n_k, state.n_d) == state.recount()
        assert state.n_d == [3, 2]
        assert sum(state.n_k) == 5

    def test_deterministic(self):
        matrix = matrix_from_tokens([[0, 1, 1], [2]], n_terms=3)
        config = LdaConfig(n_topics=4, sweeps=2, burn_in=1, seed=9)
        first = init_assignments(matrix, config)
        second = init_assignments(matrix, config)
        assert first.assignments == second.assignments

    def test_single_topic_assigns_zero_everywhere(self):
        matrix = matrix_from_tokens([[0, 1], [1]], n_terms=2)
        config = LdaConfig(n_topics=1, sweeps=2, burn_in=1, seed=0)
        state = init_assignments(matrix, config)
        assert all(topic == 0 for z_doc in state.assignments for topic in z_doc)

    def test_empty_matrix_rejected(self):
        empty = DocTermMatrix(n_docs=0, n_terms=0, counts=([], [], []), doc_ids=[])
        with pytest.raises(EmptyMatrix):
            init_assignments(empty, LdaConfig(n_topics=2, sweeps=2, burn_in=1))


def _two_token_state(current_slot1):
    # One document [w0, w1]; slot 0 fixed at topic 0.
    assignments = [[0, current_slot1]]
    n_dk = [[0, 0]]
    n_kw = [[0, 0], [0, 0]]
    n_k = [0, 0]
    for slot, term in enumerate([0, 1]):
        topic = assignments[0][slot]
        n_dk[0][topic] += 1
        n_kw[topic][term] += 1
        n_k[topic] += 1
    return SamplerState(
        doc_tokens=[[0, 1]],
        assignments=assignments,
        n_dk=n_dk,
        n_kw=n_kw,
        n_k=n_k,
        n_d=[2],
        rng=np.random.default_rng(0),
    )


class TestGibbsConditional:
    def test_hand_worked_two_topic_case(self):
        # Unnormalized weights 2*(1/3) and 1*(1/2) give 4/7 and 3/7.
        state = _two_token_state(current_slot1=1)
        config = LdaConfig(n_topics=2, alpha=1.0, beta=1.0, sweeps=2, burn_in=1)
        probs = gibbs_conditional(state, 0, 1, 1, config)
        assert probs[0] == pytest.approx(4 / 7, abs=1e-12)
        assert probs[1] == pytest.approx(3 / 7, abs=1e-12)

    def test_independent_of_current_assignment(self):
        config = LdaConfig(n_topics=2, alpha=1.0, beta=1.0, sweeps=2, burn_in=1)
        from_zero = gibbs_conditional(_two_token_state(0), 0, 1, 1, config)
        from_one = gibbs_conditional(_two_token_state(1), 0, 1, 1, config)
        assert np.allclose(from_zero, from_one, atol=1e-12)

    def test_single_topic_is_certain(self):
        matrix = matrix_from_tokens([[0, 1]], n_terms=2)
        config = LdaConfig(n_topics=1, sweeps=2, burn_in=1, seed=0)
        state = init_assignments(matrix, config)
        assert gibbs_conditional(state, 0, 0, 0, config)[0] == pytest.approx(1.0)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_sums_to_one_and_positive(self, n_topics, seed):
        rng = np.random.default_rng(seed)
        token_lists = [
            [int(t) for t in rng.integers(0, 4, size=rng.integers(1, 6))] for _ in range(3)
        ]
        matrix = matrix_from_tokens(token_lists, n_terms=4)
        config = LdaConfig(
            n_topics=n_topics, alpha=0.7, beta=0.3, sweeps=2, burn_in=1, seed=seed
        )
        state = init_assignments(matrix, config)
        doc = next(d for d, tokens in enumerate(state.doc_tokens) if tokens)
        probs = gibbs_conditional(state, doc, 0, state.doc_tokens[doc][0], config)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs > 0).all()


class TestGibbsSweep:
    def test_counts_stay_consistent_after_100_sweeps(self):
        rng = np.random.default_rng(3)
        token_lists = [
            [int(t) for t in rng.integers(0, 8, size=12)] for _ in range(6)
        ]
        matrix = matrix_from_tokens(token_lists, n_terms=8)
        config = LdaConfig(n_topics=3, alpha=0.5, beta=0.1, sweeps=101, burn_in=1, seed=1)
        state = init_assignments(matrix, config)
        for _ in range(100):
            gibbs_sweep(state, config)
        assert (state.n_dk, state.n_kw, state.n_k, state.n_d) == state.recount()

    def test_single_topic_sweep_is_identity_on_tables(self):
        matrix = matrix_from_tokens([[0, 1, 1], [0]], n_terms=2)
        config = LdaConfig(n_topics=1, sweeps=2, burn_in=1, seed=0)
        state = init_assignments(matrix, config)
        before = copy.deepcopy((state.n_dk, state.n_kw, state.n_k))
        gibbs_sweep(state, config)
        assert (state.n_dk, state.n_kw, state.n_k) == before

    def test_deterministic_given_seed(self):
        matrix = matrix_from_tokens([[0, 1, 2], [2, 2]], n_terms=3)
        config = LdaConfig(n_topics=2, alpha=0.4, beta=0.2, sweeps=6, burn_in=1, seed=13)
        first = init_assignments(matrix, config)
        second = init_assignments(matrix, config)
        for _ in range(5):
            gibbs_sweep(first, config)
            gibbs_sweep(second, config)
        assert first.assignments == second.assignments


class TestFit:
    def test_rows_are_distributions(self):
        matrix = matrix_from_tokens([[0, 1, 2], [2, 3], [0, 0, 3]], n_terms=4)
        config = LdaConfig(n_topics=3, alpha=0.5, beta=0.1, sweeps=30, burn_in=10, seed=2)
        model = fit(matrix, config)
        assert model.doc_topic.shape == (3, 3)
        assert model.topic_word.shape == (3, 4)
        assert np.abs(model.doc_topic.sum(axis=1) - 1).max() < 1e-9
        assert np.abs(model.topic_word.sum(axis=1) - 1).max() < 1e-9
        assert len(model.log_likelihood) == config.sweeps

    def test_single_topic_estimates_are_closed_form(self):
        token_lists = [[0, 1, 1], [0, 2]]
        matrix = matrix_from_tokens(token_lists, n_terms=3)
        config = LdaConfig(n_topics=1, alpha=0.5, beta=0.25, sweeps=10, burn_in=2, seed=0)
        model = fit(matrix, config)
        assert np.allclose(model.doc_topic, 1.0, atol=1e-12)
        # phi[w] = (count(w) + beta) / (N + V*beta), independent of sweeps
        totals = np.array([2, 2, 1], dtype=float)
        expected = (totals + 0.25) / (5 + 3 * 0.25)
        assert np.allclose(model.topic_word[0], expected, atol=1e-12)

    def test_deterministic_given_seed(self):
        matrix = matrix_from_tokens([[0, 1, 2], [2, 2], [3, 0]], n_terms=4)
        config = LdaConfig(n_topics=2, alpha=0.4, beta=0.2, sweeps=25, burn_in=5, seed=21)
        first = fit(matrix, config)
        second = fit(matrix, config)
        assert first.doc_topic.tobytes() == second.doc_topic.tobytes()
        assert first.topic_word.tobytes() == second.topic_word.tobytes()
        assert first.log_likelihood == second.log_likelihood

    def test_seed_changes_the_draw(self):
        matrix = matrix_from_tokens([[0, 1, 2], [2, 2], [3, 0]], n_terms=4)
        base = dict(n_topics=2, alpha=0.4, beta=0.2, sweeps=25, burn_in=5)
        first = fit(matrix, LdaConfig(seed=21, **base))
        second = fit(matrix, LdaConfig(seed=22, **base))
        assert first.doc_topic.tobytes() != second.doc_topic.tobytes()

    def test_matches_exact_posterior_on_tiny_instance(self):
        matrix = matrix_from_tokens([[0], [2, 2]], n_terms=3)
        exact_config = LdaConfig(n_topics=2, alpha=0.5, beta=0.5, sweeps=2, burn_in=1)
        exact_theta, exact_phi = exact_posterior(matrix, exact_config)
        config = LdaConfig(
            n_topics=2, alpha=0.5, beta=0.5, sweeps=6000, burn_in=1000, seed=102
        )
        model = fit(matrix, config)
        assert np.abs(model.doc_topic - exact_theta).max() < 0.05
        assert np.abs(model.topic_word - exact_phi).max() < 0.05


class TestCollapsedLogJoint:
    def test_invariant_under_topic_relabeling(self):
        doc_tokens = [[0, 1, 1], [2, 0]]
        assignments = [[0, 1, 2], [2, 0]]
        permuted = [[1, 2, 0], [0, 1]]  # apply cycle 0->1->2->0
        original = collapsed_log_joint(doc_tokens, assignments, 3, 3, 0.4, 0.2)
        relabeled = collapsed_log_joint(doc_tokens, permuted, 3, 3, 0.4, 0.2)
        assert relabeled == pytest.approx(original, abs=1e-9)

    def test_matches_conditional_ratio(self):
        # Joint ratio across one flipped slot must equal the conditional ratio.
        doc_tokens = [[0, 1], [1]]
        config = LdaConfig(n_topics=2, alpha=0.7, beta=0.3, sweeps=2, burn_in=1)
        base = [[0, 0], [1]]
        flipped = [[0, 1], [1]]
        log_ratio = collapsed_log_joint(
            doc_tokens, flipped, 2, 2, 0.7, 0.3
        ) - collapsed_log_joint(doc_tokens, base, 2, 2, 0.7, 0.3)
        state = SamplerState(
            doc_tokens=[list(t) for t in doc_tokens],
            assignments=[list(z) for z in base],
            n_dk=[[2, 0], [0, 1]],
            n_kw=[[1, 1], [0, 1]],
            n_k=[2, 1],
            n_d=[2, 1],
            rng=np.random.default_rng(0),
        )
        probs = gibbs_conditional(state, 0, 1, 1, config)
        assert log_ratio == pytest.approx(math.log(probs[1] / probs[0]), abs=1e-9)


class TestExactPosterior:
    def test_single_token_is_symmetric(self):
        matrix = matrix_from_tokens([[0]], n_terms=2)
        config = LdaConfig(n_topics=2, alpha=1.0, beta=1.0, sweeps=2, burn_in=1)
        theta, phi = exact_posterior(matrix, config)
        assert theta[0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.allclose(phi[0], phi[1], atol=1e-12)

    def test_repeated_word_document_hand_computed(self):
        # Doc [w0, w0], K=2, V=2, alpha=beta=1: state weights are
        # 4/11, 4/11, 3/22, 3/22, giving E[phi_k(w0)] = 7/11 exactly.
        matrix = matrix_from_tokens([[0, 0]], n_terms=2)
        config = LdaConfig(n_topics=2, alpha=1.0, beta=1.0, sweeps=2, burn_in=1)
        theta, phi = exact_posterior(matrix, config)
        assert theta[0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert phi[0][0] == pytest.approx(7 / 11, abs=1e-12)
        assert phi[0][1] == pytest.approx(4 / 11, abs=1e-12)

    def test_identical_documents_get_identical_rows(self):
        matrix = matrix_from_tokens([[0, 1], [0, 1]], n_terms=2)
        config = LdaConfig(n_topics=2, alpha=0.6, beta=0.4, sweeps=2, burn_in=1)
        theta, _ = exact_posterior(matrix, config)
        assert np.allclose(theta[0], theta[1], atol=1e-12)

    def test_rows_are_distributions(self):
        matrix = matrix_from_tokens([[0, 1, 2], [2]], n_terms=3)
        config = LdaConfig(n_topics=3, alpha=0.3, beta=0.7, sweeps=2, burn_in=1)
        theta, phi = exact_posterior(matrix, config)
        assert np.abs(theta.sum(axis=1) - 1).max() < 1e-9
        assert np.abs(phi.sum(axis=1) - 1).max() < 1e-9

    def test_refuses_oversized_state_space(self):
        matrix = matrix_from_tokens([[0] * 21], n_terms=1)
        config = LdaConfig(n_topics=2, alpha=1.0, beta=1.0, sweeps=2, burn_in=1)
        with pytest.raises(TooLarge):
            exact_posterior(matrix, config)


def _uniform_model(n_docs, n_terms):
    config = LdaConfig(n_topics=1, alpha=1.0, beta=1.0, sweeps=2, burn_in=1)
    return LdaModel(
        config=config,
        doc_topic=np.ones((n_docs, 1)),
        topic_word=np.full((1, n_terms), 1.0 / n_terms),
        doc_ids=[f"d{i}" for i in range(n_docs)],
        log_likelihood=[],
    )


class TestPerplexity:
    def test_uniform_single_topic_equals_vocabulary_size(self):
        matrix = matrix_from_tokens([[0, 1, 4], [2, 3]], n_terms=5)
        model = _uniform_model(n_docs=2, n_terms=5)
        assert perplexity(model, matrix) == pytest.approx(5.0, abs=1e-9)

    def test_fitted_model_beats_uniform(self):
        token_lists = [[0, 0, 1], [0, 1, 1], [2, 3, 3], [3, 2, 2]]
        matrix = matrix_from_tokens(token_lists, n_terms=4)
        config = LdaConfig(n_topics=2, alpha=0.3, beta=0.2, sweeps=150, burn_in=50, seed=4)
        model = fit(matrix, config)
        assert perplexity(model, matrix) < perplexity(_uniform_model(4, 4), matrix)

    def test_shape_mismatch_rejected(self):
        model = _uniform_model(n_docs=2, n_terms=5)
        with pytest.raises(VocabularyMismatch):
            perplexity(model, matrix_from_tokens([[0], [1]], n_terms=4))
        with pytest.raises(VocabularyMismatch):
            perplexity(model, matrix_from_tokens([[0]], n_terms=5))

    def test_empty_matrix_rejected(self):
        model = _uniform_model(n_docs=0, n_terms=5)
        empty = DocTermMatrix(n_docs=0, n_terms=5, counts=([], [], []), doc_ids=[])
        with pytest.raises(EmptyMatrix):
            perplexity(model, empty)


class TestCoherence:
    def _fixture(self):
        # Document presence: term0 in d0,d1,d2; term1 in d0,d1,d3; term2 in d3.
        matrix = DocTermMatrix(
            n_docs=4,
            n_terms=3,
            counts=([0, 0, 1, 1, 2, 3, 3], [0, 1, 0, 1, 0, 1, 2], [1, 1, 2, 1, 1, 1, 1]),
            doc_ids=["d0", "d1", "d2", "d3"],
        )
        config = LdaConfig(n_topics=2, alpha=1.0, beta=1.0, sweeps=2, burn_in=1)
        model = LdaModel(
            config=config,
            doc_topic=np.full((4, 2), 0.5),
            topic_word=np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]),
            doc_ids=matrix.doc_ids,
            log_likelihood=[],
        )
        return model, matrix

    def test_hand_computed_scores(self):
        model, matrix = self._fixture()
        scores = coherence_umass(model, matrix, top_m=3)
        assert scores[0] == pytest.approx(math.log(2), abs=1e-9)
        assert scores[1] == pytest.approx(math.log(2 / 3) + math.log(1 / 3), abs=1e-9)

    def test_ranks_top_words_as_topics_json_does(self):
        # Terms b, a, c; "b" and "a" tie at 0.25, so the tie goes by name: c, a.
        # Presence: b in d0; a in d1, d2; c in d0, d2.
        matrix = DocTermMatrix(
            n_docs=3, n_terms=3, counts=([0, 0, 1, 2, 2], [0, 2, 1, 1, 2], [1, 1, 1, 1, 1]),
            doc_ids=["d0", "d1", "d2"],
        )
        terms = ["b", "a", "c"]
        model = LdaModel(
            config=LdaConfig(n_topics=1, alpha=1.0, beta=1.0, sweeps=2, burn_in=1),
            doc_topic=np.ones((3, 1)),
            topic_word=np.array([[0.25, 0.25, 0.5]]),
            doc_ids=matrix.doc_ids,
            log_likelihood=[],
            vocab=Vocabulary(terms, {term: i for i, term in enumerate(terms)}, [1, 2, 2]),
        )
        assert model.top_term_indices(0, 2) == [2, 1]
        assert [term for term, _ in top_words(model, 0, 2)] == ["c", "a"]
        # ln((codoc(c, a) + 1) / df(a)) = ln(2 / 2); the pair (c, b) would give ln(2 / 1).
        assert coherence_umass(model, matrix, top_m=2) == [0.0]

    def test_top_m_capped_by_vocabulary(self):
        model, matrix = self._fixture()
        assert coherence_umass(model, matrix, top_m=3) == coherence_umass(
            model, matrix, top_m=50
        )

    def test_top_m_below_two_rejected(self):
        model, matrix = self._fixture()
        with pytest.raises(ValueError):
            coherence_umass(model, matrix, top_m=1)

    def test_top_word_absent_from_corpus_rejected(self):
        model, matrix = self._fixture()
        kept = matrix.terms != 2
        matrix = DocTermMatrix(
            n_docs=4,
            n_terms=3,
            counts=(matrix.docs[kept], matrix.terms[kept], matrix.values[kept]),
            doc_ids=matrix.doc_ids,
        )
        with pytest.raises(ValueError):
            coherence_umass(model, matrix, top_m=3)


def reference_coherence(model, matrix, top_m):
    """The per-term document-set loop coherence_umass replaced."""
    term_docs = {}
    for doc, term in matrix.counts:
        term_docs.setdefault(term, set()).add(doc)
    scores = []
    for topic in range(model.topic_word.shape[0]):
        top_terms = model.top_term_indices(topic, top_m)
        score = 0.0
        for j in range(1, len(top_terms)):
            docs_j = term_docs.get(top_terms[j], set())
            if not docs_j:
                raise AbsentTopWord(topic, top_terms[j])
            for i in range(j):
                docs_i = term_docs.get(top_terms[i], set())
                score += math.log((len(docs_i & docs_j) + 1) / len(docs_j))
        scores.append(score)
    return scores


class TestCoherenceMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 7), max_size=10), min_size=1, max_size=10).map(
            lambda rows: rows + [[], [3, 3]]
        ),
        st.integers(1, 4),
        st.integers(2, 9),
        st.data(),
    )
    def test_scores_equal_reference(self, token_lists, n_topics, top_m, data):
        matrix = matrix_from_tokens(token_lists, n_terms=8)
        # Small integer weights, so tied top words are common.
        weights = data.draw(st.lists(st.integers(0, 3), min_size=8 * n_topics, max_size=8 * n_topics))
        model = LdaModel(
            config=LdaConfig(n_topics=n_topics, sweeps=2, burn_in=1),
            doc_topic=np.full((matrix.n_docs, n_topics), 1.0 / n_topics),
            topic_word=np.array(weights, dtype=np.float64).reshape(n_topics, 8),
            doc_ids=matrix.doc_ids,
            log_likelihood=[],
        )
        try:
            expected = reference_coherence(model, matrix, top_m)
        except AbsentTopWord as exc:
            with pytest.raises(AbsentTopWord) as raised:
                coherence_umass(model, matrix, top_m=top_m)
            assert (raised.value.topic, raised.value.term) == (exc.topic, exc.term)
        else:
            assert coherence_umass(model, matrix, top_m=top_m) == expected


class TestSaveLoad:
    def _fitted(self):
        matrix = matrix_from_tokens([[0, 1, 2], [2, 2], [3, 0]], n_terms=4)
        vocab = Vocabulary(
            terms=["law", "tax", "court", "budget"],
            index={"law": 0, "tax": 1, "court": 2, "budget": 3},
            df=[2, 1, 2, 1],
        )
        config = LdaConfig(n_topics=2, alpha=0.4, beta=0.2, sweeps=15, burn_in=5, seed=3)
        return fit(matrix, config, vocab=vocab)

    def test_round_trip_is_exact(self, tmp_path):
        model = self._fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.doc_topic.tobytes() == model.doc_topic.tobytes()
        assert loaded.topic_word.tobytes() == model.topic_word.tobytes()
        assert loaded.log_likelihood == model.log_likelihood
        assert loaded.doc_ids == model.doc_ids
        assert loaded.vocab.terms == model.vocab.terms
        assert loaded.config == model.config
        resaved = tmp_path / "resaved.json"
        save_model(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_tampered_vocabulary_rejected(self, tmp_path):
        model = self._fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["vocabulary"]["terms"][0] = "edited"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(VocabularyMismatch):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "other", "version": 1}), encoding="utf-8")
        with pytest.raises(CorruptModel, match=f"^model file {re.escape(str(path))}: not a lextopic-model v2 file: "
                                               "'other' v1$"):
            load_model(path)

    @pytest.mark.parametrize("format, version, shown", [
        ("lextopic-model", 1, "'lextopic-model' v1; this version of lextopic does not read v1 files, so refit the model"),
        ("lextopic-model", 0, "'lextopic-model' v0"),
        ("lextopic-model", 3, "'lextopic-model' v3"),
        ("lextopic-model", "2", "'lextopic-model' v'2'"),
        ("lextopic-model", 2.0, "'lextopic-model' v2.0"),
        ("lextopic-model", True, "'lextopic-model' vTrue"),
        ("lextopic-model", 1.0, "'lextopic-model' v1.0"),
        ("lextopic-model", None, "'lextopic-model' vNone"),
        ("lextopic-model", 10**100, f"'lextopic-model' v{'1' + '0' * 79}... (101 characters)"),
        (None, 2, "None v2"),
        ("Lextopic-Model", 2, "'Lextopic-Model' v2"),
        (["lextopic-model"], 2, "['lextopic-model'] v2"),
        ("x" * 100_000, 1, f"'{'x' * 80}'... (100000 characters) v1"),
    ], ids=["v1", "v0", "v3", "string version", "float version", "true version", "v1.0", "no version",
            "101-digit version", "no format", "other case", "list format", "100000-character format"])
    def test_another_format_or_version_is_a_corrupt_model(self, tmp_path, format, version, shown):
        path = tmp_path / "model.json"
        save_model(self._fitted(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.update(format=format, version=version)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorruptModel) as caught:
            load_model(path)
        assert str(caught.value) == f"model file {path}: not a lextopic-model v2 file: {shown}"

    @pytest.mark.parametrize("failure", ["unserializable", "replace"])
    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch, failure):
        model = self._fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()
        if failure == "unserializable":
            model.doc_ids = ["d0", object(), "d2"]
            expected = TypeError
        else:
            def failing_replace(source, target):
                raise OSError("disk full")

            monkeypatch.setattr(os, "replace", failing_replace)
            expected = OSError
        with pytest.raises(expected):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["model.json"]

    def test_anonymous_vocabulary_round_trip(self, tmp_path):
        matrix = matrix_from_tokens([[0, 1], [1]], n_terms=2)
        config = LdaConfig(n_topics=2, alpha=0.5, beta=0.5, sweeps=6, burn_in=2, seed=1)
        model = fit(matrix, config)
        path = tmp_path / "anon.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab is None
        assert loaded.doc_topic.tobytes() == model.doc_topic.tobytes()


def _persian_model() -> LdaModel:
    rng = np.random.default_rng(3)
    terms = ["قانون", "مالیات", "دادگاه", "بودجه", "tax", "court\"s", "ab\\c"]
    n_topics, n_docs = 3, 5
    return LdaModel(
        config=LdaConfig(n_topics=n_topics, alpha=0.5, beta=0.1, sweeps=4, burn_in=1, seed=7),
        doc_topic=rng.dirichlet(np.full(n_topics, 0.3), n_docs),
        topic_word=rng.dirichlet(np.full(len(terms), 0.3), n_topics),
        doc_ids=[f"سند-{doc}" for doc in range(n_docs)],
        log_likelihood=[-12.5, -11.25, -1e-300],
        vocab=Vocabulary(terms=terms, index={term: i for i, term in enumerate(terms)}, df=[1, 2, 3, 1, 2, 3, 1]),
    )


def _saved_payload(tmp_path) -> tuple:
    path = tmp_path / "model.json"
    save_model(_persian_model(), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def _encoded(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


FINITE = st.integers(0, 2**64 - 1).map(float_from_bits).filter(math.isfinite)
AWKWARD_TEXT = st.sampled_from(["doc_topic", "base64", '"', "\\", "}", "قانون", "\u200c", "\U0001f600"]) | st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=5)


class TestModelFile:
    """model.json's θ and φ: base64 of their little-endian float64 bytes, read back bit for bit or rejected."""

    def test_tables_read_back_as_the_v1_decimal_text_did(self, tmp_path):
        matrix = matrix_from_tokens(token_lists_with_gaps(5), n_terms=15)
        model = fit(matrix, LdaConfig(n_topics=4, sweeps=12, burn_in=4, seed=5))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        # Version 1 wrote the three float members as json.dumps lists, last, in this order.
        v1_text = json.dumps({**payload, "version": 1, "doc_topic": model.doc_topic.tolist(),
                              "topic_word": model.topic_word.tolist(), "log_likelihood": model.log_likelihood})
        v1 = json.loads(v1_text)
        loaded = load_model(path)
        assert loaded.doc_topic.tobytes() == np.array(v1["doc_topic"]).tobytes()
        assert loaded.topic_word.tobytes() == np.array(v1["topic_word"]).tobytes()
        assert np.array(loaded.log_likelihood).tobytes() == np.array(v1["log_likelihood"]).tobytes()
        for table in (loaded.doc_topic, loaded.topic_word):
            assert table.dtype == np.float64 and table.flags.c_contiguous and table.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_model_round_trips_bit_for_bit(self, tmp_path_factory, data):
        terms = data.draw(st.lists(AWKWARD_TEXT, min_size=1, max_size=6, unique=True), label="terms")
        n_topics, n_docs = data.draw(st.integers(1, 3), label="n_topics"), data.draw(st.integers(0, 4), label="n_docs")
        cells = st.lists(FINITE, min_size=n_topics * (n_docs + len(terms)), max_size=n_topics * (n_docs + len(terms)))
        values = np.array(data.draw(cells, label="cells"), dtype=np.float64)
        model = LdaModel(
            config=LdaConfig(n_topics=n_topics, alpha=0.5, beta=0.1, sweeps=3, burn_in=1),
            doc_topic=values[: n_docs * n_topics].reshape(n_docs, n_topics),
            topic_word=values[n_docs * n_topics:].reshape(n_topics, len(terms)),
            doc_ids=data.draw(st.lists(AWKWARD_TEXT, min_size=n_docs, max_size=n_docs), label="doc_ids"),
            log_likelihood=data.draw(st.lists(st.floats(allow_nan=False), max_size=3), label="trace"),
            vocab=data.draw(st.sampled_from([None, Vocabulary(terms, {term: i for i, term in enumerate(terms)},
                                                              list(range(len(terms))))]), label="vocab"),
        )
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.doc_topic.tobytes() == model.doc_topic.tobytes()
        assert loaded.topic_word.tobytes() == model.topic_word.tobytes()
        assert loaded.doc_topic.shape == model.doc_topic.shape and loaded.topic_word.shape == model.topic_word.shape
        assert np.array(loaded.log_likelihood).tobytes() == np.array(model.log_likelihood).tobytes()
        assert (loaded.config, loaded.doc_ids, loaded.vocab) == (model.config, model.doc_ids, model.vocab)

    @pytest.mark.parametrize("array", [
        np.random.default_rng(1).random((3, 4)),
        np.asfortranarray(np.random.default_rng(2).random((3, 4))),
        np.random.default_rng(3).random((3, 8))[:, ::2],
        np.random.default_rng(4).random((3, 4)).astype(">f8"),
        np.random.default_rng(5).random((3, 4)).astype(np.float32),
        np.arange(-6, 6).reshape(3, 4),
        np.array([[-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
                  [float_from_bits(0x7FF8_0000_0000_0001), -math.inf, 0.1, -1e-300]]),
        np.zeros((0, 4)),
        np.zeros((4, 0)),
        np.full((1, 1), 0.5),
    ], ids=["C order", "Fortran order", "strided view", "big-endian", "float32", "int64", "edge bits", "no rows",
            "no columns", "one cell"])
    def test_a_table_reads_back_as_its_float64_values(self, array):
        encoded = lda._encode_table(array)
        assert (encoded["dtype"], encoded["shape"]) == ("<f8", list(array.shape))
        assert json.loads(json.dumps(encoded)) == encoded
        table = lda._float_table({"table": encoded}, "table")
        assert table.tobytes() == np.asarray(array, dtype=np.float64).tobytes() and table.shape == array.shape
        assert table.dtype == np.float64 and table.flags.c_contiguous and table.flags.writeable

    def test_a_loaded_model_can_be_edited_and_saved_again(self, tmp_path):
        path, _ = _saved_payload(tmp_path)
        model = load_model(path)
        model.doc_topic[0] = model.doc_topic[0][::-1]
        model.topic_word *= 0.5
        save_model(model, path)
        again = load_model(path)
        assert again.doc_topic.tobytes() == model.doc_topic.tobytes()
        assert again.topic_word.tobytes() == (_persian_model().topic_word * 0.5).tobytes()

    @pytest.mark.parametrize("name", ["doc_topic", "topic_word"])
    @pytest.mark.parametrize("edit, reason", [
        (lambda table: table.update(base64="!" + table["base64"]), "base64 does not decode: "),
        (lambda table: table.update(base64=" " + table["base64"]), "base64 does not decode: "),
        (lambda table: table.update(base64="\u0100" + table["base64"][1:]), "base64 does not decode: "),
        (lambda table: table.update(base64=table["base64"][:-1]), "base64 does not decode: "),
        (lambda table: table.update(base64=table["base64"] + "AA"), "base64 does not decode: "),
        (lambda table: table.update(base64=table["base64"][:-4]), "holds "),
        (lambda table: table.update(base64=_encoded([0.5])), "holds 8 bytes, not the "),
        (lambda table: table.update(base64=1), "base64 is not a string"),
        (lambda table: table.update(dtype=">f8"), "dtype is not '<f8'"),
        (lambda table: table.update(dtype="<f4"), "dtype is not '<f8'"),
        (lambda table: table.pop("dtype"), "dtype is not '<f8'"),
        (lambda table: table["shape"].__setitem__(0, True), "shape is not two integers in [0, 2**63)"),
        (lambda table: table["shape"].__setitem__(1, 1.5), "shape is not two integers in [0, 2**63)"),
        (lambda table: table["shape"].__setitem__(0, -1), "shape is not two integers in [0, 2**63)"),
        (lambda table: table.update(shape=[2**63, 0], base64=""), "shape is not two integers in [0, 2**63)"),
        (lambda table: table["shape"].append(1), "shape is not two integers in [0, 2**63)"),
        (lambda table: table.update(shape="3x2"), "shape is not two integers in [0, 2**63)"),
        (lambda table: table.update(shape=table["shape"][::-1]), "shapes of doc_topic, topic_word"),
        (lambda table: table.update(base64=_encoded(np.full(table["shape"], np.inf))), "holds a non-finite value"),
        (lambda table: table.update(base64=_encoded(np.full(table["shape"], np.nan))), "holds a non-finite value"),
    ], ids=["non-base64 character", "space", "non-ASCII character", "bad padding", "excess data", "short by 3 bytes",
            "fewer cells than the shape", "number", "big-endian", "float32", "no dtype", "true dimension",
            "1.5 dimension", "negative dimension", "2**63 rows", "three dimensions", "string shape",
            "transposed", "infinity", "NaN"])
    def test_a_flawed_table_is_a_corrupt_model(self, tmp_path, name, edit, reason):
        path, payload = _saved_payload(tmp_path)
        edit(payload[name])
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(CorruptModel) as caught:
            load_model(path)
        prefix = f"model file {path}: "
        assert str(caught.value).startswith(prefix + (reason if reason.startswith("shapes") else f"{name} {reason}"))

    @pytest.mark.parametrize("name", ["doc_topic", "topic_word"])
    @pytest.mark.parametrize("value", [[[0.5, 0.5]], "AAAAAAAA4D8=", None, 0.5])
    def test_a_table_that_is_not_an_object_is_a_corrupt_model(self, tmp_path, name, value):
        path, payload = _saved_payload(tmp_path)
        payload[name] = value
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(CorruptModel, match=f": {name} is not an object$"):
            load_model(path)

    @pytest.mark.parametrize("member, value, message", [
        ("log_likelihood", "abc", "log_likelihood is not a list of floats"),
        ("log_likelihood", [[1.0]], "log_likelihood is not a list of floats"),
        ("log_likelihood", [True, "x"], "log_likelihood is not a list of floats"),
        ("log_likelihood", {"a": 1}, "log_likelihood is not a list of floats"),
        ("log_likelihood", None, "log_likelihood is not a list of floats"),
        ("log_likelihood", 1.5, "log_likelihood is not a list of floats"),
        ("doc_ids", "abcde", "doc_ids is not a list of strings"),
        ("doc_ids", [1, 2, 3, 4, 5], "doc_ids is not a list of strings"),
        ("terms", "قانونها", "vocabulary terms is not a list of strings"),
        ("df", ["1", True, 2, 3, 1, 2, 3], "vocabulary df is not a list of integers"),
        ("df", [1.0, 2, 3, 1, 2, 3, 1], "vocabulary df is not a list of integers"),
        ("seed", float("inf"), "lda.seed must be an integer in [0, 2**64), got Infinity"),
    ])
    def test_rejects_a_member_of_the_wrong_type(self, tmp_path, member, value, message):
        path, payload = _saved_payload(tmp_path)
        sections = {"terms": payload["vocabulary"], "df": payload["vocabulary"], "seed": payload["config"]}
        sections.get(member, payload)[member] = value
        if member == "terms":  # so that the stored hash matches
            payload["vocabulary_hash"] = lda._vocab_hash(Vocabulary(list(value), {}, []), 7)
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(CorruptModel) as caught:
            load_model(path)
        assert str(caught.value) == f"model file {path}: {message}"


def token_lists_with_gaps(seed, n_docs=12, n_terms=15):
    """Random documents of 0-39 tokens, with the first, a middle and the last empty."""
    rng = np.random.default_rng(seed)
    token_lists = [rng.integers(0, n_terms, size=rng.integers(0, 40)).tolist() for _ in range(n_docs)]
    for doc in (0, n_docs // 2, n_docs - 1):
        token_lists[doc] = []
    return token_lists


def array_tables(sampler):
    return tuple(table.tolist() for table in sampler.tables)


def per_doc(sampler, values):
    return [values[start:stop].tolist() for start, stop in zip(sampler.doc_ptr[:-1], sampler.doc_ptr[1:])]


def assert_same_model(first, second):
    assert first.doc_topic.tobytes() == second.doc_topic.tobytes()
    assert first.topic_word.tobytes() == second.topic_word.tobytes()
    assert first.log_likelihood == second.log_likelihood


@pytest.fixture(scope="module")
def compiled_kernels():
    kernels = _gibbs.load_kernels()
    if kernels is None:
        assert _gibbs.find_compiler() is None, "a C compiler is on PATH but the compiled kernels did not load"
        pytest.skip("no C compiler on PATH")
    return kernels


@pytest.fixture(scope="module")
def compiled_sweep(compiled_kernels):
    return compiled_kernels.sweep


class TestArrayInit:
    """The compiled sampler's array initialisation starts where init_assignments does."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 5), max_size=12), min_size=1, max_size=8),
        st.integers(1, 25),
        st.integers(0, 2**64 - 1),
    )
    def test_matches_init_assignments(self, compiled_kernels, token_lists, n_topics, seed):
        if not any(token_lists):
            token_lists[0] = [0]
        matrix = matrix_from_tokens(token_lists, n_terms=6)
        config = LdaConfig(n_topics=n_topics, sweeps=2, burn_in=1, seed=seed)
        reference = init_assignments(matrix, config)
        sampler = lda._Sampler(matrix, config)
        assert per_doc(sampler, sampler.tokens) == reference.doc_tokens
        assert per_doc(sampler, sampler.z) == reference.assignments
        assert array_tables(sampler) == (reference.n_dk, reference.n_kw, reference.n_k, reference.n_d)
        assert sampler.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_fallback_runs_the_reference(self, monkeypatch):
        monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        matrix = matrix_from_tokens([[0, 1, 1], [], [2, 0]], n_terms=3)
        config = LdaConfig(n_topics=3, alpha=0.5, beta=0.1, sweeps=6, burn_in=1, seed=5)
        reference = init_assignments(matrix, config)
        sampler = lda._Sampler(matrix, config)
        assert sampler.state.assignments == reference.assignments
        for _ in range(5):
            gibbs_sweep(reference, config)
            sampler.step()
            assert sampler.state.assignments == reference.assignments
            assert sampler.tables == (reference.n_dk, reference.n_kw, reference.n_k, reference.n_d)


class TestCompiledSweep:
    @pytest.mark.parametrize("n_topics", [1, 3, 10, 20])
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_matches_reference_after_every_sweep(self, compiled_sweep, n_topics, seed):
        matrix = matrix_from_tokens(token_lists_with_gaps(seed), n_terms=15)
        config = LdaConfig(n_topics=n_topics, beta=0.05, sweeps=26, burn_in=1, seed=seed)
        reference = init_assignments(matrix, config)
        sampler = lda._Sampler(matrix, config)
        token_docs = np.repeat(np.arange(matrix.n_docs), np.diff(sampler.doc_ptr))
        for _ in range(25):
            gibbs_sweep(reference, config)
            sampler.step()
            assert per_doc(sampler, sampler.z) == reference.assignments
            assert array_tables(sampler) == (reference.n_dk, reference.n_kw, reference.n_k, reference.n_d)
            state_n_dk, state_n_kw, state_n_k, _ = sampler.tables
            n_dk = np.zeros_like(state_n_dk)
            n_kw = np.zeros_like(state_n_kw)
            np.add.at(n_dk, (token_docs, sampler.z), 1)
            np.add.at(n_kw, (sampler.z, sampler.tokens), 1)
            assert np.array_equal(n_dk, state_n_dk)
            assert np.array_equal(n_kw, state_n_kw)
            assert np.array_equal(n_kw.sum(axis=1), state_n_k)

    @pytest.mark.parametrize("n_topics", [1, 3, 10, 20])
    def test_fit_equals_python_path(self, compiled_sweep, monkeypatch, n_topics):
        matrix = matrix_from_tokens(token_lists_with_gaps(n_topics), n_terms=15)
        config = LdaConfig(n_topics=n_topics, sweeps=25, burn_in=5, seed=n_topics)
        compiled = fit(matrix, config)
        monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        assert_same_model(compiled, fit(matrix, config))

    def test_rejects_inconsistent_arrays(self, compiled_sweep):
        matrix = matrix_from_tokens([[0, 1], [1]], n_terms=2)
        sampler = lda._Sampler(matrix, LdaConfig(n_topics=2, sweeps=2, burn_in=1))
        n_dk, n_kw, n_k, _ = sampler.tables
        with pytest.raises(ValueError):
            compiled_sweep(sampler.doc_ptr, sampler.tokens, sampler.z, n_dk, n_kw, n_k,
                           np.zeros(sampler.tokens.size + 1), 1.0, 0.1)
        with pytest.raises(ValueError):
            compiled_sweep(sampler.doc_ptr, sampler.tokens, sampler.z.astype(np.int32), n_dk,
                           n_kw, n_k, np.zeros(sampler.tokens.size), 1.0, 0.1)


class TestTokenProbabilities:
    """The compiled token_probs loop equals its numpy reference bit for bit, and both equal einsum."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_compiled_equals_reference(self, compiled_kernels, data):
        n_topics = data.draw(st.integers(1, 33), label="n_topics")
        n_docs = data.draw(st.integers(1, 6), label="n_docs")
        n_terms = data.draw(st.integers(1, 9), label="n_terms")
        cells = st.tuples(st.integers(0, n_docs - 1), st.integers(0, n_terms - 1))
        entries = sorted(data.draw(st.lists(cells, min_size=1, max_size=40, unique=True), label="entries"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        docs, terms = np.array(entries, dtype=np.int64).T
        doc_topic = rng.dirichlet(np.full(n_topics, 0.5), n_docs)
        topic_word = rng.dirichlet(np.full(n_terms, 0.5), n_topics)
        compiled = compiled_kernels.token_probs(docs, terms, doc_topic, topic_word)
        assert compiled.tobytes() == lda._token_probs(docs, terms, doc_topic, topic_word).tobytes()

    @pytest.mark.parametrize("n_topics", [1, 3, 8, 10, 20, 33])
    def test_log_likelihood_matches_einsum(self, compiled_kernels, n_topics):
        # The einsum the blocked trace used, on numpy's 128-bit SIMD loop:
        # equal bits keep every seeded artifact that holds a log-likelihood.
        rng = np.random.default_rng(n_topics)
        n_entries = 70_000
        docs = np.sort(rng.integers(0, 500, n_entries))
        terms = rng.integers(0, 800, n_entries)
        counts = rng.integers(1, 5, n_entries).astype(np.float64)
        doc_topic = rng.dirichlet(np.ones(n_topics), 500)
        topic_word = rng.dirichlet(np.ones(800), n_topics)
        token_probs = np.einsum("ek,ek->e", doc_topic[docs], topic_word[:, terms].T)
        expected = float(np.add.reduce(counts * np.log(token_probs)))
        reference = lda._log_likelihood(docs, terms, counts, doc_topic, topic_word)
        compiled = lda._log_likelihood(docs, terms, counts, doc_topic, topic_word, compiled_kernels)
        assert compiled == reference == expected

    def test_one_entry_matrix(self, compiled_kernels):
        docs, terms = np.array([1]), np.array([2])
        doc_topic = np.array([[0.5, 0.5], [0.25, 0.75]])
        topic_word = np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4]])
        expected = 0.25 * 0.7 + 0.75 * 0.4
        assert lda._token_probs(docs, terms, doc_topic, topic_word).tolist() == [expected]
        assert compiled_kernels.token_probs(docs, terms, doc_topic, topic_word).tolist() == [expected]

    @pytest.mark.parametrize("docs, terms, n_topics", [
        ([0], [0, 1], 2),  # one doc index short
        ([0], [0], 3),  # doc_topic has a topic more than topic_word
        ([1], [0], 2),  # past the last document
        ([0], [-1], 2),  # before the first term
        ([0], [2], 2),  # past the last term
    ])
    def test_rejects_bad_arrays(self, compiled_kernels, docs, terms, n_topics):
        with pytest.raises(ValueError):
            compiled_kernels.token_probs(np.array(docs), np.array(terms), np.ones((1, n_topics)), np.ones((2, 2)))

    def test_perplexity_equals_fallback(self, compiled_kernels, monkeypatch):
        matrix = matrix_from_tokens(token_lists_with_gaps(9), n_terms=15)
        model = fit(matrix, LdaConfig(n_topics=9, sweeps=10, burn_in=2, seed=9))
        compiled = perplexity(model, matrix)
        monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        assert perplexity(model, matrix) == compiled


def assert_same_sum(got, want, n_kw, n_k, beta):
    """got and want differ by at most 1e-12 of the sum of |term| over log p(w | z)'s terms.

    That sum is the scale of the rounding error of adding the terms in
    any order; the value itself can be far smaller, where terms cancel.
    """
    lgamma = math.lgamma
    vbeta = len(n_kw[0]) * beta
    magnitude = (sum(abs(lgamma(vbeta) - lgamma(count + vbeta)) for count in n_k)
                 + sum(abs(lgamma(count + beta) - lgamma(beta)) for row in n_kw for count in row))
    assert abs(got - want) <= 1e-12 * magnitude


@st.composite
def _count_tables(draw):
    """n_kw of 1-6 topics over 1-8 terms, n_k its row sums, and a beta."""
    n_topics = draw(st.integers(1, 6), label="n_topics")
    n_terms = draw(st.integers(1, 8), label="n_terms")
    counts = st.integers(0, 40) | st.integers(0, 3000)
    n_kw = draw(st.lists(st.lists(counts, min_size=n_terms, max_size=n_terms), min_size=n_topics,
                         max_size=n_topics), label="n_kw")
    beta = draw(st.sampled_from([1e-6, 0.01, 0.1, 0.5, 1.0]) | st.floats(1e-4, 10.0), label="beta")
    return n_kw, [sum(row) for row in n_kw], beta


def _traced(n_kw, n_k, beta):
    """lda's log p(w | z), with the lgamma table built as _Sampler builds it: up to the largest column total."""
    table = lda._word_table(max(map(sum, zip(*n_kw))), beta)
    return lda._log_p_words(np.array(n_kw, dtype=np.int64), np.array(n_k, dtype=np.int64), beta, table)


class TestTraceLogPWords:
    """fit's trace, log p(w | z) from the count tables, against a plain math.lgamma loop."""

    @settings(max_examples=150, deadline=None)
    @given(_count_tables())
    def test_matches_reference(self, tables):
        n_kw, n_k, beta = tables
        assert_same_sum(_traced(n_kw, n_k, beta), log_p_words(n_kw, n_k, beta), n_kw, n_k, beta)

    @settings(max_examples=100, deadline=None)
    @given(_count_tables(), st.data())
    def test_unchanged_by_relabelling_topics(self, tables, data):
        n_kw, n_k, beta = tables
        order = data.draw(st.permutations(range(len(n_k))), label="topic order")
        relabelled = _traced([n_kw[k] for k in order], [n_k[k] for k in order], beta)
        assert_same_sum(relabelled, _traced(n_kw, n_k, beta), n_kw, n_k, beta)

    def test_empty_tables_give_zero(self):
        assert _traced([[0, 0], [0, 0]], [0, 0], 0.01) == 0.0 == log_p_words([[0, 0], [0, 0]], [0, 0], 0.01)

    @pytest.mark.parametrize("kernels", ["compiled", "fallback"])
    def test_each_sweep_traces_its_tables(self, monkeypatch, kernels):
        if kernels == "fallback":
            monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        matrix = matrix_from_tokens(token_lists_with_gaps(4), n_terms=15)
        config = LdaConfig(n_topics=4, beta=0.05, sweeps=8, burn_in=2, seed=4)
        sampler = lda._Sampler(matrix, config)
        # The largest column total: every token of the most frequent term in one topic.
        assert sampler.word_table.size == max(Counter(np.repeat(matrix.terms, matrix.values).tolist()).values()) + 1
        trace = []
        for _ in range(config.sweeps):
            sampler.step()
            _, n_kw, n_k, _ = (np.asarray(table).tolist() for table in sampler.tables)
            trace.append(sampler.log_p_words())
            assert_same_sum(trace[-1], log_p_words(n_kw, n_k, config.beta), n_kw, n_k, config.beta)
        assert fit(matrix, config).log_likelihood == trace

    @pytest.mark.parametrize("n_topics", [1, 7, 20])
    def test_compiled_and_fallback_record_equal_bits(self, compiled_kernels, monkeypatch, n_topics):
        matrix = matrix_from_tokens(token_lists_with_gaps(n_topics + 1), n_terms=15)
        config = LdaConfig(n_topics=n_topics, sweeps=12, burn_in=3, seed=n_topics)
        compiled = np.array(fit(matrix, config).log_likelihood)
        monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        assert compiled.tobytes() == np.array(fit(matrix, config).log_likelihood).tobytes()


# Prints the log-likelihood of 250,000 entries, which a BLAS dot would
# split over its threads, and the seeded artifacts of a small fit and sweep.
_THREAD_PROBE = """
import contextlib, hashlib, io, sys
from pathlib import Path
import numpy as np
from lextopic import cli, lda
from lextopic.corpus import SynthConfig, generate_synthetic_corpus, save_corpus

rng = np.random.default_rng(0)
n_entries = 250_000
docs = np.sort(rng.integers(0, 2_000, n_entries))
terms = rng.integers(0, 3_000, n_entries)
counts = rng.integers(1, 5, n_entries).astype(np.float64)
doc_topic = rng.dirichlet(np.ones(10), 2_000)
topic_word = rng.dirichlet(np.ones(3_000), 10)
print(lda._log_likelihood(docs, terms, counts, doc_topic, topic_word).hex())
out = Path(sys.argv[1])
corpus, _ = generate_synthetic_corpus(SynthConfig(n_docs=80, n_topics=3, vocab_size=50, doc_length=40))
save_corpus(corpus, out / "corpus.jsonl")
common = ["--corpus", str(out / "corpus.jsonl"), "--sweeps", "4", "--burn-in", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["fit", "--out", str(out / "fit"), "--topics", "3", *common]) == 0
    assert cli.main(["sweep", "--out", str(out / "sweep"), "--k-grid", "2,3", *common]) == 0
for name in ("fit/trace.csv", "fit/model.json", "sweep/sweep.csv"):
    print(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="BLAS runs one thread on one CPU")
def test_log_likelihood_does_not_depend_on_blas_threads(tmp_path):
    source_root = str(Path(lda.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(out)], capture_output=True, text=True,
                                env=env, check=True)
        outputs.append(result.stdout.splitlines())
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


class TestSweepFallback:
    @pytest.mark.parametrize("compiler", [None, shutil.which("false")], ids=["no-compiler", "compile-fails"])
    def test_python_sweep_gives_the_same_model(self, monkeypatch, tmp_path, caplog, compiler):
        matrix = matrix_from_tokens(token_lists_with_gaps(4), n_terms=15)
        config = LdaConfig(n_topics=4, sweeps=25, burn_in=5, seed=4)
        expected = fit(matrix, config)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_gibbs, "find_compiler", lambda: compiler)
        with caplog.at_level(logging.WARNING, logger="lextopic"):
            model = fit(matrix, config)
        assert_same_model(model, expected)
        warnings = [record for record in caplog.records if record.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "using the Python sweep" in warnings[0].getMessage()
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


class TestKernelCache:
    def test_build_deletes_the_stale_libraries(self, monkeypatch, tmp_path):
        compiler = _gibbs.find_compiler()
        if compiler is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = _native.cache_dir()
        cache.mkdir(parents=True)
        for name in ("gibbs-0000000000000000.so", "gibbs-1111111111111111.so"):
            (cache / name).write_bytes(b"an older build")
        (cache / ".gibbs-x1y2z3.so").write_bytes(b"another process's compile")
        (cache / "gibbs-busy.so").mkdir()  # unlink fails on a directory
        # Other libraries' builds, also one whose prefix begins with this one's.
        others = ["jsonl-0000000000000000.so", "gibbs-extra-0000000000000000.so"]
        for name in others:
            (cache / name).write_bytes(b"another library's build")
        (cache / "notes.txt").write_text("not a build")
        build = functools.partial(_native.build, "gibbs", _gibbs.SOURCE, _gibbs.CFLAGS, cache, compiler)
        target = build()
        kept = [target.name, ".gibbs-x1y2z3.so", "gibbs-busy.so", *others, "notes.txt"]
        assert sorted(path.name for path in cache.iterdir()) == sorted(kept)
        # A build found in the cache is returned without a look at the others.
        (cache / "gibbs-2222222222222222.so").write_bytes(b"an older build")
        assert build() == target
        kept.append("gibbs-2222222222222222.so")
        assert sorted(path.name for path in cache.iterdir()) == sorted(kept)
        # The reader's prefix holds the ABI tag and a digest of the include directory: its build deletes its own
        # install's stale build, never that of another ABI, nor that of another install of the same ABI.
        import sysconfig

        include = Path(sysconfig.get_paths()["include"])
        if not (include / "Python.h").is_file():
            pytest.skip("no Python.h")
        own = f"{_jsonl._prefix(include)}-0000000000000000.so"
        same_abi = f"{_jsonl._prefix(tmp_path / 'another' / 'include')}-0000000000000000.so"
        other_abi = "jsonl-cpython-399-x86_64-linux-gnu-0000000000000000.so"
        assert own.split("-")[:-2] == same_abi.split("-")[:-2] and own != same_abi
        for name in (own, same_abi, other_abi):
            (cache / name).write_bytes(b"an older build")
        assert _jsonl._load(cache, compiler) is not None
        added = {path.name for path in cache.iterdir()} - set(kept)
        assert len(added) == 3 and {same_abi, other_abi} < added and own not in added


class TestEntryBounds:
    @pytest.mark.parametrize(
        "key, count", [((2, 0), 1), ((0, 3), 1), ((-1, 0), 1), ((0, -1), 1), ((1, 1), -2), ((1, 5), 1), ((4, 2), 1)]
    )
    def test_out_of_range_entry_rejected(self, key, count):
        with pytest.raises(EntryOutOfRange, match=rf"^matrix entry \(doc {key[0]}, term {key[1]}\) = {count} is not "):
            DocTermMatrix(n_docs=2, n_terms=3, counts=_triple((0, 1, 2), (*key, count)), doc_ids=["a", "b"])

    @pytest.mark.parametrize("counts, shown", [
        (np.array([2.0, 1.5]), "(doc 0, term 0) = 2.0"),
        ([2, 1.5], "(doc 0, term 0) = 2.0"),
        ([2, np.float64(1.0)], "(doc 0, term 0) = 2.0"),
        (np.array([2, 1], dtype=object), "(doc 0, term 0) = 2"),
    ], ids=["float array", "float in a list", "numpy float in a list", "object array"])
    def test_a_count_that_is_not_an_integer_is_rejected(self, counts, shown):
        # A list takes the dtype numpy.asarray gives it; an array of no integer dtype is refused at its first entry.
        message = f"^matrix entry {re.escape(shown)} is not a non-negative integer count inside a 2 x 3 matrix$"
        with pytest.raises(EntryOutOfRange, match=message):
            DocTermMatrix(2, 3, ([0, 1], [0, 2], counts), ["a", "b"])

    @pytest.mark.parametrize("kernels", ["compiled", "fallback"])
    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "uint8", "uint16", "uint32", "uint64", "list"])
    def test_any_integer_dtype_gives_the_int64_model_and_scores(self, monkeypatch, kernels, dtype):
        if kernels == "fallback":
            monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        triple = (np.array([0, 0, 1, 2, 2]), np.array([0, 3, 1, 2, 3]), np.array([2, 1, 3, 1, 4]))
        config = LdaConfig(n_topics=2, sweeps=6, burn_in=2, seed=11)
        wide = DocTermMatrix(3, 4, triple, ["a", "b", "c"])
        given = tuple(array.tolist() if dtype == "list" else array.astype(dtype) for array in triple)
        narrow = DocTermMatrix(3, 4, given, ["a", "b", "c"])
        assert all(array.dtype == np.int64 for array in (narrow.docs, narrow.terms, narrow.values))
        model = fit(wide, config)
        assert_same_model(fit(narrow, config), model)
        assert perplexity(model, narrow) == perplexity(model, wide)
        assert coherence_umass(model, narrow, top_m=3) == coherence_umass(model, wide, top_m=3)

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["docs", "terms", "counts"])
    @pytest.mark.parametrize("dtype", ["float64", "float16", "bool"])
    def test_an_entry_array_that_is_not_integer_is_rejected(self, position, dtype):
        triple = [np.array([0, 1]), np.array([1, 0]), np.array([1, 1])]
        triple[position] = triple[position].astype(dtype)
        shown = "(doc {}, term {}) = {}".format(*(array[0].item() for array in triple))
        message = f"^matrix entry {re.escape(shown)} is not a non-negative integer count inside a 2 x 3 matrix$"
        with pytest.raises(EntryOutOfRange, match=message):
            DocTermMatrix(2, 3, tuple(triple), ["a", "b"])

    def test_an_unsigned_count_that_int64_cannot_hold_is_rejected(self):
        counts = np.array([1, 2**63], dtype=np.uint64)
        with pytest.raises(EntryOutOfRange, match=r"^matrix entry \(doc 1, term 2\) = 9223372036854775808 is not "):
            DocTermMatrix(2, 3, (np.array([0, 1]), np.array([0, 2]), counts), ["a", "b"])

    @pytest.mark.parametrize("build, shown, what", [
        (lambda: DocTermMatrix(2, 3, ([2**63], [0], [1]), ["a", "b"]), "(doc 9223372036854775808, term 0) = 1", ""),
        (lambda: DocTermMatrix(2, 3, ([0], [2**70], [1]), ["a", "b"]), "(doc 0, term 1180591620717411303424) = 1", ""),
        (lambda: DocTermMatrix(2, 3, ([-2**63 - 1], [0], [1]), ["a", "b"]), "(doc -9223372036854775809, term 0) = 1",
         ""),
        (lambda: DocTermMatrix(2, 3, ([0], [0], [2**63]), ["a", "b"]), "(doc 0, term 0) = 9223372036854775808", ""),
        (lambda: DocTermMatrix(2, 3, ([0], [0], [np.uint64(2**64 - 1)]), ["a", "b"]),
         "(doc 0, term 0) = 18446744073709551615", ""),
        (lambda: DocTermMatrix(2, 3, ([0, 1, 1], np.array([0, 1, 2**63], dtype=np.uint64), [1, 2, 3]), ["a", "b"]),
         "(doc 1, term 9223372036854775808) = 3", ""),
        (lambda: TfidfMatrix(2, 3, ([2**63], [0], [0.5]), ["a", "b"]), "(doc 9223372036854775808, term 0) = 0.5",
         "weight"),
        (lambda: TfidfMatrix(2, 3, ([0], [-2**64], [2**70]), ["a", "b"]),
         "(doc 0, term -18446744073709551616) = 1180591620717411303424", "weight"),
    ], ids=["doc 2**63", "term 2**70", "doc below -2**63", "count 2**63", "numpy uint64 count", "a later entry",
            "tf-idf doc 2**63", "tf-idf term -2**64"])
    def test_a_listed_entry_outside_int64_is_rejected(self, build, shown, what):
        what = "finite real weight" if what else "non-negative integer count"
        message = f"^matrix entry {re.escape(shown)} is not a {what} inside a 2 x 3 matrix$"
        with pytest.raises(EntryOutOfRange, match=message):
            build()

    def test_int64_extremes_in_a_list_are_stored_as_given(self):
        matrix = DocTermMatrix(2, 3, ([0, 1], [0, 2], [1, 2**63 - 1]), ["a", "b"])
        assert (matrix.docs.tolist(), matrix.terms.tolist(), matrix.values.tolist()) == ([0, 1], [0, 2], [1, 2**63 - 1])
        assert matrix.values.dtype == np.int64
        weights = TfidfMatrix(2, 3, ([0], [1], [2**64 - 1]), ["a", "b"])
        assert weights.values.tolist() == [float(2**64 - 1)]

    @pytest.mark.parametrize("triple, message", [
        ((np.array([0, 1, 1]), np.array([0, 2]), np.array([1, 1, 1])),
         r"^matrix entry 2 is not one number in each of docs, terms and values: \[\(3,\), \(2,\), \(3,\)\]$"),
        ((np.array([[0, 1]]), np.array([[0, 2]]), np.array([[1, 1]])),
         r"^matrix entry 0 is not one number in each of docs, terms and values: \[\(1, 2\), \(1, 2\), \(1, 2\)\]$"),
        (([[0, 1]], [[0, 2]], [[1, 1]]),
         r"^matrix entry 0 is not one number in each of docs, terms and values: \[\(1, 2\), \(1, 2\), \(1, 2\)\]$"),
        (([np.zeros((2, 2)), np.zeros((2, 3))], [0, 1], [1, 1]), r"^matrix entries are not three 1-d arrays: "),
        ({(0, 0): 1}, r"^matrix entries are not a \(docs, terms, values\) triple: dict$"),
        ((np.array([2, 0, 1, 2, 0, 1]), np.array([0, 1, 2, 1, 2, 0]), np.array([1, 2, 1, 3, 1, 2])),
         r"^matrix entry 1 \(doc 0, term 1\) follows doc 2$"),
    ], ids=["ragged", "2-d", "2-d lists", "a list numpy cannot stack", "a dict", "docs out of order"])
    def test_a_triple_the_samplers_would_misread_is_rejected(self, triple, message):
        with pytest.raises(MalformedEntries, match=message) as raised:
            DocTermMatrix(3, 3, triple, ["a", "b", "c"])
        assert isinstance(raised.value, LdaError) and raised.value.module == "lda"

    def test_entries_in_doc_order_but_not_term_order_fit_alike_on_both_samplers(self, monkeypatch):
        triple = (np.array([0, 0, 1, 2, 2]), np.array([3, 0, 1, 3, 2]), np.array([2, 1, 3, 1, 4]))
        config = LdaConfig(n_topics=2, sweeps=4, burn_in=1, seed=11)
        compiled = fit(DocTermMatrix(3, 4, triple, ["a", "b", "c"]), config)
        monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        assert_same_model(fit(DocTermMatrix(3, 4, triple, ["a", "b", "c"]), config), compiled)

    def test_scoring_takes_only_entries_in_doc_order(self):
        with pytest.raises(MalformedEntries, match=r"^matrix entry 1 \(doc 0, term 1\) follows doc 1$"):
            DocTermMatrix(2, 3, ([1, 0, 1], [0, 1, 2], [1, 2, 1]), ["a", "b"])
        matrix = DocTermMatrix(2, 3, ([0, 1, 1], [1, 0, 2], [2, 1, 1]), ["a", "b"])
        assert perplexity(_uniform_model(n_docs=2, n_terms=3), matrix) == pytest.approx(3.0)

    @pytest.mark.parametrize("weight", [10**400, "x", None, True, np.bool_(True), float("nan"), float("inf"),
                                        -float("inf"), np.float64("nan"), 1j, np.longdouble(2) ** 2000])
    def test_a_listed_weight_that_is_no_finite_real_is_rejected(self, weight):
        shown = re.escape(str(weight) if not isinstance(weight, str) else repr(weight))
        if isinstance(weight, int) and weight == 10**400:
            shown = re.escape(str(weight)[:80]) + r"\.\.\. \(401 characters\)"
        message = rf"^matrix entry \(doc 1, term 2\) = {shown} is not a finite real weight inside a 2 x 3 matrix$"
        with pytest.raises(EntryOutOfRange, match=message):
            TfidfMatrix(2, 3, ([1], [2], [weight]), ["a", "b"])

    @pytest.mark.parametrize("weights", [
        np.array([0.5, np.nan]), np.array([0.5, np.inf], dtype=np.float32), np.array([0.5, -np.inf], dtype=np.float16),
        np.array([False, True]), np.array([0.5, 1j]), np.array([0.5, np.longdouble(2) ** 2000]), np.array(["0.5", "1"]),
    ], ids=["nan", "float32 inf", "float16 -inf", "bool", "complex", "longdouble past float64", "str"])
    def test_a_weight_array_that_is_no_finite_real_is_rejected(self, weights):
        at = 0 if weights.dtype.kind in "bcU" else 1
        message = rf"^matrix entry \(doc {at}, term {2 * at}\) = .* is not a finite real weight inside a 2 x 3 matrix$"
        with pytest.raises(EntryOutOfRange, match=message):
            TfidfMatrix(2, 3, ([0, 1], [0, 2], weights), ["a", "b"])

    @pytest.mark.parametrize("weight", [0, -3, 2.5, np.float32(0.25), np.int8(-2), np.uint64(2**64 - 1),
                                        -sys.float_info.max])
    def test_a_finite_real_listed_weight_is_stored_as_float64(self, weight):
        matrix = TfidfMatrix(2, 3, ([1], [2], [weight]), ["a", "b"])
        assert matrix.values.dtype == np.float64 and matrix.values.tolist() == [float(weight)]

    def test_a_long_entry_value_is_cut_in_the_message(self):
        with pytest.raises(EntryOutOfRange) as raised:
            DocTermMatrix(2, 3, ([0], [0], ["7" * 100_000]), ["a", "b"])
        assert str(raised.value) == (
            f"matrix entry (doc 0, term 0) = {'7' * 80!r}... (100000 characters) is not a non-negative integer "
            "count inside a 2 x 3 matrix"
        )

    @pytest.mark.parametrize("triple, shown", [
        ((np.array([0]), np.array([0]), np.array([10**5000], dtype=object)), "(doc 0, term 0) = an int of 16,610 bits"),
        (([10**5000], [0], [1]), "(doc an int of 16,610 bits, term 0) = 1"),
        (([0], [-10**5000], [1]), "(doc 0, term a negative int of 16,610 bits) = 1"),
    ], ids=["count", "doc", "term"])
    def test_an_int_past_the_digit_limit_is_named_by_its_size(self, triple, shown):
        with pytest.raises(EntryOutOfRange) as raised:
            DocTermMatrix(2, 3, triple, ["a", "b"])
        assert str(raised.value) == f"matrix entry {shown} is not a non-negative integer count inside a 2 x 3 matrix"


class TestTokenTotal:
    @pytest.mark.parametrize("kernels", ["compiled", "fallback"])
    @pytest.mark.parametrize("counts, total", [
        ([2**62, 2**62], 2**63),
        ([2**63 - 1] * 3, 3 * (2**63 - 1)),
        ([2**60, 1], 2**60 + 1),
    ], ids=["a total of 2**63", "a total past 2**64", "a total past numpy's largest int64 array"])
    def test_a_total_the_sampler_cannot_hold_is_refused(self, monkeypatch, kernels, counts, total):
        if kernels == "fallback":
            monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        matrix = DocTermMatrix(len(counts), 1, (list(range(len(counts))), [0] * len(counts), counts),
                               [f"d{doc}" for doc in range(len(counts))])
        message = f"^the matrix holds {total} tokens, more than the sampler can hold in memory$"
        with pytest.raises(TooManyTokens, match=message) as raised:
            fit(matrix, LdaConfig(n_topics=2, sweeps=1, burn_in=0))
        assert raised.value.module == "lda"

    @pytest.mark.parametrize("kernels", ["compiled", "fallback"])
    def test_a_matrix_of_zero_counts_holds_no_tokens(self, monkeypatch, kernels):
        if kernels == "fallback":
            monkeypatch.setattr(_gibbs, "load_kernels", lambda: None)
        matrix = DocTermMatrix(2, 2, ([0, 1], [1, 0], [0, 0]), ["a", "b"])
        with pytest.raises(EmptyMatrix):
            fit(matrix, LdaConfig(n_topics=2, sweeps=1, burn_in=0))
        with pytest.raises(EmptyMatrix):
            perplexity(_uniform_model(n_docs=2, n_terms=2), matrix)


# --- one rule for the entries of every matrix ---------------------------------

_INT_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"]
_FORMS = ["list"] * 4 + ["object"] + _INT_DTYPES + ["float64", "bool"]
_WILD_ITEMS = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([2**62, 2**63 - 1, 2**63, 2**64, -2**63 - 1, 10**5000, -10**5000]),
    st.floats(), st.booleans(),
    st.sampled_from([np.int64(1), np.uint64(2**64 - 1), np.float32(0.5), np.float64(np.nan), np.bool_(True), None, "1"]),
)


def _as_form(items, form, flat):
    """items as a list, or as an array of the form's dtype where it holds them, else of object dtype."""
    if form == "list":
        return items if flat else [items]
    try:
        with np.errstate(invalid="ignore"):  # nan cast to an integer dtype
            part = np.array(items, dtype=form)
    except (OverflowError, TypeError, ValueError):  # a dtype that cannot hold an item
        part = np.empty(len(items), dtype=object)
        part[:] = items
    return part if flat else part.reshape(1, -1)


@st.composite
def _matrices(draw):
    """(class, n_docs, n_terms, triple): a valid triple, then up to three flaws, each part in a drawn form.

    A flaw is a wild item (a bool, a float, an int past int64, a 5,000-digit
    int, None), docs out of order, a ragged part or a 2-d one. A form is a
    list, or an array of int8-uint64, float64, bool or object dtype.
    """
    cls = draw(st.sampled_from([DocTermMatrix, TfidfMatrix]))
    n_docs, n_terms, length = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 5))
    docs = sorted(draw(st.lists(st.integers(0, max(n_docs - 1, 0)), min_size=length, max_size=length)))
    terms = draw(st.lists(st.integers(0, n_terms - 1), min_size=length, max_size=length))
    values = draw(st.lists(st.integers(0, 5) if cls is DocTermMatrix else st.floats(0, 2),
                           min_size=length, max_size=length))
    parts, flat = [docs, terms, values], [True] * 3
    for flaw in draw(st.lists(st.sampled_from(["item", "item", "order", "ragged", "2-d"]), max_size=3)):
        part = draw(st.integers(0, 2))
        if flaw == "item" and parts[part]:
            parts[part][draw(st.integers(0, len(parts[part]) - 1))] = draw(_WILD_ITEMS)
        elif flaw == "order":
            parts[0] = draw(st.permutations(parts[0]))
        elif flaw == "ragged" and parts[part]:
            parts[part] = parts[part][:-1]
        elif flaw == "2-d":
            flat[part] = False
    triple = tuple(_as_form(items, draw(st.sampled_from(_FORMS)), flat[part]) for part, items in enumerate(parts))
    return cls, n_docs, n_terms, triple


def _only_lextopic_errors(call):
    try:
        return call()
    except LextopicError:
        return None


class TestOneEntryRule:
    @settings(max_examples=300, deadline=None)
    @given(_matrices())
    def test_a_triple_builds_a_checked_matrix_or_raises_an_entry_error(self, drawn):
        cls, n_docs, n_terms, triple = drawn
        doc_ids = [f"d{doc}" for doc in range(n_docs)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                matrix = cls(n_docs, n_terms, triple, doc_ids)
            except (EntryOutOfRange, MalformedEntries):
                return
            given_items = [np.asarray(part, dtype=object).tolist() for part in triple]
            number = int if cls is DocTermMatrix else float
            assert [matrix.docs.tolist(), matrix.terms.tolist(), matrix.values.tolist()] == [
                list(map(int, given_items[0])), list(map(int, given_items[1])), list(map(number, given_items[2]))]
            assert [array.dtype for array in (matrix.docs, matrix.terms, matrix.values)] == [
                np.int64, np.int64, np.int64 if cls is DocTermMatrix else np.float64]
            assert all(array.ndim == 1 for array in (matrix.docs, matrix.terms, matrix.values))
            assert ((0 <= matrix.docs) & (matrix.docs < n_docs) & (0 <= matrix.terms) & (matrix.terms < n_terms)).all()
            assert (np.diff(matrix.docs) >= 0).all()
            assert np.isfinite(matrix.values).all() and (cls is TfidfMatrix or (matrix.values >= 0).all())
            self._downstream(matrix)

    @staticmethod
    def _downstream(matrix):
        """Every function that reads a matrix, each of which may raise only LextopicErrors."""
        if isinstance(matrix, TfidfMatrix):
            _only_lextopic_errors(lambda: to_pseudo_counts(matrix))
            return
        _only_lextopic_errors(lambda: idf(matrix))
        for norm in ("l2", "none"):
            _only_lextopic_errors(lambda: to_pseudo_counts(tfidf(matrix, norm)))
        _only_lextopic_errors(lambda: drop_empty_rows(matrix))
        total = sum(matrix.values.tolist())
        if total <= 1000 or total > lda._MAX_TOKENS:  # no test asks for an allocation that could succeed
            for kernels in (_gibbs.load_kernels, lambda: None):
                with patch.object(_gibbs, "load_kernels", kernels):
                    _only_lextopic_errors(lambda: fit(matrix, LdaConfig(n_topics=2, sweeps=1, burn_in=0)))
        model = _uniform_model(matrix.n_docs, matrix.n_terms)
        _only_lextopic_errors(lambda: perplexity(model, matrix))
        _only_lextopic_errors(lambda: coherence_umass(model, matrix, top_m=2))
