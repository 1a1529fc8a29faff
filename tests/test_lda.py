"""Collapsed Gibbs sampler, exact-enumeration oracle, and model metrics."""

import copy
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_from_bits
from lextopic import _gibbs, lda
from lextopic.analyze import top_words
from lextopic.errors import AbsentTopWord, CorruptModel, EmptyMatrix, EntryOutOfRange, InvalidConfig, TooLarge, VocabularyMismatch
from lextopic.lda import (
    LdaConfig,
    LdaModel,
    SamplerState,
    coherence_umass,
    collapsed_log_joint,
    exact_posterior,
    fit,
    fit_chains,
    gibbs_sweep,
    init_assignments,
    load_model,
    perplexity,
    save_model,
)
from lextopic.vectorize import DocTermMatrix, Vocabulary
from reference import gibbs_conditional


def matrix_from_tokens(token_lists, n_terms):
    counts = Counter()
    for doc, tokens in enumerate(token_lists):
        for term in tokens:
            counts[(doc, term)] += 1
    return DocTermMatrix(
        n_docs=len(token_lists),
        n_terms=n_terms,
        counts=dict(counts),
        doc_ids=[f"d{i}" for i in range(len(token_lists))],
    )


class TestConfig:
    def test_alpha_defaults_to_fifty_over_k(self):
        assert LdaConfig(n_topics=10).alpha == pytest.approx(5.0)
        assert LdaConfig(n_topics=25).alpha == pytest.approx(2.0)

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
            # 50/K rounds to 0.0, which the alpha row rejects.
            {"n_topics": 10**400},
            {"n_topics": 2**1100},
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
        empty = DocTermMatrix(n_docs=0, n_terms=0, counts={}, doc_ids=[])
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

    def test_chains_are_independent_runs(self):
        matrix = matrix_from_tokens([[0, 1, 2], [2, 2], [3, 0]], n_terms=4)
        config = LdaConfig(n_topics=2, alpha=0.4, beta=0.2, sweeps=20, burn_in=5, seed=8)
        chains = fit_chains(matrix, config, n_chains=2)
        assert isinstance(chains, list) and len(chains) == 2
        assert chains[0].config.seed == 8 and chains[1].config.seed == 9
        single = fit(matrix, config)
        assert chains[0].doc_topic.tobytes() == single.doc_topic.tobytes()
        with pytest.raises(InvalidConfig):
            fit_chains(matrix, config, n_chains=0)

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
        empty = DocTermMatrix(n_docs=0, n_terms=5, counts={}, doc_ids=[])
        with pytest.raises(EmptyMatrix):
            perplexity(model, empty)


class TestCoherence:
    def _fixture(self):
        # Document presence: term0 in d0,d1,d2; term1 in d0,d1,d3; term2 in d3.
        matrix = DocTermMatrix(
            n_docs=4,
            n_terms=3,
            counts={(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 1, (2, 0): 1, (3, 1): 1, (3, 2): 1},
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
            n_docs=3, n_terms=3, counts={(0, 0): 1, (0, 2): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1},
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
        matrix = DocTermMatrix(
            n_docs=4,
            n_terms=3,
            counts={key: value for key, value in matrix.counts.items() if key[1] != 2},
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
        with pytest.raises(VocabularyMismatch):
            load_model(path)

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


def _neighbours(value: float) -> list[float]:
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


EDGE_FLOATS = [
    0.0, -0.0, 0.1, -0.1, 1 / 3, 2 / 3, 1.0, -1.0, 0.5, 1.5, 123456789.125,
    math.nan, -math.nan, math.inf, -math.inf, float_from_bits(0x7FF8000000000001),
    5e-324, -5e-324, 1e-323, 2.2250738585072009e-308, 2.225073858507201e-308,  # subnormals
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,  # smallest and largest normals
    1.2345678901234567e-308, 9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
    *(float(n) for n in (2, 7, 10, 99, 100, 1001, 65536, 999999999999999, 10**15 + 1)),
    *_neighbours(1e-4), *_neighbours(1e-5), *_neighbours(1e16), *_neighbours(1e17),
    9.9999e-05, 0.00010000000000001, 9999999999999998.0, 1e16 + 2.0, 1.2345e16, 99999999999999990.0,
]


class TestFormatFloats:
    """The compiled format_floats writes exactly what json.dumps(array.tolist()) writes."""

    def test_edge_values(self, compiled_kernels):
        values = np.array(EDGE_FLOATS)
        assert compiled_kernels.format_floats(values) == json.dumps(values.tolist())
        switches = np.array([[-0.0, 0.0001, 1e-05, 1e15, 1e16], [5e-324, 1.5e300, math.nan, math.inf, -math.inf]])
        assert compiled_kernels.format_floats(switches) == (
            "[[-0.0, 0.0001, 1e-05, 1000000000000000.0, 1e+16], [5e-324, 1.5e+300, NaN, Infinity, -Infinity]]"
        )

    @pytest.mark.parametrize("powers", [
        [2.0**exponent for exponent in range(-1074, 1024)],
        [float(f"1e{exponent}") for exponent in range(-323, 309)],
        [float(f"{digit}e{exponent}") for digit in (1, 5, 9) for exponent in range(-20, 23)],
        [float(2**bits - 1) for bits in range(1, 54)],
    ], ids=["powers of 2", "powers of 10", "round decimals", "integers to 2**53"])
    def test_powers_and_integers(self, compiled_kernels, powers):
        values = np.array(powers + [-value for value in powers])
        assert compiled_kernels.format_floats(values) == json.dumps(values.tolist())

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_json_dumps(self, compiled_kernels, data):
        n_rows = data.draw(st.integers(0, 4), label="n_rows")
        n_cols = data.draw(st.integers(0, 6), label="n_cols")
        elements = st.floats() | st.integers(0, 2**64 - 1).map(float_from_bits)
        values = data.draw(st.lists(elements, min_size=n_rows * n_cols, max_size=n_rows * n_cols), label="values")
        table = np.array(values, dtype=np.float64).reshape(n_rows, n_cols)
        assert compiled_kernels.format_floats(table) == json.dumps(table.tolist())
        row = table.ravel()
        assert compiled_kernels.format_floats(row) == json.dumps(row.tolist())

    @pytest.mark.parametrize("values", [
        np.zeros((2, 2, 2)), np.float64(1.0), np.zeros(3, dtype=np.float32), np.zeros((3, 2))[:, 0],
    ], ids=["3-D", "0-D", "float32", "strided"])
    def test_rejects_other_arrays(self, compiled_kernels, values):
        with pytest.raises(ValueError):
            compiled_kernels.format_floats(values)


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
        cache = _gibbs._cache_dir()
        cache.mkdir(parents=True)
        for name in ("gibbs-0000000000000000.so", "gibbs-1111111111111111.so"):
            (cache / name).write_bytes(b"an older build")
        (cache / ".gibbs-x1y2z3.so").write_bytes(b"another process's compile")
        (cache / "gibbs-busy.so").mkdir()  # unlink fails on a directory
        (cache / "notes.txt").write_text("not a build")
        target = _gibbs._build(cache, compiler)
        kept = [target.name, ".gibbs-x1y2z3.so", "gibbs-busy.so", "notes.txt"]
        assert sorted(path.name for path in cache.iterdir()) == sorted(kept)
        # A build found in the cache is returned without a look at the others.
        (cache / "gibbs-2222222222222222.so").write_bytes(b"an older build")
        assert _gibbs._build(cache, compiler) == target
        assert sorted(path.name for path in cache.iterdir()) == sorted(kept + ["gibbs-2222222222222222.so"])


class TestEntryBounds:
    @pytest.mark.parametrize(
        "key, count", [((2, 0), 1), ((0, 3), 1), ((-1, 0), 1), ((0, -1), 1), ((1, 1), -2)]
    )
    def test_out_of_range_entry_rejected(self, key, count):
        matrix = DocTermMatrix(n_docs=2, n_terms=3, counts={(0, 1): 2, key: count}, doc_ids=["a", "b"])
        with pytest.raises(EntryOutOfRange):
            fit(matrix, LdaConfig(n_topics=2, sweeps=2, burn_in=0))

    def test_perplexity_rejects_out_of_range_entry(self):
        matrix = DocTermMatrix(2, 3, {(0, 1): 2, (1, 5): 1}, ["a", "b"])
        with pytest.raises(EntryOutOfRange):
            perplexity(_uniform_model(n_docs=2, n_terms=3), matrix)

    def test_coherence_rejects_out_of_range_document(self):
        matrix = DocTermMatrix(2, 3, {(0, 0): 1, (0, 1): 1, (1, 2): 1, (4, 2): 1}, ["a", "b"])
        with pytest.raises(EntryOutOfRange):
            coherence_umass(_uniform_model(n_docs=2, n_terms=3), matrix, top_m=3)
