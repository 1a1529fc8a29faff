"""Topic model fitting by collapsed Gibbs sampling, plus model scoring.

``fit`` is a loop over one ``_Sampler``, which holds the matrix's
validated entries, the token slots, the count tables and the random
stream. With the compiled kernels of ``_gibbs.c`` the slots and tables
are numpy arrays that the compiled sweep resamples in place. Without a
C compiler the sampler runs the pure-Python ``init_assignments`` /
``gibbs_sweep`` pair on nested lists, which is also the reference the
compiled path is tested against: both give the same assignments for the
same seed. The log-likelihood trace and ``perplexity`` likewise use the
compiled ``token_probs`` loop, with ``_token_probs`` as its numpy
reference and fallback: both give the same bits, and both sum the
count-weighted logs in one fixed order. ``save_model`` writes θ and φ with the
compiled ``format_floats``, and with ``json.dumps`` where it falls back:
both give the same bytes. ``load_model`` reads them back with the compiled
``parse_table``, and with ``json.load`` where it falls back: both give the
same model.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import product

import numpy as np

from ._files import atomic_writer, parse_json_object, read_json_object
from .errors import AbsentTopWord, CorruptModel, EmptyMatrix, EntryOutOfRange, InvalidConfig, TooLarge, VocabularyMismatch
from .vectorize import DocTermMatrix, Vocabulary

__all__ = [
    "LdaConfig",
    "SamplerState",
    "LdaModel",
    "init_assignments",
    "gibbs_sweep",
    "fit",
    "fit_chains",
    "exact_posterior",
    "collapsed_log_joint",
    "perplexity",
    "coherence_umass",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "lextopic-model"
MODEL_VERSION = 1
_ENUMERATION_BOUND = 10**6
INPUT_MODES = ("counts", "tfidf-pseudo")


@dataclass
class LdaConfig:
    n_topics: int = 10
    alpha: float | None = None
    beta: float = 0.01
    sweeps: int = 1000
    burn_in: int = 500
    seed: int = 0
    input_mode: str = "counts"

    def __post_init__(self):
        if self.n_topics < 1:
            raise InvalidConfig(f"n_topics must be >= 1, got {self.n_topics}")
        if self.alpha is None:
            # Classic heuristic: total document-topic mass of 50.
            self.alpha = 50.0 / self.n_topics
        for name, prior in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(prior) and prior > 0):
                raise InvalidConfig(f"{name} must be positive and finite, got {prior}")
        if self.sweeps < 1:
            raise InvalidConfig(f"sweeps must be >= 1, got {self.sweeps}")
        if not 0 <= self.burn_in < self.sweeps:
            raise InvalidConfig(
                f"burn_in must satisfy 0 <= burn_in < sweeps, got {self.burn_in}/{self.sweeps}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidConfig(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.input_mode not in INPUT_MODES:
            raise InvalidConfig(f"input_mode must be 'counts' or 'tfidf-pseudo', got {self.input_mode!r}")


@dataclass
class SamplerState:
    """Per-token topic assignments with their running count tables.

    doc_tokens holds the term index of every token slot, expanded from
    the sparse matrix in (doc, term-sorted) order, so sweep order is
    deterministic. n_dk, n_kw, n_k, n_d are exact tallies of the
    assignments at all times.
    """

    doc_tokens: list[list[int]]
    assignments: list[list[int]]
    n_dk: list[list[int]]
    n_kw: list[list[int]]
    n_k: list[int]
    n_d: list[int]
    rng: np.random.Generator

    def recount(self) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
        """Rebuild all four tables from assignments alone."""
        n_topics = len(self.n_k)
        n_terms = len(self.n_kw[0])
        n_dk = [[0] * n_topics for _ in self.doc_tokens]
        n_kw = [[0] * n_terms for _ in range(n_topics)]
        n_k = [0] * n_topics
        n_d = [0] * len(self.doc_tokens)
        for doc, tokens in enumerate(self.doc_tokens):
            for slot, term in enumerate(tokens):
                topic = self.assignments[doc][slot]
                n_dk[doc][topic] += 1
                n_kw[topic][term] += 1
                n_k[topic] += 1
                n_d[doc] += 1
        return n_dk, n_kw, n_k, n_d


@dataclass
class LdaModel:
    config: LdaConfig
    doc_topic: np.ndarray
    topic_word: np.ndarray
    doc_ids: list[str]
    log_likelihood: list[float]
    vocab: Vocabulary | None = None

    def top_term_indices(self, topic: int, top_m: int) -> list[int]:
        """Term indices of the topic's top_m words, ties broken by term name.

        Only the terms at or above the top_m-th largest probability are sorted;
        every tie at that value is among them, so the order is the full sort's.
        """
        row = self.topic_word[topic]
        if not np.isfinite(row).all():
            raise ValueError(f"topic {topic} has a non-finite term probability")
        cut = row.size - min(top_m, row.size)
        names = _term_names(self)
        candidates = np.flatnonzero(row >= np.partition(row, cut)[cut]).tolist()
        return sorted(candidates, key=lambda term: (-row[term], names[term]))[:top_m]


def _term_names(model: LdaModel) -> list[str]:
    """The vocabulary's terms; an anonymous model's are term-<index>, zero-padded to one width."""
    n_terms = model.topic_word.shape[1]
    if model.vocab is not None:
        return model.vocab.terms
    width = len(str(max(n_terms - 1, 0)))
    return [f"term-{term:0{width}d}" for term in range(n_terms)]


def _expand_tokens(matrix: DocTermMatrix) -> list[list[int]]:
    doc_tokens = []
    for row in matrix.rows():
        tokens: list[int] = []
        for term, count in row:
            tokens.extend([term] * count)
        doc_tokens.append(tokens)
    return doc_tokens


def init_assignments(matrix: DocTermMatrix, config: LdaConfig) -> SamplerState:
    """Assign every token slot a uniform random topic; tally the tables."""
    if not matrix.values.size:
        raise EmptyMatrix()
    rng = np.random.default_rng(config.seed)
    doc_tokens = _expand_tokens(matrix)
    assignments = [rng.integers(0, config.n_topics, size=len(tokens)).tolist() for tokens in doc_tokens]
    # recount reads the table sizes from n_kw and n_k, then fills all four.
    state = SamplerState(doc_tokens, assignments, [], [[0] * matrix.n_terms] * config.n_topics,
                         [0] * config.n_topics, [], rng)
    state.n_dk, state.n_kw, state.n_k, state.n_d = state.recount()
    return state


def gibbs_sweep(state: SamplerState, config: LdaConfig) -> SamplerState:
    """Resample every token slot once, in (doc, slot) order, in place.

    Each slot is drawn from the collapsed conditional, proportional to
    (n_dk - i + alpha) * (n_kw - i + beta) / (n_k - i + V*beta), where -i
    removes the slot's current assignment; tests/reference.py has it as a
    function. One uniform draw per slot comes from a single per-document
    generator call, keeping the stream deterministic.
    """
    n_topics = config.n_topics
    alpha = config.alpha
    beta = config.beta
    vbeta = len(state.n_kw[0]) * beta
    n_kw = state.n_kw
    n_k = state.n_k
    weights = [0.0] * n_topics
    for doc, tokens in enumerate(state.doc_tokens):
        if not tokens:
            continue
        z_doc = state.assignments[doc]
        nd = state.n_dk[doc]
        uniforms = state.rng.random(len(tokens)).tolist()
        for slot, term in enumerate(tokens):
            old = z_doc[slot]
            nd[old] -= 1
            n_kw[old][term] -= 1
            n_k[old] -= 1
            total = 0.0
            for k in range(n_topics):
                value = (nd[k] + alpha) * (n_kw[k][term] + beta) / (n_k[k] + vbeta)
                weights[k] = value
                total += value
            threshold = uniforms[slot] * total
            cumulative = 0.0
            new = n_topics - 1
            for k in range(n_topics):
                cumulative += weights[k]
                if cumulative > threshold:
                    new = k
                    break
            z_doc[slot] = new
            nd[new] += 1
            n_kw[new][term] += 1
            n_k[new] += 1
    return state


def _doc_topic_estimate(n_dk: np.ndarray, n_d: np.ndarray, alpha: float) -> np.ndarray:
    return (n_dk + alpha) / (n_d[:, None] + n_dk.shape[1] * alpha)


def _topic_word_estimate(n_kw: np.ndarray, n_k: np.ndarray, beta: float) -> np.ndarray:
    return (n_kw + beta) / (n_k[:, None] + n_kw.shape[1] * beta)


def _entries(matrix: DocTermMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry docs, terms and counts (as floats), in (doc, term) order; one outside the matrix raises EntryOutOfRange."""
    docs, terms, counts = matrix.docs, matrix.terms, matrix.values.astype(np.float64)
    bad = (docs < 0) | (docs >= matrix.n_docs) | (terms < 0) | (terms >= matrix.n_terms) | (counts < 0)
    if bad.any():
        first = int(np.argmax(bad))
        raise EntryOutOfRange(
            int(docs[first]), int(terms[first]), int(counts[first]), matrix.n_docs, matrix.n_terms
        )
    return docs, terms, counts


def _token_probs(docs: np.ndarray, terms: np.ndarray, doc_topic: np.ndarray, topic_word: np.ndarray) -> np.ndarray:
    """Each entry's probability, sum over k of doc_topic[doc, k] * topic_word[k, term].

    One topic at a time, in the order of numpy's einsum("ek,ek->e") on
    128-bit SIMD: even and odd topics sum apart, each block of 8 topics
    from its top pair down, then the rest in order. ``token_probs`` in
    ``_gibbs.c`` sums the same way, so the two agree bit for bit.
    """
    n_topics = doc_topic.shape[1]
    blocked = n_topics - n_topics % 8
    order = [base + i for base in range(0, blocked, 8) for i in (6, 7, 4, 5, 2, 3, 0, 1)]
    lanes = [np.zeros(docs.size), np.zeros(docs.size)]
    for k in order + list(range(blocked, n_topics)):
        lanes[k % 2] += doc_topic[docs, k] * topic_word[k, terms]
    return lanes[0] + lanes[1]


def _log_likelihood(
    docs: np.ndarray,
    terms: np.ndarray,
    counts: np.ndarray,
    doc_topic: np.ndarray,
    topic_word: np.ndarray,
    kernels=None,
) -> float:
    """Sum over entries of count * log(probability), with the compiled token_probs where kernels are given.

    The sum is numpy's pairwise add.reduce, whose order is fixed; a BLAS
    dot would split it by the thread count and change the last bits.
    """
    token_probs = _token_probs if kernels is None else kernels.token_probs
    log_p = token_probs(docs, terms, doc_topic, topic_word)
    np.log(log_p, out=log_p)
    log_p *= counts
    return float(np.add.reduce(log_p))


def _load_kernels():
    # Imported here, not at the top, so that ingest, which neither samples,
    # scores nor reads a model, does not load the kernel module.
    from . import _gibbs

    return _gibbs.load_kernels()


class _Sampler:
    """One Gibbs chain over a matrix: its entries, token slots, count tables and random stream.

    entries is the matrix's validated (docs, terms, counts), and tables is
    (n_dk, n_kw, n_k, n_d), laid out as in SamplerState. With the compiled
    kernels the slots and tables are int64 arrays: tokens[doc_ptr[d]:
    doc_ptr[d + 1]] are document d's term indices and z their topics, in
    SamplerState's slot order, and one integers() call over all slots draws
    init_assignments' stream. Without them, state is init_assignments'
    SamplerState, whose lists the tables are. The same seed gives the same
    assignments either way.
    """

    def __init__(self, matrix: DocTermMatrix, config: LdaConfig):
        if not matrix.values.size:
            raise EmptyMatrix()
        self.config = config
        self.entries = docs, terms, counts = _entries(matrix)
        self.kernels = _load_kernels()
        if self.kernels is None:
            self.state = init_assignments(matrix, config)
            self.rng = self.state.rng
            self.tables = (self.state.n_dk, self.state.n_kw, self.state.n_k, self.state.n_d)
            return
        n_topics, n_terms, n_docs = config.n_topics, matrix.n_terms, matrix.n_docs
        lengths = counts.astype(np.int64)
        self.tokens = np.repeat(terms, lengths)
        token_docs = np.repeat(docs, lengths)
        n_d = np.bincount(token_docs, minlength=n_docs)
        self.doc_ptr = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(n_d, out=self.doc_ptr[1:])
        self.rng = np.random.default_rng(config.seed)
        self.z = self.rng.integers(0, n_topics, size=self.tokens.size)
        self.tables = (
            np.bincount(token_docs * n_topics + self.z, minlength=n_docs * n_topics).reshape(n_docs, n_topics),
            np.bincount(self.z * n_terms + self.tokens, minlength=n_topics * n_terms).reshape(n_topics, n_terms),
            np.bincount(self.z, minlength=n_topics),
            n_d,
        )
        self._uniforms = np.empty(self.tokens.size)

    def step(self) -> None:
        """Resample every token slot once; one random() call draws gibbs_sweep's stream."""
        if self.kernels is None:
            gibbs_sweep(self.state, self.config)
            return
        self.rng.random(out=self._uniforms)
        self.kernels.sweep(self.doc_ptr, self.tokens, self.z, *self.tables[:3], self._uniforms,
                           self.config.alpha, self.config.beta)

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """The smoothed doc-topic and topic-word estimates of the current tables."""
        n_dk, n_kw, n_k, n_d = map(np.asarray, self.tables)
        return _doc_topic_estimate(n_dk, n_d, self.config.alpha), _topic_word_estimate(n_kw, n_k, self.config.beta)


def fit(matrix: DocTermMatrix, config: LdaConfig, vocab: Vocabulary | None = None) -> LdaModel:
    """Run the Gibbs sampler and average estimators past burn-in.

    Sweeps and the log-likelihood trace run compiled when a C compiler is
    available and through gibbs_sweep and _token_probs otherwise, with
    equal results.
    """
    sampler = _Sampler(matrix, config)
    doc_topic_sum = np.zeros((matrix.n_docs, config.n_topics))
    topic_word_sum = np.zeros((config.n_topics, matrix.n_terms))
    trace: list[float] = []
    for sweep_index in range(config.sweeps):
        sampler.step()
        doc_topic, topic_word = sampler.estimates()
        trace.append(_log_likelihood(*sampler.entries, doc_topic, topic_word, sampler.kernels))
        if sweep_index >= config.burn_in:
            doc_topic_sum += doc_topic
            topic_word_sum += topic_word
    samples = config.sweeps - config.burn_in
    return LdaModel(
        config=config,
        doc_topic=doc_topic_sum / samples,
        topic_word=topic_word_sum / samples,
        doc_ids=list(matrix.doc_ids),
        log_likelihood=trace,
        vocab=vocab,
    )


def fit_chains(
    matrix: DocTermMatrix, config: LdaConfig, n_chains: int, vocab: Vocabulary | None = None
) -> list[LdaModel]:
    """n_chains independent fits; chain c uses seed + c, so topic labels are not comparable across chains."""
    if n_chains < 1:
        raise InvalidConfig(f"n_chains must be >= 1, got {n_chains}")
    return [fit(matrix, replace(config, seed=config.seed + chain), vocab) for chain in range(n_chains)]


def collapsed_log_joint(
    doc_tokens: list[list[int]],
    assignments: list[list[int]],
    n_topics: int,
    n_terms: int,
    alpha: float,
    beta: float,
) -> float:
    """log p(words, assignments) with the mixing weights integrated out.

    Symmetric-prior Polya urn form: a product of gamma-function ratios
    over the count tables. Invariant under topic relabeling.
    """
    lgamma = math.lgamma
    n_kw = [[0] * n_terms for _ in range(n_topics)]
    n_k = [0] * n_topics
    log_p = 0.0
    for tokens, z_doc in zip(doc_tokens, assignments):
        n_dk = [0] * n_topics
        for term, topic in zip(tokens, z_doc):
            n_dk[topic] += 1
            n_kw[topic][term] += 1
            n_k[topic] += 1
        log_p += lgamma(n_topics * alpha) - lgamma(len(tokens) + n_topics * alpha)
        for count in n_dk:
            log_p += lgamma(count + alpha) - lgamma(alpha)
    for topic in range(n_topics):
        log_p += lgamma(n_terms * beta) - lgamma(n_k[topic] + n_terms * beta)
        for count in n_kw[topic]:
            log_p += lgamma(count + beta) - lgamma(beta)
    return log_p


def exact_posterior(matrix: DocTermMatrix, config: LdaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means by brute-force enumeration of every assignment.

    Test oracle only: weights each of the K^N assignment vectors by its
    collapsed joint probability and averages the smoothed estimators.
    """
    doc_tokens = _expand_tokens(matrix)
    slots = [(doc, term) for doc, tokens in enumerate(doc_tokens) for term in tokens]
    n_slots = len(slots)
    n_states = config.n_topics**n_slots
    if n_states > _ENUMERATION_BOUND:
        raise TooLarge(n_states, _ENUMERATION_BOUND)
    n_topics = config.n_topics
    n_terms = matrix.n_terms
    n_docs = matrix.n_docs
    doc_lengths = [len(tokens) for tokens in doc_tokens]

    log_weights = np.empty(n_states)
    flat_states = product(range(n_topics), repeat=n_slots)
    slot_offsets = []
    offset = 0
    for length in doc_lengths:
        slot_offsets.append(offset)
        offset += length

    def tables_for(flat: tuple) -> tuple[list[list[int]], list[list[int]], list[int]]:
        n_dk = [[0] * n_topics for _ in range(n_docs)]
        n_kw = [[0] * n_terms for _ in range(n_topics)]
        n_k = [0] * n_topics
        for (doc, term), topic in zip(slots, flat):
            n_dk[doc][topic] += 1
            n_kw[topic][term] += 1
            n_k[topic] += 1
        return n_dk, n_kw, n_k

    for index, flat in enumerate(flat_states):
        per_doc = [
            list(flat[slot_offsets[doc]: slot_offsets[doc] + doc_lengths[doc]])
            for doc in range(n_docs)
        ]
        log_weights[index] = collapsed_log_joint(
            doc_tokens, per_doc, n_topics, n_terms, config.alpha, config.beta
        )
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    weights /= weights.sum()

    doc_topic_mean = np.zeros((n_docs, n_topics))
    topic_word_mean = np.zeros((n_topics, n_terms))
    for weight, flat in zip(weights, product(range(n_topics), repeat=n_slots)):
        n_dk, n_kw, n_k = tables_for(flat)
        doc_topic = _doc_topic_estimate(
            np.asarray(n_dk, dtype=np.float64),
            np.asarray(doc_lengths, dtype=np.float64),
            config.alpha,
        )
        topic_word = _topic_word_estimate(
            np.asarray(n_kw, dtype=np.float64),
            np.asarray(n_k, dtype=np.float64),
            config.beta,
        )
        doc_topic_mean += weight * doc_topic
        topic_word_mean += weight * topic_word
    return doc_topic_mean, topic_word_mean


def perplexity(model: LdaModel, matrix: DocTermMatrix) -> float:
    """exp of the negative mean per-token log-likelihood under the model."""
    if matrix.n_terms != model.topic_word.shape[1]:
        raise VocabularyMismatch(
            f"matrix has {matrix.n_terms} terms, model expects {model.topic_word.shape[1]}"
        )
    if matrix.n_docs != model.doc_topic.shape[0]:
        raise VocabularyMismatch(
            f"matrix has {matrix.n_docs} documents, model expects {model.doc_topic.shape[0]}"
        )
    if not matrix.values.size:
        raise EmptyMatrix()
    docs, terms, counts = _entries(matrix)
    log_lik = _log_likelihood(docs, terms, counts, model.doc_topic, model.topic_word, _load_kernels())
    return float(np.exp(-log_lik / counts.sum()))


def coherence_umass(model: LdaModel, matrix: DocTermMatrix, top_m: int = 10) -> list[float]:
    """Per-topic co-occurrence coherence over each topic's top_m words.

    Pairs are ordered by topic rank; each contributes
    ln((codoc(w_i, w_j) + 1) / codoc(w_j)) where codoc counts documents
    and w_j is the lower-ranked word. Higher is more coherent.
    """
    if top_m < 2:
        raise ValueError(f"top_m must be >= 2, got {top_m}")
    docs, terms, _ = _entries(matrix)
    top_terms = [model.top_term_indices(topic, top_m) for topic in range(model.topic_word.shape[0])]
    # Co-document counts of every pair of top words, from a 0/1 incidence
    # matrix over the union of the topics' top words.
    # Sorted and deduplicated by hand: a plain np.unique imports numpy.ma.
    columns = np.sort(np.array(top_terms, dtype=np.int64), axis=None)
    distinct = np.ones(columns.size, dtype=bool)
    distinct[1:] = columns[1:] != columns[:-1]
    columns = columns[distinct]
    present = np.isin(terms, columns)
    incidence = np.zeros((matrix.n_docs, columns.size))
    incidence[docs[present], np.searchsorted(columns, terms[present])] = 1.0
    codoc = (incidence.T @ incidence).astype(np.int64).tolist()
    scores = []
    for topic, topic_terms in enumerate(top_terms):
        rows = np.searchsorted(columns, topic_terms).tolist()
        score = 0.0
        for j in range(1, len(rows)):
            docs_j = codoc[rows[j]][rows[j]]
            if not docs_j:
                raise AbsentTopWord(topic, topic_terms[j])
            for i in range(j):
                score += math.log((codoc[rows[i]][rows[j]] + 1) / docs_j)
        scores.append(score)
    return scores


def _vocab_hash(vocab: Vocabulary | None, n_terms: int) -> str:
    if vocab is None:
        payload = f"anonymous:{n_terms}"
    else:
        payload = "\n".join(vocab.terms)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _json_floats(array) -> str:
    """json.dumps(array.tolist()) of a 1-D or 2-D float64 array, compiled where the kernels load."""
    array = np.ascontiguousarray(array, dtype=np.float64)
    kernels = _load_kernels()
    return json.dumps(array.tolist()) if kernels is None else kernels.format_floats(array)


def save_model(model: LdaModel, path) -> None:
    """Versioned compact JSON, UTF-8, ending in a newline; float repr round-trips, so reload is exact.

    The text is json.dumps of the payload, with doc_topic and topic_word
    written by _json_floats instead of from Python lists. It is built
    whole before the file is opened, then written beside path and renamed
    over it: a failed save leaves the old file.
    """
    head = json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(model.config),
        "vocabulary_hash": _vocab_hash(model.vocab, model.topic_word.shape[1]),
        "vocabulary": None
        if model.vocab is None
        else {"terms": model.vocab.terms, "df": model.vocab.df},
        "doc_ids": model.doc_ids,
    }, ensure_ascii=False)
    text = [
        head[:-1],  # without its closing brace
        ', "doc_topic": ', _json_floats(model.doc_topic),
        ', "topic_word": ', _json_floats(model.topic_word),
        ', "log_likelihood": ', json.dumps(np.asarray(model.log_likelihood, dtype=np.float64).tolist()),
        "}\n",
    ]
    with atomic_writer(path) as handle:
        handle.writelines(text)


def load_model(path) -> LdaModel:
    """Read a save_model file; one that cannot hold a model raises CorruptModel.

    Where the kernels load, the file is read once as bytes: the compiled
    parse_table reads doc_topic and topic_word from their text straight
    into float64, and json.loads every other member. If it declines a
    table, or the text is not one JSON object, the file is read again with
    json.load, which gives the same model and reports what is wrong.
    """
    payload = _compiled_payload(path)
    if payload is None:
        payload = read_json_object(path, lambda reason: CorruptModel(path, reason))
    if payload.get("format") != MODEL_FORMAT or payload.get("version") != MODEL_VERSION:
        raise VocabularyMismatch(
            f"not a {MODEL_FORMAT} v{MODEL_VERSION} file: "
            f"{payload.get('format')!r} v{payload.get('version')!r}"
        )
    try:
        return _model_from_payload(payload)
    except KeyError as exc:
        raise CorruptModel(path, f"missing key {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise CorruptModel(path, str(exc)) from None


def _compiled_payload(path) -> dict | None:
    """The model file's members, θ and φ as arrays from parse_table; None where json.load must read it."""
    kernels = _load_kernels()
    if kernels is None:
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    tables = dict.fromkeys(("doc_topic", "topic_word"), kernels.parse_table)
    return parse_json_object(data, kernels.value_end, tables)


_JSON_KINDS = {str: "a string", bool: "a boolean", type(None): "null", dict: "an object"}


def _float_table(payload: dict, name: str) -> np.ndarray:
    """payload[name] as a float64 array, whose cells must be JSON numbers that a float64 holds.

    The compiled parser gives an array. json.load gives nested lists, in
    which np.array would take "0.5" and true as numbers and fail on a
    400-digit integer with an OverflowError, so their cells are checked
    first; a cell that fails raises ValueError naming the table.
    """
    value = payload[name]
    if isinstance(value, np.ndarray):
        return value
    pending = [value]
    while pending:
        item = pending.pop()
        cells = item if type(item) is list else [item]
        kinds = set(map(type, cells))
        if list in kinds:
            kinds.discard(list)
            pending.extend(cell for cell in cells if type(cell) is list)
        if not kinds <= {float, int}:
            kind = min(kinds - {float, int}, key=str)
            raise ValueError(f"{name} holds {_JSON_KINDS.get(kind, kind.__name__)}, not a number")
        if int in kinds:
            try:
                for cell in cells:
                    float(cell)
            except OverflowError:
                raise ValueError(f"{name} holds an integer too large for a float64") from None
    return np.array(value, dtype=np.float64)


def _model_from_payload(payload: dict) -> LdaModel:
    vocab = None
    if payload["vocabulary"] is not None:
        terms = list(payload["vocabulary"]["terms"])
        vocab = Vocabulary(
            terms=terms,
            index={term: position for position, term in enumerate(terms)},
            df=list(payload["vocabulary"]["df"]),
        )
    topic_word = _float_table(payload, "topic_word")
    n_terms = topic_word.shape[-1]
    if payload["vocabulary_hash"] != _vocab_hash(vocab, n_terms):
        raise VocabularyMismatch("stored vocabulary hash does not match stored vocabulary")
    model = LdaModel(
        config=LdaConfig(**payload["config"]),
        doc_topic=_float_table(payload, "doc_topic"),
        topic_word=topic_word,
        doc_ids=list(payload["doc_ids"]),
        log_likelihood=payload["log_likelihood"],
        vocab=vocab,
    )
    n_docs, n_topics = len(model.doc_ids), model.config.n_topics
    found = [model.doc_topic.shape, topic_word.shape]
    wanted = [(n_docs, n_topics), (n_topics, n_terms)]
    if vocab is not None:
        found.append((len(vocab.terms), len(vocab.df)))
        wanted.append((n_terms, n_terms))
    if found != wanted:
        raise ValueError(f"shapes of doc_topic, topic_word and vocabulary terms/df {found} are not {wanted}, "
                         f"as {n_docs} doc_ids and {n_topics} topics require")
    for name in ("doc_topic", "topic_word"):
        if not np.isfinite(getattr(model, name)).all():
            raise ValueError(f"{name} holds a non-finite value")
    return model
