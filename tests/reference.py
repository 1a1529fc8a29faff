"""Slow, direct oracles that tests compare the package against.

They live beside the tests because no command uses them: the package
keeps only the code its pipeline runs. test_hygiene.py's
test_every_public_definition_is_used enforces that rule.
"""

import math

import numpy as np

from lextopic.corpus import Corpus, GroundTruth, LawRecord, LawType, SynthConfig, _synthetic_date
from lextopic.errors import EmptyDocument, MissingYear
from lextopic.lda import LdaConfig, SamplerState
from lextopic.preprocess import (
    _DEFAULT_PUNCTUATION_TABLE, Document, LemmaRules, PreprocessConfig, default_config, normalize,
)


def remove_punctuation(text: str) -> str:
    """Replace each mark of DEFAULT_PUNCTUATION with a space."""
    return text.translate(_DEFAULT_PUNCTUATION_TABLE)


def tokenize(text: str, min_token_length: int = 1) -> list[str]:
    return [token for token in text.split() if len(token) >= min_token_length]


def remove_stopwords(tokens: list[str], stopword_list) -> list[str]:
    return [token for token in tokens if token not in stopword_list]


def lemmatize(tokens: list[str], lemma_rules: LemmaRules) -> list[str]:
    return [lemma_rules.apply(token) for token in tokens]


def preprocess_document(record: LawRecord, config: PreprocessConfig | None = None) -> Document:
    """preprocess.preprocess_corpus on one record: the five stages over title + " " + content.

    A lemma can land on a stopword or shrink below the length floor, so
    the stopword and length filters are re-checked on the lemmatized
    tokens; the output is then a fixed point of every stage.
    """
    if config is None:
        config = default_config()
    if record.date is None:
        raise MissingYear(record.id)
    text = remove_punctuation(normalize(f"{record.title} {record.content}"))
    tokens = tokenize(text, config.min_token_length)
    tokens = remove_stopwords(tokens, config.stopword_list)
    tokens = lemmatize(tokens, config.lemma_rules)
    tokens = [
        token
        for token in tokens
        if len(token) >= config.min_token_length and token not in config.stopword_list
    ]
    if not tokens:
        raise EmptyDocument(record.id)
    return Document(record.id, tokens, record.date.gregorian_year)


def gibbs_conditional(
    state: SamplerState, doc: int, slot: int, term: int, config: LdaConfig
) -> np.ndarray:
    """Collapsed resampling distribution for one token slot.

    p(topic = k) is proportional to
    (n_dk - i + alpha) * (n_kw - i + beta) / (n_k - i + V*beta),
    where -i removes the slot's current assignment from each table.
    Pure: the state is read, never written.
    """
    n_topics = config.n_topics
    n_terms = len(state.n_kw[0])
    vbeta = n_terms * config.beta
    current = state.assignments[doc][slot]
    weights = np.empty(n_topics)
    for k in range(n_topics):
        drop = 1 if k == current else 0
        weights[k] = (
            (state.n_dk[doc][k] - drop + config.alpha)
            * (state.n_kw[k][term] - drop + config.beta)
            / (state.n_k[k] - drop + vbeta)
        )
    return weights / weights.sum()


def log_p_words(n_kw: list[list[int]], n_k: list[int], beta: float) -> float:
    """The collapsed log p(w | z) of Griffiths & Steyvers (PNAS 2004), term by term with math.lgamma.

    Per topic k, lgamma(V*beta) - lgamma(n_k + V*beta), then each of its
    cells' lgamma(n_kw + beta) - lgamma(beta), summed in that order.
    """
    lgamma = math.lgamma
    vbeta = len(n_kw[0]) * beta
    log_p = 0.0
    for topic, row in enumerate(n_kw):
        log_p += lgamma(vbeta) - lgamma(n_k[topic] + vbeta)
        for count in row:
            log_p += lgamma(count + beta) - lgamma(beta)
    return log_p


def generate_synthetic_corpus(config: SynthConfig) -> tuple[Corpus, GroundTruth]:
    """corpus.generate_synthetic_corpus as rng.choice draws it: each topic's p validated and summed per draw."""
    rng = np.random.default_rng(config.seed)
    topic_word = rng.dirichlet([config.beta] * config.vocab_size, size=config.n_topics)
    doc_topic = rng.dirichlet([config.alpha] * config.n_topics, size=config.n_docs)
    width = max(3, len(str(config.vocab_size - 1)))
    words = [f"w{term:0{width}d}" for term in range(config.vocab_size)]

    records = []
    for doc in range(config.n_docs):
        assignments = rng.choice(config.n_topics, size=config.doc_length, p=doc_topic[doc])
        token_ids = np.empty(config.doc_length, dtype=np.int64)
        for topic in np.unique(assignments):
            positions = assignments == topic
            token_ids[positions] = rng.choice(
                config.vocab_size, size=int(positions.sum()), p=topic_word[topic]
            )
        records.append(
            LawRecord(
                id=f"synth-{doc:05d}",
                title=f"synthetic law {doc:05d}",
                content=" ".join(words[token] for token in token_ids),
                law_type=LawType.REGULATION,
                date=_synthetic_date(config.years[doc % len(config.years)]),
            )
        )
    return Corpus(records), GroundTruth(doc_topic=doc_topic, topic_word=topic_word)
