"""Slow, direct oracles that tests compare the package against.

They live beside the tests because no command uses them: the package
keeps only the code its pipeline runs.
"""

import numpy as np

from lextopic.corpus import Corpus, GroundTruth, LawRecord, LawType, SynthConfig, _synthetic_date
from lextopic.lda import LdaConfig, SamplerState


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
