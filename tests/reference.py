"""Slow, direct oracles that tests compare the package against.

They live beside the tests because no command uses them: the package
keeps only the code its pipeline runs.
"""

import numpy as np

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
