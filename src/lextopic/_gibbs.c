/* One collapsed Gibbs sweep over CSR token arrays, and the per-entry
 * token probabilities behind fit's log-likelihood trace and perplexity.
 *
 * Same arithmetic in the same order as lextopic.lda.gibbs_sweep, so a
 * build with -ffp-contract=off gives bit-identical draws: the weight
 * (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta), a running sum, and a
 * strict > test against u * total. Count tables are row-major int64:
 * n_dk is n_docs x n_topics, n_kw is n_topics x n_terms. weights is
 * scratch space of n_topics doubles. Indices are checked by the caller.
 */
#include <stdint.h>

void gibbs_sweep(int64_t n_docs, int64_t n_topics, int64_t n_terms,
                 const int64_t *doc_ptr, const int64_t *tokens, int64_t *z,
                 int64_t *n_dk, int64_t *n_kw, int64_t *n_k,
                 const double *uniforms, double alpha, double beta,
                 double *weights)
{
    const double vbeta = (double)n_terms * beta;
    for (int64_t doc = 0; doc < n_docs; doc++) {
        int64_t *nd = n_dk + doc * n_topics;
        for (int64_t slot = doc_ptr[doc]; slot < doc_ptr[doc + 1]; slot++) {
            const int64_t term = tokens[slot];
            const int64_t old = z[slot];
            nd[old]--;
            n_kw[old * n_terms + term]--;
            n_k[old]--;
            double total = 0.0;
            for (int64_t k = 0; k < n_topics; k++) {
                const double value = ((double)nd[k] + alpha)
                    * ((double)n_kw[k * n_terms + term] + beta)
                    / ((double)n_k[k] + vbeta);
                weights[k] = value;
                total += value;
            }
            const double threshold = uniforms[slot] * total;
            double cumulative = 0.0;
            int64_t new_topic = n_topics - 1;
            for (int64_t k = 0; k < n_topics; k++) {
                cumulative += weights[k];
                if (cumulative > threshold) {
                    new_topic = k;
                    break;
                }
            }
            z[slot] = new_topic;
            nd[new_topic]++;
            n_kw[new_topic * n_terms + term]++;
            n_k[new_topic]++;
        }
    }
}

/* out[e] = sum over k of theta[docs[e], k] * phi_t[terms[e], k].
 *
 * Same order as lextopic.lda._token_probs, which is numpy's einsum order
 * for this product on 128-bit SIMD: two accumulators take the even and
 * the odd topics; each block of 8 topics is added from its top pair down
 * (6-7, 4-5, 2-3, 0-1), the remaining topics in order; then even + odd.
 * theta is n_docs x n_topics and phi_t (topic_word transposed) is
 * n_terms x n_topics, both row-major. Indices are checked by the caller.
 */
void token_probs(int64_t n_entries, int64_t n_topics, const int64_t *docs,
                 const int64_t *terms, const double *theta, const double *phi_t,
                 double *out)
{
    const int64_t blocked = n_topics - n_topics % 8;
    for (int64_t entry = 0; entry < n_entries; entry++) {
        const double *th = theta + docs[entry] * n_topics;
        const double *ph = phi_t + terms[entry] * n_topics;
        double even = 0.0, odd = 0.0;
        int64_t k = 0;
        for (; k < blocked; k += 8) {
            for (int64_t i = 6; i >= 0; i -= 2) {
                even += th[k + i] * ph[k + i];
                odd += th[k + i + 1] * ph[k + i + 1];
            }
        }
        for (; k + 1 < n_topics; k += 2) {
            even += th[k] * ph[k];
            odd += th[k + 1] * ph[k + 1];
        }
        if (k < n_topics)
            even += th[k] * ph[k];
        out[entry] = even + odd;
    }
}
