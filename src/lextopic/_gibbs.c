/* One collapsed Gibbs sweep over CSR token arrays.
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
