/* One collapsed Gibbs sweep over CSR token arrays, the per-entry token
 * probabilities behind perplexity, and the chunk scan over a corpus's
 * code points and the term count that turn it into a count matrix.
 *
 * Same arithmetic in the same order as lextopic.lda.gibbs_sweep, so a
 * build with -ffp-contract=off gives bit-identical draws: the weight
 * (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta), a running sum, and a
 * strict > test against u * total. Count tables are row-major int64:
 * n_dk is n_docs x n_topics, n_kw is n_topics x n_terms. weights is
 * scratch space of n_topics doubles. Indices are checked by the caller.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* The 29 code points str.split() splits on, one bit each, 64 to a word:
 * U+0009-000D, U+001C-001F and U+0020 (word 0), U+0085 and U+00A0 (2),
 * U+1680 (90), U+2000-200A, U+2028, U+2029 and U+202F (128), U+205F
 * (129) and U+3000 (192). No code point past the last word is whitespace.
 */
#define SPACE_WORDS 193
static const uint64_t space_bits[SPACE_WORDS] = {
    [0] = 0x00000001F0003E00ULL, [2] = 0x0000000100000020ULL, [90] = 0x1ULL,
    [128] = 0x00008300000007FFULL, [129] = 0x0000000080000000ULL, [192] = 0x1ULL,
};

static inline int is_space(uint32_t c)
{
    return c < 64 * SPACE_WORDS && (space_bits[c >> 6] >> (c & 63)) & 1;
}

typedef struct {
    uint64_t hash;
    int64_t id;  /* chunk id + 1; 0 marks an empty slot */
} Slot;

/* Split each record text[record_ptr[r] : record_ptr[r + 1]] of code points
 * on whitespace and number the distinct chunks in order of first occurrence.
 *
 * Writes the id of every chunk occurrence, in order, to occurrences and
 * each record's chunk count to record_chunks. Each distinct chunk's code
 * points, then one space, are appended to chunk_codes; chunk_start and
 * chunk_len give its span there. The caller sizes occurrences, chunk_start
 * and chunk_len for the most chunks the text can hold, and chunk_codes for
 * the text plus one code point per chunk. Chunks are matched exactly: hash,
 * then length, then code points. Returns the number of distinct chunks, or
 * -1 if the hash table cannot be allocated.
 */
int64_t scan_chunks(const uint32_t *text, int64_t n_records, const int64_t *record_ptr,
                    int64_t *occurrences, int64_t *record_chunks,
                    uint32_t *chunk_codes, int64_t *chunk_start, int64_t *chunk_len)
{
    int64_t size = 1024, n_distinct = 0, n_occurrences = 0, n_codes = 0;
    Slot *table = calloc(size, sizeof *table);
    if (table == NULL)
        return -1;
    for (int64_t r = 0; r < n_records; r++) {
        const uint32_t *p = text + record_ptr[r], *end = text + record_ptr[r + 1];
        const int64_t first = n_occurrences;
        while (p < end) {
            if (is_space(*p)) {
                p++;
                continue;
            }
            const uint32_t *start = p;
            uint64_t hash = 14695981039346656037ULL;  /* FNV-1a, a code point at a time */
            do {
                hash = (hash ^ *p++) * 1099511628211ULL;
            } while (p < end && !is_space(*p));
            const int64_t length = p - start;
            int64_t slot = (int64_t)(hash & (uint64_t)(size - 1)), id;
            for (;; slot = (slot + 1) & (size - 1)) {
                id = table[slot].id - 1;
                if (id < 0 || (table[slot].hash == hash && chunk_len[id] == length
                               && memcmp(chunk_codes + chunk_start[id], start, length * sizeof *start) == 0))
                    break;
            }
            if (id < 0) {
                id = n_distinct++;
                memcpy(chunk_codes + n_codes, start, length * sizeof *start);
                chunk_codes[n_codes + length] = ' ';
                chunk_start[id] = n_codes;
                chunk_len[id] = length;
                n_codes += length + 1;
                table[slot] = (Slot){hash, id + 1};
                if (2 * n_distinct > size) {  /* keep the table at most half full */
                    Slot *old = table;
                    table = calloc(2 * size, sizeof *table);
                    if (table == NULL) {
                        free(old);
                        return -1;
                    }
                    for (int64_t at = 0; at < size; at++) {
                        if (!old[at].id)
                            continue;
                        int64_t to = (int64_t)(old[at].hash & (uint64_t)(2 * size - 1));
                        while (table[to].id)
                            to = (to + 1) & (2 * size - 1);
                        table[to] = old[at];
                    }
                    free(old);
                    size *= 2;
                }
            }
            occurrences[n_occurrences++] = id;
        }
        record_chunks[r] = n_occurrences - first;
    }
    free(table);
    return n_distinct;
}

/* The term count. chunk_tokens[chunk_ptr[c] : chunk_ptr[c + 1]] are the
 * token ids of chunk c. token_term maps a token id to its term index, or
 * -1 for a token outside the vocabulary; record_doc maps a record to its
 * row, or -1 for a record that has no row. Writes the (doc, term, count)
 * entries of the records with a row in (doc, term) order, adds one to
 * df[term] (zeroed) for each record that holds the term, and writes to
 * totals[r] the number of record r's tokens that have a term. counts
 * (zeroed) is scratch of n_terms int64; seen (zeroed) is a bitmap of
 * ceil(n_terms / 64) words, in which each record marks its terms, so that
 * they come out in term order without a sort. Both are left zeroed. docs,
 * terms and values hold capacity entries. Returns the number of entries
 * written, or -1 if they do not fit.
 */
int64_t term_entries(int64_t n_records, const int64_t *record_chunks, const int64_t *occurrences,
                     const int64_t *chunk_ptr, const int64_t *chunk_tokens,
                     const int64_t *token_term, const int64_t *record_doc,
                     int64_t *counts, uint64_t *seen, int64_t capacity,
                     int64_t *docs, int64_t *terms, int64_t *values, int64_t *df, int64_t *totals)
{
    const int64_t *occurrence = occurrences;
    int64_t n_entries = 0;
    for (int64_t r = 0; r < n_records; r++) {
        int64_t low = INT64_MAX, high = -1, total = 0;  /* the words this record marks */
        for (int64_t i = 0; i < record_chunks[r]; i++) {
            const int64_t chunk = *occurrence++;
            for (int64_t j = chunk_ptr[chunk]; j < chunk_ptr[chunk + 1]; j++) {
                const int64_t term = token_term[chunk_tokens[j]];
                if (term >= 0 && counts[term]++ == 0) {
                    const int64_t word = term >> 6;
                    seen[word] |= 1ULL << (term & 63);
                    low = word < low ? word : low;
                    high = word > high ? word : high;
                }
            }
        }
        for (int64_t word = low; word <= high; word++) {
            for (uint64_t bits = seen[word]; bits; bits &= bits - 1) {
                const int64_t term = 64 * word + __builtin_ctzll(bits);
                df[term]++;
                total += counts[term];
                if (record_doc[r] >= 0) {
                    if (n_entries == capacity)
                        return -1;
                    docs[n_entries] = record_doc[r];
                    terms[n_entries] = term;
                    values[n_entries] = counts[term];
                    n_entries++;
                }
                counts[term] = 0;
            }
            seen[word] = 0;
        }
        totals[r] = total;
    }
    return n_entries;
}
