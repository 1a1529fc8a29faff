/* One collapsed Gibbs sweep over CSR token arrays, the per-entry token
 * probabilities behind fit's log-likelihood trace and perplexity, the
 * chunk scan and term count that turn a corpus into a count matrix, and
 * the float formatter and table parser that write and read model.json's
 * tables.
 *
 * Same arithmetic in the same order as lextopic.lda.gibbs_sweep, so a
 * build with -ffp-contract=off gives bit-identical draws: the weight
 * (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta), a running sum, and a
 * strict > test against u * total. Count tables are row-major int64:
 * n_dk is n_docs x n_topics, n_kw is n_topics x n_terms. weights is
 * scratch space of n_topics doubles. Indices are checked by the caller.
 */
#include <math.h>
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

/* Bytes that can start one of the 29 code points str.split() splits on:
 * U+0009-000D, U+001C-001F, U+0020, U+0085, U+00A0, U+1680, U+2000-200A,
 * U+2028, U+2029, U+202F, U+205F and U+3000. Each starts with an ASCII or
 * a lead byte, and neither occurs inside a multi-byte sequence, so any
 * byte position of valid UTF-8 may be tested.
 */
static const uint8_t may_start_space[256] = {
    [0x09] = 1, [0x0A] = 1, [0x0B] = 1, [0x0C] = 1, [0x0D] = 1,
    [0x1C] = 1, [0x1D] = 1, [0x1E] = 1, [0x1F] = 1, [0x20] = 1,
    [0xC2] = 1, [0xE1] = 1, [0xE2] = 1, [0xE3] = 1,
};

/* Byte length of the whitespace code point at p, or 0. */
static int64_t space_length(const uint8_t *p, const uint8_t *end)
{
    const uint8_t c = p[0];
    if (!may_start_space[c])
        return 0;
    if (c < 0x80)
        return 1;
    if (c == 0xC2)
        return end - p >= 2 && (p[1] == 0x85 || p[1] == 0xA0) ? 2 : 0;
    if (end - p < 3)
        return 0;
    if (c == 0xE1)
        return p[1] == 0x9A && p[2] == 0x80 ? 3 : 0;
    if (c == 0xE3)
        return p[1] == 0x80 && p[2] == 0x80 ? 3 : 0;
    if (p[1] == 0x80)
        return (p[2] >= 0x80 && p[2] <= 0x8A) || p[2] == 0xA8 || p[2] == 0xA9 || p[2] == 0xAF ? 3 : 0;
    return p[1] == 0x81 && p[2] == 0x9F ? 3 : 0;
}

typedef struct {
    uint64_t hash;
    int64_t id;  /* chunk id + 1; 0 marks an empty slot */
} Slot;

/* Split each record text[record_ptr[r] : record_ptr[r + 1]] on whitespace
 * and number the distinct chunks in order of first occurrence.
 *
 * Writes the id of every chunk occurrence, in order, to occurrences and
 * each record's chunk count to record_chunks. Each distinct chunk's bytes,
 * then one space, are appended to chunk_bytes; chunk_start and chunk_len
 * give its span there. The caller sizes occurrences, chunk_start and
 * chunk_len for the most chunks the text can hold, and chunk_bytes for
 * the text plus one byte per chunk. Chunks are matched exactly: hash,
 * then length, then bytes. Returns the number of distinct chunks, or -1
 * if the hash table cannot be allocated.
 */
int64_t scan_chunks(const uint8_t *text, int64_t n_records, const int64_t *record_ptr,
                    int64_t *occurrences, int64_t *record_chunks,
                    uint8_t *chunk_bytes, int64_t *chunk_start, int64_t *chunk_len)
{
    int64_t size = 1024, n_distinct = 0, n_occurrences = 0, n_bytes = 0;
    Slot *table = calloc(size, sizeof *table);
    if (table == NULL)
        return -1;
    for (int64_t r = 0; r < n_records; r++) {
        const uint8_t *p = text + record_ptr[r], *end = text + record_ptr[r + 1];
        const int64_t first = n_occurrences;
        while (p < end) {
            const int64_t skip = space_length(p, end);
            if (skip) {
                p += skip;
                continue;
            }
            const uint8_t *start = p;
            uint64_t hash = 14695981039346656037ULL;  /* FNV-1a */
            do {
                hash = (hash ^ *p++) * 1099511628211ULL;
            } while (p < end && !space_length(p, end));
            const int64_t length = p - start;
            int64_t slot = (int64_t)(hash & (uint64_t)(size - 1)), id;
            for (;; slot = (slot + 1) & (size - 1)) {
                id = table[slot].id - 1;
                if (id < 0 || (table[slot].hash == hash && chunk_len[id] == length
                               && memcmp(chunk_bytes + chunk_start[id], start, length) == 0))
                    break;
            }
            if (id < 0) {
                id = n_distinct++;
                memcpy(chunk_bytes + n_bytes, start, length);
                chunk_bytes[n_bytes + length] = ' ';
                chunk_start[id] = n_bytes;
                chunk_len[id] = length;
                n_bytes += length + 1;
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

/* Pass 1 of the term count. chunk_tokens[chunk_ptr[c] : chunk_ptr[c + 1]]
 * are the token ids of chunk c. Writes each record's token total to
 * totals and adds each token's document frequency over the records to df
 * (zeroed by the caller). last_record is scratch of one int64 per token,
 * set to -1 by the caller.
 */
void token_counts(int64_t n_records, const int64_t *record_chunks, const int64_t *occurrences,
                  const int64_t *chunk_ptr, const int64_t *chunk_tokens,
                  int64_t *totals, int64_t *df, int64_t *last_record)
{
    const int64_t *occurrence = occurrences;
    for (int64_t r = 0; r < n_records; r++) {
        int64_t total = 0;
        for (int64_t i = 0; i < record_chunks[r]; i++) {
            const int64_t chunk = *occurrence++;
            total += chunk_ptr[chunk + 1] - chunk_ptr[chunk];
            for (int64_t j = chunk_ptr[chunk]; j < chunk_ptr[chunk + 1]; j++) {
                const int64_t token = chunk_tokens[j];
                if (last_record[token] != r) {
                    last_record[token] = r;
                    df[token]++;
                }
            }
        }
        totals[r] = total;
    }
}

/* Pass 2 of the term count: the (doc, term, count) entries in (doc, term)
 * order. token_term maps a token id to its term index, or -1 for a token
 * outside the vocabulary; record_doc maps a record to its row, or -1 for
 * a record that has no row. counts (zeroed) is scratch of n_terms int64;
 * seen (zeroed) is a bitmap of ceil(n_terms / 64) words, in which each
 * record marks its terms, so that they come out in term order without a
 * sort. Both are left zeroed. docs, terms and values hold capacity
 * entries. Returns the number of entries written, or -1 if they do not fit.
 */
int64_t term_entries(int64_t n_records, const int64_t *record_chunks, const int64_t *occurrences,
                     const int64_t *chunk_ptr, const int64_t *chunk_tokens,
                     const int64_t *token_term, const int64_t *record_doc,
                     int64_t *counts, uint64_t *seen, int64_t capacity,
                     int64_t *docs, int64_t *terms, int64_t *values)
{
    const int64_t *occurrence = occurrences;
    int64_t n_entries = 0;
    for (int64_t r = 0; r < n_records; r++) {
        int64_t low = INT64_MAX, high = -1;  /* the words this record marks */
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
    }
    return n_entries;
}

/* The float formatter: float64 values as the JSON text json.dumps gives,
 * each finite value as Python's repr, its shortest round-trip decimal.
 *
 * The digits come from Ryu (Adams, "Ryu: fast float-to-string conversion",
 * PLDI 2018): the value and the two ends of its rounding interval are
 * scaled by a power of ten in 128-bit fixed point, then digits are removed
 * while the interval still holds a shorter decimal. Of the shortest
 * decimals in the interval it returns the one nearest the value, ties to
 * even, as Python's dtoa does. pow5_inv[q] is floor(2**(b - 1 + 125) /
 * 5**q) + 1 and pow5[i] is floor(5**i * 2**(125 - b)), b being the bit
 * length of the power of 5, each a (low, high) pair of 64-bit words;
 * lextopic._gibbs.pow5_tables computes them with exact integers.
 */
typedef unsigned __int128 uint128;

#define POW5_TABLE_BITS 125

/* Bit length of 5**e, for 0 <= e <= 3528: 1217359 / 2**19 is just below log2(5). */
static int32_t pow5_bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2**e)), for 0 <= e <= 1650: 78913 / 2**18 is just below log10(2). */
static int32_t log10_pow2(int32_t e)
{
    return (int32_t)(((uint32_t)e * 78913) >> 18);
}

/* floor(log10(5**e)), for 0 <= e <= 2620: 732923 / 2**20 is just below log10(5). */
static int32_t log10_pow5(int32_t e)
{
    return (int32_t)(((uint32_t)e * 732923) >> 20);
}

static int multiple_of_pow5(uint64_t value, int32_t p)
{
    for (int32_t i = 0; i < p; i++) {
        if (value % 5)
            return 0;
        value /= 5;
    }
    return 1;
}

/* floor(m * factor / 2**shift) for the 128-bit factor (low, high), shift > 64. */
static uint64_t mul_shift(uint64_t m, const uint64_t *factor, int32_t shift)
{
    const uint128 low = (uint128)m * factor[0], high = (uint128)m * factor[1];
    return (uint64_t)(((low >> 64) + high) >> (shift - 64));
}

/* The shortest decimal digits of the finite, nonzero double with IEEE
 * fields (biased, mantissa); the value is digits * 10**(*exponent).
 */
static uint64_t shortest_digits(int32_t biased, uint64_t mantissa, const uint64_t *pow5_inv,
                                const uint64_t *pow5, int32_t *exponent)
{
    /* mv * 2**e2 is the value; mv = 4 * m2 leaves two bits for the interval ends. */
    const int32_t e2 = (biased ? biased : 1) - 1023 - 52 - 2;
    const uint64_t m2 = biased ? mantissa | (1ULL << 52) : mantissa;
    const int accept_bounds = (m2 & 1) == 0;  /* ties of the interval ends read back to an even mantissa */
    const uint64_t mv = 4 * m2;
    /* The lower gap is half as wide at a power of two, except at the smallest normal. */
    const uint32_t mm_shift = mantissa != 0 || biased <= 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const int32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t shift = -e2 + q + POW5_TABLE_BITS + pow5_bits(q) - 1;
        e10 = q;
        vr = mul_shift(mv, pow5_inv + 2 * q, shift);
        vp = mul_shift(mv + 2, pow5_inv + 2 * q, shift);
        vm = mul_shift(mv - 1 - mm_shift, pow5_inv + 2 * q, shift);
        if (q <= 21) {
            /* At most one of mv, mp and mm is a multiple of 5. */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const int32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - q;
        const int32_t shift = q - (pow5_bits(i) - POW5_TABLE_BITS);
        e10 = q + e2;
        vr = mul_shift(mv, pow5 + 2 * i, shift);
        vp = mul_shift(mv + 2, pow5 + 2 * i, shift);
        vm = mul_shift(mv - 1 - mm_shift, pow5 + 2 * i, shift);
        if (q <= 1) {
            /* mv = 4 * m2 has two trailing zero bits; mm has one iff mm_shift is 1. */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_trailing_zeros = (mv & ((1ULL << q) - 1)) == 0;
        }
    }
    /* Remove digits while the interval [vm, vp] holds a shorter decimal. */
    int32_t removed = 0;
    uint32_t last_removed = 0;
    while (vp / 10 > vm / 10) {
        vm_trailing_zeros &= vm % 10 == 0;
        vr_trailing_zeros &= last_removed == 0;
        last_removed = (uint32_t)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_trailing_zeros) {
        /* The lower end is itself a shorter decimal and inside the interval. */
        while (vm % 10 == 0) {
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
        last_removed = 4;  /* exactly half way: round to even */
    *exponent = e10 + removed;
    return vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5);
}

/* Write value as json.dumps does and return the end of the text: at most
 * 24 characters, as in -1.2345678901234567e-308.
 */
static char *write_float(char *out, double value, const uint64_t *pow5_inv, const uint64_t *pow5)
{
    uint64_t bits;
    memcpy(&bits, &value, sizeof bits);
    const uint64_t mantissa = bits & ((1ULL << 52) - 1);
    const int32_t biased = (int32_t)((bits >> 52) & 0x7FF);
    if (biased == 0x7FF) {
        const char *text = mantissa ? "NaN" : bits >> 63 ? "-Infinity" : "Infinity";
        const size_t length = strlen(text);
        memcpy(out, text, length);
        return out + length;
    }
    if (bits >> 63)
        *out++ = '-';
    if (biased == 0 && mantissa == 0) {
        memcpy(out, "0.0", 3);
        return out + 3;
    }
    int32_t exponent;
    uint64_t digits = shortest_digits(biased, mantissa, pow5_inv, pow5, &exponent);
    /* The digits, two at a time from the last, end at buffer + 20. */
    char buffer[20], *text = buffer + 20;
    for (; digits >= 10; digits /= 100) {
        const uint32_t pair = (uint32_t)(digits % 100);
        *--text = (char)('0' + pair % 10);
        *--text = (char)('0' + pair / 10);
    }
    if (digits)
        *--text = (char)('0' + digits);
    const int32_t n = (int32_t)(buffer + 20 - text);
    /* Python's repr: the value is 0.text * 10**point; exponent form below
     * 1e-4 and from 1e16 up, else positional with at least one digit after
     * the point.
     */
    const int32_t point = n + exponent;
    if (point <= -4 || point > 16) {
        *out++ = text[0];
        if (n > 1) {
            *out++ = '.';
            memcpy(out, text + 1, (size_t)(n - 1));
            out += n - 1;
        }
        int32_t power = point - 1;
        *out++ = 'e';
        *out++ = power < 0 ? '-' : '+';
        power = power < 0 ? -power : power;
        if (power >= 100)
            *out++ = (char)('0' + power / 100);
        *out++ = (char)('0' + power / 10 % 10);
        *out++ = (char)('0' + power % 10);
    } else if (point <= 0) {
        memcpy(out, "0.", 2);
        memset(out + 2, '0', (size_t)-point);
        out += 2 - point;
        memcpy(out, text, (size_t)n);
        out += n;
    } else if (point < n) {
        memcpy(out, text, (size_t)point);
        out[point] = '.';
        memcpy(out + point + 1, text + point, (size_t)(n - point));
        out += n + 1;
    } else {
        memcpy(out, text, (size_t)n);
        memset(out + n, '0', (size_t)(point - n));
        out += point;
        memcpy(out, ".0", 2);
        out += 2;
    }
    return out;
}

/* Write the n_rows x n_cols row-major values as json.dumps(values.tolist())
 * does, ", " between values: a list of rows if nested, else the one row
 * as a flat list. out holds 26 bytes per value, 4 per row and 2 more.
 * Returns the number of bytes written.
 */
int64_t format_floats(const double *values, int64_t n_rows, int64_t n_cols, int64_t nested,
                      const uint64_t *pow5_inv, const uint64_t *pow5, char *out)
{
    char *end = out;
    if (nested)
        *end++ = '[';
    for (int64_t row = 0; row < n_rows; row++) {
        if (row) {
            memcpy(end, ", ", 2);
            end += 2;
        }
        *end++ = '[';
        for (int64_t col = 0; col < n_cols; col++) {
            if (col) {
                memcpy(end, ", ", 2);
                end += 2;
            }
            end = write_float(end, values[row * n_cols + col], pow5_inv, pow5);
        }
        *end++ = ']';
    }
    if (nested)
        *end++ = ']';
    return end - out;
}

/* The table parser: a JSON array of equal-length rows of numbers, read
 * from model.json's UTF-8 bytes straight into float64, each value the
 * double Python's float() gives for its token.
 *
 * A token is checked against the JSON number grammar and read as a
 * decimal w * 10**q. Only the tokens a float's repr can be are read:
 * with a fraction or an exponent, at most 19 significant digits and an
 * exponent under 100000, so that w and q are exact. The
 * Eisel-Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
 * Second", Software: Practice and Experience 2021, as fast_float computes
 * it) then gives the correctly rounded double from one or two 64 x 64-bit
 * products with a 128-bit power of 5. pow5_128[2 * (q + 342)] and the
 * word after it are the high and low words of 5**q, q in [-342, 308],
 * scaled to 128 bits with its top bit set (truncated, or for q < 0 one
 * more than the floor); lextopic._gibbs.pow5_128_table computes it. Any
 * other token, and the rare product too close to a rounding boundary to
 * decide, is declined, and the caller reads the file with json.load.
 */
#define INFINITY_BITS (0x7FFULL << 52)
#define UNDECIDED ((uint64_t)-1)

static int is_digit(uint8_t c)
{
    return c >= '0' && c <= '9';
}

static const uint8_t *skip_space(const uint8_t *p, const uint8_t *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
        p++;
    return p;
}

typedef struct {
    uint64_t w;       /* the significant digits */
    int64_t q;        /* the value is w * 10**q */
    int negative;
} Decimal;

/* Length of the JSON number token -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
 * at p, its decimal to d; 0 if none starts there, or if the token has
 * neither a fraction nor an exponent, more than 19 significant digits or
 * an exponent of 100000 or more.
 */
static int64_t scan_number(const uint8_t *p, const uint8_t *end, Decimal *d)
{
    const uint8_t *s = p;
    uint64_t w = 0;
    int64_t digits = 0, scale = 0, exponent = 0;
    int integer = 1;
    d->negative = s < end && *s == '-';
    s += d->negative;
    if (s == end || !is_digit(*s))
        return 0;
    if (*s == '0')
        s++;
    else
        for (; s < end && is_digit(*s); s++, digits++)
            w = 10 * w + (uint64_t)(*s - '0');
    if (s < end && *s == '.') {
        if (++s == end || !is_digit(*s))
            return 0;
        for (; s < end && is_digit(*s); s++, scale++) {
            w = 10 * w + (uint64_t)(*s - '0');
            digits += digits > 0 || *s != '0';
        }
        integer = 0;
    }
    if (s < end && (*s == 'e' || *s == 'E')) {
        int negative = 0;
        if (++s < end && (*s == '+' || *s == '-'))
            negative = *s++ == '-';
        if (s == end || !is_digit(*s))
            return 0;
        for (; s < end && is_digit(*s); s++)
            if (exponent < 100000)
                exponent = 10 * exponent + (*s - '0');
        if (exponent >= 100000)
            return 0;
        exponent = negative ? -exponent : exponent;
        integer = 0;
    }
    if (integer || digits > 19)
        return 0;
    d->w = w;
    d->q = exponent - scale;
    return s - p;
}

/* The bits of the double nearest w * 10**q, for w < 10**19, ties to even:
 * INFINITY_BITS past the largest double, and UNDECIDED where the 128-bit
 * product leaves the rounding open.
 */
static uint64_t eisel_lemire(uint64_t w, int64_t q, const uint64_t *pow5_128)
{
    if (w == 0 || q < -342)
        return 0;
    if (q > 308)
        return INFINITY_BITS;
    const int lz = __builtin_clzll(w);
    w <<= lz;
    const uint64_t *factor = pow5_128 + 2 * (q + 342);
    const uint128 first = (uint128)w * factor[0];
    uint64_t high = (uint64_t)(first >> 64), low = (uint64_t)first;
    if ((high & 0x1FF) == 0x1FF) {  /* the 55 bits kept may take a carry from the low word */
        const uint64_t second = (uint64_t)(((uint128)w * factor[1]) >> 64);
        low += second;
        high += second > low;
        if ((high & 0x1FF) == 0x1FF && low == UINT64_MAX)
            return UNDECIDED;
    }
    const int upper = (int)(high >> 63), shift = upper + 64 - 52 - 3;
    uint64_t mantissa = high >> shift;
    /* floor(log2(10**q)) + 63, by 217706 / 2**16 just above log2(10); >> floors (arithmetic in gcc) */
    int64_t power2 = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
    if (power2 <= 0) {  /* subnormal, or rounds up to the smallest normal */
        if (1 - power2 >= 64)
            return 0;
        mantissa >>= 1 - power2;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        return mantissa | (uint64_t)(mantissa >= 1ULL << 52) << 52;
    }
    /* Exactly half way can happen only where 5**q fits in 64 bits: round to even. */
    if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1 && mantissa << shift == high)
        mantissa &= ~1ULL;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >= 2ULL << 52) {
        mantissa = 1ULL << 52;
        power2++;
    }
    if (power2 >= 0x7FF)
        return INFINITY_BITS;
    return (uint64_t)power2 << 52 | (mantissa & ((1ULL << 52) - 1));
}

/* Parse the JSON array of number rows that starts at text[start], where
 * text holds length bytes, and return the offset just past its closing
 * bracket. shape receives (rows, columns). With out NULL the text is only
 * checked; otherwise out, of capacity doubles, receives the values in row
 * order, each token's correctly rounded double. Only JSON whitespace is
 * skipped. Returns -1, having written part of out at most, for an empty
 * table or row, rows of different lengths, nesting other than two levels,
 * a token that scan_number does not take (NaN and Infinity included), a
 * number past the float64 range or too close to a rounding boundary to
 * decide, or more than capacity values.
 */
int64_t parse_table(const uint8_t *text, int64_t length, int64_t start, int64_t capacity,
                    const uint64_t *pow5_128, double *out, int64_t *shape)
{
    const uint8_t *p = text + start, *end = text + length;
    int64_t n_rows = 0, n_cols = -1, n_values = 0;
    if (p >= end || *p++ != '[')
        return -1;
    for (;;) {
        p = skip_space(p, end);
        if (p == end || *p++ != '[')
            return -1;
        const int64_t row_start = n_values;
        for (;;) {
            p = skip_space(p, end);
            Decimal d;
            const int64_t token = scan_number(p, end, &d);
            if (!token)
                return -1;
            if (out) {
                const uint64_t bits = eisel_lemire(d.w, d.q, pow5_128);
                if (n_values == capacity || bits >= INFINITY_BITS)  /* UNDECIDED included */
                    return -1;
                const uint64_t value = bits | (uint64_t)d.negative << 63;
                memcpy(out + n_values, &value, sizeof value);
            }
            n_values++;
            p = skip_space(p + token, end);
            if (p == end)
                return -1;
            if (*p == ']')
                break;
            if (*p++ != ',')
                return -1;
        }
        p++;
        if (n_cols >= 0 && n_values - row_start != n_cols)
            return -1;
        n_cols = n_values - row_start;
        n_rows++;
        p = skip_space(p, end);
        if (p == end)
            return -1;
        if (*p == ']')
            break;
        if (*p++ != ',')
            return -1;
    }
    shape[0] = n_rows;
    shape[1] = n_cols;
    return p + 1 - text;
}
