/* One collapsed-Gibbs sweep over every token, in token order.
 *
 * Same draws, bit for bit, as the reference _gibbs_sweep in
 * tests/test_topics.py, which recomputes every term and scans linearly and is
 * the test oracle for this sweep: build with -ffp-contract=off so no
 * multiply-add is fused. The sweep walks the corpus's sparse rows in place,
 * entry by entry (entry e, for indptr[d] <= e < indptr[d+1], is tally[e]
 * tokens of word indices[e] in document d), so a token's count rows are found
 * once per entry, not once per token. The caller may
 * pass the tokens in chunks, one call each: the cursor (d, e, o) carries the
 * walk between calls, starting at {0, 0, 0} (entry e at offset o is next, and
 * d is at or before e's document). The rows are int64; z and the count arrays
 * are int32 (the caller rejects a corpus of 2^31 or more tokens). Count
 * arrays are row-major: n_dk is D x k, n_kv is V x k (word-major, so the k
 * counts of one word are contiguous). The sweep calls no library function, so
 * it links without the C library (-nostdlib on Linux).
 *
 * Width. The sweep works W lanes at a time with GCC/Clang vector
 * extensions: W = 4 doubles when built with -mavx2, 2 (SSE2) otherwise.
 * A 4-wide compare built without AVX2 is lowered to one scalar compare per
 * lane, slower than two lanes. W is fixed at compile time, so there is one
 * body. Counts are widened to double through brace initializers, which
 * compile to packed conversions from memory; __builtin_convertvector of a
 * loaded int32 vector sent the two-lane conversions through general
 * registers and was slower.
 *
 * Terms. On a token that is not a repeat, term[j] is computed W at a time
 * with the scalar formula in each lane: (dk + alpha) * (kv + beta), then
 * divided by (n_k + V*beta), each int32 count converted exactly to double.
 * Lanes are independent IEEE operations, and -ffp-contract=off keeps the
 * multiply and the add apart (-mavx2 does not enable FMA either), so every
 * term has the bits of the scalar one. The running sum cum is still folded
 * serially, in index order, from those terms: the same adds in the same
 * order give the same bits.
 *
 * Reuse. Token t is a repeat when it is not the first token of its entry
 * that the call takes: neither token 0 of the call nor the first of its
 * entry. Then the counts it sees differ from those token t-1 saw only at
 * prev = z[t-1], the topic t-1 drew (one more), and old, the topic t gives
 * back (one less). Every other term[j] still holds, and so does cum[j]
 * below min(prev, old). If prev == old nothing is recomputed; otherwise
 * term[prev] and term[old] are, and the running sum is redone from
 * lo = min(prev, old), starting at cum[lo - 1] (0.0 when lo == 0).
 * Each kept term came from the same integers through the same operations,
 * and the kept prefix is the same fold, so every cum[j] has the bits of a
 * full recomputation: a chunk boundary inside an entry changes no bit.
 *
 * Draw. Every term is > 0, so cum never falls (a term too small to move
 * the sum leaves a plateau, never a dip). So the count
 * a = #{j < k-1 : cum[j] < r}, taken W lanes at a time with no branch on
 * the data, is the first j < k-1 with cum[j] >= r, the topic the linear
 * scan finds, and k-1 when there is none (u < 1 keeps r <= cum[k-1]).
 * Counting below k-1 also keeps a inside the token's rows whatever r is.
 */
#include <stdint.h>

#ifdef __AVX2__
#define W 4
#else
#define W 2
#endif

typedef double vd __attribute__((vector_size(W * sizeof(double))));
typedef int64_t vl __attribute__((vector_size(W * sizeof(int64_t))));

/* W int32 counts from p, each converted exactly to double. */
static inline vd counts(const int32_t *p)
{
#if W == 4
    return (vd){p[0], p[1], p[2], p[3]};
#else
    return (vd){p[0], p[1]};
#endif
}

void gibbs_sweep(int64_t n_tokens, int64_t k, int64_t v,
                 const int64_t *indptr, const int64_t *indices, const int64_t *tally,
                 int64_t *cursor, int32_t *z,
                 int32_t *n_dk, int32_t *n_kv, int32_t *n_k,
                 double alpha, double beta, const double *u, double *cum,
                 double *term)
{
    const double vbeta = (double)v * beta;
    const int64_t kw = k - k % W;            /* terms taken W at a time */
    const int64_t cw = (k - 1) - (k - 1) % W; /* cum entries counted W at a time */
    int64_t d = cursor[0], e = cursor[1], o = cursor[2];
    for (int64_t t = 0; t < n_tokens;) {
        while (indptr[d + 1] <= e)
            d++;
        int32_t *dk = n_dk + d * k;
        int32_t *kv = n_kv + indices[e] * k;
        const int64_t first = t;
        for (; o < tally[e] && t < n_tokens; o++, t++) {
            const int64_t old = z[t];
            dk[old]--;
            kv[old]--;
            n_k[old]--;
#define TERM(j) (((double)dk[j] + alpha) * ((double)kv[j] + beta) / ((double)n_k[j] + vbeta))
            if (t > first) {
                const int64_t prev = z[t - 1];
                if (prev != old) {
                    term[prev] = TERM(prev);
                    term[old] = TERM(old);
                    const int64_t lo = prev < old ? prev : old;
                    double total = lo > 0 ? cum[lo - 1] : 0.0;
                    for (int64_t j = lo; j < k; j++) {
                        total += term[j];
                        cum[j] = total;
                    }
                }
            } else {
                double total = 0.0;
                int64_t j = 0;
                for (; j < kw; j += W) {
                    const vd x = (counts(dk + j) + alpha) * (counts(kv + j) + beta)
                                 / (counts(n_k + j) + vbeta);
                    __builtin_memcpy(term + j, &x, sizeof x);
                    for (int i = 0; i < W; i++) {
                        total += x[i];
                        cum[j + i] = total;
                    }
                }
                for (; j < k; j++) {
                    const double x = TERM(j);
                    term[j] = x;
                    total += x;
                    cum[j] = total;
                }
            }
#undef TERM
            const double r = u[t] * cum[k - 1];
            const vd rv = (vd){0} + r;
            vl below = {0};
            int64_t j = 0;
            for (; j < cw; j += W) {
                vd c;
                __builtin_memcpy(&c, cum + j, sizeof c);
                below -= (vl)(c < rv);
            }
            int64_t a = 0;
            for (int i = 0; i < W; i++)
                a += below[i];
            for (; j < k - 1; j++)
                a += cum[j] < r;
            z[t] = (int32_t)a;
            dk[a]++;
            kv[a]++;
            n_k[a]++;
        }
        if (o == tally[e]) {
            o = 0;
            e++;
        }
    }
    cursor[0] = d;
    cursor[1] = e;
    cursor[2] = o;
}

/* Adds one count per token of z, over the same walk, to n_dk, n_kv and n_k. */
void gibbs_counts(int64_t n_docs, int64_t k, const int64_t *indptr, const int64_t *indices,
                  const int64_t *tally, const int32_t *z, int32_t *n_dk, int32_t *n_kv, int32_t *n_k)
{
    for (int64_t d = 0; d < n_docs; d++)
        for (int64_t e = indptr[d]; e < indptr[d + 1]; e++)
            for (int64_t o = 0; o < tally[e]; o++, z++) {
                n_dk[d * k + *z]++;
                n_kv[indices[e] * k + *z]++;
                n_k[*z]++;
            }
}
