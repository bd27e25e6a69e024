/* One collapsed-Gibbs sweep over every token, in token order.
 *
 * Same draws, bit for bit, as the reference _gibbs_sweep in
 * tests/test_topics.py, which recomputes every term and scans linearly and
 * is the test oracle for this sweep: build with
 * -ffp-contract=off so no multiply-add is fused. The token streams, z and
 * the count arrays are int32 (the caller rejects a corpus of 2^31 or more
 * tokens); row offsets are int64. Count arrays are row-major: n_dk is
 * D x k, n_kv is V x k (word-major, so the k counts of one word are
 * contiguous). The caller may pass the tokens in chunks, one call each.
 *
 * Reuse. Token t is a repeat when t > 0 and it has the same (document,
 * word) pair as token t-1. The counts it sees then differ from those token
 * t-1 saw only at prev = z[t-1], the topic t-1 drew (one more), and old,
 * the topic t gives back (one less). Every other term[j] still holds, and
 * so does cum[j] below min(prev, old). If prev == old nothing is recomputed;
 * otherwise term[prev] and term[old] are, and the running sum is redone
 * from lo = min(prev, old), starting at cum[lo - 1] (0.0 when lo == 0).
 * Each kept term came from the same integers through the same operations,
 * and the kept prefix is the same fold, so every cum[j] has the bits of a
 * full recomputation. Token 0 of each call is never a repeat, so a chunk
 * boundary costs one full pass and changes no bit.
 *
 * Search. Every term is > 0, so cum never falls: the first j < k-1 with
 * cum[j] >= r, found by binary search, is the topic the linear scan finds,
 * and k-1 when there is none (u < 1 keeps r <= cum[k-1]).
 */
#include <stdint.h>

void gibbs_sweep(int64_t n_tokens, int64_t k, int64_t v,
                 const int32_t *doc_of, const int32_t *word_of, int32_t *z,
                 int32_t *n_dk, int32_t *n_kv, int32_t *n_k,
                 double alpha, double beta, const double *u, double *cum,
                 double *term)
{
    const double vbeta = (double)v * beta;
    for (int64_t t = 0; t < n_tokens; t++) {
        int32_t *dk = n_dk + (int64_t)doc_of[t] * k;
        int32_t *kv = n_kv + (int64_t)word_of[t] * k;
        const int64_t old = z[t];
        dk[old]--;
        kv[old]--;
        n_k[old]--;
#define TERM(j) (((double)dk[j] + alpha) * ((double)kv[j] + beta) / ((double)n_k[j] + vbeta))
        if (t > 0 && doc_of[t] == doc_of[t - 1] && word_of[t] == word_of[t - 1]) {
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
            for (int64_t j = 0; j < k; j++) {
                const double x = TERM(j);
                term[j] = x;
                total += x;
                cum[j] = total;
            }
        }
#undef TERM
        const double r = u[t] * cum[k - 1];
        int64_t a = 0, b = k - 1;
        while (a < b) {
            const int64_t m = a + (b - a) / 2;
            if (cum[m] < r)
                a = m + 1;
            else
                b = m;
        }
        z[t] = (int32_t)a;
        dk[a]++;
        kv[a]++;
        n_k[a]++;
    }
}
