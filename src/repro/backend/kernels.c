/* Exact-arithmetic kernels, built by repro.backend.ckernels.
 *
 * Every function here must reproduce the numpy code it replaces bit for
 * bit, so only exact operations are allowed: float64 add, subtract and
 * max, and integer indexing.  No libm, no reassociation, no contraction
 * into fused multiply-adds (the build passes -ffp-contract=off and
 * -fno-fast-math, never -march=native).  Where numpy's choice among NaN payloads
 * or signed zeros depends on operand order, the order is spelled out
 * below instead of being left to the compiler, which may commute an
 * addition.
 */

#include <stdint.h>

/* np.maximum on float64: a NaN first operand wins, otherwise the larger
 * value; a tie or a NaN second operand returns the second operand. */
static inline double np_maximum(double a, double b)
{
    return (a != a || a > b) ? a : b;
}

/* a + b and a - b with numpy's NaN choice: a NaN first operand wins. */
static inline double np_add(double a, double b)
{
    return a != a ? a : a + b;
}

static inline double np_subtract(double a, double b)
{
    return a != a ? a : a - b;
}

/* np.maximum.reduce over n >= 1 contiguous float64 values, as numpy's
 * AVX-512 loop runs it for n <= 9: the first value seeds the result (a
 * NaN there becomes the canonical quiet NaN), then a left fold.  For
 * inputs free of NaN and signed-zero ties every reduction order agrees. */
static inline double np_maximum_reduce(const double *x, int64_t n)
{
    static const union { uint64_t u; double d; } canonical_nan =
        { 0x7ff8000000000000ULL };
    double r = x[0] != x[0] ? canonical_nan.d : x[0];
    for (int64_t i = 1; i < n; ++i)
        r = np_maximum(r, x[i]);
    return r;
}

/* The fused max-log BCJR recursion of repro.strider.bcjr.max_log_bcjr.
 *
 * rows is (t_len + 1, 2 * n_states) with row 0 filled in; row t holds
 * [alpha[t] | beta[t_len - t]].  slab is (t_len, 2, 2 * n_states) and
 * gather (2, 2 * n_states), every gather index in [0, 2 * n_states).
 * Step t takes row t through gather, adds slab[t], keeps the larger of
 * the two candidates, floors at `lowest` and subtracts each half's
 * maximum, in that order, as the numpy loop does. */
void bcjr_recursion(const double *slab, const int64_t *gather, double *rows,
                    int64_t t_len, int64_t n_states, double lowest)
{
    const int64_t width = 2 * n_states;
    for (int64_t t = 0; t < t_len; ++t) {
        const double *row = rows + t * width;
        const double *slab0 = slab + t * 2 * width;
        const double *slab1 = slab0 + width;
        double *next = rows + (t + 1) * width;
        for (int64_t j = 0; j < width; ++j) {
            double cand0 = np_add(row[gather[j]], slab0[j]);
            double cand1 = np_add(row[gather[width + j]], slab1[j]);
            next[j] = np_maximum(np_maximum(cand0, cand1), lowest);
        }
        for (int64_t h = 0; h < 2; ++h) {
            double *half = next + h * n_states;
            double top = np_maximum_reduce(half, n_states);
            for (int64_t i = 0; i < n_states; ++i)
                half[i] = np_subtract(half[i], top);
        }
    }
}
