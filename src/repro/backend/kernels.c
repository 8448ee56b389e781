/* Exact-arithmetic kernels, built by repro.backend.ckernels.
 *
 * Every function here must reproduce the numpy code it replaces bit for
 * bit, so only exact operations are allowed: uint32 arithmetic, shifts and
 * bitwise ops (wrapping mod 2^32 as numpy's uint32 does), float64 add,
 * subtract, multiply, divide by 2, max, min and fabs, and integer
 * indexing.  No libm, so BP's tanh, log, exp and arctanh stay numpy calls
 * between the passes.  The one exp C settles, it settles by a compare:
 * numpy's exp returns +0.0 below -746, which tests/test_ldpc.py checks at
 * native and at baseline dispatch, so BP's check pass marks those edges
 * and its sign pass writes their +-0.0 itself (see BP_UNDERFLOW).  The
 * build targets the host CPU (-march=native), so the compiler may
 * vectorise any loop here with the widest instructions the host has;
 * that stays exact because vector lanes round each add, subtract and
 * multiply as the scalar instruction does, and the three things that
 * would change a result are off: contraction into fused
 * multiply-adds (-ffp-contract=off), fast-math's value-changing rewrites
 * (-fno-fast-math), and reassociation, which gcc never does to
 * floating-point code without fast-math.  So a sum keeps numpy's order,
 * which for np.add.reduceat is the pairwise order of pairwise_sum below.
 * Where the target rule in ckernels.py finds gathers fast, the build also
 * lets gcc turn a table lookup such as levels[w & mask] into one hardware
 * gather (-mtune-ctrl=use_gather,...).  A gather is a set of plain loads
 * of the same doubles, with no arithmetic, so it changes no result.
 * Where numpy's choice among NaN payloads or signed zeros depends on
 * operand order, the order is spelled out below instead of being left to
 * the compiler, which may commute an addition; a sign is applied by
 * multiplying by +-1 read through a pointer, since the compiler turns a
 * multiply by a known -1.0 into a negation, which flips a NaN's sign bit.
 *
 * Array pointers are restrict-qualified wherever a loop reads one array
 * and writes another: the wrappers in ckernels.py hand every call output
 * buffers they own or allocate, and the bubble search reads the store's
 * received planes, which it never writes, so an output never overlaps an
 * input.  Without that promise the compiler must assume a store into the
 * output may change the levels or costs the next iteration reads, and it
 * leaves the branch-cost loops scalar.
 *
 * Every pointer and size reaching C is checked in ckernels.py first,
 * where its inputs become fixed: a BCJR trellis's tables when its decoder
 * is made and the LLRs at each decode, a search's shape and buffers when
 * its passes are made, its received view once per search.  What only C
 * sees during a search, the spine position and the selected survivors, C
 * checks before it reads or writes, and at a backtrack it checks the
 * finished search and the best leaves before it reads and the history
 * entries it chases before it writes.
 *
 * Random draws call numpy's own bounded-integer functions, linked from
 * numpy's libnpyrandom, on the caller's bit generator, so the draws and
 * the generator's final state are numpy's.  The same holds for the one
 * step of the bubble search that is not exact arithmetic, survivor
 * selection: spinal_run calls numpy's own argpartition (and minimum
 * reduction) through numpy's C API, on the same float64 rows, so every
 * selection is the one ndarray.argpartition makes, at every CPU dispatch
 * level, dependence on that level included (the numpy search's
 * _NumpyPasses._select documents it).  Code reached through numpy's C
 * API is numpy's code, not a reimplementation of it.
 */

#include <stdbool.h>
#include <stdint.h>
#include <time.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/arrayobject.h"
#include "numpy/random/distributions.h"

/* np.maximum on float64: a NaN first operand wins, otherwise the larger
 * value; a tie or a NaN second operand returns the second operand. */
static inline double np_maximum(double a, double b)
{
    return (a != a || a > b) ? a : b;
}

/* a + b and a - b with numpy's NaN choice: a NaN first operand wins.
 * (That is the choice of numpy's SIMD loops; the scalar tail of its
 * float64 add may return the second operand's NaN instead.) */
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

/* ---- Strider: repro.strider.bcjr.max_log_bcjr, one call a decode ---- */

/* np.maximum folded left over n >= 1 values, the first kept as it is (no
 * canonical NaN): what numpy's maximum.reduce runs along the short axis of
 * a column-major (T, n) array, T >= 2, and what the numpy body's fold in
 * branch order computes. */
static inline double np_maximum_fold(const double *x, int64_t n)
{
    double r = x[0];
    for (int64_t i = 1; i < n; ++i)
        r = np_maximum(r, x[i]);
    return r;
}

/* A trellis of n_states states S and n_branches = 2S branches, every
 * state with exactly two incoming and two outgoing branches, as
 * BcjrTrellis builds and ckernels.BcjrDecoder checks it.  gather and slab
 * are (2, 2S): candidate k of stacked-row entry j reads row[gather[k][j]]
 * plus the metric of branch slab[k][j].  by_input (n_branches,) lists the
 * branches of input bit 0, then those of input bit 1, each in branch
 * order, and from_state and to_state give those branches' states in the
 * same order.  sys_sign (n_branches,) and par_sign (n_parity, n_branches)
 * are the +-1 signs of the systematic and parity bits. */
struct bcjr_trellis {
    int64_t n_states, n_branches, n_parity;
    const int64_t *gather, *slab, *from_state, *to_state, *by_input;
    const double *sys_sign, *par_sign;
    double lowest;
};

/* gamma[t][b] = (0.5 * (sys + apri)) * sys_sign[b] + 0.5 * parity sum,
 * the parity sum starting from +0.0 and adding each row's term in front of
 * it, so a later row's NaN wins, as np.einsum's sum does.  par_sign is read
 * transposed, (n_parity, n_branches), so the loops over branches are
 * contiguous. */
static void bcjr_gamma(const struct bcjr_trellis *tr, const double *sys,
                       const double *par, const double *apri, int64_t t_len,
                       double *restrict gamma)
{
    const int64_t nb = tr->n_branches;
    for (int64_t t = 0; t < t_len; ++t) {
        const double half_sys =
            0.5 * (apri ? np_add(sys[t], apri[t]) : sys[t] + 0.0);
        double *restrict g = gamma + t * nb;
        for (int64_t b = 0; b < nb; ++b)
            g[b] = 0.0;
        for (int64_t p = 0; p < tr->n_parity; ++p) {
            const double x = par[p * t_len + t];
            const double *sign = tr->par_sign + p * nb;
            for (int64_t b = 0; b < nb; ++b)
                g[b] = np_add(x * sign[b], g[b]);
        }
        for (int64_t b = 0; b < nb; ++b)
            g[b] = np_add(half_sys * tr->sys_sign[b], 0.5 * g[b]);
    }
}

/* The fused recursion over rows (t_len + 1, 2S): rows[t] = [alpha[t] |
 * beta[t_len - t]].  Step t adds gamma rows t (alpha half) and t_len - 1 -
 * t (beta half) to the gathered row, keeps the larger of the two
 * candidates, floors at `lowest` and subtracts each half's maximum, in
 * that order, as the numpy loop does. */
static void bcjr_alpha_beta(const struct bcjr_trellis *tr,
                            const double *gamma, int64_t t_len,
                            int terminated, double *restrict rows)
{
    const int64_t ns = tr->n_states, nb = tr->n_branches, width = 2 * ns;
    const int64_t *gather0 = tr->gather, *gather1 = tr->gather + width;
    const int64_t *slab0 = tr->slab, *slab1 = tr->slab + width;
    const double lowest = tr->lowest;
    for (int64_t j = 0; j < width; ++j)
        rows[j] = lowest;
    rows[0] = 0.0;  /* start in state 0 */
    for (int64_t j = ns; j < (terminated ? ns + 1 : width); ++j)
        rows[j] = 0.0;  /* end in state 0, or anywhere */
    for (int64_t t = 0; t < t_len; ++t) {
        const double *row = rows + t * width;
        double *next = rows + (t + 1) * width;
        for (int64_t h = 0; h < 2; ++h) {
            const double *g = gamma + (h ? t_len - 1 - t : t) * nb;
            for (int64_t j = h * ns; j < (h + 1) * ns; ++j) {
                double cand0 = np_add(row[gather0[j]], g[slab0[j]]);
                double cand1 = np_add(row[gather1[j]], g[slab1[j]]);
                next[j] = np_maximum(np_maximum(cand0, cand1), lowest);
            }
        }
        for (int64_t h = 0; h < 2; ++h) {
            double *half = next + h * ns;
            double top = np_maximum_reduce(half, ns);
            for (int64_t i = 0; i < ns; ++i)
                half[i] = np_subtract(half[i], top);
        }
    }
}

/* The posterior: (alpha[t][from] + gamma[t]) + beta[t + 1][to] over the
 * branches of each input bit, folded by np.maximum in branch order; llr =
 * max0 - max1 and ext = (llr - sys) - apri. */
static void bcjr_posterior(const struct bcjr_trellis *tr, const double *sys,
                           const double *apri, const double *gamma,
                           const double *rows, int64_t t_len,
                           double *restrict metric, double *restrict llr,
                           double *restrict ext)
{
    const int64_t ns = tr->n_states, nb = tr->n_branches, width = 2 * ns;
    for (int64_t t = 0; t < t_len; ++t) {
        const double *alpha = rows + t * width;
        const double *beta = rows + (t_len - 1 - t) * width + ns;
        const double *g = gamma + t * nb;
        for (int64_t i = 0; i < nb; ++i)
            metric[i] = np_add(np_add(alpha[tr->from_state[i]],
                                      g[tr->by_input[i]]),
                               beta[tr->to_state[i]]);
        llr[t] = np_subtract(np_maximum_fold(metric, ns),
                             np_maximum_fold(metric + ns, ns));
        ext[t] = np_subtract(np_subtract(llr[t], sys[t]),
                             apri ? apri[t] : 0.0);
    }
}

/* Decode t_len steps: sys and apri (t_len,), apri NULL for no a priori
 * (numpy's zeros, so +0.0 is added), par (n_parity, t_len).  Writes the
 * posterior and extrinsic LLRs, (t_len,) each, using scratch of (2 t_len
 * + 2) * n_branches doubles: gamma (t_len, n_branches), the rows (t_len +
 * 1, 2S) and one posterior row. */
void bcjr_decode(const struct bcjr_trellis *tr, const double *sys,
                 const double *par, const double *apri, int64_t t_len,
                 int terminated, double *scratch, double *llr, double *ext)
{
    const int64_t nb = tr->n_branches;
    double *gamma = scratch, *rows = gamma + t_len * nb;
    bcjr_gamma(tr, sys, par, apri, t_len, gamma);
    bcjr_alpha_beta(tr, gamma, t_len, terminated, rows);
    bcjr_posterior(tr, sys, apri, gamma, rows, t_len,
                   rows + (t_len + 1) * nb, llr, ext);
}

/* ---- spine hashes: repro.core.hashes, on uint32 words ---- */

static inline uint32_t rotl32(uint32_t x, int k)
{
    return (x << k) | (x >> (32 - k));
}

/* One-at-a-time: mix the four little-endian bytes of w into h. */
static inline uint32_t oaat_absorb(uint32_t h, uint32_t w)
{
    for (int shift = 0; shift < 32; shift += 8) {
        h += (w >> shift) & 0xFFu;
        h += h << 10;
        h ^= h >> 6;
    }
    return h;
}

static inline uint32_t oaat_finish(uint32_t h)
{
    h += h << 3;
    h ^= h >> 11;
    h += h << 15;
    return h;
}

/* lookup3's final() over a = init + state, b = init + data, c = init. */
static inline uint32_t lookup3(uint32_t state, uint32_t data)
{
    const uint32_t init = 0xDEADBEEFu + (2u << 2);
    uint32_t a = init + state, b = init + data, c = init;
    c ^= b; c -= rotl32(b, 14);
    a ^= c; a -= rotl32(c, 11);
    b ^= a; b -= rotl32(a, 25);
    c ^= b; c -= rotl32(b, 16);
    a ^= c; a -= rotl32(c, 4);
    b ^= a; b -= rotl32(a, 14);
    c ^= b; c -= rotl32(b, 24);
    return c;
}

#define SALSA_QUARTER(a, b, c, d)        \
    do {                                 \
        x[b] ^= rotl32(x[a] + x[d], 7);  \
        x[c] ^= rotl32(x[b] + x[a], 9);  \
        x[d] ^= rotl32(x[c] + x[b], 13); \
        x[a] ^= rotl32(x[d] + x[c], 18); \
    } while (0)

/* The Salsa20 core (20 rounds) with the state in word 1 and the data in
 * word 2; the output is feed-forward word 0 xor feed-forward word 1. */
static inline uint32_t salsa20(uint32_t state, uint32_t data)
{
    uint32_t x[16] = {0x61707865u, state, data, 0, 0, 0x3320646Eu, 0, 0,
                      0, 0, 0x79622D32u, 0, 0, 0, 0, 0x6B206574u};
    for (int round = 0; round < 10; ++round) {
        SALSA_QUARTER(0, 4, 8, 12);
        SALSA_QUARTER(5, 9, 13, 1);
        SALSA_QUARTER(10, 14, 2, 6);
        SALSA_QUARTER(15, 3, 7, 11);
        SALSA_QUARTER(0, 1, 2, 3);
        SALSA_QUARTER(5, 6, 7, 4);
        SALSA_QUARTER(10, 11, 8, 9);
        SALSA_QUARTER(15, 12, 13, 14);
    }
    return (x[0] + 0x61707865u) ^ (x[1] + state);
}

enum { HASH_ONE_AT_A_TIME = 0, HASH_LOOKUP3 = 1, HASH_SALSA20 = 2 };

/* out[j] = h(s[j * s_step], d[j]) for j < n.  One-at-a-time absorbs a
 * shared state (s_step == 0) once, as the numpy kernel does at the
 * state's shape. */
static void hash_row(int hash_id, const uint32_t *s, int64_t s_step,
                     const uint32_t *d, uint32_t *restrict out, int64_t n)
{
    switch (hash_id) {
    case HASH_ONE_AT_A_TIME:
        if (s_step == 0) {
            const uint32_t prefix = oaat_absorb(0, s[0]);
            for (int64_t j = 0; j < n; ++j)
                out[j] = oaat_finish(oaat_absorb(prefix, d[j]));
        } else {
            for (int64_t j = 0; j < n; ++j)
                out[j] = oaat_finish(oaat_absorb(
                    oaat_absorb(0, s[j * s_step]), d[j]));
        }
        break;
    case HASH_LOOKUP3:
        for (int64_t j = 0; j < n; ++j)
            out[j] = lookup3(s[j * s_step], d[j]);
        break;
    default:
        for (int64_t j = 0; j < n; ++j)
            out[j] = salsa20(s[j * s_step], d[j]);
        break;
    }
}

/* The broadcasting spine hash in one of two layouts:
 * out[i * cols + j] = h(states[i + j * s_step], datas[j]).  With
 * s_step == 0 each of the rows hashes one state against every data word
 * (the decoder's tree expansion); with rows == 1 and s_step == 1 it is
 * elementwise. */
void spine_hash(int hash_id, const uint32_t *states, int64_t s_step,
                const uint32_t *datas, uint32_t *out, int64_t rows,
                int64_t cols)
{
    for (int64_t i = 0; i < rows; ++i)
        hash_row(hash_id, states + i, s_step, datas, out + i * cols, cols);
}

/* ---- the spine: repro.core.spine.spine_states_batch ---- */

/* The spines of n_msgs messages of n_spine * k bits each (uint8, one bit a
 * byte): out[m * n_spine + i] = h(s, chunk i of message m), s being
 * out[m * n_spine + i - 1], or s0 at i = 0.  Chunk i packs bits [i * k, (i
 * + 1) * k) MSB first as the uint32 sum of bit << (k - 1 - j), 1 <= k <=
 * 32, which is numpy's sum of bit * 2^(k - 1 - j) mod 2^32 for any byte.
 * Each state hashes as hash_row's one-state row of one data word. */
void spine_chain(int hash_id, const uint8_t *bits, int64_t n_msgs,
                 int64_t n_spine, int k, uint32_t s0, uint32_t *out)
{
    for (int64_t m = 0; m < n_msgs; ++m) {
        const uint8_t *b = bits + m * n_spine * k;
        uint32_t *row = out + m * n_spine;
        const uint32_t *prev = &s0;
        for (int64_t i = 0; i < n_spine; ++i) {
            uint32_t chunk = 0;
            for (int j = 0; j < k; ++j)
                chunk += (uint32_t)b[i * k + j] << (k - 1 - j);
            hash_row(hash_id, prev, 0, &chunk, row + i, 1);
            prev = row + i;
        }
    }
}

/* ---- fused branch costs: the score pass of the bubble search ---- */

enum { METRIC_AWGN = 0, METRIC_CSI = 1, METRIC_BSC = 2 };

/* States are hashed and scored in blocks of this many, one slot at a time,
 * so the hash loop runs over a contiguous block the compiler vectorises. */
#define STATE_BLOCK 256

/* The hash words of one block of states against one slot.  prefix holds
 * one-at-a-time's absorbed states and is unused by the other hashes. */
static void hash_block(int hash_id, const uint32_t *restrict states,
                       const uint32_t *restrict prefix, uint32_t slot,
                       uint32_t *restrict words, int64_t n)
{
    switch (hash_id) {
    case HASH_ONE_AT_A_TIME:
        for (int64_t i = 0; i < n; ++i)
            words[i] = oaat_finish(oaat_absorb(prefix[i], slot));
        break;
    case HASH_LOOKUP3:
        for (int64_t i = 0; i < n; ++i)
            words[i] = lookup3(states[i], slot);
        break;
    default:
        for (int64_t i = 0; i < n; ++i)
            words[i] = salsa20(states[i], slot);
        break;
    }
}

/* acc[i] = term for the first slot, acc[i] + term after it: numpy's
 * leading-axis sum seeds each state's total with its first slot's term. */
static inline void accumulate(double *acc, double term, int first)
{
    *acc = first ? term : np_add(*acc, term);
}

/* Path costs of n_msgs messages: out (n_msgs, n_states) from states
 * (n_msgs, n_states), slots (n_slots,), and values and csi whose message m
 * starts row_step values into the row of message m - 1, so n_msgs rows of
 * a received plane.  For METRIC_AWGN and METRIC_CSI, values and csi are
 * complex128 read as interleaved (re, im) doubles; for METRIC_BSC values
 * are float64 and csi is unused.  levels has 2^c entries, 1 <= c <= 16.
 * Each summand is formed by the same operations, in the same order, as the
 * numpy kernel's; the sum runs in slot order.  Each state then adds its
 * parent's cost, parents[m * (n_states >> k) + (i >> k)] for state i of
 * message m, as the bubble search's leaf + bc (the parent is the first
 * operand; with no slots the cost is parent + 0.0). */
static void score_states(int hash_id, int metric,
                         const uint32_t *restrict states, int64_t n_msgs,
                         int64_t n_states, const uint32_t *restrict slots,
                         int64_t n_slots, const double *restrict values,
                         const double *restrict csi, int64_t row_step,
                         const double *restrict levels, int c,
                         const double *restrict parents, int k,
                         double *restrict out)
{
    const uint32_t mask = (1u << c) - 1u;
    const int64_t v_width = metric == METRIC_BSC ? 1 : 2;
    uint32_t prefix[STATE_BLOCK], words[STATE_BLOCK];
    for (int64_t m = 0; m < n_msgs; ++m) {
        const double *v = values + m * row_step * v_width;
        const double *h = metric == METRIC_CSI ? csi + m * row_step * 2 : 0;
        for (int64_t lo = 0; lo < n_states; lo += STATE_BLOCK) {
            const int64_t n = n_states - lo < STATE_BLOCK
                ? n_states - lo : STATE_BLOCK;
            const uint32_t *s = states + m * n_states + lo;
            double *acc = out + m * n_states + lo;
            if (hash_id == HASH_ONE_AT_A_TIME && n_slots > 0)
                for (int64_t i = 0; i < n; ++i)
                    prefix[i] = oaat_absorb(0, s[i]);
            for (int64_t t = 0; t < n_slots; ++t) {
                const int first = t == 0;
                hash_block(hash_id, s, prefix, slots[t], words, n);
                if (metric == METRIC_AWGN) {
                    const double y_r = v[2 * t], y_q = v[2 * t + 1];
                    for (int64_t i = 0; i < n; ++i) {
                        const uint32_t w = words[i];
                        const double d_r = y_r - levels[w & mask];
                        const double d_q = y_q - levels[(w >> c) & mask];
                        accumulate(acc + i, np_add(d_r * d_r, d_q * d_q),
                                   first);
                    }
                } else if (metric == METRIC_CSI) {
                    /* |y - h x|^2 with h x as separately rounded real ops */
                    const double y_r = v[2 * t], y_q = v[2 * t + 1];
                    const double h_r = h[2 * t], h_i = h[2 * t + 1];
                    for (int64_t i = 0; i < n; ++i) {
                        const uint32_t w = words[i];
                        const double x_i = levels[w & mask];
                        const double x_q = levels[(w >> c) & mask];
                        const double f_r = np_subtract(h_r * x_i, h_i * x_q);
                        const double f_q = np_add(h_r * x_q, h_i * x_i);
                        const double d_r = np_subtract(y_r, f_r);
                        const double d_q = np_subtract(y_q, f_q);
                        accumulate(acc + i, np_add(d_r * d_r, d_q * d_q),
                                   first);
                    }
                } else {
                    const double y = v[t];
                    for (int64_t i = 0; i < n; ++i)
                        accumulate(acc + i,
                                   __builtin_fabs((double)(words[i] & 1u) - y),
                                   first);
                }
            }
            const double *p = parents + m * (n_states >> k);
            for (int64_t i = 0; i < n; ++i)
                acc[i] = np_add(p[(lo + i) >> k], n_slots > 0 ? acc[i] : 0.0);
        }
    }
}

/* ---- the bubble search, steps to backtrack: repro.core.decoder ---- */

/* One bubble search's state, owned by ckernels.SpinalPasses, which fills
 * it in two parts and leaves the third to C.  The first is bound when the
 * passes are made, after their checks: the hash, the metric, the cohort's
 * shape (n_msgs messages of at most beam subtrees of `group` leaves, 2^k
 * children a leaf, n_steps pruning steps) and the buffers the passes own,
 * among them every (0, 1, ..., beam - 1, the selection of every subtree
 * in order) and minima (n_msgs * beam << k subtree costs, NULL when group
 * is 1).  The second is the received view, bound by SpinalPasses.search
 * after its checks and unbound (n_spine = 0, every pointer NULL) once the
 * search ends: spine position i has counts[i] slots at
 * slots + i * slot_step, and message m's values at values + (i *
 * value_step + m * row_step) * w doubles, w = 1 for BSC and 2 for complex
 * values; csi has the values' shape and strides.  The third is the step's
 * state: n_leaves leaves per message, the next history row, and the
 * selection left for the next gather, which names survivor j of message
 * m sel[m * sel_step + j], j < n_keep (sel_step 0 when every message
 * keeps the same subtrees), or NULL; sel holds numpy's intp indices,
 * int64 here.  Each gather records its kept count in kept[row] (n_steps
 * entries, owned by the passes), which spinal_backtrack reads once the
 * last row is gathered.  When timed is set, spinal_run adds the seconds
 * its passes take to hash_s (expand, the gathers included), score_s and
 * select_s. */
struct spinal_search {
    int hash_id, metric, c, k;
    int64_t n_msgs, beam, group, n_steps;
    const uint32_t *edges;
    const double *levels;
    uint32_t *leaves;
    double *costs;
    uint32_t *children;
    double *totals;
    int32_t *history;
    int64_t *kept;
    const int64_t *every;
    double *minima;
    int64_t n_spine;
    const int64_t *counts;
    const uint32_t *slots;
    int64_t slot_step;
    const double *values;
    const double *csi;
    int64_t value_step, row_step;
    int64_t n_leaves, row;
    const void *sel;
    int64_t n_keep, sel_step;
    int timed;
    double hash_s, score_s, select_s;
};

/* The survivors of the scored children: the n_leaves << k children of each
 * message form n_groups subtrees of `group` consecutive children, and
 * survivor j of message m, flat group row r = m * n_groups + sel[m *
 * sel_step + j], copies children and totals [r * group, +group) to leaves
 * and costs [(m * n_keep + j) * group, +group) and records r as
 * history[row][m][j] and n_keep as kept[row].  n_leaves becomes n_keep *
 * group, row moves on and the selection is used up.  Returns -1 before
 * anything is written when no selection is pending, when n_keep is not in
 * [1, min(beam, n_groups)], when the history is full or when a survivor
 * lies outside [0, n_groups).
 * The caller guarantees that sel holds n_msgs rows of sel_step >= n_keep
 * entries (one row of n_keep when sel_step is 0). */
int spinal_gather(struct spinal_search *s)
{
    const int64_t n_msgs = s->n_msgs, group = s->group, n_keep = s->n_keep;
    const int64_t n_groups = (s->n_leaves << s->k) / group;
    const int64_t *sel = s->sel;
    if (!sel || n_keep < 1 || n_keep > s->beam || n_keep > n_groups
            || s->row < 0 || s->row >= s->n_steps)
        return -1;
    for (int64_t m = 0; m < n_msgs; ++m)
        for (int64_t j = 0; j < n_keep; ++j)
            if ((uint64_t)sel[m * s->sel_step + j] >= (uint64_t)n_groups)
                return -1;
    int32_t *hist = s->history + s->row * n_msgs * s->beam;
    for (int64_t m = 0; m < n_msgs; ++m) {
        for (int64_t j = 0; j < n_keep; ++j) {
            const int64_t r = m * n_groups + sel[m * s->sel_step + j];
            const uint32_t *restrict from_state = s->children + r * group;
            const double *restrict from_cost = s->totals + r * group;
            uint32_t *restrict to_state = s->leaves + (m * n_keep + j) * group;
            double *restrict to_cost = s->costs + (m * n_keep + j) * group;
            hist[m * s->beam + j] = (int32_t)r;
            for (int64_t w = 0; w < group; ++w) {
                to_state[w] = from_state[w];
                to_cost[w] = from_cost[w];
            }
        }
    }
    s->kept[s->row] = n_keep;
    s->n_leaves = n_keep * group;
    s->row += 1;
    s->sel = 0;
    return 0;
}

/* Pass 1 at spine position `step`: the new leaves, then children[l * 2^k
 * + e] = h(leaves[l], e) for the n_leaves leaves of every message, the
 * tree expansion h(leaves[..., None], edges).  The new leaves are the
 * survivors of the pending selection (spinal_gather); without one, every
 * child of the last step, while those fit in one subtree (the unpruned
 * first d - 1 steps); at step 0 the leaves the search starts from.
 * Returns -1 before anything is written for a position outside the bound
 * view, a refused gather, or unpruned children that would not fit. */
int spinal_expand(struct spinal_search *s, int64_t step)
{
    if (step < 0 || step >= s->n_spine)
        return -1;
    if (s->sel) {
        if (spinal_gather(s))
            return -1;
    } else if (step > 0) {
        const int64_t n_children = s->n_leaves << s->k;
        if (n_children > s->group)
            return -1;
        for (int64_t i = 0; i < s->n_msgs * n_children; ++i) {
            s->leaves[i] = s->children[i];
            s->costs[i] = s->totals[i];
        }
        s->n_leaves = n_children;
    }
    spine_hash(s->hash_id, s->leaves, 0, s->edges, s->children,
               s->n_msgs * s->n_leaves, (int64_t)1 << s->k);
    return 0;
}

/* Pass 2 at spine position `step`: totals (n_msgs, n_leaves << k) =
 * costs (n_msgs, n_leaves), repeated over each leaf's 2^k children, + the
 * branch costs of the children over the position's slots (none at a
 * punctured position), read in place from the bound view.  Returns -1 for
 * a position outside it. */
int spinal_score(struct spinal_search *s, int64_t step)
{
    if (step < 0 || step >= s->n_spine)
        return -1;
    const int64_t at = step * s->value_step
        * (s->metric == METRIC_BSC ? 1 : 2);
    score_states(s->hash_id, s->metric, s->children, s->n_msgs,
                 s->n_leaves << s->k, s->slots + step * s->slot_step,
                 s->counts[step], s->values + at, s->csi ? s->csi + at : 0,
                 s->row_step, s->levels, s->c, s->costs, s->k, s->totals);
    return 0;
}

/* ---- the whole search: one call, survivors chosen by numpy ---- */

_Static_assert(sizeof(npy_intp) == sizeof(int64_t),
               "argpartition's intp indices are read as int64");

/* The kth array every selection hands argpartition, one intp; made with
 * numpy's C API, which the first search imports.  Both happen with the
 * GIL held, as does every later use. */
static PyArrayObject *select_kth;

static int numpy_ready(void)
{
    if (select_kth)
        return 0;
    if (PyArray_API == NULL && _import_array() < 0)
        return -1;
    npy_intp one = 1;
    select_kth = (PyArrayObject *)PyArray_SimpleNew(1, &one, NPY_INTP);
    return select_kth ? 0 : -1;
}

static inline double run_clock(const struct spinal_search *s)
{
    struct timespec t;
    if (!s->timed)
        return 0.0;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* _NumpyPasses._select, by the same numpy calls: of each message's
 * n_groups subtrees of `group` consecutive children, the n_keep =
 * min(n_beam, n_groups) cheapest by their cheapest child, which is
 * np.minimum.reduce(totals as (n_msgs * n_groups, group), axis=1, out=
 * minima) when group > 1, then costs.argpartition(n_keep - 1, axis=1) on
 * the (n_msgs, n_groups) subtree costs, both through numpy's C API on
 * arrays wrapping the passes' own buffers.  When every subtree fits, the
 * selection is `every`, with no numpy call.  The argpartition result is
 * left in *held for the caller to release once the next gather has used
 * it.  Returns -1, having changed nothing, when the kept count does not
 * fit the beam or the children do not form whole subtrees, and -2 when a
 * numpy call fails. */
static int run_select(struct spinal_search *s, int64_t n_beam,
                      PyObject **held)
{
    const int64_t n_children = s->n_leaves << s->k, group = s->group;
    const int64_t n_groups = n_children / group;
    const int64_t n_keep = n_beam < n_groups ? n_beam : n_groups;
    if (n_children % group || n_keep < 1 || n_keep > s->beam)
        return -1;
    s->n_keep = n_keep;
    if (n_keep == n_groups) {
        s->sel = s->every;
        s->sel_step = 0;
        return 0;
    }
    double *costs = s->totals;
    if (group > 1) {
        npy_intp rows[2] = {s->n_msgs * n_groups, group};
        PyObject *all = PyArray_SimpleNewFromData(2, rows, NPY_DOUBLE,
                                                  s->totals);
        PyObject *minima = PyArray_SimpleNewFromData(1, rows, NPY_DOUBLE,
                                                     s->minima);
        PyObject *out = all && minima ? PyArray_Min(
            (PyArrayObject *)all, 1, (PyArrayObject *)minima) : NULL;
        Py_XDECREF(all);
        Py_XDECREF(minima);
        if (!out)
            return -2;
        Py_DECREF(out);
        costs = s->minima;
    }
    npy_intp shape[2] = {s->n_msgs, n_groups};
    PyObject *view = PyArray_SimpleNewFromData(2, shape, NPY_DOUBLE, costs);
    if (!view)
        return -2;
    *(npy_intp *)PyArray_DATA(select_kth) = n_keep - 1;
    PyObject *sel = PyArray_ArgPartition((PyArrayObject *)view, select_kth,
                                         1, NPY_INTROSELECT);
    Py_DECREF(view);
    if (!sel)
        return -2;
    s->sel = PyArray_DATA((PyArrayObject *)sel);
    s->sel_step = n_groups;
    *held = sel;
    return 0;
}

/* A whole search over the bound view, as _NumpyPasses._run runs it step
 * by step: at every spine position spinal_expand and spinal_score, at
 * every pruning step (position d - 1 on) run_select keeping n_beam
 * subtrees, and at the end the last spinal_gather, so no selection
 * outlives the call.  cffi releases the GIL around the call; this takes
 * it back for the whole search, since selection runs numpy.  Returns -1
 * when no fresh search is bound (SpinalPasses.search binds one), d is not
 * in [1, n_spine], the pruning steps overflow the history or n_beam < 1,
 * all before anything is written, or when a pass refuses mid-search, and
 * -2 when numpy's C API cannot be imported or a numpy call fails (its
 * Python error is cleared).  Either way the selection pointer is left
 * NULL. */
int spinal_run(struct spinal_search *s, int64_t d, int64_t n_beam)
{
    const int64_t n_spine = s->n_spine;
    if (n_spine < 1 || d < 1 || d > n_spine || n_spine - d + 1 > s->n_steps
            || n_beam < 1 || s->n_leaves != 1 || s->row != 0 || s->sel)
        return -1;
    PyGILState_STATE gil = PyGILState_Ensure();
    PyObject *held = NULL;
    int rc = numpy_ready() ? -2 : 0;
    s->hash_s = s->score_s = s->select_s = 0.0;
    for (int64_t step = 0; !rc && step < n_spine; ++step) {
        const double t0 = run_clock(s);
        rc = spinal_expand(s, step);
        Py_CLEAR(held);  /* the gather has used the selection */
        const double t1 = run_clock(s);
        rc = rc ? rc : spinal_score(s, step);
        const double t2 = run_clock(s);
        s->hash_s += t1 - t0;
        s->score_s += t2 - t1;
        if (!rc && step >= d - 1) {
            rc = run_select(s, n_beam, &held);
            s->select_s += run_clock(s) - t2;
        }
    }
    if (!rc) {
        const double t0 = run_clock(s);
        rc = spinal_gather(s);
        s->hash_s += run_clock(s) - t0;
    }
    Py_CLEAR(held);
    s->sel = 0;
    if (rc == -2)
        PyErr_Clear();
    PyGILState_Release(gil);
    return rc;
}

/* The survivor of history row r at flat index b, read as the flat
 * (n_msgs, kept[r]) array: the group row whose quotient by 2^k is the
 * parent's survivor in row r - 1 and whose remainder is the edge taken at
 * spine position r.  -1 when it names no survivor of row r - 1 (a single
 * subtree a message before the first row). */
static int64_t history_entry(const struct spinal_search *s, int64_t r,
                             int64_t b)
{
    const int64_t n_keep = s->kept[r], n_prev = r ? s->kept[r - 1] : 1;
    const int64_t g = s->history[(r * s->n_msgs + b / n_keep) * s->beam
                                 + b % n_keep];
    return g >= 0 && g < (s->n_msgs * n_prev) << s->k ? g : -1;
}

/* The decoded bits of a finished search (its last row gathered and the
 * view unbound), n_bits = (row + d - 1) * k a message, from
 * best[m], the index among message m's n_leaves final leaves of the one
 * np.argmin chose.  Leaf best[m] is survivor b = m * kept[row - 1] +
 * best[m] / group of the last row, at w = best[m] % group in its subtree;
 * each history row gives the edge at its spine position and the parent's
 * survivor (history_entry), and the last d - 1 edges are w's base-2^k
 * digits, most significant first, group being 2^(k (d - 1)).  The chunk
 * at position i is the low k bits of its history entry or of w, written
 * MSB first as bits[i * k + j].  Returns -1 before anything is read when
 * no search has finished, when group is no power of 2^k, when n_bits or a
 * kept count does not fit the search, or when a best leaf lies outside
 * [0, n_leaves), and -1 before anything is written when a history entry
 * names no survivor. */
int spinal_backtrack(const struct spinal_search *s, const int64_t *best,
                     uint8_t *bits, int64_t n_bits)
{
    const int k = s->k;
    const int64_t n_msgs = s->n_msgs, n_rows = s->row, group = s->group;
    int64_t digits = 0, size = 1;
    while (size < group) {
        size <<= k;
        ++digits;
    }
    if (s->n_spine != 0 || s->sel || n_rows < 1 || n_rows > s->n_steps
            || size != group || n_bits != (n_rows + digits) * k)
        return -1;
    for (int64_t r = 0; r < n_rows; ++r)
        if (s->kept[r] < 1 || s->kept[r] > s->beam)
            return -1;
    const int64_t last = s->kept[n_rows - 1];
    if (s->n_leaves != last * group)
        return -1;
    for (int64_t m = 0; m < n_msgs; ++m)
        if (best[m] < 0 || best[m] >= s->n_leaves)
            return -1;
    for (int pass = 0; pass < 2; ++pass) {  /* check every path, then write */
        for (int64_t m = 0; m < n_msgs; ++m) {
            uint8_t *out = bits + m * n_bits;
            int64_t b = m * last + best[m] / group, w = best[m] % group;
            for (int64_t r = n_rows - 1; r >= 0; --r) {
                const int64_t g = history_entry(s, r, b);
                if (g < 0)
                    return -1;
                for (int j = 0; pass && j < k; ++j)
                    out[r * k + j] = (g >> (k - 1 - j)) & 1;
                b = g >> k;
            }
            for (int64_t i = n_rows + digits - 1; pass && i >= n_rows; --i) {
                for (int j = 0; j < k; ++j)
                    out[i * k + j] = (w >> (k - 1 - j)) & 1;
                w >>= k;
            }
        }
    }
    return 0;
}

/* ---- belief propagation: repro.ldpc.bp.BeliefPropagation.decode ---- */

/* Branch-free selects keep the edge loops vectorisable.  Each returns a
 * NaN x unchanged, as np.clip, np.maximum and np.minimum do. */
static inline double clip(double x, double lo, double hi)
{
    x = x < lo ? lo : x;
    return x > hi ? hi : x;
}

/* numpy's pairwise float64 sum of n contiguous values: a plain loop from
 * -0.0 below 8 values, eight accumulators up to 128, and halves (the first
 * rounded down to a multiple of 8) above that.  np.add.reduceat over a
 * segment equals seg[0] + pairwise_sum(seg + 1, len - 1) bit for bit. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; ++i)
            res = np_add(res, a[i]);
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; ++k)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; ++k)
                r[k] = np_add(r[k], a[i + k]);
        double res = np_add(np_add(np_add(r[0], r[1]), np_add(r[2], r[3])),
                            np_add(np_add(r[4], r[5]), np_add(r[6], r[7])));
        for (; i < n; ++i)
            res = np_add(res, a[i]);
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return np_add(pairwise_sum(a, n2), pairwise_sum(a + n2, n - n2));
}

/* np.add.reduceat over the segment [lo, hi), hi > lo. */
static inline double segment_sum(const double *a, int64_t lo, int64_t hi)
{
    return np_add(a[lo], pairwise_sum(a + lo + 1, hi - lo - 1));
}

/* Pass 1, after tanh: edge[e] = max(|clip(t)|, floor) in place, and
 * neg[e] = clip(t) < 0. */
void bp_magnitudes(double *restrict edge, uint8_t *restrict neg,
                   int64_t n_edges,
                   double tanh_clip, double floor)
{
    for (int64_t e = 0; e < n_edges; ++e) {
        const double t = clip(edge[e], -tanh_clip, tanh_clip);
        const double m = __builtin_fabs(t);
        neg[e] = t < 0;
        edge[e] = m < floor ? floor : m;
    }
}

/* Below this log-product numpy's exp returns +0.0 at every dispatch level
 * (tests/test_ldpc.py pins it).  Pass 2 hands exp a 0.0 there instead,
 * whose exp is cheap where an underflowing one is not, and sets
 * BP_UNDERFLOW in the edge's sign byte; pass 3 then writes the +0.0. */
#define BP_UNDERFLOW_BELOW (-746.0)
#define BP_UNDERFLOW 2

/* Pass 2, after log: per check c over its edges [bounds[c], bounds[c+1]),
 * msg[e] = min(total - edge[e] (+ obs_logmag[c]), 0) with total the
 * reduceat sum of the check's edge values, and msg_neg[e] the parity of
 * the check's negative flags xor neg[e] (xor obs_neg[c]).  obs_logmag and
 * obs_neg are NULL for pure parity checks.  Then one flat loop, which
 * vectorises whole where the short per-check loops run mostly scalar,
 * writes 0.0 over each msg[e] below BP_UNDERFLOW_BELOW (never a NaN) and
 * sets BP_UNDERFLOW in its msg_neg[e]. */
void bp_check_messages(const double *restrict edge,
                       const uint8_t *restrict neg,
                       const int64_t *restrict bounds, int64_t n_checks,
                       const double *restrict obs_logmag,
                       const uint8_t *restrict obs_neg,
                       double *restrict msg, uint8_t *restrict msg_neg)
{
    for (int64_t c = 0; c < n_checks; ++c) {
        const int64_t lo = bounds[c], hi = bounds[c + 1];
        if (lo == hi)
            continue;
        const double total = segment_sum(edge, lo, hi);
        uint8_t parity = 0;
        for (int64_t e = lo; e < hi; ++e)
            parity ^= neg[e];
        if (obs_neg)
            parity ^= obs_neg[c];
        for (int64_t e = lo; e < hi; ++e) {
            double m = np_subtract(total, edge[e]);
            if (obs_logmag)
                m = np_add(m, obs_logmag[c]);
            msg[e] = m > 0.0 ? 0.0 : m;
            msg_neg[e] = parity ^ neg[e];
        }
    }
    for (int64_t e = bounds[0]; e < bounds[n_checks]; ++e) {
        const bool underflow = msg[e] < BP_UNDERFLOW_BELOW;
        msg[e] = underflow ? 0.0 : msg[e];
        msg_neg[e] |= underflow ? BP_UNDERFLOW : 0;
    }
}

/* Pass 3, after exp: msg[e] = clip(x * signs[msg_neg[e] & 1],
 * +-tanh_clip) with signs = {1.0, -1.0}, where x is msg[e], or the +0.0
 * numpy's exp would have returned for an edge marked BP_UNDERFLOW.  A
 * multiply keeps a NaN's sign bit, as numpy's does; the compiler would
 * turn a multiply by a known -1.0 into a negation, which flips it, so the
 * signs arrive by pointer. */
void bp_signed_clip(double *restrict msg, const uint8_t *restrict msg_neg,
                    int64_t n_edges, double tanh_clip,
                    const double *restrict signs)
{
    for (int64_t e = 0; e < n_edges; ++e) {
        const uint8_t flags = msg_neg[e];
        const double x = flags & BP_UNDERFLOW ? 0.0 : msg[e];
        msg[e] = clip(x * signs[flags & 1], -tanh_clip, tanh_clip);
    }
}

/* Pass 4, after arctanh: c2v = clip(msg * 2, +-llr_clip) in place; each
 * variable's posterior is chan[v] plus the reduceat sum of its c2v in
 * var_order (+ 0.0 for an edgeless variable, which turns -0.0 into 0.0 as
 * numpy's fill does); then edge[e] = clip(posterior[var_index[e]] -
 * c2v[e], +-llr_clip) / 2, the next iteration's tanh argument.  scratch
 * holds the c2v gathered into variable order. */
void bp_variable_update(double *restrict msg, const double *restrict chan,
                        const int64_t *restrict var_order,
                        const int64_t *restrict var_bounds, int64_t n_vars,
                        const int64_t *restrict var_index, int64_t n_edges,
                        double llr_clip, double *restrict scratch,
                        double *restrict posterior, double *restrict edge)
{
    for (int64_t e = 0; e < n_edges; ++e)
        msg[e] = clip(msg[e] * 2.0, -llr_clip, llr_clip);
    for (int64_t j = 0; j < n_edges; ++j)
        scratch[j] = msg[var_order[j]];
    for (int64_t v = 0; v < n_vars; ++v) {
        const int64_t lo = var_bounds[v], hi = var_bounds[v + 1];
        posterior[v] = np_add(chan[v],
                              lo == hi ? 0.0 : segment_sum(scratch, lo, hi));
    }
    for (int64_t e = 0; e < n_edges; ++e)
        edge[e] = clip(np_subtract(posterior[var_index[e]], msg[e]),
                       -llr_clip, llr_clip) / 2.0;
}

/* ---- draws from numpy's bit generator: repro.fountain ---- */

/* Generator.choice(n, size=d, replace=False) on its Floyd branch (n <=
 * 10000 or d <= n // 50; the caller guarantees it), into out[0 .. d) in
 * numpy's order.  One draw in [0, j] per j in [n - d, n), taking j when
 * the draw is already chosen (numpy's hash set only speeds up that
 * membership test), then _shuffle_int's swaps from i = d - 1 down to 1. */
static void floyd_choice(bitgen_t *state, int64_t n, int64_t d, int64_t *out)
{
    for (int64_t j = n - d; j < n; ++j) {
        int64_t val = (int64_t)random_bounded_uint64(state, 0, (uint64_t)j, 0,
                                                     false);
        for (int64_t k = 0; k < j - (n - d); ++k)
            if (out[k] == val) {
                val = j;
                break;
            }
        out[j - (n - d)] = val;
    }
    for (int64_t i = d - 1; i > 0; --i) {
        const int64_t j = (int64_t)random_bounded_uint64(state, 0,
                                                         (uint64_t)i, 0,
                                                         false);
        const int64_t swap = out[j];
        out[j] = out[i];
        out[i] = swap;
    }
}

/* count rows of Generator.choice(n, size=d, replace=False), row i into
 * out[i * d ..]: the LDPC precode's check assignments. */
void choice_draw(void *bitgen, int64_t n, int64_t d, int64_t count,
                 int64_t *out)
{
    for (int64_t i = 0; i < count; ++i)
        floyd_choice(bitgen, n, d, out + i * d);
}

/* count LT outputs' degrees and sorted neighbour sets, drawn as
 * LTStream's Python loop draws them: Generator.integers(0, v_range,
 * size=1) with v_range = thresholds[n_rows - 1], the degree of the first
 * threshold above the draw (capped at n), then choice(n, size=degree,
 * replace=False).  Output i's neighbours go to flat[offsets[i] ..] and
 * offsets[i + 1] is set; offsets[0] is the caller's. */
void lt_draw(void *bitgen, int64_t n, int64_t count,
             const int64_t *thresholds, const int64_t *degrees,
             int64_t n_rows, int64_t *offsets, int64_t *flat)
{
    bitgen_t *state = bitgen;
    const uint64_t v_range = (uint64_t)thresholds[n_rows - 1] - 1;
    for (int64_t i = 0; i < count; ++i) {
        uint64_t v;
        random_bounded_uint64_fill(state, 0, v_range, 1, false, &v);
        int64_t row = 0;
        while ((uint64_t)thresholds[row] <= v)
            ++row;
        const int64_t d = degrees[row] < n ? degrees[row] : n;
        int64_t *nbrs = flat + offsets[i];
        floyd_choice(state, n, d, nbrs);
        for (int64_t k = 1; k < d; ++k) {  /* insertion sort */
            const int64_t x = nbrs[k];
            int64_t m = k;
            for (; m > 0 && nbrs[m - 1] > x; --m)
                nbrs[m] = nbrs[m - 1];
            nbrs[m] = x;
        }
        offsets[i + 1] = offsets[i] + d;
    }
}
