/*
 * The non-bonded evaluator: LJ 12-6 + reaction-field forces and energies
 * over a PairBlock, compiled.  repro.md.native builds this file with the
 * host's C compiler on first use and repro.md.nonbonded.block_forces
 * calls it through ctypes.
 *
 * It is the NumPy chain repro.md.nonbonded.block_forces_numpy, operation
 * for operation, and must stay bit-identical to it (tests/test_native.py
 * holds it there).  That fixes every choice below:
 *
 *   - chunks are cut exactly as nonbonded._chunks cuts them;
 *   - r^2 sums the squares in einsum's association for the dtype:
 *     (x^2 + z^2) + y^2 in float64, (x^2 + y^2) + z^2 in float32;
 *   - 12*C12, 6*C6 and 2*k_rf are float64 products rounded once into the
 *     chain type, and the LJ shift c12*k*k - c6*k is float64;
 *   - masks multiply by 1 or 0 (a masked negative term is -0.0);
 *   - energy sums are np.sum: 0.0 plus NumPy's pairwise sum (float64
 *     chains, per chunk); float32 chains sum in float64 over bufsize-element
 *     buffers (np.sum's casting buffers), added in order to 0.0;
 *   - an i-segment is reduceat's a[0] + pairwise(a[1:]) in the chain type,
 *     added to the output row in segment order;
 *   - the j side is bincount: a float64 accumulator per atom row, fed in
 *     pair order from 0.0, then cast and subtracted.
 *
 * Build flags keep the arithmetic IEEE-exact: -ffp-contract=off (no FMA),
 * no -ffast-math, and -fno-math-errno only so sqrt and rint inline.
 */
#include <float.h>
#include <stdint.h>
#include <string.h>
#include <tgmath.h>

/* NumPy's pairwise summation (numpy/_core/src/umath/loops_utils.h.src):
 * under 8 terms a running sum from -0.0 (the identity that keeps a sum
 * of -0.0 terms -0.0); up to PW_BLOCKSIZE terms eight accumulators,
 * combined pairwise, then the tail; longer runs split in two at a
 * multiple of 8. */
#define PW_BLOCKSIZE 128

#define DEFINE_PAIRWISE(NAME, IN, ACC)                                      \
    static ACC NAME(const IN *a, int64_t n)                                 \
    {                                                                       \
        if (n < 8) {                                                        \
            ACC res = -0.0;                                                 \
            for (int64_t i = 0; i < n; i++)                                 \
                res += (ACC)a[i];                                           \
            return res;                                                     \
        }                                                                   \
        if (n <= PW_BLOCKSIZE) {                                            \
            ACC r[8];                                                       \
            int64_t i;                                                      \
            for (int k = 0; k < 8; k++)                                     \
                r[k] = (ACC)a[k];                                           \
            for (i = 8; i < n - (n % 8); i += 8)                            \
                for (int k = 0; k < 8; k++)                                 \
                    r[k] += (ACC)a[i + k];                                  \
            ACC res = ((r[0] + r[1]) + (r[2] + r[3]))                       \
                      + ((r[4] + r[5]) + (r[6] + r[7]));                    \
            for (; i < n; i++)                                              \
                res += (ACC)a[i];                                           \
            return res;                                                     \
        }                                                                   \
        int64_t n2 = n / 2;                                                 \
        n2 -= n2 % 8;                                                       \
        return NAME(a, n2) + NAME(a + n2, n - n2);                          \
    }

DEFINE_PAIRWISE(pairwise_f64, double, double)
DEFINE_PAIRWISE(pairwise_f32, float, float)
DEFINE_PAIRWISE(pairwise_f32_in_f64, float, double)

/* np.sum(e, dtype=float64) of one chunk's energy column. */
static double energy_sum_f64(const double *e, int64_t c, int64_t bufsize)
{
    (void)bufsize; /* no cast, so no buffering */
    return 0.0 + pairwise_f64(e, c);
}

static double energy_sum_f32(const float *e, int64_t c, int64_t bufsize)
{
    double s = 0.0;
    for (int64_t b = 0; b < c; b += bufsize)
        s += pairwise_f32_in_f64(e + b, c - b < bufsize ? c - b : bufsize);
    return s;
}

/* One np.add.reduceat segment: the first element, then the rest. */
#define DEFINE_SEGMENT_SUM(NAME, T, PAIRWISE)                               \
    static T NAME(const T *a, int64_t n)                                    \
    {                                                                       \
        return n == 1 ? a[0] : a[0] + PAIRWISE(a + 1, n - 1);               \
    }

DEFINE_SEGMENT_SUM(segment_sum_f64, double, pairwise_f64)
DEFINE_SEGMENT_SUM(segment_sum_f32, float, pairwise_f32)

/* End of the chunk that starts at segment s0 (nonbonded._chunks): the
 * last segment start within `target` pairs of its first pair, at least
 * one segment, everything left once the chunk reaches the end. */
static int64_t chunk_end(const int64_t *starts, int64_t n_seg, int64_t m,
                         int64_t s0, int64_t target)
{
    int64_t lim = starts[s0] + target;
    if (lim >= m)
        return n_seg;
    /* searchsorted(starts, lim, side="right") - 1 */
    int64_t lo = s0, hi = n_seg;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (starts[mid] <= lim)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo - 1 > s0 + 1 ? lo - 1 : s0 + 1;
}

/* Chunk-level results of the geometry pass. */
struct chunk_flags {
    int any_inside; /* some pair interacts */
    int overlap;    /* some r^2 <= 0 (a NaN is no overlap) */
    int dummy;      /* some r^2 is NaN or above sqrt(max) */
};

/*
 * DEFINE_CHAIN(T, S, ...) defines the chain for chain type T:
 *   gather_S     dx = pos[i] - pos[j] into three columns;
 *   wrap_S       minimum image along one periodic dimension;
 *   r2_S         r^2 and the chunk flags;
 *   interact_S   the interaction chain, per pair, branch-free and
 *                restrict-qualified so the compiler vectorizes it;
 *                force vectors overwrite dx, masked energies go to el/ec;
 *   nb_block_forces_S  the whole block: chunks, energy sums, i and j
 *                sides; returns 0, -1 on an overlap, or the scratch rows
 *                the longest chunk needs when they exceed scratch_rows.
 * D1, D2 are the second and third dimension in einsum's order.
 */
#define DEFINE_CHAIN(T, S, D1, D2, T_FINITE_MAX, ENERGY_SUM, SEGMENT_SUM)   \
    static void gather_##S(const T *restrict pos, const int64_t *restrict pi, \
                           const int64_t *restrict pj, int64_t c,           \
                           T *restrict x, T *restrict y, T *restrict z)     \
    {                                                                       \
        for (int64_t k = 0; k < c; k++) {                                   \
            const T *a = pos + 3 * pi[k], *b = pos + 3 * pj[k];             \
            x[k] = a[0] - b[0];                                             \
            y[k] = a[1] - b[1];                                             \
            z[k] = a[2] - b[2];                                             \
        }                                                                   \
    }                                                                       \
                                                                            \
    static void wrap_##S(T *restrict x, int64_t c, T box)                   \
    {                                                                       \
        for (int64_t k = 0; k < c; k++) {                                   \
            T s = x[k] / box;                                               \
            s = rint(s);                                                    \
            s *= box;                                                       \
            x[k] -= s;                                                      \
        }                                                                   \
    }                                                                       \
                                                                            \
    static struct chunk_flags r2_##S(const T *restrict d0,                  \
                                     const T *restrict d1,                  \
                                     const T *restrict d2, T *restrict r2,  \
                                     int64_t c, T rc2)                      \
    {                                                                       \
        const T finite = sqrt(T_FINITE_MAX);                                \
        int inside = 0, overlap = 0, dummy = 0;                             \
        for (int64_t k = 0; k < c; k++) {                                   \
            T r = d0[k] * d0[k];                                            \
            T t = d1[k] * d1[k];                                            \
            r += t;                                                         \
            t = d2[k] * d2[k];                                              \
            r += t;                                                         \
            r2[k] = r;                                                      \
            inside |= r <= rc2;                                             \
            overlap |= r <= 0;                                              \
            dummy |= !(r <= finite);                                        \
        }                                                                   \
        return (struct chunk_flags){inside, overlap, dummy};                \
    }                                                                       \
                                                                            \
    static void interact_##S(                                               \
        int64_t c, T *restrict x, T *restrict y, T *restrict z,             \
        const T *restrict r2, T *restrict el, T *restrict ec,               \
        const double *restrict c6, const double *restrict c12,              \
        const double *restrict qq, T rc2, T dummy, double rc_inv6,          \
        T k_rf, T two_k_rf, T c_rf)                                         \
    {                                                                       \
        for (int64_t k = 0; k < c; k++) {                                   \
            T r = r2[k];                                                    \
            T in = r <= rc2 ? (T)1 : (T)0;                                  \
            /* the dummy distance for entries beyond the cutoff; an int     \
             * flag here would keep gcc from vectorizing the loop */        \
            r = r <= rc2 ? r : (dummy == (T)1 ? (T)1 : r);                  \
            T inv_r2 = (T)1 / r;                                            \
            T inv_r6 = inv_r2 * inv_r2;                                     \
            inv_r6 *= inv_r2;                                               \
            T inv_r12 = inv_r6 * inv_r6;                                    \
            T inv_r = sqrt(inv_r2);                                         \
            T f_lj = (T)(12.0 * c12[k]);                                    \
            f_lj *= inv_r12;                                                \
            T t = (T)(6.0 * c6[k]);                                         \
            t *= inv_r6;                                                    \
            f_lj -= t;                                                      \
            f_lj *= inv_r2;                                                 \
            T q = (T)qq[k];                                                 \
            T f_coul = inv_r * inv_r2;                                      \
            f_coul -= two_k_rf;                                             \
            f_coul *= q;                                                    \
            T e_c = k_rf * r;                                               \
            e_c += inv_r;                                                   \
            e_c -= c_rf;                                                    \
            e_c *= q;                                                       \
            T fscal = f_lj + f_coul;                                        \
            fscal *= in;                                                    \
            x[k] = fscal * x[k];                                            \
            y[k] = fscal * y[k];                                            \
            z[k] = fscal * z[k];                                            \
            double e_shift = c12[k] * rc_inv6;                              \
            e_shift *= rc_inv6;                                             \
            e_shift -= c6[k] * rc_inv6;                                     \
            T e_l = (T)c12[k] * inv_r12;                                    \
            t = (T)c6[k] * inv_r6;                                          \
            e_l -= t;                                                       \
            e_l -= (T)e_shift;                                              \
            el[k] = e_l * in;                                               \
            ec[k] = e_c * in;                                               \
        }                                                                   \
    }                                                                       \
                                                                            \
    int64_t nb_block_forces_##S(                                            \
        const T *pos, int64_t n_atoms, const int64_t *pi,                   \
        const int64_t *pj, int64_t m, const int64_t *seg_starts,            \
        const int64_t *seg_i, int64_t n_seg, const double *c6,              \
        const double *c12, const double *qq, double box_x, double box_y,    \
        double box_z, int32_t wrap, double rc2, double rc_inv6, double k_rf, \
        double c_rf, int64_t target, int64_t bufsize, T *scratch,           \
        int64_t scratch_rows, double *acc, void *out, int32_t out_f32,      \
        double *energies)                                                   \
    {                                                                       \
        /* The largest chunk must fit the scratch: report its size. */      \
        int64_t longest = 0;                                                \
        for (int64_t s0 = 0, s1; s0 < n_seg; s0 = s1) {                     \
            s1 = chunk_end(seg_starts, n_seg, m, s0, target);               \
            int64_t hi = s1 < n_seg ? seg_starts[s1] : m;                   \
            if (hi - seg_starts[s0] > longest)                              \
                longest = hi - seg_starts[s0];                              \
        }                                                                   \
        if (longest > scratch_rows)                                         \
            return longest;                                                 \
        const T box[3] = {(T)box_x, (T)box_y, (T)box_z};                    \
        T *dx[3] = {scratch, scratch + scratch_rows,                        \
                    scratch + 2 * scratch_rows};                            \
        T *r2 = scratch + 3 * scratch_rows;                                 \
        T *el = scratch + 4 * scratch_rows;                                 \
        T *ec = scratch + 5 * scratch_rows;                                 \
        const T trc2 = (T)rc2;                                              \
        double e_lj = 0.0, e_coul = 0.0;                                    \
        int fed = 0;                                                        \
        for (int64_t s0 = 0, s1; s0 < n_seg; s0 = s1) {                     \
            s1 = chunk_end(seg_starts, n_seg, m, s0, target);               \
            int64_t lo = seg_starts[s0];                                    \
            int64_t hi = s1 < n_seg ? seg_starts[s1] : m;                   \
            int64_t c = hi - lo;                                            \
            gather_##S(pos, pi + lo, pj + lo, c, dx[0], dx[1], dx[2]);      \
            for (int d = 0; d < 3; d++)                                     \
                if (wrap >> d & 1)                                          \
                    wrap_##S(dx[d], c, box[d]);                             \
            struct chunk_flags f =                                          \
                r2_##S(dx[0], dx[D1], dx[D2], r2, c, trc2);                 \
            /* Nothing interacts: the chunk's force vectors are all +0.0,   \
             * and adding +0.0 leaves the j accumulator as it is. */        \
            if (!f.any_inside)                                              \
                continue;                                                   \
            if (f.overlap)                                                  \
                return -1;                                                  \
            interact_##S(c, dx[0], dx[1], dx[2], r2, el, ec, c6 + lo,       \
                         c12 + lo, qq + lo, trc2, (T)f.dummy, rc_inv6,      \
                         (T)k_rf, (T)(2.0 * k_rf), (T)c_rf);                \
            e_lj += ENERGY_SUM(el, c, bufsize);                             \
            e_coul += ENERGY_SUM(ec, c, bufsize);                           \
            for (int64_t s = s0; s < s1; s++) {                             \
                int64_t a = seg_starts[s] - lo;                             \
                int64_t b = (s + 1 < s1 ? seg_starts[s + 1] : hi) - lo;     \
                int64_t row = 3 * seg_i[s];                                 \
                for (int d = 0; d < 3; d++) {                               \
                    T sum = SEGMENT_SUM(dx[d] + a, b - a);                  \
                    if (out_f32)                                            \
                        ((float *)out)[row + d] += (float)sum;              \
                    else                                                    \
                        ((double *)out)[row + d] += (double)sum;            \
                }                                                           \
            }                                                               \
            if (!fed) {                                                     \
                memset(acc, 0, (size_t)n_atoms * 3 * sizeof(double));       \
                fed = 1;                                                    \
            }                                                               \
            for (int64_t k = 0; k < c; k++) {                               \
                double *row = acc + 3 * pj[lo + k];                         \
                row[0] += (double)dx[0][k];                                 \
                row[1] += (double)dx[1][k];                                 \
                row[2] += (double)dx[2][k];                                 \
            }                                                               \
        }                                                                   \
        /* x - (+0.0) is x, so rows never fed need no pass. */              \
        if (fed) {                                                          \
            for (int64_t r = 0; r < 3 * n_atoms; r++) {                     \
                if (out_f32)                                                \
                    ((float *)out)[r] -= (float)acc[r];                     \
                else                                                        \
                    ((double *)out)[r] -= acc[r];                           \
            }                                                               \
        }                                                                   \
        energies[0] = e_lj;                                                 \
        energies[1] = e_coul;                                               \
        return 0;                                                           \
    }

DEFINE_CHAIN(double, f64, 2, 1, DBL_MAX, energy_sum_f64, segment_sum_f64)
DEFINE_CHAIN(float, f32, 1, 2, FLT_MAX, energy_sum_f32, segment_sum_f32)
