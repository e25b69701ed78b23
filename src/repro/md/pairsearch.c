/*
 * The cluster pair search's hot stages and the dual list's rank passes,
 * compiled: candidate enumeration, the M x N tile test, the drift guard
 * and the re-prune of an outer list into an inner block.
 * repro.md.native builds this file into the same library as
 * nonbonded.c; repro.md.cells.cluster_pairs, repro.md.nonbonded.drift_guard
 * and repro.md.nonbonded.PairBlock.pruned call it through ctypes.
 *
 * It reproduces the NumPy oracles exactly (tests/test_native.py holds it
 * there): the pair set and the candidate and tile counts of
 * repro.md.cells.cluster_pair_candidates, the halo cluster cut and
 * cluster_tile_pairs; the guard's einsum test; the mask of
 * repro.md.nonbonded.within_radius and the arrays PairBlock.__init__
 * makes of the pairs it keeps.  That fixes the arithmetic below:
 *
 *   - z windows are np.searchsorted on the keys the caller builds, with
 *     the query (col * zband) + q and the images made disjoint after the
 *     `same` floor, as cluster_pair_candidates does;
 *   - the box test is float64: |c_a - c_b|, min(g, L - g) along periodic
 *     dimensions, minus both half extents, max(g, 0)^2, summed
 *     (g_x + g_y) + g_z, kept when <= lim2;
 *   - a distance is dx = x_a - x_b per dimension, minimum image
 *     s = rint(dx / L); s *= L; dx -= s along a periodic one, and
 *     r^2 = (dx^2 + dy^2) + dz^2, kept when <= r2max (NaN fails);
 *   - the guard's drift is d = x - ref in the positions' dtype, squared
 *     and summed in einsum's association for it: (x^2 + z^2) + y^2 in
 *     float64, (x^2 + y^2) + z^2 in float32, compared in that dtype.
 *
 * Build flags keep the arithmetic IEEE-exact: -ffp-contract=off (no FMA),
 * no -ffast-math, and -fno-math-errno only so rint inlines.
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>

/* Atoms per cluster: repro.md.cells.CLUSTER_M. */
#define M 4

/*
 * np.searchsorted(key, v, side="left" / "right") over a sorted, NaN-free
 * key of n entries, searched first in [s, e), the column band the query
 * falls in: the entries beside the band widen it only when they show the
 * answer lies outside, so the result is the whole array's.
 */
static int64_t first_not_below(const double *key, int64_t n, int64_t s,
                               int64_t e, double v)
{
    int64_t lo = s > 0 && !(key[s - 1] < v) ? 0 : s;
    int64_t hi = e < n && key[e] < v ? n : e;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (key[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int64_t first_above(const double *key, int64_t n, int64_t s,
                           int64_t e, double v)
{
    int64_t lo = s > 0 && v < key[s - 1] ? 0 : s;
    int64_t hi = e < n && !(v < key[e]) ? n : e;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (v < key[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

static inline double min_image(double dx, double box)
{
    double s = dx / box;
    s = rint(s);
    s *= box;
    return dx - s;
}

/* The minimum-image displacement along dimension d when `wrap` sets it. */
#define WRAPPED(dx, d) ((wrap >> (d) & 1) ? min_image((dx), box[d]) : (dx))

/* A cluster layout as the search reads it (repro.md.cells.ClusterLayout). */
struct layout {
    int64_t n;            /* clusters */
    const double *x;      /* (n, 3, M) slot coordinates, NaN in padding */
    const int64_t *atoms; /* (n, M) atom indices */
    const double *center; /* (n, 3) bounding-box midpoints */
    const double *half;   /* (n, 3) bounding-box half extents */
    const int64_t *col;   /* (n,) column of each cluster */
    const uint8_t *bits;  /* (n, M) zone bits per slot, or NULL */
    const uint8_t *cut;   /* (n,) zone bits all atoms share, or NULL */
};

/* The O(clusters) windows and keys repro.md.cells._search_windows makes. */
struct windows {
    int64_t nix, niy, niz;   /* images along x, y, z */
    const int64_t *x0, *xn;  /* (n_a, nix) first x column, column count */
    const int64_t *y0, *yn;  /* (n_a, niy) the same along y */
    const double *qlo, *qhi; /* (n_a, niz) clipped z queries */
    const double *key_hi;    /* (n_b,) col * zband + top face offset */
    const double *key_lo;    /* (n_b,) col * zband + bottom face offset */
    const int64_t *band;     /* (columns + 1,) b's first cluster per column */
    int64_t b_ny;            /* b's columns along y */
    double zband;            /* zspan + 2 */
};

/* Box test of cluster pair (ia, jb): no pair of their atoms can lie
 * within the widened radius when this fails. */
static int boxes_meet(const struct layout *a, int64_t ia,
                      const struct layout *b, int64_t jb, const double *box,
                      int32_t wrap, double lim2)
{
    double g[3];
    for (int d = 0; d < 3; d++) {
        double gap = fabs(a->center[3 * ia + d] - b->center[3 * jb + d]);
        if (wrap >> d & 1) {
            double other = box[d] - gap;
            gap = other < gap ? other : gap;
        }
        gap -= a->half[3 * ia + d];
        gap -= b->half[3 * jb + d];
        gap = gap > 0.0 ? gap : 0.0;
        g[d] = gap * gap;
    }
    return (g[0] + g[1]) + g[2] <= lim2;
}

/* r^2 of the M x M slot pairs of two (3, M) coordinate blocks.  Inlined
 * with a constant `wrap` at each call in tile(), so every case is
 * branch-free and vectorizes. */
static inline __attribute__((always_inline)) void
tile_r2(const double *restrict xa, const double *restrict xb,
        const double *restrict box, int32_t wrap, double *restrict r2)
{
    for (int sa = 0; sa < M; sa++)
        for (int sb = 0; sb < M; sb++) {
            double dx = WRAPPED(xa[sa] - xb[sb], 0);
            double dy = WRAPPED(xa[M + sa] - xb[M + sb], 1);
            double dz = WRAPPED(xa[2 * M + sa] - xb[2 * M + sb], 2);
            double r = dx * dx;
            r += dy * dy;
            r += dz * dz;
            r2[sa * M + sb] = r;
        }
}

/* The M x M tile (ia, jb): appends the fused key lo * stride + hi of
 * every atom pair within r2max, without a branch per slot. */
static int64_t tile(const struct layout *a, int64_t ia,
                    const struct layout *b, int64_t jb, const double *box,
                    int32_t wrap, double r2max, int diag, int64_t stride,
                    int64_t *out)
{
    const double *xa = a->x + 3 * M * ia, *xb = b->x + 3 * M * jb;
    double r2[M * M];
    switch (wrap) {
#define CASE(W)                                                             \
    case W:                                                                 \
        tile_r2(xa, xb, box, W, r2);                                        \
        break;
        CASE(0) CASE(1) CASE(2) CASE(3) CASE(4) CASE(5) CASE(6) CASE(7)
#undef CASE
    }
    static const uint8_t none[M];
    const int64_t *restrict ta = a->atoms + M * ia, *restrict tb = b->atoms + M * jb;
    const uint8_t *restrict za = a->bits ? a->bits + M * ia : none;
    const uint8_t *restrict zb = b->bits ? b->bits + M * jb : none;
    int64_t key[M * M];
    int64_t hit[M * M];
    for (int sa = 0; sa < M; sa++)
        for (int sb = 0; sb < M; sb++) {
            int64_t i = ta[sa], j = tb[sb];
            int64_t lo = i < j ? i : j, hi = i < j ? j : i;
            key[sa * M + sb] = lo * stride + hi;
            hit[sa * M + sb] = (r2[sa * M + sb] <= r2max)
                               & (!diag | (sb > sa))
                               & ((za[sa] & zb[sb]) == 0);
        }
    int64_t n = 0;
    if (!out) {
        for (int k = 0; k < M * M; k++)
            n += hit[k];
        return n;
    }
    for (int k = 0; k < M * M; k++) {
        out[n] = key[k];
        n += hit[k];
    }
    return n;
}

/*
 * Candidates and tiles of layout pair (a, b), for one a cluster in each
 * block of `step` from state[0] on, the k-th block's at offset k % step
 * (every a cluster when step is 1): the sample walks through the
 * positions in a column rather than locking onto one.  The fused keys of every atom pair within r2max go to
 * out[state[1]...] (with out NULL they are only counted there), and
 * state[2], state[3] count the enumerated candidates and the tiles
 * tested.  When a tile might not fit the cap-key buffer, the cluster in
 * progress is undone and the call returns with state[0] at it, so the
 * caller can grow the buffer and resume there; state[0] == a->n when the
 * search is complete.  `same` searches a layout against itself.
 */
void ps_cluster_pairs(const struct layout *a, const struct layout *b,
                      const struct windows *w, const double *box,
                      int32_t wrap, int32_t same, double lim2, double r2max,
                      int64_t stride, int64_t step, int64_t *out, int64_t cap,
                      int64_t *state)
{
    int64_t first[3], stop[3];
    int64_t niz = w->niz;
    int64_t n = state[1], cand = state[2], tiles = state[3];
    const int64_t start = state[0];
    for (int64_t k = 0, ia = start; ia < a->n; k++, ia = start + k * step + k % step) {
        int64_t n0 = n, cand0 = cand, tiles0 = tiles;
        for (int64_t kx = 0; kx < w->nix; kx++) {
            int64_t x0 = w->x0[ia * w->nix + kx], xn = w->xn[ia * w->nix + kx];
            for (int64_t ky = 0; ky < w->niy; ky++) {
                int64_t y0 = w->y0[ia * w->niy + ky];
                int64_t yn = w->yn[ia * w->niy + ky];
                for (int64_t cx = x0; cx < x0 + xn; cx++)
                    for (int64_t cy = y0; cy < y0 + yn; cy++) {
                        int64_t col = cx * w->b_ny + cy;
                        /* Lower columns hold lower cluster indices only. */
                        if (same && col < a->col[ia])
                            continue;
                        double base = (double)col * w->zband;
                        int64_t s = w->band[col], e = w->band[col + 1];
                        for (int64_t k = 0; k < niz; k++) {
                            first[k] = first_not_below(
                                w->key_hi, b->n, s, e, base + w->qlo[ia * niz + k]);
                            stop[k] = first_above(
                                w->key_lo, b->n, s, e, base + w->qhi[ia * niz + k]);
                            if (same && first[k] < ia)
                                first[k] = ia;
                        }
                        for (int64_t k = 1; k < niz; k++) {
                            if (first[k] < stop[k - 1])
                                first[k] = stop[k - 1];
                            if (stop[k] < stop[k - 1])
                                stop[k] = stop[k - 1];
                        }
                        for (int64_t k = 0; k < niz; k++)
                            for (int64_t jb = first[k]; jb < stop[k]; jb++) {
                                cand++;
                                if (!boxes_meet(a, ia, b, jb, box, wrap, lim2))
                                    continue;
                                if (a->cut && (a->cut[ia] & b->cut[jb]))
                                    continue;
                                tiles++;
                                if (out && n + M * M > cap) {
                                    state[0] = ia;
                                    state[1] = n0;
                                    state[2] = cand0;
                                    state[3] = tiles0;
                                    return;
                                }
                                n += tile(a, ia, b, jb, box, wrap, r2max,
                                          same && ia == jb, stride,
                                          out ? out + n : 0);
                            }
                    }
            }
        }
    }
    state[0] = a->n;
    state[1] = n;
    state[2] = cand;
    state[3] = tiles;
}

/*
 * The drift guard: true when some row of pos[:rows] lies more than
 * sqrt(lim2) from its row of ref, or its distance is NaN.
 * lim2 is rounded to the positions' dtype first, as NumPy compares a
 * float32 maximum with a Python float.  D1, D2 are the second and third
 * dimension in einsum's order.
 */
#define DEFINE_DRIFTED(T, S, D1, D2)                                        \
    bool ps_drifted_##S(const T *pos, const T *ref, int64_t rows,           \
                        double lim2)                                        \
    {                                                                       \
        const T lim = (T)lim2;                                              \
        for (int64_t k = 0; k < 3 * rows; k += 3) {                         \
            T d[3] = {pos[k] - ref[k], pos[k + 1] - ref[k + 1],             \
                      pos[k + 2] - ref[k + 2]};                             \
            T r = d[0] * d[0];                                              \
            T t = d[D1] * d[D1];                                            \
            r += t;                                                         \
            t = d[D2] * d[D2];                                              \
            r += t;                                                         \
            if (!(r <= lim))                                                \
                return true;                                                \
        }                                                                   \
        return false;                                                       \
    }

DEFINE_DRIFTED(double, f64, 2, 1)
DEFINE_DRIFTED(float, f32, 1, 2)

/* The group key of pair (i, j): the later pulse that delivered either. */
static inline int64_t group_key(const int32_t *src, int32_t i, int32_t j)
{
    if (!src)
        return 0;
    return src[i] > src[j] ? src[i] : src[j];
}

/* keep[k] = r^2 <= r2max for the m pairs; inlined with a constant `wrap`
 * at each call in ps_prune_count, so every case is branch-free. */
#define DEFINE_KEEP(T, S)                                                   \
    static inline __attribute__((always_inline)) void keep_##S(            \
        const T *restrict pos, const int32_t *restrict pi,                  \
        const int32_t *restrict pj, int64_t m, const double *restrict box,  \
        int32_t wrap, double r2max, uint8_t *restrict keep)                 \
    {                                                                       \
        for (int64_t k = 0; k < m; k++) {                                   \
            const T *a = pos + 3 * (int64_t)pi[k];                          \
            const T *b = pos + 3 * (int64_t)pj[k];                          \
            double dx = WRAPPED((double)a[0] - (double)b[0], 0);            \
            double dy = WRAPPED((double)a[1] - (double)b[1], 1);            \
            double dz = WRAPPED((double)a[2] - (double)b[2], 2);            \
            double r = dx * dx;                                             \
            r += dy * dy;                                                   \
            r += dz * dz;                                                   \
            keep[k] = r <= r2max;                                           \
        }                                                                   \
    }

#define KEEP_CASE(S, W)                                                     \
    case W:                                                                 \
        keep_##S(pos, pi, pj, m, box, W, r2max, keep);                      \
        break;
#define KEEP_CASES(S)                                                       \
    KEEP_CASE(S, 0) KEEP_CASE(S, 1) KEEP_CASE(S, 2) KEEP_CASE(S, 3)         \
    KEEP_CASE(S, 4) KEEP_CASE(S, 5) KEEP_CASE(S, 6) KEEP_CASE(S, 7)

/*
 * The re-prune, counting pass: keep[k] = 1 when outer pair k lies within
 * sqrt(r2max) at the (n, 3) positions, read as float64; bit d of `wrap`
 * takes the minimum image along d.  counts[0] gets the kept pairs and
 * counts[1] the segments of the block they make: a segment starts at the
 * first kept pair and wherever i or the group key max(src[i], src[j])
 * (0 with src NULL) changes from the kept pair before; counts[2] gets
 * one past the last kept pair.  Returns -1, with nothing counted, when an
 * index lies outside [0, n).
 */
#define DEFINE_PRUNE_COUNT(T, S)                                            \
    DEFINE_KEEP(T, S)                                                       \
    int32_t ps_prune_count_##S(const T *pos, int64_t n, const int32_t *pi,  \
                               const int32_t *pj, int64_t m,                \
                               const double *box, int32_t wrap,             \
                               double r2max, const int32_t *src,            \
                               uint8_t *keep, int64_t *counts)              \
    {                                                                       \
        int bad = 0;                                                        \
        for (int64_t k = 0; k < m; k++)                                     \
            bad |= (pi[k] < 0) | (pi[k] >= n) | (pj[k] < 0) | (pj[k] >= n); \
        if (bad)                                                            \
            return -1;                                                      \
        switch (wrap) {                                                     \
        KEEP_CASES(S)                                                       \
        }                                                                   \
        int64_t kept = 0, segs = 0, end = 0, last_i = -1, last_key = 0;     \
        for (int64_t k = 0; k < m; k++) {                                   \
            int64_t i = pi[k], key = group_key(src, pi[k], pj[k]);          \
            int64_t in = keep[k];                                           \
            segs += in & ((i != last_i) | (key != last_key));               \
            kept += in;                                                     \
            end = in ? k + 1 : end;                                         \
            last_i = in ? i : last_i;                                       \
            last_key = in ? key : last_key;                                 \
        }                                                                   \
        counts[0] = kept;                                                   \
        counts[1] = segs;                                                   \
        counts[2] = end;                                                    \
        return 0;                                                           \
    }

DEFINE_PRUNE_COUNT(double, f64)
DEFINE_PRUNE_COUNT(float, f32)

/*
 * The re-prune, fill pass: the kept pairs of ps_prune_count's mask, in
 * outer order, as the seven arrays of a PairBlock sized from its
 * counts: i and j (int64), the segment starts and each segment's i, and
 * per pair c6 and c12 from the flat (n_types * n_types) tables at
 * type_i * n_types + type_j and qq = (coulomb * q_i) * q_j.  `end` is
 * counts[2]: up to the last kept pair every pair is written at the next
 * free slot, without a branch, and only a kept one takes it.
 */
void ps_prune_fill(const int32_t *pi, const int32_t *pj, int64_t end,
                   const uint8_t *keep, const int32_t *src,
                   const int32_t *types, int64_t n_types, const double *c6_tab,
                   const double *c12_tab, const double *charges,
                   double coulomb, int64_t *oi, int64_t *oj,
                   int64_t *seg_starts, int64_t *seg_i, double *c6,
                   double *c12, double *qq)
{
    int64_t kept = 0, segs = 0, last_i = -1, last_key = 0;
    for (int64_t k = 0; k < end; k++) {
        int64_t i = pi[k], j = pj[k], key = group_key(src, pi[k], pj[k]);
        if (keep[k] & ((i != last_i) | (key != last_key))) {
            seg_starts[segs] = kept;
            seg_i[segs++] = i;
            last_i = i;
            last_key = key;
        }
        int64_t t = (int64_t)types[i] * n_types + types[j];
        oi[kept] = i;
        oj[kept] = j;
        c6[kept] = c6_tab[t];
        c12[kept] = c12_tab[t];
        qq[kept] = (coulomb * charges[i]) * charges[j];
        kept += keep[k];
    }
}
