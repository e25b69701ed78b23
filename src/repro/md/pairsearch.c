/*
 * The cluster pair search's hot stages, compiled: candidate enumeration,
 * the M x N tile test and the prune mask.  repro.md.native builds this
 * file into the same library as nonbonded.c; repro.md.cells.cluster_pairs
 * and repro.md.nonbonded.prune_mask call it through ctypes.
 *
 * It reproduces the NumPy oracles exactly (tests/test_native.py holds it
 * there): the pair set and the candidate and tile counts of
 * repro.md.cells.cluster_pair_candidates, the halo cluster cut and
 * cluster_tile_pairs, and the mask of repro.md.nonbonded.within_radius.
 * That fixes the arithmetic below:
 *
 *   - z windows are np.searchsorted on the keys the caller builds, with
 *     the query (col * zband) + q and the images made disjoint after the
 *     `same` floor, as cluster_pair_candidates does;
 *   - the box test is float64: |c_a - c_b|, min(g, L - g) along periodic
 *     dimensions, minus both half extents, max(g, 0)^2, summed
 *     (g_x + g_y) + g_z, kept when <= lim2;
 *   - a distance is dx = x_a - x_b per dimension, minimum image
 *     s = rint(dx / L); s *= L; dx -= s along a periodic one, and
 *     r^2 = (dx^2 + dy^2) + dz^2, kept when <= r2max (NaN fails).
 *
 * Build flags keep the arithmetic IEEE-exact: -ffp-contract=off (no FMA),
 * no -ffast-math, and -fno-math-errno only so rint inlines.
 */
#include <math.h>
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
 * Candidates and tiles of layout pair (a, b), for every step-th a cluster
 * from state[0] on: the fused keys of every atom pair within r2max go to
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
    for (int64_t ia = state[0]; ia < a->n; ia += step) {
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
 * The prune mask: keep[k] = |x[i[k]] - x[j[k]]|^2 <= r2max over float64
 * (n, 3) positions, indices clipped to [0, n - 1] as np.take's
 * mode="clip" does.  Bit d of `wrap` takes the minimum image along d.
 */
void ps_within_radius(const double *pos, int64_t n, const int32_t *pi,
                      const int32_t *pj, int64_t m, const double *box,
                      int32_t wrap, double r2max, uint8_t *keep)
{
    for (int64_t k = 0; k < m; k++) {
        int64_t i = pi[k] < 0 ? 0 : (pi[k] >= n ? n - 1 : pi[k]);
        int64_t j = pj[k] < 0 ? 0 : (pj[k] >= n ? n - 1 : pj[k]);
        const double *a = pos + 3 * i, *b = pos + 3 * j;
        double dx = WRAPPED(a[0] - b[0], 0);
        double dy = WRAPPED(a[1] - b[1], 1);
        double dz = WRAPPED(a[2] - b[2], 2);
        double r = dx * dx;
        r += dy * dy;
        r += dz * dz;
        keep[k] = r <= r2max;
    }
}
