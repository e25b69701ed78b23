/*
 * The rank-local pair search and the dual list's rank passes, compiled:
 * one rank's whole M x N cluster-pair search (grid bounds, cluster
 * layouts, candidate enumeration, the M x N tile test, the sorted and
 * pulse-partitioned outer lists), the drift guard and the re-prune of an
 * outer list into an inner block.  repro.md.native builds this file into
 * the same library as nonbonded.c; repro.md.kernels.build_split,
 * repro.md.nonbonded.drift_guard and repro.md.nonbonded.PairBlock.pruned
 * call it through ctypes.
 *
 * It reproduces the NumPy it replaced exactly (tests/test_native.py holds
 * it there): the lists, offsets and candidate and tile counts of the
 * build_split composition in tests/oracles.py (CellGrid.for_rank,
 * build_clusters, _search_windows, cluster_pair_candidates, the cluster
 * zone cut, cluster_tile_pairs, the key sort and _pulse_partition); the
 * guard's einsum test; the mask of repro.md.nonbonded.within_radius and
 * the arrays PairBlock.__init__ makes of the pairs it keeps.  That fixes
 * the arithmetic below:
 *
 *   - grid bounds are min - 1e-9 and max + 1e-9 of the rank's rows (0 and
 *     L along periodic dimensions), hi raised to lo + r_list;
 *   - a layout's column side is pow(M / max(rho, 1e-12), 1/3), the libm
 *     pow Python's ** calls, columns rint(ext / side) (half to even, as
 *     round()); a coordinate's column is (x - lo) / ext * n truncated and
 *     clipped to [0, n); rows are ordered by column, then z, then index;
 *   - a bounding box is the min and max of its atoms, stored as
 *     0.5 * (hi + lo) and 0.5 * (hi - lo), and searched as center -/+ half;
 *   - z windows are binary searches on the keys col * zband + face offset,
 *     with the query (col * zband) + q and the images made disjoint after
 *     the `same` floor;
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
#include <stdlib.h>
#include <string.h>

/* Atoms per cluster: repro.md.cells.CLUSTER_M. */
#define M 4

/*
 * The first index of a sorted, NaN-free key of n entries that is not
 * below v (side="left") / is above v (side="right"), searched first in
 * [s, e), the column band the query falls in: the entries beside the band
 * widen it only when they show the answer lies outside, so the result is
 * the whole array's.
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

/* -- the rank search ------------------------------------------------------- */

/* A cluster layout of a rank's home or halo rows, as built and searched. */
struct layout {
    int64_t n;              /* clusters */
    int64_t nx, ny;         /* columns along x and y */
    double lo[3], ext[3];   /* the binning's origin and extent */
    double *x;              /* (n, 3, M) slot coordinates, NaN in padding */
    int32_t *atoms;         /* (n, M) rows; the rank's row count in padding */
    double *center, *half;  /* (n, 3) bounding-box midpoints, half extents */
    int64_t *col;           /* (n,) column of each cluster */
    uint8_t *bits;          /* (n, M) zone bits per slot (0 in padding), or NULL */
    uint8_t *cut;           /* (n,) zone bits every slot carries, or NULL */
    /* Searched as b: the span of the boxes and each cluster's z keys. */
    double bmin[3], bmax[3], zspan, zband;
    double *key_hi, *key_lo; /* (n,) col * zband + top / bottom face offset */
    int64_t *band;          /* (nx * ny + 1,) first cluster of each column */
};

/* One rank's search, from ps_rank_search to ps_rank_fill. */
struct search {
    int64_t n, groups;         /* rows, pulse groups */
    const int32_t *src;        /* pulse per row, or NULL */
    struct layout home, halo;
    int32_t *pairs;            /* (i, j) with i < j, interleaved, local first */
    int64_t n_pairs, cap, n_local;
    int64_t candidates, tiles;
    int64_t cells, live, peak; /* layout bytes; transient bytes, their peak */
};

/* malloc with the transient (or, for `cells`, the layout) bytes counted. */
static void *take(struct search *s, int64_t bytes, bool cells)
{
    void *p = malloc(bytes > 0 ? (size_t)bytes : 1);
    if (!p)
        return NULL;
    if (cells) {
        s->cells += bytes;
    } else {
        s->live += bytes;
        s->peak = s->live > s->peak ? s->live : s->peak;
    }
    return p;
}

static void give(struct search *s, void *p, int64_t bytes)
{
    if (p)
        s->live -= bytes;
    free(p);
}

static void free_layout(struct layout *L)
{
    void *all[] = {L->x, L->atoms, L->center, L->half, L->col, L->bits,
                   L->cut, L->key_hi, L->key_lo, L->band};
    for (size_t k = 0; k < sizeof all / sizeof *all; k++)
        free(all[k]);
    memset(L, 0, sizeof *L);
}

static void free_search(struct search *s)
{
    if (!s)
        return;
    free_layout(&s->home);
    free_layout(&s->halo);
    free(s->pairs);
    free(s);
}

/* The column of coordinate x among n over [lo, lo + ext): truncated, then
 * clipped, so it is monotone in x wherever the bounds lie. */
static inline int64_t column_bin(double x, double lo, double ext, int64_t n)
{
    double v = (x - lo) / ext * (double)n;
    if (!(v >= 0.0))
        return 0;
    if (v >= (double)n)
        return n - 1;
    return (int64_t)v;
}

/* Stable sort of rows by z, ties in their given order; tmp holds k rows. */
static void sort_by_z(int32_t *rows, int64_t k, const double *pos,
                      int32_t *tmp)
{
    if (k <= 16) {
        for (int64_t a = 1; a < k; a++) {
            int32_t r = rows[a];
            double z = pos[3 * (int64_t)r + 2];
            int64_t b = a;
            for (; b > 0 && z < pos[3 * (int64_t)rows[b - 1] + 2]; b--)
                rows[b] = rows[b - 1];
            rows[b] = r;
        }
        return;
    }
    int64_t h = k / 2;
    sort_by_z(rows, h, pos, tmp);
    sort_by_z(rows + h, k - h, pos, tmp);
    int64_t a = 0, b = h, o = 0;
    while (a < h && b < k)
        tmp[o++] = pos[3 * (int64_t)rows[b] + 2] < pos[3 * (int64_t)rows[a] + 2]
                       ? rows[b++] : rows[a++];
    while (a < h)
        tmp[o++] = rows[a++];
    memcpy(rows, tmp, (size_t)o * sizeof *rows);
}

/*
 * The clusters of rows [first, first + k) over the grid [lo, hi):
 * columns sized for M-atom cubes at the rows' density, rows ordered by
 * column, z and index, M consecutive rows per cluster, each column's last
 * cluster padded; then the bounding boxes and, to be searched as b, the
 * keys.  `zbits` (per row) gives the slots' zone bits and the cut.
 */
static int build_layout(struct search *s, struct layout *L, const double *pos,
                        int64_t first, int64_t k, const double *lo,
                        const double *hi, const uint8_t *zbits)
{
    for (int d = 0; d < 3; d++) {
        double e = hi[d] - lo[d];
        L->lo[d] = lo[d];
        L->ext[d] = e < 1e-9 ? 1e-9 : e;
    }
    double rho = (double)k / ((L->ext[0] * L->ext[1]) * L->ext[2]);
    double side = pow((double)M / (1e-12 > rho ? 1e-12 : rho), 1.0 / 3.0);
    L->nx = (int64_t)rint(L->ext[0] / side);
    L->ny = (int64_t)rint(L->ext[1] / side);
    L->nx = L->nx < 1 ? 1 : L->nx;
    L->ny = L->ny < 1 ? 1 : L->ny;
    int64_t ncol = L->nx * L->ny;
    const double *p = pos + 3 * first;

    /* Rows by column (a counting sort), then by z within each column. */
    int status = -1;
    int64_t *start = take(s, (ncol + 1) * 8, false);
    int64_t *colof = take(s, k * 8, false);
    int32_t *order = take(s, k * 4, false), *tmp = take(s, k * 4, false);
    if (!start || !colof || !order || !tmp)
        goto done;
    memset(start, 0, (size_t)(ncol + 1) * 8);
    for (int64_t r = 0; r < k; r++) {
        int64_t cx = column_bin(p[3 * r], L->lo[0], L->ext[0], L->nx);
        int64_t cy = column_bin(p[3 * r + 1], L->lo[1], L->ext[1], L->ny);
        colof[r] = cx * L->ny + cy;
        start[colof[r] + 1]++;
    }
    L->n = 0;
    for (int64_t c = 0; c < ncol; c++) {
        L->n += (start[c + 1] + M - 1) / M;
        start[c + 1] += start[c];
    }
    for (int64_t r = 0; r < k; r++)
        order[start[colof[r]]++] = (int32_t)r;
    for (int64_t c = ncol; c > 0; c--)
        start[c] = start[c - 1];
    start[0] = 0;
    for (int64_t c = 0; c < ncol; c++)
        sort_by_z(order + start[c], start[c + 1] - start[c], p, tmp);

    int64_t n = L->n;
    L->x = take(s, n * 3 * M * 8, true);
    L->atoms = take(s, n * M * 4, true);
    L->center = take(s, n * 3 * 8, true);
    L->half = take(s, n * 3 * 8, true);
    L->col = take(s, n * 8, true);
    L->key_hi = take(s, n * 8, true);
    L->key_lo = take(s, n * 8, true);
    L->band = take(s, (ncol + 1) * 8, true);
    if (zbits) {
        L->bits = take(s, n * M, true);
        L->cut = take(s, n, true);
    }
    if (!L->x || !L->atoms || !L->center || !L->half || !L->col || !L->key_hi
        || !L->key_lo || !L->band || (zbits && (!L->bits || !L->cut)))
        goto done;

    int64_t c = 0;
    for (int64_t cl = 0; cl < ncol; cl++) {
        L->band[cl] = c;
        for (int64_t o = start[cl]; o < start[cl + 1]; o += M, c++) {
            double bhi[3] = {-INFINITY, -INFINITY, -INFINITY};
            double blo[3] = {INFINITY, INFINITY, INFINITY};
            uint8_t cut = 0xff;
            L->col[c] = cl;
            for (int sl = 0; sl < M; sl++) {
                bool valid = o + sl < start[cl + 1];
                int64_t r = valid ? order[o + sl] : 0;
                L->atoms[M * c + sl] = valid ? (int32_t)(first + r) : (int32_t)s->n;
                for (int d = 0; d < 3; d++) {
                    double v = valid ? p[3 * r + d] : NAN;
                    L->x[(3 * c + d) * M + sl] = v;
                    if (valid) {
                        bhi[d] = v > bhi[d] ? v : bhi[d];
                        blo[d] = v < blo[d] ? v : blo[d];
                    }
                }
                if (zbits) {
                    uint8_t b = valid ? zbits[first + r] : 0;
                    L->bits[M * c + sl] = b;
                    cut &= valid ? b : 7;
                }
            }
            if (zbits)
                L->cut[c] = cut;
            for (int d = 0; d < 3; d++) {
                L->center[3 * c + d] = 0.5 * (bhi[d] + blo[d]);
                L->half[3 * c + d] = 0.5 * (bhi[d] - blo[d]);
            }
        }
    }
    L->band[ncol] = c;

    /* As b: z offsets from the lowest face, so 0 <= offset <= zspan and a
     * clamped query never leaves its column's band of the key. */
    for (int d = 0; d < 3; d++) {
        L->bmin[d] = INFINITY;
        L->bmax[d] = -INFINITY;
    }
    for (int64_t cl = 0; cl < n; cl++)
        for (int d = 0; d < 3; d++) {
            double blo = L->center[3 * cl + d] - L->half[3 * cl + d];
            double bhi = L->center[3 * cl + d] + L->half[3 * cl + d];
            L->bmin[d] = blo < L->bmin[d] ? blo : L->bmin[d];
            L->bmax[d] = bhi > L->bmax[d] ? bhi : L->bmax[d];
        }
    L->zspan = L->bmax[2] - L->bmin[2];
    L->zband = L->zspan + 2.0;
    for (int64_t cl = 0; cl < n; cl++) {
        double band = (double)L->col[cl] * L->zband;
        double blo = L->center[3 * cl + 2] - L->half[3 * cl + 2];
        double bhi = L->center[3 * cl + 2] + L->half[3 * cl + 2];
        L->key_hi[cl] = band + (bhi - L->bmin[2]);
        L->key_lo[cl] = band + (blo - L->bmin[2]);
    }
    status = 0;
done:
    give(s, start, (ncol + 1) * 8);
    give(s, colof, k * 8);
    give(s, order, k * 4);
    give(s, tmp, k * 4);
    return status;
}

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

/* The M x M tile (ia, jb): appends (min, max) of every atom pair within
 * r2max to out, without a branch per slot; returns how many. */
static int64_t tile(const struct layout *a, int64_t ia,
                    const struct layout *b, int64_t jb, const double *box,
                    int32_t wrap, double r2max, int diag, int32_t *out)
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
    const int32_t *restrict ta = a->atoms + M * ia, *restrict tb = b->atoms + M * jb;
    const uint8_t *restrict za = a->bits ? a->bits + M * ia : none;
    const uint8_t *restrict zb = b->bits ? b->bits + M * jb : none;
    int64_t n = 0;
    for (int sa = 0; sa < M; sa++)
        for (int sb = 0; sb < M; sb++) {
            int32_t i = ta[sa], j = tb[sb];
            out[2 * n] = i < j ? i : j;
            out[2 * n + 1] = i < j ? j : i;
            n += (r2[sa * M + sb] <= r2max) & (!diag | (sb > sa))
                 & ((za[sa] & zb[sb]) == 0);
        }
    return n;
}

/*
 * The column range along dimension d of b that meets a's window
 * [wlo, whi] in each of its images (three along a periodic dimension),
 * as first[k], count[k]: images rise with the shift and the binning is
 * monotone, so each range is cut where the previous one ended and a
 * window that wraps onto itself lists no column twice.  An image that
 * misses the span of b's boxes altogether is empty.
 */
static int column_windows(const struct layout *b, int d, double wlo,
                          double whi, const double *box, int32_t wrap,
                          int64_t *first, int64_t *count)
{
    int64_t nb = d ? b->ny : b->nx;
    int ni = wrap >> d & 1 ? 3 : 1;
    int64_t last[3];
    for (int k = 0; k < ni; k++) {
        double shift = ni == 3 ? box[d] * (double)(k - 1) : 0.0;
        double lo = wlo + shift, hi = whi + shift;
        first[k] = column_bin(lo, b->lo[d], b->ext[d], nb);
        last[k] = column_bin(hi, b->lo[d], b->ext[d], nb);
        if (hi < b->bmin[d] || lo > b->bmax[d])
            last[k] = -1;
        if (k) {
            first[k] = first[k] > last[k - 1] + 1 ? first[k] : last[k - 1] + 1;
            last[k] = last[k] > last[k - 1] ? last[k] : last[k - 1];
        }
    }
    for (int k = 0; k < ni; k++)
        count[k] = last[k] - first[k] + 1 > 0 ? last[k] - first[k] + 1 : 0;
    return ni;
}

/* Room in the pair buffer for one more tile, growing it by a quarter. */
static int room(struct search *s)
{
    if (s->n_pairs + M * M <= s->cap)
        return 0;
    int64_t cap = s->cap + s->cap / 4 + M * M;
    int32_t *grown = realloc(s->pairs, (size_t)cap * 8);
    if (!grown)
        return -1;
    s->live += (cap - s->cap) * 8;
    s->peak = s->live > s->peak ? s->live : s->peak;
    s->pairs = grown;
    s->cap = cap;
    return 0;
}

/*
 * Every atom pair within sqrt(r2max) of layout pair (a, b), appended to
 * the pair buffer: per a cluster, the columns of b its widened box meets
 * (with their images), the z range of each column by binary search, the
 * box test and the cluster zone cut, then the tile.  `same` searches a
 * layout against itself (each unordered pair once).
 */
static int search_pair(struct search *s, const struct layout *a,
                       const struct layout *b, const double *box,
                       int32_t wrap, int same, double r_list)
{
    if (a->n == 0 || b->n == 0)
        return 0;
    const double slack = r_list * 1.0001, lim2 = slack * slack;
    const double r2max = r_list * r_list;
    int64_t cand = 0, tiles = 0;
    for (int64_t ia = 0; ia < a->n; ia++) {
        double wlo[3], whi[3];
        for (int d = 0; d < 3; d++) {
            wlo[d] = (a->center[3 * ia + d] - a->half[3 * ia + d]) - slack;
            whi[d] = (a->center[3 * ia + d] + a->half[3 * ia + d]) + slack;
        }
        int64_t x0[3], xn[3], y0[3], yn[3];
        double qlo[3], qhi[3];
        int nix = column_windows(b, 0, wlo[0], whi[0], box, wrap, x0, xn);
        int niy = column_windows(b, 1, wlo[1], whi[1], box, wrap, y0, yn);
        int niz = wrap >> 2 & 1 ? 3 : 1;
        for (int k = 0; k < niz; k++) {
            double shift = niz == 3 ? box[2] * (double)(k - 1) : 0.0;
            double top = b->zspan + 1.0;
            double q = (wlo[2] + shift) - b->bmin[2];
            q = q > 0.0 ? q : 0.0;
            qlo[k] = q < top ? q : top;
            q = (whi[2] + shift) - b->bmin[2];
            q = q > -1.0 ? q : -1.0;
            qhi[k] = q < top ? q : top;
        }
        for (int kx = 0; kx < nix; kx++)
            for (int ky = 0; ky < niy; ky++)
                for (int64_t cx = x0[kx]; cx < x0[kx] + xn[kx]; cx++)
                    for (int64_t cy = y0[ky]; cy < y0[ky] + yn[ky]; cy++) {
                        int64_t col = cx * b->ny + cy;
                        /* Lower columns hold lower cluster indices only. */
                        if (same && col < a->col[ia])
                            continue;
                        double base = (double)col * b->zband;
                        int64_t lo = b->band[col], hi = b->band[col + 1];
                        int64_t first[3], stop[3];
                        for (int k = 0; k < niz; k++) {
                            first[k] = first_not_below(b->key_hi, b->n, lo, hi,
                                                       base + qlo[k]);
                            stop[k] = first_above(b->key_lo, b->n, lo, hi,
                                                  base + qhi[k]);
                            if (same && first[k] < ia)
                                first[k] = ia;
                        }
                        for (int k = 1; k < niz; k++) {
                            if (first[k] < stop[k - 1])
                                first[k] = stop[k - 1];
                            if (stop[k] < stop[k - 1])
                                stop[k] = stop[k - 1];
                        }
                        for (int k = 0; k < niz; k++)
                            for (int64_t jb = first[k]; jb < stop[k]; jb++) {
                                cand++;
                                if (!boxes_meet(a, ia, b, jb, box, wrap, lim2))
                                    continue;
                                if (a->cut && (a->cut[ia] & b->cut[jb]))
                                    continue;
                                tiles++;
                                if (room(s))
                                    return -1;
                                s->n_pairs += tile(a, ia, b, jb, box, wrap, r2max,
                                                   same && ia == jb,
                                                   s->pairs + 2 * s->n_pairs);
                            }
                    }
    }
    s->candidates += cand;
    s->tiles += tiles;
    return 0;
}

/* The pulse group of pair (i, j): 1 + the later pulse that delivered
 * either (0 when a home row's -1 is the later), 1 without pulses. */
static inline int64_t group_of(const int32_t *src, int32_t i, int32_t j)
{
    if (!src)
        return 1;
    return 1 + (src[i] > src[j] ? src[i] : src[j]);
}

/* What a counting sort orders pairs by: j, i, or (pulse group, i). */
enum order { BY_J, BY_I, BY_GROUP };

static inline int64_t order_key(enum order by, const int32_t *src, int64_t n,
                                int32_t i, int32_t j)
{
    return by == BY_J ? j : by == BY_I ? i : group_of(src, i, j) * n + i;
}

/* Stable counting sort of the m pairs (in_i[k * step], in_j[k * step]) by
 * a key in [0, range) into oi, oj; hist holds range + 1 counts, and is
 * left with hist[k] at the pairs whose keys are at most k. */
static void counting_sort(const int32_t *in_i, const int32_t *in_j,
                          int64_t step, int64_t m, enum order by,
                          const int32_t *src, int64_t n, int64_t range,
                          int64_t *hist, int32_t *oi, int32_t *oj)
{
    memset(hist, 0, (size_t)(range + 1) * sizeof *hist);
    for (int64_t k = 0; k < m; k++)
        hist[order_key(by, src, n, in_i[k * step], in_j[k * step]) + 1]++;
    for (int64_t r = 0; r < range; r++)
        hist[r + 1] += hist[r];
    for (int64_t k = 0; k < m; k++) {
        int32_t i = in_i[k * step], j = in_j[k * step];
        int64_t at = hist[order_key(by, src, n, i, j)]++;
        oi[at] = i;
        oj[at] = j;
    }
}

/*
 * One rank's search, first call: the rows pos (n, 3, float64; the first
 * n_home home, the rest halo) within r_list of each other under the
 * eighth-shell zone rule, as an outer list of home pairs and one of pairs
 * touching a halo row.
 *
 * The grid spans the rows along open dimensions and the box along periodic
 * ones (bit d of `wrap`); home and halo rows get separate cluster layouts,
 * so home-home tiles are the local list and home-halo plus halo-halo tiles
 * the non-local one.  Halo-halo tiles apply zone_bits (per row, may be
 * NULL): a pair is kept only when its atoms' bits are disjoint, and a
 * cluster pair is cut whole when the bits every slot of each carries
 * intersect.  Pairs go to a buffer of `capacity` pairs that grows by a
 * quarter when a tile might not fit, and shrinks to them at the end.
 *
 * counts gets the local and non-local pairs, the candidates enumerated,
 * the tiles tested, the layout bytes and the peak of the other bytes held;
 * *out the search, for ps_rank_fill.  Returns 0; -1 when a coordinate is
 * not finite, -2 when src (per row, may be NULL) holds a pulse outside
 * [-1, max(n_pulses, 1)), -3 when memory runs out; nothing is held then.
 */
int32_t ps_rank_search(const double *pos, int64_t n, int64_t n_home,
                       const double *box, int32_t wrap, double r_list,
                       const uint8_t *zone_bits, const int32_t *src,
                       int64_t n_pulses, int64_t capacity, int64_t *counts,
                       void **out)
{
    *out = NULL;
    int bad = 0;
    for (int64_t k = 0; k < 3 * n; k++)
        bad |= !isfinite(pos[k]);
    if (bad)
        return -1;
    int64_t groups = n_pulses > 1 ? n_pulses : 1;
    for (int64_t k = 0; src && k < n; k++)
        bad |= (src[k] < -1) | (src[k] >= groups);
    if (bad)
        return -2;
    struct search *s = calloc(1, sizeof *s);
    if (!s)
        return -3;
    s->n = n;
    s->groups = groups;
    s->src = src;

    /* The grid: the rows' extent along open dimensions, the box along
     * periodic ones, at least r_list wide. */
    double lo[3] = {0.0, 0.0, 0.0}, hi[3] = {0.0, 0.0, 0.0};
    for (int d = 0; d < 3; d++) {
        if (wrap >> d & 1) {
            hi[d] = box[d];
        } else if (n) {
            double mn = pos[d], mx = pos[d];
            for (int64_t k = 1; k < n; k++) {
                double v = pos[3 * k + d];
                mn = v < mn ? v : mn;
                mx = v > mx ? v : mx;
            }
            lo[d] = mn - 1e-9;
            hi[d] = mx + 1e-9;
        }
        double floor_ = lo[d] + r_list;
        hi[d] = hi[d] > floor_ ? hi[d] : floor_;
    }
    if (build_layout(s, &s->home, pos, 0, n_home, lo, hi, NULL)
        || build_layout(s, &s->halo, pos, n_home, n - n_home, lo, hi, zone_bits))
        goto fail;

    s->cap = capacity > 0 ? capacity : 0;
    s->pairs = take(s, s->cap * 8, false);
    if (!s->pairs)
        goto fail;
    if (search_pair(s, &s->home, &s->home, box, wrap, 1, r_list))
        goto fail;
    s->n_local = s->n_pairs;
    if (search_pair(s, &s->home, &s->halo, box, wrap, 0, r_list)
        || search_pair(s, &s->halo, &s->halo, box, wrap, 1, r_list))
        goto fail;

    /* The layouts go, and the buffer shrinks to its pairs; ps_rank_fill
     * sorts through it and a histogram over (pulse group, i). */
    free_layout(&s->home);
    free_layout(&s->halo);
    int32_t *exact = realloc(s->pairs, (size_t)(s->n_pairs > 0 ? s->n_pairs : 1) * 8);
    if (exact) {
        s->pairs = exact;
        s->live -= (s->cap - s->n_pairs) * 8;
        s->cap = s->n_pairs;
    }
    int64_t fill = s->live + ((s->groups + 1) * n + 1) * 8;
    s->peak = fill > s->peak ? fill : s->peak;

    counts[0] = s->n_local;
    counts[1] = s->n_pairs - s->n_local;
    counts[2] = s->candidates;
    counts[3] = s->tiles;
    counts[4] = s->cells;
    counts[5] = s->peak;
    *out = s;
    return 0;
fail:
    free_search(s);
    return -3;
}

/*
 * One rank's search, second call: the local pairs sorted by (i, j) into
 * li, lj and the non-local ones by (pulse group, i, j) into ni, nj (int32,
 * sized from ps_rank_search's counts), with offsets[p] (p = 0 ..
 * max(n_pulses, 1)) the non-local pairs whose later delivering pulse is
 * below p.  Two stable counting sorts, by j into the lists, then by i or
 * (group, i) back into the pair buffer, which is copied out.  Frees the
 * search; with li NULL it only frees it.  Returns 0, or -3 when memory
 * runs out (the search is freed then too).
 */
int32_t ps_rank_fill(void *handle, int32_t *li, int32_t *lj, int32_t *ni,
                     int32_t *nj, int64_t *offsets)
{
    struct search *s = handle;
    if (!li) {
        free_search(s);
        return 0;
    }
    int64_t n = s->n, range = (s->groups + 1) * n;
    int64_t *hist = malloc((size_t)(range + 1) * 8);
    if (!hist) {
        free_search(s);
        return -3;
    }
    int64_t m = s->n_pairs, nl = m - s->n_local, L = s->n_local;
    int32_t *p = s->pairs, *bi = p, *bj = p + m;
    counting_sort(p, p + 1, 2, L, BY_J, NULL, n, n, hist, li, lj);
    counting_sort(p + 2 * L, p + 2 * L + 1, 2, nl, BY_J, NULL, n, n, hist, ni, nj);
    counting_sort(li, lj, 1, L, BY_I, NULL, n, n, hist, bi, bj);
    counting_sort(ni, nj, 1, nl, BY_GROUP, s->src, n, range, hist, bi + L, bj + L);
    /* Those whose later pulse is below p have keys below (p + 1) * n. */
    for (int64_t g = 0; g <= s->groups; g++)
        offsets[g] = n ? hist[(g + 1) * n - 1] : 0;
    memcpy(li, bi, (size_t)L * 4);
    memcpy(lj, bj, (size_t)L * 4);
    memcpy(ni, bi + L, (size_t)nl * 4);
    memcpy(nj, bj + L, (size_t)nl * 4);
    free(hist);
    free_search(s);
    return 0;
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
 * counts[2].  The mask is read a block at a time into the indices of its
 * kept pairs, without a branch, and only those are gathered.
 */
void ps_prune_fill(const int32_t *pi, const int32_t *pj, int64_t end,
                   const uint8_t *keep, const int32_t *src,
                   const int32_t *types, int64_t n_types, const double *c6_tab,
                   const double *c12_tab, const double *charges,
                   double coulomb, int64_t *oi, int64_t *oj,
                   int64_t *seg_starts, int64_t *seg_i, double *c6,
                   double *c12, double *qq)
{
    enum { BLOCK = 256 };
    int64_t kept = 0, segs = 0, last_i = -1, last_key = 0;
    int64_t idx[BLOCK];
    for (int64_t k0 = 0; k0 < end; k0 += BLOCK) {
        int64_t stop = end - k0 < BLOCK ? end : k0 + BLOCK, m = 0;
        for (int64_t k = k0; k < stop; k++) {
            idx[m] = k;
            m += keep[k];
        }
        for (int64_t t = 0; t < m; t++) {
            int64_t k = idx[t];
            int64_t i = pi[k], j = pj[k], key = group_key(src, pi[k], pj[k]);
            if ((i != last_i) | (key != last_key)) {
                seg_starts[segs] = kept;
                seg_i[segs++] = i;
                last_i = i;
                last_key = key;
            }
            int64_t ty = (int64_t)types[i] * n_types + types[j];
            oi[kept] = i;
            oj[kept] = j;
            c6[kept] = c6_tab[ty];
            c12[kept] = c12_tab[ty];
            qq[kept] = (coulomb * charges[i]) * charges[j];
            kept++;
        }
    }
}
