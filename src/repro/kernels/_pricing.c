/* Compiled Eq. 5 pricing and prefix-sum kernels.
 *
 * Every routine reproduces a NumPy reference bit for bit:
 *
 *   repro_pairwise_sum    ndarray.sum() of a contiguous float64 buffer
 *                         (NumPy's pairwise summation: plain pairwise over
 *                         n, 8-way unrolled leaves of at most 128 items,
 *                         added to a 0.0 initial value);
 *   repro_price_bands     the per-candidate loop of
 *                         KernelBackend.clamped_band_sums;
 *   repro_cost_integral   np.maximum(field, 0.0) followed by np.cumsum
 *                         along axis 0, then along axis 1;
 *   repro_active_integral (field > threshold) followed by the same two
 *                         cumsums, in int32.
 *
 * Bit-identity needs IEEE double arithmetic evaluated in source order:
 * build with -O2 -ffp-contract=off and never with -ffast-math.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define PW_BLOCKSIZE 128

static double pairwise(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.;
        for (ptrdiff_t i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        ptrdiff_t i;
        for (int j = 0; j < 8; j++) {
            r[j] = a[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0];
            r[1] += a[i + 1];
            r[2] += a[i + 2];
            r[3] += a[i + 3];
            r[4] += a[i + 4];
            r[5] += a[i + 5];
            r[6] += a[i + 6];
            r[7] += a[i + 7];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    /* Halve, keeping the first part a multiple of the unroll factor. */
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

double repro_pairwise_sum(const double *a, ptrdiff_t n)
{
    return 0. + pairwise(a, n);
}

/* np.maximum(v, 0.0): NaN propagates and -0.0 becomes +0.0.  Written
 * as a select on a NaN test so gcc emits it without branches (the sign
 * of base is unpredictable pixel to pixel). */
static inline double clamp0(double v)
{
    const double r = v > 0. ? v : 0.;
    return v != v ? v : r;
}

/* Sub-range [lo, hi) of a non-decreasing prefix-count vector cum[0..n]
 * holding every increment: lo is the last index equal to cum[0], hi the
 * first index equal to cum[n] (the two searchsorted calls of the
 * KernelBackend.clamped_band_sums crop). */
static void active_span(const int32_t *cum, ptrdiff_t n,
                        ptrdiff_t *lo, ptrdiff_t *hi)
{
    ptrdiff_t a = 0;
    while (a < n && cum[a + 1] == cum[0]) {
        a++;
    }
    ptrdiff_t b = n;
    while (b > 0 && cum[b - 1] == cum[n]) {
        b--;
    }
    *lo = a;
    *hi = b;
}

/* Eq. 5 delta-cost of a batch of separable edge-move candidates.
 *
 * Candidate i covers the grid window win[4i..4i+3] = (y0, y1, x0, x1).
 * Its patch is the outer product of a row factor (y1 - y0 entries of
 * row_vals) and a column factor (x1 - x0 entries of col_vals); the
 * factors are laid out candidate-major, back to back.  The window is
 * cropped to the bounding box of its active pixels (from the int32
 * prefix counts `active`), the cropped patch scored as
 * max(row * col * sign + base, 0) in C order and pairwise-summed, and
 * the current cost of the cropped window, read from the float64 prefix
 * sums `cost` in ((A - B) - C) + D corner order, subtracted.  A window
 * without active pixels scores 0.0 against the all-zero corner.
 *
 * sign and base are ny x nx, active and cost (ny + 1) x (nx + 1), all
 * C-contiguous.  Returns 0, or -1 when the scratch allocation fails.
 */
int repro_price_bands(
    ptrdiff_t ncand, const int64_t *win,
    const double *row_vals, const double *col_vals,
    const double *sign, const double *base, ptrdiff_t nx,
    const int32_t *active, const double *cost,
    double *out)
{
    const ptrdiff_t nx1 = nx + 1;
    ptrdiff_t max_px = 1, max_side = 0;
    for (ptrdiff_t i = 0; i < ncand; i++) {
        const ptrdiff_t h = win[4 * i + 1] - win[4 * i];
        const ptrdiff_t w = win[4 * i + 3] - win[4 * i + 2];
        if (h * w > max_px) {
            max_px = h * w;
        }
        if (h > max_side) {
            max_side = h;
        }
        if (w > max_side) {
            max_side = w;
        }
    }
    double *scratch = malloc((size_t)max_px * sizeof(double));
    int32_t *cum = malloc((size_t)(max_side + 1) * sizeof(int32_t));
    if (scratch == NULL || cum == NULL) {
        free(scratch);
        free(cum);
        return -1;
    }
    ptrdiff_t row_off = 0, col_off = 0;
    for (ptrdiff_t i = 0; i < ncand; i++) {
        const ptrdiff_t y0 = win[4 * i], y1 = win[4 * i + 1];
        const ptrdiff_t x0 = win[4 * i + 2], x1 = win[4 * i + 3];
        const ptrdiff_t h = y1 - y0, w = x1 - x0;
        const double *rows = row_vals + row_off;
        const double *cols = col_vals + col_off;
        row_off += h;
        col_off += w;
        for (ptrdiff_t k = 0; k <= h; k++) {
            cum[k] = active[(y0 + k) * nx1 + x1] - active[(y0 + k) * nx1 + x0];
        }
        if (cum[h] == cum[0]) {
            const double c00 = cost[0];
            out[i] = 0. - (((c00 - c00) - c00) + c00);
            continue;
        }
        ptrdiff_t r0, r1, c0, c1;
        active_span(cum, h, &r0, &r1);
        for (ptrdiff_t k = 0; k <= w; k++) {
            cum[k] = active[y1 * nx1 + x0 + k] - active[y0 * nx1 + x0 + k];
        }
        active_span(cum, w, &c0, &c1);
        double *v = scratch;
        for (ptrdiff_t r = r0; r < r1; r++) {
            const double rv = rows[r];
            const ptrdiff_t at = (y0 + r) * nx + x0;
            for (ptrdiff_t c = c0; c < c1; c++) {
                double p = rv * cols[c];
                p = p * sign[at + c];
                p = p + base[at + c];
                *v++ = clamp0(p);
            }
        }
        const double new_cost = 0. + pairwise(scratch, (r1 - r0) * (c1 - c0));
        const ptrdiff_t wr0 = y0 + r0, wr1 = y0 + r1;
        const ptrdiff_t wc0 = x0 + c0, wc1 = x0 + c1;
        const double old_cost = ((cost[wr1 * nx1 + wc1] - cost[wr0 * nx1 + wc1])
                                 - cost[wr1 * nx1 + wc0]) + cost[wr0 * nx1 + wc0];
        out[i] = new_cost - old_cost;
    }
    free(scratch);
    free(cum);
    return 0;
}

/* Prefix sums of max(field, 0) over the box [r0, r1) x [c0, c1) of an
 * ny x nx field, written to integral[y + 1, x + 1] of the
 * (ny + 1) x (nx + 1) output; nothing outside the box is touched.
 * Column sums accumulate down the rows first, then each row accumulates
 * left to right, matching two sequential np.cumsum passes.  Returns 0,
 * or -1 when the scratch allocation fails. */
int repro_cost_integral(
    const double *field, ptrdiff_t nx,
    ptrdiff_t r0, ptrdiff_t r1, ptrdiff_t c0, ptrdiff_t c1,
    double *integral)
{
    const ptrdiff_t w = c1 - c0, nx1 = nx + 1;
    if (r1 <= r0 || w <= 0) {
        return 0;
    }
    double *colsum = malloc((size_t)w * sizeof(double));
    if (colsum == NULL) {
        return -1;
    }
    for (ptrdiff_t y = r0; y < r1; y++) {
        const double *src = field + y * nx + c0;
        double *dst = integral + (y + 1) * nx1 + c0 + 1;
        for (ptrdiff_t x = 0; x < w; x++) {
            const double v = clamp0(src[x]);
            colsum[x] = (y == r0) ? v : colsum[x] + v;
        }
        double run = colsum[0];
        dst[0] = run;
        for (ptrdiff_t x = 1; x < w; x++) {
            run = run + colsum[x];
            dst[x] = run;
        }
    }
    free(colsum);
    return 0;
}

/* Prefix counts of (field > threshold) over the box, laid out like
 * repro_cost_integral's output but in int32. */
int repro_active_integral(
    const double *field, ptrdiff_t nx,
    ptrdiff_t r0, ptrdiff_t r1, ptrdiff_t c0, ptrdiff_t c1,
    double threshold, int32_t *integral)
{
    const ptrdiff_t w = c1 - c0, nx1 = nx + 1;
    if (r1 <= r0 || w <= 0) {
        return 0;
    }
    int32_t *colsum = malloc((size_t)w * sizeof(int32_t));
    if (colsum == NULL) {
        return -1;
    }
    for (ptrdiff_t y = r0; y < r1; y++) {
        const double *src = field + y * nx + c0;
        int32_t *dst = integral + (y + 1) * nx1 + c0 + 1;
        for (ptrdiff_t x = 0; x < w; x++) {
            const int32_t v = src[x] > threshold;
            colsum[x] = (y == r0) ? v : colsum[x] + v;
        }
        int32_t run = colsum[0];
        dst[0] = run;
        for (ptrdiff_t x = 1; x < w; x++) {
            run += colsum[x];
            dst[x] = run;
        }
    }
    free(colsum);
    return 0;
}
