/* One step of kpplab.kppsolve.march_runs, compiled and loaded by
 * kpplab._kernel.
 *
 * The K runs' fields lie end to end in one vector; run r holds the entries
 * [bounds[r], bounds[r + 1]).  kpp_step reads the field u at step k and
 * writes the next one into out (a different buffer):
 *
 *   reaction  v = u + (rate u)(1 - u), rate = dt a_r at the step's midpoint;
 *   upwind    v[i] + nu (v[i + 1] - v[i]) on every node but a run's last
 *             (moving frame only: nus is NULL in the fixed frame);
 *   halving   of each run's first and last entry;
 *   solve     L D L^T x = b with LAPACK dpttrf's factor (d, e) of the
 *             stacked diffusion matrix, by the two sweeps of LAPACK dptts2
 *             over the whole vector (e is 0 between runs);
 *   flush     x = 0 where |x| < DBL_MIN, after the solve.
 *
 * It returns the largest entry of out, NaN when out holds a NaN (as
 * numpy's ndarray.max).  Each entry is made by the same floating-point
 * operations, in the same order, as numpy's elementwise calls and
 * LAPACK's dptts2, so the result is bitwise theirs.  That holds only while
 * the compiler fuses no multiply and add, hence -ffp-contract=off.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>

struct kpp_march {
    ptrdiff_t runs;            /* K */
    ptrdiff_t steps;           /* row length of rates and nus */
    const ptrdiff_t *bounds;   /* K + 1 offsets of the runs in the vector */
    const double *rates;       /* rates[r * steps + k]: dt a_r(t_k + dt / 2) */
    const double *nus;         /* the runs' upwind Courant numbers, laid out
                                  as rates; NULL in the fixed frame */
    const double *d, *e;       /* dpttrf's D (n entries) and L (n - 1) */
};

static double react(double u, double rate)
{
    return u + (rate * u) * (1.0 - u);
}

double kpp_step(const struct kpp_march *m, ptrdiff_t k, const double *u,
                double *out)
{
    const double *d = m->d, *e = m->e;
    const ptrdiff_t n = m->bounds[m->runs];
    double b, prev = 0.0, x, top;
    ptrdiff_t i;

    /* forward sweep (solve L y = b), b made node by node; out[i] gets
       y[i] / d[i], the first operation of dptts2's backward sweep */
    for (ptrdiff_t r = 0; r < m->runs; r++) {
        const ptrdiff_t lo = m->bounds[r], hi = m->bounds[r + 1];
        const double rate = m->rates[r * m->steps + k];
        const double nu = m->nus ? m->nus[r * m->steps + k] : 0.0;
        double v = react(u[lo], rate);
        for (i = lo; i < hi; i++) {
            if (i + 1 < hi) {
                const double w = react(u[i + 1], rate);
                b = m->nus ? v + nu * (w - v) : v;
                v = w;
            } else {
                b = v;           /* zero-gradient inflow at the last node */
            }
            if (i == lo || i + 1 == hi)
                b *= 0.5;
            if (i > 0)
                b = b - prev * e[i - 1];
            prev = b;
            out[i] = b / d[i];
        }
    }

    /* backward sweep (solve D L^T x = y) on the unflushed x[i + 1], then
       the flush and the maximum of the flushed entries */
    x = out[n - 1];
    out[n - 1] = top = fabs(x) < DBL_MIN ? 0.0 : x;
    for (i = n - 2; i >= 0; i--) {
        x = out[i] - x * e[i];
        const double y = fabs(x) < DBL_MIN ? 0.0 : x;
        out[i] = y;
        if (y > top || y != y)
            top = y;
    }
    return top;
}
