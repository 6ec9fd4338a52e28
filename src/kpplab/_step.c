/* The compiled code of kpplab, loaded by kpplab._kernel: the steps of
 * kpplab.kppsolve.march_runs between two stored frames (kpp_steps, which
 * makes each one by kpp_step), and at the end of this file the
 * two recursions that set runs up, the diffusion factor (kpp_factor, as
 * LAPACK dpttrf) and the noise recursion (kpp_ar1, as the forward sweep of
 * LAPACK dgtts2), bitwise those routines under the same -ffp-contract=off
 * as the step.
 *
 * The K runs' fields lie end to end in one vector; run r holds the entries
 * [bounds[r], bounds[r + 1]), at least 3 of them.  kpp_step reads the
 * field u at step k and writes the next one into out (a different buffer):
 *
 *   reaction  v = u + (rate u)(1 - u), rate = dt a_r at the step's midpoint;
 *   upwind    v[i] + nu (v[i + 1] - v[i]) on every node but a run's last
 *             (moving frame only: nus is NULL in the fixed frame);
 *   halving   of each run's first and last entry;
 *   solve     L D L^T x = b with the factor (d, e) of the stacked diffusion
 *             matrix that kpp_factor gives, by the two sweeps of LAPACK
 *             dptts2 over each run's block (e is 0 between runs);
 *   flush     x = 0 where |x| < DBL_MIN, after the solve.
 *
 * It writes the largest entry of each run r of out into tops[r], NaN when
 * the run holds a NaN (as numpy's maximum.reduceat; the flush leaves no
 * -0.0 to tie with 0.0).  Each entry is made by the same floating-point
 * operations, in the same order, as numpy's elementwise calls and
 * LAPACK's dptts2 on the run alone, so the result is bitwise theirs.  That
 * holds only while the compiler fuses no multiply and add, hence
 * -ffp-contract=off.  On a finite field it is also dptts2 on the whole
 * vector, whose zero coupling between runs (b - prev * 0) changes at most
 * the sign of a zero, which the flush erases; a NaN or an overflow stays
 * in its own run here, where the coupling would carry it on as NaN.
 *
 * Each sweep is a chain of dependent multiplies and subtractions, and runs
 * share no chain, so the runs are swept in groups of up to GROUP that
 * advance together: node j of every run in the group before node j + 1,
 * over the group's shortest length, then the rest of each run alone.  The
 * chains' latencies then overlap instead of adding up.  K runs make
 * ceil(K / GROUP) groups whose sizes differ by at most 1 (5 runs sweep as
 * 3 + 2, not 4 + 1), since three lanes already hide about as much latency
 * as four.
 *
 * kpp_steps runs kpp_step from one stored frame to the next, so Python,
 * which holds the interpreter lock between calls, is not entered at every
 * step: ctypes releases the lock for the length of a call, and two marches
 * on two threads then overlap.  Before each step it reads every run's own
 * step gate, with the roundings of kpplab.kppsolve._check_step_bounds, and
 * it stops only before a step where one of them trips: there Python reads
 * the same gates and raises the first failing run's error.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>

#define GROUP 4                /* runs swept together (the unroll pragmas
                                  below name it as 4: they take no macro) */

struct kpp_march {
    ptrdiff_t runs;            /* K */
    ptrdiff_t steps;           /* row length of rates and nus */
    const ptrdiff_t *bounds;   /* K + 1 offsets of the runs in the vector */
    const double *rates;       /* rates[r * steps + k]: dt a_r(t_k + dt / 2) */
    const double *nus;         /* the runs' upwind Courant numbers, laid out
                                  as rates; NULL in the fixed frame */
    const double *d, *e;       /* kpp_factor's D (n entries) and L (n - 1) */
    const double *dta;         /* laid out as rates: dt sup a_r over step k,
                                  inf where run r's CFL gate trips */
    double limit;              /* the reaction gate's bound on
                                  dt sup a max(1, 2 sup u - 1) */
    double *spare[2];          /* two work buffers of the vector's length */
    const double *u;           /* the field at the step reached */
    double *tops;              /* its largest entry per run (NaN if the run
                                  holds one) */
};

/* what one step reads and writes; out is not u */
struct sweep {
    const double *u, *d, *e;
    double *out;
    int moving;                /* the march is in the moving frame */
};

static double react(double u, double rate)
{
    return u + (rate * u) * (1.0 - u);
}

/* the upwind update of the reacted v by its reacted right neighbour w */
static double upwind(const struct sweep *s, double v, double w, double nu)
{
    return s->moving ? v + nu * (w - v) : v;
}

static double flush(double x)
{
    return fabs(x) < DBL_MIN ? 0.0 : x;
}

static double sup(double top, double y)
{
    return y > top || y != y ? y : top;
}

/* forward sweep at node i, neither first nor last of its run: *v is the
   reacted u[i] and becomes the reacted u[i + 1]; out[i] gets y[i] / d[i],
   the first operation of dptts2's backward sweep; returns y[i] */
static inline double forward(const struct sweep *s, ptrdiff_t i, double rate,
                             double nu, double *v, double prev)
{
    const double w = react(s->u[i + 1], rate);
    double b = upwind(s, *v, w, nu);

    *v = w;
    b = b - prev * s->e[i - 1];
    s->out[i] = b / s->d[i];
    return b;
}

/* backward sweep at node i on the unflushed x[i + 1], then the flush;
   returns x[i] and raises *top to the flushed entry */
static inline double backward(const struct sweep *s, ptrdiff_t i, double x,
                              double *top)
{
    x = s->out[i] - x * s->e[i];
    s->out[i] = flush(x);
    *top = sup(*top, s->out[i]);
    return x;
}

/* the forward sweep of one run from its node i on, its last node hi - 1
   (zero-gradient inflow) halved */
static void forward_rest(const struct sweep *s, ptrdiff_t i, ptrdiff_t hi,
                         double rate, double nu, double v, double prev)
{
    double b;

    for (; i < hi - 1; i++)
        prev = forward(s, i, rate, nu, &v, prev);
    b = v * 0.5;
    b = b - prev * s->e[i - 1];
    s->out[i] = b / s->d[i];
}

/* the backward sweep of one run from its node i down to lo, on the
   unflushed x[i + 1]; returns the sup of top and the flushed entries */
static double backward_rest(const struct sweep *s, ptrdiff_t i, ptrdiff_t lo,
                            double x, double top)
{
    for (; i >= lo; i--)
        x = backward(s, i, x, &top);
    return top;
}

/* one run of a group: its entries [lo, hi), its reaction rate and Courant
   number, and the state of its sweeps */
struct lane {
    ptrdiff_t lo, hi;
    double rate, nu, v, prev, x, top;
};

/* the forward sweep of the w runs of g together over their nodes 1 to
   len - 2.  w is a constant 1 to GROUP where this is inlined and the lane
   loops are unrolled, so that the lanes' state, copied into locals,
   stays in registers. */
static inline __attribute__((always_inline)) void
forward_together(const struct sweep *s, struct lane *g, int w, ptrdiff_t len)
{
    double v[GROUP], prev[GROUP], rate[GROUP], nu[GROUP];
    ptrdiff_t j, lo[GROUP];
    int l;

#pragma GCC unroll 4
    for (l = 0; l < w; l++) {
        v[l] = g[l].v;
        prev[l] = g[l].prev;
        rate[l] = g[l].rate;
        nu[l] = g[l].nu;
        lo[l] = g[l].lo;
    }
    for (j = 1; j < len - 1; j++) {
#pragma GCC unroll 4
        for (l = 0; l < w; l++)
            prev[l] = forward(s, lo[l] + j, rate[l], nu[l], &v[l], prev[l]);
    }
#pragma GCC unroll 4
    for (l = 0; l < w; l++) {
        g[l].v = v[l];
        g[l].prev = prev[l];
    }
}

/* the backward sweep of the w runs of g together over their nodes hi - 2
   down to hi - len, as forward_together */
static inline __attribute__((always_inline)) void
backward_together(const struct sweep *s, struct lane *g, int w, ptrdiff_t len)
{
    double x[GROUP], top[GROUP];
    ptrdiff_t j, hi[GROUP];
    int l;

#pragma GCC unroll 4
    for (l = 0; l < w; l++) {
        x[l] = g[l].x;
        top[l] = g[l].top;
        hi[l] = g[l].hi;
    }
    for (j = 2; j <= len; j++) {
#pragma GCC unroll 4
        for (l = 0; l < w; l++)
            x[l] = backward(s, hi[l] - j, x[l], &top[l]);
    }
#pragma GCC unroll 4
    for (l = 0; l < w; l++) {
        g[l].x = x[l];
        g[l].top = top[l];
    }
}

/* the step of the w <= GROUP runs from run r on, with their sups */
static void group(const struct kpp_march *m, const struct sweep *s,
                  ptrdiff_t k, ptrdiff_t r, int w)
{
    struct lane g[GROUP];
    ptrdiff_t len = m->bounds[r + 1] - m->bounds[r];
    int l;

    /* forward sweep (solve L y = b), b made node by node: each run's first
       node, halved; the interior the runs have in common together; each
       run's rest alone */
    for (l = 0; l < w; l++) {
        struct lane *a = &g[l];
        double v0, b;

        a->lo = m->bounds[r + l];
        a->hi = m->bounds[r + l + 1];
        if (a->hi - a->lo < len)
            len = a->hi - a->lo;
        a->rate = m->rates[(r + l) * m->steps + k];
        a->nu = s->moving ? m->nus[(r + l) * m->steps + k] : 0.0;
        v0 = react(s->u[a->lo], a->rate);
        a->v = react(s->u[a->lo + 1], a->rate);
        b = upwind(s, v0, a->v, a->nu) * 0.5;
        a->prev = b;
        s->out[a->lo] = b / s->d[a->lo];
    }
    switch (w) {
    case 1:
        forward_together(s, g, 1, len);
        break;
    case 2:
        forward_together(s, g, 2, len);
        break;
    case 3:
        forward_together(s, g, 3, len);
        break;
    default:
        forward_together(s, g, GROUP, len);
    }
    for (l = 0; l < w; l++)
        forward_rest(s, g[l].lo + len - 1, g[l].hi, g[l].rate, g[l].nu,
                     g[l].v, g[l].prev);

    /* backward sweep (solve D L^T x = y) from each run's last node, as the
       forward sweep */
    for (l = 0; l < w; l++) {
        g[l].x = s->out[g[l].hi - 1];
        s->out[g[l].hi - 1] = g[l].top = flush(g[l].x);
    }
    switch (w) {
    case 1:
        backward_together(s, g, 1, len);
        break;
    case 2:
        backward_together(s, g, 2, len);
        break;
    case 3:
        backward_together(s, g, 3, len);
        break;
    default:
        backward_together(s, g, GROUP, len);
    }
    for (l = 0; l < w; l++)
        m->tops[r + l] = backward_rest(s, g[l].hi - len - 1, g[l].lo, g[l].x,
                                       g[l].top);
}

/* step k of the field m->u into out, each run's sup into m->tops */
static void kpp_step(const struct kpp_march *m, ptrdiff_t k, double *out)
{
    const struct sweep s = {m->u, m->d, m->e, out, m->nus != NULL};
    /* ceil(K / GROUP) groups whose sizes differ by at most 1: the first
       K % groups of them get one run more */
    const ptrdiff_t groups = (m->runs + GROUP - 1) / GROUP;
    const ptrdiff_t size = m->runs / groups, more = m->runs % groups;

    for (ptrdiff_t g = 0, r = 0; g < groups; g++) {
        const int w = (int)(g < more ? size + 1 : size);

        group(m, &s, k, r, w);
        r += w;
    }
}

/* The steps k to k1 - 1 of a march, from the field m->u with sups m->tops:
   each step but the last writes into the work buffer that is not m->u, the
   last into out.  Before each step it reads every run's reaction gate,
   dta[r][k] * max(1, 2 tops[r] - 1) > limit, as Python rounds and compares
   it (so a NaN passes), the runs in order; dta is inf where a run's CFL
   gate trips.  At the first step where a gate trips it returns k without
   making the step.  m->u and m->tops are left at the field made last;
   returns k1 when every step is made. */
ptrdiff_t kpp_steps(struct kpp_march *m, ptrdiff_t k, ptrdiff_t k1,
                    double *out)
{
    for (; k < k1; k++) {
        double *next;

        for (ptrdiff_t r = 0; r < m->runs; r++) {
            const double f = 2.0 * m->tops[r] - 1.0;

            if (m->dta[r * m->steps + k] * (f > 1.0 ? f : 1.0) > m->limit)
                return k;
        }
        next = k + 1 == k1 ? out : m->u == m->spare[0] ? m->spare[1]
                                                        : m->spare[0];
        kpp_step(m, k, next);
        m->u = next;
    }
    return k;
}

/* LAPACK dpttrf: the L D L^T factor of the symmetric tridiagonal matrix
   with diagonal d (n entries) and off-diagonal e (n - 1), written over
   them, by netlib's operations in netlib's order.  Returns LAPACK's info:
   0, or i + 1 where d[i] is the first non-positive pivot (n when only the
   last one is). */
ptrdiff_t kpp_factor(ptrdiff_t n, double *d, double *e)
{
    for (ptrdiff_t i = 0; i < n - 1; i++) {
        double ei;

        if (d[i] <= 0.0)
            return i + 1;
        ei = e[i];
        e[i] = ei / d[i];
        d[i + 1] = d[i + 1] - e[i] * ei;
    }
    return n > 0 && d[n - 1] <= 0.0 ? n : 0;
}

/* the AR(1) recursion x[i] = rho x[i - 1] + x[i] over x's n entries, in
   place, as LAPACK dgtts2's forward sweep with identity pivots and -rho
   below the diagonal computes it: x[i] - (-rho) x[i - 1] */
void kpp_ar1(ptrdiff_t n, double rho, double *x)
{
    const double l = -rho;

    for (ptrdiff_t i = 1; i < n; i++)
        x[i] = x[i] - l * x[i - 1];
}
