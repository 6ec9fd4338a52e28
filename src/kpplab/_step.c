/* The compiled code of kpplab, loaded by kpplab._kernel: the steps of
 * kpplab.kppsolve.march_runs between two stored frames (kpp_steps, which
 * makes each one by kpp_step), and at the end of this file the
 * two recursions that set runs up, the twisted diffusion factor
 * (kpp_factor) and the noise recursion (kpp_ar1, as the forward sweep of
 * LAPACK dgtts2, bitwise that routine under the same -ffp-contract=off as
 * the step).
 *
 * The K runs' fields lie end to end in one vector; run r holds the entries
 * [lo, hi) = [bounds[r], bounds[r + 1]), at least 3 of them, and its twist
 * row is m = lo + (hi - lo - 1) / 2, which depends on its length alone.
 * kpp_step reads the field u at step k and writes the next one into out (a
 * different buffer):
 *
 *   reaction  v = u + (rate u)(1 - u), rate = dt a_r at the step's midpoint;
 *   upwind    v[i] + nu (v[i + 1] - v[i]) on every node but a run's last
 *             (moving frame only: nus is NULL in the fixed frame);
 *   halving   of each run's first and last entry;
 *   solve     N D N^T x = b with the twisted factor of the run's
 *             diffusion matrix that kpp_factor gives, its multipliers e
 *             and its pivots as reciprocals r = 1 / d rounded toward zero:
 *             the forward sweep eliminates rows lo to m - 1 top-down and
 *             rows hi - 1 to m + 1 bottom-up, row m takes both (top
 *             first), and the backward sweep runs outward from
 *             x[m] = y[m] r[m];
 *   flush     x = 0 where |x| < DBL_MIN, after the solve.
 *
 * It writes the largest entry of each run r of out into tops[r], NaN when
 * the run holds a NaN (as numpy's maximum.reduceat; the flush leaves no
 * -0.0 to tie with 0.0).  Each entry is made by the same floating-point
 * operations, in the same order, as the twisted step in Python floats
 * (float_step in tests/oracles.py) on the run alone, so the result is
 * bitwise that step's.  Each multiply-subtract of the sweeps is one
 * explicit fma, which rounds once; every other multiply and add rounds on
 * its own, which holds only while the compiler fuses none of them, hence
 * -ffp-contract=off.  The reaction, upwind and halving are bitwise numpy's
 * elementwise calls.  The solve is not LAPACK dptts2's: on the same field,
 * a step differs from the dpttrf/dpttrs step by at most two units in the
 * last place of the step's largest entry on Heaviside fronts of 3 to 260
 * nodes, and by at most five on 5001 nodes.  The reciprocals round toward
 * zero, so y r is never larger in magnitude than y / d: no step lifts a
 * field above 1.  The price is a bias toward 0: a plateau at 1 settles
 * 1.7e-15 below it, and the 20000 steps of a take-over run on 5001 nodes
 * end up to 4.9e-13 below the one-chain march (with nearest reciprocals
 * 5.7e-14 from it, and 4.4e-16 above 1).  Both eliminations have only
 * positive pivots and reciprocals and nonpositive off-diagonal
 * multipliers, and fma and every product round a monotone exact value, so
 * the step stays exactly monotone in floating point.  Runs share no entry
 * of the factor, so a NaN or an overflow stays in its own run.
 *
 * Each half of a sweep is a chain of dependent fmas, so each run is swept
 * as two chains, up from lo and down from hi - 1, of about half its
 * length, and the runs of a march share no chain.  The runs are swept in
 * groups of up to GROUP whose chains advance together: node j of every
 * chain in the group before node j + 1, over the group's shortest top
 * half, then the rest of each chain alone.  The chains' latencies then
 * overlap instead of adding up.  K runs make ceil(K / GROUP) groups whose
 * sizes differ by at most 1.
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
#include <stdint.h>

#define GROUP 2                /* runs swept together, two chains each (the
                                  unroll pragmas below name it as 2: they
                                  take no macro) */

struct kpp_march {
    ptrdiff_t runs;            /* K */
    ptrdiff_t steps;           /* row length of rates and nus */
    const ptrdiff_t *bounds;   /* K + 1 offsets of the runs in the vector */
    const double *rates;       /* rates[r * steps + k]: dt a_r(t_k + dt / 2) */
    const double *nus;         /* the runs' upwind Courant numbers, laid out
                                  as rates; NULL in the fixed frame */
    const double *r, *e;       /* kpp_factor's 1 / D rounded toward zero (n
                                  entries) and N (n - 1) */
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
    const double *u, *r, *e;
    double *out;
    int moving;                /* the march is in the moving frame */
};

static ptrdiff_t twist(ptrdiff_t lo, ptrdiff_t hi)
{
    return lo + (hi - lo - 1) / 2;
}

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

/* the larger of top and y without a branch (maxsd on x86-64), which the
   rounding noise of a field at 1 would mispredict; a NaN y is passed
   over, and run_top finds it */
static double sup(double top, double y)
{
    return y > top ? y : top;
}

/* the forward sweep of the up chain at node i, lo < i < m: *v is the
   reacted u[i] and becomes the reacted u[i + 1]; out[i] gets y[i] r[i],
   the first operation of the backward sweep; returns y[i] */
static inline double up(const struct sweep *s, ptrdiff_t i, double rate,
                        double nu, double *v, double y)
{
    const double w = react(s->u[i + 1], rate);
    double b = upwind(s, *v, w, nu);

    *v = w;
    b = fma(-y, s->e[i - 1], b);
    s->out[i] = b * s->r[i];
    return b;
}

/* the forward sweep of the down chain at node i, m < i < hi - 1: *w is the
   reacted u[i + 1] and becomes the reacted u[i]; as up otherwise */
static inline double down(const struct sweep *s, ptrdiff_t i, double rate,
                          double nu, double *w, double y)
{
    const double v = react(s->u[i], rate);
    double b = upwind(s, v, *w, nu);

    *w = v;
    b = fma(-y, s->e[i], b);
    s->out[i] = b * s->r[i];
    return b;
}

/* the backward sweep at node i on the unflushed x of its neighbour toward
   the twist row, whose multiplier is ei, then the flush; returns x[i] and
   raises *top to the flushed entry */
static inline double backward(const struct sweep *s, ptrdiff_t i, double x,
                              double ei, double *top)
{
    x = fma(-x, ei, s->out[i]);
    s->out[i] = flush(x);
    *top = sup(*top, s->out[i]);
    return x;
}

/* one chain of a run's sweeps: v is the reacted u the forward sweep
   carries to the next node (that node's own, going up; its right
   neighbour's, going down), y the last y, x the last unflushed x and top
   the sup of the chain's flushed entries */
struct chain {
    double v, y, x, top;
};

/* one run of a group: its entries [lo, hi), its twist row m, its reaction
   rate and Courant number, and its two chains */
struct run {
    ptrdiff_t lo, m, hi;
    double rate, nu;
    struct chain up, down;
};

/* the sup of a run's entries of out from its chains' tops, or the NaN
   the run holds.  A NaN in the forward sweep reaches y[m], and with x[m]
   both chains; one made in the backward sweep is carried by every later x
   of its chain (NaN * e is NaN, whatever e); the flush keeps it.  So the
   run holds a NaN exactly when the end node of one of its chains does. */
static double run_top(const struct sweep *s, const struct run *a)
{
    const double first = s->out[a->lo], last = s->out[a->hi - 1];

    if (first != first)
        return first;
    if (last != last)
        return last;
    return sup(a->up.top, a->down.top);
}

/* the forward sweep of the w runs of g together, the up chains over nodes
   lo + 1 to lo + len - 1 and the down chains over hi - 2 down to hi - len.
   w is a constant 1 to GROUP where this is inlined and the run loops are
   unrolled, so that the chains' state, copied into locals, stays in
   registers. */
static inline __attribute__((always_inline)) void
forward_together(const struct sweep *s, struct run *g, int w, ptrdiff_t len)
{
    double vu[GROUP], yu[GROUP], vd[GROUP], yd[GROUP], rate[GROUP], nu[GROUP];
    ptrdiff_t j, lo[GROUP], hi[GROUP];
    int l;

#pragma GCC unroll 2
    for (l = 0; l < w; l++) {
        vu[l] = g[l].up.v;
        yu[l] = g[l].up.y;
        vd[l] = g[l].down.v;
        yd[l] = g[l].down.y;
        rate[l] = g[l].rate;
        nu[l] = g[l].nu;
        lo[l] = g[l].lo;
        hi[l] = g[l].hi;
    }
    for (j = 1; j < len; j++) {
#pragma GCC unroll 2
        for (l = 0; l < w; l++) {
            yu[l] = up(s, lo[l] + j, rate[l], nu[l], &vu[l], yu[l]);
            yd[l] = down(s, hi[l] - 1 - j, rate[l], nu[l], &vd[l], yd[l]);
        }
    }
#pragma GCC unroll 2
    for (l = 0; l < w; l++) {
        g[l].up.v = vu[l];
        g[l].up.y = yu[l];
        g[l].down.v = vd[l];
        g[l].down.y = yd[l];
    }
}

/* the backward sweep of the w runs of g together, outward from each twist
   row m over nodes m - 1 down to m - len and m + 1 up to m + len, as
   forward_together */
static inline __attribute__((always_inline)) void
backward_together(const struct sweep *s, struct run *g, int w, ptrdiff_t len)
{
    double xu[GROUP], tu[GROUP], xd[GROUP], td[GROUP];
    ptrdiff_t j, m[GROUP];
    int l;

#pragma GCC unroll 2
    for (l = 0; l < w; l++) {
        xu[l] = g[l].up.x;
        tu[l] = g[l].up.top;
        xd[l] = g[l].down.x;
        td[l] = g[l].down.top;
        m[l] = g[l].m;
    }
    for (j = 1; j <= len; j++) {
#pragma GCC unroll 2
        for (l = 0; l < w; l++) {
            xu[l] = backward(s, m[l] - j, xu[l], s->e[m[l] - j], &tu[l]);
            xd[l] = backward(s, m[l] + j, xd[l], s->e[m[l] + j - 1], &td[l]);
        }
    }
#pragma GCC unroll 2
    for (l = 0; l < w; l++) {
        g[l].up.x = xu[l];
        g[l].up.top = tu[l];
        g[l].down.x = xd[l];
        g[l].down.top = td[l];
    }
}

/* The sweeps below round each multiply-subtract once, in an explicit fma.
   On x86 the function that holds them is built twice: with the FMA
   instructions, and for CPUs without them, where fma is libm's, correctly
   rounded too; the loader picks one, and both give the same bits.  aarch64
   has FMA in its base instruction set. */
#if defined(__x86_64__) || defined(__i386__)
#define FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define FMA_CLONES
#endif

/* the step of the w <= GROUP runs from run r on, with their sups */
static FMA_CLONES void group(const struct kpp_march *m,
                             const struct sweep *s, ptrdiff_t k, ptrdiff_t r,
                             int w)
{
    struct run g[GROUP];
    ptrdiff_t i, len = PTRDIFF_MAX;
    int l;

    /* forward sweep (solve N y = b), b made node by node: each run's end
       nodes, halved, start its chains; the nodes all the group's chains
       have go together; the rest of each chain alone; then the twist row,
       which reads the reacted u[m] and u[m + 1] the chains carry */
    for (l = 0; l < w; l++) {
        struct run *a = &g[l];
        double v0, b;

        a->lo = m->bounds[r + l];
        a->hi = m->bounds[r + l + 1];
        a->m = twist(a->lo, a->hi);
        if (a->m - a->lo < len)
            len = a->m - a->lo;
        a->rate = m->rates[(r + l) * m->steps + k];
        a->nu = s->moving ? m->nus[(r + l) * m->steps + k] : 0.0;
        v0 = react(s->u[a->lo], a->rate);
        a->up.v = react(s->u[a->lo + 1], a->rate);
        b = upwind(s, v0, a->up.v, a->nu) * 0.5;
        a->up.y = b;
        s->out[a->lo] = b * s->r[a->lo];
        a->down.v = react(s->u[a->hi - 1], a->rate);
        b = a->down.v * 0.5;
        a->down.y = b;
        s->out[a->hi - 1] = b * s->r[a->hi - 1];
    }
    switch (w) {
    case 1:
        forward_together(s, g, 1, len);
        break;
    default:
        forward_together(s, g, GROUP, len);
    }
    for (l = 0; l < w; l++) {
        struct run *a = &g[l];
        double b;

        for (i = a->lo + len; i < a->m; i++)
            a->up.y = up(s, i, a->rate, a->nu, &a->up.v, a->up.y);
        for (i = a->hi - 1 - len; i > a->m; i--)
            a->down.y = down(s, i, a->rate, a->nu, &a->down.v, a->down.y);
        b = upwind(s, a->up.v, a->down.v, a->nu);
        b = fma(-a->up.y, s->e[a->m - 1], b);
        b = fma(-a->down.y, s->e[a->m], b);
        a->up.x = a->down.x = b * s->r[a->m];
        s->out[a->m] = a->up.top = a->down.top = flush(a->up.x);
    }

    /* backward sweep (solve D N^T x = y) outward from each twist row, the
       chains together as in the forward sweep, then the rest of each
       chain alone */
    switch (w) {
    case 1:
        backward_together(s, g, 1, len);
        break;
    default:
        backward_together(s, g, GROUP, len);
    }
    for (l = 0; l < w; l++) {
        struct run *a = &g[l];

        for (i = a->m - len - 1; i >= a->lo; i--)
            a->up.x = backward(s, i, a->up.x, s->e[i], &a->up.top);
        for (i = a->m + len + 1; i < a->hi; i++)
            a->down.x = backward(s, i, a->down.x, s->e[i - 1], &a->down.top);
        m->tops[r + l] = run_top(s, a);
    }
}

/* step k of the field m->u into out, each run's sup into m->tops */
static void kpp_step(const struct kpp_march *m, ptrdiff_t k, double *out)
{
    const struct sweep s = {m->u, m->r, m->e, out, m->nus != NULL};
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

/* 1 / d rounded toward zero, for d > 0: the nearest reciprocal, or the
   float below it where that lies above 1 / d (r d - 1 > 0, which one fma
   gives exactly) */
static double reciprocal(double d)
{
    const double r = 1.0 / d;

    return fma(r, d, -1.0) > 0.0 ? nextafter(r, 0.0) : r;
}

/* The twisted factor N D N^T of the symmetric tridiagonal matrix with
   diagonal d (n = bounds[runs] entries) and off-diagonal e (n - 1), each
   run's block [lo, hi) on its own, written over them, and r[i] = 1 / d[i]
   rounded toward zero, which the step multiplies by in place of dividing
   by d[i]; e[hi - 1] between two runs is neither read nor written.  With
   m the run's twist row, rows lo to m are LAPACK dpttrf's factor of the
   block [lo, m] (netlib's operations in netlib's order): e[i] for
   lo <= i < m is the multiplier of row i.  Rows hi - 1 down to m are
   dpttrf's factor of the block [m, hi) flipped: e[i] for m <= i < hi - 1
   is the multiplier of row i + 1.  The twist pivot d[m] takes both
   eliminations, the top one first.  Returns
   dpttrf's info: 0, or i + 1 where d[i] is the first non-positive pivot,
   the runs in order and in each the top rows, the bottom rows and then
   the twist row; r is left unfinished where info is not 0.  r may be d:
   each run's reciprocals are written once its factor is done. */
ptrdiff_t kpp_factor(ptrdiff_t runs, const ptrdiff_t *bounds, double *d,
                     double *e, double *r)
{
    for (ptrdiff_t k = 0; k < runs; k++) {
        const ptrdiff_t lo = bounds[k], hi = bounds[k + 1], m = twist(lo, hi);
        ptrdiff_t i;
        double ei;

        for (i = lo; i < m; i++) {
            if (d[i] <= 0.0)
                return i + 1;
            ei = e[i];
            e[i] = ei / d[i];
            d[i + 1] = d[i + 1] - e[i] * ei;
        }
        for (i = hi - 1; i > m; i--) {
            if (d[i] <= 0.0)
                return i + 1;
            ei = e[i - 1];
            e[i - 1] = ei / d[i];
            d[i - 1] = d[i - 1] - e[i - 1] * ei;
        }
        if (d[m] <= 0.0)
            return m + 1;
        for (i = lo; i < hi; i++)
            r[i] = reciprocal(d[i]);
    }
    return 0;
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
