/* The compiled code of kpplab, loaded by kpplab._kernel: the steps of
 * kpplab.kppsolve.march_runs between two stored frames (kpp_steps, which
 * makes each one by kpp_step, or by two threads for a lone long run), and
 * at the end of this file the two recursions that set runs up, the
 * diffusion factor (kpp_factor) and the noise recursion (kpp_ar1, as the
 * forward sweep of LAPACK dgtts2, bitwise that routine under the same
 * -ffp-contract=off as the step).
 *
 * The K runs' fields lie end to end in one vector; run r holds the entries
 * [lo, hi) = [bounds[r], bounds[r + 1]), at least 3 of them.  Its
 * interface row is s = twist(lo, hi) = lo + (hi - lo - 1) / 2, which cuts
 * it into a left half [lo, s) and a right half [s + 1, hi).  Each half's
 * separator t = twist of its rows cuts it into two blocks, so a run is the
 * blocks [lo, t_L), [t_L + 1, s), [s + 1, t_R) and [t_R + 1, hi) (some of
 * them empty on short runs), each with its twist row m = twist of its
 * rows.  All of these depend on the run's length alone.  kpp_step reads
 * the field u at step k and writes the next one into out (a different
 * buffer):
 *
 *   reaction  v = u + (rate u)(1 - u), rate = dt a_r at the step's midpoint;
 *   upwind    v[i] + nu (v[i + 1] - v[i]) on every node but a run's last
 *             (moving frame only: nus is NULL in the fixed frame);
 *   halving   of each run's first and last entry;
 *   solve     L D L^T x = b with the factor of the run's diffusion matrix
 *             that kpp_factor gives, its multipliers e and f and its
 *             pivots as reciprocals r = 1 / d rounded toward zero;
 *   flush     x = 0 where |x| < DBL_MIN, after the solve.
 *
 * The elimination order of the solve is the partition method of Wang (ACM
 * TOMS 7, 1981; SPIKE, Polizzi and Sameh, Parallel Computing 32, 2006, is
 * its general form) applied twice, a twisted factorization in each block.
 * In each block two chains eliminate its rows from its ends toward its
 * twist row, the up chain top-down and the down chain bottom-up, and the
 * twist row takes both (top first); then each half's separator, and the
 * interface row s last.  A chain that starts next to a separator (or s)
 * couples its next row to that row once its first is eliminated, and so
 * on to the twist row: it carries one more multiplier f[j] per row, flushed
 * to 0 below DBL_MIN as the field is (the fill decays by the multipliers'
 * size per row, and a subnormal one would be an operand of the sweeps at
 * every step).  Every chain but the run's first and last does.  The twist
 * row of a block between two separators couples them.  The forward sweep makes b on every
 * row four at a time, then y on each chain toward its twist row, and y on
 * each twist row; each block sums f y from 0, in chain order, over its
 * chain and twist row that couple to the separator above it, and over
 * those that couple to the one below.  A separator gets y[t] = (b[t] + its
 * upper block's sum) + its lower block's; each half's sum toward s is its
 * block's next to s, then f[t] y[t].  Then y[s] = (b[s] + left) + right
 * and x[s] = y[s] r[s].  The backward sweep makes x[t] = y[t] r[t] - f[t]
 * x[s] and runs outward from each twist row, x[m] = y[m] r[m] - f x of the
 * separator above, then of the one below, each row of a coupled chain
 * taking f[j] x of its separator off y r first; each half is flushed and
 * its sup taken eight at a time once it is swept.
 *
 * The matrix is a symmetric M-matrix: positive pivots, nonpositive
 * off-diagonal.  Gaussian elimination in any symmetric order leaves Schur
 * complements that are M-matrices too, so every pivot stays positive and
 * every multiplier and fill entry nonpositive.  Both sweeps are then sums
 * of nonnegative multiples, each rounded by fma, a product or a sum, all
 * monotone roundings of monotone exact values (under flush-to-zero each
 * followed by the monotone map of a tiny result to 0), so the step is
 * exactly monotone in floating point (the flushed fill multipliers only
 * drop nonnegative terms).  The reciprocals round toward zero, so y r is
 * never larger in magnitude than y / d: no step lifts a field above 1.
 * The price is a bias toward 0 (bounded in tests/test_kppsolve.py).
 *
 * It writes the largest entry of each run r of out into tops[r], the
 * run's first NaN when it holds one (numpy's maximum.reduceat gives a NaN
 * too; the flush leaves no -0.0 to tie with 0.0).  Each entry is made by
 * the same floating-point operations, in the same order, as the step in
 * Python floats (float_step in tests/oracles.py, which flushes each result
 * as FTZ does) on the run alone, so the result is bitwise that step's.
 * Each multiply-subtract of the sweeps is one explicit fma, which rounds
 * once; every other multiply and add rounds on its own, which holds only
 * while the compiler fuses none of them, hence -ffp-contract=off.  The
 * reaction, upwind and halving are bitwise numpy's elementwise calls but
 * where FTZ flushes a result.  Runs share no entry of the factor, so a NaN
 * or an overflow stays in its own run.
 *
 * On x86-64 kpp_steps runs under flush-to-zero: it sets MXCSR's FTZ bit
 * on entry and restores the caller's MXCSR on its one return, and the
 * split's thread sets the bit when it starts.  No operation of a step then
 * makes a subnormal: a result that is tiny after rounding (x86 rounds to
 * 53 bits with an unbounded exponent, then decides) becomes the signed 0
 * of its sign.  A front's tail decays through the subnormal range at every
 * step until about t = 60, and on Intel cores each subnormal result of a
 * multiply or an fma costs a microcode assist.  A result that is not tiny
 * rounds as under gradual underflow; a flushed one drops a term below
 * DBL_MIN, which can move only an entry within about 2^53 DBL_MIN (1e-292)
 * of 0, or one the sweeps reach from such an entry: in the take-over run
 * only entries below 2.3e-290 moved, and only at t <= 50.  The flush
 * after the solve stays: FTZ leaves -0.0 where a tiny result was negative,
 * and the caller's field may hold subnormals (DAZ is not set; the first
 * operation on each flushes it).  MXCSR is per thread, so Python and
 * numpy, kpp_factor and kpp_ar1 keep the caller's gradual underflow.
 * Elsewhere the steps underflow gradually, as before, and entries below
 * about 1e-290 may differ from x86-64's.
 *
 * Each chain is a sequence of dependent fmas.  A half's four chains
 * advance together, node j of each before node j + 1, so their latencies
 * overlap; the halves of a run, and the runs, are swept one after another
 * (so a run marched beside others is bitwise the run alone).  A call of
 * kpp_steps on a march of one run that layout marked split (at least
 * N_SPLIT nodes and two CPUs), made while no other call is in flight,
 * starts one thread that sweeps the run's right half while the calling
 * thread sweeps the left, four chains each, from the first step after the
 * thread runs.  Per step the right half's b[s] and sum go left, and x[s]
 * comes back.  The threads make the same operations on the same data, so
 * the bits do not depend on the split.  The thread allocates nothing,
 * blocks every signal and is joined before the call returns.  A handoff
 * that waits STALL or more, and longer than four steps of the run on one
 * thread, or a thread that does not run before the call ends, means the
 * other CPU is busy: the call goes on on one thread,
 * and the process's next 1, 2, 4, ... BACKOFF split calls run on one
 * thread too, until a split call runs without a stall.
 *
 * kpp_steps runs the steps from one stored frame to the next, so Python,
 * which holds the interpreter lock between calls, is not entered at every
 * step: ctypes releases the lock for the length of a call, and two marches
 * on two threads then overlap.  Before each step it reads every run's own
 * step gate, with the roundings of kpplab.kppsolve._check_step_bounds, and
 * it stops only before a step where one of them trips: there Python reads
 * the same gates and raises the first failing run's error.
 */
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdalign.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#define STACK (64 * 1024)      /* the right half's thread stack, in bytes */
#define SPINS 4096             /* polls of a handoff before each yield */
#define STALL 100000           /* ns: a handoff waited for this long, and
                                  for four steps of the run on one thread,
                                  means the other thread lost its CPU (a
                                  step of 5001 nodes takes some 20 us) */
#define BACKOFF 1024           /* the most calls a stall stops splitting */

/* The sweeps round each multiply-subtract once, in an explicit fma.  On
   x86 the functions that hold them, and the two that work four doubles at
   a time, are built twice: with the FMA instructions (and the AVX they
   come with), and for CPUs without them, where fma is libm's (through
   kpp_fma below), correctly rounded too; the loader picks one, and both
   give the same bits.
   aarch64 has FMA in its base instruction set. */
#if defined(__x86_64__) || defined(__i386__)
#define FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define FMA_CLONES
#endif

#if defined(__x86_64__)
/* Under flush-to-zero libm's fma is not an FMA instruction: on CPUs
   without FMA it splits its operands, and FTZ drops the low parts that
   fall below DBL_MIN, which moved results near 2^-1000 by 1e-8 relative.
   So every fma call the compiler emits (the default clone's, and
   reciprocal's) goes to kpp_fma, which calls libm's under gradual
   underflow and flushes the result as the instruction would under FTZ:
   to the signed 0 of its sign where it is tiny after rounding with an
   unbounded exponent.  A result of DBL_MIN may hide such a tiny value;
   the same fma on 2^64 times the smaller factor and c shows it. */
extern double libm_fma(double, double, double) __asm__("fma");
double fma(double, double, double) __asm__("kpp_fma");

__attribute__((visibility("hidden"))) double
kpp_fma(double a, double b, double c)
{
    const unsigned csr = _mm_getcsr();
    double r;

    if (!(csr & _MM_FLUSH_ZERO_ON))
        return libm_fma(a, b, c);
    _mm_setcsr(csr & ~_MM_FLUSH_ZERO_ON);
    r = libm_fma(a, b, c);
    if (fabs(r) < DBL_MIN || (fabs(r) == DBL_MIN && fabs(fabs(a) < fabs(b)
            ? libm_fma(a * 0x1p64, b, c * 0x1p64)
            : libm_fma(a, b * 0x1p64, c * 0x1p64)) < 0x1p64 * DBL_MIN))
        r = copysign(0.0, r);
    _mm_setcsr(csr);
    return r;
}
#endif

struct kpp_march {
    ptrdiff_t runs;            /* K */
    ptrdiff_t steps;           /* row length of rates and nus */
    const ptrdiff_t *bounds;   /* K + 1 offsets of the runs in the vector */
    const double *rates;       /* rates[r * steps + k]: dt a_r(t_k + dt / 2) */
    const double *nus;         /* the runs' upwind Courant numbers, laid out
                                  as rates; NULL in the fixed frame */
    const double *r, *e, *f;   /* kpp_factor's 1 / D rounded toward zero (n
                                  entries), multipliers (n - 1) and fill
                                  multipliers (n + 2 K) */
    const double *dta;         /* laid out as rates: dt sup a_r over step k,
                                  inf where run r's CFL gate trips */
    double limit;              /* the reaction gate's bound on
                                  dt sup a max(1, 2 sup u - 1) */
    double *spare;             /* a work buffer of the vector's length */
    const double *u;           /* the field at the step reached */
    double *tops;              /* its largest entry per run (NaN if the run
                                  holds one) */
    int split;                 /* a lone run whose halves may be swept on
                                  two threads */
};

/* what one step reads and writes; out is not u */
struct sweep {
    const double *u, *r, *e, *f;
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
   over, and settle finds it */
static double sup(double top, double y)
{
    return y > top ? y : top;
}

/* one chain of a block's sweeps: y the last y and x the last x */
struct chain {
    double y, x;
};

enum { LEFT, RIGHT };          /* a half's side */

/* Whether block l (0 or 1) of the half on side `side` has a separator
   (a half's separator or the interface row) above it and below it.  The blocks of a run are, in order, [lo, t_L)
   (below it t_L), [t_L + 1, s) (t_L above, s below), [s + 1, t_R) (s
   above, t_R below) and [t_R + 1, hi) (t_R above). */
#define ABOVE(side, l) (!((side) == LEFT && (l) == 0))
#define BELOW(side, l) (!((side) == RIGHT && (l) == 1))

/* a block of a run: its rows [lo, hi) (none when lo == hi) and twist row
   m, its twist row's fill multipliers to the separators above and below
   it, its two chains, and its sums of f y over the chain and twist row
   that couple to the separator above it and to the one below */
struct block {
    ptrdiff_t lo, m, hi;
    double fu, fv;
    struct chain up, down;
    double sumu, sumv;
};

/* one half of a run: its rows [lo, hi), cut by its separator t into the
   blocks q[0] = [lo, t) and q[1] = [t + 1, hi), the run's first and last
   row, and its reaction rate and Courant number */
struct half {
    ptrdiff_t lo, t, hi, first, last;
    double rate, nu;
    struct block q[2];
};

/* the two halves of run r at step k; the interface row is h[LEFT].hi.
   The twist rows' fill multipliers to the separator below a block that
   has one above it too are the two after the rows', per run. */
static inline __attribute__((always_inline)) void
halves(const struct kpp_march *m, const struct sweep *s, ptrdiff_t r,
       ptrdiff_t k, struct half h[2])
{
    const ptrdiff_t lo = m->bounds[r], hi = m->bounds[r + 1];
    const ptrdiff_t i = twist(lo, hi), n = m->bounds[m->runs];
    const double rate = m->rates[r * m->steps + k];
    const double nu = s->moving ? m->nus[r * m->steps + k] : 0.0;

    h[LEFT].lo = lo;
    h[LEFT].hi = i;
    h[RIGHT].lo = i + 1;
    h[RIGHT].hi = hi;
    for (int side = LEFT; side <= RIGHT; side++) {
        struct half *a = &h[side];

        a->t = twist(a->lo, a->hi);
        a->first = lo;
        a->last = hi - 1;
        a->rate = rate;
        a->nu = nu;
        a->q[0].lo = a->lo;
        a->q[0].hi = a->t;
        a->q[1].lo = a->t + 1;
        a->q[1].hi = a->hi;
        for (int l = 0; l < 2; l++) {
            struct block *q = &a->q[l];
            const int full = q->lo < q->hi;

            q->m = twist(q->lo, q->hi);
            q->up = q->down = (struct chain){0.0, 0.0};
            q->fu = full && ABOVE(side, l) ? s->f[q->m] : 0.0;
            q->fv = !full || !BELOW(side, l) ? 0.0
                    : ABOVE(side, l) ? s->f[n + 2 * r + side] : s->f[q->m];
        }
    }
}

/* b[i]: the reacted u[i], upwinded but on the run's last row, halved on
   its first and last */
static inline __attribute__((always_inline)) double
rhs(const struct sweep *s, const struct half *a, ptrdiff_t i)
{
    double b = react(s->u[i], a->rate);

    if (i < a->last)
        b = upwind(s, b, react(s->u[i + 1], a->rate), a->nu);
    return i == a->first || i == a->last ? b * 0.5 : b;
}

/* four doubles, which the compiler keeps in one or two vector registers;
   each operation on them rounds each entry as the scalar one does; mask4
   holds their bits */
typedef double vec4 __attribute__((vector_size(32)));
typedef long long mask4 __attribute__((vector_size(32)));

/* b over the rows [from, to) of the half a into out: the rows but the
   run's first and last four at a time (react and upwind, entry by entry),
   the run's first and last by rhs */
static FMA_CLONES void
load_rhs(const struct sweep *s, const struct half *a, ptrdiff_t from,
         ptrdiff_t to)
{
    const ptrdiff_t end = to > a->last ? a->last : to;
    const double rate = a->rate, nu = a->nu;
    ptrdiff_t i = from;

    if (i == a->first)
        s->out[i++] = rhs(s, a, a->first);
    for (; i + 4 <= end; i += 4) {
        vec4 u, w, b;

        memcpy(&u, s->u + i, sizeof u);
        b = u + (rate * u) * (1.0 - u);
        if (s->moving) {
            memcpy(&w, s->u + i + 1, sizeof w);
            b = b + nu * ((w + (rate * w) * (1.0 - w)) - b);
        }
        memcpy(s->out + i, &b, sizeof b);
    }
    for (; i < end; i++)
        s->out[i] = rhs(s, a, i);
    if (end < to)
        s->out[end] = rhs(s, a, end);
}

/* the forward sweep of the up chain at node i, lo < i < m, where out[i]
   holds b[i]: out[i] gets y[i] r[i], the first operation of the backward
   sweep; returns y[i] */
static inline double up(const struct sweep *s, ptrdiff_t i, double y)
{
    const double b = fma(-y, s->e[i - 1], s->out[i]);

    s->out[i] = b * s->r[i];
    return b;
}

/* the forward sweep of the down chain at node i, m < i < hi - 1; as up */
static inline double down(const struct sweep *s, ptrdiff_t i, double y)
{
    const double b = fma(-y, s->e[i], s->out[i]);

    s->out[i] = b * s->r[i];
    return b;
}

/* the backward sweep at node i on the x of its neighbour toward the twist
   row, whose multiplier is ei, with w = y[i] r[i] (less f[i] times the x
   of the separator its chain couples to): out[i] and the return value get
   x[i], which settle flushes once the half is swept */
static inline double backward(const struct sweep *s, ptrdiff_t i, double x,
                              double ei, double w)
{
    x = fma(-x, ei, w);
    s->out[i] = x;
    return x;
}

/* the first node of each chain of block l of the half on side `side`,
   where the chain has one, from b in out */
static inline __attribute__((always_inline)) void
start(const struct sweep *s, struct block *q, int side, int l)
{
    double b;

    q->sumu = q->sumv = 0.0;
    if (q->m > q->lo) {
        b = q->up.y = s->out[q->lo];
        s->out[q->lo] = b * s->r[q->lo];
        if (ABOVE(side, l))
            q->sumu = fma(-b, s->f[q->lo], q->sumu);
    }
    if (q->m < q->hi - 1) {
        b = q->down.y = s->out[q->hi - 1];
        s->out[q->hi - 1] = b * s->r[q->hi - 1];
        if (BELOW(side, l))
            q->sumv = fma(-b, s->f[q->hi - 1], q->sumv);
    }
}

/* the forward sweep of the four chains of the two blocks of the half on
   side `side` together: the up chains over nodes lo + 1 to lo + len - 1
   and the down chains over hi - 2 down to hi - len.  side is a constant
   where this is inlined and the loops are unrolled, so that the chains'
   state, copied into locals, stays in registers. */
static inline __attribute__((always_inline)) void
forward_together(const struct sweep *s, struct block *q, int side,
                 ptrdiff_t len)
{
    double yu[2], yd[2], su[2], sv[2];
    ptrdiff_t j, lo[2], hi[2];
    int l;

#pragma GCC unroll 2
    for (l = 0; l < 2; l++) {
        yu[l] = q[l].up.y;
        yd[l] = q[l].down.y;
        su[l] = q[l].sumu;
        sv[l] = q[l].sumv;
        lo[l] = q[l].lo;
        hi[l] = q[l].hi;
    }
    for (j = 1; j < len; j++) {
#pragma GCC unroll 2
        for (l = 0; l < 2; l++) {
            yu[l] = up(s, lo[l] + j, yu[l]);
            if (ABOVE(side, l))
                su[l] = fma(-yu[l], s->f[lo[l] + j], su[l]);
            yd[l] = down(s, hi[l] - 1 - j, yd[l]);
            if (BELOW(side, l))
                sv[l] = fma(-yd[l], s->f[hi[l] - 1 - j], sv[l]);
        }
    }
#pragma GCC unroll 2
    for (l = 0; l < 2; l++) {
        q[l].up.y = yu[l];
        q[l].down.y = yd[l];
        q[l].sumu = su[l];
        q[l].sumv = sv[l];
    }
}

/* the rest of the forward sweep of block l after forward_together over
   len nodes: each chain alone to the twist row, then the twist row, whose
   f y ends the block's sums */
static inline __attribute__((always_inline)) void
forward_rest(const struct sweep *s, struct block *q, int side, int l,
             ptrdiff_t len)
{
    const ptrdiff_t from = len > 1 ? len : 1;
    ptrdiff_t i;
    double b;

    if (q->lo == q->hi)
        return;
    for (i = q->lo + from; i < q->m; i++) {
        q->up.y = up(s, i, q->up.y);
        if (ABOVE(side, l))
            q->sumu = fma(-q->up.y, s->f[i], q->sumu);
    }
    for (i = q->hi - 1 - from; i > q->m; i--) {
        q->down.y = down(s, i, q->down.y);
        if (BELOW(side, l))
            q->sumv = fma(-q->down.y, s->f[i], q->sumv);
    }
    b = s->out[q->m];
    if (q->m > q->lo)
        b = fma(-q->up.y, s->e[q->m - 1], b);
    if (q->m < q->hi - 1)
        b = fma(-q->down.y, s->e[q->m], b);
    s->out[q->m] = b * s->r[q->m];
    if (ABOVE(side, l))
        q->sumu = fma(-b, q->fu, q->sumu);
    if (BELOW(side, l))
        q->sumv = fma(-b, q->fv, q->sumv);
}

/* the backward sweep of the two blocks of the half on side `side`
   together, outward from each twist row m, x[m] = y[m] r[m] - fu x[above]
   - fv x[below], over nodes m - 1 down to m - len and m + 1 up to
   m + len, as forward_together; xu and xv are the x of the separators
   above and below each block */
static inline __attribute__((always_inline)) void
backward_together(const struct sweep *s, struct block *q, int side,
                  ptrdiff_t len, const double *xu, const double *xv)
{
    double xa[2] = {0.0, 0.0}, xb[2] = {0.0, 0.0};
    ptrdiff_t j, m[2];
    int l;

#pragma GCC unroll 2
    for (l = 0; l < 2; l++) {
        double w;

        m[l] = q[l].m;
        if (q[l].lo == q[l].hi)
            continue;
        w = s->out[m[l]];
        if (ABOVE(side, l))
            w = fma(-xu[l], q[l].fu, w);
        if (BELOW(side, l))
            w = fma(-xv[l], q[l].fv, w);
        s->out[m[l]] = xa[l] = xb[l] = w;
    }
    for (j = 1; j <= len; j++) {
#pragma GCC unroll 2
        for (l = 0; l < 2; l++) {
            const ptrdiff_t i = m[l] - j, k = m[l] + j;
            double wu = s->out[i], wd = s->out[k];

            if (ABOVE(side, l))
                wu = fma(-xu[l], s->f[i], wu);
            xa[l] = backward(s, i, xa[l], s->e[i], wu);
            if (BELOW(side, l))
                wd = fma(-xv[l], s->f[k], wd);
            xb[l] = backward(s, k, xb[l], s->e[k - 1], wd);
        }
    }
#pragma GCC unroll 2
    for (l = 0; l < 2; l++) {
        q[l].up.x = xa[l];
        q[l].down.x = xb[l];
    }
}

/* the rest of the backward sweep of block l after backward_together over
   len nodes: each chain alone out to the block's ends */
static inline __attribute__((always_inline)) void
backward_rest(const struct sweep *s, struct block *q, int side, int l,
              ptrdiff_t len, double xu, double xv)
{
    ptrdiff_t i;

    if (q->lo == q->hi)
        return;
    for (i = q->m - len - 1; i >= q->lo; i--) {
        const double w = ABOVE(side, l) ? fma(-xu, s->f[i], s->out[i])
                                        : s->out[i];

        q->up.x = backward(s, i, q->up.x, s->e[i], w);
    }
    for (i = q->m + len + 1; i < q->hi; i++) {
        const double w = BELOW(side, l) ? fma(-xv, s->f[i], s->out[i])
                                        : s->out[i];

        q->down.x = backward(s, i, q->down.x, s->e[i - 1], w);
    }
}

/* the number of nodes of the up chain of q, never more than its down
   chain's */
static ptrdiff_t reach(const struct block *q)
{
    return q->m - q->lo;
}

/* the nodes both blocks of a half sweep together */
static ptrdiff_t together(const struct half *a)
{
    return reach(&a->q[0]) < reach(&a->q[1]) ? reach(&a->q[0])
                                               : reach(&a->q[1]);
}


/* The forward sweep of the half a on side `side`, from b in out: its four
   chains and twist rows, then its separator t, y[t] = (b[t] + the upper
   block's sum) + the lower block's, whose y[t] r[t] goes into out[t].
   Returns the half's sum toward the interface row: its block's next to
   it, then f[t] y[t]. */
static inline __attribute__((always_inline)) double
forward_half(const struct sweep *s, struct half *a, int side)
{
    struct block *q = a->q;
    const ptrdiff_t len = together(a);
    double y;

    start(s, &q[0], side, 0);
    start(s, &q[1], side, 1);
    forward_together(s, q, side, len);
    forward_rest(s, &q[0], side, 0, len);
    forward_rest(s, &q[1], side, 1, len);
    y = (s->out[a->t] + q[0].sumv) + q[1].sumu;
    s->out[a->t] = y * s->r[a->t];
    return fma(-y, s->f[a->t], side == LEFT ? q[1].sumv : q[0].sumu);
}

/* the backward sweep of the half a on side `side` from x[s], the
   interface row's x: x[t] = y[t] r[t] - f[t] x[s], then the blocks */
static inline __attribute__((always_inline)) void
backward_half(const struct sweep *s, struct half *a, int side, double xs)
{
    struct block *q = a->q;
    const ptrdiff_t len = together(a);
    const double xt = fma(-xs, s->f[a->t], s->out[a->t]);
    const double xu[2] = {side == LEFT ? 0.0 : xs, xt};
    const double xv[2] = {xt, side == LEFT ? xs : 0.0};

    s->out[a->t] = xt;
    backward_together(s, q, side, len, xu, xv);
    backward_rest(s, &q[0], side, 0, len, xu[0], xv[0]);
    backward_rest(s, &q[1], side, 1, len, xu[1], xv[1]);
}

/* The sweeps of each side, built once (FMA_CLONES) for the step on one
   thread and for the threads of a split call. */
static FMA_CLONES double forward_left(const struct sweep *s, struct half *a)
{
    return forward_half(s, a, LEFT);
}

static FMA_CLONES double forward_right(const struct sweep *s, struct half *a)
{
    return forward_half(s, a, RIGHT);
}

static FMA_CLONES void backward_left(const struct sweep *s, struct half *a,
                                     double xs)
{
    backward_half(s, a, LEFT, xs);
}

static FMA_CLONES void backward_right(const struct sweep *s, struct half *a,
                                      double xs)
{
    backward_half(s, a, RIGHT, xs);
}

/* x[s] from b[s] and the halves' sums, left first; out[s] gets it
   flushed; returns it unflushed */
static inline __attribute__((always_inline)) double
interface(const struct sweep *s, ptrdiff_t i, double b, double left,
          double right)
{
    const double x = ((b + left) + right) * s->r[i];

    s->out[i] = flush(x);
    return x;
}

/* The flush of the half a's entries of out, eight at a time, and their
   sup, or the first NaN among them. */
static FMA_CLONES double
settle(const struct sweep *s, const struct half *a)
{
    const mask4 sign = {INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN};
    vec4 top4[2] = {{-INFINITY, -INFINITY, -INFINITY, -INFINITY},
                    {-INFINITY, -INFINITY, -INFINITY, -INFINITY}};
    mask4 nan4 = {0, 0, 0, 0};
    double top = -INFINITY;
    int nan = 0;
    ptrdiff_t i;

    for (i = a->lo; i + 8 <= a->hi; i += 8) {
#pragma GCC unroll 2
        for (int l = 0; l < 2; l++) {
            vec4 x;
            mask4 small, above;

            memcpy(&x, s->out + i + 4 * l, sizeof x);
            nan4 |= x != x;
            small = (vec4)((mask4)x & ~sign) < DBL_MIN;
            x = (vec4)((mask4)x & ~small);
            memcpy(s->out + i + 4 * l, &x, sizeof x);
            above = x > top4[l];
            top4[l] = (vec4)(((mask4)x & above) | ((mask4)top4[l] & ~above));
        }
    }
    for (; i < a->hi; i++) {
        s->out[i] = flush(s->out[i]);
        nan |= s->out[i] != s->out[i];
        top = sup(top, s->out[i]);
    }
    for (int l = 0; l < 8; l++) {
        nan |= nan4[l % 4] != 0;
        top = sup(top, top4[l / 4][l % 4]);
    }
    for (i = a->lo; nan && i < a->hi; i++)
        if (s->out[i] != s->out[i])
            return s->out[i];
    return top;
}

/* the run's sup from its left half's (out[s] included) and its right
   half's, the first NaN of the two if any */
static double run_top(double left, double right)
{
    if (left != left)
        return left;
    if (right != right)
        return right;
    return sup(left, right);
}

/* step k of run r of the field m->u into out, its sup into m->tops[r]:
   each half's four chains together, the left half first */
static inline __attribute__((always_inline)) void
run_sweeps(const struct kpp_march *m, const struct sweep *s, ptrdiff_t k,
           ptrdiff_t r)
{
    struct half h[2];
    ptrdiff_t i;
    double left, right, xs;

    halves(m, s, r, k, h);
    i = h[LEFT].hi;
    load_rhs(s, &h[LEFT], h[LEFT].lo, h[RIGHT].hi);
    left = forward_left(s, &h[LEFT]);
    right = forward_right(s, &h[RIGHT]);
    xs = interface(s, i, s->out[i], left, right);
    backward_left(s, &h[LEFT], xs);
    backward_right(s, &h[RIGHT], xs);
    m->tops[r] = run_top(sup(settle(s, &h[LEFT]), s->out[i]),
                         settle(s, &h[RIGHT]));
}

/* step k of the field m->u into out, each run's sup into m->tops */
static void kpp_step(const struct kpp_march *m, ptrdiff_t k, double *out)
{
    const struct sweep s = {m->u, m->r, m->e, m->f, out, m->nus != NULL};

    for (ptrdiff_t r = 0; r < m->runs; r++)
        run_sweeps(m, &s, k, r);
}

/* whether some run's reaction gate trips before step k:
   dta[r][k] * max(1, 2 tops[r] - 1) > limit, as Python rounds and compares
   it (so a NaN passes); dta is inf where a run's CFL gate trips */
static int refused(const struct kpp_march *m, ptrdiff_t k)
{
    for (ptrdiff_t r = 0; r < m->runs; r++) {
        const double f = 2.0 * m->tops[r] - 1.0;

        if (m->dta[r * m->steps + k] * (f > 1.0 ? f : 1.0) > m->limit)
            return 1;
    }
    return 0;
}

/* the buffer step k of a call that ends at k1 writes into: out and the
   work buffer in turn, so that the last step writes into out; the field
   the step reads is the other one, or the field the call started from */
static double *following(const struct kpp_march *m, ptrdiff_t k,
                         ptrdiff_t k1, double *out)
{
    return (k1 - k) % 2 == 1 ? out : m->spare;
}

/* kpp_steps calls in flight, in every thread of the process */
static atomic_int in_flight;

/* the calls that will not split, and how many the last stall stopped (0
   once a split call ran without one): a CPU another program keeps busy
   stalls every split march of the process */
static atomic_int skip, backoff;

/* what one thread of a split call hands the other at step `step`, on a
   cache line of its own */
struct post {
    alignas(64) atomic_ptrdiff_t step;
    double value[3];
    const double *u;
    int stop;                  /* from the left: the split ends here */
    int stalled;               /* from the right: its last wait stalled */
};

/* A split call from step k to k1 (into out).  The right thread posts
   `right` at step -1 once it runs.  Until the left reads that post, it
   makes whole steps alone; then it posts `left` at the step k both start
   from, with the field u, or a stop.  At each later step the right posts
   b[s], its half's sum and its half's sup after the step before (unread
   at the first), and the left posts x[s], or a stop.  Each side reads the
   other's post before it posts again, so a post is never written while it
   is read. */
struct split {
    struct kpp_march *m;
    ptrdiff_t k1;
    double *out;
    struct post right, left;
    double top[2];             /* each half's sup after step k1 - 1 */
    long long limit;           /* ns a handoff waits before it stalls */
    int stalled;               /* a handoff stalled, which ended the split */
};

static void hand(struct post *p, ptrdiff_t k)
{
    atomic_store_explicit(&p->step, k, memory_order_release);
}

/* the step of the last post (posts only move forward) */
static ptrdiff_t posted(struct post *p)
{
    return atomic_load_explicit(&p->step, memory_order_acquire);
}

static long long nanoseconds(void)
{
    struct timespec t;

    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1000000000LL + t.tv_nsec;
}

/* wait for a post of step k or later: poll, and yield the CPU between
   rounds of polls, since the other thread may be waiting for this CPU.
   Returns whether the wait took `limit` ns or longer (the clock is read
   only once a wait outlasts a round of 256 polls).  The threads give the
   first step of a split four times their limit: the new thread's first
   step is a cold one. */
static int await(struct post *p, ptrdiff_t k, long long limit)
{
    long long since = 0;
    int stalled = 0;

    for (unsigned i = 1; posted(p) < k; i++) {
        if (i % 256 == 0 && !stalled) {
            if (since == 0)
                since = nanoseconds();
            else
                stalled = nanoseconds() - since >= limit;
        }
        if (i % SPINS == 0)
            sched_yield();
#if defined(__x86_64__) || defined(__i386__)
        else
            __builtin_ia32_pause();
#endif
    }
    return stalled;
}

/* the right thread's steps, from the step the left posts until it posts a
   stop or step k1 - 1 is made */
static void right_steps(struct split *p)
{
    const struct kpp_march *m = p->m;
    const double *u;
    double top = 0.0;
    ptrdiff_t k, k0;
    int stalled = 0;

    hand(&p->right, -1);
    await(&p->left, 0, 0);
    if (p->left.stop)
        return;
    k = k0 = posted(&p->left);
    u = p->left.u;
    p->right.stalled = 0;
    for (; k < p->k1; k++) {
        const struct sweep s = {u, m->r, m->e, m->f,
                                following(m, k, p->k1, p->out),
                                m->nus != NULL};
        struct half h[2];

        halves(m, &s, 0, k, h);
        load_rhs(&s, &h[RIGHT], h[RIGHT].lo, h[RIGHT].hi);
        p->right.value[1] = forward_right(&s, &h[RIGHT]);
        p->right.value[0] = rhs(&s, &h[RIGHT], h[LEFT].hi);
        p->right.value[2] = top;
        p->right.stalled = stalled;
        hand(&p->right, k);
        stalled = await(&p->left, k + 1, k > k0 ? p->limit : 4 * p->limit);
        if (p->left.stop)
            return;
        backward_right(&s, &h[RIGHT], p->left.value[0]);
        top = settle(&s, &h[RIGHT]);
        u = s.out;
    }
    p->top[RIGHT] = top;
}

static void *right_thread(void *p)
{
#if defined(__x86_64__)
    _mm_setcsr(_mm_getcsr() | _MM_FLUSH_ZERO_ON);
#endif
    right_steps(p);
    return NULL;
}

/* the left (calling) thread's steps of a split call from step k, which
   the gate has passed; returns the step it stopped before: k1, one whose
   gate trips, one that another call in flight reached first, or one
   whose handoffs stalled, which the caller then makes on one thread.  It
   sweeps the left half of step k before it reads the right's post, and
   reads the gate of step k from the sups the post completes; a refused
   step's sweep wrote only into the buffer that step would have made.  (The left posts step k + 1 at step
   k, since it posted the start at step k.) */
static ptrdiff_t left_steps(struct split *p, ptrdiff_t k)
{
    struct kpp_march *m = p->m;
    const ptrdiff_t k0 = k;
    double *top = &p->top[LEFT];
    int stalled;

    for (; k < p->k1; k++) {
        const struct sweep s = {m->u, m->r, m->e, m->f,
                                following(m, k, p->k1, p->out),
                                m->nus != NULL};
        struct half h[2];
        double b, left, right, xs;

        halves(m, &s, 0, k, h);
        load_rhs(&s, &h[LEFT], h[LEFT].lo, h[LEFT].hi);
        left = forward_left(&s, &h[LEFT]);
        stalled = await(&p->right, k, k > k0 ? p->limit : 4 * p->limit) ||
                  p->right.stalled;
        b = p->right.value[0];
        right = p->right.value[1];
        if (k > k0)
            m->tops[0] = run_top(*top, p->right.value[2]);
        if (stalled || (k > k0 && (atomic_load_explicit(
                &in_flight, memory_order_relaxed) > 1 || refused(m, k)))) {
            p->stalled = stalled;
            p->left.stop = 1;
            hand(&p->left, k + 1);
            return k;
        }
        xs = interface(&s, h[LEFT].hi, b, left, right);
        p->left.value[0] = xs;
        hand(&p->left, k + 1);
        backward_left(&s, &h[LEFT], xs);
        *top = sup(settle(&s, &h[LEFT]), s.out[h[LEFT].hi]);
        m->u = s.out;
    }
    return k;
}

/* The steps k to k1 - 1 of a march, from the field m->u with sups m->tops,
   into out and the work buffer in turn (following).  Before each step it
   reads every run's gate (refused), the runs in order.  At the first step
   where a gate trips it returns k without making the step; k1 when every
   step is made.  m->u and m->tops
   are left at the field made last.  With a split call, from the first
   step at which its right thread has posted that it runs and no other
   call is in flight, the run's halves are swept on two threads
   (left_steps, whose sups split_steps reads once the thread is joined). */
static ptrdiff_t march_steps(struct kpp_march *m, ptrdiff_t k, ptrdiff_t k1,
                             double *out, struct split *p)
{
    for (; k < k1 && !refused(m, k); k++) {
        double *next = following(m, k, k1, out);

        if (p != NULL && posted(&p->right) == -1 &&
                atomic_load_explicit(&in_flight, memory_order_relaxed) == 1) {
            p->left.u = m->u;
            p->left.stop = 0;
            hand(&p->left, k);
            return left_steps(p, k);
        }
        if (p != NULL) {
            const long long t = nanoseconds();
            long long four;

            kpp_step(m, k, next);
            four = 4 * (nanoseconds() - t);
            p->limit = four > STALL ? four : STALL;
        } else {
            kpp_step(m, k, next);
        }
        m->u = next;
    }
    return k;
}

/* Steps k to k1 - 1 of a lone run, with a second thread to sweep its
   right half once it runs (march_steps); returns where they stopped. */
static ptrdiff_t split_steps(struct kpp_march *m, ptrdiff_t k, ptrdiff_t k1,
                             double *out)
{
    struct split p = {.m = m, .k1 = k1, .out = out, .limit = STALL};
    pthread_attr_t attr;
    pthread_t thread;
    sigset_t all, old;
    int failed;

    atomic_init(&p.right.step, -2);
    atomic_init(&p.left.step, -2);
    if (pthread_attr_init(&attr) != 0)
        return k;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    failed = pthread_attr_setstacksize(&attr, STACK) != 0 ||
             pthread_create(&thread, &attr, right_thread, &p) != 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
    if (failed)
        return k;
    k = march_steps(m, k, k1, out, &p);
    if (posted(&p.left) == -2) {
        p.left.stop = 1;            /* the thread never ran in time, */
        p.stalled = 1;              /* as if its CPU were busy */
        hand(&p.left, 0);
    }
    pthread_join(thread, NULL);
    if (k == k1 && posted(&p.left) >= 0 && !p.left.stop) {
        m->tops[0] = run_top(p.top[LEFT], p.top[RIGHT]);
        atomic_store_explicit(&backoff, 0, memory_order_relaxed);
    }
    if (p.stalled) {
        int calls = atomic_load_explicit(&backoff, memory_order_relaxed);

        calls = calls == 0 ? 1 : 2 * calls < BACKOFF ? 2 * calls : BACKOFF;
        atomic_store_explicit(&backoff, calls, memory_order_relaxed);
        atomic_store_explicit(&skip, calls, memory_order_relaxed);
    }
    return k;
}

/* The steps k to k1 - 1 of a march (march_steps).  A march of one run
   marked split is swept on two threads while no other call is in flight,
   but for the next 1, 2, 4, ... BACKOFF such calls in the process after
   calls whose handoffs stalled.  A call that stops at a refused step leaves the field it made
   last in out, so that no call starts from the work buffer. */
ptrdiff_t kpp_steps(struct kpp_march *m, ptrdiff_t k, ptrdiff_t k1,
                    double *out)
{
#if defined(__x86_64__)
    const unsigned csr = _mm_getcsr();

    _mm_setcsr(csr | _MM_FLUSH_ZERO_ON);
#endif
    const int alone = atomic_fetch_add(&in_flight, 1) == 0;

    if (m->split && m->runs == 1 && alone && k < k1) {
        if (atomic_load_explicit(&skip, memory_order_relaxed) > 0)
            atomic_fetch_sub_explicit(&skip, 1, memory_order_relaxed);
        else
            k = split_steps(m, k, k1, out);
    }
    k = march_steps(m, k, k1, out, NULL);
    if (m->u == m->spare) {
        memcpy(out, m->spare, m->bounds[m->runs] * sizeof *out);
        m->u = out;
    }
    atomic_fetch_sub(&in_flight, 1);
#if defined(__x86_64__)
    _mm_setcsr(csr);
#endif
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

/* The elimination of the block [lo, hi) (nothing when lo == hi) whose up
   chain couples to the separator above it (`above`, row lo - 1) and down
   chain to the one below (`below`, row hi): the up chain rows lo to m - 1
   top-down and the down chain rows hi - 1 to m + 1 bottom-up, each as
   LAPACK dpttrf (netlib's operations in netlib's order) on its block of
   rows, [lo, m] and [m, hi) flipped, then the twist row m.  g, a chain's
   coupling to its separator, starts as e[lo - 1] or e[hi - 1]; each row j
   of the chain gets f[j] = g / d[j], flushed to 0 below DBL_MIN, takes
   f[j] g off the separator's pivot (*du or *dv) and passes g = -(e g) on,
   with e the row's new multiplier; the twist row ends both chains so,
   with fu and fv.  f[m] gets fu (fv where there is no separator above)
   and *fv fv.  *c gets the separators' coupling: the original one when
   the block is empty, else -(fu g) with the lower chain's g.  Returns
   dpttrf's info, 0 or j + 1 at the first pivot d[j] <= 0. */
static ptrdiff_t eliminate(double *d, double *e, double *f, ptrdiff_t lo,
                           ptrdiff_t hi, int above, int below, double *du,
                           double *dv, double *fv, double *c)
{
    const ptrdiff_t m = twist(lo, hi);
    double gu = above ? e[lo - 1] : 0.0, gv = below ? e[hi - 1] : 0.0;
    double ei, fu;
    ptrdiff_t j;

    if (lo == hi) {
        if (above && below)
            *c = e[lo - 1];
        return 0;
    }
    for (j = lo; j < m; j++) {
        if (d[j] <= 0.0)
            return j + 1;
        ei = e[j];
        e[j] = ei / d[j];
        d[j + 1] = d[j + 1] - e[j] * ei;
        f[j] = 0.0;
        if (above) {
            f[j] = flush(gu / d[j]);
            *du = *du - f[j] * gu;
            gu = -(e[j] * gu);
        }
    }
    for (j = hi - 1; j > m; j--) {
        if (d[j] <= 0.0)
            return j + 1;
        ei = e[j - 1];
        e[j - 1] = ei / d[j];
        d[j - 1] = d[j - 1] - e[j - 1] * ei;
        f[j] = 0.0;
        if (below) {
            f[j] = flush(gv / d[j]);
            *dv = *dv - f[j] * gv;
            gv = -(e[j - 1] * gv);
        }
    }
    if (d[m] <= 0.0)
        return m + 1;
    fu = above ? flush(gu / d[m]) : 0.0;
    *fv = below ? flush(gv / d[m]) : 0.0;
    if (above)
        *du = *du - fu * gu;
    if (below)
        *dv = *dv - *fv * gv;
    if (above && below)
        *c = -(fu * gv);
    f[m] = above ? fu : *fv;
    return 0;
}

/* The factor L D L^T of the symmetric tridiagonal matrix with diagonal d
   (n = bounds[runs] entries) and off-diagonal e (n - 1) in the order of
   the step, each run's rows [lo, hi) on their own: the left half, whose
   blocks [lo, t) and [t + 1, s) (eliminate) come before its separator t,
   the right half alike, then the interface row s.  A separator's pivot
   takes its upper block's terms, then its lower block's; s's takes the
   left half's (its lower block's, then f[t] c with c the coupling of t
   and s), then the right half's.  d and e are written over: e[j] is the
   multiplier of the row of the pair (j, j + 1) eliminated first (the
   couplings to separators and s keep their values, which the step does
   not read), f[j] the fill multiplier of row j to the separator its chain
   couples to, or of separator j to s (0 on the rows of no fill chain and
   on s), f[n + 2 k] and f[n + 2 k + 1] of run k the twist rows' fill
   multipliers to s and to the right separator of the two blocks next to
   s, and r[j] = 1 / d[j] rounded toward zero, which the step multiplies
   by in place of dividing by d[j].  e[hi - 1] between two runs is neither
   read nor written.  Returns dpttrf's info: 0, or j + 1 where d[j] is the
   first non-positive pivot in that order, the runs in order; r is left
   unfinished where info is not 0.  r may be d: each run's reciprocals are
   written once its factor is done. */
ptrdiff_t kpp_factor(ptrdiff_t runs, const ptrdiff_t *bounds, double *d,
                     double *e, double *f, double *r)
{
    const ptrdiff_t n = bounds[runs];

    for (ptrdiff_t k = 0; k < runs; k++) {
        const ptrdiff_t lo = bounds[k], hi = bounds[k + 1], i = twist(lo, hi);
        double di = d[i], unused = 0.0;
        ptrdiff_t info;

        for (int side = LEFT; side <= RIGHT; side++) {
            const ptrdiff_t a = side == LEFT ? lo : i + 1;
            const ptrdiff_t b = side == LEFT ? i : hi, t = twist(a, b);
            double dt = d[t], c = 0.0;

            f[n + 2 * k + side] = 0.0;
            if (side == LEFT)
                info = eliminate(d, e, f, a, t, 0, 1, &unused, &dt, &unused,
                                 &unused);
            else
                info = eliminate(d, e, f, a, t, 1, 1, &di, &dt,
                                 &f[n + 2 * k + side], &c);
            if (info != 0)
                return info;
            if (side == LEFT)
                info = eliminate(d, e, f, t + 1, b, 1, 1, &dt, &di,
                                 &f[n + 2 * k + side], &c);
            else
                info = eliminate(d, e, f, t + 1, b, 1, 0, &dt, &unused,
                                 &unused, &unused);
            if (info != 0)
                return info;
            d[t] = dt;
            if (dt <= 0.0)
                return t + 1;
            f[t] = flush(c / dt);
            di = di - f[t] * c;
        }
        d[i] = di;
        f[i] = 0.0;
        if (di <= 0.0)
            return i + 1;
        for (ptrdiff_t j = lo; j < hi; j++)
            r[j] = reciprocal(d[j]);
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
