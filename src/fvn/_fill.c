/* The two compiled kernels of fvn: fvn_fill, the block fill of
   comparison-method variates, and fvn_refresh, one pass of the Wallace
   pool's regroup.

   fvn_fill is samplers.comparison_draw step for step: the pooled sign
   word, the frexp selection or the bisection of the cumulative masses,
   either clamped to K as tables.select_interval clamps it, the position
   in that interval's row of IntervalTable.by_k, the run test with its
   MAX_RUN_LENGTH cap, the last-in-first-out recycled store, the exp_vn
   restart and the MAX_TRIALS cap.  It reads the same doubles in the same
   order and does the same IEEE operations, so built with -ffp-contract=off
   (no fused multiply-add) it makes the same values bit for bit.

   Fresh words come from buf while pos < nbuf, then from the engine: a
   bitgen_t of numpy's own header, numpy/random/bitgen.h, read with
   next_raw as random_raw reads it, so the words and their order are the
   engine's stream.  pos then counts on past nbuf, and the caller holds
   the engine's lock.

   It makes up to n variates, writing each value to out[v] and the fresh
   words spent by the end of it, spent + position, to counts[v].  The
   position, the store's depth and the sign pool are written back to s
   once, when it returns.  It stops early in these cases:
     FILL_OVERFLOW  a run reached MAX_RUN_LENGTH.  The state is left as
                    the composed draw leaves it when it raises.
     FILL_TRIALS    a variate's MAX_TRIALS-th trial was rejected.  The
                    state is left as for FILL_OVERFLOW.
   Each leftover is pushed onto the store, and popped from it, as the
   composed draw does.  Within a variate every push but the last is
   popped before the next push, so the store must have room for
   nstore + n values. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <numpy/random/bitgen.h>

#define WORD_BITS 53
#define UNIT 9007199254740992.0 /* 2**WORD_BITS */
#define MAX_RUN_LENGTH 64
#define MAX_TRIALS 1024

enum { FILL_DONE = 0, FILL_OVERFLOW = 1, FILL_TRIALS = 2 };

typedef struct {
    const double *rows; /* IntervalTable.by_k: lo, width, top, lo_sq per interval */
    const double *cum;  /* IntervalTable.cum_probs, NULL on a dyadic table */
    int64_t K;          /* the intervals; on a mass table, the length of cum */
    int64_t normal;
    int64_t restart;
    int64_t recycling;
} fvn_kernel;

typedef struct {
    const double *buf;
    int64_t nbuf;
    int64_t pos;
    int64_t spent;
    double *store;
    int64_t nstore;
    int64_t sign_bits;
    int64_t sign_word;
    int64_t status;
    const bitgen_t *engine;
} fvn_state;

int64_t fvn_fill(const fvn_kernel *kn, fvn_state *s, double *out,
                 int64_t *counts, int64_t n)
{
    const double *buf = s->buf, *cum = kn->cum;
    const bitgen_t *eng = s->engine;
    const int64_t nbuf = s->nbuf, K = kn->K, spent = s->spent;
    const int normal = kn->normal != 0, restart = kn->restart != 0;
    const int recycling = kn->recycling != 0;
    double *store = s->store;
    int64_t i = s->pos, r = s->nstore, nb = s->sign_bits, sw = s->sign_word;
    int64_t made;

/* A fresh word, or the recycled store's top and a fresh word once empty. */
#define FRESH(dst) do {                                                 \
        if (i < nbuf)                                                   \
            (dst) = buf[i];                                             \
        else                                                            \
            (dst) = (double)(eng->next_raw(eng->state) >> (64 - WORD_BITS)) \
                    / UNIT;                                             \
        i++;                                                            \
    } while (0)
#define UNIFORM(dst) do { if (r) (dst) = store[--r]; else FRESH(dst); } while (0)

    s->status = FILL_DONE;
    for (made = 0; made < n; made++) {
        double sign = 1.0, x = 0.0, u;
        int64_t run, trials = 0;

        if (normal) {
            if (nb == 0) {
                FRESH(u);
                sw = (int64_t)(u * UNIT);
                nb = WORD_BITS;
            }
            nb--;
            sign = ((sw >> nb) & 1) ? 1.0 : -1.0;
        }
        for (;;) {
            const double *row;
            int64_t j;
            if (cum == NULL) {
                /* j = k - 1 from u = m * 2**-j, m in [1/2, 1); the leftover
                   is 2m - 1.  A zero word clamps k to WORD_BITS, and the
                   tail beyond a_K folds into K, after the leftover. */
                int e;
                double m;
                FRESH(u);
                m = frexp(u, &e);
                j = m != 0.0 ? -e : WORD_BITS - 1;
                if (recycling && j < WORD_BITS - 1)
                    store[r++] = m + m - 1.0;
                if (j >= K)
                    j = K - 1;
            } else {
                int64_t lo = 0, hi = K;
                UNIFORM(u);
                while (lo < hi) {       /* bisect_right */
                    int64_t mid = (lo + hi) / 2;
                    if (u < cum[mid])
                        hi = mid;
                    else
                        lo = mid + 1;
                }
                j = lo < K ? lo : K - 1;   /* the tail beyond a_K */
            }
            row = kn->rows + 4 * j;
            for (;;) {
                double g, prev;
                UNIFORM(u);
                if (normal) {
                    x = row[0] + row[1] * u;
                    g = (x * x - row[3]) * 0.5;
                } else {
                    g = row[1] * u;
                    x = row[0] + g;
                }
                if (!(0.0 <= g && g <= row[2]))
                    g = g < 0.0 ? 0.0 : row[2];
                prev = g;
                run = 0;
                for (;;) {
                    UNIFORM(u);
                    run++;
                    if (!(u < prev))
                        break;
                    if (run >= MAX_RUN_LENGTH) {
                        s->status = FILL_OVERFLOW;
                        goto commit;
                    }
                    prev = u;
                }
                if (recycling && prev < 1.0) {
                    double v = (u - prev) / (1.0 - prev);
                    if (v < 1.0)
                        store[r++] = v;
                }
                if (!(run & 1) && ++trials >= MAX_TRIALS) {
                    s->status = FILL_TRIALS;
                    goto commit;
                }
                if ((run & 1) || restart)
                    break;
            }
            if (run & 1)
                break;
        }
        out[made] = sign * x;
        counts[made] = spent + i;
    }

commit:
    s->pos = i;
    s->nstore = r;
    s->sign_bits = nb;
    s->sign_word = sw;
    return made;
#undef FRESH
#undef UNIFORM
}


/* wallace.refresh's regroup, as its numpy spelling does it: position i of
   the permuted order is (stride * i + offset) mod n, stepped here as
   p += step with one subtraction to wrap, step = stride mod n.  Each
   block of 4 consecutive positions, x, is read and written back as x q^T
   (numpy's blocks @ q.T), each output summed left to right as
   ((x0 q0 + x1 q1) + x2 q2) + x3 q3.  The caller passes values as n
   contiguous doubles with n a multiple of 4, 0 <= step, offset < n, and
   q as 4 x 4 row-major doubles.  The permutation is a bijection, so the
   blocks are disjoint and each is written in place. */
void fvn_refresh(double *values, int64_t n, int64_t step, int64_t offset,
                 const double *q)
{
    int64_t p = offset, b;

    for (b = 0; b < n; b += 4) {
        int64_t at[4];
        double x[4];
        int k;
        for (k = 0; k < 4; k++) {
            at[k] = p;
            x[k] = values[p];
            p += step;
            if (p >= n)
                p -= n;
        }
        for (k = 0; k < 4; k++) {
            const double *row = q + 4 * k;
            values[at[k]] = ((x[0] * row[0] + x[1] * row[1]) + x[2] * row[2])
                            + x[3] * row[3];
        }
    }
}
