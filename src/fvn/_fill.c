/* Block fill of comparison-method variates.

   fvn_fill is samplers.comparison_draw step for step: the pooled sign
   word, the frexp selection or the bisection of the cumulative masses,
   the position, the run test with its MAX_RUN_LENGTH cap, the
   last-in-first-out recycled store, the exp_vn restart and the
   MAX_TRIALS cap.  It reads the same doubles in the same order and does
   the same IEEE operations, so built with -ffp-contract=off (no fused
   multiply-add) it makes the same values bit for bit.

   Fresh words come from buf while pos < nbuf.  Past its end they come
   from the engine, when there is one: numpy's bitgen_t, which fvn_bitgen
   mirrors (numpy/random/bitgen.h), read with next_raw as random_raw reads
   it, so the words and their order are the engine's stream.  pos then
   counts on past nbuf, and the caller holds the engine's lock.

   It makes up to n variates, writing each value to out[v] and the fresh
   words spent by the end of it, spent + position, to counts[v].  It stops
   early in these cases:
     FILL_EMPTY     with no engine, a variate ran off the buffer's end.
                    The state is left at the start of that variate, for
                    the caller to make it with the composed draw, which
                    refills the buffer, and fill on from there.
     FILL_OVERFLOW  a run reached MAX_RUN_LENGTH.  The state is committed
                    as the composed draw leaves it when it raises.
     FILL_TRIALS    a variate's MAX_TRIALS-th trial was rejected.  The
                    state is committed as for FILL_OVERFLOW.
   The store must have room for nstore + n values: a variate pushes at
   most one. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define WORD_BITS 53
#define UNIT 9007199254740992.0 /* 2**WORD_BITS */
#define MAX_RUN_LENGTH 64
#define MAX_TRIALS 1024

enum { FILL_DONE = 0, FILL_EMPTY = 1, FILL_OVERFLOW = 2, FILL_TRIALS = 3 };

typedef struct {
    const double *rows; /* IntervalTable.by_k, 4 per index: lo, width, top, lo_sq */
    const double *cum;  /* IntervalTable.cum_probs, NULL on a dyadic table */
    int64_t ncum;
    int64_t normal;
    int64_t restart;
    int64_t recycling;
} fvn_kernel;

/* numpy/random/bitgen.h's bitgen_t, field for field */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} fvn_bitgen;

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
    const fvn_bitgen *engine;   /* NULL: stop with FILL_EMPTY */
} fvn_state;

int64_t fvn_fill(const fvn_kernel *kn, fvn_state *s, double *out,
                 int64_t *counts, int64_t n)
{
    const double *buf = s->buf, *cum = kn->cum;
    const fvn_bitgen *eng = s->engine;
    const int64_t nbuf = s->nbuf, ncum = kn->ncum, spent = s->spent;
    const int normal = kn->normal != 0, restart = kn->restart != 0;
    const int recycling = kn->recycling != 0;
    double *store = s->store;
    int64_t i = s->pos, r = s->nstore, nb = s->sign_bits, sw = s->sign_word;
    int64_t made;

/* A fresh word, or the recycled store's top and a fresh word once empty. */
#define FRESH(dst) do {                                                 \
        if (i < nbuf)                                                   \
            (dst) = buf[i];                                             \
        else if (eng != NULL)                                           \
            (dst) = (double)(eng->next_raw(eng->state) >> (64 - WORD_BITS)) \
                    / UNIT;                                             \
        else                                                            \
            goto empty;                                                 \
        i++;                                                            \
    } while (0)
#define UNIFORM(dst) do { if (r) (dst) = store[--r]; else FRESH(dst); } while (0)

    for (made = 0; made < n; made++) {
        double sign = 1.0, x = 0.0, held = 0.0, u;
        int has_held = 0;
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
                   is 2m - 1.  A zero word clamps k to WORD_BITS. */
                int e;
                double m;
                FRESH(u);
                m = frexp(u, &e);
                j = m != 0.0 ? -e : WORD_BITS - 1;
                if (recycling && j < WORD_BITS - 1) {
                    held = m + m - 1.0;
                    has_held = 1;
                }
            } else {
                int64_t lo = 0, hi = ncum;
                if (has_held) {         /* a restart */
                    u = held;
                    has_held = 0;
                } else {
                    UNIFORM(u);
                }
                while (lo < hi) {       /* bisect_right */
                    int64_t mid = (lo + hi) / 2;
                    if (u < cum[mid])
                        hi = mid;
                    else
                        lo = mid + 1;
                }
                j = lo;
            }
            row = kn->rows + 4 * j;
            for (;;) {
                double g, prev;
                if (has_held)
                    u = held;
                else
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
                    if (run >= MAX_RUN_LENGTH)
                        goto overflow;
                    prev = u;
                }
                has_held = 0;
                if (recycling && prev < 1.0) {
                    double v = (u - prev) / (1.0 - prev);
                    if (v < 1.0) {
                        held = v;
                        has_held = 1;
                    }
                }
                if (!(run & 1) && ++trials >= MAX_TRIALS) {
                    if (has_held)
                        store[r++] = held;
                    s->status = FILL_TRIALS;
                    goto commit;
                }
                if ((run & 1) || restart)
                    break;
            }
            if (run & 1)
                break;
        }
        if (has_held)
            store[r++] = held;
        out[made] = sign * x;
        counts[made] = spent + i;
        s->pos = i;
        s->nstore = r;
        s->sign_bits = nb;
        s->sign_word = sw;
    }
    s->status = FILL_DONE;
    return made;

empty:
    s->status = FILL_EMPTY;
    return made;

overflow:
    s->status = FILL_OVERFLOW;
commit:
    s->pos = i;
    s->nstore = r;
    s->sign_bits = nb;
    s->sign_word = sw;
    return made;
#undef FRESH
#undef UNIFORM
}
