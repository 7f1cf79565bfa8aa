/* The compiled kernels of fvn, an extension module built on first use and
   loaded by fvn._fill: fvn_fill, the block fill of comparison-method
   variates, and fvn_fill_source, which runs it on a UniformSource's own
   state (the module's fill_source); fvn_refresh, one pass of the Wallace
   pool's regroup; and the draw, a small object of type Draw, callable
   with no arguments through its vectorcall slot, that hands a bound
   sampler's block back to Python one float at a time and, on a numpy
   engine, refills it itself: a comparison sampler's block with
   fvn_fill_source, a Wallace pool's snapshot by beginning the next pass
   (wallace_pass), which regroups the pool and then writes the snapshot
   in one sequential sweep, reading the source's state through the same
   helpers as fvn_fill_source.  The module also exports the constants
   below that Python repeats.

   fvn_fill is samplers.comparison_draw step for step: the pooled sign
   word, the leading-zero selection (read from the exponent of u's bits)
   or the bisect_right index of u in the cumulative masses, found through
   the kernel's guide table (Chen and Asau, AIIE Trans. 6, 1974) with one
   lookup and a short scan, either clamped to K as tables.select_interval
   clamps it, the position in that interval's row of IntervalTable.by_k,
   the run test with its MAX_RUN_LENGTH cap, the last-in-first-out
   recycled store, the exp_vn restart and the MAX_TRIALS cap.  It reads
   the same doubles in the same order and does the same IEEE operations,
   so built with -ffp-contract=off (no fused multiply-add) it makes the
   same values bit for bit.

   Fresh words come from buf, the source's own buffer.  Once it is used
   up, source_refill refills it in place from the engine, a bitgen_t of
   numpy's own header, numpy/random/bitgen.h, read with next_raw as
   random_raw reads it, and the used-up words join spent.  The caller,
   fvn_fill_source, holds the engine's lock.

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

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <math.h>
#include <string.h>
#include <numpy/random/bitgen.h>

#define WORD_BITS 53
#define UNIT 9007199254740992.0 /* 2**WORD_BITS */
#define MANTISSA (((uint64_t)1 << 52) - 1) /* a double's fraction bits */
#define MAX_RUN_LENGTH 64
#define MAX_TRIALS 1024
#define TWO_PI (2.0 * 3.14159265358979323846) /* samplers._TWO_PI */
#define GUIDE_LEN 256 /* a mass table's guide entries; a power of two */
#define BUFFER_WORDS 1024 /* bitstream._BUFFER_WORDS: the words of a refill */

enum { FILL_DONE = 0, FILL_OVERFLOW = 1, FILL_TRIALS = 2 };

/* A table's kernel, built by the module's kernel(): it holds the buffers
   of the three arrays that its pointers read. */
typedef struct {
    PyObject_HEAD
    const double *rows; /* IntervalTable.by_k: lo, width, top, lo_sq per interval */
    const double *cum;  /* IntervalTable.cum_probs, NULL on a dyadic table */
    /* guide[b] = bisect_right(cum, b / GUIDE_LEN) for b < GUIDE_LEN, NULL
       on a dyadic table */
    const uint8_t *guide;
    int64_t K;          /* the intervals; on a mass table, the length of cum */
    int64_t normal;
    int64_t restart;
    int64_t recycling;
    Py_buffer views[3]; /* of rows, cum and guide */
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
    double *own;  /* the BUFFER_WORDS doubles a refill writes */
} fvn_state;

/* UniformSource._refill, in place at own, and the one place the kernels
   read the engine: its words cut to WORD_BITS bits as _refill cuts them. */
static __attribute__((cold, noinline)) void source_refill(fvn_state *s)
{
    const bitgen_t *eng = s->engine;
    int64_t k;

    for (k = 0; k < BUFFER_WORDS; k++)
        s->own[k] = (double)(eng->next_raw(eng->state) >> (64 - WORD_BITS))
                    / UNIT;
    s->spent += s->nbuf;
    s->buf = s->own;
    s->nbuf = BUFFER_WORDS;
    s->pos = 0;
}

static int64_t fvn_fill(const fvn_kernel *kn, fvn_state *s, double *out,
                        int64_t *counts, int64_t n)
{
    const double *buf = s->buf, *cum = kn->cum;
    const int64_t K = kn->K;
    const int normal = kn->normal != 0, restart = kn->restart != 0;
    const int recycling = kn->recycling != 0;
    double *store = s->store;
    int64_t i = s->pos, r = s->nstore, nb = s->sign_bits, sw = s->sign_word;
    int64_t nbuf = s->nbuf, spent = s->spent, made;

/* A fresh word, or the recycled store's top and a fresh word once empty. */
#define FRESH(dst) do {                                                 \
        if (i >= nbuf) {                                                \
            source_refill(s);                                           \
            buf = s->buf, nbuf = s->nbuf, spent = s->spent, i = 0;      \
        }                                                               \
        (dst) = buf[i++];                                               \
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
                /* j = k - 1 from u = m * 2**-j, m in [1/2, 1), read from
                   u's bits: u >= 2**-53 is never subnormal, so j = 1022 - E
                   for its biased exponent E, and m is u with E set to 1022.
                   The leftover is 2m - 1.  A zero word clamps k to
                   WORD_BITS, and the tail beyond a_K folds into K, after
                   the leftover. */
                FRESH(u);
                if (u != 0.0) {
                    uint64_t bits;
                    double m;
                    memcpy(&bits, &u, sizeof bits);
                    j = 1022 - (int64_t)(bits >> 52);
                    bits = (bits & MANTISSA) | ((uint64_t)1022 << 52);
                    memcpy(&m, &bits, sizeof m);
                    if (recycling && j < WORD_BITS - 1)
                        store[r++] = m + m - 1.0;
                } else {
                    j = WORD_BITS - 1;
                }
                if (j >= K)
                    j = K - 1;
            } else {
                /* bisect_right(cum, u): guide[b], b = floor(u G), counts
                   the masses <= b / G <= u, so the scan up from it stops
                   at the first mass above u.  u G is exact.  A u off
                   [0, 1), which a store set from Python can hold, takes
                   bucket 0 when below 0 or NaN (every mass is above 0)
                   and G - 1 when >= 1, where the scan still stops at
                   bisect_right's index; no read falls outside the guide. */
                double t;
                int64_t lo;
                UNIFORM(u);
                t = u * GUIDE_LEN;
                if (!(t >= 0.0))
                    lo = kn->guide[0];
                else if (t >= GUIDE_LEN)
                    lo = kn->guide[GUIDE_LEN - 1];
                else
                    lo = kn->guide[(int64_t)t];
                while (lo < K && !(u < cum[lo]))
                    lo++;
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


/* The names fvn_fill_source, the Wallace pass and the draw's constructors
   read and write, interned when the module loads, and math.sqrt, which the
   pass calls. */
enum { N_FLOATS, N_POS, N_SPENT, N_RECYCLED, N_SIGN_BITS, N_SIGN_WORD,
       N_LOCK, N_ACQUIRE, N_RELEASE, N_PASS_COUNT, N_NORM_SQ, N_EMIT_SCALE,
       N_VALUES, N_CAPSULE, N_NAMES };
static PyObject *names[N_NAMES];
static PyObject *math_sqrt;

static int intern_names(void)
{
    static const char *const text[N_NAMES] = {
        "_floats", "_pos", "_spent", "recycled", "_sign_bits", "_sign_word",
        "lock", "acquire", "release", "pass_count", "norm_sq", "emit_scale",
        "values", "capsule"};
    int k;

    for (k = 0; k < N_NAMES; k++)
        if (names[k] == NULL
                && (names[k] = PyUnicode_InternFromString(text[k])) == NULL)
            return -1;
    if (math_sqrt == NULL) {
        PyObject *math = PyImport_ImportModule("math");
        math_sqrt = math == NULL ? NULL : PyObject_GetAttrString(math, "sqrt");
        Py_XDECREF(math);
        if (math_sqrt == NULL)
            return -1;
    }
    return 0;
}

static int get_int(PyObject *obj, int name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, names[name]);

    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int set_int(PyObject *obj, int name, int64_t value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;

    if (v == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, names[name], v);
    Py_DECREF(v);
    return rc;
}

static int call_method(PyObject *obj, int name)
{
    PyObject *done = PyObject_CallMethodNoArgs(obj, names[name]);

    Py_XDECREF(done);
    return done == NULL ? -1 : 0;
}

/* recycled[:] = the first n values of store */
static int set_store(PyObject *rec, const double *store, int64_t n)
{
    PyObject *list = PyList_New(n);
    int64_t k;
    int rc;

    if (list == NULL)
        return -1;
    for (k = 0; k < n; k++) {
        PyObject *v = PyFloat_FromDouble(store[k]);
        if (v == NULL) {
            Py_DECREF(list);
            return -1;
        }
        PyList_SET_ITEM(list, k, v);
    }
    rc = PySequence_SetSlice(rec, 0, PY_SSIZE_T_MAX, list);
    Py_DECREF(list);
    return rc;
}

/* A UniformSource's state as fvn_fill reads it, held from source_read to
   source_write: the buffer _floats, an array("d"), the position _pos in
   it, the words _spent of the buffers used up, the store recycled and the
   sign pool _sign_bits and _sign_word, with the engine's lock held.  The
   refill of a buffer not BUFFER_WORDS long, as a new source's empty one,
   writes spare, which source_write hands to src as its new _floats. */
typedef struct {
    fvn_state s;
    PyObject *floats, *rec, *items, *lock;
    Py_buffer view;
    double *spare;
    int64_t nrec, spent, sign_bits, sign_word;
} fvn_source;

static void source_free(fvn_source *o)
{
    PyBuffer_Release(&o->view);
    PyMem_Free(o->spare);
    PyMem_Free(o->s.store);
    Py_XDECREF(o->lock);
    Py_XDECREF(o->items);
    Py_XDECREF(o->rec);
    Py_XDECREF(o->floats);
}

/* Reads the state of src into o, with room on the store for room more
   values, and takes engine.lock, as random_raw does, for reading bitgen,
   the bitgen_t of engine.  Returns 0, or -1 with a Python error set and
   nothing held. */
static int source_read(fvn_source *o, PyObject *src, PyObject *engine,
                       const bitgen_t *bitgen, int64_t room)
{
    fvn_state *s = &o->s;
    int64_t k;

    memset(o, 0, sizeof *o);
    if ((o->floats = PyObject_GetAttr(src, names[N_FLOATS])) == NULL)
        return -1;
    if (PyObject_GetBuffer(o->floats, &o->view, PyBUF_C_CONTIGUOUS
                           | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        goto fail;
    if (o->view.itemsize != sizeof(double)
            || strcmp(o->view.format, "d") != 0) {
        PyErr_SetString(PyExc_TypeError, "_floats is not an array('d')");
        goto fail;
    }
    if ((o->rec = PyObject_GetAttr(src, names[N_RECYCLED])) == NULL
            || (o->items = PySequence_Fast(o->rec,
                                           "recycled is not a list")) == NULL)
        goto fail;
    o->nrec = PySequence_Fast_GET_SIZE(o->items);
    if (room < 0
            || room > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof *s->store - o->nrec) {
        PyErr_SetString(PyExc_ValueError, "no room for n variates");
        goto fail;
    }
    s->buf = s->own = o->view.buf;
    s->nbuf = o->view.len / (Py_ssize_t)sizeof(double);
    s->store = PyMem_Malloc((size_t)(o->nrec + room) * sizeof *s->store);
    if (s->store == NULL || (s->nbuf != BUFFER_WORDS && (s->own = o->spare
            = PyMem_Malloc(BUFFER_WORDS * sizeof *s->own)) == NULL)) {
        PyErr_NoMemory();
        goto fail;
    }
    for (k = 0; k < o->nrec; k++) {
        s->store[k] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(o->items, k));
        if (s->store[k] == -1.0 && PyErr_Occurred())
            goto fail;
    }
    if (get_int(src, N_POS, &s->pos) < 0 || get_int(src, N_SPENT, &s->spent) < 0
            || get_int(src, N_SIGN_BITS, &o->sign_bits) < 0
            || get_int(src, N_SIGN_WORD, &o->sign_word) < 0)
        goto fail;
    if (s->pos < 0 || o->sign_bits < 0 || o->sign_bits > WORD_BITS) {
        PyErr_SetString(PyExc_ValueError, "the source's position or sign "
                        "pool is out of range");
        goto fail;
    }
    o->spent = s->spent;
    s->nstore = o->nrec;
    s->sign_bits = o->sign_bits;
    s->sign_word = o->sign_word;
    s->engine = bitgen;
    if ((o->lock = PyObject_GetAttr(engine, names[N_LOCK])) == NULL
            || call_method(o->lock, N_ACQUIRE) < 0)
        goto fail;
    return 0;
fail:
    source_free(o);
    return -1;
}

/* Lets the engine's lock go and writes the state of o back to src, as
   the Python lines do, then frees o: _pos, _spent once a refill moved it,
   spare as a new _floats once a refill wrote it, and recycled[:] set to
   the store left.  Returns 0, or -1 with a Python error set. */
static int source_write(fvn_source *o, PyObject *src)
{
    fvn_state *s = &o->s;
    int rc = -1;

    if (call_method(o->lock, N_RELEASE) < 0)
        goto done;
    PyBuffer_Release(&o->view);
    if (s->buf == o->spare) {
        PyObject *floats = PyObject_CallFunction(
            (PyObject *)Py_TYPE(o->floats), "sy#", "d", (const char *)o->spare,
            (Py_ssize_t)(BUFFER_WORDS * sizeof(double)));
        int set = floats == NULL ? -1
                  : PyObject_SetAttr(src, names[N_FLOATS], floats);
        Py_XDECREF(floats);
        if (set < 0)
            goto done;
    }
    if (set_int(src, N_POS, s->pos) < 0
            || (s->spent != o->spent && set_int(src, N_SPENT, s->spent) < 0)
            || ((o->nrec || s->nstore)
                && set_store(o->rec, s->store, s->nstore) < 0)
            || (s->sign_bits != o->sign_bits
                && set_int(src, N_SIGN_BITS, s->sign_bits) < 0)
            || (s->sign_word != o->sign_word
                && set_int(src, N_SIGN_WORD, s->sign_word) < 0))
        goto done;
    rc = 0;
done:
    source_free(o);
    return rc;
}

/* fvn_fill run on the state of src, a UniformSource, for both of its
   callers: UniformSource.fill_variates, through the module's fill_source,
   and the draw of a bound sampler (emit_refill below).  It reads the
   state, holds engine.lock while fvn_fill runs on bitgen, the bitgen_t of
   engine, and writes the state back (source_read, source_write).  counts
   holds n + 1 words: the draws before the fill, then those after each
   variate.
   Returns the variates made, with *status as fvn_fill sets it, or -1
   with a Python error set when the state cannot be read or written or
   the lock fails. */
static int64_t fvn_fill_source(PyObject *src, PyObject *engine,
                               const bitgen_t *bitgen, const fvn_kernel *kn,
                               double *out, int64_t *counts, int64_t n,
                               int64_t *status)
{
    fvn_source o;
    int64_t made;

    /* a variate leaves at most one more value on the store */
    if (source_read(&o, src, engine, bitgen, n) < 0)
        return -1;
    counts[0] = o.s.spent + o.s.pos;
    made = fvn_fill(kn, &o.s, out, counts + 1, n);
    *status = o.s.status;
    return source_write(&o, src) < 0 ? -1 : made;
}


/* wallace.refresh's regroup, as its numpy spelling does it: position i of
   the permuted order is (stride * i + offset) mod n, stepped here as
   p += step with one subtraction to wrap (step_on), step = stride mod n.
   Each block of 4 consecutive positions, x, is read and written back as
   x q^T, each output summed left to right as ((x0 q0 + x1 q1) + x2 q2)
   + x3 q3.  The caller passes values as n contiguous doubles with n a
   multiple of 4, 0 <= step, offset < n, and q as 4 x 4 row-major doubles.
   The permutation is a bijection, so the blocks are disjoint and each is
   written in place.  A block's positions, inputs and outputs and the 16
   entries of q are locals: q is read once, and a store to values cannot
   make the compiler read it again. */
static int64_t step_on(int64_t p, int64_t step, int64_t n)
{
    p += step;
    return p >= n ? p - n : p;
}

static void fvn_refresh(double *values, int64_t n, int64_t step,
                        int64_t offset, const double *q)
{
    const double q0 = q[0], q1 = q[1], q2 = q[2], q3 = q[3], q4 = q[4],
        q5 = q[5], q6 = q[6], q7 = q[7], q8 = q[8], q9 = q[9], q10 = q[10],
        q11 = q[11], q12 = q[12], q13 = q[13], q14 = q[14], q15 = q[15];
    int64_t p0 = offset, b;

    for (b = 0; b < n; b += 4) {
        const int64_t p1 = step_on(p0, step, n), p2 = step_on(p1, step, n),
            p3 = step_on(p2, step, n);
        const double x0 = values[p0], x1 = values[p1], x2 = values[p2],
            x3 = values[p3];
        values[p0] = ((x0 * q0 + x1 * q1) + x2 * q2) + x3 * q3;
        values[p1] = ((x0 * q4 + x1 * q5) + x2 * q6) + x3 * q7;
        values[p2] = ((x0 * q8 + x1 * q9) + x2 * q10) + x3 * q11;
        values[p3] = ((x0 * q12 + x1 * q13) + x2 * q14) + x3 * q15;
        p0 = step_on(p3, step, n);
    }
}


/* The draw, _fill.emitter's compiled spelling, as its Python spelling
   does it: values[cursor[0]] with cursor[0] stepped while cursor[0] <
   cursor[1]; otherwise the block is refilled first.  The refill rewrites
   values in place and sets the cursor, or raises, and then so does the
   draw.  A refill that leaves no value to read is an error too, so a
   stale value is never read.  values and cursor are the buffers of an
   array("d") of n values and an array("q") of two, which the draw holds
   while it lives, so they are never resized; an index outside values
   raises IndexError, as the array does.  The draw is an object of type
   Draw whose vectorcall slot reads its own struct, so a value costs no
   Python frame and no lookup; it takes no arguments.  Python cannot make
   one: the module's three constructors below do.  It is not tracked by
   the garbage collector, so nothing it holds may refer back to it.

   The refill is one of three:
     refill()  a Python callable, when src is NULL (emitter).
     the fill  with src and a kernel, the draw of
               UniformSource.bind_variates on an engine the fill reads
               (fill_emitter): fvn_fill_source on src, engine and bitgen,
               filling values and counts (n + 1 words), with no Python
               frame.  A status that stops the fill after some values is
               held until they are read; then, or when it stops the fill
               at once, the refill sets the cursor to 0 made and raises
               RuntimeError with errors[status], as the Python refill of
               bind_variates does.
     the pass  with src and a pool, the draw of wallace.emit_passes on an
               engine the fill reads (pass_emitter): wallace_pass below
               begins the next pass of the pool, whose snapshot is values,
               with no Python frame, and sets cursor[0] to 0, as the
               Python refill of emit_passes does. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    double *values;
    int64_t n;
    int64_t *cursor;
    PyObject *refill;
    PyObject *src, *engine, *errors, *pool;
    const bitgen_t *bitgen;
    fvn_kernel *kernel;
    int64_t *counts;
    int64_t held;
    double *pool_values;
    const double *q;
    /* of values, cursor, then counts, or the pool's values and q */
    Py_buffer views[4];
} fvn_emit;

/* next_word's and next_uniform's reads of the state s */
static double source_fresh(fvn_state *s)
{
    if (s->pos >= s->nbuf)
        source_refill(s);
    return s->buf[s->pos++];
}

static double source_uniform(fvn_state *s)
{
    return s->nstore ? s->store[--s->nstore] : source_fresh(s);
}

static int64_t gcd(int64_t a, int64_t b)
{
    while (b) {
        int64_t r = a % b;
        a = b;
        b = r;
    }
    return a;
}

/* wallace._next_pass on the pool of e, pool_values its n values.  It
   reads the source's state as fvn_fill_source does and, holding
   engine.lock, draws the regroup's word, as next_word does, then
   Box-Muller's u1, again while u1 == 0, and u2, as next_uniform does,
   each popped from the store while it holds one, and a fresh word past
   the buffer's end refills it in place (source_fresh).  The stride and
   offset are _block_stride's, the transform is q[pass_count mod 2] of the
   two 4 x 4 at q, and the variance correction is _pass_scale's: float's
   ** 3 is pow(x, 3.0), and s / norm_sq and its root are taken by Python's
   own division and math.sqrt, with their errors.  Then, in _next_pass's
   order, fvn_refresh regroups pool_values, emit_scale is written back
   and _snapshot's values[i] = pool_values[i] * scale is written in one
   sequential sweep.  When the scale raises, the pool is regrouped and
   counted with no new scale or snapshot, as refresh leaves it before
   _pass_scale raises.  Never inlined: in emit_next its frame would cost
   every value a larger prologue. */
static __attribute__((noinline)) int wallace_pass(fvn_emit *e)
{
    const int64_t n = e->n;
    fvn_source o;
    uint64_t word;
    int64_t pass_count, stride, i;
    double u1, u2, z, c, s;
    PyObject *norm_sq, *sf = NULL, *ratio = NULL, *root = NULL;
    int rc = -1;

    if (source_read(&o, e->src, e->engine, e->bitgen, 0) < 0)
        return -1;
    word = (uint64_t)(source_fresh(&o.s) * UNIT);
    do
        u1 = source_uniform(&o.s);
    while (!(u1 > 0.0));
    u2 = source_uniform(&o.s);
    if (source_write(&o, e->src) < 0
            || get_int(e->pool, N_PASS_COUNT, &pass_count) < 0
            || set_int(e->pool, N_PASS_COUNT, pass_count + 1) < 0)
        return -1;
    z = sqrt(-2.0 * log(u1)) * cos(TWO_PI * u2);
    c = 2.0 / (9.0 * (double)n);
    s = (double)n * pow(1.0 - c + z * sqrt(c), 3.0);
    if ((norm_sq = PyObject_GetAttr(e->pool, names[N_NORM_SQ])) != NULL
            && (sf = PyFloat_FromDouble(s)) != NULL
            && (ratio = PyNumber_TrueDivide(sf, norm_sq)) != NULL)
        root = PyObject_CallOneArg(math_sqrt, ratio);
    stride = (int64_t)(word & 0xFFFFFFFF) | 1;
    while (gcd(stride, n) != 1)
        stride += 2;
    fvn_refresh(e->pool_values, n, stride % n, (int64_t)((word >> 32) % n),
                e->q + 16 * (pass_count & 1));
    if (root != NULL && PyObject_SetAttr(e->pool, names[N_EMIT_SCALE],
                                         root) == 0) {
        const double scale = PyFloat_AsDouble(root);
        for (i = 0; i < n; i++)
            e->values[i] = e->pool_values[i] * scale;
        e->cursor[0] = 0;
        rc = 0;
    }
    Py_XDECREF(root);
    Py_XDECREF(ratio);
    Py_XDECREF(sf);
    Py_XDECREF(norm_sq);
    return rc;
}

static int emit_refill(fvn_emit *e)
{
    int64_t status = e->held, made;

    if (e->src == NULL) {
        PyObject *done = PyObject_CallNoArgs(e->refill);
        Py_XDECREF(done);
        return done == NULL ? -1 : 0;
    }
    if (e->pool != NULL)
        return wallace_pass(e);
    e->held = FILL_DONE;
    if (status == FILL_DONE) {
        made = fvn_fill_source(e->src, e->engine, e->bitgen, e->kernel,
                               e->values, e->counts, e->n, &status);
        if (made < 0)
            return -1;
        if (made) {
            e->held = status;
            e->cursor[0] = 0;
            e->cursor[1] = made;
            return 0;
        }
    }
    e->cursor[0] = e->cursor[1] = 0;
    PyErr_SetObject(PyExc_RuntimeError, PyTuple_GET_ITEM(e->errors, status));
    return -1;
}

static PyObject *emit_next(PyObject *self, PyObject *const *args,
                           size_t nargsf, PyObject *kwnames)
{
    fvn_emit *e = (fvn_emit *)self;
    int64_t i;

    (void)args;
    if (PyVectorcall_NARGS(nargsf) != 0
            || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0)) {
        PyErr_SetString(PyExc_TypeError, "a draw takes no arguments");
        return NULL;
    }
    i = e->cursor[0];
    if (i >= e->cursor[1]) {
        if (emit_refill(e) < 0)
            return NULL;
        i = e->cursor[0];
        if (i >= e->cursor[1]) {
            PyErr_SetString(PyExc_RuntimeError, "the refill made no values");
            return NULL;
        }
    }
    if ((uint64_t)i >= (uint64_t)e->n) {
        PyErr_SetString(PyExc_IndexError, "array index out of range");
        return NULL;
    }
    e->cursor[0] = i + 1;
    return PyFloat_FromDouble(e->values[i]);
}

static void emit_dealloc(PyObject *self)
{
    fvn_emit *e = (fvn_emit *)self;
    int k;

    for (k = 0; k < 4; k++)
        PyBuffer_Release(&e->views[k]);
    Py_XDECREF(e->refill);
    Py_XDECREF(e->src);
    Py_XDECREF(e->engine);
    Py_XDECREF(e->errors);
    Py_XDECREF(e->pool);
    Py_XDECREF((PyObject *)e->kernel);
    Py_TYPE(self)->tp_free(self);
}

static PyTypeObject emit_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_fill.Draw",
    .tp_basicsize = sizeof(fvn_emit),
    .tp_dealloc = emit_dealloc,
    .tp_vectorcall_offset = offsetof(fvn_emit, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL
                | Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .tp_doc = "The next value of the block, refilled first once it is "
              "used up.",
};

static void kernel_dealloc(PyObject *self)
{
    fvn_kernel *kn = (fvn_kernel *)self;
    int k;

    for (k = 0; k < 3; k++)
        PyBuffer_Release(&kn->views[k]);
    Py_TYPE(self)->tp_free(self);
}

static PyTypeObject kernel_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_fill.Kernel",
    .tp_basicsize = sizeof(fvn_kernel),
    .tp_dealloc = kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .tp_doc = "A table's kernel, as fvn_fill reads it.",
};

/* Holds in view the buffer of obj as C-contiguous items of format fmt,
   writable when asked.  Returns its items, or -1 with msg as a
   ValueError, or the buffer's own error, and nothing held. */
static Py_ssize_t get_array(PyObject *obj, Py_buffer *view, const char *fmt,
                            int writable, const char *msg)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                           | (writable ? PyBUF_WRITABLE : 0)) < 0) {
        view->obj = NULL;
        return -1;
    }
    if (strcmp(view->format, fmt) != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, msg);
        return -1;
    }
    return view->len / view->itemsize;
}

/* The bitgen_t of a numpy BitGenerator, from its capsule; it lives as long
   as the engine. */
static const bitgen_t *engine_bitgen(PyObject *engine)
{
    PyObject *capsule = PyObject_GetAttr(engine, names[N_CAPSULE]);
    const bitgen_t *bitgen;

    if (capsule == NULL)
        return NULL;
    bitgen = PyCapsule_GetPointer(capsule, "BitGenerator");
    Py_DECREF(capsule);
    return bitgen;
}

#define KERNEL_ARRAYS "a kernel reads K x 4 rows and K masses in an " \
    "array('d') each and a guide of GUIDE_LEN in an array('B')"

/* kernel(rows, cum, guide, K, normal, restart, recycling): a table's
   kernel, over rows, IntervalTable.by_k flattened to K x (lo, width, top,
   lo_sq) doubles, and, on a mass table, its cumulative masses, K doubles,
   and their guide, GUIDE_LEN bytes; both None on a dyadic table. */
static PyObject *new_kernel(PyObject *module, PyObject *args)
{
    PyObject *rows, *cum, *guide;
    long long K;
    int normal, restart, recycling;
    fvn_kernel *kn;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOOLppp:kernel", &rows, &cum, &guide, &K,
                          &normal, &restart, &recycling))
        return NULL;
    if (K < 1 || K > PY_SSIZE_T_MAX / 4
            || (cum == Py_None) != (guide == Py_None)) {
        PyErr_SetString(PyExc_ValueError, KERNEL_ARRAYS);
        return NULL;
    }
    if ((kn = (fvn_kernel *)PyType_GenericAlloc(&kernel_type, 0)) == NULL)
        return NULL;
    if (get_array(rows, &kn->views[0], "d", 0, KERNEL_ARRAYS) != 4 * K
            || (cum != Py_None
                && (get_array(cum, &kn->views[1], "d", 0, KERNEL_ARRAYS) != K
                    || get_array(guide, &kn->views[2], "B", 0,
                                 KERNEL_ARRAYS) != GUIDE_LEN))) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, KERNEL_ARRAYS);
        Py_DECREF(kn);
        return NULL;
    }
    kn->rows = kn->views[0].buf;
    kn->cum = kn->views[1].buf;
    kn->guide = kn->views[2].buf;
    kn->K = K;
    kn->normal = normal;
    kn->restart = restart;
    kn->recycling = recycling;
    return (PyObject *)kn;
}

#define BLOCK_ARRAYS "an emitter reads an array('d') block and an " \
    "array('q') cursor of two"

/* A draw over the block values and the cursor, with no refill yet. */
static fvn_emit *emit_new(PyObject *values, PyObject *cursor)
{
    fvn_emit *e = (fvn_emit *)PyType_GenericAlloc(&emit_type, 0);
    Py_ssize_t n;

    if (e == NULL)
        return NULL;
    e->vectorcall = emit_next;
    if ((n = get_array(values, &e->views[0], "d", 1, BLOCK_ARRAYS)) < 0
            || get_array(cursor, &e->views[1], "q", 1, BLOCK_ARRAYS) != 2) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, BLOCK_ARRAYS);
        Py_DECREF(e);
        return NULL;
    }
    e->values = e->views[0].buf;
    e->n = n;
    e->cursor = e->views[1].buf;
    return e;
}

/* emitter(refill, values, cursor): the draw whose refill is refill(). */
static PyObject *new_emitter(PyObject *module, PyObject *args)
{
    PyObject *refill, *values, *cursor;
    fvn_emit *e;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOO:emitter", &refill, &values, &cursor)
            || (e = emit_new(values, cursor)) == NULL)
        return NULL;
    e->refill = Py_NewRef(refill);
    return (PyObject *)e;
}

#define FILL_COUNTS "the fill's counts must be an array('q') longer than " \
    "the block"

/* fill_emitter(src, engine, kernel, values, cursor, counts, errors): the
   draw whose refill is the fill of kernel on src, a UniformSource on
   engine, a numpy BitGenerator; counts as fvn_fill_source fills them and
   errors a tuple of a message by status. */
static PyObject *new_fill_emitter(PyObject *module, PyObject *args)
{
    PyObject *src, *engine, *kernel, *values, *cursor, *counts, *errors;
    fvn_emit *e;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOO!OOOO!:fill_emitter", &src, &engine,
                          &kernel_type, &kernel, &values, &cursor, &counts,
                          &PyTuple_Type, &errors))
        return NULL;
    if (PyTuple_GET_SIZE(errors) <= FILL_TRIALS) {
        PyErr_SetString(PyExc_TypeError, "errors must be a message by status");
        return NULL;
    }
    if ((e = emit_new(values, cursor)) == NULL)
        return NULL;
    if ((e->bitgen = engine_bitgen(engine)) == NULL
            || get_array(counts, &e->views[2], "q", 1, FILL_COUNTS) <= e->n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, FILL_COUNTS);
        Py_DECREF(e);
        return NULL;
    }
    e->counts = e->views[2].buf;
    e->src = Py_NewRef(src);
    e->engine = Py_NewRef(engine);
    e->kernel = (fvn_kernel *)Py_NewRef(kernel);
    e->errors = Py_NewRef(errors);
    return (PyObject *)e;
}

#define POOL_VALUES "a pool's values must be as many float64 as its " \
    "snapshot, a positive multiple of 4, and q the 2 x 4 x 4 doubles of " \
    "the transforms of even and odd passes"

/* pass_emitter(pool, src, engine, values, cursor, q): the draw whose
   refill begins the next pass of pool, a wallace.NormalPool whose
   snapshot is values, on src, a UniformSource on engine, a numpy
   BitGenerator.  pool.values must be C-contiguous float64, as many as
   values, and q the transforms of even and odd passes; the draw holds
   both buffers. */
static PyObject *new_pass_emitter(PyObject *module, PyObject *args)
{
    PyObject *pool, *src, *engine, *values, *cursor, *q, *pool_values;
    fvn_emit *e;
    Py_ssize_t size;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOOOOO:pass_emitter", &pool, &src, &engine,
                          &values, &cursor, &q)
            || (e = emit_new(values, cursor)) == NULL)
        return NULL;
    size = -1;
    if ((pool_values = PyObject_GetAttr(pool, names[N_VALUES])) != NULL) {
        size = get_array(pool_values, &e->views[2], "d", 1, POOL_VALUES);
        Py_DECREF(pool_values);
    }
    if (size != e->n || e->n <= 0 || e->n % 4 != 0
            || get_array(q, &e->views[3], "d", 0, POOL_VALUES) != 32
            || (e->bitgen = engine_bitgen(engine)) == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, POOL_VALUES);
        Py_DECREF(e);
        return NULL;
    }
    e->pool_values = e->views[2].buf;
    e->q = e->views[3].buf;
    e->src = Py_NewRef(src);
    e->engine = Py_NewRef(engine);
    e->pool = Py_NewRef(pool);
    return (PyObject *)e;
}

#define FILL_ROOM "no room for n variates in an array('d') and their " \
    "counts in an array('q')"

/* fill_source(src, engine, kernel, values, counts, n) -> (made, status):
   fvn_fill_source of kernel on src, a UniformSource on engine, a numpy
   BitGenerator, into values, n doubles or more, and counts, n + 1 words
   or more. */
static PyObject *fill_source(PyObject *module, PyObject *const *args,
                             Py_ssize_t nargs)
{
    Py_buffer out = {0}, counts = {0};
    const bitgen_t *bitgen;
    Py_ssize_t n;
    int64_t made, status = FILL_DONE;
    PyObject *result = NULL;

    (void)module;
    if (nargs != 6 || !PyObject_TypeCheck(args[2], &kernel_type)) {
        PyErr_SetString(PyExc_TypeError, "fill_source takes a source, its "
                        "engine, a kernel, values, counts and n");
        return NULL;
    }
    if (((n = PyLong_AsSsize_t(args[5])) == -1 && PyErr_Occurred())
            || (bitgen = engine_bitgen(args[1])) == NULL)
        return NULL;
    if (n < 0 || get_array(args[3], &out, "d", 1, FILL_ROOM) < n
            || get_array(args[4], &counts, "q", 1, FILL_ROOM) <= n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, FILL_ROOM);
        goto done;
    }
    made = fvn_fill_source(args[0], args[1], bitgen,
                           (const fvn_kernel *)args[2], out.buf, counts.buf,
                           n, &status);
    if (made >= 0)
        result = Py_BuildValue("(LL)", (long long)made, (long long)status);
done:
    PyBuffer_Release(&counts);
    PyBuffer_Release(&out);
    return result;
}

#define REGROUP "a regroup reads n float64 values, a positive multiple of " \
    "4, a step and an offset below n and 4 x 4 doubles of q"

/* fvn_refresh(values, step, offset, q): fvn_refresh on values. */
static PyObject *refresh(PyObject *module, PyObject *args)
{
    PyObject *values_obj, *q_obj, *result = NULL;
    Py_buffer values = {0}, q = {0};
    Py_ssize_t n, step, offset;

    (void)module;
    if (!PyArg_ParseTuple(args, "OnnO:fvn_refresh", &values_obj, &step,
                          &offset, &q_obj))
        return NULL;
    n = get_array(values_obj, &values, "d", 1, REGROUP);
    if (n <= 0 || n % 4 != 0 || step < 0 || step >= n || offset < 0
            || offset >= n || get_array(q_obj, &q, "d", 0, REGROUP) != 16) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, REGROUP);
        goto done;
    }
    fvn_refresh(values.buf, n, step, offset, q.buf);
    result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&q);
    PyBuffer_Release(&values);
    return result;
}

static PyMethodDef fill_methods[] = {
    {"kernel", new_kernel, METH_VARARGS,
     "kernel(rows, cum, guide, K, normal, restart, recycling): a table's "
     "kernel."},
    {"emitter", new_emitter, METH_VARARGS,
     "emitter(refill, values, cursor): a draw whose refill is refill()."},
    {"fill_emitter", new_fill_emitter, METH_VARARGS,
     "fill_emitter(src, engine, kernel, values, cursor, counts, errors): a "
     "draw that refills its block with the compiled fill."},
    {"pass_emitter", new_pass_emitter, METH_VARARGS,
     "pass_emitter(pool, src, engine, values, cursor, q): a draw that "
     "begins each pass of a Wallace pool in C."},
    {"fill_source", (PyCFunction)(void (*)(void))fill_source, METH_FASTCALL,
     "fill_source(src, engine, kernel, values, counts, n) -> (made, "
     "status)."},
    {"fvn_refresh", refresh, METH_VARARGS,
     "fvn_refresh(values, step, offset, q): one regroup of a Wallace pool."},
    {NULL, NULL, 0, NULL},
};

static int fill_exec(PyObject *module)
{
    if (intern_names() < 0 || PyType_Ready(&kernel_type) < 0
            || PyModule_AddType(module, &emit_type) < 0)
        return -1;
    /* PyModule_AddIntConstant under each constant's own name */
    if (PyModule_AddIntMacro(module, WORD_BITS) < 0
            || PyModule_AddIntMacro(module, MAX_RUN_LENGTH) < 0
            || PyModule_AddIntMacro(module, MAX_TRIALS) < 0
            || PyModule_AddIntMacro(module, FILL_OVERFLOW) < 0
            || PyModule_AddIntMacro(module, FILL_TRIALS) < 0
            || PyModule_AddIntMacro(module, GUIDE_LEN) < 0)
        return -1;
    return 0;
}

static PyModuleDef_Slot fill_slots[] = {
    {Py_mod_exec, fill_exec},
    {0, NULL},
};

static struct PyModuleDef fill_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fill",
    .m_doc = "The compiled kernels of fvn.",
    .m_size = 0,
    .m_methods = fill_methods,
    .m_slots = fill_slots,
};

PyMODINIT_FUNC PyInit__fill(void)
{
    return PyModuleDef_Init(&fill_module);
}
