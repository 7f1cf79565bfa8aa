/* The compiled kernels of fvn: fvn_fill, the block fill of
   comparison-method variates, and fvn_fill_source, which runs it on a
   UniformSource's own state; fvn_refresh, one pass of the Wallace pool's
   regroup; and fvn_emitter, the draw that hands a bound sampler's block
   back to Python one float at a time and, on a numpy engine, refills a
   comparison sampler's block with fvn_fill_source itself.

   fvn_fill is samplers.comparison_draw step for step: the pooled sign
   word, the leading-zero selection (read from the exponent of u's bits)
   or the bisection of the cumulative masses,
   either clamped to K as tables.select_interval clamps it, the position
   in that interval's row of IntervalTable.by_k, the run test with its
   MAX_RUN_LENGTH cap, the last-in-first-out recycled store, the exp_vn
   restart and the MAX_TRIALS cap.  It reads the same doubles in the same
   order and does the same IEEE operations, so built with -ffp-contract=off
   (no fused multiply-add) it makes the same values bit for bit.

   Fresh words come from buf while pos < nbuf, then from the engine: a
   bitgen_t of numpy's own header, numpy/random/bitgen.h, read with
   next_raw as random_raw reads it, so the words and their order are the
   engine's stream.  pos then counts on past nbuf, and the caller,
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
#include <string.h>
#include <numpy/random/bitgen.h>

#define WORD_BITS 53
#define UNIT 9007199254740992.0 /* 2**WORD_BITS */
#define MANTISSA (((uint64_t)1 << 52) - 1) /* a double's fraction bits */
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

static int64_t fvn_fill(const fvn_kernel *kn, fvn_state *s, double *out,
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


/* The names fvn_fill_source reads and writes, interned on first use. */
enum { N_FLOATS, N_POS, N_SPENT, N_RECYCLED, N_SIGN_BITS, N_SIGN_WORD,
       N_LOCK, N_ACQUIRE, N_RELEASE, N_NAMES };
static PyObject *names[N_NAMES];

static int intern_names(void)
{
    static const char *const text[N_NAMES] = {
        "_floats", "_pos", "_spent", "recycled", "_sign_bits", "_sign_word",
        "lock", "acquire", "release"};
    int k;

    for (k = 0; k < N_NAMES; k++)
        if (names[k] == NULL
                && (names[k] = PyUnicode_InternFromString(text[k])) == NULL)
            return -1;
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

/* fvn_fill run on the state of src, a UniformSource, for both of its
   callers: UniformSource.fill_variates, through ctypes, and the draw of a
   bound sampler (emit_refill below).  It reads the buffer _floats, an
   array("d"), the position _pos in it, the words _spent of the buffers
   used up, the store recycled and the sign pool _sign_bits and
   _sign_word.  It holds engine.lock, as random_raw does, while fvn_fill
   runs on bitgen, the bitgen_t of engine.  Then it writes the state back:
   once the fill has read on from the engine, the buffer and those words
   join _spent, at position 0 of an empty _floats for the next direct call
   to refill, and recycled[:] is set to the store left.  counts holds
   n + 1 words: the draws before the fill, then those after each variate.
   Returns the variates made, with *status as fvn_fill sets it, or -1
   with a Python error set when the state cannot be read or written or
   the lock fails. */
int64_t fvn_fill_source(PyObject *src, PyObject *engine,
                        const bitgen_t *bitgen, const fvn_kernel *kn,
                        double *out, int64_t *counts, int64_t n,
                        int64_t *status)
{
    PyObject *floats, *rec = NULL, *items = NULL, *lock = NULL;
    Py_buffer view = {0};
    double *store = NULL;
    fvn_state s;
    int64_t made = -1, nrec = 0, k, sign_bits, sign_word;

    if (intern_names() < 0
            || (floats = PyObject_GetAttr(src, names[N_FLOATS])) == NULL)
        return -1;
    if (PyObject_GetBuffer(floats, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        goto done;
    if (view.itemsize != sizeof(double) || strcmp(view.format, "d") != 0) {
        PyErr_SetString(PyExc_TypeError, "_floats is not an array('d')");
        goto done;
    }
    if ((rec = PyObject_GetAttr(src, names[N_RECYCLED])) == NULL
            || (items = PySequence_Fast(rec, "recycled is not a list")) == NULL)
        goto done;
    nrec = PySequence_Fast_GET_SIZE(items);
    /* a variate leaves at most one more value on the store */
    if (n < 0 || n > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof *store - nrec) {
        PyErr_SetString(PyExc_ValueError, "no room for n variates");
        goto done;
    }
    if ((store = PyMem_Malloc((size_t)(nrec + n) * sizeof *store)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < nrec; k++) {
        store[k] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(items, k));
        if (store[k] == -1.0 && PyErr_Occurred())
            goto done;
    }
    if (get_int(src, N_POS, &s.pos) < 0 || get_int(src, N_SPENT, &s.spent) < 0
            || get_int(src, N_SIGN_BITS, &sign_bits) < 0
            || get_int(src, N_SIGN_WORD, &sign_word) < 0)
        goto done;
    if (s.pos < 0 || sign_bits < 0 || sign_bits > WORD_BITS) {
        PyErr_SetString(PyExc_ValueError, "the source's position or sign "
                        "pool is out of range");
        goto done;
    }
    s.buf = view.buf;
    s.nbuf = view.len / (Py_ssize_t)sizeof(double);
    s.store = store;
    s.nstore = nrec;
    s.sign_bits = sign_bits;
    s.sign_word = sign_word;
    s.engine = bitgen;
    counts[0] = s.spent + s.pos;
    if ((lock = PyObject_GetAttr(engine, names[N_LOCK])) == NULL
            || call_method(lock, N_ACQUIRE) < 0)
        goto done;
    made = fvn_fill(kn, &s, out, counts + 1, n);
    *status = s.status;
    if (call_method(lock, N_RELEASE) < 0)
        goto fail;
    PyBuffer_Release(&view);
    if (s.pos > s.nbuf) {
        /* read on from the engine: buffer and words are spent */
        s.spent += s.pos;
        s.pos = 0;
        if (set_int(src, N_SPENT, s.spent) < 0)
            goto fail;
        if (s.nbuf) {
            PyObject *empty = PyObject_CallFunction((PyObject *)Py_TYPE(floats),
                                                    "s", "d");
            int rc = empty == NULL ? -1
                     : PyObject_SetAttr(src, names[N_FLOATS], empty);
            Py_XDECREF(empty);
            if (rc < 0)
                goto fail;
        }
    }
    if (set_int(src, N_POS, s.pos) < 0
            || ((nrec || s.nstore) && set_store(rec, store, s.nstore) < 0)
            || (s.sign_bits != sign_bits
                && set_int(src, N_SIGN_BITS, s.sign_bits) < 0)
            || (s.sign_word != sign_word
                && set_int(src, N_SIGN_WORD, s.sign_word) < 0))
        goto fail;
    goto done;
fail:
    made = -1;
done:
    PyBuffer_Release(&view);
    PyMem_Free(store);
    Py_XDECREF(lock);
    Py_XDECREF(items);
    Py_XDECREF(rec);
    Py_DECREF(floats);
    return made;
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


/* _fill.emitter's draw, as its Python spelling does it: values[cursor[0]]
   with cursor[0] stepped while cursor[0] < cursor[1]; otherwise the block
   is refilled first.  The refill rewrites values in place and sets the
   cursor, or raises, and then so does the draw.  A refill that leaves no
   value to read is an error too, so a stale value is never read.  values
   and cursor are the buffers of an array("d") of n values and an
   array("q") of two, which keep pins with a memoryview of each, so they
   are never resized; an index outside values raises IndexError, as the
   array does.  The draw is a builtin over a capsule that owns its
   references, so it has no Python frame.  The capsule is not tracked by
   the garbage collector, so nothing it holds may refer back to the draw.

   The refill is one of two:
     refill()  a Python callable, when src is NULL.
     the fill  with src, the draw of UniformSource.bind_variates on an
               engine the fill reads: fvn_fill_source on src, engine and
               bitgen, filling values and counts (n + 1 words), with no
               Python frame.  A status that stops the fill after some
               values is held until they are read; then, or when it stops
               the fill at once, the refill sets the cursor to 0 made and
               raises RuntimeError with errors[status], as the Python
               refill of bind_variates does. */
typedef struct {
    PyObject *refill;
    PyObject *keep;
    double *values;
    int64_t n;
    int64_t *cursor;
    PyObject *src, *engine, *errors;
    const bitgen_t *bitgen;
    const fvn_kernel *kernel;
    int64_t *counts;
    int64_t held;
} fvn_emit;

#define EMITTER "fvn.emitter"

static int emit_refill(fvn_emit *e)
{
    int64_t status = e->held, made;

    if (e->src == NULL) {
        PyObject *done = PyObject_CallNoArgs(e->refill);
        Py_XDECREF(done);
        return done == NULL ? -1 : 0;
    }
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

static PyObject *emit_next(PyObject *self, PyObject *unused)
{
    fvn_emit *e = PyCapsule_GetPointer(self, EMITTER);
    int64_t i;

    (void)unused;
    if (e == NULL)
        return NULL;
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

static void emit_release(fvn_emit *e)
{
    Py_XDECREF(e->refill);
    Py_XDECREF(e->keep);
    Py_XDECREF(e->src);
    Py_XDECREF(e->engine);
    Py_XDECREF(e->errors);
    PyMem_Free(e);
}

static void emit_free(PyObject *capsule)
{
    emit_release(PyCapsule_GetPointer(capsule, EMITTER));
}

static PyMethodDef emit_def = {"emit", emit_next, METH_NOARGS,
                               "The next value of the block, refilled first "
                               "once it is used up."};

/* The draw, with the fill as its refill when bitgen is not NULL: then
   src, engine, kernel and counts are those of fvn_fill_source, errors is
   a tuple of a message by status, and refill is not used.  keep must
   hold what values, cursor, kernel and counts point into. */
PyObject *fvn_emitter(PyObject *refill, PyObject *keep, double *values,
                      int64_t n, int64_t *cursor, PyObject *src,
                      PyObject *engine, const bitgen_t *bitgen,
                      const fvn_kernel *kernel, int64_t *counts,
                      PyObject *errors)
{
    PyObject *capsule, *draw;
    fvn_emit *e;

    if (bitgen != NULL && !(PyTuple_Check(errors)
                            && PyTuple_GET_SIZE(errors) > FILL_TRIALS)) {
        PyErr_SetString(PyExc_TypeError, "errors must be a message by status");
        return NULL;
    }
    if ((e = PyMem_Calloc(1, sizeof *e)) == NULL)
        return PyErr_NoMemory();
    if (bitgen == NULL) {
        e->refill = Py_NewRef(refill);
    } else {
        e->src = Py_NewRef(src);
        e->engine = Py_NewRef(engine);
        e->errors = Py_NewRef(errors);
        e->bitgen = bitgen;
        e->kernel = kernel;
        e->counts = counts;
    }
    e->keep = Py_NewRef(keep);
    e->values = values;
    e->n = n;
    e->cursor = cursor;
    capsule = PyCapsule_New(e, EMITTER, emit_free);
    if (capsule == NULL) {
        emit_release(e);
        return NULL;
    }
    draw = PyCFunction_New(&emit_def, capsule);
    Py_DECREF(capsule);
    return draw;
}
