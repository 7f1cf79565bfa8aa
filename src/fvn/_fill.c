/* The compiled kernels of fvn, an extension module built on first use and
   loaded by fvn._fill: the fills, block fills of comparison-method
   variates, one per table shape, and fvn_fill_source, which runs a
   kernel's fill on a UniformSource's own state (the module's
   fill_source); fvn_refresh, one pass of the Wallace pool's regroup,
   which makes each block's outputs two lanes at a time
   from column pairs of q, with the same IEEE operations in the same
   order as the numpy regroup, so the same bytes; and the draw, a builtin
   method bound to a small object of type Draw, callable with no
   arguments, that hands a bound sampler's block back to Python one float
   at a time and refills it itself, on every engine: a comparison sampler's
   block with fvn_fill_source, a Wallace pool's snapshot by beginning the
   next pass (wallace_pass), which regroups the pool and then writes the
   snapshot in one sequential sweep, two lanes a step, reading the
   source's state through the same helpers as fvn_fill_source.  The
   module also exports the constants below that Python repeats.

   A fill is samplers.comparison_draw step for step: the pooled sign
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

   There is one body, fill_body, inlined into one fill per table shape
   and recycling flag (FILL_SHAPES): exponential or normal rows, dyadic
   or mass selection, and the restart, which exponential mass rows take
   and no others.  kernel() picks the fill once, from its table's shape,
   and keeps it in the kernel, so a fill tests no flag and makes no
   dispatch.  The restart fill is von Neumann's: exp_vn's rows have width
   and top 1.0, kernel() refuses any others, so the shifted exponent
   1.0 * u of the position u is u itself, and the run test starts from u
   while the interval only names the integer part of the value.  The
   selection uniform is still drawn first, as the composed draw draws it,
   but its interval is looked up only for the trial that accepts, so no
   trial's run test waits on the lookup.

   Every value a fill reads is a uniform in [0, 1): a fresh word, a
   leftover the fill pushed, or a stored value, which source_read checks
   once per fill, refusing a store that holds one off [0, 1) as the
   composed draw refuses it.  So u GUIDE_LEN indexes the guide.

   Fresh words come from buf, the source's own buffer.  Once it is used
   up, source_refill refills it as UniformSource._refill does: from a
   numpy engine's bitgen_t, of numpy's own header, numpy/random/bitgen.h,
   read with next_raw as random_raw reads it, while the caller,
   fvn_fill_source, holds the engine's lock; from any other engine with
   _refill's own floats, src._engine_floats().

   A fill makes up to n variates, writing each value to out[v] and the fresh
   words spent by the end of it, spent + position, to counts[v].  The
   position, the store's depth and the sign pool are written back to s
   once, when it returns.  It stops early in these cases:
     FILL_OVERFLOW  a run reached MAX_RUN_LENGTH.  The state is left as
                    the composed draw leaves it when it raises.
     FILL_TRIALS    a variate's MAX_TRIALS-th trial was rejected.  The
                    state is left as for FILL_OVERFLOW.
     FILL_ENGINE    a refill failed.  The state is left as _refill
                    leaves it, and the error is kept for the caller.
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
/* The hot entry points, fvn_fill_source, each fill and the draw, each
   start on a 64-byte cache line, so a change in the size of the code
   before them does not move them within their lines.  Such a move, with their own code
   unchanged, read up to 2% more per block on wallace and classic on a
   2-core Xeon VM (gcc 12, -O2). */
#define HOT_ENTRY __attribute__((aligned(64)))

enum { FILL_DONE = 0, FILL_OVERFLOW = 1, FILL_TRIALS = 2, FILL_ENGINE = 3 };

typedef struct fvn_kernel fvn_kernel;
typedef struct fvn_source fvn_source;
/* A fill: up to n variates of kn's table into out and counts. */
typedef int64_t fvn_fill_fn(const fvn_kernel *kn, fvn_source *o, double *out,
                            int64_t *counts, int64_t n);

/* A table's kernel, built by the module's kernel(): it holds the buffers
   of the three arrays that its pointers read, and the fill of its table's
   shape and recycling flag. */
struct fvn_kernel {
    PyObject_HEAD
    const double *rows; /* IntervalTable.by_k: lo, width, top, lo_sq per interval */
    const double *cum;  /* IntervalTable.cum_probs, NULL on a dyadic table */
    /* guide[b] = bisect_right(cum, b / GUIDE_LEN) for b < GUIDE_LEN, NULL
       on a dyadic table */
    const uint8_t *guide;
    int64_t K;          /* the intervals; on a mass table, the length of cum */
    fvn_fill_fn *fill;
    Py_buffer views[3]; /* of rows, cum and guide */
};

typedef struct {
    double *buf;
    int64_t nbuf;
    int64_t pos;
    int64_t spent;
    double *store;
    int64_t nstore;
    int64_t sign_bits;
    int64_t sign_word;
    int64_t status;
} fvn_state;

/* A UniformSource's state as a fill reads it, held from source_read to
   source_write: the buffer _floats, an array("d") held in view, the
   position _pos in it, the words _spent of the buffers used up, the store
   recycled and the sign pool _sign_bits and _sign_word.  bitgen is the
   engine's bitgen_t, read with engine.lock held, or NULL (source_engine);
   renewed says a refill made floats a new array, and error holds a failed
   refill's exception. */
struct fvn_source {
    fvn_state s;
    PyObject *src, *floats, *rec, *items, *lock, *error;
    Py_buffer view;
    const bitgen_t *bitgen;
    int renewed;
    int64_t nrec, spent, sign_bits, sign_word;
};

/* The names the kernels read and write, interned when the module loads
   (intern_names). */
enum { N_FLOATS, N_POS, N_SPENT, N_RECYCLED, N_SIGN_BITS, N_SIGN_WORD,
       N_LOCK, N_ACQUIRE, N_RELEASE, N_PASS_COUNT, N_NORM_SQ, N_EMIT_SCALE,
       N_VALUES, N_CAPSULE, N_ENGINE, N_RANDOM_RAW, N_ENGINE_FLOATS,
       N_NAMES };
static PyObject *names[N_NAMES];

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

/* Makes floats, an array("d"), the buffer of o in place of the one held.
   Returns 0, or -1 with a Python error set and o as it was. */
static int source_take(fvn_source *o, PyObject *floats)
{
    Py_buffer view;
    Py_ssize_t n = get_array(floats, &view, "d", 1,
                             "_floats is not an array('d')");

    if (n < 0)
        return -1;
    PyBuffer_Release(&o->view);
    Py_XSETREF(o->floats, Py_NewRef(floats));
    o->view = view;
    o->s.buf = view.buf;
    o->s.nbuf = n;
    return 0;
}

/* The exception set now, with its traceback, which is then cleared. */
static PyObject *take_error(void)
{
    PyObject *type, *value, *tb;

    PyErr_Fetch(&type, &value, &tb);
    PyErr_NormalizeException(&type, &value, &tb);
    if (tb != NULL)
        PyException_SetTraceback(value, tb);
    Py_XDECREF(type);
    Py_XDECREF(tb);
    return value;
}

/* Raises error, as take_error took it, and lets it go; returns -1. */
static int raise_error(PyObject *error)
{
    PyErr_SetObject((PyObject *)Py_TYPE(error), error);
    Py_DECREF(error);
    return -1;
}

/* UniformSource._refill of the used-up buffer, the one place the kernels
   read the engine: on bitgen, BUFFER_WORDS words of next_raw cut to
   WORD_BITS bits as _refill cuts them, in place, or into a new array when
   the buffer is not BUFFER_WORDS long; otherwise the floats of
   src._engine_floats(), of any length, called with no lock held, since
   random_raw takes its own.  Returns 0, or -1 with the exception kept in
   o->error and the state as _refill leaves it: the used-up buffer in
   place and spent unmoved. */
static __attribute__((cold, noinline)) int source_refill(fvn_source *o)
{
    fvn_state *s = &o->s;
    const bitgen_t *eng = o->bitgen;
    const int64_t used = s->nbuf;
    PyObject *floats = NULL;
    int64_t k;

    if (eng == NULL || used != BUFFER_WORDS) {
        if (eng == NULL)
            floats = PyObject_CallMethodNoArgs(o->src, names[N_ENGINE_FLOATS]);
        else if ((floats = PyBytes_FromStringAndSize(
                      NULL, BUFFER_WORDS * sizeof(double))) != NULL)
            Py_SETREF(floats, PyObject_CallFunction(
                (PyObject *)Py_TYPE(o->floats), "sO", "d", floats));
        if (floats == NULL || source_take(o, floats) < 0) {
            Py_XDECREF(floats);
            o->error = take_error();
            return -1;
        }
        Py_DECREF(floats);
        o->renewed = 1;
    }
    if (eng != NULL)
        for (k = 0; k < BUFFER_WORDS; k++)
            s->buf[k] = (double)(eng->next_raw(eng->state) >> (64 - WORD_BITS))
                        / UNIT;
    s->spent += used;
    s->pos = 0;
    return 0;
}

/* The interval of a mass-table selection uniform u in [0, 1):
   bisect_right(cum, u), found from guide[b], b = floor(u G), which counts
   the masses <= b / G <= u, so the scan up from it stops at the first
   mass above u.  u G is exact and below G.  The tail beyond a_K folds
   into K. */
static inline __attribute__((always_inline)) int64_t
mass_interval(const fvn_kernel *kn, double u)
{
    int64_t lo = kn->guide[(int64_t)(u * GUIDE_LEN)];

    while (lo < kn->K && !(u < kn->cum[lo]))
        lo++;
    return lo < kn->K ? lo : kn->K - 1;
}

/* The body of every fill, inlined into one instance per table shape (the
   FILL_SHAPES list below), so its four flags are constants: normal rows,
   mass selection, restart and recycling. */
static inline __attribute__((always_inline)) int64_t
fill_body(const fvn_kernel *kn, fvn_source *o, double *out, int64_t *counts,
          int64_t n, const int normal, const int mass, const int restart,
          const int recycling)
{
    fvn_state *s = &o->s;
    const double *buf = s->buf;
    const int64_t K = kn->K;
    double *store = s->store;
    int64_t i = s->pos, r = s->nstore, nb = s->sign_bits, sw = s->sign_word;
    int64_t nbuf = s->nbuf, spent = s->spent, made;

/* A fresh word, or the recycled store's top and a fresh word once empty. */
#define FRESH(dst) do {                                                 \
        if (i >= nbuf) {                                                \
            if (source_refill(o) < 0) {                                 \
                s->status = FILL_ENGINE;                                \
                goto commit;                                            \
            }                                                           \
            buf = s->buf, nbuf = s->nbuf, spent = s->spent, i = 0;      \
        }                                                               \
        (dst) = buf[i++];                                               \
    } while (0)
#define UNIFORM(dst) do { if (r) (dst) = store[--r]; else FRESH(dst); } while (0)
/* The run test from g: run, the length of the descending run of uniforms
   below g, and the run's terminating pair recycled. */
#define RUN_TEST(g) do {                                                \
        double prev = (g), w;                                           \
        run = 0;                                                        \
        for (;;) {                                                      \
            UNIFORM(w);                                                 \
            run++;                                                      \
            if (!(w < prev))                                            \
                break;                                                  \
            if (run >= MAX_RUN_LENGTH) {                                \
                s->status = FILL_OVERFLOW;                              \
                goto commit;                                            \
            }                                                           \
            prev = w;                                                   \
        }                                                               \
        if (recycling && prev < 1.0) {                                  \
            double v = (w - prev) / (1.0 - prev);                       \
            if (v < 1.0)                                                \
                store[r++] = v;                                         \
        }                                                               \
    } while (0)
/* Counts a rejected trial; the MAX_TRIALS-th stops the fill. */
#define REJECTED() do {                                                 \
        if (++trials >= MAX_TRIALS) {                                   \
            s->status = FILL_TRIALS;                                    \
            goto commit;                                                \
        }                                                               \
    } while (0)

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
        if (restart) {
            /* exp_vn: every row has width and top 1.0, so g = 1.0 * u is
               the position u itself and needs no clamp.  The selection
               uniform is drawn first, as the composed draw draws it, but
               its interval is looked up only once a trial accepts: x =
               lo + u, as the composed draw rounds it. */
            for (;;) {
                double select, pos;
                UNIFORM(select);
                UNIFORM(pos);
                RUN_TEST(pos);
                if (run & 1) {
                    x = kn->rows[4 * mass_interval(kn, select)] + pos;
                    break;
                }
                REJECTED();
            }
        } else {
            const double *row;
            int64_t j;
            if (mass) {
                UNIFORM(u);
                j = mass_interval(kn, u);
            } else {
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
            }
            row = kn->rows + 4 * j;
            for (;;) {
                double g;
                UNIFORM(u);
                if (normal) {
                    /* the shifted exponent, clamped into [0, top] */
                    x = row[0] + row[1] * u;
                    g = (x * x - row[3]) * 0.5;
                    if (!(0.0 <= g && g <= row[2]))
                        g = g < 0.0 ? 0.0 : row[2];
                } else {
                    /* width * u <= width = top for u in [0, 1) */
                    g = row[1] * u;
                    x = row[0] + g;
                }
                RUN_TEST(g);
                if (run & 1)
                    break;
                REJECTED();
            }
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
#undef RUN_TEST
#undef REJECTED
}

/* The table shapes that kernel() accepts, each as (name, normal, mass,
   restart), the restart on exponential mass rows only; each is compiled
   once per recycling flag, as fill_<name>_<recycling>, into FILLS. */
#define FILL_SHAPES(X)                                                  \
    X(exp_dyadic, 0, 0, 0)                                              \
    X(exp_restart, 0, 1, 1)                                             \
    X(normal_dyadic, 1, 0, 0)                                           \
    X(normal_mass, 1, 1, 0)

#define FILL_INSTANCE(name, normal, mass, restart, recycling)           \
    static HOT_ENTRY int64_t fill_##name##_##recycling(                 \
        const fvn_kernel *kn, fvn_source *o, double *out,               \
        int64_t *counts, int64_t n)                                     \
    {                                                                   \
        return fill_body(kn, o, out, counts, n, normal, mass, restart,  \
                         recycling);                                    \
    }
#define FILL_INSTANCES(name, normal, mass, restart)                     \
    FILL_INSTANCE(name, normal, mass, restart, 0)                       \
    FILL_INSTANCE(name, normal, mass, restart, 1)
FILL_SHAPES(FILL_INSTANCES)

/* FILLS[normal][mass][recycling] */
static fvn_fill_fn *const FILLS[2][2][2] = {
#define FILL_ENTRY(name, normal, mass, restart)                         \
    [normal][mass] = {fill_##name##_0, fill_##name##_1},
    FILL_SHAPES(FILL_ENTRY)
#undef FILL_ENTRY
};


/* math.sqrt, which the Wallace pass calls, numpy's
   BitGenerator.random_raw, which source_engine looks for,
   bitstream._FILL_ERRORS, the message of each status of a fill, and
   bitstream.STORE_OFF_UNIT, the message of a fill's refused store. */
static PyObject *math_sqrt, *numpy_random_raw, *fill_errors, *store_error;

/* module.attr, or module.cls.attr */
static PyObject *import_attr(const char *module, const char *cls,
                             const char *attr)
{
    PyObject *obj = PyImport_ImportModule(module), *found;

    if (obj != NULL && cls != NULL)
        Py_SETREF(obj, PyObject_GetAttrString(obj, cls));
    found = obj == NULL ? NULL : PyObject_GetAttrString(obj, attr);
    Py_XDECREF(obj);
    return found;
}

static int intern_names(void)
{
    static const char *const text[N_NAMES] = {
        "_floats", "_pos", "_spent", "recycled", "_sign_bits", "_sign_word",
        "lock", "acquire", "release", "pass_count", "norm_sq", "emit_scale",
        "values", "capsule", "_engine", "random_raw", "_engine_floats"};
    int k;

    for (k = 0; k < N_NAMES; k++)
        if (names[k] == NULL
                && (names[k] = PyUnicode_InternFromString(text[k])) == NULL)
            return -1;
    if ((math_sqrt == NULL
         && (math_sqrt = import_attr("math", NULL, "sqrt")) == NULL)
            || (numpy_random_raw == NULL
                && (numpy_random_raw = import_attr(
                        "numpy.random", "BitGenerator", "random_raw")) == NULL)
            || (fill_errors == NULL
                && (fill_errors = import_attr(
                        "fvn.bitstream", NULL, "_FILL_ERRORS")) == NULL)
            || (store_error == NULL
                && (store_error = import_attr(
                        "fvn.bitstream", NULL, "STORE_OFF_UNIT")) == NULL))
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

static void source_free(fvn_source *o)
{
    PyBuffer_Release(&o->view);
    PyMem_Free(o->s.store);
    Py_XDECREF(o->error);
    Py_XDECREF(o->lock);
    Py_XDECREF(o->items);
    Py_XDECREF(o->rec);
    Py_XDECREF(o->floats);
}

/* The word source of the refills of src, a UniformSource, picked once per
   fill or bind: the engine and its bitgen_t, from its capsule, on a numpy
   BitGenerator whose class keeps numpy's random_raw; NULL for both on any
   other engine, read through src._engine_floats().  The bitgen_t lives as
   long as the engine.  Returns 0, with *engine a new reference or NULL,
   or -1 with a Python error set. */
static int source_engine(PyObject *src, PyObject **engine,
                         const bitgen_t **bitgen)
{
    PyObject *eng = PyObject_GetAttr(src, names[N_ENGINE]), *raw, *capsule;

    *engine = NULL;
    *bitgen = NULL;
    if (eng == NULL)
        return -1;
    /* with no random_raw, _engine_floats raises as _refill does */
    raw = PyObject_GetAttr((PyObject *)Py_TYPE(eng), names[N_RANDOM_RAW]);
    PyErr_Clear();
    if (raw == numpy_random_raw
            && (capsule = PyObject_GetAttr(eng, names[N_CAPSULE])) != NULL) {
        if ((*bitgen = PyCapsule_GetPointer(capsule, "BitGenerator")) != NULL)
            *engine = Py_NewRef(eng);
        Py_DECREF(capsule);
    }
    Py_XDECREF(raw);
    Py_DECREF(eng);
    return PyErr_Occurred() ? -1 : 0;
}

/* Reads the state of src into o, with room on the store for room more
   values, for refills from bitgen and engine as source_engine picked
   them; on bitgen, it takes engine.lock, as random_raw does.  With
   unit_store, a stored value off [0, 1) is refused, as
   UniformSource.check_store refuses it, so a fill or a pass reads only
   uniforms.  Returns 0, or -1 with a Python error set and nothing held. */
static int source_read(fvn_source *o, PyObject *src, PyObject *engine,
                       const bitgen_t *bitgen, int64_t room, int unit_store)
{
    fvn_state *s = &o->s;
    PyObject *floats;
    int64_t k;

    memset(o, 0, sizeof *o);
    o->src = src;
    o->bitgen = bitgen;
    if ((floats = PyObject_GetAttr(src, names[N_FLOATS])) == NULL)
        return -1;
    k = source_take(o, floats);
    Py_DECREF(floats);
    if (k < 0)
        goto fail;
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
    s->store = PyMem_Malloc((size_t)(o->nrec + room) * sizeof *s->store);
    if (s->store == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (k = 0; k < o->nrec; k++) {
        s->store[k] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(o->items, k));
        if (s->store[k] == -1.0 && PyErr_Occurred())
            goto fail;
        if (unit_store && !(s->store[k] >= 0.0 && s->store[k] < 1.0)) {
            PyErr_SetObject(PyExc_ValueError, store_error);
            goto fail;
        }
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
    if (bitgen != NULL
            && ((o->lock = PyObject_GetAttr(engine, names[N_LOCK])) == NULL
                || call_method(o->lock, N_ACQUIRE) < 0))
        goto fail;
    return 0;
fail:
    source_free(o);
    return -1;
}

/* Lets the engine's lock go and writes the state of o back to src, as
   the Python lines do, then frees o: _floats once a refill made it a new
   array, _pos, _spent once a refill moved it, and recycled[:] set to the
   store left.  Returns 0, or -1 with a Python error set. */
static int source_write(fvn_source *o, PyObject *src)
{
    fvn_state *s = &o->s;
    int rc = -1;

    if ((o->lock != NULL && call_method(o->lock, N_RELEASE) < 0)
            || (o->renewed
                && PyObject_SetAttr(src, names[N_FLOATS], o->floats) < 0)
            || set_int(src, N_POS, s->pos) < 0
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

/* kn's fill run on the state of src, a UniformSource, for both of its
   callers: UniformSource.fill_variates, through the module's fill_source,
   and the draw of a bound sampler (emit_refill below).  It reads the
   state, refusing a store off [0, 1), runs the fill with refills from
   bitgen and engine as source_engine picked them, holding engine.lock on
   bitgen, and writes the state back (source_read, source_write).  counts holds n + 1 words:
   the draws before the fill, then those after each variate.
   Returns the variates made, with *error the exception that stopped them,
   a new reference, or NULL: a failed refill's own, or RuntimeError with
   the status's message in fill_errors for the fill's own stops.  Or -1
   with a Python error set when the state cannot be read or written or the
   lock fails. */
static HOT_ENTRY int64_t fvn_fill_source(PyObject *src, PyObject *engine,
                                         const bitgen_t *bitgen,
                                         const fvn_kernel *kn, double *out,
                                         int64_t *counts, int64_t n,
                                         PyObject **error)
{
    fvn_source o;
    PyObject *msg;
    int64_t made, status;

    /* a variate leaves at most one more value on the store */
    if (source_read(&o, src, engine, bitgen, n, 1) < 0)
        return -1;
    counts[0] = o.s.spent + o.s.pos;
    made = kn->fill(kn, &o, out, counts + 1, n);
    status = o.s.status;
    *error = o.error;
    o.error = NULL;
    if (source_write(&o, src) < 0) {
        Py_CLEAR(*error);
        return -1;
    }
    if ((status == FILL_OVERFLOW || status == FILL_TRIALS)
            && ((msg = PyTuple_GetItem(fill_errors, status)) == NULL
                || (*error = PyObject_CallOneArg(PyExc_RuntimeError, msg))
                   == NULL))
        return -1;
    return made;
}


/* Two doubles as one GCC vector: SSE2 on every x86-64, NEON on aarch64,
   with no -m flag and no intrinsics header.  Its arithmetic is lane by
   lane, each lane the IEEE operation of a double. */
typedef double v2df __attribute__((vector_size(16)));

/* wallace.refresh's regroup, as its numpy spelling does it: position i of
   the permuted order is (stride * i + offset) mod n, step = stride mod n.
   Each block of 4 consecutive positions, x, is read and written back as
   x q^T, each output summed left to right as ((x0 q0 + x1 q1) + x2 q2)
   + x3 q3.  The caller passes values as n contiguous doubles with n a
   multiple of 4, 0 <= step, offset < n, and q as 4 x 4 row-major doubles.

   A block's outputs are made two at a time: lane l of output pair h is
   output 2h + l, so each x_k, broadcast to both lanes, is multiplied by
   column k of rows 2h and 2h + 1 of q, a column pair, and the products
   are summed in the order above.  Each lane does the same IEEE
   operations on the same doubles in the same order as the scalar sum,
   and -ffp-contract=off keeps every multiply and add apart, so the bytes
   are the numpy regroup's.  The 8 column pairs are locals, read once, so
   a store to values cannot make the compiler read q again.

   A block's positions are p0 and p0 + step, + 2 step and + 3 step, and
   the next block's p0 is p0 + 4 step, each mod n.  With s2, s3 and s4,
   those multiples mod n, taken once, each is one add and one wrap from
   p0 (step_on), so a block waits on one chain of positions, not four.
   They are the same positions for any step below n, one not coprime
   with n among them.  The blocks are read and written in order, each
   read whole before it is written, its outputs stored in the order
   p0 to p3.  The permutation of a pass is a bijection, so its blocks are
   disjoint and each is written in place; for any other step the order
   still fixes the bytes, the last store to a position winning. */
static int64_t step_on(int64_t p, int64_t step, int64_t n)
{
    p += step;
    return p >= n ? p - n : p;
}

static void fvn_refresh(double *values, int64_t n, int64_t step,
                        int64_t offset, const double *q)
{
    const v2df a0 = {q[0], q[4]}, a1 = {q[1], q[5]}, a2 = {q[2], q[6]},
        a3 = {q[3], q[7]}, b0 = {q[8], q[12]}, b1 = {q[9], q[13]},
        b2 = {q[10], q[14]}, b3 = {q[11], q[15]};
    const int64_t s2 = step_on(step, step, n), s3 = step_on(s2, step, n),
        s4 = step_on(s3, step, n);
    int64_t p0 = offset, b;

    for (b = 0; b < n; b += 4) {
        const int64_t p1 = step_on(p0, step, n), p2 = step_on(p0, s2, n),
            p3 = step_on(p0, s3, n);
        const v2df x0 = {values[p0], values[p0]},
            x1 = {values[p1], values[p1]}, x2 = {values[p2], values[p2]},
            x3 = {values[p3], values[p3]};
        const v2df lo = ((x0 * a0 + x1 * a1) + x2 * a2) + x3 * a3,
            hi = ((x0 * b0 + x1 * b1) + x2 * b2) + x3 * b3;
        values[p0] = lo[0];
        values[p1] = lo[1];
        values[p2] = hi[0];
        values[p3] = hi[1];
        p0 = step_on(p0, s4, n);
    }
}

/* out[i] = in[i] * scale for i < n, n even, two lanes a step: the same
   IEEE multiply as one double at a time.  out and in must not overlap;
   memcpy loads and stores the pairs at any double's alignment. */
static void scale_values(double *restrict out, const double *restrict in,
                         int64_t n, double scale)
{
    const v2df s = {scale, scale};
    int64_t i;

    for (i = 0; i < n; i += 2) {
        v2df v;
        memcpy(&v, in + i, sizeof v);
        v *= s;
        memcpy(out + i, &v, sizeof v);
    }
}


/* The draw: values[cursor[0]] with cursor[0] stepped while cursor[0] <
   cursor[1]; otherwise the block is refilled first.  The refill rewrites
   values in place and sets the cursor, or raises, and then so does the
   draw.  A refill that leaves no value to read is an error too, so a
   stale value is never read.  values and cursor are the buffers of an
   array("d") of n values and an array("q") of two, which the draw holds
   while it lives, so they are never resized; an index outside values
   raises IndexError, as the array does.  The draw is emit_next, a
   METH_FASTCALL | METH_KEYWORDS builtin method (draw_def) bound to an
   object of type Draw, which holds the state; it takes no arguments.
   CPython 3.11 specialises a call to such a builtin, so the interpreter
   calls emit_next directly, where a call to an object of a type with a
   vectorcall slot, or to a METH_NOARGS builtin, takes the generic call
   path on every value.  Python cannot make a Draw: the module's two
   constructors below do.  A Draw is not tracked by the garbage
   collector, so nothing it holds may refer back to it.

   The refill is one of two, each on src, a UniformSource, with refills
   from the engine and bitgen that source_engine picked when the draw was
   made, and no Python frame:
     the fill  with a kernel, the draw of UniformSource.bind_variates
               (fill_emitter): fvn_fill_source on src, filling values and
               counts (n + 1 words).  An error that stops the fill after
               some values is held until they are read; then, or when it
               stops the fill at once, the refill sets the cursor to 0
               made and raises it, where the composed draw raises it.
     the pass  with a pool, the draw of wallace.emit_passes
               (pass_emitter): wallace_pass below begins the next pass of
               the pool, whose snapshot is values, and sets cursor[0] to
               0. */
typedef struct {
    PyObject_HEAD
    double *values;
    int64_t n;
    int64_t *cursor;
    PyObject *src, *engine, *pool, *held;
    const bitgen_t *bitgen;
    fvn_kernel *kernel;
    int64_t *counts;
    double *pool_values;
    const double *q;
    /* of values, cursor, then counts, or the pool's values and q */
    Py_buffer views[4];
} fvn_emit;

/* next_word's and next_uniform's reads of the state of o into *u; -1
   when the refill fails (source_refill) */
static int source_fresh(fvn_source *o, double *u)
{
    fvn_state *s = &o->s;

    if (s->pos >= s->nbuf && source_refill(o) < 0)
        return -1;
    *u = s->buf[s->pos++];
    return 0;
}

static int source_uniform(fvn_source *o, double *u)
{
    fvn_state *s = &o->s;

    if (!s->nstore)
        return source_fresh(o, u);
    *u = s->store[--s->nstore];
    return 0;
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
   reads the source's state as fvn_fill_source does, holding engine.lock
   on a numpy engine, and draws the regroup's word, as next_word does,
   then Box-Muller's u1, again while u1 == 0, and u2, as next_uniform
   does, each popped from the store while it holds one, and a fresh word
   past the buffer's end refills it (source_fresh).  The stride and offset
   are _block_stride's, the transform is q[pass_count mod 2] of the two
   4 x 4 at q, and the variance correction is _pass_scale's: float's ** 3
   is pow(x, 3.0), and s / norm_sq and its root are taken by Python's own
   division and math.sqrt, with their errors.  Then, in _next_pass's
   order, fvn_refresh regroups pool_values, emit_scale is written back
   and _snapshot's values[i] = pool_values[i] * scale is written in one
   sequential sweep, two lanes a step (scale_values; n is a multiple of
   4, and pass_emitter refuses a snapshot that overlaps the pool's
   values).  A store that holds a value off [0, 1) is refused first, as
   _next_pass refuses it, with nothing touched.  A failed refill for the
   word raises with no pass;
   for u1 or u2, as when the scale raises, the pool is regrouped and
   counted with no new scale or snapshot, as _next_pass leaves it.  Never
   inlined: in emit_next its frame would cost every value a larger
   prologue. */
static __attribute__((noinline)) int wallace_pass(fvn_emit *e)
{
    const int64_t n = e->n;
    fvn_source o;
    uint64_t word;
    int64_t pass_count, stride;
    double u = 0.0, u1 = 0.0, u2 = 0.0, z, c, s;
    PyObject *norm_sq = NULL, *sf = NULL, *ratio = NULL, *root = NULL, *error;
    int failed, rc = -1;   /* failed: 1 for the word, 2 for u1 or u2 */

    if (source_read(&o, e->src, e->engine, e->bitgen, 0, 1) < 0)
        return -1;
    failed = source_fresh(&o, &u) < 0;
    while (!failed && !(u1 > 0.0))
        failed = 2 * (source_uniform(&o, &u1) < 0);
    if (!failed)
        failed = 2 * (source_uniform(&o, &u2) < 0);
    word = (uint64_t)(u * UNIT);
    error = o.error;
    o.error = NULL;
    if (source_write(&o, e->src) < 0 || failed == 1
            || get_int(e->pool, N_PASS_COUNT, &pass_count) < 0
            || set_int(e->pool, N_PASS_COUNT, pass_count + 1) < 0)
        goto done;
    z = sqrt(-2.0 * log(u1)) * cos(TWO_PI * u2);
    c = 2.0 / (9.0 * (double)n);
    s = (double)n * pow(1.0 - c + z * sqrt(c), 3.0);
    if (!failed && (norm_sq = PyObject_GetAttr(e->pool, names[N_NORM_SQ]))
                != NULL
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
        scale_values(e->values, e->pool_values, n, PyFloat_AsDouble(root));
        e->cursor[0] = 0;
        rc = 0;
    }
done:
    if (error != NULL && !PyErr_Occurred())
        raise_error(error);
    else
        Py_XDECREF(error);
    Py_XDECREF(root);
    Py_XDECREF(ratio);
    Py_XDECREF(sf);
    Py_XDECREF(norm_sq);
    return rc;
}

static int emit_refill(fvn_emit *e)
{
    PyObject *error = e->held;
    int64_t made;

    if (e->pool != NULL)
        return wallace_pass(e);
    e->held = NULL;
    if (error == NULL) {
        made = fvn_fill_source(e->src, e->engine, e->bitgen, e->kernel,
                               e->values, e->counts, e->n, &error);
        if (made < 0)
            return -1;
        if (made || error == NULL) {
            e->held = error;
            e->cursor[0] = 0;
            e->cursor[1] = made;
            return 0;
        }
    }
    e->cursor[0] = e->cursor[1] = 0;
    return raise_error(error);
}

static HOT_ENTRY PyObject *emit_next(PyObject *self,
                                     PyObject *const *args, Py_ssize_t nargs,
                                     PyObject *kwnames)
{
    fvn_emit *e = (fvn_emit *)self;
    int64_t i;

    (void)args;
    if (nargs != 0 || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0)) {
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

/* Plain METH_FASTCALL would let CPython refuse a keyword before
   emit_next, with its own message. */
static PyMethodDef draw_def = {
    "draw", (PyCFunction)(void (*)(void))emit_next,
    METH_FASTCALL | METH_KEYWORDS,
    "The next value of the block, refilled first once it is used up.",
};

static void emit_dealloc(PyObject *self)
{
    fvn_emit *e = (fvn_emit *)self;
    int k;

    for (k = 0; k < 4; k++)
        PyBuffer_Release(&e->views[k]);
    Py_XDECREF(e->held);
    Py_XDECREF(e->src);
    Py_XDECREF(e->engine);
    Py_XDECREF(e->pool);
    Py_XDECREF((PyObject *)e->kernel);
    Py_TYPE(self)->tp_free(self);
}

static PyTypeObject emit_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_fill.Draw",
    .tp_basicsize = sizeof(fvn_emit),
    .tp_dealloc = emit_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .tp_doc = "The state of a draw: its block, cursor, source and refill. "
              "The draw is its builtin method draw.",
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
    .tp_doc = "A table's kernel, as its fill reads it.",
};

#define KERNEL_ARRAYS "a kernel reads K x 4 rows and K masses in an " \
    "array('d') each and a guide of GUIDE_LEN in an array('B')"

#define RESTART_ROWS "a kernel restarts its trials on exponential mass " \
    "rows, and only there, and its rows must then have every width and " \
    "top 1.0"

/* Whether each of the K rows has width and top exactly 1.0, as exp_vn's
   unit intervals do: the restart fill takes the position as g. */
static int unit_rows(const double *rows, int64_t K)
{
    int64_t k;

    for (k = 0; k < K; k++)
        if (rows[4 * k + 1] != 1.0 || rows[4 * k + 2] != 1.0)
            return 0;
    return 1;
}

/* kernel(rows, cum, guide, K, normal, restart, recycling): a table's
   kernel, over rows, IntervalTable.by_k flattened to K x (lo, width, top,
   lo_sq) doubles, and, on a mass table, its cumulative masses, K doubles,
   and their guide, GUIDE_LEN bytes; both None on a dyadic table.  It
   picks the fill of the table's shape, FILLS[normal][mass][recycling]:
   the trials restart on exponential mass rows, which must be unit rows,
   and on no others. */
static PyObject *new_kernel(PyObject *module, PyObject *args)
{
    PyObject *rows, *cum, *guide;
    long long K;
    int normal, restart, recycling, mass;
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
    mass = cum != Py_None;
    if ((kn = (fvn_kernel *)PyType_GenericAlloc(&kernel_type, 0)) == NULL)
        return NULL;
    if (get_array(rows, &kn->views[0], "d", 0, KERNEL_ARRAYS) != 4 * K
            || (mass
                && (get_array(cum, &kn->views[1], "d", 0, KERNEL_ARRAYS) != K
                    || get_array(guide, &kn->views[2], "B", 0,
                                 KERNEL_ARRAYS) != GUIDE_LEN))) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, KERNEL_ARRAYS);
        Py_DECREF(kn);
        return NULL;
    }
    kn->rows = kn->views[0].buf;
    if (restart != (!normal && mass) || (restart && !unit_rows(kn->rows, K))) {
        PyErr_SetString(PyExc_ValueError, RESTART_ROWS);
        Py_DECREF(kn);
        return NULL;
    }
    kn->cum = kn->views[1].buf;
    kn->guide = kn->views[2].buf;
    kn->K = K;
    kn->fill = FILLS[normal][mass][recycling];
    return (PyObject *)kn;
}

#define BLOCK_ARRAYS "an emitter reads an array('d') block and an " \
    "array('q') cursor of two"

/* A Draw over the block values and the cursor, with no refill yet. */
static fvn_emit *emit_new(PyObject *values, PyObject *cursor)
{
    fvn_emit *e = (fvn_emit *)PyType_GenericAlloc(&emit_type, 0);
    Py_ssize_t n;

    if (e == NULL)
        return NULL;
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

/* The draw of e: draw_def bound to e, which it then holds alone. */
static PyObject *emit_bind(fvn_emit *e)
{
    PyObject *draw = PyCFunction_NewEx(&draw_def, (PyObject *)e, NULL);

    Py_DECREF(e);
    return draw;
}

#define FILL_COUNTS "the fill's counts must be an array('q') longer than " \
    "the block"

/* fill_emitter(src, kernel, values, cursor, counts): the draw whose refill
   is the fill of kernel on src, a UniformSource; counts as
   fvn_fill_source fills them. */
static PyObject *new_fill_emitter(PyObject *module, PyObject *args)
{
    PyObject *src, *kernel, *values, *cursor, *counts;
    fvn_emit *e;

    (void)module;
    if (!PyArg_ParseTuple(args, "OO!OOO:fill_emitter", &src, &kernel_type,
                          &kernel, &values, &cursor, &counts)
            || (e = emit_new(values, cursor)) == NULL)
        return NULL;
    if (get_array(counts, &e->views[2], "q", 1, FILL_COUNTS) <= e->n
            || source_engine(src, &e->engine, &e->bitgen) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, FILL_COUNTS);
        Py_DECREF(e);
        return NULL;
    }
    e->counts = e->views[2].buf;
    e->src = Py_NewRef(src);
    e->kernel = (fvn_kernel *)Py_NewRef(kernel);
    return emit_bind(e);
}

#define POOL_VALUES "a pool's values must be as many float64 as its " \
    "snapshot, a positive multiple of 4, in memory apart from it, and q " \
    "the 2 x 4 x 4 doubles of the transforms of even and odd passes"

/* Whether n doubles at a and n at b share no byte. */
static int apart(const double *a, const double *b, int64_t n)
{
    return (uintptr_t)(a + n) <= (uintptr_t)b
        || (uintptr_t)(b + n) <= (uintptr_t)a;
}

/* pass_emitter(pool, src, values, cursor, q): the draw whose refill
   begins the next pass of pool, a wallace.NormalPool whose snapshot is
   values, on src, a UniformSource.  pool.values must be C-contiguous
   float64, as many as values, and q the transforms of even and odd
   passes; the draw holds both buffers, which may not overlap. */
static PyObject *new_pass_emitter(PyObject *module, PyObject *args)
{
    PyObject *pool, *src, *values, *cursor, *q, *pool_values;
    fvn_emit *e;
    Py_ssize_t size;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOOOO:pass_emitter", &pool, &src, &values,
                          &cursor, &q)
            || (e = emit_new(values, cursor)) == NULL)
        return NULL;
    size = -1;
    if ((pool_values = PyObject_GetAttr(pool, names[N_VALUES])) != NULL) {
        size = get_array(pool_values, &e->views[2], "d", 1, POOL_VALUES);
        Py_DECREF(pool_values);
    }
    if (size != e->n || e->n <= 0 || e->n % 4 != 0
            || !apart(e->views[0].buf, e->views[2].buf, e->n)
            || get_array(q, &e->views[3], "d", 0, POOL_VALUES) != 32
            || source_engine(src, &e->engine, &e->bitgen) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, POOL_VALUES);
        Py_DECREF(e);
        return NULL;
    }
    e->pool_values = e->views[2].buf;
    e->q = e->views[3].buf;
    e->src = Py_NewRef(src);
    e->pool = Py_NewRef(pool);
    return emit_bind(e);
}

#define FILL_ROOM "no room for n variates in an array('d') and their " \
    "counts in an array('q')"

/* fill_source(src, kernel, values, counts, n) -> (made, error):
   fvn_fill_source of kernel on src, a UniformSource, into values, n
   doubles or more, and counts, n + 1 words or more; error is None or the
   exception that stopped the fill. */
static PyObject *fill_source(PyObject *module, PyObject *const *args,
                             Py_ssize_t nargs)
{
    Py_buffer out = {0}, counts = {0};
    PyObject *engine = NULL, *error, *result = NULL;
    const bitgen_t *bitgen;
    Py_ssize_t n;
    int64_t made;

    (void)module;
    if (nargs != 5 || !PyObject_TypeCheck(args[1], &kernel_type)) {
        PyErr_SetString(PyExc_TypeError, "fill_source takes a source, a "
                        "kernel, values, counts and n");
        return NULL;
    }
    if ((n = PyLong_AsSsize_t(args[4])) == -1 && PyErr_Occurred())
        return NULL;
    if (n < 0 || get_array(args[2], &out, "d", 1, FILL_ROOM) < n
            || get_array(args[3], &counts, "q", 1, FILL_ROOM) <= n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, FILL_ROOM);
        goto done;
    }
    if (source_engine(args[0], &engine, &bitgen) < 0)
        goto done;
    made = fvn_fill_source(args[0], engine, bitgen,
                           (const fvn_kernel *)args[1], out.buf, counts.buf,
                           n, &error);
    if (made >= 0)
        result = Py_BuildValue("(LN)", (long long)made,
                               error == NULL ? Py_NewRef(Py_None) : error);
done:
    Py_XDECREF(engine);
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
    {"fill_emitter", new_fill_emitter, METH_VARARGS,
     "fill_emitter(src, kernel, values, cursor, counts): a draw that "
     "refills its block with the compiled fill."},
    {"pass_emitter", new_pass_emitter, METH_VARARGS,
     "pass_emitter(pool, src, values, cursor, q): a draw that begins each "
     "pass of a Wallace pool in C."},
    {"fill_source", (PyCFunction)(void (*)(void))fill_source, METH_FASTCALL,
     "fill_source(src, kernel, values, counts, n) -> (made, error)."},
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
