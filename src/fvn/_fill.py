"""The compiled kernels of ``_fill.c``, built on first use and loaded with
ctypes: ``fvn_fill_source``, the block fill of comparison-method
variates run on a ``UniformSource``'s own state (``fill_source``),
``fvn_refresh``, the regroup of one Wallace pass, and ``fvn_emitter``,
the draw of ``emitter``.  On a numpy engine its refill runs in C too:
``fvn_fill_source`` for a bound comparison sampler, and the start of the
next pass, regroup, variance redraw and snapshot, for a Wallace pool.

The library is compiled by the installed gcc, against numpy's own
``bitgen_t`` (``numpy/random/bitgen.h``) and this interpreter's
``Python.h``, into a cache named by the sha256 of the source, those two
headers, the interpreter's ABI tag (its ``SOABI``), the flags and the
compiler, in this package's ``__pycache__`` or, when that is not
writable, in a private directory under ``tempfile.gettempdir()``.  So two
interpreters never share a build.  A build writes a temporary name and
then renames it, so processes that start at once never load a
half-written file.  Nothing is printed: when no compiler, no Python
headers, no cache or no library works, ``library()`` is None:
``UniformSource._fill_into`` makes every variate with the composed draw
``samplers.comparison_draw``, as on any engine but numpy's,
``wallace.refresh`` regroups with numpy, ``wallace._next_pass`` begins
every pass, and ``emitter`` returns its Python spelling.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.machinery
import os
import shutil
import stat
import sys
import tempfile
from array import array
from bisect import bisect_right
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_fill.c")
INCLUDE = np.get_include()
_BITGEN_H = Path(INCLUDE, "numpy", "random", "bitgen.h")
# sysconfig's "include" path and SOABI, read without loading sysconfig's
# build data, which raises a process's peak RSS by about 1 MiB
PYTHON_INCLUDE = os.path.join(sys.base_prefix, "include", "python%d.%d%s" % (
    *sys.version_info[:2], sys.abiflags))
_PYTHON_H = Path(PYTHON_INCLUDE, "Python.h")
ABI_TAG = importlib.machinery.EXTENSION_SUFFIXES[0]   # .<SOABI>.so
COMPILER = "gcc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-I", INCLUDE,
         "-I", PYTHON_INCLUDE)
BUILD_TIMEOUT_S = 120

# fvn_state.status, as _fill.c sets it: the index of its message in
# bitstream._FILL_ERRORS
FILL_OVERFLOW, FILL_TRIALS = 1, 2
# the entries of a mass table's guide, a power of two, so b / GUIDE_LEN
# and u * GUIDE_LEN are exact
GUIDE_LEN = 256


class Kernel(ctypes.Structure):
    _fields_ = [("rows", ctypes.c_void_p), ("cum", ctypes.c_void_p),
                ("guide", ctypes.c_void_p),
                ("K", ctypes.c_int64), ("normal", ctypes.c_int64),
                ("restart", ctypes.c_int64), ("recycling", ctypes.c_int64)]


def compile_library(out: str, extra_flags: tuple[str, ...] = ()) -> None:
    """Compile ``_fill.c`` to ``out``; OSError if the compiler fails."""
    import subprocess   # only a build needs it

    cmd = [COMPILER, *FLAGS, *extra_flags, "-o", out, str(_SOURCE), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{COMPILER} did not finish: {exc}") from exc
    if proc.returncode:
        raise OSError(f"{COMPILER} failed:\n{proc.stderr}")


def _cache_dirs():
    yield Path(__file__).with_name("__pycache__")
    # A shared temporary directory: only a private subdirectory of ours,
    # so no other user can plant the library that is loaded.
    private = Path(tempfile.gettempdir()) / f"fvn-{os.getuid()}"
    private.mkdir(mode=0o700, exist_ok=True)
    info = private.lstat()
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & 0o077):
        raise OSError(f"{private} is not a private directory")
    yield private


def _build() -> str:
    """The path of the compiled library, built first if not yet cached.
    A new build unlinks the other ``_fill-*.so`` of its folder; a process
    that loaded one keeps it mapped, but one that found its path just
    before the unlink fails to load it and uses the composed draw."""
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise OSError(f"no {COMPILER} on PATH")
    compiler = os.path.realpath(compiler)
    info = os.stat(compiler)
    key = hashlib.sha256(_SOURCE.read_bytes() + _BITGEN_H.read_bytes()
                         + _PYTHON_H.read_bytes())
    key.update("\0".join((*FLAGS, ABI_TAG, compiler, str(info.st_size),
                          str(info.st_mtime_ns))).encode())
    name = f"_fill-{key.hexdigest()[:32]}.so"
    error = None
    for folder in _cache_dirs():
        path = folder / name
        if path.is_file():
            return str(path)
        try:
            folder.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=folder)
        except OSError as exc:
            error = exc
            continue
        os.close(fd)
        try:
            compile_library(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for stale in set(folder.glob("_fill-*.so")) - {path}:
            with contextlib.suppress(OSError):
                stale.unlink()
        return str(path)
    raise OSError(f"no writable cache for the fill: {error}")


@functools.cache
def library():
    """The compiled library with ``fvn_fill``, ``fvn_refresh`` and
    ``fvn_emitter`` typed, or None when it cannot be built or loaded."""
    try:
        lib = ctypes.PyDLL(_build())
    except OSError:
        return None
    lib.fvn_fill_source.argtypes = (
        ctypes.py_object, ctypes.py_object, ctypes.c_void_p,
        ctypes.POINTER(Kernel), ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64, ctypes.POINTER(ctypes.c_int64))
    lib.fvn_fill_source.restype = ctypes.c_int64
    lib.fvn_refresh.argtypes = (ctypes.c_void_p, ctypes.c_int64,
                                ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                                ctypes.c_void_p, ctypes.c_double)
    lib.fvn_refresh.restype = None
    lib.fvn_emitter.argtypes = (
        ctypes.py_object, ctypes.py_object, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.py_object, ctypes.py_object, ctypes.c_void_p,
        ctypes.POINTER(Kernel), ctypes.c_void_p, ctypes.py_object,
        ctypes.py_object, ctypes.c_void_p, ctypes.c_void_p)
    lib.fvn_emitter.restype = ctypes.py_object
    return lib


def fill_source(lib, src, engine, bitgen: int, kernel, values: array,
                counts: array, n: int) -> tuple[int, int]:
    """Up to ``n`` variates of ``kernel`` made into ``values`` by
    ``fvn_fill_source`` of ``lib``, on the state of ``src`` and on
    ``engine``, whose ``bitgen_t`` is at ``bitgen``; ``counts`` gets the
    draws before them and after each.  Returns how many were made and the
    status that stopped them, 0 when none did."""
    if (values.typecode != "d" or counts.typecode != "q"
            or len(values) < n or len(counts) <= n):
        raise ValueError(f"no room for {n} variates in an array('d') and "
                         f"their counts in an array('q')")
    status = ctypes.c_int64()
    made = lib.fvn_fill_source(src, engine, bitgen, kernel,
                               values.buffer_info()[0],
                               counts.buffer_info()[0], n, ctypes.byref(status))
    return made, status.value


def emitter(refill, values: array, cursor: array, lib=None, fill=None,
            passes=None):
    """A zero-argument draw over a block: ``values``, an array("d"), and
    ``cursor``, an array("q") of two, the next index and the values made.
    While ``cursor[0] < cursor[1]`` the draw returns ``values[cursor[0]]``
    and steps ``cursor[0]``.  Otherwise it first calls ``refill()``,
    which rewrites ``values`` in place and sets the cursor, or raises this
    draw's error; a refill that leaves no value to read raises
    RuntimeError, so a stale value is never read.  The draw holds a
    memoryview of each array, so neither can be resized (BufferError)
    while it lives.  ``refill`` must not refer to the draw.

    The draw is ``fvn_emitter`` of ``lib``, a builtin with no Python frame
    per value, when ``lib`` has it; with ``lib`` None, or a library
    without it, it is the function below, which is its spec.

    ``fill``, with a library that has ``fvn_emitter``, is the draw's
    refill in place of ``refill``: a tuple (src, engine, bitgen, kernel,
    counts, errors) with which the builtin refills the block itself, by
    ``fvn_fill_source`` as ``fill_source`` calls it with n the length of
    ``values``.  ``counts`` is an array("q") longer than ``values``, and
    ``errors[status]`` the message of the RuntimeError that a status
    raises once the values made before it are read.

    ``passes``, with a library that has ``fvn_emitter``, is the draw's
    refill in place of ``refill`` too: a tuple (pool, src, engine, bitgen,
    q) with which the builtin begins the next pass of ``pool``, a
    ``wallace.NormalPool`` whose snapshot ``emitted`` is ``values``, as
    ``wallace._next_pass`` does, reading ``src`` and ``engine`` as the
    fill does, and sets ``cursor[0]`` to 0.  ``pool.values`` must be as
    ``fvn_refresh`` reads it, with as many values as ``values``, and ``q``
    the address of the transforms of even and odd passes, 2 x 4 x 4
    doubles; the draw holds ``pool.values`` too."""
    if values.typecode != "d" or cursor.typecode != "q" or len(cursor) != 2:
        raise ValueError("an emitter reads an array('d') block and an "
                         "array('q') cursor of two")
    keep = (memoryview(values), memoryview(cursor))
    make = getattr(lib, "fvn_emitter", None)
    if passes is not None:
        pool, src, engine, bitgen, q = passes
        if pool.values.size != len(values):
            raise ValueError("the pool's values and its snapshot differ in "
                             "length")
        return make(None, (*keep, memoryview(pool.values)),
                    values.buffer_info()[0], len(values),
                    cursor.buffer_info()[0], src, engine, bitgen, None, None,
                    None, pool, pool.values.ctypes.data, q)
    if fill is not None:
        src, engine, bitgen, kernel, counts, errors = fill
        if counts.typecode != "q" or len(counts) <= len(values):
            raise ValueError("the fill's counts must be an array('q') "
                             "longer than the block")
        return make(None, (*keep, kernel, memoryview(counts)),
                    values.buffer_info()[0], len(values),
                    cursor.buffer_info()[0], src, engine, bitgen, kernel,
                    counts.buffer_info()[0], errors, None, None, None)
    if make is not None:
        return make(refill, keep, values.buffer_info()[0], len(values),
                    cursor.buffer_info()[0], None, None, None, None, None,
                    None, None, None, None)

    def draw() -> float:
        i = cursor[0]
        if i >= cursor[1]:
            refill()
            i = cursor[0]
            if i >= cursor[1]:
                raise RuntimeError("the refill made no values")
        value = values[i]
        cursor[0] = i + 1
        return value
    draw.keep = keep
    return draw


@functools.lru_cache(maxsize=32)
def kernel(table, recycling: bool):
    """The ``Kernel`` of a table and recycling flag: the addresses of its
    rows, ``by_k`` flattened to K x (low, width, top, low_sq) doubles
    (low_sq 0.0 on an exponential table), and, on a mass table, of its
    ``cum_probs`` and their guide, GUIDE_LEN bytes with ``guide[b] =
    bisect_right(cum_probs, b / GUIDE_LEN)``, from which ``fvn_fill``
    finds the index ``tables.select_interval`` bisects for; then K, the
    normal, restart and recycling flags.  It keeps those arrays alive,
    since it holds only their addresses, and its composed draw ``draw``,
    for every variate the fill does not make."""
    from .samplers import comparison_draw   # deferred: an import cycle

    rows = array("d", (0.0 if v is None else v   # lo_sq on an exp table
                       for row in table.by_k for v in row))
    cum = array("d", table.cum_probs or ())
    # K <= tables.MAX_TABLE_LEN, so every entry fits a byte
    guide = array("B", (bisect_right(table.cum_probs, b / GUIDE_LEN)
                        for b in range(GUIDE_LEN)) if table.cum_probs else ())
    kn = Kernel(rows.buffer_info()[0],
                cum.buffer_info()[0] if table.cum_probs else None,
                guide.buffer_info()[0] if table.cum_probs else None,
                table.K, table.is_normal, table.restarts, recycling)
    kn.arrays = (rows, cum, guide)
    kn.draw = functools.partial(comparison_draw, table)
    return kn
