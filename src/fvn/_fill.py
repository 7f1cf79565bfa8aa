"""The compiled kernels of ``_fill.c``, built on first use and loaded with
ctypes: ``fvn_fill``, the block fill of comparison-method variates,
``fvn_refresh``, the regroup of one Wallace pass, and ``fvn_emitter``,
the draw of ``emitter``.

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
``wallace.refresh`` regroups with numpy, and ``emitter`` returns its
Python spelling.
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

# fvn_state.status, as _fill.c sets it
FILL_OVERFLOW, FILL_TRIALS = 1, 2


class Kernel(ctypes.Structure):
    _fields_ = [("rows", ctypes.c_void_p), ("cum", ctypes.c_void_p),
                ("K", ctypes.c_int64), ("normal", ctypes.c_int64),
                ("restart", ctypes.c_int64), ("recycling", ctypes.c_int64)]


class State(ctypes.Structure):
    _fields_ = [("buf", ctypes.c_void_p), ("nbuf", ctypes.c_int64),
                ("pos", ctypes.c_int64), ("spent", ctypes.c_int64),
                ("store", ctypes.c_void_p), ("nstore", ctypes.c_int64),
                ("sign_bits", ctypes.c_int64), ("sign_word", ctypes.c_int64),
                ("status", ctypes.c_int64), ("engine", ctypes.c_void_p)]


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
    lib.fvn_fill.argtypes = (ctypes.POINTER(Kernel), ctypes.POINTER(State),
                             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64)
    lib.fvn_fill.restype = ctypes.c_int64
    lib.fvn_refresh.argtypes = (ctypes.c_void_p, ctypes.c_int64,
                                ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
    lib.fvn_refresh.restype = None
    lib.fvn_emitter.argtypes = (ctypes.py_object, ctypes.py_object,
                                ctypes.c_void_p, ctypes.c_int64,
                                ctypes.c_void_p)
    lib.fvn_emitter.restype = ctypes.py_object
    return lib


def emitter(refill, values: array, cursor: array, lib=None):
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
    without it, it is the function below, which is its spec."""
    if values.typecode != "d" or cursor.typecode != "q" or len(cursor) != 2:
        raise ValueError("an emitter reads an array('d') block and an "
                         "array('q') cursor of two")
    keep = (memoryview(values), memoryview(cursor))
    make = getattr(lib, "fvn_emitter", None)
    if make is not None:
        return make(refill, keep, values.buffer_info()[0], len(values),
                    cursor.buffer_info()[0])

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
    """The ``Kernel`` of a table and recycling flag.  It keeps its row and
    mass arrays alive, since it holds only their addresses, and its
    composed draw ``draw``, for every variate the fill does not make."""
    from .samplers import comparison_draw   # deferred: an import cycle

    rows = array("d", (0.0 if v is None else v   # lo_sq on an exp table
                       for row in table.by_k for v in row))
    cum = array("d", table.cum_probs or ())
    kn = Kernel(rows.buffer_info()[0],
                cum.buffer_info()[0] if table.cum_probs else None,
                table.K, table.is_normal, table.restarts, recycling)
    kn.arrays = (rows, cum)
    kn.draw = functools.partial(comparison_draw, table)
    return kn
