"""The compiled block fill: ``_fill.c``, built on first use and loaded with
ctypes.

The library is compiled by the installed gcc into a cache named by the
sha256 of the source, the flags and the compiler, in this package's
``__pycache__`` or, when that is not writable, in a private directory
under ``tempfile.gettempdir()``.  A build writes a temporary name and
then renames it, so processes that start at once never load a
half-written file.  Nothing is printed: when no compiler, cache or
library works, ``library()`` is None and the samplers run the composed
draw ``samplers.comparison_draw``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import stat
import tempfile
from array import array
from pathlib import Path

_SOURCE = Path(__file__).with_name("_fill.c")
COMPILER = "gcc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120

# fvn_state.status, as _fill.c sets it
FILL_EMPTY, FILL_OVERFLOW, FILL_TRIALS = 1, 2, 3


class Kernel(ctypes.Structure):
    _fields_ = [("rows", ctypes.c_void_p), ("cum", ctypes.c_void_p),
                ("ncum", ctypes.c_int64), ("normal", ctypes.c_int64),
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
    """The path of the compiled library, built first if not yet cached."""
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise OSError(f"no {COMPILER} on PATH")
    compiler = os.path.realpath(compiler)
    info = os.stat(compiler)
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update("\0".join(
        (*FLAGS, compiler, str(info.st_size), str(info.st_mtime_ns))).encode())
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
        return str(path)
    raise OSError(f"no writable cache for the fill: {error}")


@functools.cache
def library():
    """``fvn_fill`` from the compiled library, or None when it cannot be
    built or loaded."""
    try:
        lib = ctypes.PyDLL(_build())
    except OSError:
        return None
    fill = lib.fvn_fill
    fill.argtypes = (ctypes.POINTER(Kernel), ctypes.POINTER(State),
                     ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64)
    fill.restype = ctypes.c_int64
    return fill


@functools.lru_cache(maxsize=32)
def kernel(table, recycling: bool):
    """The ``Kernel`` of a table and recycling flag.  It keeps its row and
    mass arrays alive, since it holds only their addresses, and its table,
    on which the composed draw makes a variate that the fill stops at."""
    rows = array("d")
    for lo, width, top, lo_sq in table.by_k:
        rows.extend((lo, width, top, 0.0 if lo_sq is None else lo_sq))
    cum = array("d", table.cum_probs or ())
    kn = Kernel(rows.buffer_info()[0],
                cum.buffer_info()[0] if table.cum_probs else None,
                len(cum), table.is_normal, table.restarts, recycling)
    kn.arrays = (rows, cum)
    kn.table = table
    return kn
