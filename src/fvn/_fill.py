"""The compiled kernels of ``_fill.c``, built on first use and loaded as a
CPython extension module, ``library()``: ``fill_source``, the block fill
of comparison-method variates run on a ``UniformSource``'s own state;
``kernel``, a table's kernel as the fill reads it, which keeps the one
fill compiled for its table's shape; and the two constructors of a bound
sampler's draw, which is called with no arguments and refills in C on
every engine: ``fill_emitter``'s runs the fill for a comparison sampler,
and ``pass_emitter``'s begins the next pass, regroup, variance redraw and
snapshot, of a Wallace pool.  The pass's regroup is the C spelling of
``wallace.refresh``, the numpy spec.  The draw is a builtin method, a
``METH_FASTCALL | METH_KEYWORDS`` C function bound to an object of the
module's type ``Draw``, which holds its state: CPython 3.11 specialises a
call to such a builtin, so a value costs no generic call, where a call to
an object of a vectorcall type is not specialised.  A numpy engine's
``bitgen_t`` is read from the engine's own capsule, so no address
crosses Python.  The module also exports the constants it shares with
Python: ``WORD_BITS``, ``MAX_RUN_LENGTH``, ``MAX_TRIALS``,
``FILL_OVERFLOW``, ``FILL_TRIALS`` and ``GUIDE_LEN``.

The module is compiled by the installed gcc, against numpy's own
``bitgen_t`` (``numpy/random/bitgen.h``) and this interpreter's
``Python.h``, into a cache named by the sha256 of the source, those two
headers, the interpreter's ABI tag (its ``SOABI``), the flags and the
compiler, in this package's ``__pycache__`` or, when that is not
writable, in a private directory under ``tempfile.gettempdir()``.  So two
interpreters never share a build.  A build writes a temporary name and
then renames it, so processes that start at once never load a
half-written file.  Nothing is printed: when no compiler, no Python
headers, no cache or no module works, ``library()`` is None: the
composed draw ``samplers.comparison_draw`` makes every variate and
``wallace._next_pass`` begins every pass.  ``wallace.refresh`` regroups
with numpy whether the module loads or not.
"""

from __future__ import annotations

import contextlib
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
from typing import Callable, NamedTuple

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
# the module's name, which names its init function, PyInit__fill
MODULE = "_fill"

# fvn_state.status, as _fill.c sets it: the index of its message in
# bitstream._FILL_ERRORS
FILL_OVERFLOW, FILL_TRIALS = 1, 2
# the entries of a mass table's guide, a power of two, so b / GUIDE_LEN
# and u * GUIDE_LEN are exact
GUIDE_LEN = 256


def compile_library(out: str, extra_flags: tuple[str, ...] = ()) -> None:
    """Compile ``_fill.c`` to the extension module ``out``; OSError if the
    compiler fails."""
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
    """The path of the compiled module, built first if not yet cached.
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


def _load(path: str):
    """The extension module at ``path``, not entered in ``sys.modules``;
    ImportError when it does not load."""
    loader = importlib.machinery.ExtensionFileLoader(MODULE, path)
    spec = importlib.machinery.ModuleSpec(MODULE, loader, origin=path)
    module = loader.create_module(spec)
    loader.exec_module(module)
    return module


@functools.cache
def library():
    """The compiled extension module, or None when it cannot be built or
    loaded."""
    try:
        return _load(_build())
    except (OSError, ImportError):
        return None


class Kernel(NamedTuple):
    """A table's kernel for one recycling flag: ``compiled``, the
    extension module's kernel, which reads the table's rows, ``cum`` and
    ``guide`` and holds them, or None with no module; and ``draw``, the
    composed draw, which makes every variate with no module."""
    compiled: object
    cum: array | None
    guide: array | None
    draw: Callable


def kernel(table, recycling: bool) -> Kernel:
    """The ``Kernel`` of a table and recycling flag, for ``library()``.
    Its arrays are the rows, ``flat_rows(table)``, and, on a mass table, its ``cum_probs`` and their guide, GUIDE_LEN bytes with
    ``guide[b] = bisect_right(cum_probs, b / GUIDE_LEN)``, from which
    the fill finds the index ``tables.select_interval`` bisects for;
    ``cum`` and ``guide`` are None on a dyadic table.  The compiled kernel
    keeps the module's fill of the table's shape and recycling flag; it
    refuses a table whose restart the fill cannot make, see
    ``IntervalTable.restarts``."""
    return _kernel(table, recycling, library())


def flat_rows(table) -> array:
    """``table.by_k`` as a kernel reads it: K x (low, width, top, low_sq)
    doubles, low_sq 0.0 on an exponential table."""
    return array("d", (0.0 if v is None else v
                       for row in table.by_k for v in row))


@functools.lru_cache(maxsize=32)
def _kernel(table, recycling: bool, lib) -> Kernel:
    from .samplers import comparison_draw   # deferred: an import cycle

    rows = flat_rows(table)
    cum = guide = None
    if table.cum_probs:
        cum = array("d", table.cum_probs)
        # K <= tables.MAX_TABLE_LEN, so every entry fits a byte
        guide = array("B", (bisect_right(table.cum_probs, b / GUIDE_LEN)
                            for b in range(GUIDE_LEN)))
    make = getattr(lib, "kernel", None)
    compiled = None if make is None else make(
        rows, cum, guide, table.K, table.is_normal, table.restarts, recycling)
    return Kernel(compiled, cum, guide,
                  functools.partial(comparison_draw, table))
