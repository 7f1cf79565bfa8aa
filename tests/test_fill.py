"""Building and loading the compiled fill, its ctypes mirrors of the C
structs and constants, the composed draw that makes every variate when it
does not load, and the emitter of a block and a cursor in both its
spellings."""

import ctypes
import gc
import hashlib
import os
import shutil
import struct
import subprocess
import sys
import sysconfig
import weakref
from array import array
from pathlib import Path

import pytest

from fvn import _fill, bitstream, samplers
from fvn.bitstream import UniformSource
from fvn.samplers import comparison_draw, default_config, make_sampler
from tests.test_samplers import STREAM_PINS

ROOT = Path(__file__).resolve().parents[1]

needs_compiler = pytest.mark.skipif(shutil.which(_fill.COMPILER) is None,
                                    reason=f"no {_fill.COMPILER} on PATH")


@pytest.fixture
def fresh_library():
    """``_fill.library()`` loads afresh inside the test and again after it."""
    _fill.library.cache_clear()
    yield
    _fill.library.cache_clear()


@needs_compiler
def test_fill_source_compiles_without_warnings(tmp_path):
    out = tmp_path / "fill.so"
    _fill.compile_library(str(out), ("-Wall", "-Wextra", "-Werror"))
    assert "-ffp-contract=off" in _fill.FLAGS
    # numpy's bitgen.h, from the include directory of the numpy imported,
    # and this interpreter's Python.h and ABI tag, as sysconfig gives them
    assert _fill.INCLUDE in _fill.FLAGS and _fill._BITGEN_H.is_file()
    assert _fill.PYTHON_INCLUDE in _fill.FLAGS and _fill._PYTHON_H.is_file()
    assert _fill.PYTHON_INCLUDE == sysconfig.get_paths()["include"]
    assert _fill.ABI_TAG == f".{sysconfig.get_config_var('SOABI')}.so"
    assert out.is_file()


@needs_compiler
def test_the_cache_name_follows_numpys_bitgen_header(tmp_path, monkeypatch):
    """A numpy whose ``bitgen.h`` differs by one byte, a ``Python.h`` that
    differs by one byte, or another interpreter ABI tag each get a build
    of their own: a library built against another numpy or interpreter is
    never loaded, and the new build replaces it in the cache."""
    monkeypatch.setattr(_fill, "_cache_dirs", lambda: iter([tmp_path]))
    monkeypatch.setattr(_fill, "compile_library",
                        lambda out: Path(out).write_bytes(b""))
    names = [Path(_fill._build())]
    assert Path(_fill._build()) == names[0]
    for attr, header, old, new in (("_BITGEN_H", "bitgen.h", b"next_raw",
                                    b"next_raw_"),
                                   ("_PYTHON_H", "Python.h", b"#include",
                                    b"# include")):
        edited = tmp_path / header
        original = getattr(_fill, attr).read_bytes()
        assert old in original
        edited.write_bytes(original.replace(old, new, 1))
        monkeypatch.setattr(_fill, attr, edited)
        names.append(Path(_fill._build()))
    monkeypatch.setattr(_fill, "ABI_TAG", ".cpython-399-other.so")
    names.append(Path(_fill._build()))
    assert all(p.name.startswith("_fill-") for p in names)
    assert len(set(names)) == 4
    assert [p.name for p in tmp_path.glob("*.so")] == [names[-1].name]


@needs_compiler
def test_no_python_headers_means_no_library(tmp_path, monkeypatch,
                                            fresh_library):
    """A host with gcc but no ``Python.h`` gets no library, as a host with
    no compiler, and a bound sampler still draws its pinned stream."""
    monkeypatch.setattr(_fill, "_cache_dirs", lambda: iter([tmp_path]))
    monkeypatch.setattr(_fill, "_PYTHON_H", tmp_path / "Python.h")
    assert _fill.library() is None
    assert list(tmp_path.iterdir()) == []
    config = default_config(samplers.NORMAL_GRAND)
    src = UniformSource(20240, recycling=config.recycling_enabled)
    draw = make_sampler(config, src)
    sha = hashlib.sha256()
    for _ in range(20_000):
        sha.update(struct.pack("<d", draw()))
    assert (sha.hexdigest(), src.draws) == STREAM_PINS[samplers.NORMAL_GRAND]


@needs_compiler
def test_a_new_build_unlinks_the_stale_ones(tmp_path, monkeypatch):
    """A build renamed into place unlinks the other ``_fill-*.so`` of its
    folder and nothing else; a library already loaded from one of them
    still runs.  A cache hit unlinks nothing."""
    monkeypatch.setattr(_fill, "_cache_dirs", lambda: iter([tmp_path]))
    loaded = ctypes.CDLL(_fill._build())
    kept = [tmp_path / "_fill-notes.txt", tmp_path / "tmp1234.so"]
    stale = [tmp_path / "_fill-0123.so", tmp_path / "_fill-4567.so"]
    for path in kept + stale:
        path.write_bytes(b"")
    assert Path(_fill._build()).is_file() and stale[0].exists()
    edited = tmp_path / "bitgen.h"
    edited.write_bytes(_fill._BITGEN_H.read_bytes() + b"\n")
    monkeypatch.setattr(_fill, "_BITGEN_H", edited)
    monkeypatch.setattr(_fill, "compile_library",
                        lambda out: Path(out).write_bytes(b""))
    built = Path(_fill._build())
    assert sorted(tmp_path.iterdir()) == sorted([built, edited, *kept])
    values = (ctypes.c_double * 4)(1.0, 2.0, 3.0, 4.0)
    q = (ctypes.c_double * 16)(*[float(i % 5 == 0) for i in range(16)])
    loaded.fvn_refresh(values, ctypes.c_int64(4), ctypes.c_int64(1),
                       ctypes.c_int64(0), q)
    assert list(values) == [1.0, 2.0, 3.0, 4.0]     # q is the identity


@needs_compiler
def test_a_fresh_build_is_quiet_and_leaves_only_the_library(
        tmp_path, monkeypatch, fresh_library, capfd):
    monkeypatch.setattr(_fill, "_cache_dirs", lambda: iter([tmp_path]))
    assert _fill.library() is not None
    assert capfd.readouterr() == ("", "")
    built = list(tmp_path.iterdir())
    assert [p.suffix for p in built] == [".so"]
    assert built[0].name.startswith("_fill-")


@needs_compiler
def test_concurrent_first_uses_all_load_one_library(tmp_path):
    """Three interpreters that build into one empty cache at once: each
    writes a temporary name and renames it, so each loads a whole library
    and fills the pinned stream."""
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from fvn import _fill, UniformSource\n"
        "from fvn.samplers import default_config\n"
        "_fill._cache_dirs = lambda: iter([Path(sys.argv[1])])\n"
        "assert _fill.library() is not None\n"
        "table = default_config('normal_grand').table\n"
        "print(sum(UniformSource(20240).fill_variates(table, 20000)))\n")
    procs = [subprocess.Popen(
        [sys.executable, "-c", code, str(tmp_path)], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True) for _ in range(3)]
    results = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0, 0], results
    assert len({out for out, _ in results}) == 1
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]


def test_make_sampler_falls_back_to_the_composed_draw(monkeypatch,
                                                      fresh_library):
    """A build that fails leaves the samplers on the composed draw, which
    draws every pinned stream and, as the fill does, reads a block
    ahead of a bound sampler's draws."""
    def fail():
        raise OSError("no compiler")

    monkeypatch.setattr(_fill, "_build", fail)
    assert _fill.library() is None
    for kind, pin in STREAM_PINS.items():
        config = default_config(kind)
        src = UniformSource(20240, recycling=config.recycling_enabled)
        draw = make_sampler(config, src)
        sha = hashlib.sha256()
        for _ in range(20_000):
            sha.update(struct.pack("<d", draw()))
        assert (sha.hexdigest(), src.draws) == pin, kind
    # draws exact at the value reached, the source a block ahead of it
    config = default_config(samplers.NORMAL_GRAND)
    src, twin = (UniformSource(3, recycling=True) for _ in range(2))
    draw = make_sampler(config, src)
    assert draw() == comparison_draw(config.table, twin)
    assert src.draws == twin.draws
    for _ in range(bitstream.FILL_BLOCK - 1):
        comparison_draw(config.table, twin)
    assert (src._spent + src._pos, src.recycled, src._sign_bits,
            src._sign_word) == (twin.draws, twin.recycled, twin._sign_bits,
                                twin._sign_word)
    with pytest.raises(ValueError, match="already feeds a bound sampler"):
        make_sampler(config, src)


def layout_probe(checks: dict[str, int]) -> str:
    """A C file that includes ``_fill.c`` and asserts, at compile time,
    that each expression of ``checks`` has its value."""
    return (f'#include "{_fill._SOURCE}"\n'
            + "".join(f'_Static_assert(({expr}) == {value}, '
                      f'"{expr} is not {value}");\n'
                      for expr, value in checks.items()))


def syntax_check(tmp_path, source: str) -> subprocess.CompletedProcess:
    probe = tmp_path / "probe.c"
    probe.write_text(source)
    return subprocess.run(
        [_fill.COMPILER, "-fsyntax-only", "-I", _fill.INCLUDE,
         "-I", _fill.PYTHON_INCLUDE, str(probe)],
        capture_output=True, text=True, timeout=_fill.BUILD_TIMEOUT_S)


@needs_compiler
def test_ctypes_structs_match_the_c_layout(tmp_path):
    """``_fill.Kernel`` and ``_fill.State`` have the size and the field
    offsets of the C structs they mirror, and ``bitstream`` and ``_fill``
    the constants that ``_fill.c`` repeats: a file that includes
    ``_fill.c`` asserts each with ``_Static_assert``, checked by the
    compiler with ``-fsyntax-only`` against numpy's and Python's headers,
    so nothing is linked.  One wrong value fails that check."""
    expected = {}
    for name, mirror in (("fvn_kernel", _fill.Kernel), ("fvn_state", _fill.State)):
        expected[f"sizeof({name})"] = ctypes.sizeof(mirror)
        for field, _ in mirror._fields_:
            expected[f"offsetof({name}, {field})"] = getattr(mirror, field).offset
    for module, names in ((bitstream, ("WORD_BITS", "MAX_RUN_LENGTH", "MAX_TRIALS")),
                          (_fill, ("FILL_OVERFLOW", "FILL_TRIALS"))):
        expected.update((name, getattr(module, name)) for name in names)
    assert len(expected) == 2 + 6 + 10 + 5
    proc = syntax_check(tmp_path, layout_probe(expected))
    assert proc.returncode == 0, proc.stderr
    wrong = {**expected, "offsetof(fvn_state, engine)":
             expected["offsetof(fvn_state, engine)"] + 8}
    proc = syntax_check(tmp_path, layout_probe(wrong))
    assert proc.returncode != 0
    assert "offsetof(fvn_state, engine) is not" in proc.stderr


# The emitter, in its two spellings: ``fvn_emitter`` of the compiled
# library and the Python function that is its spec.

SPELLINGS = ("c", "python")


@pytest.fixture(params=SPELLINGS)
def spelling(request):
    """The ``lib`` argument of ``_fill.emitter`` for a spelling."""
    if request.param == "python":
        return None
    if _fill.library() is None:
        pytest.skip("the compiled library did not load")
    return _fill.library()


class ScriptedRefill:
    """A refill that plays ``steps`` in order, one per call: an exception
    is raised; a pair (made, limit) writes ``made`` new values and sets
    the cursor to 0 and ``limit``; None returns without a change.  It
    holds the block and the cursor, not the draw."""

    def __init__(self, values, cursor, steps):
        self.values, self.cursor = values, cursor
        self.steps = iter(steps)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        step = next(self.steps)
        if isinstance(step, BaseException):
            raise step
        if step is not None:
            made, limit = step
            for k in range(made):
                self.values[k] = 100.0 * self.calls + k
            self.cursor[0], self.cursor[1] = 0, limit


def play(draw, cursor, n):
    """The value or the error of ``n`` draws, each with the cursor after
    it."""
    out = []
    for _ in range(n):
        try:
            got = draw()
        except (RuntimeError, ValueError, IndexError) as exc:
            got = f"{type(exc).__name__}: {exc}"
        out.append((got, tuple(cursor)))
    return out


def test_emitter_spellings_agree_on_a_scripted_refill(spelling):
    """Values, raises and the cursor after every draw, on each spelling:
    the block read in place, a refill that raises (the draw stays usable
    and calls the refill again), one that makes 0 values or leaves the
    cursor used up (RuntimeError, never a stale value), a partial block,
    and a cursor past the block's end (IndexError, nothing read).  The
    draw pins both arrays, and a block or cursor of another type or
    length is refused."""
    values, cursor = array("d", [7.0, 8.0, 9.0]), array("q", [1, 3])
    refill = ScriptedRefill(values, cursor, [
        (3, 3), ValueError("engine failed"), (2, 2), (0, 0), None, (1, 1),
        (3, 4)])
    draw = _fill.emitter(refill, values, cursor, spelling)
    assert play(draw, cursor, 14) == [
        (8.0, (2, 3)), (9.0, (3, 3)),               # the block as it was
        (100.0, (1, 3)), (101.0, (2, 3)), (102.0, (3, 3)),
        ("ValueError: engine failed", (3, 3)),
        (300.0, (1, 2)), (301.0, (2, 2)),
        ("RuntimeError: the refill made no values", (0, 0)),
        ("RuntimeError: the refill made no values", (0, 0)),
        (600.0, (1, 1)),
        (700.0, (1, 4)), (701.0, (2, 4)), (702.0, (3, 4)),
    ]
    assert play(draw, cursor, 2) == [
        ("IndexError: array index out of range", (3, 4))] * 2
    assert refill.calls == 7
    for pinned in (values, cursor):
        with pytest.raises(BufferError):
            pinned.append(0)
    for block, at in ((array("f", [1.0]), cursor), (values, array("l", [0, 1])),
                      (values, array("q", [0]))):
        with pytest.raises(ValueError, match="an emitter reads"):
            _fill.emitter(refill, block, at, spelling)


def test_emitter_lets_its_block_and_refill_go_with_it(spelling):
    """The draw holds the block, the cursor and the refill while it lives,
    and lets them go, with no garbage collection, when it goes."""
    values, cursor = array("d", [1.0, 2.0]), array("q", [0, 2])
    refill = ScriptedRefill(values, cursor, [(2, 2)] * 3)
    draw = _fill.emitter(refill, values, cursor, spelling)
    held = [weakref.ref(obj) for obj in (values, cursor, refill)]
    del values, cursor, refill
    assert [draw() for _ in range(6)] == [1.0, 2.0, 100.0, 101.0, 200.0, 201.0]
    assert all(ref() is not None for ref in held)
    gc.disable()
    try:
        del draw
        assert [ref() for ref in held] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.usefixtures("fresh_library")
@pytest.mark.parametrize("kind", [samplers.NORMAL_GRAND, samplers.WALLACE])
def test_a_bound_draw_is_the_emitter_of_its_spelling(kind, monkeypatch):
    """A comparison kind and Wallace both bind the emitter: a builtin when
    the library loads, the Python function when it does not."""
    config = default_config(kind)
    if _fill.library() is not None:
        draw = make_sampler(config, UniformSource(
            1, recycling=config.recycling_enabled))
        assert type(draw).__name__ == "builtin_function_or_method"
    monkeypatch.setattr(_fill, "library", lambda: None)
    draw = make_sampler(config, UniformSource(
        1, recycling=config.recycling_enabled))
    assert draw.__qualname__ == "emitter.<locals>.draw"
