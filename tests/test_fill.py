"""Building and loading the extension module of the compiled fill, the
constants it exports, the composed draw that makes every variate when it
does not load, and the emitter of a block and a cursor in both its
spellings, with the module's draw type."""

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
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np
import pytest

from fvn import _fill, bitstream, samplers, tables, wallace
from fvn.bitstream import UniformSource
from fvn.samplers import comparison_draw, default_config, make_sampler
from tests.test_comparison_draw import RawOnly, WeakPCG64
from tests.test_samplers import STREAM_PINS
from tests.test_wallace import refuse_python_pass

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
    folder and nothing else; a module already loaded from one of them
    still runs.  A cache hit unlinks nothing."""
    monkeypatch.setattr(_fill, "_cache_dirs", lambda: iter([tmp_path]))
    loaded = _fill._load(_fill._build())
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
    values = array("d", [1.0, 2.0, 3.0, 4.0])
    q = array("d", [float(i % 5 == 0) for i in range(16)])
    loaded.fvn_refresh(values, 1, 0, q)
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


@needs_compiler
@pytest.mark.parametrize("module, name", [
    pytest.param(module, name, id=name)
    for module, names in ((bitstream, ("WORD_BITS", "MAX_RUN_LENGTH",
                                       "MAX_TRIALS")),
                          (_fill, ("FILL_OVERFLOW", "FILL_TRIALS",
                                   "GUIDE_LEN")))
    for name in names])
def test_the_module_exports_the_constants_python_repeats(module, name):
    """Each constant that ``_fill.c`` and ``bitstream`` or ``_fill`` both
    spell is exported by the module, with the Python twin's value."""
    lib = _fill.library()
    assert lib is not None
    assert getattr(lib, name) == getattr(module, name)


@needs_compiler
@pytest.mark.parametrize("broken", ["truncated", "no-init"])
def test_an_unloadable_module_means_no_library(broken, tmp_path, monkeypatch,
                                               fresh_library):
    """A file at the cache name that does not load as the module, the
    head of a real build or a shared object with no ``PyInit__fill``,
    gives no library, and a bound sampler still draws its pinned stream,
    with the composed draw."""
    other = tmp_path / "other.c"
    other.write_text("int fvn_other(void) { return 0; }\n")
    compile_library = _fill.compile_library

    def build(out):
        if broken == "truncated":
            compile_library(out)
            Path(out).write_bytes(Path(out).read_bytes()[:512])
        else:
            subprocess.run([_fill.COMPILER, "-shared", "-fPIC", "-o", out,
                            str(other)], check=True, timeout=60)

    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(_fill, "_cache_dirs", lambda: iter([cache]))
    monkeypatch.setattr(_fill, "compile_library", build)
    assert _fill.library() is None
    assert [p.name for p in cache.iterdir()] == [Path(_fill._build()).name]
    config = default_config(samplers.NORMAL_GRAND)
    src = UniformSource(20240, recycling=config.recycling_enabled)
    draw = make_sampler(config, src)
    assert draw.__qualname__ == "emitter.<locals>.draw"
    sha = hashlib.sha256()
    for _ in range(20_000):
        sha.update(struct.pack("<d", draw()))
    assert (sha.hexdigest(), src.draws) == STREAM_PINS[samplers.NORMAL_GRAND]


def guide_of(kn):
    """The guide of a kernel, which its compiled kernel reads."""
    assert kn.guide.typecode == "B" and len(kn.guide) == _fill.GUIDE_LEN
    return list(kn.guide)


@pytest.mark.parametrize("K", [1, 2, 4, 8, 35, 36, 37, 53, 64])
@pytest.mark.parametrize("scheme", [tables.EXP_VN, tables.NORMAL_FORSYTHE])
def test_a_mass_table_kernel_points_at_its_guide(scheme, K):
    """Entry b of a mass-table kernel's guide is ``bisect_right(cum_probs,
    b / GUIDE_LEN)``, the first index ``select_interval`` can give for a u
    in bucket b, on either recycling flag; a dyadic kernel has no guide
    and no masses."""
    assert _fill.GUIDE_LEN & (_fill.GUIDE_LEN - 1) == 0
    table = tables.IntervalTable(scheme, K)
    want = [bisect_right(table.cum_probs, b / _fill.GUIDE_LEN)
            for b in range(_fill.GUIDE_LEN)]
    for recycling in (False, True):
        assert guide_of(_fill.kernel(table, recycling)) == want
    dyadic = tables.IntervalTable(tables.EXP_BRENT if scheme == tables.EXP_VN
                                  else tables.NORMAL_BRENT, K)
    kn = _fill.kernel(dyadic, True)
    assert (kn.cum, kn.guide) == (None, None)


def test_a_mass_on_a_bucket_edge_starts_the_next_bucket(monkeypatch):
    """Masses on bucket edges, 1/2 and 3/4, where ``bisect_left`` and
    ``bisect_right`` differ: a u of exactly 1/2 lies in interval 2, so
    the guide's entry for that bucket is past the mass."""
    monkeypatch.setitem(tables._LAYOUTS, tables.EXP_VN, lambda K: (
        (0.0, 1.0, 2.0, 3.0), None, (0.5, 0.75, 1.0)))
    table = tables.IntervalTable(tables.EXP_VN, 3)
    guide = guide_of(_fill.kernel(table, False))
    half, three_quarters = _fill.GUIDE_LEN // 2, 3 * _fill.GUIDE_LEN // 4
    assert guide[half - 1: half + 1] == [0, 1]
    assert guide[three_quarters - 1: three_quarters + 1] == [1, 2]
    assert guide == [bisect_right(table.cum_probs, b / _fill.GUIDE_LEN)
                     for b in range(_fill.GUIDE_LEN)]
    assert guide != [bisect_left(table.cum_probs, b / _fill.GUIDE_LEN)
                     for b in range(_fill.GUIDE_LEN)]


# The emitter, in its two spellings: the ``Draw`` of the extension module
# and the Python function that is its spec.

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
    """A comparison kind and Wallace both bind the emitter: the module's
    ``Draw`` when it loads, the Python function when it does not.  The
    compiled Wallace draw begins its passes with no Python pass."""
    config = default_config(kind)
    if _fill.library() is not None:
        pools = []
        init_pool = wallace.init_pool

        def record(*args):
            pools.append(init_pool(*args))
            return pools[-1]

        monkeypatch.setattr(wallace, "init_pool", record)
        refuse_python_pass(monkeypatch)
        draw = make_sampler(config, UniformSource(
            1, recycling=config.recycling_enabled))
        assert type(draw) is _fill.library().Draw
        if kind == samplers.WALLACE:
            for _ in range(3 * wallace.DEFAULT_POOL_SIZE + 1):
                draw()
            assert pools[0].pass_count == 3
    monkeypatch.setattr(_fill, "library", lambda: None)
    draw = make_sampler(config, UniformSource(
        1, recycling=config.recycling_enabled))
    assert draw.__qualname__ == "emitter.<locals>.draw"


def test_a_draw_takes_no_arguments(spelling):
    """A call with a positional or keyword argument raises TypeError, in
    either spelling, and neither reads a value nor refills: the cursor and
    the refill's calls are unchanged, and the next call reads on."""
    values, cursor = array("d", [7.0, 8.0]), array("q", [1, 2])
    refill = ScriptedRefill(values, cursor, [(2, 2)])
    draw = _fill.emitter(refill, values, cursor, spelling)
    # a value to read, then a used-up block
    for at, value in (((1, 2), 8.0), ((2, 2), 100.0)):
        for args, kwargs in (((1,), {}), ((), {"x": 1}), ((None,), {"x": 1})):
            with pytest.raises(TypeError):
                draw(*args, **kwargs)
            assert tuple(cursor) == at and refill.calls == 0
        assert draw() == value


# The module's ``Draw`` with each of its three refills: a Python refill
# (a bound comparison sampler on an engine the fill cannot read), the fill
# and the Wallace pass.

REFILLS = ("python", "fill", "pass")


def bound_draw(refill, seed):
    """A bound draw whose refill is ``refill``, its source, on an engine
    that a weak reference can follow, and the arrays it pins: the block
    and, but for the pass's, the cursor and, for the fill's, the counts
    (a Python refill writes them by index)."""
    if refill == "pass":
        src = UniformSource(seed, engine=WeakPCG64(seed), recycling=False)
        pool = wallace.init_pool(256, src)
        return wallace.emit_passes(pool, src), src, (pool.emitted,)
    engine = (RawOnly(np.random.PCG64(seed)) if refill == "python"
              else WeakPCG64(seed))
    src = UniformSource(seed, engine=engine)
    draw = make_sampler(default_config(samplers.NORMAL_GRAND), src)
    ahead = src._bound
    pinned = (ahead.values, ahead.cursor)
    if refill == "fill":
        pinned += (ahead.counts,)
    return draw, src, pinned


@pytest.fixture
def compiled():
    """The extension module; the test skips when it does not load."""
    if _fill.library() is None:
        pytest.skip("the compiled library did not load")
    return _fill.library()


@pytest.mark.parametrize("refill", REFILLS)
def test_a_bound_draw_refuses_arguments_where_it_stands(refill, compiled):
    """With each refill, a call with an argument raises TypeError inside a
    block and at its end, and the values and ``draws`` after it are those
    of a twin that was never so called."""
    (draw, src, _), (twin, twin_src, _) = (bound_draw(refill, 31)
                                           for _ in range(2))
    assert type(draw) is compiled.Draw
    for stop in (100, 512 - 100, 256 + 512):   # mid-block, a block's end
        assert [draw() for _ in range(stop)] == [twin() for _ in range(stop)]
        for args, kwargs in (((1,), {}), ((), {"x": 1})):
            with pytest.raises(TypeError, match="takes no arguments"):
                draw(*args, **kwargs)
        assert src.draws == twin_src.draws
    assert [draw() for _ in range(600)] == [twin() for _ in range(600)]
    assert src.draws == twin_src.draws


def test_python_cannot_make_a_draw(compiled):
    """The draw type has no constructor of its own: only the module's
    constructors make one."""
    with pytest.raises(TypeError):
        compiled.Draw()
    draw, _, _ = bound_draw("fill", 33)
    with pytest.raises(TypeError):
        type(draw)()


@pytest.mark.parametrize("refill", REFILLS)
def test_a_bound_draw_pins_its_arrays_and_frees_its_source(refill, compiled):
    """While a bound draw lives the arrays it reads can not be resized
    (BufferError), whatever its refill; once it is dropped its source goes
    and the arrays can be resized again."""
    draw, src, pinned = bound_draw(refill, 32)
    assert type(draw) is compiled.Draw
    held = weakref.ref(src)
    del src
    for _ in range(600):        # across a refill
        draw()
    for block in pinned:
        with pytest.raises(BufferError):
            block.append(0)
    gc.collect()
    assert held() is not None
    del draw
    gc.collect()
    assert held() is None
    for block in pinned:
        block.append(0)
