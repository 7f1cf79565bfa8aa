"""Building and loading the extension module of the compiled fill, the
constants it exports, the composed draw that makes every variate when it
does not load, and the module's draw over a block and a cursor."""

import dis
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
from hypothesis import given, settings
from hypothesis import strategies as st

from fvn import _fill, bitstream, samplers, tables, wallace
from fvn.bitstream import UniformSource
from fvn.samplers import comparison_draw, default_config, make_sampler
from tests.test_comparison_draw import RawOnly, WeakPCG64, assert_compiled_draw
from tests.test_comparison_draw import state as source_state
from tests.test_samplers import STREAM_PINS
from tests.test_wallace import (hand_pool, nan_blind_pool, pool_values,
                                refuse_python_pass, skip_values)

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
    table = default_config(samplers.EXP_BRENT).table
    kernel = loaded.kernel(_fill.flat_rows(table), None, None, table.K,
                           table.is_normal, table.restarts, True)
    src, twin = UniformSource(5), UniformSource(5)
    values, counts = array("d", bytes(8 * 8)), array("q", bytes(8 * 9))
    assert loaded.fill_source(src, kernel, values, counts, 8) == (8, None)
    # the composed draw: fill_variates would load the library patched here
    assert list(values) == [comparison_draw(table, twin) for _ in range(8)]
    assert src.draws == twin.draws


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
    draws every pinned stream.  A bound comparison sampler is then the
    composed draw itself: it reads nothing ahead, so the whole state is
    the composed draw's after every value."""
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
    config = default_config(samplers.NORMAL_GRAND)
    src, twin = (UniformSource(3, recycling=True) for _ in range(2))
    draw = make_sampler(config, src)
    assert (draw.func, draw.args) == (comparison_draw, (config.table, src))
    for _ in range(bitstream.FILL_BLOCK + 1):
        assert draw() == comparison_draw(config.table, twin)
        assert source_state(src) == source_state(twin)
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


def test_the_module_exports_its_draws_kernels_and_constants_only(compiled):
    """The module's public names are the draw's type, its kernel, its two
    draw constructors, the block fill and the six constants: the Wallace
    regroup has no entry of its own, the pass is its one caller."""
    assert {n for n in dir(compiled) if not n.startswith("_")} == {
        "Draw", "kernel", "fill_emitter", "pass_emitter", "fill_source",
        "WORD_BITS", "MAX_RUN_LENGTH", "MAX_TRIALS", "FILL_OVERFLOW",
        "FILL_TRIALS", "GUIDE_LEN"}


@needs_compiler
@pytest.mark.parametrize("broken", ["truncated", "no-init"])
def test_an_unloadable_module_means_no_library(broken, tmp_path, monkeypatch,
                                               fresh_library):
    """A file at the cache name that does not load as the module, the
    head of a real build or a shared object with no ``PyInit__fill``,
    gives no library, and a bound sampler, the composed draw itself,
    still draws its pinned stream."""
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
    assert draw.func is comparison_draw
    sha = hashlib.sha256()
    for _ in range(20_000):
        sha.update(struct.pack("<d", draw()))
    assert (sha.hexdigest(), src.draws) == STREAM_PINS[samplers.NORMAL_GRAND]


@pytest.fixture(scope="module")
def optimised(tmp_path_factory):
    """``library()``, built at FLAGS' -O2, and the module built again at
    -O0 and at -O3, which gcc takes over the -O2 before it; the test
    skips when ``library()`` does not load."""
    lib = _fill.library()
    if lib is None:
        pytest.skip("the compiled library did not load")
    folder = tmp_path_factory.mktemp("levels")
    builds = {"-O2": lib}
    for level in ("-O0", "-O3"):
        out = folder / f"fill{level}.so"
        _fill.compile_library(str(out), (level,))
        builds[level] = _fill._load(str(out))
    return builds


@needs_compiler
@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf, overflow
@pytest.mark.parametrize("size", [4, 8, 256, 1020, 4096])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_the_regroup_does_not_depend_on_the_optimiser(optimised, size, data,
                                                      seed):
    """The draw of ``pass_emitter`` of the -O2, -O0 and -O3 builds, each
    on a twin of a hand-built pool of the regroup's spec test and of its
    source, makes the pool's bytes of ``_next_pass`` on another twin, a
    NaN's sign aside, after each of 16 even and odd passes: the lanes'
    sums keep their order at every level."""
    values = data.draw(pool_values(size))
    pools, draws = [], []
    for lib in optimised.values():
        pools.append(hand_pool(values))
        # a cursor at the end: the first call begins a pass
        draws.append(lib.pass_emitter(
            pools[-1], UniformSource(seed, recycling=False), pools[-1].emitted,
            array("q", [size, size]), wallace._PASS_Q))
    spec, spec_src = hand_pool(values), UniformSource(seed, recycling=False)
    for i in range(16):
        for draw in draws:
            draw()
            skip_values(draw, size - 1)
        wallace._next_pass(spec, spec_src)
        assert {nan_blind_pool(pool) for pool in pools} == \
            {nan_blind_pool(spec)}, i


@needs_compiler
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", [samplers.EXP_VN, samplers.EXP_BRENT,
                                  samplers.NORMAL_FORSYTHE,
                                  samplers.NORMAL_GRAND])
def test_the_fill_does_not_depend_on_the_optimiser(optimised, kind,
                                                   recycling):
    """2,000 variates of ``fill_source`` on each kind's default table and
    recycling flag, so on each of the module's fills: the -O0 and -O3
    builds make the values, counts and source state of the -O2 build."""
    config = default_config(kind, recycling=recycling)
    outcomes = set()
    for lib in optimised.values():
        src = UniformSource(2038, recycling=config.recycling_enabled)
        values = array("d", bytes(8 * 2000))
        counts = array("q", bytes(8 * 2001))
        kernel = _fill._kernel(config.table, config.recycling_enabled, lib)
        made, error = lib.fill_source(src, kernel.compiled, values, counts,
                                      2000)
        assert (made, error) == (2000, None)
        outcomes.add((values.tobytes(), counts.tobytes(),
                      repr(source_state(src))))
    assert len(outcomes) == 1


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


@pytest.mark.parametrize("recycling", [False, True])
def test_only_unit_exponential_mass_rows_restart(compiled, recycling):
    """The restart fill takes exp_vn's position as its shifted exponent,
    which holds only when every width and top is 1.0: ``kernel`` makes a
    restarting kernel on exponential mass rows of unit width and top, and
    refuses rows with a width or a top of 0.5, a restart on normal or
    dyadic rows, and exponential mass rows that do not restart."""
    table = tables.IntervalTable(tables.EXP_VN, 8)
    kn = _fill.kernel(table, recycling)
    rows = _fill.flat_rows(table)
    assert set(rows[1::4]) == set(rows[2::4]) == {1.0}
    compiled.kernel(rows, kn.cum, kn.guide, 8, False, True, recycling)
    refused = []
    for field in (1, 2):   # a width, then a top, of 0.5
        half = array("d", rows)
        half[4 * 3 + field] = 0.5
        refused.append((half, kn.cum, kn.guide, False, True))
    normal = tables.IntervalTable(tables.NORMAL_FORSYTHE, 8)
    normal_kn = _fill.kernel(normal, recycling)
    refused += [(_fill.flat_rows(normal), normal_kn.cum, normal_kn.guide, True,
                 True),
                (rows, None, None, False, True),
                (rows, kn.cum, kn.guide, False, False)]
    for rows_, cum, guide, is_normal, restart in refused:
        with pytest.raises(ValueError, match="restarts its trials"):
            compiled.kernel(rows_, cum, guide, 8, is_normal, restart,
                            recycling)


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


# The module's draw, a builtin method bound to a ``Draw``, with each of
# its refills: the fill on a numpy engine, the fill on an engine read
# through ``random_raw`` and the Wallace pass.

REFILLS = ("fill", "random-raw", "pass")
BLOCK = bitstream.FILL_BLOCK


def bound_draw(refill, seed):
    """A bound draw whose refill is ``refill``, its source, on an engine
    that a weak reference can follow, and the arrays it pins: the block
    and, for the fill's, the cursor and the counts."""
    if refill == "pass":
        src = UniformSource(seed, engine=WeakPCG64(seed), recycling=False)
        pool = wallace.init_pool(256, src)
        return wallace.emit_passes(pool, src), src, (pool.emitted,)
    engine = (RawOnly(np.random.PCG64(seed)) if refill == "random-raw"
              else WeakPCG64(seed))
    src = UniformSource(seed, engine=engine)
    draw = make_sampler(default_config(samplers.NORMAL_GRAND), src)
    ahead = src._bound
    return draw, src, (ahead.values, ahead.cursor, ahead.counts)


@pytest.fixture
def compiled():
    """The extension module; the test skips when it does not load."""
    if _fill.library() is None:
        pytest.skip("the compiled library did not load")
    return _fill.library()


@pytest.mark.usefixtures("fresh_library")
@pytest.mark.parametrize("kind", [samplers.NORMAL_GRAND, samplers.WALLACE])
def test_a_bound_draw_is_the_emitter_of_its_spelling(kind, monkeypatch):
    """A comparison kind and Wallace both bind the module's draw when
    it loads; when it does not, a comparison kind binds the composed draw
    and Wallace ``emit_passes``' Python draw.  The compiled Wallace draw
    begins its passes with no Python pass."""
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
        assert_compiled_draw(draw, _fill.library())
        if kind == samplers.WALLACE:
            for _ in range(3 * wallace.DEFAULT_POOL_SIZE + 1):
                draw()
            assert pools[0].pass_count == 3
    monkeypatch.setattr(_fill, "library", lambda: None)
    draw = make_sampler(config, UniformSource(
        1, recycling=config.recycling_enabled))
    if kind == samplers.WALLACE:
        assert draw.__qualname__ == "emit_passes.<locals>.draw"
    else:
        assert draw.func is comparison_draw


def test_a_draw_reads_its_block_in_place(compiled):
    """The draw returns ``values[cursor[0]]`` and steps the cursor while
    ``cursor[0] < cursor[1]``, reading the block in place; a cursor past
    the block's end raises IndexError and reads nothing, and a refill that
    makes no values raises RuntimeError, so a stale value is never read.
    The draw pins its arrays, and a block or cursor of another type or
    length is refused."""
    draw, _, (values, cursor, counts) = bound_draw("fill", 35)
    assert draw() == values[0] and tuple(cursor) == (1, BLOCK)
    values[1] = 7.5
    assert draw() == 7.5 and tuple(cursor) == (2, BLOCK)
    cursor[0], cursor[1] = BLOCK, BLOCK + 2
    for _ in range(2):
        with pytest.raises(IndexError, match="array index out of range"):
            draw()
        assert tuple(cursor) == (BLOCK, BLOCK + 2)
    for pinned in (values, cursor, counts):
        with pytest.raises(BufferError):
            pinned.append(0)
    kernel = _fill.kernel(default_config(samplers.NORMAL_GRAND).table, True)
    empty = compiled.fill_emitter(UniformSource(1), kernel.compiled,
                                  array("d"), array("q", [0, 0]),
                                  array("q", [0]))
    with pytest.raises(RuntimeError, match="the refill made no values"):
        empty()
    for block, at in ((array("f", [1.0]), cursor), (values, array("l", [0, 1])),
                      (values, array("q", [0]))):
        with pytest.raises(ValueError, match="an emitter reads"):
            compiled.fill_emitter(UniformSource(1), kernel.compiled, block,
                                  at, counts)


def test_a_draw_takes_no_arguments(compiled):
    """A call with a positional or keyword argument raises TypeError and
    neither reads a value nor refills: the cursor, the counts and
    ``draws`` are unchanged, and the next call reads on, with a value to
    read and at a used-up block."""
    (draw, src, (_, cursor, counts)), (twin, _, _) = (
        bound_draw("fill", 36) for _ in range(2))
    for stop in (1, BLOCK - 1):
        assert [draw() for _ in range(stop)] == [twin() for _ in range(stop)]
        before = (tuple(cursor), counts.tobytes(), src.draws)
        for args, kwargs in (((1,), {}), ((), {"x": 1}), ((None,), {"x": 1})):
            with pytest.raises(TypeError, match="takes no arguments"):
                draw(*args, **kwargs)
            assert (tuple(cursor), counts.tobytes(), src.draws) == before
        assert draw() == twin()


@pytest.mark.parametrize("refill", REFILLS)
def test_a_bound_draw_refuses_arguments_where_it_stands(refill, compiled):
    """With each refill, a call with an argument raises TypeError inside a
    block and at its end, and the values and ``draws`` after it are those
    of a twin that was never so called."""
    (draw, src, _), (twin, twin_src, _) = (bound_draw(refill, 31)
                                           for _ in range(2))
    assert_compiled_draw(draw, compiled)
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
    assert_compiled_draw(draw, compiled)
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


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info < (3, 11),
                    reason="CPython specialises calls from 3.11 on")
def test_the_interpreter_calls_a_draw_as_a_fast_builtin(compiled):
    """Once warm, a loop's call to a fill draw and to a pass draw is each
    specialised to call the draw's C function directly (3.11's
    ``PRECALL_BUILTIN_FAST_WITH_KEYWORDS``).  A draw that is an object
    of a vectorcall type, or a ``METH_NOARGS`` builtin, keeps 3.11's
    generic call on every value."""
    (fill, _, _), (wallace_pass, _, _) = (bound_draw(refill, 37)
                                          for refill in ("fill", "pass"))

    def loop(a, b):
        for _ in range(300):
            a()
            b()

    for _ in range(4):
        loop(fill, wallace_pass)
    opnames = [ins.opname for ins in dis.get_instructions(loop, adaptive=True)]
    assert sum("BUILTIN_FAST" in name for name in opnames) == 2, opnames
