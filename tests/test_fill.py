"""Building and loading the compiled fill, its ctypes mirrors of the C
structs and constants, and the composed draw that makes every variate
when it does not load."""

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import sys
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
    # numpy's bitgen.h, from the include directory of the numpy imported
    assert _fill.INCLUDE in _fill.FLAGS and _fill._BITGEN_H.is_file()
    assert out.is_file()


@needs_compiler
def test_the_cache_name_follows_numpys_bitgen_header(tmp_path, monkeypatch):
    """A numpy whose ``bitgen.h`` differs by one byte gets a build of its
    own: a library built against another numpy is never loaded, and the
    new build replaces it in the cache."""
    monkeypatch.setattr(_fill, "_cache_dirs", lambda: iter([tmp_path]))
    monkeypatch.setattr(_fill, "compile_library",
                        lambda out: Path(out).write_bytes(b""))
    first = Path(_fill._build())
    assert Path(_fill._build()) == first
    edited = tmp_path / "bitgen.h"
    edited.write_bytes(_fill._BITGEN_H.read_bytes().replace(
        b"next_raw", b"next_raw_"))
    monkeypatch.setattr(_fill, "_BITGEN_H", edited)
    second = Path(_fill._build())
    assert second.name.startswith("_fill-") and second != first
    assert [p.name for p in tmp_path.glob("*.so")] == [second.name]


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


@needs_compiler
def test_ctypes_structs_match_the_c_layout(tmp_path):
    """``_fill.Kernel`` and ``_fill.State`` have the size and the field
    offsets of the C structs they mirror, and ``bitstream`` and ``_fill``
    the constants that ``_fill.c`` repeats, as a program that includes
    ``_fill.c`` prints them."""
    expected = {}
    for name, mirror in (("fvn_kernel", _fill.Kernel), ("fvn_state", _fill.State)):
        expected[f"sizeof({name})"] = ctypes.sizeof(mirror)
        for field, _ in mirror._fields_:
            expected[f"offsetof({name}, {field})"] = getattr(mirror, field).offset
    for module, names in ((bitstream, ("WORD_BITS", "MAX_RUN_LENGTH", "MAX_TRIALS")),
                          (_fill, ("FILL_OVERFLOW", "FILL_TRIALS"))):
        expected.update((name, getattr(module, name)) for name in names)
    probe, exe = tmp_path / "probe.c", tmp_path / "probe"
    probe.write_text(f'#include "{_fill._SOURCE}"\n#include <stdio.h>\n'
                     "int main(void) {\n"
                     + "".join(f'printf("%zu\\n", (size_t)({expr}));\n'
                               for expr in expected)
                     + "return 0;\n}\n")
    subprocess.run([_fill.COMPILER, "-I", _fill.INCLUDE, "-o", str(exe),
                    str(probe), "-lm"],
                   check=True, capture_output=True, timeout=_fill.BUILD_TIMEOUT_S)
    out = subprocess.run([str(exe)], check=True, capture_output=True,
                         text=True, timeout=60).stdout
    assert dict(zip(expected, map(int, out.split()))) == expected
