"""Building and loading the compiled fill, its ctypes mirrors of the C
structs, and the composed draw that runs when it does not load."""

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from fvn import _fill, samplers
from fvn.bitstream import UniformSource
from fvn.samplers import default_config, make_sampler
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
    assert out.is_file()


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
    reads nothing ahead and draws every pinned stream."""
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
    # nothing read ahead: the source's own position is the draws
    config = default_config(samplers.NORMAL_GRAND)
    src = UniformSource(3, recycling=True)
    draw = make_sampler(config, src)
    draw()
    assert src.draws == src._spent + src._pos
    with pytest.raises(ValueError, match="already feeds a bound sampler"):
        make_sampler(config, src)


@needs_compiler
def test_ctypes_structs_match_the_c_layout(tmp_path):
    """``_fill.Kernel`` and ``_fill.State`` have the size and the field
    offsets of the C structs they mirror, as a program that includes
    ``_fill.c`` prints them."""
    expected = {}
    for name, mirror in (("fvn_kernel", _fill.Kernel), ("fvn_state", _fill.State)):
        expected[f"sizeof({name})"] = ctypes.sizeof(mirror)
        for field, _ in mirror._fields_:
            expected[f"offsetof({name}, {field})"] = getattr(mirror, field).offset
    probe, exe = tmp_path / "probe.c", tmp_path / "probe"
    probe.write_text(f'#include "{_fill._SOURCE}"\n#include <stdio.h>\n'
                     "int main(void) {\n"
                     + "".join(f'printf("%zu\\n", {expr});\n' for expr in expected)
                     + "return 0;\n}\n")
    subprocess.run([_fill.COMPILER, "-o", str(exe), str(probe), "-lm"],
                   check=True, capture_output=True, timeout=_fill.BUILD_TIMEOUT_S)
    out = subprocess.run([str(exe)], check=True, capture_output=True,
                         text=True, timeout=60).stdout
    assert dict(zip(expected, map(int, out.split()))) == expected
