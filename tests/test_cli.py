"""Command-line contract: reproducibility, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_python(*args, cwd=None):
    """A fresh interpreter on this checkout's sources, whatever is
    installed."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True, env=env)


def run_cli(*args):
    """``python -m fvn``."""
    return run_python("-m", "fvn", *args)


def test_generate_repeats_byte_identically():
    a = run_cli("generate", "--sampler", "grand", "--n", "5", "--seed", "42")
    b = run_cli("generate", "--sampler", "grand", "--n", "5", "--seed", "42")
    assert a.returncode == 0
    assert a.stdout == b.stdout and a.stdout.count("\n") == 6


def test_generate_header_records_reproduction_parameters():
    out = run_cli("generate", "--sampler", "exp_vn", "--n", "1",
                  "--seed", "9").stdout
    header = out.splitlines()[0]
    assert header.startswith("#")
    for token in ("sampler=exp_vn", "seed=9", "n=1", "K=53"):
        assert token in header


def test_generate_takes_no_table_length():
    # every sampler runs on its one K = 53 table; only `tables` takes --K
    r = run_cli("generate", "--sampler", "exp_brent", "--K", "6")
    assert r.returncode == 2


def test_generate_hex_and_decimal_seeds_agree():
    a = run_cli("generate", "--sampler", "exp_brent", "--n", "8",
                "--seed", "0x2A")
    b = run_cli("generate", "--sampler", "exp_brent", "--n", "8",
                "--seed", "42")
    assert a.stdout == b.stdout


def test_generate_zero_count_emits_header_only():
    r = run_cli("generate", "--sampler", "exp_vn", "--n", "0", "--seed", "1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("#")


def test_generate_unknown_sampler_is_a_usage_error():
    r = run_cli("generate", "--sampler", "bogus", "--n", "1")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def test_generate_jsonl_records():
    r = run_cli("generate", "--sampler", "grand", "--n", "4", "--seed", "3",
                "--format", "jsonl")
    records = [json.loads(line) for line in r.stdout.splitlines()[1:]]
    assert len(records) == 4
    for rec in records:
        assert set(rec) == {"value", "interval_k"}
        assert rec["interval_k"] >= 1
    r2 = run_cli("generate", "--sampler", "box_muller", "--n", "2",
                 "--seed", "3", "--format", "jsonl")
    for rec in (json.loads(line) for line in r2.stdout.splitlines()[1:]):
        assert set(rec) == {"value"}


def test_generate_out_file(tmp_path):
    path = tmp_path / "values.csv"
    r = run_cli("generate", "--sampler", "polar", "--n", "3", "--seed", "5",
                "--out", str(path))
    assert r.returncode == 0 and r.stdout == ""
    assert len(path.read_text().splitlines()) == 4


def test_tables_normal_brent_structure():
    r = run_cli("tables", "--scheme", "normal_brent", "--K", "32")
    lines = r.stdout.splitlines()
    assert lines[0] == "#scheme=normal_brent K=32"
    rows = [line.split(" ") for line in lines[1:]]
    assert len(rows) == 32
    a = [float(row[2]) for row in rows]
    assert all(x < y for x, y in zip(a, a[1:]))
    assert a[0] == pytest.approx(0.674490, abs=1e-6)


def test_tables_repeats_byte_identically():
    a = run_cli("tables", "--scheme", "exp_vn", "--K", "16")
    b = run_cli("tables", "--scheme", "exp_vn", "--K", "16")
    assert a.stdout == b.stdout


def test_tables_forsythe_row_two_is_sqrt_three():
    r = run_cli("tables", "--scheme", "normal_forsythe", "--K", "4")
    row2 = r.stdout.splitlines()[2].split(" ")
    assert float(row2[2]) == math.sqrt(3.0)


def test_tables_invalid_length_is_a_usage_error():
    assert run_cli("tables", "--scheme", "exp_vn", "--K", "0").returncode == 2
    assert run_cli("tables", "--scheme", "exp_vn", "--K", "65").returncode == 2


def test_verify_emits_one_report_per_line():
    r = run_cli("verify", "--n", "20000", "--seed", "7")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("#")
    body = lines[1:]
    assert len(body) == 10
    for line in body:
        assert "statistic=" in line and "critical=" in line
        assert line.endswith("pass") or line.endswith("FAIL")
    names = [line.split(" ")[0] for line in body]
    assert "ks_normal_grand" in names and "ks_recycled_uniformity" in names


def test_verify_exits_one_when_a_report_fails():
    # alpha = 0.9 makes most checks fail at this seed
    r = run_cli("verify", "--n", "2000", "--seed", "1", "--alpha", "0.9")
    assert r.returncode == 1
    body = r.stdout.splitlines()[1:]
    assert len(body) == 10 and any(line.endswith("FAIL") for line in body)


def test_verify_repeats_byte_identically():
    a = run_cli("verify", "--n", "20000", "--seed", "7")
    b = run_cli("verify", "--n", "20000", "--seed", "7")
    assert a.stdout == b.stdout


def test_consumption_csv_shape_and_determinism():
    args = ("consumption", "--sampler", "exp_log", "--sampler", "box_muller",
            "--n", "100000", "--seed", "11")
    a = run_cli(*args)
    assert a.returncode == 0
    lines = a.stdout.splitlines()
    assert lines[1] == "sampler,n,mean,ci95"
    assert lines[2].startswith("exp_log,100000,1.000000,")
    assert lines[3].startswith("box_muller,100000,1.000000,")
    assert a.stdout == run_cli(*args).stdout


def test_bench_lists_every_sampler_exactly_once():
    r = run_cli("bench", "--n", "1000", "--seed", "1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1] == "sampler,n,seconds,rate"
    names = [line.split(",")[0] for line in lines[2:]]
    assert sorted(names) == sorted(["exp_vn", "exp_brent", "exp_log",
                                    "normal_forsythe", "normal_grand",
                                    "box_muller", "polar", "wallace"])
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 4
        float(fields[2]), float(fields[3])


def test_missing_subcommand_is_a_usage_error():
    assert run_cli().returncode == 2


def test_import_and_generate_leave_scipy_unloaded():
    """The sampling core needs no scipy: neither ``import fvn`` nor
    ``fvn generate`` loads it."""
    code = textwrap.dedent("""\
        import runpy, sys
        import fvn
        assert "scipy" not in sys.modules, "import fvn loaded scipy"
        sys.argv = ["fvn", "generate", "--sampler", "grand", "--n", "5"]
        try:
            runpy.run_module("fvn", run_name="__main__")
        except SystemExit as stop:
            assert stop.code == 0, stop.code
        assert "scipy" not in sys.modules, "fvn generate loaded scipy"
    """)
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("\n") == 6


def test_every_public_name_resolves_and_unknown_ones_raise():
    """The names of fvn.stats are served on first use; any other missing
    name is an AttributeError."""
    code = textwrap.dedent("""\
        import fvn
        for name in fvn.__all__:
            getattr(fvn, name)
        from fvn import ks_test
        try:
            fvn.no_such_name
        except AttributeError:
            pass
        else:
            raise SystemExit("fvn.no_such_name did not raise")
    """)
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr


def test_traced_benchmark_run_still_binds_the_package():
    """perfbench binds every kind through make_sampler and its tracing
    shims wrap package names by path, so a renamed or removed name they
    use fails this short traced run."""
    out = run_python("perfbench/run.py", "--workload", "wallace", "--seed",
                     "1", "--seconds", "1", "--trace", "1", cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
