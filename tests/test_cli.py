"""Command-line contract: reproducibility, formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from fvn import cli, stats

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def source_env():
    """The environment that runs this checkout's sources, whatever is
    installed."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_python(*args, cwd=None):
    """A fresh interpreter on this checkout's sources."""
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True, env=source_env())


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


@pytest.mark.parametrize("alpha", ["0", "-0.1", "1", "1.5", "nan"])
def test_verify_alpha_outside_the_unit_interval_is_a_usage_error(alpha):
    with pytest.raises(SystemExit) as stop:
        cli.main(["verify", "--n", "10", f"--alpha={alpha}"])
    assert stop.value.code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "0"),
    ("verify", "--n", str(stats.VERIFY_MIN_N - 1)),
    ("consumption", "--n", str(stats.CONSUMPTION_MIN_N - 1)),
    ("generate", "--sampler", "grand", "--n", "-1"),
    ("verify", "--n", "ten"),
])
def test_count_below_the_command_minimum_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as stop:
        cli.main(list(argv))
    assert stop.value.code == 2


def test_verify_at_its_minimum_count_reports_every_line(tmp_path):
    out = tmp_path / "out"
    cli.main(["verify", "--n", str(stats.VERIFY_MIN_N), "--out", str(out)])
    body = out.read_text().splitlines()[1:]
    assert len(body) == 10
    assert all(f" n={stats.VERIFY_MIN_N} " in line for line in body)


def test_cli_count_minimums_are_the_library_minimums():
    """The parse-time bounds are the smallest n the library accepts."""
    from fvn import samplers

    with pytest.raises(ValueError, match=f"n >= {stats.VERIFY_MIN_N}"):
        stats.verify_battery(7, stats.VERIFY_MIN_N - 1, 0.01)
    assert len(stats.verify_battery(7, stats.VERIFY_MIN_N, 0.01)) == 10
    config = samplers.default_config(samplers.EXP_LOG)
    with pytest.raises(ValueError):
        stats.measure_consumption(config, stats.CONSUMPTION_MIN_N - 1, 7)
    assert stats.measure_consumption(
        config, stats.CONSUMPTION_MIN_N, 7).samples == stats.CONSUMPTION_MIN_N


# sha256 of each command's --out file.  The generated values, the run_test
# stream behind verify's run-length and recycled-uniformity lines, and every
# consumption mean feed these bytes, so any change to a stream shows here.
_GENERATE_SHA256 = {     # --n 3000 --seed 77
    ("exp_vn", "csv"):
        "8e3d7fa0d28181581530ac4fd532e1c54fe6fbe3ee6b7f90699fa5d1cfa347f7",
    ("exp_vn", "jsonl"):
        "500dfe9f0c0e49c69ab17730b008ca129375c9acf829e7c737d2ea49f8d6e489",
    ("exp_brent", "csv"):
        "09cf7ad8c55e8f2ca64bd9893e2ddbd4ae1c10126681f85033e940920593cea1",
    ("exp_brent", "jsonl"):
        "6ea52e4a401e2e9f6ed08bfe035430f61c1931e7fa317f86ac5a58f8f88c2d25",
    ("exp_log", "csv"):
        "51b53da12980db3fc8a43c7fb81d3fba07be27d2b74209beeaffbf220db3e67e",
    ("exp_log", "jsonl"):
        "0115ca7b69b78eae61d3a397f0d9de947d8c74421feb41c7a066dd5fb78b5c7b",
    ("normal_forsythe", "csv"):
        "708473b1bac87c0965303182d6866445e8f5ab09b4747fd0d09df9f8abd17690",
    ("normal_forsythe", "jsonl"):
        "946637dddc69f3070f1992f932b933ef1e8af254f3ee56f42dd1ea78d579fa74",
    ("normal_grand", "csv"):
        "a211df4fadb0f59712099ff6489b92a648340b6ab5005ca681f09fea6eb1b12e",
    ("normal_grand", "jsonl"):
        "b4ad3469047694496fd00dee5b387e947faea08776ff66cc5e7b0febd0efac5c",
    ("box_muller", "csv"):
        "06af496509cebf5dbb79c6c1d8204a7aa48bc46f1c94061ddde60d98c4b82572",
    ("box_muller", "jsonl"):
        "ba4d233f8108ce658e38f382382449f85fd1083d88b2a0ef74b3b4826e3c208a",
    ("polar", "csv"):
        "aa656f9295f5b716bb9296f82fb84168986210eb7fc54e6d0f58c99325360b92",
    ("polar", "jsonl"):
        "cf692181fb727a14795dd9763878e524d30f914e3cd17a3f6f138f98aec8ff33",
    ("wallace", "csv"):
        "54a09fcb8d91744f72ab0bef6e62840a4234576d9cee21b8d3a20aac1a510c30",
    ("wallace", "jsonl"):
        "b531a04eeccdd44b0ecccf595278bdf8a83d9fade92d6f6c8542278d658bc99e",
}
_PINNED_OUTPUTS = [
    *(pytest.param(("generate", "--sampler", kind, "--format", fmt,
                    "--n", "3000", "--seed", "77"), digest,
                   id=f"generate-{kind}-{fmt}")
      for (kind, fmt), digest in _GENERATE_SHA256.items()),
    pytest.param(("verify", "--n", "20000", "--seed", "7"),
                 "1b8288ae1dc80742b628686a40fa889e44f89f8385bf4e50b3a4bb70811df257",
                 id="verify"),
    pytest.param(("consumption", "--n", "100000", "--seed", "7"),
                 "dce5b3f41dbc905c241c38e7674e532f967062e2781e19ccc62a4caadee48844",
                 id="consumption"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_OUTPUTS)
def test_output_bytes_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_generate_stdout_bytes_are_the_pinned_out_bytes(capsys):
    argv = ("generate", "--sampler", "normal_grand", "--format", "csv",
            "--n", "3000", "--seed", "77")
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
           _GENERATE_SHA256[("normal_grand", "csv")]


def test_generate_memory_does_not_grow_with_n(tmp_path):
    """Each line is written as it is made: 100,000 variates stay well
    under the megabytes their text would take in memory."""
    tracemalloc.start()
    try:
        assert cli.main(["generate", "--sampler", "exp_log", "--n", "100000",
                         "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_generate_ends_quietly_when_the_reader_closes_the_pipe():
    proc = subprocess.Popen(
        [sys.executable, "-m", "fvn", "generate", "--sampler", "exp_log",
         "--n", "300000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env())
    assert proc.stdout.readline().startswith(b"# fvn")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


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


def test_missing_subcommand_is_a_usage_error():
    assert run_cli().returncode == 2
    assert run_cli("bench").returncode == 2


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


def test_consumption_leaves_scipy_unloaded():
    """The meter needs no scipy: ``fvn consumption`` runs without it."""
    code = textwrap.dedent("""\
        import runpy, sys
        sys.argv = ["fvn", "consumption", "--sampler", "exp_log",
                    "--n", "100000"]
        try:
            runpy.run_module("fvn", run_name="__main__")
        except SystemExit as stop:
            assert stop.code == 0, stop.code
        assert "scipy" not in sys.modules, "fvn consumption loaded scipy"
    """)
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("\n") == 3


def test_verify_leaves_scipy_stats_unloaded():
    """The battery's critical values come from ``scipy.special``:
    ``fvn verify`` runs without importing ``scipy.stats``."""
    code = textwrap.dedent("""\
        import runpy, sys
        sys.argv = ["fvn", "verify", "--n", "1000"]
        try:
            runpy.run_module("fvn", run_name="__main__")
        except SystemExit as stop:
            assert stop.code == 0, stop.code
        assert "scipy.stats" not in sys.modules, "fvn verify loaded scipy.stats"
    """)
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("\n") == 11


def test_every_public_name_resolves_and_unknown_ones_raise():
    """Every name in ``fvn.__all__`` resolves; any other name is an
    AttributeError."""
    code = textwrap.dedent("""\
        import fvn
        for name in fvn.__all__:
            getattr(fvn, name)
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
