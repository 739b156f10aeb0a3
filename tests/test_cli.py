"""CLI subcommands end to end, exit codes, and report formats."""

import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodsketch
from prodsketch import cli, streamfile
from prodsketch.cli import EXIT_DATA, EXIT_OK, EXIT_SELFTEST, EXIT_USAGE, main, smallest_width
from prodsketch.estimator import AccuracyParams, EstimatorBank, StateSize, derive_shape
from prodsketch.streamfile import _BLOCK_LINES
from prodsketch.field import FieldSpec
from prodsketch.sketch import SketchConfig, SketchInstance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    fields = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        fields[key] = value
    return fields


@pytest.fixture()
def stream_file(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    code, out, _ = run(
        capsys, "gen", "--n", "4", "--k", "2", "--m", "200", "--lambda", "0.6",
        "--rng-seed", "31", "--out", str(path),
    )
    assert code == EXIT_OK
    assert "# generator=" in out  # header echoed
    return path


def test_gen_is_deterministic_and_diagonal_at_lambda_one(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for p in (a, b):
        code, _, _ = run(capsys, "gen", "--n", "3", "--k", "3", "--m", "50",
                         "--lambda", "1", "--rng-seed", "7", "--out", str(p))
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    code, _, err = run(capsys, "gen", "--n", "3", "--k", "3", "--m", "50", "--out", str(tmp_path))
    assert code == EXIT_DATA and err.startswith("error:")
    for line in a.read_text().splitlines():
        if line.startswith("#"):
            continue
        x, y, z = line.split(",")
        assert x == y == z


def test_estimate_reads_header_dimensions(stream_file, capsys):
    code, out, _ = run(capsys, "estimate", "--input", str(stream_file), "--seed", "3")
    assert code == EXIT_OK
    rep = parse_report(out)
    assert rep["report_version"] == "1"
    assert rep["k"] == "2" and rep["n"] == "4" and rep["m"] == "200"
    assert rep["mode"] == "independence"
    assert float(rep["estimate_l2"]) ** 2 == pytest.approx(float(rep["estimate_l2_squared"]))
    for key in ("s1", "s2", "master_seed", "elapsed_ms"):
        assert key in rep


def test_estimate_is_deterministic(stream_file, capsys):
    _, out1, _ = run(capsys, "estimate", "--input", str(stream_file), "--seed", "5")
    _, out2, _ = run(capsys, "estimate", "--input", str(stream_file), "--seed", "5")
    r1, r2 = parse_report(out1), parse_report(out2)
    assert r1["estimate_l2_squared"] == r2["estimate_l2_squared"]


def test_estimate_flag_header_contradiction(stream_file, capsys):
    code, _, err = run(capsys, "estimate", "--input", str(stream_file), "--k", "3")
    assert code == EXIT_DATA
    assert "contradicts header" in err


def test_exact_fraction_and_decimal(stream_file, capsys):
    code, out, _ = run(capsys, "exact", "--input", str(stream_file))
    assert code == EXIT_OK
    rep = parse_report(out)
    num, den = map(int, rep["exact_l2_squared_fraction"].split("/"))
    value = Fraction(num, den)
    assert float(value) == float(rep["exact_l2_squared"])
    assert value > 0


def test_exact_hand_computed_quarter(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("0,0\n1,1\n")
    code, out, _ = run(capsys, "exact", "--input", str(path), "--k", "2", "--n", "2")
    assert code == EXIT_OK
    rep = parse_report(out)
    assert rep["exact_l2_squared_fraction"] == "1/4"
    assert float(rep["exact_l2_squared"]) == 0.25


def test_exact_reads_a_64_bit_alphabet_under_the_default_budget(tmp_path, capsys):
    # Only the support counts against the budget: n = 2^64 holds no (k, n) table.
    path = tmp_path / "full.txt"
    path.write_text("# n=18446744073709551616\n5,7\n18446744073709551615,7\n5,0\n")
    code, out, err = run(capsys, "exact", "--input", str(path), "--k", "2")
    assert (code, err) == (EXIT_OK, "")
    rep = parse_report(out)
    assert rep["n"] == str(1 << 64) and rep["exact_l2_squared_fraction"] == "4/81"


def test_memory_error_is_a_clean_data_error(stream_file, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 33.5 TiB")

    monkeypatch.setattr(cli, "EstimatorBank", no_memory)
    code, out, err = run(capsys, "estimate", "--input", str(stream_file))
    assert (code, out, err) == (EXIT_DATA, "", "error: Unable to allocate 33.5 TiB\n")


def test_reports_are_byte_stable(stream_file, tmp_path, capsys):
    # Key order, report_version first, floats by repr and the num/den fraction,
    # byte for byte; only elapsed_ms varies between runs.
    code, out, _ = run(capsys, "estimate", "--input", str(stream_file), "--seed", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[9].startswith("elapsed_ms=") and lines[9][len("elapsed_ms="):].isdigit()
    del lines[9]
    assert lines == [
        "report_version=1",
        "estimate_l2_squared=0.08107395825625002",
        "estimate_l2=0.28473489118169204",
        "k=2",
        "n=4",
        "m=200",
        "s1=1600",
        "s2=5",
        "master_seed=3",
        "mode=independence",
    ]
    code, out, _ = run(capsys, "exact", "--input", str(stream_file))
    assert code == EXIT_OK
    assert out == (
        "report_version=1\nk=2\nn=4\nm=200\n"
        "exact_l2_squared_fraction=33063713/400000000\n"
        "exact_l2_squared=0.0826592825\nexact_l2=0.2875052738646719\n"
    )
    path = tmp_path / "two.txt"
    path.write_text("0,0\n1,1\n")
    code, out, _ = run(capsys, "exact", "--input", str(path), "--k", "2", "--n", "2")
    assert code == EXIT_OK
    assert out == (
        "report_version=1\nk=2\nn=2\nm=2\nexact_l2_squared_fraction=1/4\n"
        "exact_l2_squared=0.25\nexact_l2=0.5\n"
    )


def test_estimate_single_line_and_constant_are_zero(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,0,0\n"))
    code, out, _ = run(capsys, "estimate", "--k", "3", "--n", "4")
    assert code == EXIT_OK and parse_report(out)["estimate_l2_squared"] == "0.0"
    monkeypatch.setattr("sys.stdin", io.StringIO("1,2,3\n" * 40))
    code, out, _ = run(capsys, "estimate", "--k", "3", "--n", "4")
    assert code == EXIT_OK and parse_report(out)["estimate_l2_squared"] == "0.0"


def test_estimate_within_epsilon_of_exact(stream_file, capsys):
    _, out, _ = run(capsys, "exact", "--input", str(stream_file))
    truth = float(parse_report(out)["exact_l2_squared"])
    code, out, _ = run(capsys, "estimate", "--input", str(stream_file),
                       "--epsilon", "0.2", "--delta", "0.05", "--seed", "11")
    assert code == EXIT_OK
    est = float(parse_report(out)["estimate_l2_squared"])
    assert abs(est - truth) <= 0.2 * truth


def test_data_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0,0\noops\n")
    code, _, err = run(capsys, "estimate", "--input", str(bad), "--k", "2", "--n", "4")
    assert code == EXIT_DATA and "line 2" in err

    out_of_range = tmp_path / "range.txt"
    out_of_range.write_text("0,9\n")
    code, _, err = run(capsys, "estimate", "--input", str(out_of_range), "--k", "2", "--n", "4")
    assert code == EXIT_DATA and "symbol 9" in err

    code, _, err = run(capsys, "estimate", "--input", str(tmp_path / "missing.txt"),
                       "--k", "2", "--n", "4")
    assert code == EXIT_DATA

    code, out, err = run(capsys, "estimate", "--input", str(tmp_path), "--k", "2", "--n", "4")
    assert code == EXIT_DATA and err.startswith("error:") and out == ""

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(capsys, "estimate", "--input", str(empty), "--k", "2", "--n", "4")
    assert code == EXIT_DATA and "empty" in err.lower()


@pytest.mark.parametrize("command", ["estimate", "exact"])
@pytest.mark.parametrize("data, message", [
    (b"# k=2\n# n=4\n\xd9\xa3,1\n0,1\n", "line 3: not a comma-separated integer tuple"),
    (b"# k=2\n# n=4\n0,1\n\xff,1\n", "line 4: not a comma-separated integer tuple"),
    (b"# k=\xd9\xa3\n# n=4\n0,1\n", "stream header has non-integer k="),
])
def test_non_ascii_input_fails_alike_from_file_and_stdin(tmp_path, capsys, monkeypatch,
                                                        command, data, message):
    # An Arabic-Indic digit three (UTF-8 d9 a3), which int() reads as 3, and
    # a byte that is no UTF-8: the same line-numbered refusal by either route.
    path = tmp_path / "stream.txt"
    path.write_bytes(data)
    from_file = run(capsys, command, "--input", str(path))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    from_stdin = run(capsys, command)
    assert from_file == from_stdin
    code, out, err = from_file
    assert code == EXIT_DATA and out == "" and err.startswith(f"error: {message}")


def test_crlf_stream_reads_as_its_lf_stream_from_file_and_stdin(stream_file, tmp_path, capsys,
                                                                monkeypatch):
    # Universal newlines turn each \r\n into \n for a file and for stdin
    # alike, so a CRLF stream takes the vectorised pass: with the per-line
    # parser made to raise, it reports and snapshots what the LF stream does.
    def report(code_out_err):
        code, out, err = code_out_err
        assert code == EXIT_OK, err
        return {k: v for k, v in parse_report(out).items() if k != "elapsed_ms"}

    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(stream_file.read_bytes().replace(b"\n", b"\r\n"))
    snaps = [tmp_path / f"{name}.snap" for name in ("lf", "file", "stdin")]
    want = report(run(capsys, "estimate", "--input", str(stream_file),
                      "--snapshot-out", str(snaps[0])))

    def no_line_parser(*args):
        raise AssertionError("a CRLF line reached the per-line parser")

    monkeypatch.setattr(streamfile, "_parse_line", no_line_parser)
    got_file = report(run(capsys, "estimate", "--input", str(crlf),
                          "--snapshot-out", str(snaps[1])))
    stdin = io.TextIOWrapper(io.BytesIO(crlf.read_bytes()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    got_stdin = report(run(capsys, "estimate", "--input", "-", "--snapshot-out", str(snaps[2])))
    assert got_file == got_stdin == want and want["m"] == "200"
    assert snaps[0].read_bytes() == snaps[1].read_bytes() == snaps[2].read_bytes()


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--bogus-flag"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE
    code, _, err = run(capsys, "estimate", "--k", "2", "--n", "4", "--epsilon", "7")
    assert code == EXIT_USAGE and "epsilon" in err
    # 1/delta overflows for a subnormal delta, so its shape has no s2.
    code, _, err = run(capsys, "estimate", "--k", "2", "--n", "4", "--delta", "5e-324")
    assert code == EXIT_USAGE and err == "error: delta must lie in (0, 1) with a finite 1/delta\n"


def test_exact_memory_budget_refusal(stream_file, capsys):
    code, _, err = run(capsys, "exact", "--input", str(stream_file),
                       "--memory-budget", "4")
    assert code == EXIT_DATA and "budget" in err
    # The 200 items occupy more than 8 of the 16 joint cells.
    code, out, err = run(capsys, "exact", "--input", str(stream_file), "--memory-budget", "8")
    assert code == EXIT_DATA and out == ""
    assert err == "error: joint support exceeds the memory budget of 8 entries\n"


def test_gen_refuses_alphabets_past_64_bits(capsys):
    code, out, err = run(capsys, "gen", "--n", str((1 << 64) + 1), "--k", "1", "--m", "1",
                         "--out", "-")
    assert code == EXIT_DATA and out == ""
    assert err == f"error: alphabet size {(1 << 64) + 1} exceeds the widest supported field\n"
    code, out, _ = run(capsys, "gen", "--n", str(1 << 64), "--k", "2", "--m", "3", "--out", "-")
    assert code == EXIT_OK and len(out.splitlines()) == 6 + 3
    # Past 2^64 items the word counter would wrap; past 256 dimensions a
    # block's words would grow without bound.  Both are refused up front.
    for flags, message in ((("--k", "1", "--m", str((1 << 64) + 1)), "m must be at most 2^64"),
                           (("--k", "257", "--m", "1"), "k must be in [1, 256]")):
        code, out, err = run(capsys, "gen", "--n", "4", *flags, "--out", "-")
        assert code == EXIT_DATA and out == "" and err == f"error: {message}\n"


def test_estimate_memory_budget_refusal(capsys, monkeypatch):
    def no_bank(*args, **kwargs):
        raise AssertionError("bank built despite the budget")

    def header_then_stop():
        yield "# k=9\n"
        yield "# n=4\n"
        yield "0,0,0,0,0,0,0,0,0\n"  # read_header's lookahead: the first data line
        raise AssertionError("stream read past its header")

    monkeypatch.setattr(cli, "EstimatorBank", no_bank)
    monkeypatch.setattr("sys.stdin", header_then_stop())
    code, out, err = run(capsys, "estimate")  # k = 9 at the default eps and budget
    size = StateSize.of(derive_shape(AccuracyParams(0.2, 0.1), 9), 9, 2)
    assert code == EXIT_DATA and out == ""
    assert size.counters == 196_820_000 > 1 << 27
    assert f"{size.counters} counters" in err and f"{1 << 27}" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("0,0\n"))
    code, _, err = run(capsys, "estimate", "--k", "2", "--n", "4", "--memory-budget", "100")
    assert code == EXIT_DATA and "budget of 100" in err
    # k = 8 at eps = 0.2 and n = 4 stays under the default budget: its
    # 6,560,000 cells hold 9 counters each, and no hash words.
    size = StateSize.of(derive_shape(AccuracyParams(0.2, 0.1), 8), 8, 2)
    assert size.counters == 59_040_000 <= 1 << 27



def test_patched_module_attributes_are_what_subcommands_call(stream_file, capsys, monkeypatch):
    # A subcommand looks its functions up on the cli module at each call,
    # also the first, so a name patched there (as a tracer does) is the one
    # that runs.  The lazily bound names are unbound first, so the first-use
    # path is the one tested.
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("exact_l2sq", "run_selftest"):
        monkeypatch.delitem(vars(cli), name, raising=False)
    for name in ("exact_l2sq", "write_stream"):
        monkeypatch.setattr(cli, name, spy(name))
    failing = SimpleNamespace(name="patched", ok=False, expected=0, actual=1)
    monkeypatch.setattr(cli, "run_selftest", lambda **kwargs: [failing])
    assert run(capsys, "exact", "--input", str(stream_file))[0] == EXIT_OK
    assert run(capsys, "gen", "--n", "4", "--k", "2", "--m", "3", "--out", "-")[0] == EXIT_OK
    assert calls == ["exact_l2sq", "write_stream"]
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_SELFTEST and "FAIL patched" in out


def cli_child(*argv, text):
    """Run the CLI as a child process on ``text`` piped to standard input."""
    return subprocess.run(
        [sys.executable, "-m", "prodsketch.cli", *argv], input=text.encode(),
        capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(prodsketch.__file__).parents[1])),
    )


def test_block_errors_keep_exact_line_numbers():
    # Lines 1-2 are the header, so block 1 covers lines 3 .. _BLOCK_LINES + 2.
    lines = ["# k=2", "# n=4"] + ["1,2"] * (3 * _BLOCK_LINES)
    bad_symbol = _BLOCK_LINES + 500  # in block 2
    header = 2 * _BLOCK_LINES + 700  # in block 3
    lines[header - 1] = "# late=1"
    with_bad = list(lines)
    with_bad[bad_symbol - 1] = "3,9"
    for command in ("estimate", "exact"):
        proc = cli_child(command, text="\n".join(with_bad) + "\n")
        assert proc.returncode == EXIT_DATA
        assert proc.stderr.decode() == f"error: line {bad_symbol}: symbol 9 outside [0, 4)\n"
        proc = cli_child(command, text="\n".join(lines) + "\n")
        assert proc.returncode == EXIT_DATA
        assert proc.stderr.decode() == f"error: line {header}: header line after data\n"


def test_blank_block_prints_no_warning():
    text = "# k=2\n# n=4\n0,1\n" + "\n" * (2 * _BLOCK_LINES) + "  \n1,0\n"
    proc = cli_child("estimate", text=text)
    assert proc.returncode == EXIT_OK and proc.stderr == b""
    assert parse_report(proc.stdout.decode())["m"] == "2"


def test_snapshot_out_roundtrips(stream_file, tmp_path, capsys):
    snap = tmp_path / "bank.snap"
    code, out, _ = run(capsys, "estimate", "--input", str(stream_file),
                       "--seed", "21", "--snapshot-out", str(snap))
    assert code == EXIT_OK
    rep = parse_report(out)
    bank = EstimatorBank.load(snap)
    assert bank.item_count == int(rep["m"])
    assert bank.estimate().l2_squared == float(rep["estimate_l2_squared"])
    assert bank.master_seed == 21


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551615", "21"])
def test_report_names_the_master_seed_used(stream_file, tmp_path, capsys, seed):
    # The bank keeps the seed mod 2^64: -1 is the all-ones seed and 2^64 is
    # seed 0, and the report names the seed its snapshot loads with.
    snap = tmp_path / "bank.snap"
    code, out, _ = run(capsys, "estimate", "--input", str(stream_file),
                       "--seed", seed, "--snapshot-out", str(snap))
    assert code == EXIT_OK
    assert parse_report(out)["master_seed"] == str(EstimatorBank.load(snap).master_seed)
    assert EstimatorBank.load(snap).master_seed == int(seed) % (1 << 64)


def test_snapshot_save_failure_keeps_report(stream_file, tmp_path, capsys):
    snap = tmp_path / "missing-dir" / "bank.snap"
    code, out, err = run(capsys, "estimate", "--input", str(stream_file),
                         "--seed", "21", "--snapshot-out", str(snap))
    assert code == EXIT_DATA and "cannot write snapshot" in err
    rep = parse_report(out)
    assert rep["report_version"] == "1" and rep["m"] == "200"
    _, ok_out, _ = run(capsys, "estimate", "--input", str(stream_file), "--seed", "21")
    assert parse_report(ok_out)["estimate_l2_squared"] == rep["estimate_l2_squared"]


def test_estimate_full_width_symbols(tmp_path, capsys):
    # Symbols >= 2^63 at n = 2^64 once overflowed an int64 conversion.
    n = 1 << 64
    items = [(n - 1, 0), (1 << 63, n - 1), (n - 1, 0), (7, 1 << 63)]
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"{a},{b}\n" for a, b in items))
    code, out, err = run(capsys, "estimate", "--input", str(path), "--k", "2",
                         "--n", str(n), "--epsilon", "1", "--delta", "0.5", "--seed", "3")
    assert code == EXIT_OK, err
    rep = parse_report(out)
    assert rep["m"] == "4"
    # The same median of group means from scalar instances.
    config = SketchConfig(k=2, n=n, spec=FieldSpec(64))
    s1, s2 = int(rep["s1"]), int(rep["s2"])
    values = []
    for g in range(s2):
        for j in range(s1):
            inst = SketchInstance.from_master_seed(config, 3, group=g, index=j)
            for a in items:
                inst.update_item(a)
            values.append(inst.finalize())
    groups = np.sort(np.array(values).reshape(s2, s1).mean(axis=1))
    assert groups[(s2 - 1) // 2] == float(rep["estimate_l2_squared"])
    # Snapshot v1 stores n as int64: a clean refusal, after the report.
    code, out, err = run(capsys, "estimate", "--input", str(path), "--k", "2",
                         "--n", str(n), "--epsilon", "1", "--delta", "0.5", "--seed", "3",
                         "--snapshot-out", str(tmp_path / "wide.snap"))
    assert code == EXIT_DATA and "int64" in err
    assert parse_report(out) == rep | {"elapsed_ms": parse_report(out)["elapsed_ms"]}
    assert not (tmp_path / "wide.snap").exists()


def test_paper_constants_shape(stream_file, capsys):
    code, out, _ = run(capsys, "estimate", "--input", str(stream_file),
                       "--epsilon", "1.0", "--paper-constants")
    assert code == EXIT_OK
    assert parse_report(out)["s1"] == "72"


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    assert out.endswith("selftest: 17 checks passed\n")
    assert "FAIL" not in out


def test_selftest_has_no_quick_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--quick"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --quick" in capsys.readouterr().err


def test_selftest_fault_injection_fails(capsys):
    code, out, _ = run(capsys, "selftest", "--inject-field-fault")
    assert code == EXIT_SELFTEST
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line.startswith("FAIL field-axioms-w4 ") and line.endswith("no inverse for a=7")


@pytest.mark.parametrize("closed, argv", [
    ("stdin", ("estimate", "--k", "2", "--n", "4")),
    ("stdin", ("exact", "--k", "2", "--n", "4")),
    ("stdout", ("gen", "--n", "4", "--k", "2", "--m", "3", "--out", "-")),
    ("stdout", ("estimate", "--input", "{stream}", "--snapshot-out", "{snap}")),
    ("stdout", ("estimate", "--input", "{stream}")),
], ids=["estimate-stdin", "exact-stdin", "gen-stdout", "snapshot-stdout", "estimate-stdout"])
def test_closed_standard_streams_are_data_errors(stream_file, tmp_path, capsys, monkeypatch,
                                                 closed, argv):
    # A process started with descriptor 0 or 1 closed has sys.stdin or
    # sys.stdout None.  A closed stdout is refused before any work, so no
    # estimate is made only to be lost and no snapshot is written.
    snap = tmp_path / "bank.snap"
    argv = [arg.format(stream=stream_file, snap=snap) for arg in argv]
    with monkeypatch.context() as patch:
        patch.setattr(sys, closed, None)
        code = main(argv)
    name = {"stdin": "input", "stdout": "output"}[closed]
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: standard {name} is closed\n"
    assert not snap.exists()


def test_smallest_width():
    assert smallest_width(2) == 1
    assert smallest_width(4) == 2
    assert smallest_width(5) == 4
    assert smallest_width(1 << 16) == 16
    assert smallest_width(1 << 60) == 64
    with pytest.raises(ValueError):
        smallest_width((1 << 64) + 1)


_FUZZ_FLAGS = {  # flag: values it takes when it does not carry the case's edge value
    "estimate": {"--k": ("1", "3"), "--n": ("1", "4", "65536"), "--epsilon": ("0.5", "1"),
                 "--delta": ("0.5",), "--seed": ("7",), "--memory-budget": ("100000000",)},
    "exact": {"--k": ("1", "3"), "--n": ("1", "4", "65536"), "--memory-budget": ("1000",)},
    "gen": {"--n": ("1", "4"), "--k": ("1", "3"), "--m": ("1", "5"), "--lambda": ("0.5",),
            "--rng-seed": ("7",)},
    "selftest": {},
}
_FUZZ_EDGES = ("nan", "-1", "0", str((1 << 64) + 1), str(-(1 << 65)), "inf", "5e-324", "x", "")
_FUZZ_ITEMS = ("0,1", "3,3")
_FUZZ_LINES = ("# k=2", "# n=4", "# k=nan", "# n=0", f"# k={(1 << 64) + 1}", "# n=٣",
               *_FUZZ_ITEMS, "٣,1", "1,2,3", "-1,0", "9,9", "1.5,0", "0,1,", " 2 , 1 ", "",
               "#", "1_0,1")


@st.composite
def _fuzz_case(draw):
    """argv, stream bytes and the route: one flag (at most) carries an edge
    value, the others are valid or left out, so each edge meets a run that
    would otherwise go through."""
    command = draw(st.sampled_from([*_FUZZ_FLAGS, "nosuch"]))
    flags = _FUZZ_FLAGS.get(command, {})
    argv = [command]
    if command == "selftest":  # a flag of another command: a usage error, not a full run
        argv += ["--k", "1"]
    edge = draw(st.sampled_from([*flags, None]))
    for flag, valid in flags.items():
        if flag == edge:
            value = draw(st.sampled_from(_FUZZ_EDGES))
        elif command == "gen" and flag in ("--n", "--k", "--m"):  # required
            value = draw(st.sampled_from(valid))
        elif flag in ("--n", "--k"):  # mostly given: the header seldom has both
            value = draw(st.sampled_from((*valid, None)))
        else:
            value = draw(st.none() | st.sampled_from(valid))
        if value is not None:
            argv += [flag, value]
    # Half the streams are clean (or empty), so a flag's edge is reached.
    lines = draw(st.lists(st.sampled_from(_FUZZ_ITEMS), max_size=3)
                 | st.lists(st.sampled_from(_FUZZ_LINES), max_size=6))
    data = "\n".join(lines).encode() + draw(st.just(b"") | st.binary(max_size=8))
    return argv, data, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=_fuzz_case())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, case):
    # Any subcommand, flag value and stream bytes, read from a file or from
    # stdin, end in exit 0, 1 or 2 with at most one error line, never in a
    # traceback.
    argv, data, piped = case
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "stream.txt"
    path.write_bytes(data)
    if argv[0] in ("estimate", "exact") and not piped:
        argv += ["--input", str(path)]
    if argv[0] == "gen":
        argv += ["--out", "-" if piped else str(work / "out.txt")]
    stdin, stdout, stderr = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
        err = sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (argv, data, err)
    assert sum(line.count("error:") for line in err.splitlines()) <= 1, err
    assert "Traceback" not in err
