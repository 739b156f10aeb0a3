"""CLI subcommands end to end, exit codes, and report formats."""

import io
from fractions import Fraction

import numpy as np
import pytest

from prodsketch.cli import EXIT_DATA, EXIT_OK, EXIT_SELFTEST, EXIT_USAGE, main, smallest_width
from prodsketch.estimator import EstimatorBank
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


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--bogus-flag"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE
    code, _, err = run(capsys, "estimate", "--k", "2", "--n", "4", "--epsilon", "7")
    assert code == EXIT_USAGE and "epsilon" in err


def test_exact_memory_budget_refusal(stream_file, capsys):
    code, _, err = run(capsys, "exact", "--input", str(stream_file),
                       "--memory-budget", "4")
    assert code == EXIT_DATA and "budget" in err


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


def test_selftest_quick_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == EXIT_OK
    assert "checks passed" in out
    assert "FAIL" not in out


def test_selftest_fault_injection_fails(capsys):
    code, out, _ = run(capsys, "selftest", "--quick", "--inject-field-fault")
    assert code == EXIT_SELFTEST
    assert "FAIL field-axioms-w4" in out


def test_smallest_width():
    assert smallest_width(2) == 1
    assert smallest_width(4) == 2
    assert smallest_width(5) == 4
    assert smallest_width(1 << 16) == 16
    assert smallest_width(1 << 60) == 64
    with pytest.raises(ValueError):
        smallest_width((1 << 64) + 1)
