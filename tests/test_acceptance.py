"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a green run (pytest shows them on failures regardless).
"""

import io
import itertools
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import prodsketch
from prodsketch.cli import main
from prodsketch.estimator import AccuracyParams, BankShape, EstimatorBank, derive_shape
from prodsketch.field import FieldSpec
from prodsketch.hashing import SignHash
from prodsketch.oracle import (
    FrequencyTable,
    exact_l2sq,
    exhaustive_moments,
    seed_uniformity_census,
)
from prodsketch.selftest import (
    PINNED_TIGHTNESS,
    battery_streams,
    uniform_vector,
)
from prodsketch.sketch import SketchConfig, SketchInstance, merge_sketches
from prodsketch.streamgen import GenSpec, generate

W1 = FieldSpec(1)
W2 = FieldSpec(2)

E2E_STREAM = GenSpec(n=8, k=3, m=50000, lam=0.5, rng_seed=20260810)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({title}): PASS")


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def report_fields(out):
    return dict(line.partition("=")[::2] for line in out.strip().splitlines())


@pytest.fixture(scope="module")
def e2e_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "lambda05.txt"
    code, _ = run_cli(
        "gen", "--n", str(E2E_STREAM.n), "--k", str(E2E_STREAM.k),
        "--m", str(E2E_STREAM.m), "--lambda", str(E2E_STREAM.lam),
        "--rng-seed", str(E2E_STREAM.rng_seed), "--out", str(path),
    )
    assert code == 0
    return path


def test_criterion_1_exact_expectation():
    with criterion(1, "exact expectation, zero tolerance"):
        start = time.monotonic()
        streams = battery_streams(2)
        assert len(streams) == 10 and all(len(s) <= 8 for s in streams)
        for stream in streams:
            table = FrequencyTable.from_stream(stream, k=2, n=4)
            moments = exhaustive_moments(table, spec=W2)
            assert moments.expectation == exact_l2sq(table)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60s target"


def test_criterion_2_variance_bounds():
    with criterion(2, "variance bounds, exact arithmetic"):
        for stream in battery_streams(2):
            m = exhaustive_moments(FrequencyTable.from_stream(stream, k=2, n=4), spec=W2)
            assert m.variance <= (3**2 - 1) * m.expectation**2
        for stream in battery_streams(3):
            m = exhaustive_moments(FrequencyTable.from_stream(stream, k=3, n=2), spec=W1)
            assert m.variance <= (3**3 - 1) * m.expectation**2


def test_criterion_3_tightness_ratios():
    with criterion(3, "Omega(3^k) tightness of the variance"):
        for k in (1, 2):
            moments = exhaustive_moments(uniform_vector(4, k), spec=W2, n=4)
            assert moments.ratio == PINNED_TIGHTNESS[k]
            assert moments.ratio >= Fraction(3**k, 2)


def test_criterion_4_hash_family_census():
    with criterion(4, "4-wise census: 16 seeds per pattern"):
        census = seed_uniformity_census(W2, (0, 1, 2, 3))
        assert len(census) == 16
        assert all(count == 16 for count in census.values())


def test_criterion_5_end_to_end_accuracy(e2e_file):
    with criterion(5, "(1 +- 0.2, 0.1) end-to-end vs exact"):
        start = time.monotonic()
        code, out = run_cli("exact", "--input", str(e2e_file))
        assert code == 0
        num, den = map(int, report_fields(out)["exact_l2_squared_fraction"].split("/"))
        truth = Fraction(num, den)
        assert truth > 0
        hits = 0
        for seed in range(1, 21):
            code, out = run_cli(
                "estimate", "--input", str(e2e_file),
                "--epsilon", "0.2", "--delta", "0.1", "--seed", str(seed),
            )
            assert code == 0
            fields = report_fields(out)
            assert fields["m"] == "50000" and fields["s1"] == "5200" and fields["s2"] == "5"
            estimate = float(fields["estimate_l2_squared"])
            if 0.8 * truth <= estimate <= 1.2 * truth:
                hits += 1
        elapsed = time.monotonic() - start
        assert hits >= 18, f"only {hits}/20 estimates inside (1 +- 0.2) of exact"
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s over the 5 min target"


def test_criterion_6_exact_zero_cases():
    with criterion(6, "exact-zero streams, no tolerance"):
        config = SketchConfig(k=2, n=4, spec=W2)
        for s in range(256):
            hashes = (
                SignHash(W2, s, 4),
                SignHash(W2, (151 * s + 40) % 256, 4),
            )
            single = SketchInstance(config, hashes)
            single.update_item((1, 3))
            assert single.finalize_exact() == 0 and single.finalize() == 0.0
            constant = SketchInstance(config, hashes)
            for _ in range(7):
                constant.update_item((2, 0))
            assert constant.finalize_exact() == 0
        for n, k in ((2, 2), (4, 2), (2, 3)):
            cfg = SketchConfig(k=k, n=n, spec=W2)
            for seed in range(40):
                inst = SketchInstance.from_master_seed(cfg, seed)
                for item in itertools.product(range(n), repeat=k):
                    inst.update_item(item)
                assert inst.finalize_exact() == 0
        for seed in range(10):
            bank = EstimatorBank(config, shape=BankShape(6, 3), master_seed=seed)
            bank.ingest_many([(0, 2)])
            assert bank.estimate().l2_squared == 0.0
            bank = EstimatorBank(config, shape=BankShape(6, 3), master_seed=seed)
            bank.ingest_many([(1, 1)] * 23)
            assert bank.estimate().l2_squared == 0.0
            bank = EstimatorBank(config, shape=BankShape(6, 3), master_seed=seed)
            bank.ingest_many(itertools.product(range(4), repeat=2))
            assert bank.estimate().l2_squared == 0.0


def test_criterion_7_structural():
    with criterion(7, "merge/replay, state size, shape constants"):
        config = SketchConfig(k=2, n=4, spec=W2)
        for i in range(100):
            stream = list(
                generate(GenSpec(n=4, k=2, m=10 + (i * 13) % 91, lam=0.35, rng_seed=9000 + i))
            )
            cut = (11 * i) % (len(stream) + 1)
            whole = SketchInstance.from_master_seed(config, i)
            left = SketchInstance.from_master_seed(config, i)
            right = SketchInstance.from_master_seed(config, i)
            for a in stream:
                whole.update_item(a)
            for a in stream[:cut]:
                left.update_item(a)
            for a in stream[cut:]:
                right.update_item(a)
            assert merge_sketches(left, right).counters() == whole.counters()

        params = AccuracyParams(0.2, 0.1)
        shape = derive_shape(params, 3)
        bank = EstimatorBank(SketchConfig(k=3, n=8, spec=FieldSpec(4)), params=params)
        assert bank.shape == shape == BankShape(5200, 5)
        assert bank.state_size().counters == shape.cells * (3 + 1) == 104000

        for eps in (1.0, 0.5, 0.25):
            pinned = derive_shape(AccuracyParams(eps, 0.1), 2, paper_constants=True)
            assert pinned.s1 == math.ceil(72 / eps**2)


def test_criterion_8_one_pass_on_a_pipe():
    with criterion(8, "one pass over 10^6 piped tuples"):
        rng = np.random.default_rng(7)
        block = rng.integers(0, 4, size=(10000, 2))
        lines = "\n".join(f"{a},{b}" for a, b in block) + "\n"
        data = (lines * 100).encode("ascii")  # 10^6 items
        proc = subprocess.run(
            [sys.executable, "-m", "prodsketch.cli", "estimate",
             "--k", "2", "--n", "4", "--epsilon", "0.9", "--delta", "0.5"],
            input=data, capture_output=True, timeout=240,
            # The child imports the same prodsketch as this process.
            env=dict(os.environ, PYTHONPATH=str(Path(prodsketch.__file__).parents[1])),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        fields = report_fields(proc.stdout.decode())
        assert fields["m"] == "1000000"
        assert float(fields["estimate_l2_squared"]) >= 0.0
