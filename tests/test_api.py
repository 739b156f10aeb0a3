"""Package surface: every exported name resolves, lazily."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prodsketch


def test_all_exports_resolve():
    missing = [name for name in prodsketch.__all__ if not hasattr(prodsketch, name)]
    assert missing == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prodsketch.no_such_name
    assert not hasattr(prodsketch, "generate_blocks")  # public in streamgen, not here


def imported_modules(*args, stdin=b""):
    """Names of the modules a child ``python -X importtime *args`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], input=stdin, capture_output=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(Path(prodsketch.__file__).parents[1])),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stderr.decode().splitlines()
    return {line.split("|")[-1].strip() for line in lines if line.startswith("import time:")}


def test_bare_import_loads_no_submodule():
    loaded = imported_modules("-c", "import prodsketch")
    assert "prodsketch" in loaded
    assert [name for name in loaded if name.startswith("prodsketch.")] == []


STREAM = b"# k=2\n# n=4\n0,1\n1,0\n3,3\n"


def test_estimate_child_loads_no_oracle_selftest_streamgen_or_fractions():
    loaded = imported_modules("-m", "prodsketch.cli", "estimate", stdin=STREAM)
    assert "prodsketch.estimator" in loaded
    # numpy.ma comes in with a bare np.unique (no return_inverse) on numpy 2.4,
    # about 10 ms of a child's start-up.
    unwanted = {"prodsketch.oracle", "prodsketch.selftest", "prodsketch.streamgen", "fractions",
                "numpy.ma"}
    assert loaded & unwanted == set()


def test_selftest_child_loads_no_numpy_ma():
    loaded = imported_modules("-m", "prodsketch.cli", "selftest")
    assert "prodsketch.oracle" in loaded and "numpy.ma" not in loaded


def test_gen_child_loads_no_estimator_oracle_selftest_or_hashing():
    loaded = imported_modules("-m", "prodsketch.cli", "gen", "--n", "4", "--k", "2", "--m", "5",
                              "--out", "-")
    assert "prodsketch.streamgen" in loaded
    unwanted = {"prodsketch.estimator", "prodsketch.oracle", "prodsketch.selftest",
                "prodsketch.hashing"}
    assert loaded & unwanted == set()
