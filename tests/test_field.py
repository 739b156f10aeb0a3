"""Field arithmetic against independent oracles and exhaustive axiom checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsketch.field import (
    REDUCTION_POLYNOMIALS,
    SUPPORTED_WIDTHS,
    FieldSpec,
    clmul,
    field_mul,
    field_mul_vec,
    field_pow,
    is_irreducible,
    poly_mod,
)
from prodsketch.selftest import check_field_axioms


def long_division_mul(a: int, b: int, spec: FieldSpec) -> int:
    """Reference multiplier: full carry-less product, then long division."""
    return poly_mod(clmul(a, b), spec.reduction_polynomial)


def test_gf4_exhaustive_table_matches_long_division():
    spec = FieldSpec(2)
    table = {(a, b): field_mul(a, b, spec) for a in range(4) for b in range(4)}
    for (a, b), got in table.items():
        assert got == long_division_mul(a, b, spec)
    # x * x = x^2 = x + 1 under x^2 + x + 1
    assert table[(2, 2)] == 3


@pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
def test_zero_annihilates_and_one_is_identity(width):
    spec = FieldSpec(width)
    samples = {0, 1, spec.mask, spec.mask >> 1, 0b1011 & spec.mask}
    for b in samples:
        assert field_mul(0, b, spec) == 0
        assert field_mul(1, b, spec) == b


@pytest.mark.parametrize("width", [1, 2, 4])
def test_axioms_exhaustive_small_widths(width):
    ok, detail = check_field_axioms(FieldSpec(width))
    assert ok, detail


def test_axioms_w8_inverses_exhaustive():
    ok, detail = check_field_axioms(FieldSpec(8))
    assert ok, detail
    spec = FieldSpec(8)
    for a in range(1, 256):
        assert field_mul(a, field_pow(a, spec.order - 2, spec), spec) == 1


def test_pinned_polynomials_are_irreducible():
    for width, poly in REDUCTION_POLYNOMIALS.items():
        assert poly.bit_length() == width + 1
        assert is_irreducible(poly)


def test_reducible_polynomial_rejected_by_rabin_and_axioms():
    # (x^2 + x + 1)^2 = x^4 + x^2 + 1
    assert not is_irreducible(0b10101)
    ok, detail = check_field_axioms(FieldSpec(4, reduction_polynomial=0b10101))
    assert not ok and "inverse" in detail


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec(3)
    with pytest.raises(ValueError):
        FieldSpec(4, reduction_polynomial=0b111)  # degree 2 != width


@pytest.mark.parametrize("width", SUPPORTED_WIDTHS)
def test_vectorized_mul_matches_scalar(width):
    spec = FieldSpec(width)
    rng = np.random.default_rng(width)
    a = rng.integers(0, spec.order, size=64, dtype=np.uint64) if width == 64 else \
        rng.integers(0, spec.order, size=64).astype(np.uint64)
    b = rng.integers(0, spec.order, size=64, dtype=np.uint64) if width == 64 else \
        rng.integers(0, spec.order, size=64).astype(np.uint64)
    got = field_mul_vec(a, b, spec)
    for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
        assert z == field_mul(x, y, spec)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, (1 << 64) - 1), st.integers(1, (1 << 64) - 1))
def test_w64_group_laws(a, b):
    spec = FieldSpec(64)
    assert field_mul(a, b, spec) == field_mul(b, a, spec)
    assert field_mul(a, field_pow(a, spec.order - 2, spec), spec) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_w8_ring_laws_match_long_division(a, b, c):
    spec = FieldSpec(8)
    assert field_mul(a, b, spec) == long_division_mul(a, b, spec)
    assert field_mul(a, b ^ c, spec) == field_mul(a, b, spec) ^ field_mul(a, c, spec)


def test_field_pow_agrees_with_repeated_mul():
    spec = FieldSpec(4)
    for a in range(16):
        acc = 1
        for e in range(8):
            assert field_pow(a, e, spec) == acc
            acc = field_mul(acc, a, spec)


def test_operand_range_enforced():
    spec = FieldSpec(2)
    with pytest.raises(ValueError):
        field_mul(4, 1, spec)
