"""Field arithmetic against independent oracles and exhaustive axiom checks."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsketch.field import (
    REDUCTION_POLYNOMIALS, SUPPORTED_WIDTHS, FieldSpec, field_mul, field_mul_vec,
)
from prodsketch.selftest import check_field_axioms, clmul, is_irreducible, poly_mod


def long_division_mul(a: int, b: int, spec: FieldSpec) -> int:
    """Reference multiplier: full carry-less product, then long division."""
    return poly_mod(clmul(a, b), spec.reduction_polynomial)


def field_pow(a: int, e: int, spec: FieldSpec) -> int:
    """``a**e`` by square-and-multiply; ``a**0 == 1``."""
    result = 1
    while e:
        if e & 1:
            result = field_mul(result, a, spec)
        a, e = field_mul(a, a, spec), e >> 1
    return result


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
    # (x^2 + x + 1)^2 = x^4 + x^2 + 1; x^2 + x + 1 (7) is the ring's first non-unit.
    assert not is_irreducible(0b10101)
    ring = types.SimpleNamespace(width=4, order=16, reduction_polynomial=0b10101)
    assert check_field_axioms(ring) == (False, "no inverse for a=7")


def _trial_division_irreducible(poly: int) -> bool:
    """Irreducible iff no polynomial of degree 1 .. n/2 divides it."""
    n = poly.bit_length() - 1
    return all(poly_mod(poly, d) for d in range(2, 1 << (n // 2 + 1)))


@pytest.mark.parametrize("degree, count", [(1, 2), (2, 1), (4, 3), (8, 30)])
def test_irreducible_counts_match_gauss(degree, count):
    # Gauss: (1/n) sum over d | n of mu(d) 2^(n/d) monic irreducibles of degree n.
    monic = range(1 << degree, 1 << (degree + 1))
    found = [p for p in monic if is_irreducible(p)]
    assert len(found) == count
    assert found == [p for p in monic if _trial_division_irreducible(p)]


def test_irreducibility_refuses_other_degrees():
    with pytest.raises(ValueError):
        is_irreducible(0b1011)  # x^3 + x + 1, degree 3


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec(3)


def test_fieldspec_is_its_width():
    # A snapshot records only the width, so a spec cannot take another
    # polynomial, even an irreducible one (x^4 + x^3 + 1).
    with pytest.raises(TypeError):
        FieldSpec(4, reduction_polynomial=0b11001)
    assert FieldSpec(4).reduction_polynomial == REDUCTION_POLYNOMIALS[4]


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


def test_operand_range_enforced():
    spec = FieldSpec(2)
    with pytest.raises(ValueError):
        field_mul(4, 1, spec)
