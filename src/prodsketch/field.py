"""GF(2^w) arithmetic for the sign-hash family.

Field elements are plain Python integers in ``[0, 2^w)`` whose binary
digits are polynomial coefficients over GF(2), bit ``i`` holding the
coefficient of ``x^i``.  Addition is XOR; multiplication is carry-less
polynomial multiplication reduced modulo a fixed irreducible polynomial.

One reduction polynomial is pinned per supported width (the low-weight
irreducibles of the Seroussi table; w=8 is the Rijndael polynomial).
Changing any of them is a breaking change: seeds would map to different
hash functions and recorded sketches would stop being replayable.

    w=1  : x + 1                      -> 0b11
    w=2  : x^2 + x + 1                -> 0b111
    w=4  : x^4 + x + 1                -> 0b10011
    w=8  : x^8 + x^4 + x^3 + x + 1    -> 0x11B
    w=16 : x^16 + x^5 + x^3 + x + 1   -> 0x1002B
    w=32 : x^32 + x^7 + x^3 + x^2 + 1 -> 0x10000008D
    w=64 : x^64 + x^4 + x^3 + x + 1   -> (1 << 64) | 0x1B
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A field element is an int < 2^w; the alias marks intent in signatures.
FieldElement = int

SUPPORTED_WIDTHS = (1, 2, 4, 8, 16, 32, 64)

REDUCTION_POLYNOMIALS: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    4: 0b10011,
    8: 0x11B,
    16: 0x1002B,
    32: 0x10000008D,
    64: (1 << 64) | 0x1B,
}


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(2^w) with its reduction polynomial.

    ``reduction_polynomial`` is the full bitmask including the leading
    ``x^w`` term.  It defaults to the pinned polynomial for the width;
    passing another value is supported only as a fault-injection hook
    for the self-test's negative control.
    """

    width: int
    reduction_polynomial: int | None = None

    def __post_init__(self) -> None:
        if self.width not in SUPPORTED_WIDTHS:
            raise ValueError(
                f"unsupported field width {self.width}; must be one of {SUPPORTED_WIDTHS}"
            )
        if self.reduction_polynomial is None:
            object.__setattr__(
                self, "reduction_polynomial", REDUCTION_POLYNOMIALS[self.width]
            )
        elif self.reduction_polynomial.bit_length() != self.width + 1:
            raise ValueError("reduction polynomial degree must equal the field width")

    @property
    def order(self) -> int:
        return 1 << self.width

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def low_terms(self) -> int:
        """Reduction polynomial with the leading ``x^w`` bit stripped."""
        return self.reduction_polynomial ^ (1 << self.width)


def field_mul(a: FieldElement, b: FieldElement, spec: FieldSpec) -> FieldElement:
    """Product of two field elements, reduced modulo the field polynomial.

    Peasant multiplication: the partial product stays inside w bits by
    folding the carry back through the low reduction terms each shift.
    """
    w = spec.width
    if not (0 <= a < (1 << w) and 0 <= b < (1 << w)):
        raise ValueError(f"operands must lie in [0, 2^{w})")
    low = spec.low_terms
    top = 1 << (w - 1)
    mask = spec.mask
    acc = 0
    for _ in range(w):
        if b & 1:
            acc ^= a
        b >>= 1
        carry = a & top
        a = (a << 1) & mask
        if carry:
            a ^= low
    return acc


def field_pow(a: FieldElement, e: int, spec: FieldSpec) -> FieldElement:
    """``a**e`` by square-and-multiply; ``a**0 == 1``."""
    result = 1
    base = a
    while e > 0:
        if e & 1:
            result = field_mul(result, base, spec)
        base = field_mul(base, base, spec)
        e >>= 1
    return result


def field_mul_vec(a: np.ndarray, b: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Elementwise :func:`field_mul` on broadcastable uint64 arrays.

    Same peasant loop as the scalar path, w iterations of bitwise ops;
    used for bulk hash evaluation where per-element Python calls would
    dominate.  Exact for every supported width including w=64 (uint64
    shifts wrap, which is the required masking).
    """
    w = spec.width
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    acc = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    a = np.broadcast_to(a, acc.shape).copy()
    b = np.broadcast_to(b, acc.shape).copy()
    low = np.uint64(spec.low_terms)
    mask = np.uint64(spec.mask)
    shift_top = np.uint64(w - 1)
    one = np.uint64(1)
    with np.errstate(over="ignore"):
        for _ in range(w):
            acc ^= a * (b & one)
            b >>= one
            carry = (a >> shift_top) & one
            a = ((a << one) & mask) ^ (carry * low)
    return acc


# ---------------------------------------------------------------------------
# GF(2)[x] helpers on raw bitmasks, used to certify the pinned polynomials.
# ---------------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less (XOR) product of two GF(2)[x] bitmasks, unreduced."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def poly_mod(a: int, mod: int) -> int:
    """Remainder of ``a`` modulo ``mod`` in GF(2)[x] (long division)."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def is_irreducible(poly: int) -> bool:
    """Rabin's irreducibility test for a GF(2)[x] bitmask.

    ``poly`` of degree n is irreducible iff x^(2^n) = x (mod poly) and
    gcd(x^(2^(n/q)) - x, poly) = 1 for every prime q dividing n.
    """
    n = poly.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True

    def x_pow_pow2(e: int) -> int:
        t = 0b10  # the polynomial x
        for _ in range(e):
            t = poly_mod(clmul(t, t), poly)
        return t

    if x_pow_pow2(n) != 0b10:
        return False
    for q in _prime_factors(n):
        if poly_gcd(x_pow_pow2(n // q) ^ 0b10, poly) != 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
