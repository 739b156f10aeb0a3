"""GF(2^w) arithmetic for the sign-hash family.

Field elements are plain Python integers in ``[0, 2^w)`` whose binary
digits are polynomial coefficients over GF(2), bit ``i`` holding the
coefficient of ``x^i``.  Addition is XOR; multiplication is carry-less
polynomial multiplication reduced modulo a fixed irreducible polynomial.

One reduction polynomial is pinned per supported width (the low-weight
irreducibles of the Seroussi table; w=8 is the Rijndael polynomial).
Changing any of them is a breaking change: seeds would map to different
hash functions and recorded sketches would stop being replayable.  This
module holds only the field; the ``selftest`` battery certifies it (each
polynomial irreducible, the axioms on GF(2^w) for w <= 8).

    w=1  : x + 1                      -> 0b11
    w=2  : x^2 + x + 1                -> 0b111
    w=4  : x^4 + x + 1                -> 0b10011
    w=8  : x^8 + x^4 + x^3 + x + 1    -> 0x11B
    w=16 : x^16 + x^5 + x^3 + x + 1   -> 0x1002B
    w=32 : x^32 + x^7 + x^3 + x^2 + 1 -> 0x10000008D
    w=64 : x^64 + x^4 + x^3 + x + 1   -> (1 << 64) | 0x1B
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

REDUCTION_POLYNOMIALS: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    4: 0b10011,
    8: 0x11B,
    16: 0x1002B,
    32: 0x10000008D,
    64: (1 << 64) | 0x1B,
}

SUPPORTED_WIDTHS = tuple(REDUCTION_POLYNOMIALS)


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(2^w), which is its width: the polynomial is pinned.

    ``reduction_polynomial`` is the full bitmask including the leading
    ``x^w`` term, a plain attribute for ``field_mul``'s hot read.  A
    snapshot records only the width, so no spec can choose another.
    """

    width: int
    reduction_polynomial: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width not in SUPPORTED_WIDTHS:
            raise ValueError(
                f"unsupported field width {self.width}; must be one of {SUPPORTED_WIDTHS}"
            )
        object.__setattr__(self, "reduction_polynomial", REDUCTION_POLYNOMIALS[self.width])

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


def field_mul(a: int, b: int, spec: FieldSpec) -> int:
    """Product of two field elements, reduced modulo the field polynomial.

    Peasant multiplication: the partial product stays inside w bits by
    reducing ``a`` by the field polynomial whenever a shift carries into
    bit w.  The loop ends after b's last set bit; later rounds would only
    shift ``a``.
    """
    w = spec.width
    order, poly = 1 << w, spec.reduction_polynomial
    if not (0 <= a < order and 0 <= b < order):
        raise ValueError(f"operands must lie in [0, 2^{w})")
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & order:
            a ^= poly
    return acc


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

