"""One estimator instance: k+1 integer counters over an insert-only stream.

The instance watches a stream of k-tuples and keeps

    t1        = sum over items of H(a)   with H(a) = prod_i h_i(a_i)
    marg[i]   = sum over items of h_i(a_i)
    m         = item count

and finalizes to ``Y = (t1/m - prod_i marg[i]/m)^2``.  The division is
deferred: ``U = t1 * m^(k-1) - prod_i marg[i]`` is computed in exact integer
arithmetic and ``Y = (U / m^k)^2``, which makes the algebraically-zero cases
(single item, constant stream, full enumeration) return exactly 0.0 and
keeps merge/replay bit-exact.  Python integers are used throughout, so there
is no overflow cliff; counters themselves are bounded by m.

Finalize rule.  :func:`finalize_values` is the one place that turns U into a
float, for a bank's cells and a scalar instance alike, and always returns
the correctly rounded float of the exact rational ``U*U / m^(2k)``, so a
scalar instance and a bank cell with equal counters finalize to the same
bits.  While m^k < 2^52, U and m^k are exact in float64 and U/m^k is
squared in double-double arithmetic (Dekker's TwoProduct, as numpy has no
fused multiply-add); its error is below 2^-100 of Y, so the rounded result
is kept unless it lies within 2^-90 of Y of a rounding midpoint.  Those
cells, every exact tie among them, and every cell once m^k >= 2^52, take
Python int true division, which is correctly rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING

import numpy as np

from .field import FieldSpec
from .hashing import MAX_DIMS, SignHash, derive_hashes

if TYPE_CHECKING:
    from fractions import Fraction


class EmptyStreamError(ValueError):
    """Finalize/estimate called before any item was ingested."""


@dataclass(frozen=True)
class SketchConfig:
    """Shared shape of every instance in a bank: dimensions, alphabet, field."""

    k: int
    n: int
    spec: FieldSpec

    def __post_init__(self) -> None:
        # Seed counters hold 8 bits of dimension; a larger k would let one
        # cell's dimensions reuse another cell's seeds.
        if not (1 <= self.k <= MAX_DIMS):
            raise ValueError(f"k must be in [1, {MAX_DIMS}]")
        if not (1 <= self.n <= self.spec.order):
            raise ValueError(
                f"alphabet size {self.n} does not fit in GF(2^{self.spec.width})"
            )


# Below this, m^k and every |U| <= 2 m^k are exact in float64.
_FLOAT_EXACT = 1 << 52
# A double-double square is within 2^-100 of Y; one that lies further than
# this fraction of Y from a rounding midpoint rounds as Y does.
_MIDPOINT_MARGIN = 2.0**-90
_SPLITTER = float((1 << 27) + 1)


def _two_product(a, b):
    """``(p, e)`` with ``p = fl(a*b)`` and ``p + e = a*b`` exactly (Dekker)."""
    p = a * b
    a_hi = _SPLITTER * a
    a_hi = a_hi - (a_hi - a)
    b_hi = _SPLITTER * b
    b_hi = b_hi - (b_hi - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _exact_values(u: np.ndarray, m: int, k: int) -> np.ndarray:
    denominator = m ** (2 * k)
    return np.fromiter((v * v / denominator for v in u.tolist()), np.float64, len(u))


def finalize_values(u: np.ndarray, m: int, k: int) -> np.ndarray:
    """``Y = (U / m^k)^2`` as float64 for each unnormalized ``U``, correctly rounded.

    ``u`` is a 1-D integer array: int64, or object holding Python ints.
    """
    d = m**k
    if d >= _FLOAT_EXACT:
        return _exact_values(u, m, k)
    uf, df = u.astype(np.float64), float(d)
    q = uf / df
    p, e = _two_product(q, df)
    q_lo = ((uf - p) - e) / df  # U - q*d, exact for q = fl(U/d)
    s, t = _two_product(q, q)
    c = t + 2.0 * q * q_lo
    y = s + c
    b = y - s
    err = (s - (y - b)) + (c - b)  # y + err = s + c exactly (TwoSum)
    # The gap below y is the smaller one, so both midpoints lie at least
    # half of it away.
    half_gap = (y - np.nextafter(y, 0.0)) / 2
    near = ~(np.abs(err) < half_gap - _MIDPOINT_MARGIN * y) & (uf != 0)
    if near.any():
        y[near] = _exact_values(u[near], m, k)
    return y


class SketchInstance:
    """Single-writer sketch state for one hash tuple; it keeps each h_i(x) it
    evaluates, so a repeated symbol of dimension i costs a lookup, not a hash."""

    __slots__ = ("config", "hashes", "t1", "marginal_sums", "m", "_signs")

    def __init__(self, config: SketchConfig, hashes: tuple[SignHash, ...]) -> None:
        if len(hashes) != config.k:
            raise ValueError(f"need {config.k} hashes, got {len(hashes)}")
        for h in hashes:
            if h.spec != config.spec or h.n < config.n:
                raise ValueError("hash domain/field incompatible with config")
        self.config = config
        self.hashes = tuple(hashes)
        self.t1 = 0
        self.marginal_sums = [0] * config.k
        self.m = 0
        self._signs: list[dict[int, int]] = [{} for _ in hashes]

    @classmethod
    def from_master_seed(
        cls,
        config: SketchConfig,
        master_seed: int,
        *,
        group: int = 0,
        index: int = 0,
    ) -> "SketchInstance":
        hashes = derive_hashes(
            master_seed, config.k, config.spec, config.n, group=group, index=index
        )
        return cls(config, hashes)

    def _check_tuple(self, p: tuple[int, ...]) -> None:
        if len(p) != self.config.k:
            raise ValueError(f"expected a {self.config.k}-tuple, got arity {len(p)}")
        for x in p:
            if not isinstance(x, (int, np.integer, np.bool_)):
                raise ValueError("symbols must be integers")
            if not (0 <= x < self.config.n):
                raise ValueError(f"symbol {x} outside [0, {self.config.n})")

    def update_item(self, a: tuple[int, ...]) -> None:
        """Count one stream item."""
        self._check_tuple(a)
        sign = 1
        for i, (h, signs, x) in enumerate(zip(self.hashes, self._signs, a)):
            s = signs.get(x)
            if s is None:
                s = signs[x] = h(x)
            self.marginal_sums[i] += s
            sign *= s
        self.t1 += sign
        self.m += 1

    def _unnormalized(self) -> int:
        if self.m == 0:
            raise EmptyStreamError("cannot finalize an empty stream")
        return self.t1 * self.m ** (self.config.k - 1) - prod(self.marginal_sums)

    def finalize(self) -> float:
        """Y = (t1/m - prod marg/m)^2 as a correctly rounded float."""
        u = np.array([self._unnormalized()], dtype=object)
        return float(finalize_values(u, self.m, self.config.k)[0])

    def finalize_exact(self) -> Fraction:
        """Same value as :meth:`finalize`, as an exact rational."""
        from fractions import Fraction  # kept off an estimate child's imports

        u = self._unnormalized()
        return Fraction(u * u, self.m ** (2 * self.config.k))

    def counters(self) -> tuple[int, tuple[int, ...], int]:
        return (self.t1, tuple(self.marginal_sums), self.m)


def merge_sketches(a: SketchInstance, b: SketchInstance) -> SketchInstance:
    """Counter-wise sum; equals sketching the concatenated stream.

    Both operands must carry the same configuration and hash seeds; all
    counters are linear in the input, so addition is exact.
    """
    if a.config != b.config:
        raise ValueError("cannot merge sketches with different configurations")
    if a.hashes != b.hashes:
        raise ValueError("cannot merge sketches with different hash seeds")
    out = SketchInstance(a.config, a.hashes)
    out.t1 = a.t1 + b.t1
    out.marginal_sums = [x + y for x, y in zip(a.marginal_sums, b.marginal_sums)]
    out.m = a.m + b.m
    return out
