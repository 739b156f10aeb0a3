"""Exact ground truth: frequency tables and exhaustive-seed moment oracles.

Everything here is computed in exact arithmetic.  Counts are integers,
scaled so that the only division is the final one into a ``Fraction``;
moment enumeration visits every seed tuple of the hash family, so the
verified expectation/variance statements carry zero statistical or
floating-point slack.  The price is a hard budget: enumeration is only
permitted for field width <= 2 and k <= 3, and at most 2^24 seed tuples;
larger configurations are rejected rather than sampled.

The joint frequency map is sparse (streams occupy few cells of [n]^k)
while the per-dimension marginals are dense arrays (alphabets are small).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .field import FieldSpec
from .hashing import SignHash, batch_sign_eval
from .sketch import EmptyStreamError

ENUMERATION_BUDGET = 1 << 24
_MAX_ENUM_WIDTH = 2
_MAX_ENUM_K = 3


class EnumerationBudgetError(ValueError):
    """The requested configuration exceeds the exact-enumeration budget."""


class FrequencyTable:
    """Exact joint and marginal counts of a tuple stream."""

    def __init__(self, k: int, n: int) -> None:
        if k < 1 or n < 1:
            raise ValueError("k and n must be >= 1")
        self.k = k
        self.n = n
        self.joint: dict[tuple[int, ...], int] = {}
        self.marginals = [[0] * n for _ in range(k)]
        self.m = 0

    @classmethod
    def from_stream(cls, items: Iterable[tuple[int, ...]], k: int, n: int) -> "FrequencyTable":
        table = cls(k, n)
        for a in items:
            table.add(a)
        return table

    def add(self, item: tuple[int, ...], count: int = 1) -> None:
        item = tuple(item)
        if len(item) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got arity {len(item)}")
        for x in item:
            if not (0 <= x < self.n):
                raise ValueError(f"symbol {x} outside [0, {self.n})")
        if count < 1:
            raise ValueError("count must be positive")
        self.joint[item] = self.joint.get(item, 0) + count
        for i, x in enumerate(item):
            self.marginals[i][x] += count
        self.m += count


@dataclass(frozen=True)
class ExactMoments:
    """Exact E[Y] and Var[Y] over the full seed space; ratio = Var/E^2."""

    expectation: Fraction
    variance: Fraction
    ratio: Fraction | None


def exact_l2sq(table: FrequencyTable) -> Fraction:
    """Squared L2 distance between the joint and the product of marginals.

    Scaled to integers by m^(2k): only cells with f > 0 are visited, and
    the all-cells sum of the squared marginal product factorizes into
    prod_i sum_x f_i(x)^2.
    """
    if table.m == 0:
        raise EmptyStreamError("frequency table is empty")
    m, k = table.m, table.k
    total = math.prod(sum(c * c for c in marg) for marg in table.marginals)
    scale = m ** (k - 1)
    for item, f in table.joint.items():
        p = math.prod(table.marginals[i][x] for i, x in enumerate(item))
        d = f * scale - p
        total += d * d - p * p
    return Fraction(total, m ** (2 * k))


def exact_y_from_table(table: FrequencyTable, hashes: tuple[SignHash, ...]) -> Fraction:
    """Recompute one instance's Y from the table alone, exactly.

    Must agree bit-for-bit with the incremental sketch on the same stream;
    the test suite holds the two implementations against each other.
    """
    if table.m == 0:
        raise EmptyStreamError("frequency table is empty")
    if len(hashes) != table.k:
        raise ValueError("hash tuple arity does not match the table")
    t1 = 0
    for item, f in table.joint.items():
        sign = 1
        for h, x in zip(hashes, item):
            sign *= h(x)
        t1 += f * sign
    margs = [
        sum(c * h(x) for x, c in enumerate(marg) if c)
        for h, marg in zip(hashes, table.marginals)
    ]
    u = t1 * table.m ** (table.k - 1) - math.prod(margs)
    return Fraction(u * u, table.m ** (2 * table.k))


# ---------------------------------------------------------------------------
# Seed-space enumeration
# ---------------------------------------------------------------------------

_sign_table_cache: dict[tuple[int, int, int], np.ndarray] = {}


def all_seed_signs(spec: FieldSpec, n: int) -> np.ndarray:
    """Sign table of every hash in the family: shape (2^(4w), n), int8.

    Seed s encodes its coefficients as base-2^w digits, c0 lowest.  The
    returned array is cached and read-only.
    """
    if spec.width > _MAX_ENUM_WIDTH:
        raise EnumerationBudgetError(
            f"seed enumeration requires width <= {_MAX_ENUM_WIDTH}, got {spec.width}"
        )
    if not (1 <= n <= spec.order):
        raise ValueError(f"domain size {n} does not fit the field")
    key = (spec.width, spec.reduction_polynomial, n)
    cached = _sign_table_cache.get(key)
    if cached is None:
        w = spec.width
        seeds = np.arange(1 << (4 * w), dtype=np.uint64)
        coefs = np.stack(
            [(seeds >> np.uint64(j * w)) & np.uint64(spec.mask) for j in range(4)],
            axis=1,
        )
        cached = batch_sign_eval(coefs, np.arange(n, dtype=np.uint64), spec)
        cached.setflags(write=False)
        _sign_table_cache[key] = cached
    return cached


def seed_uniformity_census(
    spec: FieldSpec, points: Iterable[int]
) -> dict[tuple[int, ...], int]:
    """Count, over every seed, the sign pattern at the given distinct points."""
    pts = tuple(points)
    if not (1 <= len(pts) <= 4):
        raise ValueError("census takes between 1 and 4 points")
    if len(set(pts)) != len(pts):
        raise ValueError("census points must be distinct")
    for p in pts:
        if not (0 <= p < spec.order):
            raise ValueError(f"point {p} outside the field domain")
    table = all_seed_signs(spec, spec.order)
    sub = table[:, list(pts)]
    rows, counts = np.unique(sub, axis=0, return_counts=True)
    return {tuple(int(v) for v in row): int(c) for row, c in zip(rows, counts)}


def exhaustive_moments(
    source: FrequencyTable | Mapping[tuple[int, ...], object],
    *,
    spec: FieldSpec,
    k: int | None = None,
    n: int | None = None,
    budget: int = ENUMERATION_BUDGET,
) -> ExactMoments:
    """E[Y] and Var[Y] by iterating every seed tuple, in exact arithmetic.

    ``source`` is either a :class:`FrequencyTable` (the stream estimator's
    Y) or a mapping from k-tuples to weights (turnstile vector;
    Y = (sum_p v_p H(p))^2).  Weights may be ints, Fractions or
    floats; they are scaled to a common integer grid, so the result is
    exact for the binary values actually supplied.
    """
    if isinstance(source, FrequencyTable):
        k, n = source.k, source.n
        if source.m == 0:
            raise EmptyStreamError("frequency table is empty")
    else:
        if not source:
            raise ValueError("turnstile vector is empty")
        if k is None:
            k = len(next(iter(source)))
        if n is None:
            raise ValueError("n is required for a turnstile vector")

    if spec.width > _MAX_ENUM_WIDTH:
        raise EnumerationBudgetError(
            f"enumeration requires field width <= {_MAX_ENUM_WIDTH}, got {spec.width}"
        )
    if k > _MAX_ENUM_K:
        raise EnumerationBudgetError(f"enumeration requires k <= {_MAX_ENUM_K}, got {k}")
    if not (1 <= n <= spec.order):
        raise ValueError(f"alphabet size {n} does not fit the field")
    seeds = 1 << (4 * spec.width)
    tuples = seeds**k
    if tuples > budget:
        raise EnumerationBudgetError(
            f"{tuples} seed tuples exceed the enumeration budget of {budget}"
        )

    signs = all_seed_signs(spec, n)
    if isinstance(source, FrequencyTable):
        tensor = np.zeros((n,) * k, dtype=object)
        for item, f in source.joint.items():
            tensor[item] = f
        m = source.m
        multiplier = m ** (k - 1)
        marg_vectors = [np.array(marg, dtype=object) for marg in source.marginals]
        bound = 2 * m**k
        y_denominator = m ** (2 * k)
    else:
        tensor = np.zeros((n,) * k, dtype=object)
        weights = {}
        for p, wgt in source.items():
            p = tuple(p)
            if len(p) != k:
                raise ValueError(f"expected {k}-tuples in the turnstile vector")
            for x in p:
                if not (0 <= x < n):
                    raise ValueError(f"symbol {x} outside [0, {n})")
            weights[p] = Fraction(wgt)
        denom = math.lcm(*(w.denominator for w in weights.values()))
        for p, wgt in weights.items():
            tensor[p] = int(wgt * denom)
        multiplier = 1
        marg_vectors = None
        bound = max(1, int(sum(abs(int(w * denom)) for w in weights.values())))
        y_denominator = denom * denom

    exact_objects = bound**4 >= (1 << 61)
    if exact_objects:
        table = signs.astype(object)
    else:
        table = signs.astype(np.int64)
        tensor = tensor.astype(np.int64)
        if marg_vectors is not None:
            marg_vectors = [v.astype(np.int64) for v in marg_vectors]

    margins = None
    if marg_vectors is not None:
        margins = [table @ v for v in marg_vectors]

    s1_sum = 0
    s2_sum = 0
    for num in _numerator_slabs(table, tensor, multiplier, margins, k):
        a, b = _exact_square_sums(num, bound)
        s1_sum += a
        s2_sum += b

    e_y = Fraction(s1_sum, tuples) / y_denominator
    e_y2 = Fraction(s2_sum, tuples) / (y_denominator * y_denominator)
    variance = e_y2 - e_y * e_y
    ratio = variance / (e_y * e_y) if e_y != 0 else None
    return ExactMoments(expectation=e_y, variance=variance, ratio=ratio)


def _numerator_slabs(table, tensor, multiplier, margins, k):
    """Yield arrays of the integer numerator of Y over all seed tuples.

    Seed axes are enumerated in full; k = 3 is produced in slabs over the
    first seed axis to bound memory.
    """
    if k == 1:
        a = table @ tensor
        yield (a * multiplier - margins[0]) if margins else a
    elif k == 2:
        a = table @ tensor @ table.T
        if margins:
            yield a * multiplier - np.multiply.outer(margins[0], margins[1])
        else:
            yield a
    else:
        partial = np.tensordot(tensor, table, axes=([1], [1]))  # (a, c, t)
        partial = np.tensordot(partial, table, axes=([1], [1]))  # (a, t, u)
        rows = table.shape[0]
        slab = 64
        for lo in range(0, rows, slab):
            hi = min(lo + slab, rows)
            a = np.tensordot(table[lo:hi], partial, axes=([1], [0]))
            if margins:
                outer = (
                    margins[0][lo:hi, None, None]
                    * margins[1][None, :, None]
                    * margins[2][None, None, :]
                )
                yield a * multiplier - outer
            else:
                yield a


def _exact_square_sums(num: np.ndarray, bound: int) -> tuple[int, int]:
    """(sum of num^2, sum of num^4) as exact Python ints.

    int64 chunks are sized so partial sums cannot overflow; arrays whose
    fourth powers exceed int64 arrive as object dtype and are summed
    directly.
    """
    flat = num.reshape(-1)
    if flat.dtype == object:
        s1 = 0
        s2 = 0
        for v in flat.tolist():
            v2 = v * v
            s1 += v2
            s2 += v2 * v2
        return s1, s2
    e4 = max(1, bound**4)
    cap = max(1, (1 << 62) // e4)
    s1 = 0
    s2 = 0
    for lo in range(0, flat.size, cap):
        c = flat[lo : lo + cap]
        c2 = c * c
        s1 += int(c2.sum())
        s2 += int((c2 * c2).sum())
    return s1, s2
