"""Exact ground truth: frequency tables and exhaustive-seed moment oracles.

Everything here is computed in exact arithmetic.  Counts are integers,
scaled so that the only division is the final one into a ``Fraction``;
moment enumeration visits every seed tuple of the hash family, so the
verified expectation/variance statements carry zero statistical or
floating-point slack.  The price is a hard budget: enumeration is only
permitted for field width <= 2 and k <= 3, and at most 2^24 seed tuples;
larger configurations are rejected rather than sampled.

Enumeration runs on one vector.  The estimator's cell value is
U = t1 m^(k-1) - prod_i marg_i = sum_p H(p) v_p with the deviation vector
v = m^(k-1) f - f_1 (x) ... (x) f_k, so a table's Y is the AMS square of
v / m^k and a turnstile vector's Y is that of its own weights.

A table's joint counts are sparse, its distinct rows with their counts
(streams occupy few cells of [n]^k), while the per-dimension marginals are
dense (alphabets are small).  A table is built as the bank ingests: blocks
through ``streamfile.row_runs``, tuples through ``streamfile.tuple_blocks``.
Integer sums pick their dtype from a bound: int64 where it provably holds
them, Python ints (object arrays) past it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .field import FieldSpec
from .hashing import SignHash, batch_sign_eval
from .sketch import EmptyStreamError
from .streamfile import merge_rows, row_runs, tuple_blocks

ENUMERATION_BUDGET = 1 << 24
_MAX_ENUM_WIDTH = 2
_MAX_ENUM_K = 3


class EnumerationBudgetError(ValueError):
    """The requested configuration exceeds the exact-enumeration budget."""


class FrequencyTable:
    """Exact joint and marginal counts of a tuple stream, held as arrays.

    ``rows`` are the distinct items as a (support, k) uint64 array and
    ``counts`` their int64 multiplicities; ``marginals`` are per-dimension
    lists of counts and ``m`` is the item total.  Counts are merged with
    ``merge_rows``, exact while ``m`` stays below 2^53, so ``add`` refuses
    a count that would reach it; each ``add`` sorts the whole support, so
    large tables are built with ``from_stream`` or ``from_blocks``.
    ``joint`` is a dict built from the arrays when read.
    """

    def __init__(self, k: int, n: int) -> None:
        if k < 1 or n < 1:
            raise ValueError("k and n must be >= 1")
        self.k = k
        self.n = n
        self.rows = np.empty((0, k), np.uint64)
        self.counts = np.empty(0, np.int64)
        self.marginals = [[0] * n for _ in range(k)]
        self.m = 0

    @classmethod
    def from_stream(cls, items: Iterable[tuple[int, ...]], k: int, n: int) -> "FrequencyTable":
        return cls.from_blocks(tuple_blocks(items, k, n), k, n)

    @classmethod
    def from_blocks(
        cls, blocks: Iterable[np.ndarray], k: int, n: int, *, max_support: float = math.inf
    ) -> "FrequencyTable":
        """Table of (rows, k) uint64 blocks, the first run of ``streamfile.row_runs``.

        A run past ``max_support`` rows raises, and so does a second run,
        which only comes at 2^53 items.
        """
        table, runs = cls(k, n), row_runs(blocks, k, n, max_support)
        table.rows, table.counts = next(runs, (table.rows, table.counts))
        if len(table.counts) > max_support:
            raise ValueError(f"joint support exceeds the memory budget of {max_support} entries")
        if next(runs, None) is not None:
            raise ValueError("a frequency table holds fewer than 2^53 items")
        sums = (np.bincount(c.astype(np.intp), table.counts, minlength=n) for c in table.rows.T)
        table.marginals = [s.astype(np.int64).tolist() for s in sums]  # exact: m < 2^53
        table.m = int(table.counts.sum())
        return table

    @property
    def joint(self) -> dict[tuple[int, ...], int]:
        return dict(zip(map(tuple, self.rows.tolist()), self.counts.tolist()))

    def add(self, item: tuple[int, ...], count: int = 1) -> None:
        (block,) = tuple_blocks([item], self.k, self.n)
        if not isinstance(count, (int, np.integer)) or not 0 < count < (1 << 53) - self.m:
            raise ValueError("count must be a positive integer that keeps m below 2^53")
        count = int(count)
        self.rows, self.counts = merge_rows([(self.rows, self.counts), (block, np.array([count]))])
        for marg, x in zip(self.marginals, block[0].tolist()):
            marg[x] += count
        self.m += count


@dataclass(frozen=True)
class ExactMoments:
    """Exact E[Y] and Var[Y] over the full seed space; ratio = Var/E^2."""

    expectation: Fraction
    variance: Fraction
    ratio: Fraction | None


def exact_l2sq(table: FrequencyTable) -> Fraction:
    """Squared L2 distance between the joint and the product of marginals.

    Scaled to integers by m^(2k): each cell with f > 0 and marginal product p
    adds (f S - p)^2 - p^2, S = m^(k-1), to prod_i sum_x f_i(x)^2, the sum over
    all cells of p^2.  Array sums stay below m^(k+1): int64 while that fits,
    Python ints past it.
    """
    if table.m == 0:
        raise EmptyStreamError("frequency table is empty")
    m, k = table.m, table.k
    dtype = np.int64 if m ** (k + 1) < 1 << 63 else object
    f, margs = table.counts.astype(dtype), [np.array(mg, dtype=dtype) for mg in table.marginals]
    p = math.prod(marg[column] for column, marg in zip(table.rows.T, margs))
    s = m ** (k - 1)
    total = math.prod(int(marg @ marg) for marg in margs) + s * s * int(f @ f) - 2 * s * int(f @ p)
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
    rows, counts = table.rows.tolist(), table.counts.tolist()
    t1 = sum(f * math.prod(h(x) for h, x in zip(hashes, row)) for row, f in zip(rows, counts))
    margs = [
        sum(c * h(x) for x, c in enumerate(marg) if c)
        for h, marg in zip(hashes, table.marginals)
    ]
    u = t1 * table.m ** (table.k - 1) - math.prod(margs)
    return Fraction(u * u, table.m ** (2 * table.k))


# ---------------------------------------------------------------------------
# Seed-space enumeration
# ---------------------------------------------------------------------------

# A plain dict, not an lru_cache: the benchmark clears it by this name to
# measure enumeration with a cold table, and an lru_cache would stay warm.
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
    """E[Y] and Var[Y] of Y = (sum_p v_p H(p))^2 over every seed tuple, exactly.

    ``source`` is a mapping from k-tuples to weights v_p (turnstile vector)
    or a :class:`FrequencyTable`.  A table's Y is that of its deviation
    vector v / m^k, v_p = m^(k-1) f(p) - prod_i f_i(p_i): a cell's
    U = t1 m^(k-1) - prod_i marg_i is sum_p H(p) v_p.  Weights may be ints,
    Fractions or floats; they are scaled to one integer grid, so the result
    is exact for the binary values actually supplied.  Refusals come before
    anything is expanded over [n]^k.
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
    tuples = (1 << (4 * spec.width)) ** k
    if tuples > budget:
        raise EnumerationBudgetError(
            f"{tuples} seed tuples exceed the enumeration budget of {budget}"
        )

    if isinstance(source, FrequencyTable):
        tensor, scale = _deviation_vector(source), source.m**k
        g = math.gcd(scale, *tensor.flat)  # the grid of v / m^k in lowest terms
        tensor, scale = tensor // g, scale // g
    else:
        weights = [Fraction(wgt) for wgt in source.values()]
        scale = math.lcm(*(w.denominator for w in weights))
        tensor = np.zeros((n,) * k, dtype=object)
        rows = np.concatenate(list(tuple_blocks(source, k, n))).astype(np.intp)
        tensor[tuple(rows.T)] = [int(w * scale) for w in weights]
    bound = max(1, int(np.abs(tensor).sum()))  # |sum_p v_p H(p)| <= sum_p |v_p|

    signs = all_seed_signs(spec, n)
    if bound**4 < (1 << 61):
        signs, tensor = signs.astype(np.int64), tensor.astype(np.int64)
    else:
        signs = signs.astype(object)

    s1_sum = 0
    s2_sum = 0
    for num in _numerator_slabs(signs, tensor):
        a, b = _exact_square_sums(num, bound)
        s1_sum += a
        s2_sum += b

    e_y = Fraction(s1_sum, tuples * scale**2)
    e_y2 = Fraction(s2_sum, tuples * scale**4)
    variance = e_y2 - e_y * e_y
    ratio = variance / (e_y * e_y) if e_y != 0 else None
    return ExactMoments(expectation=e_y, variance=variance, ratio=ratio)


def _deviation_vector(table: FrequencyTable) -> np.ndarray:
    """v over all of [n]^k as Python ints, v_p = m^(k-1) f(p) - prod_i f_i(p_i)."""
    margs = [np.array(f, dtype=object) for f in table.marginals]
    v = -functools.reduce(np.multiply.outer, margs)
    v[tuple(table.rows.T.astype(np.intp))] += table.counts.astype(object) * table.m ** (table.k - 1)
    return v


def _numerator_slabs(signs: np.ndarray, tensor: np.ndarray):
    """Yield sum_p v_p H(p) over every seed tuple, in slabs of 64 first-axis seeds.

    Dimensions 2..k are contracted against the sign table one at a time,
    each appending its seed axis; the first is contracted per slab.
    """
    partial = tensor
    for _ in range(tensor.ndim - 1):
        partial = np.tensordot(partial, signs, axes=([1], [1]))
    for lo in range(0, signs.shape[0], 64):
        yield np.tensordot(signs[lo : lo + 64], partial, axes=([1], [0]))


def _exact_square_sums(num: np.ndarray, bound: int) -> tuple[int, int]:
    """(sum of num^2, sum of num^4) as exact Python ints.

    An object array (Python ints) is summed in one run; an int64 array,
    whose entries are at most ``bound`` in absolute value, in runs short
    enough that no partial sum of fourth powers passes 2^62.
    """
    flat = num.reshape(-1)
    run = flat.size if flat.dtype == object else max(1, (1 << 62) // bound**4)
    s1 = s2 = 0
    for lo in range(0, flat.size, run):
        c2 = flat[lo : lo + run] ** 2
        s1 += int(c2.sum())
        s2 += int((c2 * c2).sum())
    return s1, s2
