"""Exact ground truth: frequency tables and exhaustive-seed moment oracles.

Everything here is computed in exact arithmetic.  Counts are integers,
scaled so that the only division is the final one into a ``Fraction``;
moment enumeration sums over every seed tuple of the hash family, so the
verified expectation/variance statements carry zero statistical or
floating-point slack.  It evaluates every seed's signs on [n] and groups
the seeds by that sign row, on which alone a seed's Y depends.  The price
is a hard budget: enumeration is only permitted for field width <= 2 and
k <= 3, so at most (2^8)^3 = 2^24 seed tuples; larger configurations are
rejected rather than sampled.

Enumeration is int64 where a bound proves it: |num| <= ||v||_1 for num =
sum_p v_p H(p), so the sign contractions run in int64 while ||v||_1^4 < 2^63.
Each dimension's sum over 2^(4w) seeds multiplies a moment's bound by 2^(4w),
and the sum turns to Python ints once that bound reaches 2^63.

Enumeration runs on one vector.  The estimator's cell value is
U = t1 m^(k-1) - prod_i marg_i = sum_p H(p) v_p with the deviation vector
v = m^(k-1) f - f_1 (x) ... (x) f_k, so a table's Y is the AMS square of
v / m^k and a turnstile vector's Y is that of its own weights.

A table's joint counts are sparse, its distinct rows with their counts
(streams occupy few cells of [n]^k), and the oracles sum each dimension's
marginal over its present symbols only, so their memory follows the support
at any alphabet size.  A table is built as the bank ingests: blocks
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
from .hashing import SignHash, batch_sign_eval, symbol_words
from .sketch import EmptyStreamError
from . import streamfile
from .streamfile import merge_rows, row_runs, tuple_blocks

_MAX_ENUM_WIDTH = 2
_MAX_ENUM_K = 3


class EnumerationBudgetError(ValueError):
    """The requested configuration exceeds the exact-enumeration budget."""


class FrequencyTable:
    """Exact joint counts of a tuple stream, held as arrays.

    ``rows`` are the distinct items as a (support, k) uint64 array,
    ``counts`` their int64 multiplicities and ``m`` the item total, the
    only counts a table holds.  Counts are merged with ``merge_rows``, exact
    while ``m`` stays below ``streamfile._EXACT_ITEMS`` (2^53), so ``add``
    refuses a count that would reach it; each ``add`` sorts the whole
    support, so large tables are built with ``from_stream`` or ``from_blocks``.
    """

    def __init__(self, k: int, n: int) -> None:
        if k < 1 or n < 1:
            raise ValueError("k and n must be >= 1")
        self.k = k
        self.n = n
        self.rows = np.empty((0, k), np.uint64)
        self.counts = np.empty(0, np.int64)
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
        table.m = int(table.counts.sum())
        return table

    def add(self, item: tuple[int, ...], count: int = 1) -> None:
        (block,) = tuple_blocks([item], self.k, self.n)
        if not isinstance(count, (int, np.integer)) or not 0 < count < streamfile._EXACT_ITEMS - self.m:
            raise ValueError("count must be a positive integer that keeps m below 2^53")
        count = int(count)
        self.rows, self.counts = merge_rows([(self.rows, self.counts), (block, np.array([count]))])
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
    all cells of p^2.  A marginal is summed over its dimension's present
    symbols, the only ones where it is nonzero.  Array sums stay below
    m^(k+1): int64 while that fits, Python ints past it.
    """
    if table.m == 0:
        raise EmptyStreamError("frequency table is empty")
    m, k = table.m, table.k
    dtype = np.int64 if m ** (k + 1) < 1 << 63 else object
    f, p, squares = table.counts.astype(dtype), 1, 1
    for column in table.rows.T:
        inverse = np.unique(column, return_inverse=True)[1]
        marg = np.bincount(inverse, table.counts).astype(np.int64).astype(dtype)  # exact: m < 2^53
        p, squares = p * marg[inverse], squares * int(marg @ marg)
    s = m ** (k - 1)
    total = squares + s * s * int(f @ f) - 2 * s * int(f @ p)
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
    signs = [[h(x) for h, x in zip(hashes, row)] for row in rows]
    t1 = sum(f * math.prod(row) for row, f in zip(signs, counts))
    margs = [sum(f * x for x, f in zip(column, counts)) for column in zip(*signs)]
    u = t1 * table.m ** (table.k - 1) - math.prod(margs)
    return Fraction(u * u, table.m ** (2 * table.k))


# ---------------------------------------------------------------------------
# Seed-space enumeration
# ---------------------------------------------------------------------------

# A plain dict, not an lru_cache: the benchmark clears it by this name to
# measure enumeration with a cold table, and an lru_cache would stay warm.
_sign_table_cache: dict[tuple[int, int], np.ndarray] = {}


def all_seed_signs(spec: FieldSpec, n: int) -> np.ndarray:
    """Sign table of every hash in the family: shape (2^(4w), n), int8.

    Row s holds the signs of ``SignHash(spec, s, n)``.  The returned array
    is cached and read-only.
    """
    if spec.width > _MAX_ENUM_WIDTH:
        raise EnumerationBudgetError(
            f"seed enumeration requires width <= {_MAX_ENUM_WIDTH}, got {spec.width}"
        )
    if not (1 <= n <= spec.order):
        raise ValueError(f"domain size {n} does not fit the field")
    key = (spec.width, n)
    cached = _sign_table_cache.get(key)
    if cached is None:
        # Seed s is SignHash(spec, s, n); for w <= 16 it is its own packed
        # hash word (hashing.pack_words).
        seeds = np.arange(1 << (4 * spec.width), dtype=np.uint64)
        cached = batch_sign_eval(seeds[:, None], symbol_words(np.arange(n), spec))
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
    rows, counts = _distinct_sign_rows(all_seed_signs(spec, spec.order)[:, list(pts)])
    return {tuple(int(v) for v in row): int(c) for row, c in zip(rows, counts)}


def _distinct_sign_rows(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a (seeds, n <= 4) sign table and their counts, by the
    code of each row's minus signs (below 16), with no sort."""
    bits = np.arange(signs.shape[1])
    counts = np.bincount((signs < 0) @ (1 << bits))
    codes = np.flatnonzero(counts)
    return 1 - 2 * (codes[:, None] >> bits & 1), counts[codes]


def exhaustive_moments(
    source: FrequencyTable | Mapping[tuple[int, ...], object],
    *,
    spec: FieldSpec,
    n: int | None = None,
) -> ExactMoments:
    """E[Y] and Var[Y] of Y = (sum_p v_p H(p))^2 over every seed tuple, exactly.

    ``source`` is a mapping from k-tuples to weights v_p (turnstile vector)
    over [n]^k, or a :class:`FrequencyTable`, which carries its own k and n.
    A table's Y is that of its deviation vector v / m^k, v_p = m^(k-1) f(p)
    - prod_i f_i(p_i): a cell's U = t1 m^(k-1) - prod_i marg_i is
    sum_p H(p) v_p.  Weights may be ints, Fractions or floats; they are
    scaled to one integer grid, so the result is exact for the binary values
    actually supplied.  Refusals come before anything is expanded over [n]^k.
    """
    if isinstance(source, FrequencyTable):
        if n is not None:
            raise ValueError("a frequency table has its own n")
        k, n = source.k, source.n
        if source.m == 0:
            raise EmptyStreamError("frequency table is empty")
    else:
        if not source:
            raise ValueError("turnstile vector is empty")
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
    # Y depends on a seed only through its sign row on [n]: contract v against
    # the distinct rows one dimension at a time, then sum num^2 and num^4 over
    # each dimension's rows weighted by the number of seeds that share a row.
    signs, mult = _distinct_sign_rows(all_seed_signs(spec, n))
    bound = sum(abs(int(x)) for x in tensor.flat)  # |num| <= ||v||_1
    dtype = np.int64 if bound**4 < 1 << 63 else object
    num, signs = tensor.astype(dtype), signs.astype(dtype)
    for _ in range(k):
        num = np.tensordot(num, signs, axes=([0], [1]))
    sums = []
    for power, top in ((num * num, bound**2), (num**4, bound**4)):
        for _ in range(k):  # each sum over 2^(4w) seeds multiplies the bound by that
            top <<= 4 * spec.width
            if top >= 1 << 63:
                power = power.astype(object, copy=False)
            power = np.tensordot(mult, power, axes=([0], [0]))
        sums.append(int(power))

    tuples = (1 << (4 * spec.width)) ** k
    e_y = Fraction(sums[0], tuples * scale**2)
    e_y2 = Fraction(sums[1], tuples * scale**4)
    variance = e_y2 - e_y * e_y
    ratio = variance / (e_y * e_y) if e_y != 0 else None
    return ExactMoments(expectation=e_y, variance=variance, ratio=ratio)


def _deviation_vector(table: FrequencyTable) -> np.ndarray:
    """v over all of [n]^k as Python ints, v_p = m^(k-1) f(p) - prod_i f_i(p_i)."""
    # The marginals over [n], n <= 4 under the budget; int64 is exact: m < 2^53.
    margs = (np.bincount(c.astype(np.intp), table.counts, minlength=table.n) for c in table.rows.T)
    v = -functools.reduce(np.multiply.outer, (f.astype(np.int64).astype(object) for f in margs))
    v[tuple(table.rows.T.astype(np.intp))] += table.counts.astype(object) * table.m ** (table.k - 1)
    return v
