"""Median-of-means bank of independently seeded sketch instances.

A bank holds an s2 x s1 grid of instances.  Each group of s1 instances is
averaged, and the median of the s2 group means is the (1 +- eps, delta)
estimate of the squared L2 distance between the stream's joint distribution
and the product of its marginals.

Shape derivation: per-group Chebyshev needs Var[group mean] <= E^2/8, and
the variance of one instance is at most (3^k - 1) E^2, so

    s1 = ceil(8 * (3^k - 1) / eps^2)        s2 = ceil(2 * ln(1/delta))

An opt-in paper-constants mode pins s1 = ceil(72 / eps^2) at k = 2, the
conventional constant for the two-dimensional case; for k != 2 it falls
back to the derived formula.

The bank stores counters in flat numpy int64 arrays (cells row-major by
(group, index)).  Every counter is linear in the stream's frequency vector,
so ``ingest_blocks``, the one ingest path, adds each run of
``streamfile.row_runs`` (an exact histogram of distinct rows) to the
counters at once; ``ingest_many`` gets its blocks from
``streamfile.tuple_blocks``.  That is arithmetically identical to
``SketchInstance.update_item`` per item per cell, and ``instance_view``
materializes any cell as a ``SketchInstance``.  Per run and dimension,
``batch_sign_eval`` fills one cells x distinct-symbols sign matrix that
both the joint counter and the marginal sums read; nothing is precomputed
per symbol of the alphabet.  The joint counter sum_x f(x) prod_d h_d(x_d)
factorises over dimensions: a run whose symbol grid is at most
``_DENSE_GRID`` times its support is contracted as a dense histogram one
dimension at a time; otherwise each (cell, row) sign product is gathered
and summed.  Every partial sum is bounded by the run's item total, below
2^53, so both paths are exact in float64.  Ingestion is single-writer;
estimation is read-only.

Finalize uses the same rule as ``SketchInstance.finalize``
(``sketch.finalize_values``): U is computed with int64 arrays while
m^k < 2^62 and with Python ints past that, and every cell's Y is the
correctly rounded float of (U/m^k)^2.

Snapshot format (version 1, little-endian):

    magic  b"PSKBANK1"
    header <8q>: version=1, k, n, width, s1, s2, master_seed (as signed
           64-bit bit pattern), mode (always 0; other values are refused)
    body   s2*s1 cell records, row-major (group, index), each <q>-packed:
           t1, marginal_sums[0..k-1], m

Round-trips are bit-exact; hash seeds are re-derived from master_seed.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .field import FieldSpec
from .hashing import (
    MAX_GROUP,
    MAX_INDEX,
    batch_sign_eval,
    derive_coefficients_batch,
    derive_hashes,
)
from .sketch import EmptyStreamError, SketchConfig, SketchInstance, finalize_values
from .streamfile import row_runs, tuple_blocks

_MAGIC = b"PSKBANK1"
_HEADER = struct.Struct("<8q")
_SNAPSHOT_VERSION = 1

# An ingest run ends once its merged support passes _CHUNK_ITEMS rows.
_CHUNK_ITEMS = 8192
# Cap on the entries of a run's sign matrices (summed over dimensions), of
# one joint-product slab and of one cell slab of a dense contraction's
# partial sums; each is at most 32 MiB as float64.
_WORKING_ENTRIES = 1 << 22
# A run whose symbol grid (the product over dimensions of its distinct
# symbol counts) has at most _DENSE_GRID cells per distinct row is
# contracted as a dense histogram instead of row by row.
_DENSE_GRID = 4


@dataclass(frozen=True)
class AccuracyParams:
    """Target relative error and failure probability.

    epsilon is accepted up to and including 1.0 so that the unit-error
    shapes (s1 = 64 derived, 72 in paper-constants mode) remain
    constructible.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if not (0.0 < self.delta < 1.0) or math.isinf(1.0 / self.delta):
            # derive_shape takes log(1/delta), which a subnormal delta overflows.
            raise ValueError("delta must lie in (0, 1) with a finite 1/delta")


@dataclass(frozen=True)
class BankShape:
    s1: int
    s2: int

    def __post_init__(self) -> None:
        if not (1 <= self.s1 <= MAX_INDEX):
            raise ValueError(f"s1 must be in [1, {MAX_INDEX}]")
        if not (1 <= self.s2 <= MAX_GROUP):
            raise ValueError(f"s2 must be in [1, {MAX_GROUP}]")

    @property
    def cells(self) -> int:
        return self.s1 * self.s2


@dataclass(frozen=True)
class Estimate:
    l2_squared: float
    l2: float


@dataclass(frozen=True)
class StateSize:
    """Counter and seed accounting: cells*(k+1) counters, cells*k*4 seeds."""

    counters: int
    seeds: int

    @classmethod
    def of(cls, shape: BankShape, k: int) -> "StateSize":
        return cls(counters=shape.cells * (k + 1), seeds=shape.cells * k * 4)


def derive_shape(
    params: AccuracyParams, k: int, *, paper_constants: bool = False
) -> BankShape:
    """Grid shape meeting the (1 +- eps, delta) guarantee for k dimensions.

    The ceilings are evaluated in exact rational arithmetic (s1) and with a
    1e-12 slack (s2) so boundary cases like delta = e^-2 -> s2 = 4 do not
    depend on libm rounding.
    """
    if paper_constants and k == 2:
        s1 = math.ceil(Fraction(72) / Fraction(params.epsilon) ** 2)
    else:
        s1 = math.ceil(Fraction(8 * (3**k - 1)) / Fraction(params.epsilon) ** 2)
    s2 = max(1, math.ceil(2.0 * math.log(1.0 / params.delta) - 1e-12))
    return BankShape(s1=s1, s2=s2)


def _exact_matvec(signs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``signs @ counts`` for a +-1 matrix, through a float64 (BLAS) product.

    Every entry is bounded in absolute value by ``counts.sum()``, the items
    of one run, which ``streamfile.row_runs`` keeps below 2^53, so the
    float64 sums are exact.  (Only a single block of 2^53 rows could pass
    it, and such a block does not fit in memory.)
    """
    return (signs.astype(np.float64) @ counts.astype(np.float64)).astype(np.int64)


def _median_lower(values: np.ndarray) -> float:
    """Median with the documented tie rule: lower-middle order statistic."""
    ordered = np.sort(values)
    return float(ordered[(len(ordered) - 1) // 2])


class EstimatorBank:
    """s1 x s2 grid of independently seeded instances over one stream."""

    def __init__(
        self,
        config: SketchConfig,
        *,
        params: AccuracyParams | None = None,
        shape: BankShape | None = None,
        master_seed: int = 0,
    ) -> None:
        if shape is None:
            if params is None:
                raise ValueError("provide either params or an explicit shape")
            shape = derive_shape(params, config.k)
        self.config = config
        self.shape = shape
        self.master_seed = master_seed & ((1 << 64) - 1)

        cells = shape.cells
        k = config.k
        self._t1 = np.zeros(cells, dtype=np.int64)
        self._marg = np.zeros((cells, k), dtype=np.int64)
        self._m = 0
        self._coefs = derive_coefficients_batch(
            self.master_seed, shape.s2, shape.s1, k, config.spec
        )

    # -- ingestion ----------------------------------------------------------

    def ingest_many(self, items: Iterable[tuple[int, ...]]) -> int:
        """Apply a batch of items; returns how many were ingested."""
        return self.ingest_blocks(tuple_blocks(items, self.config.k, self.config.n))

    def ingest_blocks(self, blocks: Iterable[np.ndarray]) -> int:
        """Apply ``(rows, k)`` uint64 arrays of symbols; returns the item count.

        Each run of ``streamfile.row_runs`` is added to the counters; blocks
        before a refused one stay ingested, also when the iterator raises.
        """
        m0 = self._m
        for rows, counts in row_runs(blocks, self.config.k, self.config.n, _CHUNK_ITEMS):
            self._add_rows(rows, counts)
        return self._m - m0

    def _add_rows(self, rows: np.ndarray, counts: np.ndarray) -> None:
        """Add distinct (rows, k) uint64 rows, each ``counts`` times, to every cell."""
        cells = self.shape.cells
        uniques = [np.unique(column, return_inverse=True) for column in rows.T]
        if len(rows) > 1 and cells * sum(len(syms) for syms, _ in uniques) > _WORKING_ENTRIES:
            half = len(rows) // 2
            self._add_rows(rows[:half], counts[:half])
            self._add_rows(rows[half:], counts[half:])
            return

        signs = []
        for dim, (syms, inverse) in enumerate(uniques):
            matrix = batch_sign_eval(self._coefs[:, dim, :], syms, self.config.spec)
            self._marg[:, dim] += _exact_matvec(matrix, np.bincount(inverse, counts))
            signs.append(matrix)

        idx = [inverse for _, inverse in uniques]
        grid = [len(syms) for syms, _ in uniques]
        size = math.prod(grid)
        if size <= _DENSE_GRID * len(rows):
            # t1 = sum_x f(x) prod_d h_d(x_d) factorises over dimensions:
            # contract the dense histogram one dimension at a time, the last
            # with one GEMM and each earlier one with a batched matvec.
            hist = np.bincount(np.ravel_multi_index(idx, grid), counts, size)
            hist = hist.reshape(-1, grid[-1]).T
            slab = max(1, _WORKING_ENTRIES // hist.shape[1])
            for lo in range(0, cells, slab):
                sl = slice(lo, lo + slab)
                part = signs[-1][sl].astype(np.float64) @ hist
                for matrix in signs[-2::-1]:
                    part = part.reshape(len(part), -1, matrix.shape[1]) @ (
                        matrix[sl, :, None].astype(np.float64))
                self._t1[sl] += part.reshape(-1).astype(np.int64)
        else:
            slab = max(1, _WORKING_ENTRIES // cells)
            for lo in range(0, len(rows), slab):
                sl = slice(lo, lo + slab)
                prod = signs[0][:, idx[0][sl]]
                for matrix, inverse in zip(signs[1:], idx[1:]):
                    prod = prod * matrix[:, inverse[sl]]
                self._t1 += _exact_matvec(prod, counts[sl])
        self._m += int(counts.sum())

    # -- estimation ---------------------------------------------------------

    @property
    def item_count(self) -> int:
        return self._m

    def instance_values(self) -> np.ndarray:
        """Per-instance Y as float64, shape (s2, s1).

        Each value is ``finalize_values`` of the cell's U, bit-identical to
        ``SketchInstance.finalize`` on the same cell.
        """
        if self._m == 0:
            raise EmptyStreamError("cannot estimate from an empty stream")
        k, m = self.config.k, self._m
        dtype = np.int64 if m**k < 1 << 62 else object  # |U| <= 2 m^k
        t1, marg = self._t1.astype(dtype), self._marg.astype(dtype)
        u_values = (t1 * m ** (k - 1) - marg.prod(axis=1)).tolist()
        y = np.fromiter(
            finalize_values(u_values, m, k), dtype=np.float64, count=len(u_values)
        )
        return y.reshape(self.shape.s2, self.shape.s1)

    def estimate(self) -> Estimate:
        """Median over groups of the mean instance value within each group."""
        groups = self.instance_values().mean(axis=1)
        med = _median_lower(groups)
        return Estimate(l2_squared=med, l2=math.sqrt(med))

    def state_size(self) -> StateSize:
        return StateSize.of(self.shape, self.config.k)

    # -- inspection & merging ----------------------------------------------

    def instance_view(self, group: int, index: int) -> SketchInstance:
        """Materialize one cell as a scalar SketchInstance (copied counters)."""
        if not (0 <= group < self.shape.s2 and 0 <= index < self.shape.s1):
            raise IndexError("cell outside bank shape")
        hashes = derive_hashes(
            self.master_seed,
            self.config.k,
            self.config.spec,
            self.config.n,
            group=group,
            index=index,
        )
        inst = SketchInstance(self.config, hashes)
        flat = group * self.shape.s1 + index
        inst.t1 = int(self._t1[flat])
        inst.marginal_sums = [int(v) for v in self._marg[flat]]
        inst.m = self._m
        return inst

    def counters_equal(self, other: "EstimatorBank") -> bool:
        return (
            self._m == other._m
            and np.array_equal(self._t1, other._t1)
            and np.array_equal(self._marg, other._marg)
        )

    # -- snapshots -----------------------------------------------------------

    def snapshot_bytes(self) -> bytes:
        if self.config.n >= 1 << 63:
            raise ValueError("snapshot v1 stores n as int64; alphabet size too large")
        seed_signed = struct.unpack("<q", struct.pack("<Q", self.master_seed))[0]
        header = _HEADER.pack(
            _SNAPSHOT_VERSION,
            self.config.k,
            self.config.n,
            self.config.spec.width,
            self.shape.s1,
            self.shape.s2,
            seed_signed,
            0,
        )
        body = np.empty((self.shape.cells, self.config.k + 2), dtype="<i8")
        body[:, 0] = self._t1
        body[:, 1:-1] = self._marg
        body[:, -1] = self._m
        return _MAGIC + header + body.tobytes()

    def save(self, path) -> None:
        data = self.snapshot_bytes()
        with open(path, "wb") as fp:
            fp.write(data)

    @classmethod
    def from_snapshot_bytes(cls, data: bytes) -> "EstimatorBank":
        if data[: len(_MAGIC)] != _MAGIC:
            raise ValueError("not a bank snapshot (bad magic)")
        off = len(_MAGIC)
        if len(data) < off + _HEADER.size:
            raise ValueError("snapshot truncated inside its header")
        version, k, n, width, s1, s2, seed_signed, mode = _HEADER.unpack_from(data, off)
        if version != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        if mode != 0:
            raise ValueError(f"unsupported snapshot mode {mode}")
        off += _HEADER.size
        cells = s1 * s2
        body = np.frombuffer(data, dtype="<i8", offset=off)
        if body.size != cells * (k + 2):
            raise ValueError("snapshot body length does not match header")
        body = body.reshape(cells, k + 2)
        master_seed = struct.unpack("<Q", struct.pack("<q", seed_signed))[0]
        bank = cls(
            SketchConfig(k=k, n=n, spec=FieldSpec(width)),
            shape=BankShape(s1=s1, s2=s2),
            master_seed=master_seed,
        )
        ms = np.unique(body[:, -1])
        if len(ms) != 1:
            raise ValueError("snapshot cells disagree on the item count")
        bank._t1 = body[:, 0].astype(np.int64)
        bank._marg = body[:, 1:-1].astype(np.int64)
        bank._m = int(ms[0])
        return bank

    @classmethod
    def load(cls, path) -> "EstimatorBank":
        with open(path, "rb") as fp:
            return cls.from_snapshot_bytes(fp.read())


def merge_banks(a: EstimatorBank, b: EstimatorBank) -> EstimatorBank:
    """Cell-wise counter sum; equals ingesting the concatenated stream."""
    if a.config != b.config or a.shape != b.shape or a.master_seed != b.master_seed:
        raise ValueError("banks differ in configuration, shape or master seed")
    # The checks above prove that a's hash coefficients are the merged
    # bank's: a shallow copy shares them (nothing mutates them) instead of
    # deriving them again.
    out = copy.copy(a)
    out._t1 = a._t1 + b._t1
    out._marg = a._marg + b._marg
    out._m = a._m + b._m
    return out
