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

The bank's state is the item count m and one (cells, k + 1) int64 counter
matrix in snapshot record order: a row per cell, row-major by (group,
index), holding t1 and then the k marginal sums.  Every counter is linear in
the stream's frequency vector, so ``ingest_blocks``, the one ingest path
(``ingest_many`` gets its blocks from ``streamfile.tuple_blocks``), adds
each run of ``streamfile.row_runs``, an exact histogram of distinct rows, to
the counters at once: arithmetically ``SketchInstance.update_item`` per item
per cell, and ``instance_view`` materializes any cell as one.  A run is
walked in slabs of cells that fit in ``_WORKING_ENTRIES`` (4 MiB).  Per slab
``hashing.derive_coefficients_batch`` derives the hash words (no other
operation on a bank derives them) and ``batch_sign_eval`` fills each
dimension's int8 signs at the run's distinct symbols.  t1 = sum_x f(x)
prod_d h_d(x_d) factorises over dimensions: a run whose symbol grid is at
most ``_DENSE_GRID`` times its support is contracted as a dense histogram, a
sparser one row by row, both exactly (``_add_rows``).
Ingestion is single-writer; estimation is read-only.

Finalize uses the same rule as ``SketchInstance.finalize``
(``sketch.finalize_values``), ``SLAB_ENTRIES`` cells at a time: U
is computed with int64 arrays while m^k < 2^62 and with Python ints past
that, and every cell's Y is the correctly rounded float of (U/m^k)^2.

Snapshot format (version 1, little-endian):

    magic  b"PSKBANK1"
    header <6qQq>: version=1, k, n, width, s1, s2, master_seed (unsigned
           64-bit), mode (always 0; other values are refused)
    body   s2*s1 cell records, row-major (group, index), each <q>-packed:
           t1, marginal_sums[0..k-1], m

Round-trips are bit-exact; hash seeds are re-derived from master_seed.
``save`` writes the header and then the body slab by slab; ``load`` checks
the file's size against the header, then reads and checks it slab by slab.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .field import FieldSpec
from .hashing import (
    MAX_GROUP,
    MAX_INDEX,
    batch_sign_eval,
    derive_coefficients_batch,
    symbol_words,
)
from .sketch import EmptyStreamError, SketchConfig, SketchInstance, finalize_values
from .streamfile import row_runs, tuple_blocks

_MAGIC = b"PSKBANK1"
_HEADER = struct.Struct("<6qQq")
_SNAPSHOT_VERSION = 1

# Entries of one cache-sized slab (512 KiB of int64 or float64) of finalize
# and of the snapshot body.
SLAB_ENTRIES = 1 << 16
# An ingest run ends once its merged support passes _CHUNK_ITEMS rows.
_CHUNK_ITEMS = 8192
# Cap on the bytes of one cell slab of an ingest run, 4 MiB: a cell's int8
# signs, float64 entries and derived hash coefficients (see _add_rows).
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
    """A bank's state, cells*(k+1) counters, and its cells*k*ceil(4w/64) hash
    words, which ingest derives a cell slab at a time and never holds."""

    counters: int
    seeds: int

    @classmethod
    def of(cls, shape: BankShape, k: int, width: int) -> "StateSize":
        return cls(counters=shape.cells * (k + 1), seeds=shape.cells * k * -(-4 * width // 64))


def derive_shape(
    params: AccuracyParams, k: int, *, paper_constants: bool = False
) -> BankShape:
    """Grid shape meeting the (1 +- eps, delta) guarantee for k dimensions.

    The ceilings are evaluated in exact integer arithmetic (s1, as c * q^2 / p^2
    for eps = p / q) and with a 1e-12 slack (s2) so boundary cases like
    delta = e^-2 -> s2 = 4 do not depend on libm rounding.
    """
    c = 72 if paper_constants and k == 2 else 8 * (3**k - 1)
    p, q = params.epsilon.as_integer_ratio()
    s1 = -(-c * q * q // (p * p))
    s2 = max(1, math.ceil(2.0 * math.log(1.0 / params.delta) - 1e-12))
    return BankShape(s1=s1, s2=s2)


def _median_lower(values: np.ndarray) -> float:
    """Median with the documented tie rule: lower-middle order statistic."""
    ordered = np.sort(values)
    return float(ordered[(len(ordered) - 1) // 2])


def _kron_rows(matrices: list[np.ndarray], cells: int) -> np.ndarray:
    """Kronecker product, cell by cell, of (g_d, cells) int8 sign matrices: (prod g_d, cells)."""
    out = np.ones((1, cells), dtype=np.int8)
    for matrix in matrices:
        out = np.einsum("ij,kj->ikj", out, matrix).reshape(-1, cells)
    return out


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
        if (params is None) == (shape is None):
            raise ValueError("provide exactly one of params and an explicit shape")
        shape = shape or derive_shape(params, config.k)
        self.config = config
        self.shape = shape
        self.master_seed = master_seed & ((1 << 64) - 1)
        self._counts = np.zeros((shape.cells, config.k + 1), dtype=np.int64)
        self._m = 0

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
        k, spec = self.config.k, self.config.spec
        syms, idx = zip(*(np.unique(column, return_inverse=True) for column in rows.T))
        masks = [symbol_words(s, spec) for s in syms]
        weights = counts.astype(np.float64)
        tallies = [np.bincount(inverse, weights) for inverse in idx]
        grid = [len(s) for s in syms]
        size, hist = math.prod(grid), None
        int8s, floats = sum(grid), len(rows)  # the row path's (cell, row) products
        if size <= _DENSE_GRID * len(rows):
            # t1 = sum_x f(x) prod_d h_d(x_d) factorises over dimensions: with
            # the dense histogram as a (G_A, G_B) matrix H split after
            # dimension j, t1 = K_A H K_B, K_A and K_B being the Kronecker
            # products of the cell's sign rows before and after j.  A cell
            # holds K_A and K_B, K_A widened to float64 and K_A H; the G_A +
            # 2 G_B floats counted for them are fewest at j.
            j = min(range(1, k + 1), key=lambda d: math.prod(grid[:d]) + 2 * math.prod(grid[d:]))
            hist = np.bincount(np.ravel_multi_index(idx, grid), weights, size)
            hist = hist.reshape(math.prod(grid[:j]), -1)
            int8s += sum(hist.shape)
            floats = hist.shape[0] + 2 * hist.shape[1]
        # A cell's bytes: its int8 signs, its float64 entries, and the 4k
        # uint64 coefficients it derives beside a mixing temporary of their size.
        # The row path holds 2 bytes of the 8 counted a (cell, row).
        slab = max(1, _WORKING_ENTRIES // (int8s + 8 * (floats + 8 * k)))
        # Every partial sum is bounded by the run's item total, below 2^53
        # (``streamfile.row_runs``): the products are exact in any order.  A
        # run's buffers, reused by each slab (new ones would fault in anew),
        # hold the (symbol, cell) signs and the (cell, symbol) scratch that
        # evaluates them with its AND loops along the symbols.
        cells, s1 = self.shape.cells, self.shape.s1
        most = min(slab, cells)
        held = [np.empty((g, most), np.int8) for g in grid]
        scratch = np.empty((most, max(grid)), np.int8)
        for lo in range(0, cells, slab):
            hi = min(lo + slab, cells)
            words = derive_coefficients_batch(self.master_seed, lo, hi, s1, k, spec)
            signs = [buf[:, : hi - lo] for buf in held]
            for dim, (m, tally) in enumerate(zip(masks, tallies)):
                matrix = batch_sign_eval(words[:, dim], m, out=scratch[: hi - lo, : len(m)])
                self._counts[lo:hi, 1 + dim] += np.einsum("ij,j->i", matrix, tally).astype(np.int64)
                np.copyto(signs[dim], matrix.T)
            if hist is None:
                # A row's signs are whole rows of the matrices; take writes to
                # ``out`` in place only in "clip" mode (no index is out of range).
                if lo == 0:  # once the first slab's signs have freed their AND buffer
                    prod, into = np.empty((2, len(rows), most), np.int8)
                part, gathered = prod[:, : hi - lo], into[:, : hi - lo]
                part[...] = 1
                for matrix, inverse in zip(signs, idx):
                    part *= np.take(matrix, inverse, axis=0, out=gathered, mode="clip")
                part = np.einsum("ij,i->j", part, weights)
            else:
                kron_a, kron_b = _kron_rows(signs[:j], hi - lo), _kron_rows(signs[j:], hi - lo)
                part = np.einsum("ij,ij->j", hist.T @ kron_a, kron_b)
            self._counts[lo:hi, 0] += part.astype(np.int64)
        self._m += int(counts.sum())

    # -- estimation ---------------------------------------------------------

    @property
    def item_count(self) -> int:
        return self._m

    def instance_values(self) -> np.ndarray:
        """Per-instance Y as float64, shape (s2, s1).

        Each value is ``finalize_values`` of the cell's U, bit-identical to
        ``SketchInstance.finalize`` on the same cell.  U is computed in int64
        while m^k < 2^62 and in Python ints past that, ``SLAB_ENTRIES`` cells
        at a time.
        """
        if self._m == 0:
            raise EmptyStreamError("cannot estimate from an empty stream")
        k, m = self.config.k, self._m
        dtype = np.int64 if m**k < 1 << 62 else object  # |U| <= 2 m^k
        y = np.empty(self.shape.cells, dtype=np.float64)
        for lo in range(0, len(y), SLAB_ENTRIES):
            sl = slice(lo, lo + SLAB_ENTRIES)
            counts = self._counts[sl].astype(dtype, copy=False)
            y[sl] = finalize_values(counts[:, 0] * m ** (k - 1) - counts[:, 1:].prod(axis=1), m, k)
        return y.reshape(self.shape.s2, self.shape.s1)

    def estimate(self) -> Estimate:
        """Median over groups of the mean instance value within each group."""
        groups = self.instance_values().mean(axis=1)
        med = _median_lower(groups)
        return Estimate(l2_squared=med, l2=math.sqrt(med))

    def state_size(self) -> StateSize:
        return StateSize.of(self.shape, self.config.k, self.config.spec.width)

    # -- inspection & merging ----------------------------------------------

    def instance_view(self, group: int, index: int) -> SketchInstance:
        """Materialize one cell as a scalar SketchInstance (copied counters)."""
        if not (0 <= group < self.shape.s2 and 0 <= index < self.shape.s1):
            raise IndexError("cell outside bank shape")
        inst = SketchInstance.from_master_seed(
            self.config, self.master_seed, group=group, index=index
        )
        inst.t1, *inst.marginal_sums = self._counts[group * self.shape.s1 + index].tolist()
        inst.m = self._m
        return inst

    def counters_equal(self, other: "EstimatorBank") -> bool:
        return self._m == other._m and np.array_equal(self._counts, other._counts)

    # -- snapshots -----------------------------------------------------------

    def _snapshot_parts(self):
        """Magic and header, then the body in slabs of about ``SLAB_ENTRIES`` words."""
        if self.config.n >= 1 << 63:
            raise ValueError("snapshot v1 stores n as int64; alphabet size too large")
        yield _MAGIC + _HEADER.pack(
            _SNAPSHOT_VERSION,
            self.config.k,
            self.config.n,
            self.config.spec.width,
            self.shape.s1,
            self.shape.s2,
            self.master_seed,
            0,
        )
        step = max(1, SLAB_ENTRIES // (self.config.k + 2))
        for lo in range(0, self.shape.cells, step):
            counts = self._counts[lo : lo + step]
            body = np.empty((len(counts), self.config.k + 2), dtype="<i8")
            body[:, :-1] = counts
            body[:, -1] = self._m
            yield body

    def snapshot_bytes(self) -> bytes:
        return b"".join(self._snapshot_parts())

    def save(self, path) -> None:
        """Write the snapshot slab by slab, without building it in memory."""
        parts = self._snapshot_parts()
        head = next(parts)  # refuses an unsupported bank before the file is opened
        with open(path, "wb") as fp:
            fp.write(head)
            for body in parts:
                fp.write(body)

    @classmethod
    def from_snapshot_bytes(cls, data: bytes) -> "EstimatorBank":
        return cls._read(io.BytesIO(data), len(data))

    @classmethod
    def load(cls, path) -> "EstimatorBank":
        with open(path, "rb") as fp:
            return cls._read(fp, os.fstat(fp.fileno()).st_size)

    @classmethod
    def _read(cls, fp, size: int) -> "EstimatorBank":
        """The bank of the ``size``-byte snapshot in ``fp``, checked and read a slab at a time."""
        head = fp.read(len(_MAGIC) + _HEADER.size)
        if head[: len(_MAGIC)] != _MAGIC:
            raise ValueError("not a bank snapshot (bad magic)")
        if len(head) < len(_MAGIC) + _HEADER.size:
            raise ValueError("snapshot truncated inside its header")
        version, k, n, width, s1, s2, master_seed, mode = _HEADER.unpack_from(head, len(_MAGIC))
        if version != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        if mode != 0:
            raise ValueError(f"unsupported snapshot mode {mode}")
        cells = s1 * s2
        if size != len(head) + 8 * cells * (k + 2):
            raise ValueError("snapshot body length does not match header")
        bank = cls(
            SketchConfig(k=k, n=n, spec=FieldSpec(width)),
            shape=BankShape(s1=s1, s2=s2),
            master_seed=master_seed,
        )
        buf = np.empty((min(max(1, SLAB_ENTRIES // (k + 2)), cells), k + 2), dtype="<i8")
        for lo in range(0, cells, len(buf)):
            slab = buf[: cells - lo]
            if fp.readinto(slab) != slab.nbytes:  # the file shrank since its size was read
                raise ValueError("snapshot body length does not match header")
            m = int(slab[0, -1]) if lo == 0 else m
            if (slab[:, -1] != m).any():
                raise ValueError("snapshot cells disagree on the item count")
            # Each counter sums m signs: it lies in [-m, m] and has m's parity,
            # as all do iff their AND (m odd) or OR (m even) does.  Reductions
            # over the whole slab (m's own column passes) need no temporaries.
            parity = (np.bitwise_and if m & 1 else np.bitwise_or).reduce(slab, axis=None)
            if m < 0 or slab.min() < -m or slab.max() > m or parity & 1 != m & 1:
                raise ValueError("snapshot counters are not sums of m signs")
            bank._counts[lo : lo + len(slab)] = slab[:, :-1]
        bank._m = m
        return bank


def merge_banks(a: EstimatorBank, b: EstimatorBank) -> EstimatorBank:
    """Cell-wise counter sum; equals ingesting the concatenated stream."""
    if a.config != b.config or a.shape != b.shape or a.master_seed != b.master_seed:
        raise ValueError("banks differ in configuration, shape or master seed")
    out = EstimatorBank(a.config, shape=a.shape, master_seed=a.master_seed)
    np.add(a._counts, b._counts, out=out._counts)
    out._m = a._m + b._m
    return out
