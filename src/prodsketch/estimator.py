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
walked in slabs of cells that fit in ``_WORKING_ENTRIES`` (4 MiB) beside the
run's tables.  Per slab ``hashing.derive_coefficients_batch`` derives the
hash words (no other operation on a bank derives them).  A sign is the
parity of a hash word and a symbol's masks, so a cell's signs over a
dimension's distinct symbols pack into a code, the XOR of one byte-table
lookup per byte of its word (``hashing.sign_codes``).  A run whose symbol
grid is at most ``_DENSE_GRID`` times its support is dense: its codes index
tables of the marginal sums and of the histogram contracted over the sign
patterns of the first dimensions, the Method of Four Russians (``_DenseRun``).
A sparser run is contracted row by row over int8 signs (``_RowRun``).  Both
are exact.  Ingestion is single-writer; estimation is read-only.

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
    BYTE_SIGNS,
    MAX_GROUP,
    MAX_INDEX,
    batch_sign_eval,
    code_signs,
    derive_coefficients_batch,
    sign_codes,
    sign_tables,
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
# Cap on the bytes of an ingest run's tables and one slab of its cells, 4 MiB
# (``EstimatorBank._run`` counts them).
_WORKING_ENTRIES = 1 << 22
# A run whose symbol grid (the product over dimensions of its distinct
# symbol counts) has at most _DENSE_GRID cells per distinct row is
# contracted as a dense histogram instead of row by row.
_DENSE_GRID = 4
# Cap on the bytes of a dense run's pattern and tail tables, a third of the working set.
_TABLE_BYTES = _WORKING_ENTRIES // 3


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


def _pattern_sums(t: np.ndarray) -> np.ndarray:
    """(..., g, n) -> (..., 2^g, n): row p sums t's rows x times (-1)^(bit x of p).

    Up to 8 rows by ``BYTE_SIGNS``; past that, row p is row p mod 256 of the
    first 8 rows' sums plus row p >> 8 of the rest's.  It holds little more
    than its result.
    """
    g = t.shape[-2]
    if g <= 8:
        return BYTE_SIGNS[: 1 << g, :g] @ t
    low, high = _pattern_sums(t[..., :8, :]), _pattern_sums(t[..., 8:, :])
    return (high[..., :, None, :] + low[..., None, :, :]).reshape(t.shape[:-2] + (1 << g, t.shape[-1]))


def _kron_rows(matrices: list[np.ndarray], cells: int) -> np.ndarray:
    """Kronecker product, cell by cell, of (cells, g_d) int8 sign rows: (cells, prod g_d)."""
    out = np.ones((cells, 1), dtype=np.int8)
    for matrix in matrices:
        out = np.einsum("ci,cj->cij", out, matrix).reshape(cells, -1)
    return out


def _dense_plan(grid: list[int]) -> tuple[int, int] | None:
    """How a dense run's tables split (``_DenseRun``): the (j, c) within
    ``_TABLE_BYTES`` that gathers the fewest entries a cell, or None (the
    split product) where that is a quarter of the grid or more."""
    best, cost = None, math.prod(grid) // 4
    for j in range(1, len(grid) + 1):
        width = math.prod(grid[j:])
        for c in (1, 2, 4, 8):
            chunks = -(-grid[0] // c)
            size = (4 * chunks << c + sum(grid[1:j])) * width + (width << sum(grid[j:]))
            if size <= _TABLE_BYTES and (chunks + 1) * width < cost:
                best, cost = (j, c), (chunks + 1) * width
    return best


class _DenseRun:
    """A dense run, read from tables by each cell's codes (Four Russians).

    Dimension d's code packs a cell's parities over its g_d symbols
    (``hashing.sign_codes``); its marginal sum adds, over the code's bytes b,
    M[b][v] = sum_x tally_d(x) (-1)^(bit x of v).  A pattern table row is
    indexed by a c-bit chunk of dimension 0's code and the codes of
    dimensions 1 .. j-1, and holds the histogram contracted over them:
    ceil(g_0/c) tables of 2^(c + g_1 + ... + g_(j-1)) rows of g_j ... g_(k-1)
    int32 entries.  t1 is the sum of the cell's rows dotted with its tail
    sign row, the Kronecker product of its signs from dimension j on, read
    from a table by their joint code.  A run too wide for tables takes the
    split product: with the histogram as a (G_A, G_B) matrix H split after
    dimension j, t1 = K_A H K_B, K_A and K_B the Kronecker products of the
    cell's sign rows before and after j.
    """

    def __init__(self, grid, masks, tallies, hist, total):
        self.grid, self.plan = grid, _dense_plan(grid)
        self.tables = [sign_tables(m) for m in masks]
        padded = [np.append(t, np.zeros(-len(t) % 8)).reshape(-1, 8, 1) for t in tallies]
        self.marg = [_pattern_sums(p)[..., 0].astype(np.int64) for p in padded]
        self.fixed = sum(t.nbytes + 8 * t[0].size for t in self.tables)
        self.cell = sum(9 * t.shape[2] for t in self.tables)  # a cell's codes and a marginal lookup
        if self.plan is None:
            # A cell holds its sign rows, K_A and K_B, K_A widened to float64
            # for BLAS, and K_A H: G_A + G_B is fewest at j.
            split = range(1, len(grid) + 1)
            self.j = min(split, key=lambda d: math.prod(grid[:d]) + math.prod(grid[d:]))
            self.pattern = hist.reshape(math.prod(grid[: self.j]), -1)
            self.cell += 9 * sum(self.pattern.shape) + sum(8 * t.shape[2] for t in self.tables)
        else:
            self.j, c = self.plan
            chunks, width = -(-grid[0] // c), math.prod(grid[self.j :])
            pattern = np.zeros((chunks * c, hist.size // grid[0]))
            pattern[: grid[0]] = hist.reshape(grid[0], -1)
            pattern = pattern.reshape(chunks, c, -1)
            for g in grid[1 : self.j]:
                pattern = _pattern_sums(pattern).reshape(-1, g, pattern.shape[-1] // g)
            pattern = _pattern_sums(pattern)
            # Entries and partial sums are bounded by the run's item total.
            self.pattern = pattern.reshape(-1, width).astype(np.int32 if total < 1 << 31 else np.int64)
            self.tail = np.eye(width, dtype=np.int8).reshape(1, -1)  # sign rows, a dimension at a time
            for g in grid[self.j :]:
                self.tail = _pattern_sums(self.tail.reshape(-1, g, self.tail.shape[-1] // g))
            self.tail = self.tail.reshape(-1, width)
            # Chunk i's first row for each value of its byte of dimension 0's code.
            bits, i = c + sum(grid[1 : self.j]), np.arange(chunks)[:, None]
            chunk = np.arange(256) >> c * (i % (8 // c)) & (1 << c) - 1
            self.chunk_rows = chunk << bits - c | i << bits
            self.fixed += self.tail.nbytes + self.chunk_rows.nbytes
            # Its joint code, its chunks' row indexes and rows, and its tail sign row.
            self.cell += 8 * (1 + chunks) + self.pattern.itemsize * chunks * width + width
        self.fixed += self.pattern.nbytes

    def allocate(self, most):
        if self.plan:
            self.index = np.empty((len(self.chunk_rows), most), np.intp)
            shape = (len(self.chunk_rows), most, self.pattern.shape[1])
            self.gathered = np.empty(shape, self.pattern.dtype)

    def add(self, words, counts):
        cells, grid, j = len(words), self.grid, self.j
        codes = [sign_codes(words[:, d], t) for d, t in enumerate(self.tables)]
        for d, (code, marg) in enumerate(zip(codes, self.marg)):
            for b, table in enumerate(marg):
                counts[:, 1 + d] += np.take(table, code[:, b])
        if self.plan is None:
            signs = [code_signs(code)[:, :g] for code, g in zip(codes, grid)]
            part = _kron_rows(signs[:j], cells).astype(np.float64) @ self.pattern
            counts[:, 0] += np.einsum("ij,ij->i", part, _kron_rows(signs[j:], cells)).astype(np.int64)
            return
        joint, shift = np.zeros(cells, np.intp), sum(grid[1:])  # dimensions 1 .. k-1, the last lowest
        for d in range(1, len(grid)):
            shift -= grid[d]
            for b in range(codes[d].shape[1]):
                joint += np.left_shift(codes[d][:, b], shift + 8 * b, dtype=np.intp)
        index, c, tail = self.index[:, :cells], self.plan[1], sum(grid[j:])
        for i, rows in enumerate(self.chunk_rows):
            np.take(rows, codes[0][:, i // (8 // c)], out=index[i])
        index += joint >> tail
        gathered = np.take(self.pattern, index, axis=0, out=self.gathered[:, :cells], mode="clip")
        for rows in gathered[1:]:
            gathered[0] += rows
        joint &= (1 << tail) - 1
        counts[:, 0] += np.einsum("ci,ci->c", gathered[0], np.take(self.tail, joint, axis=0))


class _RowRun:
    """A sparse run, contracted row by row over its cells' int8 signs.

    A slab's (symbol, cell) signs are ``batch_sign_eval(masks, words)``, by
    tables of its hash words, or where far fewer symbols than cells make it
    cheaper, ``batch_sign_eval(words, masks)`` transposed.  A cell holds its
    signs, their tables and 8 bytes a row: 2 its product, 6 a margin for
    sign codes and run arrays (fixed is 0).
    """

    def __init__(self, grid, masks, tallies, idx, weights, width):
        self.masks, self.tallies, self.idx, self.weights = masks, tallies, idx, weights
        self.table = 32 * -(-width // 2)  # table bytes a word or symbol adds: 256 a seed byte / 8
        self.fixed, self.cell = 0, sum(grid) + 8 * len(weights) + self.table + 8

    def allocate(self, most):
        self.held = [np.empty((len(m), -(-most // 8), 8), np.int8) for m in self.masks]
        self.prod, self.into = np.empty((2, len(self.weights), most), np.int8)

    def add(self, words, counts):
        cells, signs = len(words), []
        for d, (m, held) in enumerate(zip(self.masks, self.held)):
            held = held[:, : -(-cells // 8)]
            # Tables from the symbols cost 256 + cells lookups a symbol byte and
            # a transposing copy; from the words, 256 + symbols a cell byte.
            if len(m) * (cells + self.table) < self.table * cells:
                held = held.reshape(len(m), -1)[:, :cells]
                held[...] = batch_sign_eval(words[:, d], m).T
                signs.append(held)
            else:
                signs.append(batch_sign_eval(m, words[:, d], out=held))
        for d, (matrix, tally) in enumerate(zip(signs, self.tallies)):
            counts[:, 1 + d] += np.einsum("ij,i->j", matrix, tally).astype(np.int64)
        # A row's signs are whole rows of the matrices; take writes to ``out``
        # in place only in "clip" mode (no index is out of range).
        part, gathered = self.prod[:, :cells], self.into[:, :cells]
        part[...] = 1
        for matrix, inverse in zip(signs, self.idx):
            part *= np.take(matrix, inverse, axis=0, out=gathered, mode="clip")
        counts[:, 0] += np.einsum("ij,i->j", part, self.weights).astype(np.int64)


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

    def _run(self, rows: np.ndarray, counts: np.ndarray):
        """The run of distinct (rows, k) uint64 rows, each ``counts`` times:
        dense or row by row, with its ``fixed`` bytes and bytes a ``cell``."""
        k, spec = self.config.k, self.config.spec
        syms, idx = zip(*(np.unique(column, return_inverse=True) for column in rows.T))
        grid = [len(s) for s in syms]
        masks = np.split(symbol_words(np.concatenate(syms), spec), np.cumsum(grid[:-1]))
        weights = counts.astype(np.float64)
        tallies = [np.bincount(inverse, weights) for inverse in idx]
        if math.prod(grid) <= _DENSE_GRID * len(rows):
            hist = np.bincount(np.ravel_multi_index(idx, grid), weights, math.prod(grid))
            run = _DenseRun(grid, masks, tallies, hist, int(counts.sum()))
        else:
            run = _RowRun(grid, masks, tallies, idx, weights, spec.width)
        # Deriving takes 12 words a dimension at most (w = 64): 4 coefficients,
        # their mixing temporary and the packed words.
        run.cell += 96 * k
        return run

    def _add_rows(self, rows: np.ndarray, counts: np.ndarray) -> None:
        """Add distinct (rows, k) uint64 rows, each ``counts`` times, to every cell.

        Every partial sum is bounded by the run's item total, below 2^53
        (``streamfile.row_runs``): the float64 ones are exact in any order.
        The run's buffers are made once and reused by each slab (new ones
        would fault in anew).
        """
        run, k, spec = self._run(rows, counts), self.config.k, self.config.spec
        cells, s1 = self.shape.cells, self.shape.s1
        slab = max(1, (_WORKING_ENTRIES - run.fixed) // run.cell)
        coefs = np.empty((min(slab, cells), k, 4), np.uint64)
        run.allocate(len(coefs))
        for lo in range(0, cells, slab):
            hi = min(lo + slab, cells)
            words = derive_coefficients_batch(self.master_seed, lo, hi, s1, k, spec, out=coefs[: hi - lo])
            run.add(words, self._counts[lo:hi])
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
