"""Exactly 4-wise independent sign hashes from cubic polynomials over GF(2^w).

A hash is a degree-at-most-3 polynomial ``p(x) = c3 x^3 + c2 x^2 + c1 x + c0``
over GF(2^w), evaluated at the input symbol injected as a field element, with
output sign ``+1`` when the low bit of ``p(x)`` is 0 and ``-1`` otherwise.
For any four distinct evaluation points the coefficient-to-values map is a
bijection (polynomial interpolation), so the four output words are jointly
uniform and each of the 16 sign patterns is hit by exactly a 1/16 fraction
of seeds.  Independence is exact, not approximate, which is what lets the
oracle verify moment bounds with zero tolerance by enumerating seeds.

Evaluation.  ``SignHash.__call__`` is the scalar reference (Horner's rule).
The vectorised path rests on the low bit of ``c * y`` being GF(2)-linear in
``c``: it equals ``parity(c & L(y))``, where bit ``i`` of the w-bit mask
``L(y)`` is the low bit of ``x^i * y``, so

    h(y) = (-1)^(c0 ^ par(c1 & L(y)) ^ par(c2 & L(y^2)) ^ par(c3 & L(y^3)))

in GF(2)[x]/(f) for any f of degree w.  Both sides are packed the same way
into ceil(4w/64) uint64 words (one word for w <= 16): a hash as its
coefficients (``pack_words``), the limbs of its seed, and a symbol as its
masks ``(1, L(y), L(y^2), L(y^3))`` (``symbol_words``): squaring and ``L``
are GF(2)-linear too, each the XOR of ceil(w/8) 256-entry table lookups
(cached per polynomial), and y^3 = y^2 * y is one ``field_mul_vec``.
A sign is then the parity of a hash word and a symbol's masks, linear in
each, so a hash's signs over g symbols pack into a code, the XOR of one
256-entry table lookup per byte of its word (``sign_tables``,
``sign_codes``), with no field multiplication; ``batch_sign_eval``
unpacks the codes to int8 signs.

Seed derivation is counter-mode SplitMix64.  Coefficient ``c`` of dimension
``dim`` of the hash tuple for bank cell ``(group, index)`` uses the counter

    ((group << 32 | index) << 10) | (dim << 2) | c

so counters never collide for ``group < 2^22``, ``index < 2^32``,
``dim < 256`` and seeds of an instance do not depend on the bank shape
(growing a bank never re-seeds existing cells).  Module-level hash tuples
are cell ``(0, 0)``.  ``derive_coefficients_batch`` derives the packed
words of a range of cells at once: each cell's words are the limbs of its
``derive_hashes`` seeds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .field import FieldSpec, field_mul, field_mul_vec
from .rng import MAX_DIMS, word_at, words_at

MAX_GROUP = 1 << 22
MAX_INDEX = 1 << 32
# Row v holds the signs that code byte v packs: (-1)^(bit x), bit 0 first.
BYTE_SIGNS = 1 - 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                                   bitorder="little").astype(np.int8)
# Codes a ``np.take`` in :func:`code_signs` unpacks: its intp index copy is
# 8 bytes a code, so this bounds that copy at 64 KiB.
_TAKE_CODES = 8192


@dataclass(frozen=True)
class SignHash:
    """One member of the family: a seeded cubic over ``spec`` on domain [0, n).

    ``seed`` is the 4w-bit string ``c0 | c1 << w | c2 << 2w | c3 << 3w``,
    the integer of the hash's :func:`pack_words` limbs, little-endian.
    """

    spec: FieldSpec
    seed: int
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.n <= self.spec.order):
            raise ValueError(
                f"domain size {self.n} exceeds field order 2^{self.spec.width}"
            )
        if not (0 <= self.seed < 1 << 4 * self.spec.width):
            raise ValueError("seed outside the family")

    def __call__(self, x: int) -> int:
        """Sign at symbol ``x``; Horner evaluation, then the low bit."""
        if not (0 <= x < self.n):
            raise ValueError(f"symbol {x} outside hash domain [0, {self.n})")
        seed, spec = self.seed, self.spec
        w = spec.width
        mask = (1 << w) - 1
        p = field_mul(seed >> 3 * w, x, spec) ^ (seed >> 2 * w & mask)
        p = field_mul(p, x, spec) ^ (seed >> w & mask)
        p = field_mul(p, x, spec) ^ seed  # only the low bit is read
        return 1 - 2 * (p & 1)


def coefficient_counter(group: int, index: int, dim: int, coef: int) -> int:
    """Derivation counter for one coefficient; injective within the caps."""
    if not (0 <= group < MAX_GROUP and 0 <= index < MAX_INDEX):
        raise ValueError("bank cell outside derivable range")
    if not (0 <= dim < MAX_DIMS and 0 <= coef < 4):
        raise ValueError("dimension or coefficient index out of range")
    return (((group << 32) | index) << 10) | (dim << 2) | coef


def derive_hashes(
    master_seed: int,
    k: int,
    spec: FieldSpec,
    n: int | None = None,
    *,
    group: int = 0,
    index: int = 0,
) -> tuple[SignHash, ...]:
    """The k mutually independent hashes for one bank cell.

    Each coefficient is the low w bits of its counter-mode word, hence an
    independent uniform field element; the derivation is reproducible from
    (master_seed, group, index) alone.
    """
    if k < 1 or k > MAX_DIMS:
        raise ValueError(f"k must be in [1, {MAX_DIMS}]")
    if n is None:
        n = spec.order
    mask = spec.mask
    out = []
    for dim in range(k):
        seed = sum(
            (word_at(master_seed, coefficient_counter(group, index, dim, c)) & mask)
            << c * spec.width
            for c in range(4)
        )
        out.append(SignHash(spec, seed, n))
    return tuple(out)


# ---------------------------------------------------------------------------
# Bulk paths (numpy), bit-identical to the scalar ones above.
# ---------------------------------------------------------------------------

def derive_coefficients_batch(
    master_seed: int, lo: int, hi: int, indexes: int, k: int, spec: FieldSpec, out=None
) -> np.ndarray:
    """Packed hash words (hi - lo, k, ceil(4w/64)) of bank cells [lo, hi).

    Cells are row-major by (group, index), ``indexes`` to a group; each
    cell's words are the limbs of its :func:`derive_hashes` seeds.  The
    coefficients are mixed and packed in ``out``, a uint64 (hi - lo, k, 4)
    array, if given, and the words are a view of it.
    """
    coefs = np.empty((hi - lo, k, 4), np.uint64) if out is None else out
    # Cell lo + t of group g: (g << 32 | index) << 10 = (lo + t + g (2^32 - indexes)) << 10.
    cell = np.arange(lo, hi, dtype=np.uint64)
    cell += cell // np.uint64(indexes) * np.uint64((1 << 32) - indexes)
    cell <<= np.uint64(10)
    np.bitwise_or(cell[:, None, None], np.arange(4 * k, dtype=np.uint64).reshape(k, 4), out=coefs)
    return pack_words(words_at(master_seed, coefs, out=coefs), spec.width, out=coefs)


def pack_words(fields: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Pack the four fields of the last axis, each cut to w bits, into ceil(4w/64) uint64 words.

    The first field takes the lowest bits.  Every supported width divides 64,
    so no field straddles two words.  For w <= 16 the one word of coefficients
    (c0, c1, c2, c3) is the seed ``c0 | c1 << w | c2 << 2w | c3 << 3w``.  The
    fields are cut in ``out``, an array of their shape (it may be ``fields``),
    if given; each word is then the sum of its fields times their powers of 2.
    """
    fields = np.asarray(fields, dtype=np.uint64)
    cut = np.bitwise_and(fields, np.uint64((1 << width) - 1), out=out)
    words = -(-4 * width // 64)
    powers = np.uint64(1) << np.arange(0, 64, width, dtype=np.uint64)[: 4 // words]
    return cut.reshape(fields.shape[:-1] + (words, len(powers))) @ powers


def symbol_words(xs: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Packed masks ``(1, L(y), L(y^2), L(y^3))`` of 1-D ``xs``, shape (len(xs), ceil(4w/64)):
    y^2 and ``L`` by byte tables (:func:`_linear_tables`), y^3 = y^2 * y by one product."""
    square, low = _linear_tables(spec.width, spec.reduction_polynomial)
    xs = np.asarray(xs, dtype=np.uint64)
    y2 = _apply_linear(square, xs)
    fields = np.ones((len(xs), 4), np.uint64)
    fields[:, 1] = _apply_linear(low, xs)
    fields[:, 2] = _apply_linear(low, y2)
    fields[:, 3] = _apply_linear(low, field_mul_vec(y2, xs, spec))
    return pack_words(fields, spec.width, out=fields)


@functools.cache
def _linear_tables(width: int, poly: int) -> np.ndarray:
    """Byte tables (2, ceil(w/8), 256) uint64 of squaring and of ``L`` in GF(2)[x]/(poly).

    Both maps are GF(2)-linear, so entry [m, b, v] is the XOR of map m's
    images of the basis elements x^(8b + j) for the bits j of v: the square
    of x^j is x^(2j) mod poly, and bit i of ``L(x^j)`` is the low bit of
    x^(i + j) mod poly.
    """
    powers = [1]  # x^t mod poly for t < 2w
    for _ in range(2 * width - 1):
        p = powers[-1] << 1
        powers.append(p ^ poly if p >> width else p)
    lows = sum((p & 1) << t for t, p in enumerate(powers))
    images = np.zeros((2, -(-width // 8) * 8), np.uint64)
    images[0, :width] = powers[::2]
    images[1, :width] = [lows >> j & (1 << width) - 1 for j in range(width)]
    rows = images.reshape(2, -1, 8)
    tables = np.zeros(rows.shape[:2] + (256,), np.uint64)
    for j in range(8):
        np.bitwise_xor(tables[..., : 1 << j], rows[..., j, None], out=tables[..., 1 << j : 2 << j])
    tables.flags.writeable = False
    return tables


def _apply_linear(tables: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The linear map of :func:`_linear_tables`' ``tables`` (one map) at each of uint64 ``ys``."""
    raw = np.ascontiguousarray(ys, dtype="<u8").view(np.uint8).reshape(ys.shape + (8,))
    out = np.take(tables[0], raw[..., 0])
    for b in range(1, len(tables)):
        out ^= np.take(tables[b], raw[..., b])
    return out


def sign_tables(masks: np.ndarray) -> np.ndarray:
    """Byte tables of packed parity codes over ``masks``: (bytes, 256, ceil(len(masks)/8)) uint8.

    Bit x (little-endian) of entry [b, v] is the parity of ``v << 8b & masks[x]``;
    ``bytes`` runs to the last byte any mask sets.  Each table is XOR-doubled
    from the codes of its byte's eight single bits.
    """
    raw = masks.astype("<u8", copy=False).view(np.uint8).reshape(len(masks), -1)
    used = np.flatnonzero(raw.any(axis=0))
    raw = raw[:, : used[-1] + 1 if len(used) else 1]
    bits = np.packbits(np.unpackbits(raw, axis=1, bitorder="little"), axis=0, bitorder="little")
    rows = bits.T.reshape(raw.shape[1], 8, -1)  # [b, j]: the code of seed bit 8b + j
    tables = np.zeros((len(rows), 256, rows.shape[2]), np.uint8)
    for j in range(8):
        np.bitwise_xor(tables[:, : 1 << j], rows[:, j, None], out=tables[:, 1 << j : 2 << j])
    return tables


def sign_codes(words: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Packed parity codes (len(words), tables.shape[2]) uint8 of 2-D ``words`` over
    :func:`sign_tables`' masks: the XOR of each word's byte lookups."""
    seeds = words.astype("<u8", copy=False).view(np.uint8).reshape(len(words), -1)
    codes = np.take(tables[0], seeds[:, 0], axis=0)
    for b in range(1, len(tables)):
        codes ^= np.take(tables[b], seeds[:, b], axis=0)
    return codes


def code_signs(codes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The int8 signs (len(codes), 8 * codes.shape[1]) that 2-D uint8 codes
    pack, bit 0 first: each byte's row of ``BYTE_SIGNS``, written to ``out``,
    a (len(codes), codes.shape[1], 8) array, if given.  ``np.take`` copies
    its indices as intp, whole rows of at most ``_TAKE_CODES`` codes at a
    time here (one row where a row is longer)."""
    out = np.empty(codes.shape + (8,), np.int8) if out is None else out
    step = max(1, _TAKE_CODES // codes.shape[1])
    for lo in range(0, len(codes), step):
        np.take(BYTE_SIGNS, codes[lo : lo + step], axis=0, out=out[lo : lo + step], mode="clip")
    return out.reshape(len(codes), -1)


def batch_sign_eval(
    words: np.ndarray, masks: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Signs of many hashes at many symbols, bit-identical to :class:`SignHash`.

    ``words`` (..., ceil(4w/64)) packs each hash's coefficients by
    :func:`pack_words`, ``masks`` each symbol's masks by :func:`symbol_words`.
    Returns int8 signs of shape (..., len(masks)), each hash's code over the
    symbols through :func:`code_signs` (into ``out`` if given).  The parity is
    symmetric in its two words, so ``batch_sign_eval(masks, words)`` is the
    transpose, its tables built from the hashes.
    """
    flat = words.reshape(-1, words.shape[-1])
    signs = code_signs(sign_codes(flat, sign_tables(masks)), out)
    return signs[:, : len(masks)].reshape(words.shape[:-1] + masks.shape[:1])
