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
masks ``(1, L(y), L(y^2), L(y^3))`` (``symbol_words``, built once per
distinct symbol).
``batch_sign_eval`` then costs one AND and popcount per word for each
(hash, symbol) pair, with no field multiplication.

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

from dataclasses import dataclass

import numpy as np

from .field import FieldSpec, field_mul, field_mul_vec
from .rng import MAX_DIMS, word_at, words_at

MAX_GROUP = 1 << 22
MAX_INDEX = 1 << 32
_AND_WORDS = 1 << 16  # words of batch_sign_eval's AND buffer (512 KiB)


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
    master_seed: int, lo: int, hi: int, indexes: int, k: int, spec: FieldSpec
) -> np.ndarray:
    """Packed hash words (hi - lo, k, ceil(4w/64)) of bank cells [lo, hi).

    Cells are row-major by (group, index), ``indexes`` to a group; each
    cell's words are the limbs of its :func:`derive_hashes` seeds.
    """
    group, index = np.divmod(np.arange(lo, hi, dtype=np.uint64), np.uint64(indexes))
    cell = ((group << np.uint64(32)) | index) << np.uint64(10)
    dim_coef = np.arange(4 * k, dtype=np.uint64).reshape(k, 4)  # (dim << 2) | c
    coefs = cell[:, None, None] | dim_coef
    words_at(master_seed, coefs, out=coefs)
    coefs &= np.uint64(spec.mask)
    return pack_words(coefs, spec.width)


def pack_words(fields: np.ndarray, width: int) -> np.ndarray:
    """Pack the four w-bit fields of the last axis into ceil(4w/64) uint64 words.

    The first field takes the lowest bits.  Every supported width divides 64, so no field straddles two words.  For
    w <= 16 the one word of coefficients (c0, c1, c2, c3) is the seed
    ``c0 | c1 << w | c2 << 2w | c3 << 3w``.
    """
    fields = np.asarray(fields, dtype=np.uint64)
    out = np.zeros(fields.shape[:-1] + (-(-4 * width // 64),), dtype=np.uint64)
    for j in range(4):
        word, shift = divmod(j * width, 64)
        out[..., word] |= fields[..., j] << np.uint64(shift)
    return out


def symbol_words(xs: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Packed masks ``(1, L(y), L(y^2), L(y^3))`` of 1-D ``xs``, shape (len(xs), ceil(4w/64))."""
    xs = np.asarray(xs, dtype=np.uint64)
    x2 = field_mul_vec(xs, xs, spec)
    x3 = field_mul_vec(x2, xs, spec)
    masks = _lowbit_masks(np.stack([xs, x2, x3], axis=-1), spec)
    return pack_words(np.column_stack([np.ones_like(xs), masks]), spec.width)


def batch_sign_eval(
    words: np.ndarray, masks: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Signs of many hashes at many symbols, bit-identical to :class:`SignHash`.

    ``words`` (..., ceil(4w/64)) packs each hash's coefficients by
    :func:`pack_words`, ``masks`` each symbol's masks by :func:`symbol_words`.
    Returns int8 signs of shape (..., len(masks)), in ``out`` if given (of
    that shape, and C-contiguous unless 2-D).  The ANDs run through one buffer
    of at most max(``_AND_WORDS``, ``len(masks)``) words, whole hash rows at a
    time; beside it every temporary takes one byte an entry.
    """
    flat = words.reshape(-1, words.shape[-1])
    shape = (len(flat), len(masks))
    parity = np.empty(shape, np.uint8) if out is None else out.view(np.uint8).reshape(shape)
    step = max(1, _AND_WORDS // max(1, len(masks)))
    buf = np.empty((min(step, len(flat)), len(masks)), dtype=np.uint64)
    for lo in range(0, len(flat), step):
        chunk = parity[lo : lo + step]
        tmp = buf[: len(chunk)]
        for p in range(flat.shape[1]):
            np.bitwise_and(flat[lo : lo + step, p, None], masks[:, p], out=tmp)
            if p:
                chunk ^= np.bitwise_count(tmp)
            else:
                np.bitwise_count(tmp, out=chunk)
    parity &= 1  # the low bit b becomes 1 - 2b in place: 0 -> 1, 1 -> -1
    signs = parity.view(np.int8)
    np.negative(signs, out=signs)
    signs |= 1
    return signs.reshape(words.shape[:-1] + masks.shape[:1])


def _lowbit_masks(ys: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """``L(y)`` for each element: bit ``i`` is the low bit of ``x^i * y``.

    A w-step walk that multiplies by x (shift, then fold the carry through
    the reduction polynomial's low terms).
    """
    low = np.uint64(spec.low_terms)
    mask = np.uint64(spec.mask)
    top = np.uint64(spec.width - 1)
    one = np.uint64(1)
    t = ys
    out = np.zeros_like(ys)
    for i in range(spec.width):
        out |= (t & one) << np.uint64(i)
        t = ((t << one) & mask) ^ (((t >> top) & one) * low)
    return out
