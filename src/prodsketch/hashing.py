"""Exactly 4-wise independent sign hashes from cubic polynomials over GF(2^w).

A hash is a degree-at-most-3 polynomial ``p(x) = c3 x^3 + c2 x^2 + c1 x + c0``
over GF(2^w), evaluated at the input symbol injected as a field element, with
output sign ``+1`` when the low bit of ``p(x)`` is 0 and ``-1`` otherwise.
For any four distinct evaluation points the coefficient-to-values map is a
bijection (polynomial interpolation), so the four output words are jointly
uniform and each of the 16 sign patterns is hit by exactly a 1/16 fraction
of seeds.  Independence is exact, not approximate, which is what lets the
oracle verify moment bounds with zero tolerance by enumerating seeds.

Evaluation.  ``sign_hash_eval`` is the scalar reference (Horner's rule).
``batch_sign_eval`` is the only vectorised evaluator: because the low bit of
``c * y`` is GF(2)-linear in ``c``, it equals ``parity(c & L(y))`` for a
w-bit mask ``L(y)`` that depends on the symbol alone, so

    h(y) = (-1)^(c0 ^ par(c1 & L(y)) ^ par(c2 & L(y^2)) ^ par(c3 & L(y^3)))

Masks are built once per distinct symbol; each (hash, symbol) pair then
costs ANDs and popcounts, with no field multiplication.

Seed derivation is counter-mode SplitMix64.  Coefficient ``c`` of dimension
``dim`` of the hash tuple for bank cell ``(group, index)`` uses the counter

    ((group << 32 | index) << 10) | (dim << 2) | c

so counters never collide for ``group < 2^22``, ``index < 2^32``,
``dim < 256`` and seeds of an instance do not depend on the bank shape
(growing a bank never re-seeds existing cells).  Module-level hash tuples
are cell ``(0, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldElement, FieldSpec, field_mul, field_mul_vec
from .rng import MAX_DIMS, word_at, words_at

MAX_GROUP = 1 << 22
MAX_INDEX = 1 << 32
# Entries of one cache-sized slab (512 KiB of uint64 or float64) of a pass over
# the whole bank: coefficient derivation and the estimator's dense contraction.
SLAB_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SignHashSeed:
    """Coefficients (c0, c1, c2, c3) of one cubic, c0 the constant term."""

    c0: FieldElement
    c1: FieldElement
    c2: FieldElement
    c3: FieldElement

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    @classmethod
    def from_int(cls, packed: int, width: int) -> "SignHashSeed":
        mask = (1 << width) - 1
        return cls(
            packed & mask,
            (packed >> width) & mask,
            (packed >> (2 * width)) & mask,
            (packed >> (3 * width)) & mask,
        )


@dataclass(frozen=True)
class SignHash:
    """One member of the family: a seeded cubic over ``spec`` on domain [0, n)."""

    spec: FieldSpec
    seed: SignHashSeed
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.n <= self.spec.order):
            raise ValueError(
                f"domain size {self.n} exceeds field order 2^{self.spec.width}"
            )
        for c in self.seed.as_tuple():
            if not (0 <= c < self.spec.order):
                raise ValueError("seed coefficient outside the field")

    def __call__(self, x: int) -> int:
        return sign_hash_eval(self, x)


def sign_hash_eval(h: SignHash, x: int) -> int:
    """Sign of ``h`` at symbol ``x``; Horner evaluation, then the low bit."""
    if not (0 <= x < h.n):
        raise ValueError(f"symbol {x} outside hash domain [0, {h.n})")
    c0, c1, c2, c3 = h.seed.as_tuple()
    spec = h.spec
    p = c3
    p = field_mul(p, x, spec) ^ c2
    p = field_mul(p, x, spec) ^ c1
    p = field_mul(p, x, spec) ^ c0
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
        coefs = tuple(
            word_at(master_seed, coefficient_counter(group, index, dim, c)) & mask
            for c in range(4)
        )
        out.append(SignHash(spec, SignHashSeed(*coefs), n))
    return tuple(out)


# ---------------------------------------------------------------------------
# Bulk paths (numpy), bit-identical to the scalar ones above.
# ---------------------------------------------------------------------------

def derive_coefficients_batch(
    master_seed: int, groups: int, indexes: int, k: int, spec: FieldSpec
) -> np.ndarray:
    """Coefficients (groups*indexes, k, 4), row-major cells; counted and mixed slab by slab."""
    out = np.empty((groups * indexes, k, 4), dtype=np.uint64)
    dim_coef = np.arange(4 * k, dtype=np.uint64).reshape(k, 4)  # (dim << 2) | c
    step = max(1, SLAB_ENTRIES // (4 * k))
    for lo in range(0, len(out), step):
        slab = out[lo : lo + step]
        g, j = np.divmod(np.arange(lo, lo + len(slab), dtype=np.uint64), np.uint64(indexes))
        cell = ((g << np.uint64(32)) | j) << np.uint64(10)
        np.bitwise_or(cell[:, None, None], dim_coef, out=slab)
        words_at(master_seed, slab, out=slab)
        slab &= np.uint64(spec.mask)
    return out


def batch_sign_eval(coefs: np.ndarray, xs: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """Signs of many hashes at many points, bit-identical to :func:`sign_hash_eval`.

    ``coefs`` has shape (..., 4) with the last axis (c0, c1, c2, c3);
    ``xs`` is a 1-D array of symbols.  Returns int8 signs of shape
    (..., len(xs)).

    The low bit of ``c * y`` is GF(2)-linear in ``c``, so it equals
    ``parity(c & L(y))`` where bit ``i`` of the mask ``L(y)`` is the low bit
    of ``x^i * y``.  The sign bit of ``p(y)`` is therefore the parity of
    ``(c0, c1, c2, c3) & (1, L(y), L(y^2), L(y^3))``: the masks are built once
    per symbol, and each (hash, symbol) pair then costs a few ANDs and
    popcounts.  Both sides are packed into whole uint64 words (one word for
    w <= 16).  The identity holds in GF(2)[x]/(f) for any f of degree w.
    """
    w = spec.width
    coefs = np.asarray(coefs, dtype=np.uint64)
    xs = np.asarray(xs, dtype=np.uint64)
    x2 = field_mul_vec(xs, xs, spec)
    x3 = field_mul_vec(x2, xs, spec)
    masks = _lowbit_masks(np.stack([xs, x2, x3]), spec)
    hash_words = _pack_words([coefs[..., j] for j in range(4)], w)
    symbol_words = _pack_words([np.ones_like(xs), *masks], w)
    parity = np.zeros(coefs.shape[:-1] + xs.shape, dtype=np.uint8)
    for hw, sw in zip(hash_words, symbol_words):
        parity ^= np.bitwise_count(hw[..., None] & sw)
    return 1 - 2 * (parity & 1).view(np.int8)


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


def _pack_words(parts: list[np.ndarray], width: int) -> list[np.ndarray]:
    """Concatenate four w-bit fields into as few uint64 words as hold them."""
    per_word = max(1, 64 // width)
    words = []
    for lo in range(0, len(parts), per_word):
        word = parts[lo]
        for j, part in enumerate(parts[lo + 1 : lo + per_word], start=1):
            word = word | (part << np.uint64(j * width))
        words.append(word)
    return words
