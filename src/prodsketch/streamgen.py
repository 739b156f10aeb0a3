"""Seeded synthetic tuple streams with a tunable dependence knob.

Each item is drawn independently: with probability ``lam`` it is the
diagonal tuple (x, ..., x) for a uniform x, otherwise its k symbols are
independent uniforms.  ``lam = 0`` gives (distributionally) independent
coordinates, ``lam = 1`` maximally dependent ones.

Generation is stateless per item: item i draws from a SplitMix64 stream
seeded by word i of the master stream (algorithm id ``splitmix64ctr/1``,
recorded in generated file headers).  That makes any index range
reproducible in isolation, so parallel generation can pre-split the index
space without coordination.  The diagonal decision compares a raw 64-bit
word against round(lam * 2^64); uniform symbols use rejection sampling,
so they are exactly uniform on [0, n).  ``generate_blocks`` draws blocks of
items as arrays (word 0 decides, words 1..k or word 1 are the symbols) and
redraws one word at a time only items with a needed word at the bound or
above; ``generate_range`` and ``generate`` are tuple views of its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator

import numpy as np

from .rng import MAX_DIMS, word_at, words_at
from .streamfile import _BLOCK_LINES

GENERATOR_ID = "splitmix64ctr/1"


@dataclass(frozen=True)
class GenSpec:
    n: int
    k: int
    m: int
    lam: float
    rng_seed: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1 or self.m < 1:
            raise ValueError("n, k and m must be >= 1")
        if self.n > 1 << 64:  # no 64-bit word would pass the rejection bound
            raise ValueError(f"alphabet size {self.n} exceeds the widest supported field")
        if self.k > MAX_DIMS:  # a block holds k + 1 words per item
            raise ValueError(f"k must be in [1, {MAX_DIMS}]")
        if self.m > 1 << 64:  # item i draws from word i of a 64-bit counter
            raise ValueError("m must be at most 2^64")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lambda must lie in [0, 1]")

    def header(self) -> dict[str, str]:
        return {
            "generator": GENERATOR_ID,
            "n": str(self.n),
            "k": str(self.k),
            "m": str(self.m),
            "lambda": repr(self.lam),
            "rng_seed": str(self.rng_seed),
        }


def _item(spec: GenSpec, i: int, threshold: int, bound: int) -> tuple[int, ...]:
    """Item ``i`` drawn one word at a time; words at or above ``bound`` are rejected."""
    item_seed = word_at(spec.rng_seed, i)
    size = 1 if word_at(item_seed, 0) < threshold else spec.k
    words = (word_at(item_seed, draw) for draw in count(1))
    item = tuple(islice((w % spec.n for w in words if w < bound), size))
    return item * spec.k if size == 1 else item


def generate_blocks(spec: GenSpec, start: int, stop: int) -> Iterator[np.ndarray]:
    """Items [start, stop) as (rows, k) uint64 blocks of up to ``_BLOCK_LINES`` rows."""
    if not (0 <= start <= stop <= spec.m):
        raise ValueError("index range outside the stream")
    threshold = round(spec.lam * (1 << 64))
    bound = (1 << 64) - ((1 << 64) % spec.n)
    for lo in range(start, stop, _BLOCK_LINES):
        index = np.arange(lo, min(lo + _BLOCK_LINES, stop), dtype=np.uint64)
        draws = np.tile(np.arange(spec.k + 1, dtype=np.uint64), (len(index), 1))
        words = words_at(words_at(spec.rng_seed, index)[:, None], draws)
        diagonal = words[:, 0] < threshold
        words[diagonal, 1:] = words[diagonal, 1:2]
        block = words[:, 1:] % np.uint64(spec.n) if spec.n < 1 << 64 else words[:, 1:].copy()
        for row in np.flatnonzero((words[:, 1:] >= bound).any(axis=1)).tolist():
            block[row] = _item(spec, lo + row, threshold, bound)
        yield block


def generate_range(spec: GenSpec, start: int, stop: int) -> Iterator[tuple[int, ...]]:
    """Items [start, stop) of the stream, independent of any other range."""
    for block in generate_blocks(spec, start, stop):
        yield from map(tuple, block.tolist())


def generate(spec: GenSpec) -> Iterator[tuple[int, ...]]:
    """The full stream of ``spec.m`` items."""
    return generate_range(spec, 0, spec.m)
