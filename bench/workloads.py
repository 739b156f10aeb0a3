"""Workload table, seeded input streams and the benchmark's own exact answers.

Every input is a function of the workload and the ``--seed`` argument only.
Streams are the ``splitmix64ctr/1`` streams that ``prodsketch gen`` writes
for the same parameters, produced here by an independent numpy
re-implementation, so the benchmark can both feed them to the program and
check ``gen``'s output byte for byte.  The exact squared distance is also
computed here, independently of ``prodsketch.oracle``.

Why each workload exists is written down in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_SEED = 1

# Exhaustive enumeration at the budget edge: GF(2^2) hashes, k = 3, n = 4,
# (2^8)^3 = 2^24 seed tuples.  m = 16 keeps every numerator in int64.
ENUM_N, ENUM_K, ENUM_WIDTH, ENUM_M = 4, 3, 2, 16
ENUM_SEED_TUPLES = (1 << (4 * ENUM_WIDTH)) ** ENUM_K

SHARDS = 4
GEN_M = 20_000  # items per `prodsketch gen` run


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    lam: float
    m: int
    epsilon: float
    delta: float
    pipe: bool  # feed estimate/exact through stdin instead of a file

    @property
    def width(self) -> int:
        w = 1
        while (1 << w) < self.n:
            w *= 2
        return w

    @property
    def shape(self) -> tuple[int, int]:
        """(s1, s2) from the paper's formulas, computed independently."""
        s1 = math.ceil(Fraction(8 * (3**self.k - 1)) / Fraction(self.epsilon) ** 2)
        s2 = max(1, math.ceil(2.0 * math.log(1.0 / self.delta) - 1e-12))
        return s1, s2


WORKLOADS = {
    w.name: w
    for w in (
        # 5200 x 5 = 26,000 cells on the sign-table path: ingest, finalize, setup.
        Workload("accept", n=8, k=3, lam=0.5, m=30_000, epsilon=0.2, delta=0.1, pipe=False),
        # 80 x 2 = 160 cells, a long stream on stdin: parsing, per-chunk overhead.
        Workload("pipe", n=4, k=2, lam=0.5, m=300_000, epsilon=0.9, delta=0.5, pipe=True),
        # 256 x 5 = 1,280 cells past the sign-table limit: on-the-fly signs.
        Workload("large_alphabet", n=1 << 16, k=2, lam=0.5, m=300, epsilon=0.5, delta=0.1,
                 pipe=False),
    )
}

# Bit-identity pins, recorded from the unchanged seed code at DEFAULT_SEED:
# repr of the reported estimate and sha256 of the --snapshot-out bytes.
PINS = {
    "accept": ("0.03043157764608077",
               "9306d0f59ad055774abe819972dc8aa73b90a9443ce58d063d5ce547b3575d1f"),
    "pipe": ("0.044731850970792617",
             "e461b982b331a882327212cf580e75f98d3699a3b9b6b529fcce037c13a9fdc4"),
    "large_alphabet": ("0.0034071093287037038",
                       "7476bcf987cae31624ed0db1b27e76e87e6ef3b63caebb7e83a64d33028a4ca5"),
}

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
GENERATOR_ID = "splitmix64ctr/1"


def _words_at(seeds: np.ndarray, index: int) -> np.ndarray:
    """Word ``index`` of the counter-mode SplitMix64 stream of each seed."""
    with np.errstate(over="ignore"):
        z = seeds + np.uint64(index + 1) * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def generate_items(n: int, k: int, m: int, lam: float, rng_seed: int) -> np.ndarray:
    """The (m, k) int64 items of ``prodsketch gen`` with these parameters.

    Power-of-two alphabets only: there the generator's rejection step never
    rejects, so each symbol is one word reduced mod n.
    """
    if n & (n - 1) or not (0.0 <= lam < 1.0):
        raise ValueError("benchmark streams need a power-of-two n and lambda < 1")
    index = np.arange(m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        item_seeds = _words_at(np.uint64(rng_seed % (1 << 64)) + index * _GAMMA, 0)
    diagonal = _words_at(item_seeds, 0) < np.uint64(round(lam * (1 << 64)))
    symbols = np.stack([_words_at(item_seeds, j) % np.uint64(n) for j in range(1, k + 1)], axis=1)
    symbols[diagonal] = symbols[diagonal, :1]
    return symbols.astype(np.int64)


def stream_bytes(items: np.ndarray, n: int, lam: float, rng_seed: int) -> bytes:
    """The exact bytes ``prodsketch gen`` writes for ``items``."""
    m, k = items.shape
    header = {"generator": GENERATOR_ID, "n": n, "k": k, "m": m,
              "lambda": repr(lam), "rng_seed": rng_seed}
    head = "".join(f"# {key}={value}\n" for key, value in header.items())
    names = np.array([str(x) for x in range(int(items.max()) + 1)], dtype=object)
    cols = [names[items[:, d]] for d in range(k)]
    body = "".join(",".join(row) + "\n" for row in zip(*cols))
    return (head + body).encode("ascii")


def exact_l2sq(items: np.ndarray, n: int) -> Fraction:
    """Squared L2 distance of the joint from the product of marginals.

    sum over cells of (f/m - prod_i f_i/m)^2, scaled by m^(2k) so the sum is
    an integer; cells with f = 0 contribute prod_i f_i^2, whose sum over all
    cells factorizes.
    """
    m, k = items.shape
    marg = [np.bincount(items[:, d], minlength=n).tolist() for d in range(k)]
    rows, counts = joint_counts(items, n)
    total = math.prod(sum(c * c for c in mg) for mg in marg)
    scale = m ** (k - 1)
    for row, f in zip(rows.tolist(), counts.tolist()):
        p = math.prod(marg[d][x] for d, x in enumerate(row))
        total += (f * scale - p) ** 2 - p * p
    return Fraction(total, m ** (2 * k))


def joint_counts(items: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``items`` and their counts, via mixed-radix codes."""
    k = items.shape[1]
    if n**k >= 1 << 62:
        raise ValueError("benchmark streams need n^k < 2^62")
    radix = n ** np.arange(k, dtype=np.int64)
    codes, counts = np.unique(items @ radix, return_counts=True)
    rows = (codes[:, None] // radix) % n
    return rows, counts


def enum_items(seed: int) -> np.ndarray:
    """The short stream of the exhaustive-enumeration operation."""
    return generate_items(ENUM_N, ENUM_K, ENUM_M, 0.5, seed * 1000 + 7)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
