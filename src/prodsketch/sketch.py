"""One estimator instance: k+1 integer counters over an insert-only stream.

The instance watches a stream of k-tuples and keeps

    t1        = sum over items of H(a)   with H(a) = prod_i h_i(a_i)
    marg[i]   = sum over items of h_i(a_i)
    m         = item count

and finalizes to ``Y = (t1/m - prod_i marg[i]/m)^2``.  The division is
deferred: ``U = t1 * m^(k-1) - prod_i marg[i]`` is computed in exact integer
arithmetic and ``Y = (U / m^k)^2``, which makes the algebraically-zero cases
(single item, constant stream, full enumeration) return exactly 0.0 and
keeps merge/replay bit-exact.  Python integers are used throughout, so there
is no overflow cliff; counters themselves are bounded by m.

Finalize rule.  :func:`finalize_values` is the one place that turns U into a
float: ``U*U / m^(2k)`` in Python int true division, which is correctly
rounded (the same float as the exact rational), so a scalar instance and a
bank cell with equal counters finalize to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator

from .field import FieldSpec
from .hashing import MAX_DIMS, SignHash, derive_hashes


class EmptyStreamError(ValueError):
    """Finalize/estimate called before any item was ingested."""


@dataclass(frozen=True)
class SketchConfig:
    """Shared shape of every instance in a bank: dimensions, alphabet, field."""

    k: int
    n: int
    spec: FieldSpec

    def __post_init__(self) -> None:
        # Seed counters hold 8 bits of dimension; a larger k would let one
        # cell's dimensions reuse another cell's seeds.
        if not (1 <= self.k <= MAX_DIMS):
            raise ValueError(f"k must be in [1, {MAX_DIMS}]")
        if not (1 <= self.n <= self.spec.order):
            raise ValueError(
                f"alphabet size {self.n} does not fit in GF(2^{self.spec.width})"
            )


def finalize_values(u_values: Iterable[int], m: int, k: int) -> Iterator[float]:
    """``Y = (U / m^k)^2`` for each unnormalized ``U``, correctly rounded."""
    denominator = m ** (2 * k)
    return (u * u / denominator for u in u_values)


class SketchInstance:
    """Single-writer sketch state for one hash tuple."""

    __slots__ = ("config", "hashes", "t1", "marginal_sums", "m")

    def __init__(self, config: SketchConfig, hashes: tuple[SignHash, ...]) -> None:
        if len(hashes) != config.k:
            raise ValueError(f"need {config.k} hashes, got {len(hashes)}")
        for h in hashes:
            if h.spec != config.spec or h.n < config.n:
                raise ValueError("hash domain/field incompatible with config")
        self.config = config
        self.hashes = tuple(hashes)
        self.t1 = 0
        self.marginal_sums = [0] * config.k
        self.m = 0

    @classmethod
    def from_master_seed(
        cls,
        config: SketchConfig,
        master_seed: int,
        *,
        group: int = 0,
        index: int = 0,
    ) -> "SketchInstance":
        hashes = derive_hashes(
            master_seed, config.k, config.spec, config.n, group=group, index=index
        )
        return cls(config, hashes)

    def _check_tuple(self, p: tuple[int, ...]) -> None:
        if len(p) != self.config.k:
            raise ValueError(f"expected a {self.config.k}-tuple, got arity {len(p)}")
        for x in p:
            if not (0 <= x < self.config.n):
                raise ValueError(f"symbol {x} outside [0, {self.config.n})")

    def product_hash(self, p: tuple[int, ...]) -> int:
        """H(p) = product of the per-dimension signs; always +1 or -1."""
        self._check_tuple(p)
        sign = 1
        for h, x in zip(self.hashes, p):
            sign *= h(x)
        return sign

    def update_item(self, a: tuple[int, ...]) -> None:
        """Count one stream item."""
        self._check_tuple(a)
        sign = 1
        for i, (h, x) in enumerate(zip(self.hashes, a)):
            s = h(x)
            self.marginal_sums[i] += s
            sign *= s
        self.t1 += sign
        self.m += 1

    def _unnormalized(self) -> int:
        if self.m == 0:
            raise EmptyStreamError("cannot finalize an empty stream")
        return self.t1 * self.m ** (self.config.k - 1) - prod(self.marginal_sums)

    def finalize(self) -> float:
        """Y = (t1/m - prod marg/m)^2 as a correctly rounded float."""
        return next(finalize_values([self._unnormalized()], self.m, self.config.k))

    def finalize_exact(self) -> Fraction:
        """Same value as :meth:`finalize`, as an exact rational."""
        u = self._unnormalized()
        return Fraction(u * u, self.m ** (2 * self.config.k))

    def counters(self) -> tuple[int, tuple[int, ...], int]:
        return (self.t1, tuple(self.marginal_sums), self.m)

    def copy(self) -> "SketchInstance":
        dup = SketchInstance(self.config, self.hashes)
        dup.t1 = self.t1
        dup.marginal_sums = list(self.marginal_sums)
        dup.m = self.m
        return dup


def merge_sketches(a: SketchInstance, b: SketchInstance) -> SketchInstance:
    """Counter-wise sum; equals sketching the concatenated stream.

    Both operands must carry the same configuration and hash seeds; all
    counters are linear in the input, so addition is exact.
    """
    if a.config != b.config:
        raise ValueError("cannot merge sketches with different configurations")
    if a.hashes != b.hashes:
        raise ValueError("cannot merge sketches with different hash seeds")
    out = a.copy()
    out.t1 += b.t1
    for i in range(out.config.k):
        out.marginal_sums[i] += b.marginal_sums[i]
    out.m += b.m
    return out
