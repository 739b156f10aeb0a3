"""Exhaustive verification battery behind the CLI ``selftest`` subcommand.

Each check compares an implementation quantity against an independently
computed expectation, in exact arithmetic wherever the claim is exact:

  * field axioms of GF(2^w) (exhaustive at order <= 16, inverses found in
    the product table; at w = 8 on sampled triples, with a witnessed
    inverse for every nonzero element),
  * irreducibility of every pinned reduction polynomial, by two powers of x,
  * the 1/16 seed census of the sign-hash family,
  * enumerated E[Y] against the exact squared L2 distance,
  * enumerated Var[Y] against the (3^k - 1) E^2 bound,
  * pinned variance/expectation^2 ratios of the uniform vector,
  * merge/replay counter equality,
  * exact-zero streams (through the sketch, enumeration and a bank), and
  * table-vs-incremental agreement of Y.

``field_fault`` checks a reducible ring of its own for w = 4, which no
``FieldSpec`` can denote, so the negative control can demonstrate the
battery actually fails on a broken field.
"""

from __future__ import annotations

import itertools
import random
import types
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .estimator import BankShape, EstimatorBank
from .field import REDUCTION_POLYNOMIALS, FieldSpec, field_mul
from .hashing import SignHash, derive_hashes
from .oracle import (
    FrequencyTable,
    exact_l2sq,
    exact_y_from_table,
    exhaustive_moments,
    seed_uniformity_census,
)
from .sketch import SketchConfig, SketchInstance, merge_sketches
from .streamgen import GenSpec, generate

# Exact Var/E^2 of the all-ones vector over GF(2^2) hashes at n=4, frozen
# from the first enumeration run (equals 2.5^k - 1 from the T-moment
# factorization E[T^2]=4, E[T^4]=40).
PINNED_TIGHTNESS = {1: Fraction(3, 2), 2: Fraction(21, 4), 3: Fraction(117, 8)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    expected: str
    actual: str


# (n, stream count, first rng_seed) of the streams enumerated at each k.
_BATTERY = {2: (4, 10, 7000), 3: (2, 6, 7100)}


def battery_streams(k: int) -> list[list[tuple[int, ...]]]:
    """The fixed short streams on [n]^k (m <= 8) that the battery enumerates at ``k``."""
    n, count, seed = _BATTERY[k]
    return [list(generate(GenSpec(n=n, k=k, m=3 + i % 6, lam=(i % 11) / 10, rng_seed=seed + i)))
            for i in range(count)]


def uniform_vector(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {p: 1 for p in itertools.product(range(n), repeat=k)}


def clmul(a: int, b: int) -> int:
    """Carry-less (XOR) product of two GF(2)[x] bitmasks, unreduced."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def poly_mod(a: int, mod: int) -> int:
    """Remainder of ``a`` modulo ``mod`` in GF(2)[x] (long division)."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def is_irreducible(poly: int) -> bool:
    """Whether a GF(2)[x] bitmask of degree 1 or n = 2^t is irreducible.

    Degree 1 is.  At n = 2^t, ``poly`` is irreducible iff x^(2^n) == x and
    x^(2^(n/2)) != x (mod poly): the first makes it squarefree with every
    factor's degree dividing n, and a reducible one's factors then all
    have degrees dividing n/2.  Any other degree raises ``ValueError``.
    """
    n = poly.bit_length() - 1
    if n < 1 or n & (n - 1):
        raise ValueError(f"degree {n} is neither 1 nor a power of two")
    squares = [0b10]  # x^(2^i) mod poly
    for _ in range(n):
        squares.append(poly_mod(clmul(squares[-1], squares[-1]), poly))
    return n == 1 or squares[n] == 0b10 != squares[n // 2]


_AXIOMS = ("commutativity violated at ({},{})", "associativity violated at ({},{},{})",
           "distributivity violated at ({},{},{})")


def check_field_axioms(spec: FieldSpec) -> tuple[bool, str]:
    """Identity, commutativity, associativity, distributivity, inverses.

    Exhaustive for order <= 16: every triple is read from one table of all
    products, and a nonzero ``a`` has an inverse iff its row holds a 1.  At
    w = 8 the ternary axioms run on a fixed random sample, and the powers
    of the generator g = x + 1 must be the 255 nonzero elements, each with
    its inverse witnessed as g^i * g^(255 - i) == 1.  Any other order
    raises ``ValueError``: its inverses would go unchecked.  The detail
    names the first failing element, or triple and axiom, in the order checked.
    """
    order, product = spec.order, partial(field_mul, spec=spec)
    if order > 16 and order != 256:
        raise ValueError(f"cannot check inverses at order {order}")
    e = np.arange(order)
    if order <= 16:
        table = np.array([[product(a, b) for b in range(order)] for a in range(order)])
        mul = lambda x, y: table[x, y]
        triples = np.indices((order,) * 3).reshape(3, -1)  # lexicographic
    else:
        mul = np.frompyfunc(product, 2, 1)
        rng = random.Random(0xF1E1D)
        triples = np.array([rng.randrange(order) for _ in range(900)], dtype=object).reshape(-1, 3).T
    bad = np.flatnonzero((mul(0, e) != 0) | (mul(1, e) != e))
    if bad.size:
        return False, f"identity/zero violated at a={bad[0]}"
    a, b, c = triples
    ab = mul(a, b)
    violated = np.array([ab != mul(b, a), mul(ab, c) != mul(a, mul(b, c)),
                         mul(a, b ^ c) != ab ^ mul(a, c)], dtype=bool)
    bad = np.flatnonzero(violated.any(axis=0))
    if bad.size:
        return False, _AXIOMS[np.argmax(violated[:, bad[0]])].format(*triples[:, bad[0]])
    if order <= 16:
        bad = np.flatnonzero((table[1:] != 1).all(axis=1)) + 1
        if bad.size:
            return False, f"no inverse for a={bad[0]}"
    else:
        powers = list(itertools.accumulate([3] * 254, product, initial=1))
        # powers[-i] is g^(255 - i), and g^0 for i = 0.
        bad = sorted(set(range(1, 256)).difference(powers)) or [
            p for i, p in enumerate(powers) if product(p, powers[-i]) != 1
        ]
        if bad:
            return False, f"no inverse witnessed for a={bad[0]}"
    return True, "all axioms hold"


def _result(name: str, ok: bool, expected, actual) -> CheckResult:
    return CheckResult(name, ok, str(expected), str(actual))


def run_selftest(field_fault: bool = False) -> list[CheckResult]:
    results: list[CheckResult] = []
    w1, w2 = FieldSpec(1), FieldSpec(2)

    # Field axioms; the fault hook checks the ring modulo (x^2+x+1)^2 at w=4.
    for width in (1, 2, 4, 8):
        spec = FieldSpec(width)
        if width == 4 and field_fault:
            spec = types.SimpleNamespace(width=4, order=16, reduction_polynomial=0b10101)
        ok, detail = check_field_axioms(spec)
        results.append(_result(f"field-axioms-w{width}", ok, "all axioms hold", detail))

    irr = {w: is_irreducible(poly) for w, poly in REDUCTION_POLYNOMIALS.items()}
    results.append(
        _result("reduction-polynomials-irreducible", all(irr.values()),
                "irreducible for every width", irr)
    )

    # Hash family census: every sign pattern on 4 distinct points gets
    # exactly 1/16 of the 256 seeds.
    census = seed_uniformity_census(w2, (0, 1, 2, 3))
    ok = len(census) == 16 and all(c == 16 for c in census.values())
    results.append(
        _result("seed-census-w2", ok, "16 patterns x 16 seeds",
                f"{len(census)} patterns, counts {sorted(set(census.values()))}")
    )

    # Enumerated expectation equals the exact distance, and the enumerated
    # variance clears the (3^k - 1) E^2 bound, with zero tolerance.
    for k, spec in ((2, w2), (3, w1)):
        exp_ok, var_ok, worst = True, True, Fraction(0)
        for stream in battery_streams(k):
            table = FrequencyTable.from_stream(stream, k=k, n=_BATTERY[k][0])
            moments = exhaustive_moments(table, spec=spec)
            exp_ok &= moments.expectation == exact_l2sq(table)
            var_ok &= moments.variance <= (3**k - 1) * moments.expectation**2
            if moments.ratio is not None and moments.ratio > worst:
                worst = moments.ratio
        tag = f"k{k}-w{spec.width}"
        results.append(_result(f"expectation-matches-l2sq-{tag}", exp_ok,
                               "E[Y] == exact l2^2 on every stream", exp_ok))
        results.append(_result(f"variance-bound-{tag}", var_ok,
                               f"Var <= {3 ** k - 1} E^2", f"worst ratio {worst}"))

    # Tightness of the 3^k law on the all-ones vector.
    for k in (1, 2, 3):
        moments = exhaustive_moments(uniform_vector(4, k), spec=w2, n=4)
        pinned = PINNED_TIGHTNESS[k]
        ok = moments.ratio == pinned and moments.ratio >= Fraction(3**k, 2)
        results.append(
            _result(f"tightness-k{k}", ok,
                    f"ratio == {pinned} and >= {Fraction(3 ** k, 2)}", moments.ratio)
        )

    # Merge/replay: sketching two halves and merging equals one pass.
    config = SketchConfig(k=2, n=4, spec=w2)
    merge_ok = True
    for i in range(100):
        stream = list(generate(GenSpec(n=4, k=2, m=20 + i % 60, lam=0.4, rng_seed=8000 + i)))
        cut = (7 * i) % (len(stream) + 1)
        hashes = derive_hashes(i, config.k, config.spec, config.n)
        whole, left, right = (SketchInstance(config, hashes) for _ in range(3))
        for a in stream:
            whole.update_item(a)
        for a in stream[:cut]:
            left.update_item(a)
        for a in stream[cut:]:
            right.update_item(a)
        if merge_sketches(left, right).counters() != whole.counters():
            merge_ok = False
    results.append(
        _result("merge-replay", merge_ok, "100 split replays bit-exact", merge_ok)
    )

    # Exact zeros: single item, constant stream, full enumeration.
    zero_ok = True
    spec2 = w2
    for s in range(256):
        h1 = SignHash(spec2, s, 4)
        h2 = SignHash(spec2, 255 - s, 4)
        inst = SketchInstance(SketchConfig(k=2, n=4, spec=spec2), (h1, h2))
        inst.update_item((1, 2))
        if inst.finalize_exact() != 0:
            zero_ok = False
        for _ in range(4):
            inst.update_item((1, 2))
        if inst.finalize_exact() != 0:
            zero_ok = False
    results.append(
        _result("zero-single-and-constant", zero_ok,
                "Y == 0 for all 256 seed pairings", zero_ok)
    )

    # The stream visiting each cell of [n]^k once is independent: its
    # enumerated moments and every cell of a bank over it are exactly 0.
    enum_ok = True
    for n, k, spec in ((2, 2, w2), (3, 2, w2), (4, 2, w2), (2, 3, w1)):
        grid = list(itertools.product(range(n), repeat=k))
        moments = exhaustive_moments(FrequencyTable.from_stream(grid, k=k, n=n), spec=spec)
        bank = EstimatorBank(SketchConfig(k=k, n=n, spec=spec), shape=BankShape(8, 2))
        bank.ingest_many(grid)
        if moments.expectation or moments.variance or np.any(bank.instance_values() != 0.0):
            enum_ok = False
    results.append(
        _result("zero-full-enumeration", enum_ok,
                "E[Y] == Var[Y] == 0 and every bank cell 0.0", enum_ok)
    )

    # Incremental sketch vs table recomputation, exact equality.
    agree_ok = True
    config = SketchConfig(k=2, n=4, spec=w2)
    for i in range(25):
        stream = list(generate(GenSpec(n=4, k=2, m=30, lam=0.3, rng_seed=8200 + i)))
        table = FrequencyTable.from_stream(stream, k=2, n=4)
        inst = SketchInstance.from_master_seed(config, master_seed=900 + i)
        for a in stream:
            inst.update_item(a)
        if inst.finalize_exact() != exact_y_from_table(table, inst.hashes):
            agree_ok = False
    results.append(
        _result("sketch-table-agreement", agree_ok, "exact equality", agree_ok)
    )

    return results
