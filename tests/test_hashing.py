"""Sign-hash family: exact 4-wise uniformity, derivation, scalar/batch parity."""

import itertools
from collections import Counter

import numpy as np
import pytest

from prodsketch.field import SUPPORTED_WIDTHS, FieldSpec, is_irreducible
from prodsketch.hashing import (
    SignHash,
    SignHashSeed,
    batch_sign_eval,
    coefficient_counter,
    derive_coefficients_batch,
    derive_hashes,
    sign_hash_eval,
)

W1 = FieldSpec(1)
W2 = FieldSpec(2)


def test_zero_polynomial_is_plus_one_everywhere():
    h = SignHash(W2, SignHashSeed(0, 0, 0, 0), 4)
    assert [h(x) for x in range(4)] == [1, 1, 1, 1]


def test_constant_one_polynomial_is_minus_one_everywhere():
    h = SignHash(W2, SignHashSeed(1, 0, 0, 0), 4)
    assert [h(x) for x in range(4)] == [-1, -1, -1, -1]


def test_eval_is_pure_and_in_range():
    h = SignHash(W2, SignHashSeed(3, 1, 2, 0), 4)
    first = [h(x) for x in range(4)]
    assert all(s in (-1, 1) for s in first)
    assert [h(x) for x in range(4)] == first


def test_domain_preconditions():
    with pytest.raises(ValueError):
        SignHash(W2, SignHashSeed(0, 0, 0, 0), 5)  # n > 2^w
    h = SignHash(W2, SignHashSeed(0, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        sign_hash_eval(h, 3)
    with pytest.raises(ValueError):
        SignHash(W2, SignHashSeed(4, 0, 0, 0), 4)  # coefficient outside field


def test_exact_4wise_uniformity_by_full_enumeration():
    # Every sign pattern on any 4 distinct points is realized by exactly
    # 256/16 seeds; scalar evaluation, independent of the oracle tables.
    counts = Counter()
    for s in range(256):
        h = SignHash(W2, SignHashSeed.from_int(s, 2), 4)
        counts[tuple(h(x) for x in (0, 1, 2, 3))] += 1
    assert len(counts) == 16
    assert set(counts.values()) == {16}


def test_singleton_and_pairwise_uniformity_follow():
    for points in [(2,), (0, 3)]:
        counts = Counter()
        for s in range(256):
            h = SignHash(W2, SignHashSeed.from_int(s, 2), 4)
            counts[tuple(h(x) for x in points)] += 1
        assert set(counts.values()) == {256 // 2 ** len(points)}


def test_make_independent_hashes_deterministic():
    a = derive_hashes(99, 1, W2, 4)
    b = derive_hashes(99, 1, W2, 4)
    assert len(a) == 1 and a == b


def test_derivation_fixed_vectors_differ_between_masters():
    # Frozen regression of the documented counter-mode derivation.
    seeds_1 = [h.seed.as_tuple() for h in derive_hashes(1, 3, W2, 4)]
    seeds_2 = [h.seed.as_tuple() for h in derive_hashes(2, 3, W2, 4)]
    assert seeds_1 == [(1, 3, 2, 3), (1, 0, 1, 1), (0, 2, 1, 2)]
    assert seeds_2 == [(2, 2, 3, 0), (1, 3, 2, 3), (3, 0, 1, 3)]
    assert seeds_1 != seeds_2


def test_cell_zero_matches_module_level_derivation():
    assert derive_hashes(7, 2, W2, 4, group=0, index=0) == derive_hashes(7, 2, W2, 4)


def test_counter_layout_is_injective_and_shape_free():
    seen = set()
    for g, j, d, c in itertools.product(range(3), range(4), range(2), range(4)):
        seen.add(coefficient_counter(g, j, d, c))
    assert len(seen) == 3 * 4 * 2 * 4
    # seeds of a cell do not depend on any bank shape parameter
    assert derive_hashes(5, 2, W2, 4, group=2, index=3) == derive_hashes(
        5, 2, W2, 4, group=2, index=3
    )


def _symbols_across_field(spec, rng, count=40):
    # 0, 1, the top element and random values from the whole field,
    # most of them with the high bits set.
    top = spec.mask
    randoms = [int(v) & top for v in rng.integers(0, 1 << 63, size=count, dtype=np.uint64)]
    highs = [top ^ (v >> 1) for v in randoms]
    return np.array(sorted({0, 1, top, *randoms, *highs}), dtype=np.uint64)


def test_batch_matches_scalar_across_widths():
    for width in SUPPORTED_WIDTHS:
        spec = FieldSpec(width)
        hashes = derive_hashes(12345, 3, spec)
        coefs = derive_coefficients_batch(12345, 1, 1, 3, spec)[0]
        xs = _symbols_across_field(spec, np.random.default_rng(width))
        table = batch_sign_eval(coefs, xs, spec)
        assert table.dtype == np.int8 and table.shape == (3, len(xs))
        for dim, h in enumerate(hashes):
            assert [h(int(x)) for x in xs] == table[dim].tolist(), width


@pytest.mark.parametrize("width,poly", [(8, 0x101), (16, 0x1FFFF), (64, (1 << 64) | 0b11)])
def test_batch_matches_scalar_on_reducible_polynomial(width, poly):
    # The parity form holds in GF(2)[x]/(f) for any f of degree w, which is
    # what lets the self-test's field-fault polynomial flow through it.
    spec = FieldSpec(width, poly)
    assert not is_irreducible(poly)
    rng = np.random.default_rng(poly % 1000)
    xs = _symbols_across_field(spec, rng)
    words = rng.integers(0, 1 << 63, size=(16, 4), dtype=np.uint64)
    coefs = words ^ (words << np.uint64(1))
    coefs &= np.uint64(spec.mask)
    table = batch_sign_eval(coefs, xs, spec)
    for row, c in zip(table, coefs.tolist()):
        h = SignHash(spec, SignHashSeed(*c), spec.order)
        assert [sign_hash_eval(h, int(x)) for x in xs] == row.tolist()


def test_direct_enumeration_covers_every_seed_pair_once():
    # The oracle configuration enumerates seed tuples directly; at w=1 the
    # full product space is 16 x 16 with every pair hit exactly once.
    pairs = Counter(
        (s, t) for s in range(16) for t in range(16)
    )
    assert len(pairs) == 256 and set(pairs.values()) == {1}
    # and each packed seed decodes to a distinct coefficient tuple
    decoded = {SignHashSeed.from_int(s, 1).as_tuple() for s in range(16)}
    assert len(decoded) == 16


def test_k_bounds():
    with pytest.raises(ValueError):
        derive_hashes(0, 0, W2, 4)
    with pytest.raises(ValueError):
        derive_hashes(0, 257, W2, 4)
