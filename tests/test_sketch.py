"""Sketch instance semantics: counters, exact zeros, finalize, merging."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsketch import sketch
from prodsketch.field import FieldSpec
from prodsketch.hashing import SignHash, derive_hashes
from prodsketch.sketch import (
    EmptyStreamError,
    SketchConfig,
    SketchInstance,
    finalize_values,
    merge_sketches,
)

W1 = FieldSpec(1)
W2 = FieldSpec(2)
CFG22 = SketchConfig(k=2, n=4, spec=W2)


def fresh(master_seed=0, config=CFG22):
    return SketchInstance.from_master_seed(config, master_seed)


def tuples(n, k, max_size=60):
    return st.lists(
        st.tuples(*[st.integers(0, n - 1)] * k), min_size=1, max_size=max_size
    )


def test_product_hash_is_plain_hash_at_k1():
    config = SketchConfig(k=1, n=4, spec=W2)
    for x in range(4):
        inst = fresh(3, config)
        inst.update_item((x,))
        assert inst.t1 == inst.marginal_sums[0] == inst.hashes[0](x)


def test_product_hash_example_and_closure():
    h1 = SignHash(W2, 0, 4)   # +1 everywhere
    h2 = SignHash(W2, 4, 4)   # the polynomial x
    inst = SketchInstance(CFG22, (h1, h2))
    assert h1(1) == 1 and h2(3) == -1
    inst.update_item((1, 3))
    assert inst.t1 == -1
    for p in itertools.product(range(4), repeat=2):
        before = inst.t1
        inst.update_item(p)
        assert inst.t1 - before == h1(p[0]) * h2(p[1]) in (-1, 1)


def test_tuple_validation():
    inst = fresh()
    with pytest.raises(ValueError):
        inst.update_item((1,))
    with pytest.raises(ValueError):
        inst.update_item((1, 4))
    with pytest.raises(ValueError):
        inst.update_item((0, -1))


@pytest.mark.parametrize("refused, message", [
    ((1, 2.0), "symbols must be integers"),
    ((1.0, 2), "symbols must be integers"),
    ((1, "2"), "symbols must be integers"),
    ((None, 2), "symbols must be integers"),
    ((1, 4), "outside"),
    ((1,), "arity"),
])
@pytest.mark.parametrize("memoized", [False, True])
def test_refused_items_leave_counters_unchanged(refused, message, memoized):
    inst = fresh()
    inst.update_item((3, 3))
    if memoized:  # h_0(1) and h_1(2) are known, and 1.0 == 1
        inst.update_item((1, 2))
    before = inst.counters()
    with pytest.raises(ValueError, match=message):
        inst.update_item(refused)
    assert inst.counters() == before


def test_integer_like_symbols_count_as_their_ints():
    inst, ref = fresh(), fresh()
    for item in [(True, np.int64(3)), (np.uint8(2), np.bool_(False)), (1, 2)]:
        inst.update_item(item)
        ref.update_item(tuple(int(x) for x in item))
    assert inst.counters() == ref.counters()


def _replay_counters(hashes, stream):
    """Counters of ``stream`` with one ``SignHash.__call__`` per symbol of each item."""
    t1, margs = 0, [0] * len(hashes)
    for item in stream:
        signs = [h(x) for h, x in zip(hashes, item)]
        margs = [m + s for m, s in zip(margs, signs)]
        t1 += math.prod(signs)
    return t1, tuple(margs), len(stream)


@pytest.mark.parametrize("width, n", [(2, 4), (16, 1000), (64, 1 << 64)])
def test_memoized_counters_equal_a_per_item_replay(width, n):
    rng = random.Random(width)
    config = SketchConfig(k=3, n=n, spec=FieldSpec(width))
    pool = [0, n - 1] + [rng.randrange(n) for _ in range(6)]
    for seed in range(5):
        stream = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(rng.randrange(1, 80))]
        cut = rng.randrange(len(stream) + 1)
        whole, left, right = (fresh(seed, config) for _ in range(3))
        for item in stream:
            whole.update_item(item)
        for item in stream[:cut]:
            left.update_item(item)
        for item in stream[cut:]:
            right.update_item(item)
        expected = _replay_counters(whole.hashes, stream)
        assert whole.counters() == expected
        assert merge_sketches(left, right).counters() == expected


def test_single_item_is_exact_zero_for_every_seed():
    for s in range(256):
        h1 = SignHash(W2, s, 4)
        h2 = SignHash(W2, (s * 7 + 3) % 256, 4)
        inst = SketchInstance(CFG22, (h1, h2))
        inst.update_item((2, 1))
        assert inst.finalize_exact() == 0
        assert inst.finalize() == 0.0


def test_constant_stream_is_exact_zero():
    for s in (0, 5, 77, 200, 255):
        h1 = SignHash(W2, s, 4)
        h2 = SignHash(W2, 255 - s, 4)
        inst = SketchInstance(CFG22, (h1, h2))
        for _ in range(9):
            inst.update_item((3, 0))
        assert inst.finalize_exact() == 0


def test_worked_two_item_stream():
    # h(x) = x gives h(0)=+1, h(1)=-1; stream {(0,0),(1,1)} has Y = 1.
    h = SignHash(W2, 1 << 2, 2)  # c1 = 1
    inst = SketchInstance(SketchConfig(k=2, n=2, spec=W2), (h, h))
    inst.update_item((0, 0))
    inst.update_item((1, 1))
    assert inst.counters() == (2, (0, 0), 2)
    assert inst.finalize() == 1.0


def test_full_enumeration_identity_and_zero():
    # t1 * m^(k-1) == prod of marginal counters on full-enumeration streams.
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        config = SketchConfig(k=k, n=n, spec=W2)
        for seed in range(40):
            inst = fresh(seed, config)
            for item in itertools.product(range(n), repeat=k):
                inst.update_item(item)
            t1, margs, m = inst.counters()
            assert m == n**k
            prod = 1
            for v in margs:
                prod *= v
            assert t1 * m ** (k - 1) == prod
            assert inst.finalize_exact() == 0


def test_finalize_empty_raises():
    with pytest.raises(EmptyStreamError):
        fresh().finalize()


@st.composite
def _big_u_m_k(draw):
    m = draw(st.integers(1, 1 << 64))
    k = draw(st.integers(1, 8))
    bound = 2 * m**k  # |t1 * m^(k-1) - prod marg| <= 2 m^k
    return draw(st.integers(-bound, bound)), m, k


def _rounded(u, m, k):
    return float(Fraction(u * u, m ** (2 * k))).hex()


@settings(max_examples=200, deadline=None)
@given(_big_u_m_k())
def test_finalize_values_is_the_rounded_rational(case):
    # Int true division rounds correctly, so it matches the exact rational's
    # float well past the int64 range the bank's fast path covers.
    u, m, k = case
    assert finalize_values(np.array([u], dtype=object), m, k)[0].hex() == _rounded(u, m, k)


@st.composite
def _float_exact_case(draw):
    k = draw(st.integers(1, 8))
    top = round(2 ** (52 / k))
    while top**k >= 1 << 52:
        top -= 1
    m = draw(st.integers(1, top))  # m^k < 2^52: the double-double path
    bound = 2 * m**k
    return draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=20)), m, k


@settings(max_examples=300, deadline=None)
@given(_float_exact_case())
def test_double_double_finalize_is_the_rounded_rational(case):
    us, m, k = case
    got = finalize_values(np.array(us, dtype=np.int64), m, k)
    assert [y.hex() for y in got.tolist()] == [_rounded(u, m, k) for u in us]


def _exact_path_cells(monkeypatch):
    """Patch the exact finalize to record how many cells it is given."""
    taken = []
    exact = sketch._exact_values
    monkeypatch.setattr(sketch, "_exact_values",
                        lambda u, m, k: taken.append(len(u)) or exact(u, m, k))
    return taken


def test_exact_ties_take_the_exact_path(monkeypatch):
    # m = 2^17, k = 3: Y = U^2 / 2^102, and an odd U in [2^27 - 2001, 2^27)
    # has an odd 54-bit square, a tie halfway between two floats.
    taken = _exact_path_cells(monkeypatch)
    us = np.arange((1 << 27) - 2001, 1 << 27, 2, dtype=np.int64)
    got = finalize_values(us, 1 << 17, 3)
    assert sum(taken) == len(us) == 1001
    assert [y.hex() for y in got.tolist()] == [_rounded(u, 1 << 17, 3) for u in us.tolist()]


@pytest.mark.parametrize("m,k,vector", [
    ((1 << 52) - 1, 1, True), (1 << 52, 1, False),
    ((1 << 13) - 1, 4, True), (1 << 13, 4, False),
])
def test_float_exact_handover_at_2_52(monkeypatch, m, k, vector):
    # Below m^k = 2^52 the cells stay on the vector path; from 2^52 on
    # every cell takes the Python-int path.
    taken = _exact_path_cells(monkeypatch)
    rng = np.random.default_rng(m)
    bound = 2 * m**k
    us = [bound, -bound, 0, 1, -1, *(int(v) for v in rng.integers(-bound, bound, 200))]
    got = finalize_values(np.array(us, dtype=np.int64), m, k)
    assert [y.hex() for y in got.tolist()] == [_rounded(u, m, k) for u in us]
    assert sum(taken) < len(us) / 10 if vector else sum(taken) == len(us)


@settings(max_examples=60, deadline=None)
@given(tuples(4, 2))
def test_parity_and_bound_invariants(stream):
    inst = fresh(11)
    for i, a in enumerate(stream, start=1):
        inst.update_item(a)
        t1, margs, m = inst.counters()
        assert m == i
        assert abs(t1) <= m and all(abs(v) <= m for v in margs)
        assert (t1 - m) % 2 == 0 and all((v - m) % 2 == 0 for v in margs)
    assert inst.finalize() >= 0.0


@settings(max_examples=40, deadline=None)
@given(tuples(3, 2), st.randoms(use_true_random=False))
def test_order_invariance(stream, rnd):
    config = SketchConfig(k=2, n=3, spec=W2)
    a, b = fresh(5, config), fresh(5, config)
    shuffled = list(stream)
    rnd.shuffle(shuffled)
    for item in stream:
        a.update_item(item)
    for item in shuffled:
        b.update_item(item)
    assert a.counters() == b.counters()
    assert a.finalize_exact() == b.finalize_exact()


@settings(max_examples=60, deadline=None)
@given(tuples(4, 2, max_size=100), st.integers(0, 100))
def test_merge_equals_replay(stream, cut_raw):
    cut = cut_raw % (len(stream) + 1)
    whole, left, right = fresh(9), fresh(9), fresh(9)
    for item in stream:
        whole.update_item(item)
    for item in stream[:cut]:
        left.update_item(item)
    for item in stream[cut:]:
        right.update_item(item)
    merged = merge_sketches(left, right)
    assert merged.counters() == whole.counters()
    assert merge_sketches(right, left).counters() == merged.counters()


def test_merge_with_empty_is_identity():
    inst = fresh(4)
    for item in [(0, 1), (2, 3), (2, 3)]:
        inst.update_item(item)
    merged = merge_sketches(inst, fresh(4))
    assert merged.counters() == inst.counters()


def test_merge_mismatches_rejected():
    with pytest.raises(ValueError):
        merge_sketches(fresh(1), fresh(2))  # different seeds
    other_cfg = SketchConfig(k=2, n=3, spec=W2)
    with pytest.raises(ValueError):
        merge_sketches(fresh(1), fresh(1, other_cfg))


def test_instance_hash_compatibility_checked():
    hashes = derive_hashes(0, 2, W2, 2)
    with pytest.raises(ValueError):
        SketchInstance(CFG22, hashes)  # hash domain smaller than config n
    with pytest.raises(ValueError):
        SketchInstance(CFG22, hashes[:1])
