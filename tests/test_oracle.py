"""Oracle correctness: exact distance, enumerated moments, dual-route checks."""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prodsketch import oracle
from prodsketch.estimator import BankShape, EstimatorBank
from prodsketch.field import FieldSpec
from prodsketch.hashing import SignHash, SignHashSeed, batch_sign_eval
from prodsketch.oracle import (
    EnumerationBudgetError,
    FrequencyTable,
    exact_l2sq,
    exact_y_from_table,
    exhaustive_moments,
    seed_uniformity_census,
)
from prodsketch.sketch import EmptyStreamError, SketchConfig, SketchInstance
from prodsketch.streamgen import GenSpec, generate

W1 = FieldSpec(1)
W2 = FieldSpec(2)


def brute_l2sq(stream, k, n):
    """Independent oracle: the definition, a dense loop over all of [n]^k."""
    m = len(stream)
    joint = {}
    margs = [dict() for _ in range(k)]
    for item in stream:
        joint[item] = joint.get(item, 0) + 1
        for i, x in enumerate(item):
            margs[i][x] = margs[i].get(x, 0) + 1
    total = Fraction(0)
    for omega in itertools.product(range(n), repeat=k):
        pr = Fraction(joint.get(omega, 0), m)
        prod = Fraction(1)
        for i, x in enumerate(omega):
            prod *= Fraction(margs[i].get(x, 0), m)
        total += (pr - prod) ** 2
    return total


def scalar_l2sq(table):
    """The distance from the table one joint cell at a time, in Python ints."""
    m, k = table.m, table.k
    total = math.prod(sum(c * c for c in marg) for marg in table.marginals)
    scale = m ** (k - 1)
    for item, f in table.joint.items():
        p = math.prod(table.marginals[i][x] for i, x in enumerate(item))
        d = f * scale - p
        total += d * d - p * p
    return Fraction(total, m ** (2 * k))


def brute_moments(stream, k, n, spec):
    """Independent oracle: per-seed Y via real SketchInstances, then average."""
    seeds = 1 << (4 * spec.width)
    config = SketchConfig(k=k, n=n, spec=spec)
    e_y = Fraction(0)
    e_y2 = Fraction(0)
    for packed in itertools.product(range(seeds), repeat=k):
        hashes = tuple(
            SignHash(spec, SignHashSeed.from_int(s, spec.width), n) for s in packed
        )
        inst = SketchInstance(config, hashes)
        for a in stream:
            inst.update_item(a)
        y = inst.finalize_exact()
        e_y += y
        e_y2 += y * y
    total = Fraction(seeds**k)
    e_y /= total
    e_y2 /= total
    return e_y, e_y2 - e_y * e_y


def test_exact_l2sq_worked_examples():
    assert exact_l2sq(FrequencyTable.from_stream([(2, 3)], k=2, n=4)) == 0
    two = FrequencyTable.from_stream([(0, 0), (1, 1)], k=2, n=2)
    assert exact_l2sq(two) == Fraction(1, 4)
    full = FrequencyTable.from_stream(
        itertools.product(range(3), repeat=2), k=2, n=3
    )
    assert exact_l2sq(full) == 0


def test_exact_l2sq_empty_rejected():
    with pytest.raises(EmptyStreamError):
        exact_l2sq(FrequencyTable(2, 2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=25))
def test_exact_l2sq_matches_definition_loop(stream):
    table = FrequencyTable.from_stream(stream, k=2, n=3)
    assert exact_l2sq(table) == brute_l2sq(stream, 2, 3)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
                min_size=1, max_size=12))
def test_exact_l2sq_matches_definition_loop_k3(stream):
    table = FrequencyTable.from_stream(stream, k=3, n=2)
    assert exact_l2sq(table) == brute_l2sq(stream, 3, 2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=15),
       st.integers(2, 4))
def test_duplicating_the_stream_preserves_l2sq(stream, copies):
    one = FrequencyTable.from_stream(stream, k=2, n=4)
    many = FrequencyTable.from_stream(stream * copies, k=2, n=4)
    assert exact_l2sq(one) == exact_l2sq(many)


def test_frequency_table_invariants():
    stream = list(generate(GenSpec(n=4, k=2, m=50, lam=0.5, rng_seed=6)))
    t = FrequencyTable.from_stream(stream, k=2, n=4)
    assert sum(t.joint.values()) == t.m == 50
    for i in range(2):
        assert sum(t.marginals[i]) == t.m
        for x in range(4):
            assert t.marginals[i][x] == sum(
                f for item, f in t.joint.items() if item[i] == x
            )
    with pytest.raises(ValueError):
        t.add((9, 0))
    with pytest.raises(ValueError):
        t.add((0, 0, 0))


def test_table_refuses_what_the_bank_refuses():
    # The symbols test_non_integer_symbols_rejected feeds the bank, plus
    # out-of-range and ragged items: the table raises ValueError on each,
    # and a table that refuses an add is left as it was.
    bank = EstimatorBank(SketchConfig(k=2, n=4, spec=W2), shape=BankShape(2, 1))
    for item in [(1.5, 2), (np.float64(3.9), 1), ("1", "2"), (b"1", 2), (1, None),
                 (0, 4), (-1, 0), (0, 0, 0), (1 << 70, 0)]:
        with pytest.raises(ValueError):
            bank.ingest_many([(0, 0), item])
        with pytest.raises(ValueError):
            FrequencyTable.from_stream([(0, 0), item], k=2, n=4)
        table = FrequencyTable.from_stream([(1, 2), (1, 2)], k=2, n=4)
        with pytest.raises(ValueError):
            table.add(item)
        assert (table.joint, table.m) == ({(1, 2): 2}, 2)
        assert table.marginals == [[0, 2, 0, 0], [0, 0, 2, 0]]
        assert exact_l2sq(table) == 0
    assert bank.item_count == 0
    # Python ints, numpy ints of any width and bools are integers.
    items = [(1, 2), (np.int8(3), np.uint64(0)), (True, np.int64(2))]
    table = FrequencyTable.from_stream(items, k=2, n=4)
    assert table.joint == {(1, 2): 2, (3, 0): 1}
    for item in items:
        table.add(item)
    assert table.joint == {(1, 2): 4, (3, 0): 2} and table.m == 6


def test_add_is_exact_or_refused():
    # Counts merge through float64 sums, exact below 2^53: a count that
    # would take m there is refused, never rounded.
    table = FrequencyTable(2, 2)
    table.add((0, 1), (1 << 53) - 2)
    table.add((0, 1))
    assert table.joint == {(0, 1): (1 << 53) - 1} and table.m == (1 << 53) - 1
    for item, count in [((0, 1), 1), ((1, 0), 1 << 60), ((1, 1), 0), ((1, 1), -1), ((1, 1), 1.0)]:
        with pytest.raises(ValueError):
            table.add(item, count)
    assert table.joint == {(0, 1): (1 << 53) - 1} and table.m == (1 << 53) - 1
    assert table.marginals == [[(1 << 53) - 1, 0], [0, (1 << 53) - 1]]


def test_enumerated_moments_match_instance_bruteforce_w1_k2():
    # Dual route: the vectorized enumeration against per-seed SketchInstances.
    stream = [(0, 1), (1, 1), (0, 0), (1, 0), (0, 1), (1, 1), (1, 1)]
    table = FrequencyTable.from_stream(stream, k=2, n=2)
    fast = exhaustive_moments(table, spec=W1)
    slow_e, slow_var = brute_moments(stream, 2, 2, W1)
    assert fast.expectation == slow_e
    assert fast.variance == slow_var
    assert fast.expectation == exact_l2sq(table)


def test_enumerated_turnstile_matches_definition_w1_k2():
    vec = {(0, 0): Fraction(1, 2), (0, 1): -1, (1, 1): Fraction(3, 4)}
    fast = exhaustive_moments(vec, spec=W1, k=2, n=2)
    # direct: iterate all 256 seed pairs, Y = (sum w * h1 * h2)^2
    e_y = Fraction(0)
    e_y2 = Fraction(0)
    for s, t in itertools.product(range(16), repeat=2):
        h1 = SignHash(W1, SignHashSeed.from_int(s, 1), 2)
        h2 = SignHash(W1, SignHashSeed.from_int(t, 1), 2)
        acc = sum((Fraction(w) * h1(p[0]) * h2(p[1]) for p, w in vec.items()),
                  Fraction(0))
        y = acc * acc
        e_y += y
        e_y2 += y * y
    e_y /= 256
    e_y2 /= 256
    assert fast.expectation == e_y
    assert fast.variance == e_y2 - e_y * e_y
    assert fast.expectation == sum(Fraction(w) ** 2 for w in vec.values())


def test_expectation_equals_l2sq_on_fixed_batteries():
    from prodsketch.selftest import battery_streams_k2, battery_streams_k3

    for stream in battery_streams_k2():
        table = FrequencyTable.from_stream(stream, k=2, n=4)
        assert exhaustive_moments(table, spec=W2).expectation == exact_l2sq(table)
    for stream in battery_streams_k3():
        table = FrequencyTable.from_stream(stream, k=3, n=2)
        assert exhaustive_moments(table, spec=W1).expectation == exact_l2sq(table)


def test_variance_bounds_hold_exactly():
    from prodsketch.selftest import battery_streams_k2, battery_streams_k3

    for stream in battery_streams_k2():
        m = exhaustive_moments(FrequencyTable.from_stream(stream, k=2, n=4), spec=W2)
        assert m.variance <= 8 * m.expectation**2
    for stream in battery_streams_k3():
        m = exhaustive_moments(FrequencyTable.from_stream(stream, k=3, n=2), spec=W1)
        assert m.variance <= 26 * m.expectation**2


def test_k1_independence_estimator_is_identically_zero():
    table = FrequencyTable.from_stream([(0,), (1,), (1,), (3,)], k=1, n=4)
    m = exhaustive_moments(table, spec=W2)
    assert m.expectation == 0 and m.variance == 0 and m.ratio is None
    assert exact_l2sq(table) == 0


def test_uniform_vector_tightness_pinned():
    from prodsketch.selftest import PINNED_TIGHTNESS, uniform_vector

    for k in (1, 2):
        m = exhaustive_moments(uniform_vector(4, k), spec=W2, k=k, n=4)
        assert m.ratio == PINNED_TIGHTNESS[k]
        assert m.variance <= (3**k - 1) * m.expectation**2


def test_budget_rejections():
    table = FrequencyTable.from_stream([(0, 0)], k=2, n=2)
    with pytest.raises(EnumerationBudgetError):
        exhaustive_moments(table, spec=FieldSpec(4))
    t4 = FrequencyTable.from_stream([(0, 0, 0, 0)], k=4, n=2)
    with pytest.raises(EnumerationBudgetError):
        exhaustive_moments(t4, spec=W1)
    with pytest.raises(EnumerationBudgetError):
        exhaustive_moments(table, spec=W2, budget=1000)
    with pytest.raises(EmptyStreamError):
        exhaustive_moments(FrequencyTable(2, 2), spec=W2)


def test_refusals_come_before_any_expansion(monkeypatch):
    # A table past the width or k limit is refused from its k, n and m alone:
    # neither its counts nor the sign table may be read first.
    class Untouchable(FrequencyTable):
        def __getattribute__(self, name):
            if name in ("rows", "counts", "joint", "marginals"):
                raise AssertionError("counts read before the refusal")
            return super().__getattribute__(name)

    def no_signs(*args):
        raise AssertionError("sign table built before the refusal")

    monkeypatch.setattr("prodsketch.oracle.all_seed_signs", no_signs)
    wide = Untouchable(2, 1 << 16)
    wide.m = 1
    with pytest.raises(EnumerationBudgetError, match="width"):
        exhaustive_moments(wide, spec=FieldSpec(4))
    for n, spec in ((2, W1), (4, W2), (1 << 16, FieldSpec(16))):
        four = Untouchable(4, n)
        four.m = 1
        with pytest.raises(EnumerationBudgetError):
            exhaustive_moments(four, spec=spec)
    budget = Untouchable(3, 4)
    budget.m = 1
    with pytest.raises(EnumerationBudgetError, match="budget"):
        exhaustive_moments(budget, spec=W2, budget=(1 << 24) - 1)


def test_cleared_sign_table_cache_is_built_again(monkeypatch):
    # The benchmark clears the cache by name to time a cold enumeration.
    built = []
    monkeypatch.setattr(oracle, "batch_sign_eval",
                        lambda *args: built.append(args) or batch_sign_eval(*args))
    oracle._sign_table_cache.clear()
    table = oracle.all_seed_signs(W1, 2)
    assert oracle.all_seed_signs(W1, 2) is table and len(built) == 1
    oracle._sign_table_cache.clear()
    assert np.array_equal(oracle.all_seed_signs(W1, 2), table) and len(built) == 2


# Every w = 1 hash on [2] as a lookup of its scalar evaluations, so the loop
# below shares nothing with the oracle's sign tables.
W1_HASHES = [
    [h(0), h(1)].__getitem__
    for h in (SignHash(W1, SignHashSeed.from_int(s, 1), 2) for s in range(16))
]


def per_tuple_moments(y_of, k):
    """E[Y] and Var[Y] from Y at each seed tuple of the w = 1 family, one at a time."""
    ys = [y_of(hashes) for hashes in itertools.product(W1_HASHES, repeat=k)]
    e_y = sum(ys, Fraction(0)) / len(ys)
    return e_y, sum((y * y for y in ys), Fraction(0)) / len(ys) - e_y * e_y


# Counts and weights past about 2^15 put the enumeration's L1 bound^4 past
# 2^61, so the object-dtype path is held to the loop as well as the int64 one.
_COUNTS = st.lists(st.integers(0, 3) | st.integers(0, 10**6), min_size=8, max_size=8)
_WEIGHTS = st.lists(
    st.integers(-(10**6), 10**6) | st.fractions(-(10**6), 10**6, max_denominator=1000),
    min_size=8, max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 2), counts=_COUNTS)
@example(k=3, n=2, counts=[999_983, 0, 7, 31_337, 1, 500_009, 2, 65_521])
@example(k=2, n=2, counts=[1, 0, 0, 1, 0, 0, 0, 0])
def test_enumeration_matches_per_seed_table_loop(k, n, counts):
    cells = list(itertools.product(range(n), repeat=k))
    assume(any(counts[: len(cells)]))
    table = FrequencyTable(k, n)
    for p, c in zip(cells, counts):
        if c:
            table.add(p, c)
    fast = exhaustive_moments(table, spec=W1)
    slow = per_tuple_moments(lambda hashes: exact_y_from_table(table, hashes), k)
    assert (fast.expectation, fast.variance) == slow


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 2), weights=_WEIGHTS)
@example(k=3, n=2, weights=[-(10**6), Fraction(7, 3), 0, 999_999, Fraction(-1, 997), 5, -3, 1])
@example(k=1, n=2, weights=[Fraction(-1, 2), Fraction(1, 3)] + [0] * 6)
def test_enumeration_matches_per_seed_vector_loop(k, n, weights):
    vec = dict(zip(itertools.product(range(n), repeat=k), weights))

    def direct_y(hashes):
        acc = sum((w * math.prod(h(x) for h, x in zip(hashes, p)) for p, w in vec.items()),
                  Fraction(0))
        return acc * acc

    fast = exhaustive_moments(vec, spec=W1, k=k, n=n)
    assert (fast.expectation, fast.variance) == per_tuple_moments(direct_y, k)


def test_census_patterns_and_marginalization():
    census = seed_uniformity_census(W2, (0, 1, 2, 3))
    assert len(census) == 16
    assert all(c == 16 for c in census.values())
    assert sum(census.values()) == 256
    pair = seed_uniformity_census(W2, (1, 3))
    assert len(pair) == 4 and set(pair.values()) == {64}
    with pytest.raises(ValueError):
        seed_uniformity_census(W2, (0, 0, 1, 2))
    with pytest.raises(ValueError):
        seed_uniformity_census(W2, (0, 1, 2, 7))


def test_agreement_incremental_vs_table():
    config = SketchConfig(k=2, n=4, spec=W2)
    for i in range(15):
        stream = list(generate(GenSpec(n=4, k=2, m=35, lam=0.3, rng_seed=500 + i)))
        table = FrequencyTable.from_stream(stream, k=2, n=4)
        inst = SketchInstance.from_master_seed(config, master_seed=i)
        for a in stream:
            inst.update_item(a)
        assert inst.finalize_exact() == exact_y_from_table(table, inst.hashes)


def test_turnstile_requires_n():
    with pytest.raises(ValueError):
        exhaustive_moments({(0, 0): 1}, spec=W1)
    with pytest.raises(ValueError):
        exhaustive_moments({}, spec=W1, k=2, n=2)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 5), data=st.data())
def test_from_blocks_equals_scalar_table(k, n, data):
    items = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * k), min_size=1, max_size=60))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=6)))
    bounds = [0, *cuts, len(items)]
    blocks = [np.array(items[lo:hi], dtype=np.uint64).reshape(-1, k)
              for lo, hi in zip(bounds, bounds[1:])]
    table = FrequencyTable.from_blocks(iter(blocks), k, n)
    # The reference is built outside FrequencyTable: from_stream shares its code.
    joint = dict(collections.Counter(items))
    marginals = [[sum(f for p, f in joint.items() if p[i] == x) for x in range(n)]
                 for i in range(k)]
    assert (table.m, table.marginals, table.joint) == (len(items), marginals, joint)
    assert FrequencyTable.from_stream(items, k=k, n=n).joint == joint
    assert exact_l2sq(table) == scalar_l2sq(table) == brute_l2sq(items, k, n)
    support = len(joint)
    FrequencyTable.from_blocks(iter(blocks), k, n, max_support=support)
    with pytest.raises(ValueError, match=f"memory budget of {support - 1} entries"):
        FrequencyTable.from_blocks(iter(blocks), k, n, max_support=support - 1)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 4),
    n=st.integers(1, 4),
    counts=st.lists(st.integers(1, 1 << 40), min_size=1, max_size=12),
    data=st.data(),
)
def test_exact_l2sq_equals_scalar_formula_at_any_count(k, n, counts, data):
    # Counts up to 2^40 put m^(k+1) on both sides of 2^63, so both the int64
    # and the Python-int evaluation are held to the scalar formula.
    table = FrequencyTable(k, n)
    for c in counts:
        table.add(data.draw(st.tuples(*[st.integers(0, n - 1)] * k)), c)
    assert exact_l2sq(table) == scalar_l2sq(table)


def brute_table_l2sq(table):
    """The definition over all of [n]^k, from the table's counts."""
    m, total = table.m, Fraction(0)
    for omega in itertools.product(range(table.n), repeat=table.k):
        prod = math.prod(Fraction(table.marginals[i][x], m) for i, x in enumerate(omega))
        total += (Fraction(table.joint.get(omega, 0), m) - prod) ** 2
    return total


@pytest.mark.parametrize("cells", [
    {(0, 0): (1 << 20) - 1, (1, 1): 1 << 20},  # m^3 just below 2^63: int64
    {(0, 0): 1 << 21, (1, 1): 1 << 21},  # m^2 < 2^63 < m^3, and sum f p = 2^64
    {(0, 0): 3 << 40, (1, 1): 1 << 40, (0, 1): 5},  # m^2 > 2^63
])
def test_exact_l2sq_on_both_sides_of_int64(cells):
    table = FrequencyTable(2, 2)
    for item, c in cells.items():
        table.add(item, c)
    assert exact_l2sq(table) == scalar_l2sq(table) == brute_table_l2sq(table)

