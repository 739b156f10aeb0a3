"""Oracle correctness: exact distance, enumerated moments, dual-route checks."""

import collections
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prodsketch import oracle
from prodsketch.estimator import BankShape, EstimatorBank
from prodsketch.field import FieldSpec
from prodsketch.hashing import SignHash, batch_sign_eval
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


def joint(table):
    """The table's joint counts as a dict from k-tuples to counts."""
    return dict(zip(map(tuple, table.rows.tolist()), table.counts.tolist()))


def marginals(table):
    """Each dimension's counts by symbol, summed from the joint counts."""
    margs = [collections.Counter() for _ in range(table.k)]
    for item, f in joint(table).items():
        for i, x in enumerate(item):
            margs[i][x] += f
    return margs


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
    m, k, margs = table.m, table.k, marginals(table)
    total = math.prod(sum(c * c for c in marg.values()) for marg in margs)
    scale = m ** (k - 1)
    for item, f in joint(table).items():
        p = math.prod(margs[i][x] for i, x in enumerate(item))
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
        hashes = tuple(SignHash(spec, s, n) for s in packed)
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


def test_oracles_read_the_present_symbols_of_a_64_bit_alphabet():
    # n = 2^64: a cell with an absent symbol has joint count and marginal
    # product both 0, so the definition sums over present symbols only.
    top = (1 << 64) - 1
    stream = [(5, 7), (top, 7), (5, 0), (1 << 63, top), (top, 7), ((1 << 63) + 1, 0)]
    table = FrequencyTable.from_stream(stream, k=2, n=1 << 64)
    m, counts = len(stream), collections.Counter(stream)
    margs = [collections.Counter(p[i] for p in stream) for i in range(2)]
    want = sum((Fraction(counts[p], m) - Fraction(margs[0][p[0]] * margs[1][p[1]], m * m)) ** 2
               for p in itertools.product(*margs))
    assert exact_l2sq(table) == want
    config = SketchConfig(k=2, n=1 << 64, spec=FieldSpec(64))
    for seed in range(3):
        inst = SketchInstance.from_master_seed(config, master_seed=seed)
        for a in stream:
            inst.update_item(a)
        assert exact_y_from_table(table, inst.hashes) == inst.finalize_exact()


def test_frequency_table_invariants():
    stream = list(generate(GenSpec(n=4, k=2, m=50, lam=0.5, rng_seed=6)))
    t = FrequencyTable.from_stream(stream, k=2, n=4)
    assert sum(joint(t).values()) == t.m == 50
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
        assert (joint(table), table.m) == ({(1, 2): 2}, 2)
        assert exact_l2sq(table) == 0
    assert bank.item_count == 0
    # Python ints, numpy ints of any width and bools are integers.
    items = [(1, 2), (np.int8(3), np.uint64(0)), (True, np.int64(2))]
    table = FrequencyTable.from_stream(items, k=2, n=4)
    assert joint(table) == {(1, 2): 2, (3, 0): 1}
    for item in items:
        table.add(item)
    assert joint(table) == {(1, 2): 4, (3, 0): 2} and table.m == 6


def test_add_is_exact_or_refused():
    # Counts merge through float64 sums, exact below 2^53: a count that
    # would take m there is refused, never rounded.
    table = FrequencyTable(2, 2)
    table.add((0, 1), (1 << 53) - 2)
    table.add((0, 1))
    assert joint(table) == {(0, 1): (1 << 53) - 1} and table.m == (1 << 53) - 1
    for item, count in [((0, 1), 1), ((1, 0), 1 << 60), ((1, 1), 0), ((1, 1), -1), ((1, 1), 1.0)]:
        with pytest.raises(ValueError):
            table.add(item, count)
    assert joint(table) == {(0, 1): (1 << 53) - 1} and table.m == (1 << 53) - 1


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
    fast = exhaustive_moments(vec, spec=W1, n=2)
    # direct: iterate all 256 seed pairs, Y = (sum w * h1 * h2)^2
    e_y = Fraction(0)
    e_y2 = Fraction(0)
    for s, t in itertools.product(range(16), repeat=2):
        h1 = SignHash(W1, s, 2)
        h2 = SignHash(W1, t, 2)
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
    from prodsketch.selftest import battery_streams

    for stream in battery_streams(2):
        table = FrequencyTable.from_stream(stream, k=2, n=4)
        assert exhaustive_moments(table, spec=W2).expectation == exact_l2sq(table)
    for stream in battery_streams(3):
        table = FrequencyTable.from_stream(stream, k=3, n=2)
        assert exhaustive_moments(table, spec=W1).expectation == exact_l2sq(table)


def test_variance_bounds_hold_exactly():
    from prodsketch.selftest import battery_streams

    for stream in battery_streams(2):
        m = exhaustive_moments(FrequencyTable.from_stream(stream, k=2, n=4), spec=W2)
        assert m.variance <= 8 * m.expectation**2
    for stream in battery_streams(3):
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
        m = exhaustive_moments(uniform_vector(4, k), spec=W2, n=4)
        assert m.ratio == PINNED_TIGHTNESS[k]
        assert m.variance <= (3**k - 1) * m.expectation**2


def test_budget_rejections():
    table = FrequencyTable.from_stream([(0, 0)], k=2, n=2)
    with pytest.raises(EnumerationBudgetError):
        exhaustive_moments(table, spec=FieldSpec(4))
    t4 = FrequencyTable.from_stream([(0, 0, 0, 0)], k=4, n=2)
    with pytest.raises(EnumerationBudgetError):
        exhaustive_moments(t4, spec=W1)
    with pytest.raises(EmptyStreamError):
        exhaustive_moments(FrequencyTable(2, 2), spec=W2)


def test_refusals_come_before_any_expansion(monkeypatch):
    # A table past the width or k limit is refused from its k, n and m alone:
    # neither its counts nor the sign table may be read first.
    class Untouchable(FrequencyTable):
        def __getattribute__(self, name):
            if name in ("rows", "counts", "joint"):
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


def test_sign_table_row_is_its_seeds_hash():
    # Row s holds the hash SignHash(spec, s, n): for w <= 16 a seed is its
    # own packed hash word.  Moments cannot see this, since they are
    # invariant under any permutation of the seeds.
    for spec, n in ((W1, 2), (W2, 4)):
        want = [[SignHash(spec, s, n)(x) for x in range(n)]
                for s in range(1 << (4 * spec.width))]
        assert oracle.all_seed_signs(spec, n).tolist() == want


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
    for h in (SignHash(W1, s, 2) for s in range(16))
]


def per_tuple_moments(y_of, k):
    """E[Y] and Var[Y] from Y at each seed tuple of the w = 1 family, one at a time."""
    ys = [y_of(hashes) for hashes in itertools.product(W1_HASHES, repeat=k)]
    e_y = sum(ys, Fraction(0)) / len(ys)
    return e_y, sum((y * y for y in ys), Fraction(0)) / len(ys) - e_y * e_y


# Counts and weights up to 10^6 put the fourth powers summed by the
# enumeration far past 2^63, so its sums must stay exact Python ints.
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

    fast = exhaustive_moments(vec, spec=W1, n=n)
    assert (fast.expectation, fast.variance) == per_tuple_moments(direct_y, k)


def seed_table_moments(vector, scale):
    """E[Y] and Var[Y] of Y = (sum_p vector_p H(p) / scale)^2 at w = 2, k <= 2.

    Y is summed over every one of the 256^k seed tuples, straight from the
    full (256, n) sign table, with no grouping of seeds.
    """
    signs = oracle.all_seed_signs(W2, vector.shape[0]).astype(object)
    num = signs @ vector
    if vector.ndim == 2:
        num = num @ signs.T
    num2, tuples = num * num, 256**vector.ndim
    e_y = Fraction(int(num2.sum()), tuples * scale**2)
    return e_y, Fraction(int((num2 * num2).sum()), tuples * scale**4) - e_y * e_y


def test_w2_enumeration_matches_every_seed_tuple():
    from prodsketch.selftest import battery_streams

    for stream in battery_streams(2):
        m, counts = len(stream), collections.Counter(stream)
        f1, f2 = (collections.Counter(column) for column in zip(*stream))
        v = np.array([[m * counts[a, b] - f1[a] * f2[b] for b in range(4)] for a in range(4)],
                     dtype=object)
        fast = exhaustive_moments(FrequencyTable.from_stream(stream, k=2, n=4), spec=W2)
        assert (fast.expectation, fast.variance) == seed_table_moments(v, m**2)
    # Weights past 2^15: fourth powers of the numerators pass 2^63.
    big = {(0, 0): 3**20, (1, 2): 7 - (1 << 40), (3, 3): 40_000, (2, 1): Fraction(-65_537, 3)}
    grid = np.zeros((4, 4), dtype=object)
    for p, w in big.items():
        grid[p] = int(w * 3)
    # The same weights at k = 1 (their first symbols are distinct) and at k = 2.
    for vec, v in (({p[:1]: w for p, w in big.items()}, grid.sum(1)), (big, grid)):
        fast = exhaustive_moments(vec, spec=W2, n=4)
        assert (fast.expectation, fast.variance) == seed_table_moments(v, 3)


def test_a_flipped_seed_sign_is_caught(monkeypatch):
    # Negative control: one wrong sign (seed 0, symbol 2) must change E[Y] on
    # some battery table.  Swapping the rows of seeds that differ only in c0
    # would not: those rows are negations of each other and Y is even in them.
    from prodsketch.selftest import battery_streams

    flipped = oracle.all_seed_signs(W2, 4).copy()
    flipped[0, 2] *= -1
    monkeypatch.setattr(oracle, "all_seed_signs", lambda spec, n: flipped)
    tables = [FrequencyTable.from_stream(s, k=2, n=4) for s in battery_streams(2)]
    assert any(exhaustive_moments(t, spec=W2).expectation != exact_l2sq(t) for t in tables)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 4), weights=_WEIGHTS)
def test_negating_the_sign_table_leaves_the_moments(k, n, weights):
    # Y is even in each dimension's sign, so negating every seed's row is invisible.
    vec = dict(zip(itertools.product(range(n), repeat=k), weights))
    moments, negated = exhaustive_moments(vec, spec=W2, n=n), -oracle.all_seed_signs(W2, n)
    with mock.patch.object(oracle, "all_seed_signs", lambda spec, n: negated):
        assert exhaustive_moments(vec, spec=W2, n=n) == moments


def test_full_budget_enumeration_stays_small():
    from prodsketch.selftest import uniform_vector

    oracle.all_seed_signs(W2, 4)  # the cached sign table is not counted
    tracemalloc.start()
    try:
        exhaustive_moments(uniform_vector(4, 3), spec=W2, n=4)  # 2^24 seed tuples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def object_moments(vec, k, n, spec):
    """E[Y] and Var[Y] of a turnstile vector, contracted in Python ints only.

    The rows come from ``np.unique`` and each row tuple is weighted by the
    outer product of its k seed counts, with no dtype choice and no row codes.
    """
    weights = {p: Fraction(w) for p, w in vec.items()}
    scale = math.lcm(*(w.denominator for w in weights.values()))
    num = np.zeros((n,) * k, dtype=object)
    for p, w in weights.items():
        num[p] = int(w * scale)
    signs, mult = np.unique(oracle.all_seed_signs(spec, n), axis=0, return_counts=True)
    for _ in range(k):
        num = np.tensordot(num, signs.astype(object), axes=([0], [1]))
    weight = functools.reduce(np.multiply.outer, [mult.astype(object)] * k)
    tuples = (1 << (4 * spec.width)) ** k
    e_y = Fraction(int((weight * num**2).sum()), tuples * scale**2)
    return e_y, Fraction(int((weight * num**4).sum()), tuples * scale**4) - e_y * e_y


# ||v||_1 = 64·51 = 3264: the sign contractions and Σ num² stay int64, and
# Σ num⁴ turns to Python ints at its third dimension (3264⁴·2¹⁶ < 2⁶³ ≤ 3264⁴·2²⁴).
_PARTWAY = [51, -51]
# ||v||_1 = 32,000: num⁴ fits int64, Σ num⁴ turns at its first dimension.
_FIRST = [500, -500, 499, -501]


@settings(max_examples=40, deadline=None)
@given(
    width=st.sampled_from([1, 2]), k=st.integers(1, 3), n_frac=st.floats(0, 1),
    weights=st.lists(
        st.integers(-3, 3) | st.integers(-(1 << 12), 1 << 12) | st.integers(-(1 << 40), 1 << 40)
        | st.fractions(-(10**6), 10**6, max_denominator=1000)
        | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=64,
    ),
)
@example(width=2, k=3, n_frac=1, weights=_PARTWAY)
@example(width=2, k=3, n_frac=1, weights=_FIRST)
@example(width=2, k=3, n_frac=1, weights=[1 << 40, -7, Fraction(1, 3), 2.5])
@example(width=1, k=3, n_frac=1, weights=[1 << 12, 3, -(1 << 12)])
def test_bounded_dtype_enumeration_equals_python_int_contraction(width, k, n_frac, weights):
    # Both sides of the int64 bound ||v||_1^4 < 2^63, and of each weighted sum's.
    spec = FieldSpec(width)
    n = max(1, math.ceil(n_frac * spec.order))
    vec = dict(zip(itertools.product(range(n), repeat=k), itertools.cycle(weights)))
    assume(any(vec.values()))
    got = exhaustive_moments(vec, spec=spec, n=n)
    assert (got.expectation, got.variance) == object_moments(vec, k, n, spec)


def test_sign_row_codes_give_the_rows_of_unique():
    rng = np.random.default_rng(5)
    tables = [oracle.all_seed_signs(spec, n) for spec in (W1, W2)
              for n in range(1, spec.order + 1)]
    tables += [1 - 2 * rng.integers(0, 2, (256, n), dtype=np.int8) for n in range(1, 5)]
    for signs in tables:
        rows, counts = oracle._distinct_sign_rows(signs)
        want_rows, want_counts = np.unique(signs, axis=0, return_counts=True)
        assert sorted(zip(rows.tolist(), counts.tolist())) == sorted(
            zip(want_rows.tolist(), want_counts.tolist()))


def test_bench_shaped_enumeration_contracts_in_int64(monkeypatch):
    # n = 4, k = 3, m = 16: ||v||_1 <= 2 m^k = 2^13 for any stream, so the
    # sign contraction and the weighted sum of num^2 run in int64 throughout;
    # only the sum of num^4 may turn to Python ints, after an int64 first axis.
    calls, real = [], oracle._contract

    def spy(t, matrix, bound, growth=1):
        out = real(t, matrix, bound, growth)
        calls.append((t.dtype, out.dtype, bound * growth < 1 << 63))
        return out

    monkeypatch.setattr(oracle, "_contract", spy)
    for seed in range(1, 6):
        stream = list(generate(GenSpec(n=4, k=3, m=16, lam=0.5, rng_seed=seed)))
        calls.clear()
        exhaustive_moments(FrequencyTable.from_stream(stream, k=3, n=4), spec=W2)
        assert len(calls) == 3
        assert calls[:2] == [(np.int64, np.int64, True)] * 2, calls
        assert calls[2][0] == np.int64 and calls[2][2], calls


def test_deviation_vector_dtype_boundary_keeps_exact_moments():
    # m^3 just below and just above 2^62: one large count makes the table's
    # deviation vector int64 on one side and Python ints on the other.
    dtypes = []
    for m in (1_664_510, 1_664_511):
        table = FrequencyTable(3, 4)
        for item, count in (((0, 1, 2), 1), ((3, 3, 1), 2), ((1, 0, 3), 5)):
            table.add(item, count)
        table.add((2, 2, 0), m - table.m)
        dtypes.append(oracle._deviation_vector(table).dtype)
        f, margs = joint(table), marginals(table)
        vec = {p: Fraction(m**2 * f.get(p, 0) - math.prod(g[x] for g, x in zip(margs, p)), m**3)
               for p in itertools.product(range(4), repeat=3)}
        e_y, variance = object_moments(vec, 3, 4, W2)
        want = oracle.ExactMoments(e_y, variance, variance / (e_y * e_y))
        assert exhaustive_moments(table, spec=W2) == want
    assert dtypes == [np.int64, object]


def test_cold_enumeration_evaluates_its_sign_table_once(monkeypatch):
    # The benchmark clears the cache by name to time a cold enumeration, and
    # its tracer binds oracle.all_seed_signs and oracle.batch_sign_eval.
    reached, built, real_signs = [], [], oracle.all_seed_signs
    monkeypatch.setattr(oracle, "all_seed_signs",
                        lambda *args: reached.append(args) or real_signs(*args))
    monkeypatch.setattr(oracle, "batch_sign_eval",
                        lambda *args: built.append(args) or batch_sign_eval(*args))
    table = FrequencyTable.from_stream([(0, 1, 2), (3, 3, 0), (0, 1, 2)], k=3, n=4)
    oracle._sign_table_cache.clear()
    cold = exhaustive_moments(table, spec=W2)
    assert len(reached) == 1 and len(built) == 1
    assert exhaustive_moments(table, spec=W2) == cold
    assert len(reached) == 2 and len(built) == 1


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
        exhaustive_moments({}, spec=W1, n=2)


def test_arguments_read_nowhere_are_refused():
    # A table carries its own k and n, and a vector's arity is the length
    # of its keys: neither may be overridden by an argument that is ignored.
    table = FrequencyTable.from_stream([(0, 1), (1, 1), (2, 0)], k=2, n=4)
    with pytest.raises(ValueError, match="its own n"):
        exhaustive_moments(table, spec=W2, n=3)
    with pytest.raises(ValueError, match="its own n"):
        exhaustive_moments(table, spec=W2, n=4)
    with pytest.raises(TypeError):
        exhaustive_moments({(0, 0): 1}, spec=W1, k=2, n=2)


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
    counts = dict(collections.Counter(items))
    assert (table.m, joint(table)) == (len(items), counts)
    assert joint(FrequencyTable.from_stream(items, k=k, n=n)) == counts
    assert exact_l2sq(table) == scalar_l2sq(table) == brute_l2sq(items, k, n)
    support = len(counts)
    FrequencyTable.from_blocks(iter(blocks), k, n, max_support=support)
    with pytest.raises(ValueError, match=f"memory budget of {support - 1} entries"):
        FrequencyTable.from_blocks(iter(blocks), k, n, max_support=support - 1)
    # One more add: the counts read afterwards count the new item too.
    extra = data.draw(st.tuples(*[st.integers(0, n - 1)] * k))
    table.add(extra)
    items.append(extra)
    assert (table.m, joint(table)) == (len(items), dict(collections.Counter(items)))


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
    m, total, margs, counts = table.m, Fraction(0), marginals(table), joint(table)
    for omega in itertools.product(range(table.n), repeat=table.k):
        prod = math.prod(Fraction(margs[i][x], m) for i, x in enumerate(omega))
        total += (Fraction(counts.get(omega, 0), m) - prod) ** 2
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

