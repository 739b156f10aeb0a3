"""Bank behavior: shape derivation, scalar equivalence, merging, snapshots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsketch import estimator
from prodsketch.estimator import (
    AccuracyParams,
    BankShape,
    EstimatorBank,
    _median_lower,
    derive_shape,
    merge_banks,
)
from prodsketch.field import SUPPORTED_WIDTHS, FieldSpec
from prodsketch.oracle import FrequencyTable, exact_y_from_table
from prodsketch.sketch import EmptyStreamError, SketchConfig, SketchInstance
from prodsketch.streamgen import GenSpec, generate

W2 = FieldSpec(2)
W4 = FieldSpec(4)
CFG = SketchConfig(k=2, n=4, spec=W2)


def small_bank(master_seed=0, s1=3, s2=2, config=CFG):
    return EstimatorBank(config, shape=BankShape(s1, s2), master_seed=master_seed)


def test_derive_shape_constants():
    assert derive_shape(AccuracyParams(1.0, 0.5), 2) == BankShape(64, 2)
    assert derive_shape(AccuracyParams(1.0, 0.5), 2, paper_constants=True) == BankShape(72, 2)
    assert derive_shape(AccuracyParams(0.5, math.exp(-2)), 2).s2 == 4
    assert derive_shape(AccuracyParams(0.2, 0.1), 3) == BankShape(5200, 5)
    # paper-constants mode is defined only at k=2; elsewhere it derives
    assert derive_shape(AccuracyParams(0.2, 0.1), 3, paper_constants=True) == BankShape(5200, 5)


def test_accuracy_params_validation():
    with pytest.raises(ValueError):
        AccuracyParams(0.0, 0.1)
    with pytest.raises(ValueError):
        AccuracyParams(1.5, 0.1)
    with pytest.raises(ValueError):
        AccuracyParams(0.5, 0.0)
    with pytest.raises(ValueError):
        AccuracyParams(0.5, 1.0)
    AccuracyParams(1.0, 0.999)  # eps = 1 allowed for the unit-error shapes


def test_bank_shape_validation():
    with pytest.raises(ValueError):
        BankShape(0, 1)
    with pytest.raises(ValueError):
        BankShape(1, 0)
    # k past the 256 dimensions the seed counter layout holds
    with pytest.raises(ValueError):
        SketchConfig(k=300, n=4, spec=W2)
    with pytest.raises(ValueError):
        SketchConfig(k=0, n=4, spec=W2)


def test_state_size_accounting():
    assert small_bank(s1=1, s2=1, config=SketchConfig(k=1, n=2, spec=W2)).state_size().counters == 2
    b = small_bank(s1=64, s2=4)
    assert b.state_size().counters == 768
    assert b.state_size().seeds == 64 * 4 * 2 * 4
    derived = EstimatorBank(
        SketchConfig(k=3, n=8, spec=W4), params=AccuracyParams(0.2, 0.1), master_seed=1
    )
    assert derived.state_size().counters == 104000


def test_bank_equals_grid_of_scalar_instances():
    stream = list(generate(GenSpec(n=4, k=2, m=120, lam=0.4, rng_seed=55)))
    bank = small_bank(master_seed=9, s1=4, s2=3)
    bank.ingest_many(stream)
    values = bank.instance_values()
    for g in range(3):
        for j in range(4):
            inst = SketchInstance.from_master_seed(CFG, 9, group=g, index=j)
            for a in stream:
                inst.update_item(a)
            assert bank.instance_view(g, j).counters() == inst.counters()
            assert values[g, j] == inst.finalize()


def test_ingest_one_by_one_equals_batch():
    stream = list(generate(GenSpec(n=4, k=2, m=75, lam=0.2, rng_seed=4)))
    a, b = small_bank(7), small_bank(7)
    for item in stream:
        a.ingest(item)
    b.ingest_many(stream)
    assert a.counters_equal(b)
    assert a.estimate() == b.estimate()


def test_ingest_streams_concatenate():
    s1 = list(generate(GenSpec(n=4, k=2, m=40, lam=0.0, rng_seed=1)))
    s2 = list(generate(GenSpec(n=4, k=2, m=30, lam=1.0, rng_seed=2)))
    a = small_bank(3)
    a.ingest_many(s1)
    a.ingest_many(s2)
    b = small_bank(3)
    b.ingest_many(s1 + s2)
    assert a.counters_equal(b)


def test_estimate_zero_cases():
    for seed in range(5):
        bank = small_bank(seed)
        bank.ingest((1, 2))
        assert bank.estimate().l2_squared == 0.0
        bank2 = small_bank(seed)
        bank2.ingest_many([(3, 0)] * 17)
        assert bank2.estimate().l2_squared == 0.0
        bank3 = small_bank(seed)
        bank3.ingest_many([(x, y) for x in range(4) for y in range(4)])
        assert bank3.estimate().l2_squared == 0.0


def test_empty_bank_estimate_raises():
    with pytest.raises(EmptyStreamError):
        small_bank().estimate()


def test_degenerate_bank_is_single_instance():
    stream = list(generate(GenSpec(n=4, k=2, m=33, lam=0.6, rng_seed=8)))
    bank = small_bank(master_seed=2, s1=1, s2=1)
    bank.ingest_many(stream)
    inst = SketchInstance.from_master_seed(CFG, 2)
    for a in stream:
        inst.update_item(a)
    assert bank.estimate().l2_squared == inst.finalize()


def test_median_lower_tie_rule():
    assert _median_lower(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0  # even: lower middle
    assert _median_lower(np.array([5.0, 1.0, 3.0])) == 3.0
    assert _median_lower(np.array([7.0])) == 7.0


def test_estimate_is_median_of_group_means():
    stream = list(generate(GenSpec(n=4, k=2, m=50, lam=0.9, rng_seed=77)))
    bank = small_bank(master_seed=31, s1=5, s2=4)
    bank.ingest_many(stream)
    means = sorted(bank.instance_values().mean(axis=1))
    assert bank.estimate().l2_squared == means[1]
    assert bank.estimate().l2 == math.sqrt(means[1])


def test_determinism_and_permutation_invariance():
    stream = list(generate(GenSpec(n=4, k=2, m=64, lam=0.3, rng_seed=12)))
    a, b = small_bank(5), small_bank(5)
    a.ingest_many(stream)
    b.ingest_many(list(reversed(stream)))
    assert a.counters_equal(b)
    assert a.estimate() == b.estimate()


def test_monotone_refinement_keeps_cell_values():
    stream = list(generate(GenSpec(n=4, k=2, m=48, lam=0.5, rng_seed=3)))
    narrow = small_bank(master_seed=6, s1=3, s2=2)
    wide = small_bank(master_seed=6, s1=5, s2=2)
    narrow.ingest_many(stream)
    wide.ingest_many(stream)
    assert np.array_equal(wide.instance_values()[:, :3], narrow.instance_values())


def test_merge_banks_identity_split_commute():
    stream = list(generate(GenSpec(n=4, k=2, m=90, lam=0.2, rng_seed=10)))
    whole = small_bank(1)
    whole.ingest_many(stream)
    empty = small_bank(1)
    assert merge_banks(whole, empty).counters_equal(whole)
    left, right = small_bank(1), small_bank(1)
    left.ingest_many(stream[:37])
    right.ingest_many(stream[37:])
    assert merge_banks(left, right).counters_equal(whole)
    assert merge_banks(right, left).counters_equal(whole)


def test_merge_banks_mismatch_rejected():
    with pytest.raises(ValueError):
        merge_banks(small_bank(1), small_bank(2))
    with pytest.raises(ValueError):
        merge_banks(small_bank(1), small_bank(1, s1=4))


def test_snapshot_roundtrip_bit_exact():
    stream = list(generate(GenSpec(n=4, k=2, m=41, lam=0.7, rng_seed=19)))
    bank = small_bank(master_seed=(1 << 63) + 17)  # exercises signed packing
    bank.ingest_many(stream)
    blob = bank.snapshot_bytes()
    back = EstimatorBank.from_snapshot_bytes(blob)
    assert back.counters_equal(bank)
    assert back.master_seed == bank.master_seed
    assert back.snapshot_bytes() == blob
    assert back.estimate() == bank.estimate()


def test_snapshot_file_roundtrip(tmp_path):
    bank = small_bank(77)
    bank.ingest_many([(0, 0), (1, 3)])
    path = tmp_path / "bank.snap"
    bank.save(path)
    assert EstimatorBank.load(path).counters_equal(bank)


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        EstimatorBank.from_snapshot_bytes(b"NOTASNAP" + b"\0" * 64)
    bank = small_bank(0)
    bank.ingest((0, 0))
    blob = bank.snapshot_bytes()
    with pytest.raises(ValueError):
        EstimatorBank.from_snapshot_bytes(blob[:-8])  # truncated body
    with pytest.raises(ValueError):
        EstimatorBank.from_snapshot_bytes(blob[:20])  # truncated header
    header = estimator._HEADER.pack(1, 300, 4, 2, 2, 1, 0, 0)
    body = np.zeros(2 * 302, dtype="<i8").tobytes()
    with pytest.raises(ValueError):
        EstimatorBank.from_snapshot_bytes(estimator._MAGIC + header + body)  # k > 256


def test_bank_symbol_validation():
    bank = small_bank()
    with pytest.raises(ValueError):
        bank.ingest((0, 4))
    with pytest.raises(ValueError):
        bank.ingest_many([(0, 0), (1, 1, 1)])


def test_requires_params_or_shape():
    with pytest.raises(ValueError):
        EstimatorBank(CFG)


def test_big_item_count_uses_exact_fallback():
    # Force m^k past the int64-safe range; values must match exact rationals.
    from fractions import Fraction

    bank = small_bank(master_seed=1, s1=2, s2=1)
    bank._m = 1 << 32
    bank._t1[:] = [1 << 31, -(1 << 30)]
    bank._marg[:] = [[1 << 31, 1 << 29], [-(3 << 29), 1 << 31]]
    values = bank.instance_values()
    m = 1 << 32
    for j in range(2):
        u = int(bank._t1[j]) * m - int(bank._marg[j][0]) * int(bank._marg[j][1])
        assert values[0, j] == float(Fraction(u * u, m**4))


def test_large_alphabet_skips_tables():
    # A large alphabet: per-chunk sign evaluation must agree with the scalar path.
    spec = FieldSpec(64)
    config = SketchConfig(k=2, n=1 << 40, spec=spec)
    bank = EstimatorBank(config, shape=BankShape(2, 2), master_seed=123)
    items = [(123456789, 987654321), (1 << 39, 42), (123456789, 987654321)]
    bank.ingest_many(items)
    for g in range(2):
        for j in range(2):
            inst = SketchInstance.from_master_seed(config, 123, group=g, index=j)
            for a in items:
                inst.update_item(a)
            assert bank.instance_view(g, j).counters() == inst.counters()


def test_full_width_symbols_match_scalar_instances():
    # Symbols at and above 2^63 take the uint64 path; counters equal the
    # scalar instances'.
    config = SketchConfig(k=2, n=1 << 64, spec=FieldSpec(64))
    top = (1 << 64) - 1
    items = [(top, 0), (1 << 63, top), (top, 0), (5, (1 << 63) + 7)]
    bank = EstimatorBank(config, shape=BankShape(3, 2), master_seed=9)
    bank.ingest_many(items)
    for g in range(2):
        for j in range(3):
            inst = SketchInstance.from_master_seed(config, 9, group=g, index=j)
            for a in items:
                inst.update_item(a)
            assert bank.instance_view(g, j).counters() == inst.counters()


def test_working_set_cap_splits_chunks_exactly(monkeypatch):
    # A cap of one entry splits every chunk down to single items and every
    # joint product into one-row slabs; the counters must not change.
    items = list(generate(GenSpec(n=16, k=3, m=300, lam=0.4, rng_seed=4)))
    config = SketchConfig(k=3, n=16, spec=W4)
    whole = small_bank(3, s1=5, s2=3, config=config)
    whole.ingest_many(items)
    monkeypatch.setattr(estimator, "_WORKING_ENTRIES", 1)
    split = small_bank(3, s1=5, s2=3, config=config)
    split.ingest_many(items)
    assert split.counters_equal(whole) and split.item_count == 300


def test_negative_and_oversized_symbols_rejected():
    config = SketchConfig(k=2, n=1 << 64, spec=FieldSpec(64))
    bank = EstimatorBank(config, shape=BankShape(1, 1))
    for item in [(0, -1), (1 << 64, 0)]:
        with pytest.raises(ValueError, match="out of range"):
            bank.ingest_many([(0, 0), item])
    assert bank.item_count == 0


def test_wide_tuples_match_scalar_instances():
    # ~175 distinct symbols in each of 9 dimensions overflow an int64
    # mixed-radix item code, so ingest must re-rank the codes on the way.
    config = SketchConfig(k=9, n=1 << 16, spec=FieldSpec(16))
    rng = np.random.default_rng(5)
    items = [tuple(row) for row in (rng.integers(0, 256, size=(300, 9)) * 255).tolist()]
    items += items[:50]
    bank = EstimatorBank(config, shape=BankShape(2, 1), master_seed=11)
    bank.ingest_many(items)
    for j in range(2):
        inst = SketchInstance.from_master_seed(config, 11, index=j)
        for a in items:
            inst.update_item(a)
        assert bank.instance_view(0, j).counters() == inst.counters()


@st.composite
def _bank_cases(draw):
    """A field width, config, bank shape, seed and a short stream.

    Each dimension draws a pool of up to four distinct symbols below n,
    always with n - 1, and the stream picks from the pools, so symbols
    span the whole width while the oracle's table stays small.
    """
    width = draw(st.sampled_from(SUPPORTED_WIDTHS))
    n = draw(st.integers(1, 1 << width))
    k = draw(st.integers(1, 4))
    pools = [
        sorted({n - 1, *draw(st.lists(st.integers(0, n - 1), max_size=3))})
        for _ in range(k)
    ]
    picks = draw(st.lists(
        st.tuples(*[st.integers(0, len(pool) - 1) for pool in pools]),
        min_size=1, max_size=20,
    ))
    shape = BankShape(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    seed = draw(st.integers(0, (1 << 64) - 1))
    return SketchConfig(k=k, n=n, spec=FieldSpec(width)), shape, seed, pools, picks


@settings(max_examples=100, deadline=None)
@given(_bank_cases())
def test_bank_scalar_and_table_oracle_agree_at_every_width(case):
    config, shape, seed, pools, picks = case
    items = [tuple(pool[i] for pool, i in zip(pools, pick)) for pick in picks]
    bank = EstimatorBank(config, shape=shape, master_seed=seed)
    bank.ingest_many(items)
    values = bank.instance_values()
    # The table counts pool indexes; the oracle's hashes read them back as symbols.
    table = FrequencyTable.from_stream(picks, config.k, max(map(len, pools)))
    for g in range(shape.s2):
        for j in range(shape.s1):
            inst = SketchInstance.from_master_seed(config, seed, group=g, index=j)
            for a in items:
                inst.update_item(a)
            by_index = tuple(
                (lambda i, h=h, pool=pool: h(pool[i])) for h, pool in zip(inst.hashes, pools)
            )
            oracle = float(exact_y_from_table(table, by_index))
            assert values[g, j].hex() == inst.finalize().hex() == oracle.hex()
