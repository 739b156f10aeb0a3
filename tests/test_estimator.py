"""Bank behavior: shape derivation, scalar equivalence, merging, snapshots."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsketch import estimator, streamfile
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
from prodsketch.streamfile import FormatError
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
        a.ingest_many([item])
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
        bank.ingest_many([(1, 2)])
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


def test_merge_banks_identity_split_commute(monkeypatch):
    stream = list(generate(GenSpec(n=4, k=2, m=90, lam=0.2, rng_seed=10)))
    whole = small_bank(1)
    whole.ingest_many(stream)
    empty = small_bank(1)
    assert merge_banks(whole, empty).counters_equal(whole)
    left, right = small_bank(1), small_bank(1)
    left.ingest_many(stream[:37])
    right.ingest_many(stream[37:])
    assert merge_banks(right, left).counters_equal(whole)
    # The merged bank reuses left's hash coefficients instead of deriving
    # them again, and goes on ingesting into counters of its own.
    monkeypatch.setattr(estimator, "derive_coefficients_batch", None)
    merged = merge_banks(left, right)
    assert merged.counters_equal(whole) and merged.estimate() == whole.estimate()
    merged.ingest_many(stream[:11])
    whole.ingest_many(stream[:11])
    assert merged.counters_equal(whole) and merged.estimate() == whole.estimate()
    assert left.item_count == 37 and right.item_count == 53


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


def _loads_or_value_error(data):
    try:
        assert isinstance(EstimatorBank.from_snapshot_bytes(data), EstimatorBank)
    except ValueError:
        pass


def test_snapshot_loader_survives_truncation_and_bit_flips():
    bank = small_bank(12, s1=2, s2=2)
    bank.ingest_many([(0, 1), (3, 2), (1, 1)])
    blob = bank.snapshot_bytes()
    for cut in range(len(blob)):
        _loads_or_value_error(blob[:cut])
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        _loads_or_value_error(bytes(flipped))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: estimator._MAGIC + b),
    st.tuples(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=8, max_size=8),
              st.binary(max_size=160)).map(
        lambda t: estimator._MAGIC + estimator._HEADER.pack(*t[0]) + t[1]),
    # Well-formed version-1 headers with small, possibly invalid fields and a
    # body of about the length they announce.
    st.builds(
        lambda k, n, width, s1, s2, extra: estimator._MAGIC
        + estimator._HEADER.pack(1, k, n, width, s1, s2, 0, 0)
        + bytes(8 * max(0, s1 * s2 * (k + 2) + extra)),
        k=st.integers(-3, 4), n=st.integers(-2, 20),
        width=st.sampled_from([-1, 0, 1, 2, 3, 4, 8, 64, 65]),
        s1=st.integers(-2, 3), s2=st.integers(-2, 3), extra=st.sampled_from([0, 0, -1, 1]),
    ),
))
def test_snapshot_loader_fuzz(data):
    _loads_or_value_error(data)


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
    bank.ingest_many([(0, 0)])
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
        bank.ingest_many([(0, 4)])
    with pytest.raises(ValueError, match="expected 2-tuples"):
        bank.ingest_many([(0, 0), (1, 1, 1)])
    with pytest.raises(ValueError, match="expected 2-tuples"):
        bank.ingest_many([(0, 0, 0), (1, 1)])


def test_ingest_blocks_equals_ingest_many():
    stream = list(generate(GenSpec(n=4, k=2, m=500, lam=0.4, rng_seed=9)))
    arr = np.array(stream, dtype=np.uint64)
    a, b = small_bank(5), small_bank(5)
    a.ingest_many(stream)
    assert b.ingest_blocks([arr[:123], arr[123:123], arr[123:]]) == 500
    assert a.counters_equal(b) and b.item_count == 500


def test_exact_matvec_is_exact_at_chunk_scale():
    rng = np.random.default_rng(3)
    signs = (1 - 2 * rng.integers(0, 2, size=(64, 300))).astype(np.int8)
    counts = rng.integers(1, 1 << 20, size=300)
    want = signs.astype(np.int64) @ counts
    assert np.array_equal(estimator._exact_matvec(signs, counts), want)


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


def test_non_integer_symbols_rejected():
    # np.asarray(..., dtype=uint64) would truncate 1.5 to 1 and parse "1";
    # the scalar instance refuses both, and so must the bank.
    bank = small_bank()
    for item in [(1.5, 2), (np.float64(3.9), 1), ("1", "2"), (b"1", 2), (1, None)]:
        with pytest.raises(ValueError):
            bank.ingest_many([(0, 0), item])
    assert bank.item_count == 0
    # Python ints, numpy ints of any width and bools are integers.
    bank.ingest_many([(1, 2), (np.int8(3), np.uint64(0)), (True, np.int64(2))])
    want = small_bank()
    want.ingest_blocks([np.array([[1, 2], [3, 0], [1, 2]], dtype=np.uint64)])
    assert bank.counters_equal(want)


@pytest.mark.parametrize("limit", [1, 2, 3, 4])
def test_flush_limits_keep_counters_exact(monkeypatch, limit):
    # Flushing after every few distinct rows or items must not change a
    # counter: the histogram is exact and the counters are linear in it.
    stream = list(generate(GenSpec(n=16, k=3, m=400, lam=0.7, rng_seed=6)))
    arr = np.array(stream, dtype=np.uint64)
    config = SketchConfig(k=3, n=16, spec=W4)
    whole = small_bank(4, config=config)
    whole.ingest_blocks([arr])
    monkeypatch.setattr(streamfile, "_EXACT_ITEMS", limit)
    monkeypatch.setattr(estimator, "_CHUNK_ITEMS", limit)
    by_blocks, by_tuples = small_bank(4, config=config), small_bank(4, config=config)
    assert by_blocks.ingest_blocks([arr[:7], arr[7:7], arr[7:250], arr[250:]]) == 400
    assert by_tuples.ingest_many(stream) == 400
    assert by_blocks.counters_equal(whole) and by_tuples.counters_equal(whole)


def _spy_add_rows(monkeypatch, fail_first=False):
    """Record the rows and counts of every ``_add_rows`` call; optionally
    make the first call raise after it has updated the counters."""
    runs = []
    add_rows = EstimatorBank._add_rows

    def spy(self, rows, counts):
        runs.append((rows.copy(), counts.copy()))
        add_rows(self, rows, counts)
        if fail_first and len(runs) == 1:
            raise RuntimeError("run interrupted")

    monkeypatch.setattr(EstimatorBank, "_add_rows", spy)
    return runs


def test_histogram_support_stays_bounded(monkeypatch):
    # A stream of ever new rows, each repeated within its block, is cut
    # into runs once the merged support passes the limit.  A run holds the
    # merged rows (at most the limit), the unmerged ones (at most the
    # merged plus one block) and the last block's distinct rows.
    runs = _spy_add_rows(monkeypatch)
    monkeypatch.setattr(estimator, "_CHUNK_ITEMS", 4)
    config = SketchConfig(k=2, n=16, spec=W4)
    arr = np.array([(x, y) for x in range(16) for y in range(2)], dtype=np.uint64)
    bank = small_bank(config=config)
    blocks = [np.repeat(arr[lo : lo + 3], 2, axis=0) for lo in range(0, 32, 3)]
    assert bank.ingest_blocks(blocks) == 64
    supports = [len(rows) for rows, _ in runs]
    assert sum(supports) == 32 and max(supports) <= 2 * 4 + 6 + 3
    assert all(s > 4 for s in supports[:-1])  # only the last run ends short of the limit


def test_failed_flush_is_not_replayed(monkeypatch):
    # A run whose ``_add_rows`` raises after touching the counters ends the
    # call: it is not added again, and no later run is read.
    runs = _spy_add_rows(monkeypatch, fail_first=True)
    monkeypatch.setattr(estimator, "_CHUNK_ITEMS", 1)
    config = SketchConfig(k=2, n=16, spec=W4)
    blocks = [np.array([(v, v)] * 2, dtype=np.uint64) for v in range(5)]
    bank, want = small_bank(config=config), small_bank(config=config)
    with pytest.raises(RuntimeError, match="run interrupted"):
        bank.ingest_blocks(blocks)
    monkeypatch.undo()
    assert len(runs) == 1
    want._add_rows(*runs[0])
    assert bank.item_count == want.item_count < 10 and bank.counters_equal(want)


def test_exact_item_limit_splits_runs(monkeypatch):
    # Runs end before their item total reaches the limit: the bank adds
    # each one and stays exact, and a table, which is one run, refuses.
    runs = _spy_add_rows(monkeypatch)
    monkeypatch.setattr(streamfile, "_EXACT_ITEMS", 10)
    stream = list(generate(GenSpec(n=4, k=2, m=40, lam=0.5, rng_seed=2)))
    arr = np.array(stream, dtype=np.uint64)
    blocks = [arr[lo : lo + 4] for lo in range(0, 40, 4)]
    bank, want = small_bank(), small_bank()
    assert bank.ingest_blocks(blocks) == 40
    assert all(counts.sum() < 10 for _, counts in runs)
    monkeypatch.undo()
    want.ingest_blocks([arr])
    assert bank.item_count == 40 and bank.counters_equal(want)
    monkeypatch.setattr(streamfile, "_EXACT_ITEMS", 10)
    with pytest.raises(ValueError, match="2\\^53"):
        FrequencyTable.from_blocks(blocks, 2, 4)


@pytest.mark.parametrize("block", [
    np.array([[9, 0], [1, 1]], dtype=np.uint64),  # symbol >= n
    np.array([[1.5, 0], [1, 1]]),  # float64
    np.array([[0, 1]], dtype=np.int64),  # not uint64
    np.array([[0, 1, 2]], dtype=np.uint64),  # arity
    np.array([0, 1], dtype=np.uint64),  # not (rows, k)
    [[0, 1], [1, 1]],  # not an array
    None,
], ids=["out-of-range", "float64", "int64", "arity", "one-dimensional", "list", "none"])
def test_bank_and_table_refuse_the_same_blocks(block):
    good = np.zeros((2, 2), dtype=np.uint64)
    bank = small_bank()
    with pytest.raises(ValueError) as by_bank:
        bank.ingest_blocks([good, block])
    with pytest.raises(ValueError) as by_table:
        FrequencyTable.from_blocks([good, block], 2, 4)
    assert str(by_bank.value) == str(by_table.value)
    assert bank.item_count == 2  # the block before the refused one stays ingested


def test_iterator_error_keeps_earlier_blocks(monkeypatch):
    # The histogram of the blocks read so far is flushed when the block
    # iterator raises, as it is when a block is refused.
    stream = list(generate(GenSpec(n=4, k=2, m=80, lam=0.5, rng_seed=8)))
    text = "".join(f"{a},{b}\n" for a, b in stream) + "0,1\n0,9\n"
    monkeypatch.setattr(streamfile, "_BLOCK_LINES", 40)  # blocks 1-40, 41-80, 81-82
    fp = io.StringIO(text)
    _, first = streamfile.read_header(fp)
    bank, want = small_bank(2), small_bank(2)
    with pytest.raises(FormatError, match="line 82"):
        bank.ingest_blocks(streamfile.iter_blocks(fp, first, k=2, n=4))
    want.ingest_many(stream)
    assert bank.item_count == 80 and bank.counters_equal(want)


@st.composite
def _buffer_cases(draw):
    """A config, bank shape, seed, a stream with repeats and its block cuts."""
    n = draw(st.integers(1, 300))
    width = draw(st.sampled_from([w for w in SUPPORTED_WIDTHS if 1 << w >= n]))
    k = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(0, n - 1)] * k)
    pool = draw(st.lists(row, min_size=1, max_size=draw(st.sampled_from([2, 6, 40]))))
    items = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=5)))
    shape = BankShape(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    seed = draw(st.integers(0, (1 << 64) - 1))
    # Small limits flush between blocks; the unpatched values (last) merge.
    limits = draw(st.sampled_from([1, 2, 4, 1 << 53])), draw(st.sampled_from([1, 2, 4, 8192]))
    return SketchConfig(k=k, n=n, spec=FieldSpec(width)), shape, seed, items, cuts, limits


@settings(max_examples=60, deadline=None)
@given(_buffer_cases())
def test_buffered_ingest_matches_scalar_instances(case):
    config, shape, seed, items, cuts, (exact_items, chunk_items) = case
    arr = np.array(items, dtype=np.uint64).reshape(len(items), config.k)
    bounds = [0, *cuts, len(items)]
    blocks = [arr[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    bank = EstimatorBank(config, shape=shape, master_seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streamfile, "_EXACT_ITEMS", exact_items)
        mp.setattr(estimator, "_CHUNK_ITEMS", chunk_items)
        assert bank.ingest_blocks(blocks) == len(items)
    for g in range(shape.s2):
        for j in range(shape.s1):
            inst = SketchInstance.from_master_seed(config, seed, group=g, index=j)
            for a in items:
                inst.update_item(a)
            assert bank.instance_view(g, j).counters() == inst.counters()


@st.composite
def _flush_cases(draw):
    """A config, bank shape and seed, and the distinct rows and counts of one flush.

    Each dimension draws its own pool of one to eight symbols, so the
    flush's symbol grid ranges from dense to sparse.
    """
    n = draw(st.sampled_from([2, 5, 16, 1 << 16]))
    k = draw(st.integers(1, 4))
    pools = [draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True,
                           max_size=draw(st.sampled_from([1, 3, 8])))) for _ in range(k)]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=1, max_size=40,
                         unique=True))
    counts = draw(st.lists(st.integers(1, 1 << 20), min_size=len(rows), max_size=len(rows)))
    shape = BankShape(draw(st.integers(1, 7)), draw(st.integers(1, 3)))
    seed = draw(st.integers(0, (1 << 64) - 1))
    width = min(w for w in SUPPORTED_WIDTHS if 1 << w >= n)
    return (SketchConfig(k=k, n=n, spec=FieldSpec(width)), shape, seed,
            np.array(rows, dtype=np.uint64), np.array(counts, dtype=np.int64))


def _add_rows_by_both_paths(config, shape, seed, rows, counts, working=1 << 22):
    """Banks after one ``_add_rows`` call forced onto the row path and the dense path."""
    banks = []
    for grid in (0, 1 << 64):
        bank = EstimatorBank(config, shape=shape, master_seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_DENSE_GRID", grid)
            mp.setattr(estimator, "_WORKING_ENTRIES", working)
            bank._add_rows(rows, counts)
        banks.append(bank)
    return banks


@settings(max_examples=80, deadline=None)
@given(_flush_cases(), st.sampled_from(["one", "fit", "default"]))
def test_dense_and_row_contractions_agree(case, working):
    # "one" halves every flush down to single rows and contracts one cell
    # per slab; "fit" keeps the flush whole but slabs the cells whenever the
    # partial sums outgrow the sign matrices.
    config, shape, seed, rows, counts = case
    symbols = sum(len(np.unique(column)) for column in rows.T)
    entries = {"one": 1, "fit": shape.cells * symbols, "default": 1 << 22}[working]
    by_rows, dense = _add_rows_by_both_paths(config, shape, seed, rows, counts, entries)
    assert by_rows.counters_equal(dense) and dense.item_count == counts.sum()


def test_dense_contraction_is_exact_below_2_53():
    # Every (cell, symbol) partial sum of one flush is bounded by its item
    # total, so float64 stays exact up to a total of 2^53 - 1.
    config = SketchConfig(k=3, n=4, spec=W2)
    rows = np.array([(a, b, c) for a in range(4) for b in range(4) for c in range(3)],
                    dtype=np.uint64)
    counts = np.ones(len(rows), dtype=np.int64)
    counts[5] = (1 << 53) - len(rows)
    by_rows, dense = _add_rows_by_both_paths(config, BankShape(3, 2), 7, rows, counts)
    assert by_rows.counters_equal(dense) and dense.item_count == (1 << 53) - 1
    for g in range(2):
        for j in range(3):
            hashes = dense.instance_view(g, j).hashes
            t1 = sum(int(c) * math.prod(h(int(x)) for h, x in zip(hashes, row))
                     for row, c in zip(rows, counts))
            assert dense.instance_view(g, j).t1 == t1


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
