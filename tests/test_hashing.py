"""Sign-hash family: exact 4-wise uniformity, derivation, scalar/batch parity."""

import itertools
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

from prodsketch import hashing
from prodsketch.field import SUPPORTED_WIDTHS, FieldSpec, field_mul, field_mul_vec
from prodsketch.hashing import (
    MAX_GROUP,
    MAX_INDEX,
    SignHash,
    batch_sign_eval,
    code_signs,
    coefficient_counter,
    derive_coefficients_batch,
    derive_hashes,
    pack_words,
    sign_codes,
    sign_tables,
    symbol_words,
)
from prodsketch.selftest import is_irreducible

W1 = FieldSpec(1)
W2 = FieldSpec(2)


def _seed(coefs, width):
    """The packed seed c0 | c1 << w | c2 << 2w | c3 << 3w of coefficients (c0, c1, c2, c3)."""
    return sum(int(c) << j * width for j, c in enumerate(coefs))


def _limb_seeds(words):
    """The integer of each hash's little-endian uint64 limbs (last axis): a
    derived seed must equal it, which holds the scalar derivation against
    the batch one without packing through ``pack_words``."""
    return [int.from_bytes(w.astype("<u8").tobytes(), "little") for w in words]


def test_zero_polynomial_is_plus_one_everywhere():
    h = SignHash(W2, 0, 4)
    assert [h(x) for x in range(4)] == [1, 1, 1, 1]


def test_constant_one_polynomial_is_minus_one_everywhere():
    h = SignHash(W2, 1, 4)
    assert [h(x) for x in range(4)] == [-1, -1, -1, -1]


def test_eval_is_pure_and_in_range():
    h = SignHash(W2, _seed((3, 1, 2, 0), 2), 4)
    first = [h(x) for x in range(4)]
    assert all(s in (-1, 1) for s in first)
    assert [h(x) for x in range(4)] == first


def test_domain_preconditions():
    with pytest.raises(ValueError):
        SignHash(W2, 0, 5)  # n > 2^w
    h = SignHash(W2, 0, 3)
    with pytest.raises(ValueError):
        h(3)
    for seed in (-1, 256):  # outside the 4w-bit family, never read as seed 0
        with pytest.raises(ValueError, match="seed outside the family"):
            SignHash(W2, seed, 4)


def test_exact_4wise_uniformity_by_full_enumeration():
    # Every sign pattern on any 4 distinct points is realized by exactly
    # 256/16 seeds; scalar evaluation, independent of the oracle tables.
    counts = Counter()
    for s in range(256):
        h = SignHash(W2, s, 4)
        counts[tuple(h(x) for x in (0, 1, 2, 3))] += 1
    assert len(counts) == 16
    assert set(counts.values()) == {16}


def test_singleton_and_pairwise_uniformity_follow():
    for points in [(2,), (0, 3)]:
        counts = Counter()
        for s in range(256):
            h = SignHash(W2, s, 4)
            counts[tuple(h(x) for x in points)] += 1
        assert set(counts.values()) == {256 // 2 ** len(points)}


def test_make_independent_hashes_deterministic():
    a = derive_hashes(99, 1, W2, 4)
    b = derive_hashes(99, 1, W2, 4)
    assert len(a) == 1 and a == b


def test_derivation_fixed_vectors_differ_between_masters():
    # Frozen regression of the documented counter-mode derivation.
    # The seeds pack coefficients (1, 3, 2, 3), (1, 0, 1, 1), (0, 2, 1, 2)
    # and (2, 2, 3, 0), (1, 3, 2, 3), (3, 0, 1, 3), c0 first.
    seeds_1 = [h.seed for h in derive_hashes(1, 3, W2, 4)]
    seeds_2 = [h.seed for h in derive_hashes(2, 3, W2, 4)]
    assert seeds_1 == [237, 81, 152]
    assert seeds_2 == [58, 237, 211]
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
    # One cell at a time, the first and one past it: its words are the limbs
    # of its scalar hashes' seeds, and its signs are theirs, at every width.
    for width in SUPPORTED_WIDTHS:
        spec = FieldSpec(width)
        xs = _symbols_across_field(spec, np.random.default_rng(width))
        for group, index in ((0, 0), (2, 4)):
            cell = group * 5 + index
            words = derive_coefficients_batch(12345, cell, cell + 1, 5, 3, spec)
            assert words.shape == (1, 3, -(-4 * width // 64)) and words.dtype == np.uint64
            hashes = derive_hashes(12345, 3, spec, group=group, index=index)
            assert _limb_seeds(words[0]) == [h.seed for h in hashes]
            table = batch_sign_eval(words[0], symbol_words(xs, spec))
            assert table.dtype == np.int8 and table.shape == (3, len(xs))
            for dim, h in enumerate(hashes):
                assert [h(int(x)) for x in xs] == table[dim].tolist(), width


def _assert_range_matches_scalar(seed, lo, hi, indexes, k, spec):
    """Cells [lo, hi) of a bank of ``indexes`` cells a group, each the limbs of its scalar seeds."""
    words = derive_coefficients_batch(seed, lo, hi, indexes, k, spec)
    assert words.shape == (hi - lo, k, -(-4 * spec.width // 64)) and words.dtype == np.uint64
    for cell, row in enumerate(words, lo):
        hashes = derive_hashes(seed, k, spec, group=cell // indexes, index=cell % indexes)
        assert _limb_seeds(row) == [h.seed for h in hashes], (spec.width, lo, hi, cell)


def test_batch_matches_scalar_on_ragged_ranges():
    # A 3 x 5 bank cut into ranges of lengths that are no multiple of a
    # group: the whole bank, its head, one group's middle, its tail, and
    # an empty range.
    seed = (1 << 64) - 12345
    for width in SUPPORTED_WIDTHS:
        for lo, hi in ((0, 15), (0, 4), (6, 9), (11, 15), (4, 4)):
            _assert_range_matches_scalar(seed, lo, hi, 5, 2, FieldSpec(width))


def test_batch_matches_scalar_on_group_crossing_ranges():
    # Ranges across group borders, also at the counter caps: the last
    # indexes of a 2^32-cell group, and the last group below 2^22.
    for width in SUPPORTED_WIDTHS:
        spec = FieldSpec(width)
        for indexes, lo, hi in ((5, 3, 12), (MAX_INDEX, 3 * MAX_INDEX - 2, 3 * MAX_INDEX + 2),
                                (7, 7 * MAX_GROUP - 10, 7 * MAX_GROUP)):
            _assert_range_matches_scalar(99, lo, hi, indexes, 3, spec)


REDUCIBLE = [(8, 0x101), (16, 0x1FFFF), (64, (1 << 64) | 0b11)]


def _ring(width, poly):
    """A stand-in for GF(2)[x]/(poly), which no FieldSpec denotes: it carries
    the names that field_mul, field_mul_vec, symbol_words and these tests read."""
    return types.SimpleNamespace(width=width, order=1 << width, mask=(1 << width) - 1,
                                 reduction_polynomial=poly)


@pytest.mark.parametrize("width,poly", REDUCIBLE)
def test_batch_matches_scalar_on_reducible_polynomial(width, poly):
    # The parity form holds in GF(2)[x]/(f) for any f of degree w.
    spec = _ring(width, poly)
    assert not is_irreducible(poly)
    rng = np.random.default_rng(poly % 1000)
    xs = _symbols_across_field(spec, rng)
    words = rng.integers(0, 1 << 63, size=(16, 4), dtype=np.uint64)
    coefs = words ^ (words << np.uint64(1))
    coefs &= np.uint64(spec.mask)
    table = batch_sign_eval(pack_words(coefs, width), symbol_words(xs, spec))
    for row, c in zip(table, coefs.tolist()):
        h = SignHash(spec, _seed(c, width), spec.order)
        assert [h(int(x)) for x in xs] == row.tolist()


def _lowbit_masks(ys, spec):
    """Reference ``L(y)``: bit i is the low bit of x^i * y, by a w-step walk
    that multiplies by x (shift, then fold the carry through the low terms)."""
    low = spec.reduction_polynomial ^ (1 << spec.width)
    low, mask, top, one = (np.uint64(v) for v in (low, spec.mask, spec.width - 1, 1))
    t, out = ys, np.zeros_like(ys)
    for i in range(spec.width):
        out |= (t & one) << np.uint64(i)
        t = ((t << one) & mask) ^ (((t >> top) & one) * low)
    return out


def _reference_symbol_words(xs, spec):
    """The masks ``(1, L(y), L(y^2), L(y^3))`` by two field products and the walk."""
    x2 = field_mul_vec(xs, xs, spec)
    masks = _lowbit_masks(np.stack([xs, x2, field_mul_vec(x2, xs, spec)], axis=-1), spec)
    return pack_words(np.column_stack([np.ones_like(xs), masks]), spec.width)


@pytest.mark.parametrize("spec", [FieldSpec(w) for w in SUPPORTED_WIDTHS] + [_ring(*r) for r in REDUCIBLE],
                         ids=[f"w{w}" for w in SUPPORTED_WIDTHS] + [f"{w}-{p}" for w, p in REDUCIBLE])
def test_table_kernels_match_scalar_field(spec):
    # Squares and L(y) from the byte tables against field_mul and L's
    # definition, and symbol_words against the two-multiply-and-walk
    # composition, on every element at w <= 8.
    w = spec.width
    xs = _symbols_across_field(spec, np.random.default_rng(w + 2))
    if w <= 8:
        xs = np.arange(spec.order, dtype=np.uint64)
    square, low = hashing._linear_tables(w, spec.reduction_polynomial)
    ys = [int(y) for y in xs]
    assert hashing._apply_linear(square, xs).tolist() == [field_mul(y, y, spec) for y in ys]
    assert hashing._apply_linear(low, xs).tolist() == [
        sum((field_mul(1 << i, y, spec) & 1) << i for i in range(w)) for y in ys]
    assert np.array_equal(symbol_words(xs, spec), _reference_symbol_words(xs, spec))


def test_table_cache_tells_rings_of_one_width_apart():
    # GF(2^8) and the reducible (8, 257) stand-in share a width: the tables
    # built first for the field are not the ring's.
    hashing._linear_tables.cache_clear()
    xs = np.arange(256, dtype=np.uint64)
    field, ring = FieldSpec(8), _ring(8, 0x101)
    words = [symbol_words(xs, spec) for spec in (field, ring)]
    assert not np.array_equal(*words)
    assert not np.array_equal(hashing._linear_tables(8, 0x11B), hashing._linear_tables(8, 0x101))
    for spec, got in zip((field, ring), words):
        assert np.array_equal(got, _reference_symbol_words(xs, spec))


@pytest.mark.parametrize("buffer", ["one word", "part of a row", "ragged rows"])
def test_batch_matches_scalar_through_any_and_buffer(monkeypatch, buffer):
    # The take chunk of code_signs (which replaced the AND buffer) cut to 1
    # code and to one code less than a row (both smaller than a row, so one
    # hash row a chunk), and to two rows (15 hash rows end in a chunk of
    # one), for the three shapes of words: one hash, a (cells, k) block of
    # cells and a (seeds, ceil(4w/64)) stack; into an ``out`` of padded code
    # bytes, and transposed with the tables built from the hashes instead.
    for width in SUPPORTED_WIDTHS:
        spec = FieldSpec(width)
        rng = np.random.default_rng(width)
        xs = _symbols_across_field(spec, rng, count=12)
        row = -(-len(xs) // 8)
        size = {"one word": 1, "part of a row": max(1, row - 1), "ragged rows": 2 * row}
        monkeypatch.setattr(hashing, "_TAKE_CODES", size[buffer])
        masks = symbol_words(xs, spec)
        cells = derive_coefficients_batch(77, 0, 5, 5, 3, spec)
        coefs = rng.integers(0, 1 << 63, size=(15, 4), dtype=np.uint64) & np.uint64(spec.mask)
        seeds = pack_words(coefs, width)
        cases = [(cells, [derive_hashes(77, 3, spec, index=c) for c in range(5)]),
                 (seeds, [SignHash(spec, _seed(c, width), spec.order) for c in coefs]),
                 (seeds[3], SignHash(spec, _seed(coefs[3], width), spec.order))]
        for words, hashes in cases:
            table = batch_sign_eval(words, masks)
            expect = np.vectorize(lambda h: np.array([h(int(x)) for x in xs]),
                                  signature="()->(s)")(np.array(hashes, dtype=object))
            assert table.dtype == np.int8 and np.array_equal(table, expect), (width, buffer)
            flat = words.reshape(-1, words.shape[-1])
            out = np.empty((len(flat), row, 8), np.int8)
            assert np.shares_memory(batch_sign_eval(words, masks, out=out), out)
            assert np.array_equal(out.reshape(len(flat), -1)[:, : len(xs)],
                                  expect.reshape(len(flat), -1)), (width, buffer)
            assert np.array_equal(batch_sign_eval(masks, flat).T, expect.reshape(len(flat), -1))


def test_byte_table_codes_match_scalar_at_every_width():
    # Codes over 63, 64 and 65 symbols (all of them below w = 8) end inside,
    # at and past a uint64 word of bits; the seeds include all ones, which
    # reads every byte table at 255, and 0.  Bit x of a code is the parity
    # at symbol x: its unpacking is the scalar hash's signs.
    for width in SUPPORTED_WIDTHS:
        spec = FieldSpec(width)
        rng = np.random.default_rng(width + 1)
        top = (1 << 4 * width) - 1
        seeds = [top, 0, *(int(v) & top for v in rng.integers(0, 1 << 63, size=6, dtype=np.uint64))]
        words = np.array([[s >> 64 * p & (1 << 64) - 1 for p in range(-(-4 * width // 64))]
                          for s in seeds], dtype=np.uint64)
        for g in (63, 64, 65) if width >= 8 else (spec.order,):
            xs = np.unique(np.concatenate([[0, spec.mask], _symbols_across_field(spec, rng)]))[:g]
            if len(xs) < g:
                xs = np.arange(g, dtype=np.uint64)
            tables = sign_tables(symbol_words(xs, spec))
            assert tables.shape == (-(-4 * width // 8), 256, -(-g // 8)), (width, g)
            codes = sign_codes(words, tables)
            want = [[SignHash(spec, s, spec.order)(int(x)) for x in xs] for s in seeds]
            bits = np.unpackbits(codes, axis=1, count=g, bitorder="little")
            assert (1 - 2 * bits.astype(int)).tolist() == want, (width, g)
            assert code_signs(codes)[:, :g].tolist() == want, (width, g)


def test_batch_holds_one_byte_per_sign_beside_its_codes():
    # 2048 hashes at 1024 symbols: beside the int8 result, its packed codes
    # (one byte per 8 signs) and the intp copy of _TAKE_CODES codes that take
    # makes; the byte tables (256 KiB at w = 16, 1 MiB at w = 64) are gone
    # before the result is made.
    for width in (16, 64):
        spec = FieldSpec(width)
        words = derive_coefficients_batch(7, 0, 2048, 2048, 1, spec)[:, 0]
        masks = symbol_words(np.arange(1024, dtype=np.uint64), spec)
        tracemalloc.start()
        try:
            table = batch_sign_eval(words, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (2048, 1024)
        assert peak <= table.size + table.size // 8 + (256 << 10), width


def test_family_is_exactly_the_4w_bit_seeds():
    # The oracle enumerates seeds 0 .. 2^(4w) - 1 directly: at w=1 each of
    # the 16 constructs, and at every width the next seed is past the family.
    assert [SignHash(W1, s, 2).seed for s in range(16)] == list(range(16))
    for width in SUPPORTED_WIDTHS:
        top = (1 << 4 * width) - 1
        assert SignHash(FieldSpec(width), top, 2).seed == top
        with pytest.raises(ValueError, match="seed outside the family"):
            SignHash(FieldSpec(width), top + 1, 2)


def test_k_bounds():
    with pytest.raises(ValueError):
        derive_hashes(0, 0, W2, 4)
    with pytest.raises(ValueError):
        derive_hashes(0, 257, W2, 4)
