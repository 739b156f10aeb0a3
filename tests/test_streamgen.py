"""Synthetic stream generator: determinism, the lambda knob, splitting."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsketch import streamgen
from prodsketch.oracle import FrequencyTable, exact_l2sq
from prodsketch.rng import word_at
from prodsketch.streamfile import _BLOCK_LINES
from prodsketch.streamgen import GENERATOR_ID, GenSpec, generate, generate_blocks, generate_range

# Realized distance of the fixed lambda=0 stream below; frozen after the
# first oracle computation as a regression value (small but nonzero).
LAM0_REGRESSION = Fraction(
    3627542892765077254857, 195312500000000000000000000
)


def _uniform(item_seed, draw, n):
    """Rejection-sampled uniform on [0, n); returns (symbol, next draw index)."""
    bound = (1 << 64) - ((1 << 64) % n)
    while True:
        w = word_at(item_seed, draw)
        draw += 1
        if w < bound:
            return w % n, draw


def reference_range(spec, start, stop):
    """Items [start, stop) of ``splitmix64ctr/1``, drawn one item and one word at a time."""
    threshold = round(spec.lam * (1 << 64))
    for i in range(start, stop):
        item_seed = word_at(spec.rng_seed, i)
        if word_at(item_seed, 0) < threshold:
            x, _ = _uniform(item_seed, 1, spec.n)
            yield (x,) * spec.k
        else:
            draw = 1
            item = []
            for _ in range(spec.k):
                x, draw = _uniform(item_seed, draw, spec.n)
                item.append(x)
            yield tuple(item)


ALPHABETS = [*range(1, 10), 1 << 16, (1 << 63) + 5, 1 << 64]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ALPHABETS),
    st.integers(1, 4),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
    st.integers(-(1 << 70), 1 << 70),
    st.integers(1, 9),
    st.data(),
)
def test_blocks_match_scalar_reference(n, k, lam, seed, block_lines, data):
    m = data.draw(st.integers(1, 120))
    start = data.draw(st.integers(0, m))
    stop = data.draw(st.integers(start, m))
    spec = GenSpec(n=n, k=k, m=m, lam=lam, rng_seed=seed)
    with mock.patch.object(streamgen, "_BLOCK_LINES", block_lines):
        blocks = list(generate_blocks(spec, start, stop))
    assert all(b.dtype == np.uint64 and b.shape[1] == k for b in blocks)
    assert all(0 < len(b) <= block_lines for b in blocks)
    expected = list(reference_range(spec, start, stop))
    assert [tuple(row) for b in blocks for row in b.tolist()] == expected
    assert list(generate_range(spec, start, stop)) == expected


@pytest.mark.parametrize("n", [3, (1 << 63) + 5])
def test_full_blocks_match_scalar_reference(n):
    # Several default-size blocks, half the draws rejected at n = 2^63 + 5.
    spec = GenSpec(n=n, k=2, m=2 * _BLOCK_LINES + 5, lam=0.3, rng_seed=-99)
    blocks = list(generate_blocks(spec, 1, spec.m))
    assert [len(b) for b in blocks] == [_BLOCK_LINES, _BLOCK_LINES, 4]
    got = [tuple(row) for b in blocks for row in b.tolist()]
    assert got == list(reference_range(spec, 1, spec.m))


def test_determinism():
    spec = GenSpec(n=8, k=3, m=200, lam=0.0, rng_seed=99)
    assert list(generate(spec)) == list(generate(spec))


def test_distinct_seeds_differ():
    a = list(generate(GenSpec(n=8, k=3, m=200, lam=0.0, rng_seed=1)))
    b = list(generate(GenSpec(n=8, k=3, m=200, lam=0.0, rng_seed=2)))
    assert a != b


def test_lambda_one_is_all_diagonal():
    for item in generate(GenSpec(n=5, k=4, m=300, lam=1.0, rng_seed=3)):
        assert len(set(item)) == 1


def test_lambda_zero_hits_off_diagonal():
    items = list(generate(GenSpec(n=8, k=2, m=100, lam=0.0, rng_seed=4)))
    assert any(len(set(item)) > 1 for item in items)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.floats(0, 1), st.integers(0, 2**64 - 1))
def test_symbols_always_in_range(n, k, lam, seed):
    for item in generate(GenSpec(n=n, k=k, m=25, lam=lam, rng_seed=seed)):
        assert len(item) == k
        assert all(0 <= x < n for x in item)


def test_range_split_matches_full_stream():
    spec = GenSpec(n=6, k=2, m=150, lam=0.5, rng_seed=21)
    whole = list(generate(spec))
    parts = (
        list(generate_range(spec, 0, 50))
        + list(generate_range(spec, 50, 149))
        + list(generate_range(spec, 149, 150))
    )
    assert parts == whole
    with pytest.raises(ValueError):
        list(generate_range(spec, 10, 151))


def test_lam0_fixed_seed_regression():
    spec = GenSpec(n=8, k=3, m=50000, lam=0.0, rng_seed=1234)
    table = FrequencyTable.from_stream(generate(spec), k=3, n=8)
    value = exact_l2sq(table)
    assert value == LAM0_REGRESSION
    assert 0 < value < Fraction(1, 10000)


def test_lam1_distance_bounded_away_from_zero():
    spec = GenSpec(n=4, k=2, m=2000, lam=1.0, rng_seed=8)
    value = exact_l2sq(FrequencyTable.from_stream(generate(spec), k=2, n=4))
    assert value > Fraction(1, 10)


def test_header_carries_generator_id():
    header = GenSpec(n=4, k=2, m=10, lam=0.25, rng_seed=5).header()
    assert header["generator"] == GENERATOR_ID
    assert header["n"] == "4" and header["k"] == "2" and header["m"] == "10"
    assert float(header["lambda"]) == 0.25


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=0, k=1, m=1, lam=0.5, rng_seed=0)
    with pytest.raises(ValueError):
        GenSpec(n=2, k=1, m=1, lam=1.5, rng_seed=0)
    GenSpec(n=1 << 64, k=1, m=1, lam=0.0, rng_seed=0)
    with pytest.raises(ValueError, match="exceeds the widest supported field"):
        GenSpec(n=(1 << 64) + 1, k=1, m=1, lam=0.0, rng_seed=0)
