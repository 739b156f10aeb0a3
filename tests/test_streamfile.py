"""Stream text format: round-trips, header parsing, block parsing, error line numbers."""

import gc
import io
import math
import tracemalloc
import warnings
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsketch import streamfile
from prodsketch.streamfile import (
    _BLOCK_LINES,
    FormatError,
    _parse_line,
    iter_blocks,
    merge_rows,
    read_header,
    row_runs,
    write_stream,
)
from prodsketch.streamgen import GenSpec, generate, generate_blocks


def read_rows(buf, *, k, n):
    """Every row of every block of ``buf``, as tuples."""
    _, first = read_header(buf)
    return [tuple(row) for block in iter_blocks(buf, first, k=k, n=n) for row in block.tolist()]


def test_write_read_roundtrip():
    buf = io.StringIO()
    items = [(0, 1), (2, 3), (1, 1)]
    assert write_stream(buf, [np.array(items, dtype=np.uint64)], {"n": "4", "k": "2"}) == 3
    buf.seek(0)
    header, first = read_header(buf)
    blocks = list(iter_blocks(buf, first, k=2, n=4))
    assert header == {"n": "4", "k": "2"}
    assert [b.dtype for b in blocks] == [np.uint64]
    assert [tuple(row) for row in blocks[0].tolist()] == items


def per_item_text(items, header):
    """The stream text written one item at a time."""
    lines = [f"# {key}={value}\n" for key, value in header.items()]
    return "".join(lines + [",".join(map(str, item)) + "\n" for item in items])


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 4),
    symbols=st.sampled_from([st.integers(0, 3), st.integers(0, (1 << 64) - 1)]),
    data=st.data(),
)
def test_write_stream_matches_per_item_text(k, symbols, data):
    items = data.draw(st.lists(st.tuples(*[symbols] * k), max_size=30))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=4)))
    bounds = [0, *cuts, len(items)]
    blocks = [np.array(items[lo:hi], dtype=np.uint64).reshape(-1, k)
              for lo, hi in zip(bounds, bounds[1:])]
    header = {"k": str(k), "m": str(len(items))}
    buf = io.StringIO()
    assert write_stream(buf, blocks, header) == len(items)
    assert buf.getvalue() == per_item_text(items, header)


def test_write_stream_of_generated_blocks_matches_per_item_text():
    # More than one default-size block, with rejected draws (n = 3) in each.
    spec = GenSpec(n=3, k=3, m=2 * _BLOCK_LINES + 17, lam=0.4, rng_seed=-5)
    buf = io.StringIO()
    assert write_stream(buf, generate_blocks(spec, 0, spec.m), spec.header()) == spec.m
    assert buf.getvalue() == per_item_text(generate(spec), spec.header())


def test_headerless_stream():
    buf = io.StringIO("1,2\n3,0\n")
    header, first = read_header(buf)
    assert header == {}
    assert [tuple(r) for b in iter_blocks(buf, first, k=2, n=4) for r in b.tolist()] == [
        (1, 2), (3, 0)]


def test_blank_lines_and_comment_only_headers():
    buf = io.StringIO("# plain comment\n# n=4\n\n0,0\n\n1,1\n")
    header, first = read_header(buf)
    assert header == {"n": "4"}
    assert [tuple(r) for b in iter_blocks(buf, first, k=2, n=4) for r in b.tolist()] == [
        (0, 0), (1, 1)]


def test_empty_input():
    header, first = read_header(io.StringIO("# k=2\n"))
    assert header == {"k": "2"} and first is None
    assert list(iter_blocks(io.StringIO(), None, k=2, n=4)) == []


def test_malformed_line_reports_number():
    # int() reads the Arabic-Indic digit "\u0663" as 3; a stream is ASCII.
    for bad in ["0,x", "\u0663,1", "0,\udcff"]:
        buf = io.StringIO(f"0,0\n{bad}\n")
        with pytest.raises(FormatError) as err:
            read_rows(buf, k=2, n=4)
        assert "line 2" in str(err.value)
        assert err.value.line_no == 2


def test_arity_mismatch_detected():
    with pytest.raises(FormatError) as err:
        read_rows(io.StringIO("0,0,0\n"), k=2, n=4)
    assert "expected 2 fields" in str(err.value)
    with pytest.raises(FormatError) as err:
        read_rows(io.StringIO("0,0,0\n1,1\n"), k=3, n=4)
    assert "line 2" in str(err.value)


def test_symbol_range_checked():
    with pytest.raises(FormatError) as err:
        read_rows(io.StringIO("0,7\n"), k=2, n=4)
    assert "symbol 7" in str(err.value)
    with pytest.raises(FormatError):
        read_rows(io.StringIO("-1,0\n"), k=2, n=4)


def test_header_after_data_rejected():
    with pytest.raises(FormatError) as err:
        read_rows(io.StringIO("0,0\n# k=2\n1,1\n"), k=2, n=4)
    assert "header line after data" in str(err.value)


def test_dimensions_validated():
    for k, n in [(0, 4), (2, 0), (2, (1 << 64) + 1)]:
        with pytest.raises(ValueError):
            list(iter_blocks(io.StringIO(), (1, "0,0"), k=k, n=n))


def test_blocks_span_block_lines_and_keep_line_numbers():
    size = streamfile._BLOCK_LINES
    rows = [(i % 4, (i // 4) % 4) for i in range(2 * size + 100)]
    text = "".join(f"{a},{b}\n" for a, b in rows)
    buf = io.StringIO(text)
    blocks = list(iter_blocks(buf, read_header(buf)[1], k=2, n=4))
    assert [len(b) for b in blocks] == [size, size, 100]
    assert [tuple(r) for b in blocks for r in b.tolist()] == rows
    bad = text.splitlines()
    bad[size + 5] = "1,4"  # line size + 6, in block 2
    with pytest.raises(FormatError) as err:
        read_rows(io.StringIO("\n".join(bad)), k=2, n=4)
    assert err.value.line_no == size + 6 and "symbol 4" in str(err.value)


def test_blank_block_is_skipped_without_warning():
    size = streamfile._BLOCK_LINES
    text = "0,1\n" + "\n" * (2 * size) + " \n\t\n" + "1,0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_rows(io.StringIO(text), k=2, n=4) == [(0, 1), (1, 0)]


def test_full_width_symbols():
    top = (1 << 64) - 1
    assert read_rows(io.StringIO(f"{top},0\n+1, 2\n"), k=2, n=1 << 64) == [(top, 0), (1, 2)]
    with pytest.raises(FormatError, match=f"symbol {top + 1}"):
        read_rows(io.StringIO(f"0,0\n{top + 1},0\n"), k=2, n=1 << 64)


# -- differential fuzz: block parser against a per-line reference ---------------

_TOKENS = ["0", "1", "2", "3", "7", "10", "007", ",", " ", "\t", "+", "-", "_", ".", "e",
           "x", "#", "\r", "٣", str((1 << 64) - 1), str(1 << 64)]
_LINE = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join),
    st.sampled_from(["", " ", "\t", "\r", " \t ", "#", " # k=2"]),
    st.lists(st.sampled_from(["0", "1", "2", "3", " 1", "+2"]), min_size=1, max_size=3).map(
        ",".join),
)


def reference_rows(text, k, n):
    """What the one-line-at-a-time parser makes of ``text``: rows, or a FormatError."""
    buf = io.StringIO(text)
    _, first = read_header(buf)
    if first is None:
        return []
    rows = [_parse_line(first[0], first[1], k, n)]
    for line_no, raw in enumerate(buf, start=first[0] + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            raise FormatError(line_no, "header line after data")
        rows.append(_parse_line(line_no, stripped, k, n))
    return rows


def outcome(parse):
    try:
        return "rows", parse()
    except FormatError as exc:
        return "error", (exc.line_no, str(exc))


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_LINE, max_size=14),
    header=st.booleans(),
    k=st.integers(1, 3),
    n=st.sampled_from([1, 3, 4, 8, 1 << 64]),
    block_lines=st.integers(1, 4),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_blocks_match_per_line_reference(lines, header, k, n, block_lines, newline):
    text = ("# k=2\n# n=4\n" if header else "") + newline.join(lines)
    want = outcome(lambda: reference_rows(text, k, n))
    with mock.patch.object(streamfile, "_BLOCK_LINES", block_lines):
        got = outcome(lambda: read_rows(io.StringIO(text), k=k, n=n))
    assert got == want


# -- differential property: slab reader against a line-by-line reference --------

def reference_blocks(text, k, n, block_lines):
    """Blocks of ``block_lines`` lines parsed one line at a time, and the first error."""
    buf = io.StringIO(text)
    _, first = read_header(buf)
    blocks, rows, start = [], [], first and first[0]
    try:
        for line_no, raw in ([first, *enumerate(buf, start=first[0] + 1)] if first else []):
            if line_no - start == block_lines:
                blocks, rows, start = blocks + [rows] * bool(rows), [], line_no
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                raise FormatError(line_no, "header line after data")
            rows.append(_parse_line(line_no, stripped, k, n))
    except FormatError as exc:
        return blocks, (exc.line_no, str(exc))
    return blocks + [rows] * bool(rows), None


def parsed_blocks(text, k, n):
    """What ``iter_blocks`` yields for ``text`` before its first error, and that error."""
    buf = io.StringIO(text)
    blocks = []
    try:
        for block in iter_blocks(buf, read_header(buf)[1], k=k, n=n):
            assert block.dtype == np.uint64 and block.shape == (len(block), k)
            blocks.append([tuple(row) for row in block.tolist()])
    except FormatError as exc:
        return blocks, (exc.line_no, str(exc))
    return blocks, None


def canonical_lines(k, n):
    """Lines of k digit fields, some zero-padded to 20 digits, symbols up to n and 2^64 - 1."""
    top = (1 << 64) - 1
    symbol = st.one_of(st.integers(0, n), st.sampled_from([n - 1, n, top]))
    field = st.tuples(symbol, st.integers(0, 20)).map(lambda p: str(p[0]).zfill(p[1]))
    return st.lists(field, min_size=k, max_size=k).map(",".join)


# Lines (or fields) that the vectorised pass refuses and the per-line path reads or
# reports; the last three have a canonical two-field layout but the wrong separator.
_ODD = [" 2", "+1", "1_0", "1,", ",1", "", " ", "\t", "0 ", "1\r", "\u0663", "# k=2",
        "1.0", "3;1", "2 1"]


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 3),
    n=st.sampled_from([1, 4, 10, 1000, 1 << 63, 1 << 64]),
    block_lines=st.integers(1, 5),
    chunk=st.one_of(st.integers(1, 12), st.integers(13, 80), st.just(1 << 16)),
    newline=st.sampled_from(["\n", "\r\n"]),
    header=st.booleans(),
    data=st.data(),
)
def test_slab_reader_matches_line_by_line_blocks(k, n, block_lines, chunk, newline, header, data):
    lines = data.draw(st.lists(canonical_lines(k, n), max_size=40))
    # Odd lines on both sides of a block boundary and at random places; with
    # chunks of a few characters every line also straddles a chunk boundary.
    boundary = data.draw(st.integers(1, 5)) * block_lines
    for at in [boundary - 1, boundary] + data.draw(st.lists(st.integers(0, 40), max_size=3)):
        if data.draw(st.booleans()):
            odd = data.draw(st.sampled_from(_ODD))
            if data.draw(st.booleans()) and at < len(lines):  # as one field of a line
                fields = lines[at].split(",")
                fields[data.draw(st.integers(0, len(fields) - 1))] = odd
                lines[at] = ",".join(fields)
            else:
                lines.insert(min(at, len(lines)), odd)
    text = ("# k=2\n# n=4\n" if header else "") + newline.join(lines) + data.draw(
        st.sampled_from(["", newline]))
    want = reference_blocks(text, k, n, block_lines)
    with mock.patch.object(streamfile, "_BLOCK_LINES", block_lines), \
            mock.patch.object(streamfile, "_CHUNK_CHARS", chunk):
        got = parsed_blocks(text, k, n)
    assert got == want


def test_canonical_blocks_skip_the_per_line_path():
    # Canonical text over several blocks and reads never reaches _parse_line,
    # with fields of mixed widths or all of one digit.
    rows = [(i % 7, (i * 13) % 1000, 10**18 + i) for i in range(3 * _BLOCK_LINES + 5)]
    digits = [(i % 10, (i // 10) % 10) for i in range(2 * _BLOCK_LINES + 3)]
    with mock.patch.object(streamfile, "_parse_line", side_effect=AssertionError):
        text = "".join(f"{a},{b:05d},{c}\n" for a, b, c in rows)
        assert read_rows(io.StringIO(text), k=3, n=1 << 64) == rows
        text = "".join(f"{a},{b}\n" for a, b in digits)
        assert read_rows(io.StringIO(text), k=2, n=10) == digits


def test_slab_reader_memory_stays_within_a_few_blocks():
    # A 300k-item n = 4, k = 2 stream, the shape of a piped estimate: the
    # reader holds a 64 KiB read and a block, about 0.9 MiB with its parse.
    # 1 MiB reads peak at about 10 MiB here and raised that estimate's peak
    # RSS from 32 to 50 MB.
    rows = np.random.default_rng(0).integers(0, 4, size=(300_000, 2))
    buf = io.StringIO("".join(f"{a},{b}\n" for a, b in rows.tolist()))
    tracemalloc.start()
    try:
        _, first = read_header(buf)
        runs = row_runs(iter_blocks(buf, first, k=2, n=4), 2, 4, max_rows=_BLOCK_LINES)
        total = sum(int(counts.sum()) for _, counts in runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == len(rows)
    assert peak <= 2 << 20


def test_closed_runs_end_without_yielding():
    # A consumer that stops, or raises, closes the generator at a yield: it
    # must end there, not yield the run it was holding again.
    block = np.array([[0, 1], [1, 0]], dtype=np.uint64)
    runs = streamfile.row_runs(iter([block] * 3), 2, 4, max_rows=0)
    rows, counts = next(runs)
    assert rows.tolist() == [[0, 1], [1, 0]] and counts.tolist() == [2, 2]
    runs.close()


# The widest n whose n x n grid distinct_rows counts by bincount in a 1000-row block.
_EDGE = math.isqrt(streamfile._GRID_PER_ROW * 1000)


@pytest.mark.parametrize("n, k, rows", [
    (4, 2, 5000),  # small alphabet: symbols as digits, counted
    (1 << 16, 3, 20000),
    (1 << 32, 2, 3000),  # the second column's radix passes 2^62: ranked
    (1 << 63, 3, 3000),  # every column past the first ranked
    (1 << 64, 2, 1000),  # full-width symbols
    (4, 40, 3000),  # ranked columns still pass 2^62: the codes are ranked
    (1 << 16, 5, 1),  # a one-row block
    (4, 3, 0),
    (_EDGE, 2, 1000),  # the grid just inside the bincount branch
    (_EDGE + 1, 2, 1000),  # just past it: sorted
    (1, 3, 100),  # one code
    (1, 2, 0),  # an empty block at a one-code grid
])
def test_distinct_rows_matches_numpy_unique(n, k, rows):
    rng = np.random.default_rng(n % 1009 + k + rows)
    block = rng.integers(0, n, size=(rows, k), dtype=np.uint64, endpoint=False)
    block[rows // 2:] = block[: rows - rows // 2]  # repeated rows
    if rows > 2:
        block[1] = n - 1  # the widest radix in every column
        block[-1, 0] = n - 1  # the first column's top digit in a row of its own
    first, inverse, counts = streamfile.distinct_rows(block)
    _, want_first, want_inverse, want_counts = np.unique(
        block, axis=0, return_index=True, return_inverse=True, return_counts=True)
    assert first.tolist() == want_first.tolist()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()
    assert counts.tolist() == want_counts.tolist()


@pytest.mark.parametrize("n", [_EDGE, _EDGE + 1])  # 1000 rows: counted, then sorted
def test_merge_rows_matches_numpy_unique(n):
    rng = np.random.default_rng(n)
    parts = []
    for size in (400, 350, 250):
        rows = rng.integers(0, n, size=(size, 2), dtype=np.uint64, endpoint=False)
        rows[0] = n - 1
        parts.append((rows, rng.integers(1, 1 << 40, size=size)))
    rows, counts = merge_rows(parts)
    everything = np.concatenate([r for r, _ in parts])
    want_rows, inverse = np.unique(everything, axis=0, return_inverse=True)
    want_counts = np.bincount(inverse.reshape(-1), np.concatenate([c for _, c in parts]))
    order = np.lexsort(rows.T[::-1])
    assert rows[order].tolist() == want_rows.tolist()
    assert counts[order].tolist() == want_counts.astype(np.int64).tolist()
    assert counts.dtype == np.int64


def _asarray_tuple_blocks(items, k, n):
    """``tuple_blocks`` as it was before packing: ``np.asarray`` on each chunk.

    The reference for the blocks and error messages of ``tuple_blocks``.
    """
    items = iter(items)
    while chunk := list(islice(items, streamfile._BLOCK_LINES)):
        try:
            block = np.asarray(chunk)
        except ValueError:  # tuples of different lengths
            raise ValueError(f"expected {k}-tuples") from None
        if block.ndim != 2 or block.shape[1] != k:
            raise ValueError(f"expected {k}-tuples")
        if block.dtype.kind not in "biu":  # floats, strings, huge or mixed values
            if not all(isinstance(x, (int, np.integer)) for a in chunk for x in a):
                raise ValueError("symbols must be integers")
            block = np.asarray(chunk, dtype=object)
        del chunk
        bad = (block < 0) | (block >= n)
        if bad.any():
            item = tuple(block[bad.any(axis=1)][0].tolist())
            raise ValueError(f"symbol out of range [0, {n}) in item {item}")
        yield block.astype(np.uint64, copy=False)


def _blocks_or_error(blocks):
    """The blocks a generator yields, then the (type, message) it raised, or None."""
    out = []
    try:
        for block in blocks:
            out.append((block.dtype, block.shape, block.tolist()))
    except Exception as exc:  # compared across both functions, whatever it is
        return out, (type(exc), str(exc))
    return out, None


def _bools_as_ints(item):
    if isinstance(item, (tuple, list)):
        return type(item)(int(x) if isinstance(x, (bool, np.bool_)) else x for x in item)
    return item


_NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def _valid_symbol(draw, n):
    """A symbol in [0, n) as a Python int, bool, np.bool_ or numpy int of any width that holds it."""
    value = draw(st.one_of(st.integers(0, min(n, 3) - 1), st.integers(0, n - 1)))
    kinds = [int] + [t for t in _NUMPY_INTS if value <= np.iinfo(t).max]
    if value <= 1:
        kinds += [bool, np.bool_]
    return draw(st.sampled_from(kinds))(value)


def _bad_symbol(n):
    """A symbol ``tuple_blocks`` refuses: out of range, or not an integer."""
    return st.one_of(
        st.integers(-3, -1), st.integers(-3, -1).map(np.int8), st.just(np.int64(-1)),
        st.integers(n, max(n, 1 << 64) + 2), st.just(1 << 64),
        st.floats(0, 3), st.floats(0, 3).map(np.float64),
        st.text(max_size=2), st.binary(max_size=2), st.none(),
    )


@st.composite
def _tuple_chunks(draw):
    """k, n, the block size and items: rows of mixed symbol types, some of them spoiled."""
    k = draw(st.integers(1, 3))
    n = draw(st.sampled_from([1, 2, 4, 1000, (1 << 63) + 5, 1 << 64]))
    row = st.lists(_valid_symbol(n), min_size=k, max_size=k)
    rows = draw(st.lists(st.tuples(row, st.sampled_from([tuple, list])), max_size=30))
    items = [make(symbols) for symbols, make in rows]
    for _ in range(draw(st.integers(0, 2))):  # spoil a few rows, anywhere
        at = draw(st.integers(0, len(items)))
        symbols = draw(row)
        spoiled = draw(st.one_of(
            st.just(tuple(symbols[:-1])),  # one symbol short
            st.just(tuple(symbols) + (0,)),  # one symbol too many
            st.integers(0, 3), st.none(),  # not sized
            st.just(set(symbols)), st.just(dict.fromkeys(symbols)),  # sized, not sequences
            st.tuples(st.integers(0, k - 1), _bad_symbol(n)).map(
                lambda bad: tuple(bad[1] if j == bad[0] else s for j, s in enumerate(symbols))),
        ))
        items.insert(at, spoiled)
    if n == 1 << 64 and draw(st.booleans()):
        items.append((np.uint64((1 << 64) - 1),) * k)
    return k, n, draw(st.integers(1, 8)), items


@settings(max_examples=400, deadline=None)
@given(_tuple_chunks())
def test_tuple_blocks_match_asarray_reference(case):
    # The same blocks (uint64, shape, values), or the same error after the
    # same number of blocks, as the np.asarray conversion they replace.
    k, n, block_lines, items = case
    with mock.patch.object(streamfile, "_BLOCK_LINES", block_lines):
        got = _blocks_or_error(streamfile.tuple_blocks(iter(items), k, n))
        want = _blocks_or_error(_asarray_tuple_blocks(iter(items), k, n))
        if want[1] is not None and want[1][0] is OverflowError:
            # The reference's one crash: numpy cannot compare a block of
            # bools with n >= 2^63.  Such a block now holds the ints the
            # bools stand for.
            assert n >= 1 << 63
            want = _blocks_or_error(_asarray_tuple_blocks(map(_bools_as_ints, items), k, n))
    assert got == want
    assert all(dtype == np.uint64 for dtype, _, _ in got[0])
    if want[1] is not None:
        assert want[1][0] is ValueError


def test_tuple_blocks_accept_numpy_bools_and_full_width_symbols():
    # np.bool_ has no __index__, so array("Q") refuses it and numpy converts
    # the chunk, as it always has.
    top = np.uint64((1 << 64) - 1)
    for items, n in [([(np.True_, 3), [np.False_, np.int8(1)]], 4),
                     ([(np.True_,), (np.False_,)], 1 << 64),
                     ([(True, top), (np.uint64(0), 1 << 63)], 1 << 64)]:
        (block,) = streamfile.tuple_blocks(items, len(items[0]), n)
        assert block.dtype == np.uint64
        assert block.tolist() == [[int(x) for x in item] for item in items]
    with pytest.raises(ValueError, match=r"in item \(True, False\)"):
        list(streamfile.tuple_blocks([(True, False)], 2, 1))
    for bad, message in [([{0, 1}], "expected 2-tuples"), ([(0, 1.0)], "must be integers"),
                         ([(0, 1 << 64)], "out of range"), ([(0, -1), (0, 0, 0)], "expected")]:
        with pytest.raises(ValueError, match=message):
            list(streamfile.tuple_blocks(bad, 2, 1 << 64))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_tuple_blocks_hold_one_chunk_at_a_time(k):
    # 10^5 k-tuples: the conversion holds one chunk's list, the block being
    # packed and the one last yielded, never a second chunk.
    def items():
        return ((300 + i % 1000,) * k for i in range(100_000))  # ints past the small-int cache

    gc.collect()  # empties the free lists, so every tuple of the chunk is a traced allocation
    tracemalloc.start()
    try:
        chunk = list(islice(items(), _BLOCK_LINES))
        chunk_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del chunk
    flat_bytes = 8 * k * _BLOCK_LINES
    tracemalloc.start()
    try:
        rows = sum(len(block) for block in streamfile.tuple_blocks(items(), k, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 100_000
    assert peak <= chunk_bytes + 2 * flat_bytes + (64 << 10)
