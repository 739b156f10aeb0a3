"""Stream text format: round-trips, header parsing, block parsing, error line numbers."""

import io
import warnings
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
    read_header,
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


def test_closed_runs_end_without_yielding():
    # A consumer that stops, or raises, closes the generator at a yield: it
    # must end there, not yield the run it was holding again.
    block = np.array([[0, 1], [1, 0]], dtype=np.uint64)
    runs = streamfile.row_runs(iter([block] * 3), 2, 4, max_rows=0)
    rows, counts = next(runs)
    assert rows.tolist() == [[0, 1], [1, 0]] and counts.tolist() == [2, 2]
    runs.close()
