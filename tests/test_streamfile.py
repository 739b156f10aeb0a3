"""Stream text format: round-trips, header parsing, error line numbers."""

import io

import pytest

from prodsketch.streamfile import FormatError, iter_items, read_header, write_stream


def test_write_read_roundtrip():
    buf = io.StringIO()
    items = [(0, 1), (2, 3), (1, 1)]
    assert write_stream(buf, items, {"n": "4", "k": "2"}) == 3
    buf.seek(0)
    header, first = read_header(buf)
    parsed = iter_items(buf, first, k=2, n=4)
    assert header == {"n": "4", "k": "2"}
    assert list(parsed) == items


def test_headerless_stream_and_arity_pinning():
    buf = io.StringIO("1,2\n3,0\n")
    header, first = read_header(buf)
    items = iter_items(buf, first)
    assert header == {}
    assert list(items) == [(1, 2), (3, 0)]


def test_blank_lines_and_comment_only_headers():
    buf = io.StringIO("# plain comment\n# n=4\n\n0,0\n\n1,1\n")
    header, first = read_header(buf)
    items = iter_items(buf, first, k=2, n=4)
    assert header == {"n": "4"}
    assert list(items) == [(0, 0), (1, 1)]


def test_empty_input():
    header, first = read_header(io.StringIO("# k=2\n"))
    assert header == {"k": "2"} and first is None
    assert list(iter_items(io.StringIO(), None, k=2)) == []


def test_malformed_line_reports_number():
    buf = io.StringIO("0,0\n0,x\n")
    items = iter_items(buf, read_header(buf)[1], k=2, n=4)
    with pytest.raises(FormatError) as err:
        list(items)
    assert "line 2" in str(err.value)
    assert err.value.line_no == 2


def test_arity_mismatch_detected():
    buf = io.StringIO("0,0,0\n")
    items = iter_items(buf, read_header(buf)[1], k=2)
    with pytest.raises(FormatError) as err:
        list(items)
    assert "expected 2 fields" in str(err.value)
    # without k, the first line pins the arity
    buf = io.StringIO("0,0,0\n1,1\n")
    items = iter_items(buf, read_header(buf)[1])
    with pytest.raises(FormatError) as err:
        list(items)
    assert "line 2" in str(err.value)


def test_symbol_range_checked():
    buf = io.StringIO("0,7\n")
    items = iter_items(buf, read_header(buf)[1], k=2, n=4)
    with pytest.raises(FormatError) as err:
        list(items)
    assert "symbol 7" in str(err.value)
    buf = io.StringIO("-1,0\n")
    items = iter_items(buf, read_header(buf)[1], k=2)
    with pytest.raises(FormatError):
        list(items)


def test_header_after_data_rejected():
    buf = io.StringIO("0,0\n# k=2\n1,1\n")
    items = iter_items(buf, read_header(buf)[1], k=2)
    with pytest.raises(FormatError) as err:
        list(items)
    assert "header line after data" in str(err.value)
