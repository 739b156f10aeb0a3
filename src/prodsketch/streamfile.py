"""Text format for tuple streams.

Header lines come first and start with ``#``; those of the form
``# key=value`` carry metadata (n, k, m, generator, lambda, rng_seed).
Every following non-empty line is one item: k comma-separated 0-based
integers.  The format is line-oriented on purpose: it diffs cleanly,
pipes through standard tools, and parses in one pass without seeking.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator, Mapping


class FormatError(ValueError):
    """Malformed stream input; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def write_stream(
    fp: IO[str], items: Iterable[tuple[int, ...]], header: Mapping[str, str] | None = None
) -> int:
    """Write header and items; returns the number of items written."""
    if header:
        for key, value in header.items():
            fp.write(f"# {key}={value}\n")
    count = 0
    for item in items:
        fp.write(",".join(map(str, item)))
        fp.write("\n")
        count += 1
    return count


def read_header(fp: IO[str]) -> tuple[dict[str, str], tuple[int, str] | None]:
    """Consume the leading header block of an open stream.

    Returns the parsed ``key=value`` pairs and the first data line as
    ``(line_no, text)`` (None on an empty stream).  Each input line is
    read exactly once so the source may be a non-seekable pipe.
    """
    header: dict[str, str] = {}
    line_no = 0
    for raw in fp:
        line_no += 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        return header, (line_no, line)
    return header, None


def iter_items(
    fp: IO[str],
    first: tuple[int, str] | None,
    *,
    k: int | None = None,
    n: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield items starting from ``first`` (as returned by read_header).

    Arity is checked against ``k`` (or pinned to the first item's arity
    when k is None) and symbols against ``n`` when given.
    """
    if first is None:
        return
    line_no, line = first
    item = _parse_line(line_no, line, k, n)
    k = k if k is not None else len(item)
    yield item
    for raw in fp:
        line_no += 1
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            raise FormatError(line_no, "header line after data")
        yield _parse_line(line_no, stripped, k, n)


def _parse_line(
    line_no: int, line: str, k: int | None, n: int | None
) -> tuple[int, ...]:
    parts = line.split(",")
    try:
        item = tuple(int(p) for p in parts)
    except ValueError:
        raise FormatError(line_no, f"not a comma-separated integer tuple: {line!r}")
    if k is not None and len(item) != k:
        raise FormatError(line_no, f"expected {k} fields, got {len(item)}")
    for x in item:
        if x < 0 or (n is not None and x >= n):
            upper = n if n is not None else "inf"
            raise FormatError(line_no, f"symbol {x} outside [0, {upper})")
    return item
