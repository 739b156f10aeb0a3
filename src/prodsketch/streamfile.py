"""Text format for tuple streams.

Header lines come first and start with ``#``; those of the form
``# key=value`` carry metadata (n, k, m, generator, lambda, rng_seed).
Every following non-empty line is one item: k comma-separated 0-based
integers.  The format is line-oriented on purpose: it diffs cleanly,
pipes through standard tools, and parses in one pass without seeking.

``iter_blocks`` reads the text in 64 KiB slabs and parses each block of
lines into a uint64 array in one numpy pass over its bytes; a block that is
not strictly digits, commas and newlines, or has a symbol >= n, is re-parsed
line by line, so the accepted syntax and the line numbers of errors are
those of one ``int()`` per field.  ``write_stream`` writes such blocks, one
string per block.
``tuple_blocks`` turns Python tuples into the same blocks, with the same
checks, for the bank and the frequency table: tuples or lists of k integers
in [0, n) are packed into one flat buffer by ``array("Q")``, and any other
chunk (``np.bool_`` symbols, or one to refuse) goes through ``np.asarray``,
so the same inputs are accepted and refused alike.

``row_runs`` is the one way from blocks to counts: it checks each block
and yields exact histograms of consecutive blocks, which
``EstimatorBank.ingest_blocks`` adds to its counters and of which
``FrequencyTable.from_blocks`` takes the one.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, islice
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

# Input lines per parsed block (the last block of a stream may be shorter).
_BLOCK_LINES = 8192
# Characters per read of the input.  Reads are not aligned to blocks; this
# bounds the text held past a block (1 MiB raised a piped RSS by half).
_CHUNK_CHARS = 1 << 16
# distinct_rows counts codes by one bincount, not a sort, when their grid
# has at most this many codes per row of the block.
_GRID_PER_ROW = 4
# A run ends before its item total reaches _EXACT_ITEMS, below which its
# counts, and every float64 sum of them, are exact.
_EXACT_ITEMS = 1 << 53


class FormatError(ValueError):
    """Malformed stream input; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def write_stream(
    fp: IO[str], blocks: Iterable[np.ndarray], header: Mapping[str, str] | None = None
) -> int:
    """Write header and (rows, k) uint64 blocks, one string each; returns the item count."""
    if header:
        for key, value in header.items():
            fp.write(f"# {key}={value}\n")
    count = 0
    for block in blocks:
        syms, inverse = np.unique(block, return_inverse=True)
        names = np.array(list(map(str, syms.tolist())), dtype=object)[inverse.reshape(block.shape)]
        if len(block):
            fp.write("\n".join(map(",".join, names.tolist())) + "\n")
        count += len(block)
    return count


def tuple_blocks(items: Iterable[tuple[int, ...]], k: int, n: int) -> Iterator[np.ndarray]:
    """Yield ``items`` as validated ``(rows, k)`` uint64 blocks of up to ``_BLOCK_LINES`` rows.

    Symbols must be integers (Python, numpy or bool) in ``[0, n)``; a block
    with any other value raises ``ValueError`` before it is yielded.
    ``array("Q")`` reads symbols through ``__index__`` and refuses the rest.
    """
    from array import array  # numpy does not import it, and CLI children never get here

    items = iter(items)
    while chunk := list(islice(items, _BLOCK_LINES)):
        block = None
        # numpy refuses rows such as sets and dicts, which have a length.
        if set(map(type, chunk)) <= {tuple, list} and set(map(len, chunk)) == {k}:
            with suppress(TypeError, OverflowError):  # a non-integer, or outside [0, 2^64)
                flat = array("Q", chain.from_iterable(chunk))
                block = np.frombuffer(flat, np.uint64).reshape(len(chunk), k)
        if block is None or int(block.max(initial=0)) >= n:
            block = _asarray_block(chunk, k, n)
        del chunk  # so two chunks are never held at once (peak memory)
        yield block


def _asarray_block(chunk: list, k: int, n: int) -> np.ndarray:
    """The (rows, k) uint64 block of ``chunk`` by numpy's conversion, or its ``ValueError``."""
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
    top = min(n, 2) if block.dtype == bool else n  # numpy compares bools only with n < 2^63
    bad = (block < 0) | (block >= top)
    if bad.any():
        item = tuple(block[bad.any(axis=1)][0].tolist())
        raise ValueError(f"symbol out of range [0, {n}) in item {item}")
    return block.astype(np.uint64, copy=False)


def distinct_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First index, inverse and multiplicity of the distinct rows of a block.

    ``block[first]`` are the distinct rows of the (rows, k) array, and row i
    of the block is ``block[first][inverse[i]]``.  Rows are told apart by
    mixed-radix codes with the symbols as digits, so code order is row
    order: a small grid of codes is counted with one bincount, a larger one
    ranked by one sort.  Where the radix would pass int64, a column's symbols
    are replaced by their ranks, and if that is not enough the codes are too.
    """
    code, radix = np.zeros(len(block), dtype=np.int64), 1
    for column in block.T:
        base = int(column.max(initial=0)) + 1
        if radix * base >= 1 << 62:
            syms, column = np.unique(column, return_inverse=True)
            base = len(syms)
            if radix * base >= 1 << 62:
                code, radix = np.unique(code, return_inverse=True)[1], len(block)
        code = code * base + column.astype(np.int64)
        radix *= base
    if radix <= _GRID_PER_ROW * len(block):  # a small grid: no sort
        counts, first = np.bincount(code, minlength=radix), np.full(radix, len(block))
        rank = np.empty(radix, dtype=np.int64)
        np.minimum.at(first, code, np.arange(len(block)))
        present = np.flatnonzero(counts > 0)
        rank[present] = np.arange(len(present))  # a code's place among the present ones
        return first[present], rank[code], counts[present]
    _, first, inverse, counts = np.unique(
        code, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse, counts


def merge_rows(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of (rows, counts) pairs with summed counts, exact while all sum below 2^53.

    A lone pair is returned unchanged: its rows are taken to be distinct.
    """
    if len(parts) == 1:
        return parts[0]
    rows, counts = map(np.concatenate, zip(*parts))
    first, inverse, _ = distinct_rows(rows)
    return rows[first], np.bincount(inverse, counts).astype(np.int64)


def row_runs(
    blocks: Iterable[np.ndarray], k: int, n: int, max_rows: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Check (rows, k) uint64 blocks and yield their items as runs of (distinct rows, counts).

    A block's distinct rows are merged into the run's once the unmerged ones
    outnumber them by more than a block.  A run ends once its merged support
    has passed ``max_rows`` (so it holds at most 2 * ``max_rows`` rows plus
    two blocks), before its item total would reach ``_EXACT_ITEMS``, at the
    end of ``blocks``, and when reading or checking a block raises: the
    pending run is yielded, then the error raised again.
    """
    parts, merged, total = [], 0, 0
    try:
        for block in blocks:
            if not isinstance(block, np.ndarray) or block.dtype != np.uint64 or block.shape[1:] != (k,):
                raise ValueError(f"expected a (rows, {k}) uint64 array")
            if len(block) and block.max() >= n:
                bad = block[(block >= n).any(axis=1)][0]
                raise ValueError(f"symbol out of range [0, {n}) in item {tuple(bad.tolist())}")
            if total and (merged > max_rows or total + len(block) >= _EXACT_ITEMS):
                yield merge_rows(parts)
                parts, merged, total = [], 0, 0
            first, _, counts = distinct_rows(block)
            parts.append((block[first], counts))
            total += len(block)
            if sum(len(c) for _, c in parts) > 2 * merged + len(block):
                parts = [merge_rows(parts)]
                merged = len(parts[0][1])
    except Exception:  # not GeneratorExit: a closed generator must not yield
        if total:
            yield merge_rows(parts)
        raise
    if total:
        yield merge_rows(parts)


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


def iter_blocks(
    fp: IO[str], first: tuple[int, str] | None, *, k: int, n: int
) -> Iterator[np.ndarray]:
    """Yield the items from ``first`` (as returned by read_header) onward, in blocks.

    Each block is a validated ``(rows, k)`` uint64 array covering up to
    ``_BLOCK_LINES`` consecutive input lines; blank lines are skipped and
    every symbol lies in ``[0, n)``.  The input is read exactly once,
    ``_CHUNK_CHARS`` characters at a time; the text past a block's last line
    is carried to the next, so every block covers the same lines.
    """
    if not (k >= 1 and 1 <= n <= 1 << 64):
        raise ValueError("k must be >= 1 and n must lie in [1, 2^64]")
    if first is None:
        return
    line_no, line = first
    text = (line + "\n").encode("utf-8", "surrogatepass")
    newlines = np.array([len(text) - 1])  # the offsets of the held text's newlines
    while True:
        while len(newlines) < _BLOCK_LINES and (chunk := fp.read(_CHUNK_CHARS)):
            data = chunk.encode("utf-8", "surrogatepass")
            found = np.flatnonzero(np.frombuffer(data, np.uint8) == 10) + len(text)
            text, newlines = text + data, np.concatenate((newlines, found))
        if not text:
            return
        cut = int(newlines[_BLOCK_LINES - 1]) + 1 if len(newlines) >= _BLOCK_LINES else len(text)
        block = _parse_block(text[:cut], line_no, k, n)
        line_no, text, newlines = line_no + _BLOCK_LINES, text[cut:], newlines[_BLOCK_LINES:] - cut
        if len(block):
            yield block


def _parse_block(data: bytes, line_no: int, k: int, n: int) -> np.ndarray:
    """Parse lines ``line_no, line_no + 1, ...`` of UTF-8 ``data`` by ``_canonical``.

    A block it refuses, or with a symbol >= n, is parsed by ``_parse_line``, line by line.
    """
    values = _canonical(np.frombuffer(data if data.endswith(b"\n") else data + b"\n", np.uint8), k)
    if values is not None and values.max() < n:
        return values.reshape(-1, k)
    items = []
    for offset, raw in enumerate(data.decode("utf-8", "surrogatepass").split("\n")):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            raise FormatError(line_no + offset, "header line after data")
        items.append(_parse_line(line_no + offset, stripped, k, n))
    return np.array(items, dtype=np.uint64).reshape(-1, k)


def _canonical(buf: np.ndarray, k: int) -> np.ndarray | None:
    """The symbols of newline-ended lines of k comma-joined fields of 1-19 digits, else None."""
    digits = buf - np.uint8(48)
    is_end = digits > 9  # the bytes after the fields, and any other non-digit
    if len(buf) % 2 == 0 and (is_end.view("<u2") == 256).all():  # digit, end, digit, ...
        seps, values = buf[1::2], digits[::2].astype(np.uint64)  # one-digit fields
    else:
        ends = np.flatnonzero(is_end)
        spans, seps = np.diff(ends, prepend=-1), buf[ends]  # a span is a field and its end
        if spans.min() < 2 or spans.max() > 20:
            return None
        values = digits[ends - 1].astype(np.uint64)
        for back in range(2, int(spans.max())):  # the digits worth 10^(back - 1)
            column = digits[ends - back]
            column[spans <= back] = 0  # shorter fields
            values += column * np.uint64(10 ** (back - 1))
    rows = len(seps) // k  # a newline ends every k-th field, a comma each other one
    if len(seps) == rows * k and (seps[k - 1::k] == 10).all():
        if np.count_nonzero(seps == 44) == len(seps) - rows:
            return values
    return None


def _parse_line(line_no: int, line: str, k: int, n: int) -> tuple[int, ...]:
    parts = line.split(",")
    try:
        if not line.isascii():  # int() also reads non-ASCII digits such as "\u0663"
            raise ValueError
        item = tuple(int(p) for p in parts)
    except ValueError:
        raise FormatError(line_no, f"not a comma-separated integer tuple: {line!r}")
    if len(item) != k:
        raise FormatError(line_no, f"expected {k} fields, got {len(item)}")
    for x in item:
        if not 0 <= x < n:
            raise FormatError(line_no, f"symbol {x} outside [0, {n})")
    return item
