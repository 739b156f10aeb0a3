"""Command-line front end: estimate, exact, gen, selftest.

Reports are key=value lines, one per field, with a leading
``report_version``.  Exit codes: 0 success, 1 usage error, 2 data error
(malformed input, out-of-range symbols, budget refusals, files that cannot
be read or written), 3 self-test failure.  ``estimate`` performs exactly one pass over its input and never
seeks, so piped standard input works at any size.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from dataclasses import dataclass

from .estimator import AccuracyParams, EstimatorBank
from .field import SUPPORTED_WIDTHS, FieldSpec
from .oracle import FrequencyTable, exact_l2sq
from .selftest import all_passed, run_selftest
from .sketch import SketchConfig
from .streamfile import iter_items, read_header, write_stream
from .streamgen import GenSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3

REPORT_VERSION = 1


@dataclass(frozen=True)
class RunReport:
    estimate_l2_squared: float
    estimate_l2: float
    k: int
    n: int
    m: int
    s1: int
    s2: int
    master_seed: int
    elapsed_ms: int
    mode: str

    FIELDS = (
        "estimate_l2_squared",
        "estimate_l2",
        "k",
        "n",
        "m",
        "s1",
        "s2",
        "master_seed",
        "elapsed_ms",
        "mode",
    )

    def emit(self, out=None) -> None:
        out = out or sys.stdout
        print(f"report_version={REPORT_VERSION}", file=out)
        for key in self.FIELDS:
            value = getattr(self, key)
            text = repr(value) if isinstance(value, float) else str(value)
            print(f"{key}={text}", file=out)


def smallest_width(n: int) -> int:
    """Smallest supported field width whose domain holds [0, n)."""
    for w in SUPPORTED_WIDTHS:
        if n <= (1 << w):
            return w
    raise ValueError(f"alphabet size {n} exceeds the widest supported field")


class _Parser(argparse.ArgumentParser):
    # argparse default is exit code 2; usage errors are 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prodsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="one-pass sketch estimate of the dependence distance")
    est.add_argument("--input", default="-", help="stream file, or - for stdin")
    est.add_argument("--k", type=int, help="tuple arity (default: stream header)")
    est.add_argument("--n", type=int, help="alphabet size (default: stream header)")
    est.add_argument("--epsilon", type=float, default=0.2)
    est.add_argument("--delta", type=float, default=0.1)
    est.add_argument("--seed", type=int, default=0, help="master seed for hash derivation")
    est.add_argument("--paper-constants", action="store_true",
                     help="use s1 = ceil(72/eps^2) at k=2 instead of the derived constant")
    est.add_argument("--snapshot-out", help="write the bank snapshot to this path")
    est.set_defaults(func=cmd_estimate)

    exact = sub.add_parser("exact", help="exact squared L2 distance from a frequency table")
    exact.add_argument("--input", default="-")
    exact.add_argument("--k", type=int)
    exact.add_argument("--n", type=int)
    exact.add_argument("--memory-budget", type=int, default=1 << 24,
                       help="refuse tables needing more than this many entries")
    exact.set_defaults(func=cmd_exact)

    gen = sub.add_parser("gen", help="generate a synthetic stream file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--lambda", dest="lam", type=float, default=0.0,
                     help="probability of a diagonal (fully dependent) item")
    gen.add_argument("--rng-seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output path, or - for stdout")
    gen.set_defaults(func=cmd_gen)

    st = sub.add_parser("selftest", help="run the exhaustive verification battery")
    st.add_argument("--quick", action="store_true", help="skip the k=3 enumerations")
    st.add_argument("--inject-field-fault", action="store_true", help=argparse.SUPPRESS)
    st.set_defaults(func=cmd_selftest)
    return parser


@contextlib.contextmanager
def _open_input(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="ascii") as fp:
            yield fp


def _resolve_dims(args, header) -> tuple[int, int]:
    k = args.k if args.k is not None else _header_int(header, "k")
    n = args.n if args.n is not None else _header_int(header, "n")
    if k is None or n is None:
        raise ValueError("k and n must come from flags or the stream header")
    for name, flag, hdr in (("k", args.k, _header_int(header, "k")),
                            ("n", args.n, _header_int(header, "n"))):
        if flag is not None and hdr is not None and flag != hdr:
            raise ValueError(f"--{name}={flag} contradicts header {name}={hdr}")
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    return k, n


def _header_int(header: dict[str, str], key: str) -> int | None:
    if key not in header:
        return None
    try:
        return int(header[key])
    except ValueError:
        raise ValueError(f"stream header has non-integer {key}={header[key]!r}")


def cmd_estimate(args) -> int:
    try:
        params = AccuracyParams(epsilon=args.epsilon, delta=args.delta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    with _open_input(args.input) as fp:
        header, first = read_header(fp)
        k, n = _resolve_dims(args, header)
        config = SketchConfig(k=k, n=n, spec=FieldSpec(smallest_width(n)))
        bank = EstimatorBank(
            config,
            params=params,
            master_seed=args.seed,
            paper_constants=args.paper_constants,
        )
        bank.ingest_many(iter_items(fp, first, k=k, n=n))
    result = bank.estimate()
    elapsed_ms = int((time.monotonic() - start) * 1000)
    RunReport(
        estimate_l2_squared=result.l2_squared,
        estimate_l2=result.l2,
        k=k,
        n=n,
        m=bank.item_count,
        s1=bank.shape.s1,
        s2=bank.shape.s2,
        master_seed=args.seed,
        elapsed_ms=elapsed_ms,
        mode="independence",
    ).emit()
    if args.snapshot_out:
        # After the report, so a failed save never loses a finished estimate.
        sys.stdout.flush()
        try:
            bank.save(args.snapshot_out)
        except OSError as exc:
            print(f"error: cannot write snapshot: {exc}", file=sys.stderr)
            return EXIT_DATA
    return EXIT_OK


def cmd_exact(args) -> int:
    with _open_input(args.input) as fp:
        header, first = read_header(fp)
        k, n = _resolve_dims(args, header)
        if k * n > args.memory_budget:
            raise ValueError(
                f"marginal tables need {k * n} entries, over the budget of {args.memory_budget}"
            )
        table = FrequencyTable(k, n)
        for item in iter_items(fp, first, k=k, n=n):
            table.add(item)
            if len(table.joint) > args.memory_budget:
                raise ValueError(
                    f"joint support exceeds the memory budget of {args.memory_budget} entries"
                )
    value = exact_l2sq(table)
    print(f"report_version={REPORT_VERSION}")
    print(f"k={k}")
    print(f"n={n}")
    print(f"m={table.m}")
    print(f"exact_l2_squared_fraction={value.numerator}/{value.denominator}")
    print(f"exact_l2_squared={float(value)!r}")
    print(f"exact_l2={math.sqrt(value)!r}")
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GenSpec(n=args.n, k=args.k, m=args.m, lam=args.lam, rng_seed=args.rng_seed)
    header = spec.header()
    if args.out == "-":
        write_stream(sys.stdout, generate(spec), header)
    else:
        with open(args.out, "w", encoding="ascii") as fp:
            write_stream(fp, generate(spec), header)
        for key, value in header.items():
            print(f"# {key}={value}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = run_selftest(quick=args.quick, field_fault=args.inject_field_fault)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.name:<{width}}  expected: {r.expected}  actual: {r.actual}")
    if all_passed(results):
        print(f"selftest: {len(results)} checks passed")
        return EXIT_OK
    failed = sum(1 for r in results if not r.ok)
    print(f"selftest: {failed} of {len(results)} checks FAILED")
    return EXIT_SELFTEST


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
