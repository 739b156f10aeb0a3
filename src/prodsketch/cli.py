"""Command-line front end: estimate, exact, gen, selftest.

Reports are key=value lines, one per field, with a leading
``report_version``.  Exit codes: 0 success, 1 usage error, 2 data error
(malformed input, out-of-range symbols, budget refusals, files or standard
streams that cannot be read or written), 3 self-test failure.  ``estimate``
performs exactly one pass over its input and never seeks, so piped standard
input works at any size.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
import time

from .streamfile import iter_blocks, read_header, write_stream

# The names each subcommand loads on first use, and their modules, so a
# child imports only the code its subcommand runs.  They are bound as
# attributes of this module, where the subcommands look them up, so a name
# patched here is the one that runs.
_LAZY = {
    "AccuracyParams": "estimator", "EstimatorBank": "estimator", "StateSize": "estimator",
    "derive_shape": "estimator", "SUPPORTED_WIDTHS": "field", "FieldSpec": "field",
    "SketchConfig": "sketch", "FrequencyTable": "oracle", "exact_l2sq": "oracle",
    "GenSpec": "streamgen", "generate_blocks": "streamgen", "run_selftest": "selftest",
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3

REPORT_VERSION = 1


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .<module> import <name>``, which ``-X importtime`` reports (import_module is not)
    value = getattr(__import__(_LAZY[name], globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def _load(*modules: str) -> None:
    """Bind the ``_LAZY`` names of these modules that are not bound (or patched) yet."""
    for name, module in _LAZY.items():
        if module in modules and name not in globals():
            __getattr__(name)


def _print_report(**fields) -> None:
    """Print ``report_version`` then one key=value line per field, floats by repr."""
    print(f"report_version={REPORT_VERSION}")
    for key, value in fields.items():
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")


def smallest_width(n: int) -> int:
    """Smallest supported field width whose domain holds [0, n)."""
    _load("field")
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
    est.add_argument("--memory-budget", type=int, default=1 << 27,
                     help="refuse banks needing more than this many counters")
    est.set_defaults(func=cmd_estimate)

    exact = sub.add_parser("exact", help="exact squared L2 distance from a frequency table")
    exact.add_argument("--input", default="-")
    exact.add_argument("--k", type=int)
    exact.add_argument("--n", type=int)
    exact.add_argument("--memory-budget", type=int, default=1 << 24,
                       help="refuse streams with more than this many distinct tuples")
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
    st.add_argument("--inject-field-fault", action="store_true", help=argparse.SUPPRESS)
    st.set_defaults(func=cmd_selftest)
    return parser


@contextlib.contextmanager
def _open_input(path: str):
    # Bytes outside ASCII decode to lone surrogates, so a file and stdin
    # both hand them to the line parser, which refuses them by line number.
    if path != "-":
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fp:
            yield fp
    elif sys.stdin is None:
        raise OSError("standard input is closed")
    elif not hasattr(sys.stdin, "buffer"):  # a text stream put in place of stdin
        yield sys.stdin
    else:
        fp = io.TextIOWrapper(sys.stdin.buffer, encoding="ascii", errors="surrogateescape")
        try:
            yield fp
        finally:
            fp.detach()  # leave sys.stdin's buffer open


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
        if not header[key].isascii():  # int() also reads non-ASCII digits
            raise ValueError
        return int(header[key])
    except ValueError:
        raise ValueError(f"stream header has non-integer {key}={header[key]!r}")


def cmd_estimate(args) -> int:
    _load("estimator", "field", "sketch")
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
        shape = derive_shape(params, k, paper_constants=args.paper_constants)
        size = StateSize.of(shape, k, config.spec.width)
        if size.counters > args.memory_budget:
            raise ValueError(
                f"bank needs {size.counters} counters, over the budget of {args.memory_budget}"
            )
        bank = EstimatorBank(config, shape=shape, master_seed=args.seed)
        bank.ingest_blocks(iter_blocks(fp, first, k=k, n=n))
    result = bank.estimate()
    _print_report(
        estimate_l2_squared=result.l2_squared,
        estimate_l2=result.l2,
        k=k,
        n=n,
        m=bank.item_count,
        s1=bank.shape.s1,
        s2=bank.shape.s2,
        master_seed=bank.master_seed,
        elapsed_ms=int((time.monotonic() - start) * 1000),
        mode="independence",
    )
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
    _load("oracle")
    with _open_input(args.input) as fp:
        header, first = read_header(fp)
        k, n = _resolve_dims(args, header)
        blocks = iter_blocks(fp, first, k=k, n=n)
        table = FrequencyTable.from_blocks(blocks, k, n, max_support=args.memory_budget)
    value = exact_l2sq(table)
    _print_report(
        k=k,
        n=n,
        m=table.m,
        exact_l2_squared_fraction=f"{value.numerator}/{value.denominator}",
        exact_l2_squared=float(value),
        exact_l2=math.sqrt(value),
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    _load("streamgen")
    spec = GenSpec(n=args.n, k=args.k, m=args.m, lam=args.lam, rng_seed=args.rng_seed)
    header = spec.header()
    if args.out == "-":
        write_stream(sys.stdout, generate_blocks(spec, 0, spec.m), header)
    else:
        with open(args.out, "w", encoding="ascii") as fp:
            write_stream(fp, generate_blocks(spec, 0, spec.m), header)
        for key, value in header.items():
            print(f"# {key}={value}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    _load("selftest")
    results = run_selftest(field_fault=args.inject_field_fault)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.name:<{width}}  expected: {r.expected}  actual: {r.actual}")
    failed = sum(not r.ok for r in results)
    if failed:
        print(f"selftest: {failed} of {len(results)} checks FAILED")
        return EXIT_SELFTEST
    print(f"selftest: {len(results)} checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if sys.stdout is None:  # print() would drop the report without a word
            raise OSError("standard output is closed")
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
