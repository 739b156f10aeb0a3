"""prodsketch benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload accept --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported and launched
from the checkout's ``src/`` and nothing else.  ``--trace 0`` launches the
``prodsketch`` CLI as a child process, one at a time, exactly as a user
would (a stream file, or a real stdin pipe for ``pipe``), and repeats
rounds of every operation until ``--seconds`` have passed.  ``--trace 1``
replays the same operations in-process under the tracer and reports
per-layer numbers.  Every operation's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy loads here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 120
SETUP_BATCH_S = 0.3  # one setup_s sample = mean over constructions filling this
IMPORT_SAMPLES = 3
SAMPLE_CELLS = 8  # cells per snapshot checked against the scalar oracle


def _load_program():
    """Import prodsketch from this checkout's src/, or exit 2."""
    if not (SRC / "prodsketch" / "cli.py").is_file():
        print(f"error: no prodsketch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import prodsketch

    if Path(prodsketch.__file__).resolve().parent != (SRC / "prodsketch").resolve():
        print(f"error: imported prodsketch from {prodsketch.__file__}", file=sys.stderr)
        sys.exit(2)


_load_program()

import numpy as np  # noqa: E402

from prodsketch import cli, estimator, oracle  # noqa: E402
from prodsketch.estimator import AccuracyParams, EstimatorBank  # noqa: E402
from prodsketch.field import FieldSpec  # noqa: E402
from prodsketch.hashing import derive_hashes  # noqa: E402
from prodsketch.sketch import SketchConfig  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as wl_mod  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    ENUM_N,
    ENUM_SEED_TUPLES,
    ENUM_WIDTH,
    GEN_M,
    PINS,
    SHARDS,
    WORKLOADS,
    sha256,
)


# Every timed sample follows PROBES_PER_SAMPLE runs of the spawner's probe;
# end-to-end times are reported as if the probe had taken PROBE_S, about its
# uncontended time on the box the baseline comes from.  See the README.
PROBES_PER_SAMPLE = 3
PROBE_S = 0.015


@dataclass
class Child:
    """Outcome of one CLI invocation: exit code, wall time, peak RSS, output."""

    code: int
    wall: float
    rss_mb: float
    out: str
    err: str


class Helper:
    """A helper process of the benchmark: one JSON request per line, one reply."""

    def __init__(self, script: str, *args: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / script), *args],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"helper {self.proc.args[1]} exited")
        return json.loads(line)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Spawner(Helper):
    """The small process that forks every CLI child; see ``spawner.py``."""

    def __init__(self, work: Path) -> None:
        super().__init__("spawner.py")
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], stdin: Path | None = None,
            module: tuple[str, ...] = ("-m", "prodsketch.cli")) -> Child:
        """Run one child to completion; peak RSS comes from its own rusage."""
        out, err = self.work / "child.out", self.work / "child.err"
        request = {"argv": [sys.executable, *module, *argv], "cwd": str(ROOT),
                   "env": self.env, "stdin": None if stdin is None else str(stdin),
                   "out": str(out), "err": str(err), "timeout": CHILD_TIMEOUT_S}
        reply = self.ask(request)
        return Child(reply["code"], reply["wall"], reply["maxrss_kb"] / 1024.0,
                     out.read_text("ascii", "replace"), err.read_text("ascii", "replace"))

    def probe(self, count: int) -> list[float]:
        return self.ask({"probe": count})["probe"]


class Builder(Helper):
    """The process that constructs every timed bank for ``setup_s``; see ``builder.py``."""

    def __init__(self, wl, seed: int) -> None:
        super().__init__("builder.py", json.dumps({
            "k": wl.k, "n": wl.n, "width": wl.width, "epsilon": wl.epsilon,
            "delta": wl.delta, "seed": seed}))

    def batch(self, seconds: float) -> dict:
        return self.ask({"seconds": seconds})


def run_inprocess(argv: list[str], stdin: bytes | None = None) -> Child:
    """Run ``prodsketch.cli.main`` in this process, as the child would."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="ascii")
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return Child(code, time.perf_counter() - t0, 0.0, out.getvalue(), err.getvalue())


def report_fields(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class Bench:
    """Inputs, operations and the correctness gate for one workload and seed."""

    def __init__(self, wl, seed: int, work: Path, spawner: Spawner,
                 builder: Builder | None, fault: str | None) -> None:
        self.wl, self.seed, self.work, self.fault = wl, seed, work, fault
        self.spawner, self.builder = spawner, builder
        self.items = wl_mod.generate_items(wl.n, wl.k, wl.m, wl.lam, seed)
        self.data = wl_mod.stream_bytes(self.items, wl.n, wl.lam, seed)
        self.exact = wl_mod.exact_l2sq(self.items, wl.n)
        gen_items = wl_mod.generate_items(wl.n, wl.k, GEN_M, wl.lam, seed)
        self.gen_sha = sha256(wl_mod.stream_bytes(gen_items, wl.n, wl.lam, seed))
        self.input_path = work / "stream.txt"
        self.input_path.write_bytes(self.data)
        self.snapshot_path = work / "bank.bin"
        self.gen_path = work / "gen.txt"
        self.shards = [list(map(tuple, part.tolist()))
                       for part in np.array_split(self.items, SHARDS)]
        self.config = SketchConfig(k=wl.k, n=wl.n, spec=FieldSpec(wl.width))
        self.params = AccuracyParams(epsilon=wl.epsilon, delta=wl.delta)
        enum_items = wl_mod.enum_items(seed)
        self.enum_table = self._table(enum_items, ENUM_N)
        self.enum_exact = wl_mod.exact_l2sq(enum_items, ENUM_N)
        s1, s2 = wl.shape
        rng = np.random.default_rng(20080)
        self.cells = sorted({(0, 0), (s2 - 1, s1 - 1)} | {
            (int(g), int(i)) for g, i in zip(rng.integers(0, s2, SAMPLE_CELLS - 2),
                                             rng.integers(0, s1, SAMPLE_CELLS - 2))})
        self.verified: tuple[str, str] | None = None  # (snapshot sha256, estimate text)
        self.single_pass: EstimatorBank | None = None
        self.attempted = 0
        self.failures: list[str] = []

    @staticmethod
    def _table(items: np.ndarray, n: int):
        table = oracle.FrequencyTable(items.shape[1], n)
        rows, counts = wl_mod.joint_counts(items, n)
        for row, c in zip(rows.tolist(), counts.tolist()):
            table.add(tuple(row), c)
        return table

    def gate(self, op: str, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{op}: {why}")
        return ok

    # -- operations -------------------------------------------------------
    # Each run_* does what a user does and returns its output; the matching
    # check_* passes that output through the gate.  Keeping them apart lets
    # the traced run time the first without tracing the second.

    def run_setup(self) -> EstimatorBank:
        return EstimatorBank(self.config, params=self.params, master_seed=self.seed)

    def check_setup(self, shape: tuple[int, int], items: int) -> None:
        self.gate("setup", shape == self.wl.shape and items == 0,
                  f"shape {shape} with {items} items, expected {self.wl.shape} with none")

    def _input(self) -> str:
        return "-" if self.wl.pipe else str(self.input_path)

    def _cli(self, argv: list[str], piped: bool, inprocess: bool) -> Child:
        if inprocess:
            return run_inprocess(argv, self.data if piped else None)
        return self.spawner.run(argv, self.input_path if piped else None)

    def run_estimate(self, inprocess: bool = False) -> Child:
        return self._cli(["estimate", "--input", self._input(), "--epsilon",
                          repr(self.wl.epsilon), "--delta", repr(self.wl.delta),
                          "--seed", str(self.seed), "--snapshot-out", str(self.snapshot_path)],
                         self.wl.pipe, inprocess)

    def check_estimate(self, child: Child) -> None:
        fields = report_fields(child.out)
        if not self.gate("estimate", child.code == 0 and fields.get("m") == str(self.wl.m),
                         f"exit {child.code}, m={fields.get('m')}: {child.err[-300:]}"):
            return
        text = fields.get("estimate_l2_squared", "")
        snapshot = self.snapshot_path.read_bytes()
        if self.fault == "snapshot":  # negative control: one counter off by one
            body = np.frombuffer(snapshot, dtype="<i8").copy()
            body[9] += 1  # t1 of cell (0, 0), after the magic and the 8-word header
            snapshot = body.tobytes()
        elif self.fault == "estimate":  # negative control: one ulp off
            text = repr(float(np.nextafter(float(text), np.inf)))
        digest = sha256(snapshot)
        if self.verified == (digest, text):
            self.gate("estimate", True)
            return
        why = self.verify_snapshot(snapshot, text, digest)
        if self.gate("estimate", not why, why):
            self.verified = (digest, text)

    def verify_snapshot(self, snapshot: bytes, text: str, digest: str) -> str:
        """Why the snapshot and the reported estimate are wrong, or ''."""
        try:
            bank = EstimatorBank.from_snapshot_bytes(snapshot)
        except ValueError as exc:
            return f"snapshot does not reload: {exc}"
        if bank.item_count != self.wl.m:
            return f"snapshot m={bank.item_count}"
        if repr(bank.estimate().l2_squared) != text:
            return f"reloaded estimate {bank.estimate().l2_squared!r} != reported {text}"
        values = bank.instance_values()
        # The estimate is the lower median over groups of each group's mean.
        groups = sorted((values.sum(axis=1) / values.shape[1]).tolist())
        want = groups[(len(groups) - 1) // 2]
        if repr(want) != text:
            return f"lower median of group means {want!r} != reported {text}"
        table = self._table(self.items, self.wl.n)
        for g, i in self.cells:
            hashes = derive_hashes(self.seed, self.wl.k, self.config.spec, self.wl.n,
                                   group=g, index=i)
            want = float(oracle.exact_y_from_table(table, hashes))
            if float(values[g, i]).hex() != want.hex():
                return f"cell ({g},{i}) Y={values[g, i]!r}, oracle {want!r}"
        if self.seed == DEFAULT_SEED and (text, digest) != PINS[self.wl.name]:
            return f"bit-identity pin: estimate {text} sha256 {digest}"
        self.single_pass = bank
        return ""

    def run_exact(self, inprocess: bool = False) -> Child:
        return self._cli(["exact", "--input", self._input()], self.wl.pipe, inprocess)

    def check_exact(self, child: Child) -> None:
        fields = report_fields(child.out)
        want = f"{self.exact.numerator}/{self.exact.denominator}"
        got = fields.get("exact_l2_squared_fraction")
        self.gate("exact", child.code == 0 and fields.get("m") == str(self.wl.m) and got == want,
                  f"exit {child.code}, m={fields.get('m')}, {got} != {want}")

    def run_gen(self, inprocess: bool = False) -> Child:
        wl = self.wl
        return self._cli(["gen", "--n", str(wl.n), "--k", str(wl.k), "--m", str(GEN_M),
                          "--lambda", repr(wl.lam), "--rng-seed", str(self.seed),
                          "--out", str(self.gen_path)], False, inprocess)

    def check_gen(self, child: Child) -> None:
        ok = child.code == 0 and sha256(self.gen_path.read_bytes()) == self.gen_sha
        self.gate("gen", ok, f"exit {child.code}, or output is not splitmix64ctr/1")

    def run_shard_merge(self):
        paths = []
        for j, part in enumerate(self.shards):
            bank = EstimatorBank(self.config, params=self.params, master_seed=self.seed)
            bank.ingest_many(part)
            paths.append(self.work / f"shard{j}.bin")
            bank.save(paths[-1])
        merged = None
        for path in paths:
            bank = EstimatorBank.load(path)
            merged = bank if merged is None else estimator.merge_banks(merged, bank)
        return merged, merged.estimate()

    def check_shard_merge(self, outcome) -> None:
        merged, result = outcome
        ok = (self.single_pass is not None and merged.counters_equal(self.single_pass)
              and repr(result.l2_squared) == self.verified[1])
        self.gate("shard_merge", ok, "merged counters or estimate differ from one pass")

    def run_selftest(self, inprocess: bool = False) -> Child:
        return self._cli(["selftest"], False, inprocess)

    def check_selftest(self, child: Child) -> None:
        lines = child.out.splitlines()
        ok = (child.code == 0 and bool(lines) and lines[-1].endswith("checks passed")
              and not any(line.startswith("FAIL") for line in lines))
        self.gate("selftest", ok, f"exit {child.code}: {lines[-1] if lines else ''}")

    def run_enumerate(self):
        return oracle.exhaustive_moments(self.enum_table, spec=FieldSpec(ENUM_WIDTH))

    def check_enumerate(self, moments) -> None:
        self.gate("enumerate", moments.expectation == self.enum_exact,
                  f"E[Y]={moments.expectation} != exact {self.enum_exact}")

    def run_setup_batch(self) -> dict:
        """Back-to-back constructions filling SETUP_BATCH_S, in the builder."""
        return self.builder.batch(SETUP_BATCH_S)

    def check_setup_batch(self, reply: dict) -> None:
        self.check_setup((reply["s1"], reply["s2"]), reply["items"])

    def attempt(self, op: str, run, check):
        """Run one operation and gate its output: (output or None, seconds).

        The seconds cover the run, not the check; a CLI child's are its
        own wall time, spawn to exit.  The program raising is a failed
        operation, not the end of the run.
        """
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:
            self.gate(op, False, f"raised {exc!r}")
            return None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        try:
            check(out)
        except Exception as exc:
            self.gate(op, False, f"output check raised {exc!r}")
        return out, getattr(out, "wall", wall)


# -- end-to-end run ----------------------------------------------------------

def percentile_note(samples: list[float]) -> str:
    """Median, sample count and the highest percentile with ten samples above."""
    n = len(samples)
    med = statistics.median(samples)
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        hi = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
        return f"median={med:.6g} p{p}={hi:.6g} n={n}"
    return f"median={med:.6g} max={max(samples):.6g} n={n} (too few for a tail percentile)"


# End-to-end metrics: (unit, the samples it reads, its value from their median).
E2E_METRICS = {
    "setup_s": ("s", "setup", lambda t, wl: t),
    "estimate_items_per_s": ("1/s", "estimate", lambda t, wl: wl.m / t),
    "estimate_peak_rss_mb": ("MB", "rss", lambda mb, wl: mb),
    "exact_items_per_s": ("1/s", "exact", lambda t, wl: wl.m / t),
    "gen_items_per_s": ("1/s", "gen", lambda t, wl: GEN_M / t),
    "shard_merge_s": ("s", "shard_merge", lambda t, wl: t),
    "selftest_s": ("s", "selftest", lambda t, wl: t),
    "oracle_seed_tuples_per_s": ("1/s", "enumerate", lambda t, wl: ENUM_SEED_TUPLES / t),
}
E2E_OPS = ("setup", "estimate", "exact", "gen", "selftest", "shard_merge", "enumerate")
# One round: every operation once, and setup_s, the shortest and noisiest,
# three times.
ROUND = ("setup", "setup", "setup", "estimate", "exact", "gen", "selftest", "shard_merge",
         "enumerate")


def run_end_to_end(bench: Bench, seconds: float):
    """Rounds of every operation, each sample right after its probes."""
    samples = {key: [] for key in ("rss", *E2E_OPS, *(f"ref_{op}" for op in E2E_OPS))}
    ops, probes = [], []  # each sample's operation and the probes run just before it
    # Warm-up, not timed: the first child after a while pays for cold file
    # caches, and the in-process operations leave malloc holding memory that
    # later ones reuse; start round 0 in the state every later round sees.
    for op in ("estimate", "shard_merge", "enumerate"):
        bench.attempt(op, getattr(bench, f"run_{op}"), getattr(bench, f"check_{op}"))
    start = time.perf_counter()
    took: dict[str, float] = {}  # each operation's last duration, probes included
    done = 0
    # The first round runs whole; after it, start an operation only if it
    # should end within --seconds.
    while done < len(ROUND) or (
            time.perf_counter() - start + took[ROUND[done % len(ROUND)]] <= seconds):
        op = ROUND[done % len(ROUND)]
        t0 = time.perf_counter()
        probes.append(bench.spawner.probe(PROBES_PER_SAMPLE))
        ops.append(op)
        if op == "setup":
            out, wall = bench.attempt("setup", bench.run_setup_batch, bench.check_setup_batch)
            wall = out["wall"] / out["count"] if out else wall
        else:
            out, wall = bench.attempt(op, getattr(bench, f"run_{op}"),
                                      getattr(bench, f"check_{op}"))
        samples[op].append(wall)
        if op == "estimate":
            samples["rss"].append(out.rss_mb if out else 0.0)
        took[op] = time.perf_counter() - t0
        done += 1
    print(f"# rounds={done / len(ROUND):.2f} measured_s={time.perf_counter() - start:.3f}")
    probes.append(bench.spawner.probe(PROBES_PER_SAMPLE))  # after the last sample
    samples["probe"] = probes
    # A sample's probe time: the median of the probes run just before it,
    # just after it and just before the previous sample.  One probe set is
    # noisy; the machine's speed changes little over a few seconds.
    for i, op in enumerate(ops):
        near = [t for batch in probes[max(0, i - 1):i + 2] for t in batch]
        samples[f"ref_{op}"].append(statistics.median(near))
    metrics = {}
    for name, (unit, key, value_of) in E2E_METRICS.items():
        if key == "rss":
            value = value_of(statistics.median(samples[key]), bench.wl)
            what = f"MB: {percentile_note(samples[key])}"
        else:
            value = value_of(probe_units(samples[key], samples[f"ref_{key}"]), bench.wl)
            what = (f"s: {percentile_note(samples[key])}; probe s: "
                    f"{percentile_note(samples[f'ref_{key}'])}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}={value!r} {unit}  ({key} {what})")
    return metrics, samples


def probe_units(times: list[float], refs: list[float]) -> float:
    """Seconds as if each probe had taken PROBE_S: the median over samples
    of time / (the median of the probes run around it)."""
    return PROBE_S * statistics.median(t / r for t, r in zip(times, refs))


# -- traced run --------------------------------------------------------------

PHASE_NAMES = ("init", "ingest", "oracle")

# Per-layer metrics (--trace 1), each with the tracer layer it reads: a
# metric whose layer could not be wrapped is reported ABSENT.
LAYER_SELF_TIMES = {  # metric: the span whose self time it sums, in s
    "streamfile.parse_s": "streamfile.parse",
    "streamgen.generate_s": "streamgen.generate",
    "streamfile.write_s": "streamfile.write",
    "rng.words_at_s": "rng.words_at",
    "hashing.derive_coefficients_s": "hashing.derive_coefficients",
    "hashing.sign_eval_s": "hashing.sign_eval",
    "field.mul_vec_s": "field.mul_vec",
    "estimator.init_s": "estimator.init",
    "estimator.ingest_s": "estimator.ingest",
    "estimator.finalize_s": "estimator.finalize",
    "estimator.snapshot_save_s": "estimator.snapshot_save",
    "estimator.snapshot_load_s": "estimator.snapshot_load",
    "estimator.merge_s": "estimator.merge",
    "oracle.table_add_s": "oracle.table_add",
    "oracle.exact_l2sq_s": "oracle.exact_l2sq",
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.all_seed_signs_s": "oracle.all_seed_signs",
}
LAYER_COUNTS = {  # metric: (layer, the tracer counts it sums)
    "streamfile.items": ("streamfile.parse", ("streamfile.parse.items",)),
    "rng.word_at_calls": ("rng.word_at", ("rng.word_at_calls",)),
    "rng.words": ("rng.words_at", ("rng.words",)),
    "oracle.seed_tuples": ("oracle.enumerate", ("oracle.seed_tuples",)),
}
for _base, _layer in (("hashing.sign_eval_calls", "hashing.sign_eval"),
                      ("hashing.sign_evals", "hashing.sign_eval"),
                      ("field.mul_vec_elems", "field.mul_vec")):
    LAYER_COUNTS[_base] = (_layer, tuple(f"{_base}.{p}" for p in PHASE_NAMES))
    for _p in PHASE_NAMES:
        LAYER_COUNTS[f"{_base}.{_p}"] = (_layer, (f"{_base}.{_p}",))
LAYER_DERIVED = {  # metric: (unit, layer or None)
    **{f"hashing.sign_eval_share.{p}": ("ratio", "hashing.sign_eval") for p in PHASE_NAMES},
    "hashing.sign_evals_per_needed": ("ratio", "hashing.sign_eval"),
    "estimator.ingest_sign_eval_share": ("ratio", "estimator.ingest"),
    "estimator.state_bytes": ("bytes", None),
    "estimator.snapshot_bytes": ("bytes", None),
    "cli.import_s": ("s", None),
    "cli.process_s": ("s", None),
    "trace.unattributed_s": ("s", None),
    "trace.overhead_s": ("s", None),
}
PER_LAYER = {  # metric: (unit, layer or None)
    **{m: ("s", layer) for m, layer in LAYER_SELF_TIMES.items()},
    **{m: ("count", layer) for m, (layer, _) in LAYER_COUNTS.items()},
    **LAYER_DERIVED,
}


def traced_cycle(bench: Bench, tr: tracing.Tracer, cycle: int) -> dict[str, float]:
    """One untraced and one traced in-process replay of every operation."""
    ops = (  # (name, run, check), each run as one CLI process would do it
        ("setup", bench.run_setup,
         lambda bank: bench.check_setup((bank.shape.s1, bank.shape.s2), bank.item_count)),
        ("estimate", lambda: bench.run_estimate(inprocess=True), bench.check_estimate),
        ("exact", lambda: bench.run_exact(inprocess=True), bench.check_exact),
        ("gen", lambda: bench.run_gen(inprocess=True), bench.check_gen),
        ("shard_merge", bench.run_shard_merge, bench.check_shard_merge),
        ("selftest", lambda: bench.run_selftest(inprocess=True), bench.check_selftest),
        ("enumerate", bench.run_enumerate, bench.check_enumerate),
    )
    tr.run_id = cycle
    untraced, traced, outs = {}, {}, {}
    for name, run, check in ops:
        # Each operation untraced and traced back to back, so both see the
        # same machine; alternate which goes first from cycle to cycle.
        pair = [(untraced, run), (traced, lambda run=run, name=name: traced_call(tr, name, run))]
        for walls, fn in pair[::-1] if cycle % 2 else pair:
            _fresh_process_state()
            outs[name], walls[name] = bench.attempt(name, fn, check)
        if name == "estimate":
            estimate_child, _ = bench.attempt(name, bench.run_estimate, check)
    setup_bank = outs["setup"]
    imports = [bench.spawner.run(["-c", "import prodsketch.cli"], module=()).wall
               for _ in range(IMPORT_SAMPLES)]

    spans = [s for s in tr.spans if s.run_id == cycle]
    own = tracing.self_times(spans)
    by_id = {s.id: s for s in spans}
    counts = {}
    for (root, key), value in tr.counts.items():
        if root is not None and root in by_id:
            counts[key] = counts.get(key, 0) + value
    estimate_root = next(s.id for s in spans if s.name == "op.estimate")

    def estimate_count(key: str) -> int:
        return tr.counts.get((estimate_root, key), 0)

    values: dict[str, float] = {}
    for metric, name in LAYER_SELF_TIMES.items():
        values[metric] = sum(own[s.id] for s in spans if s.name == name)
    for metric, (_, keys) in LAYER_COUNTS.items():
        values[metric] = float(sum(counts.get(key, 0) for key in keys))

    # Sign-evaluation time (with its field.mul_vec children) by phase.
    sign_busy = {p: 0.0 for p in PHASE_NAMES}
    for s in spans:
        if s.name == "hashing.sign_eval":
            phase = tracing.phase_of(by_id, s)
            if phase in sign_busy:
                sign_busy[phase] += s.busy
    total_sign = sum(sign_busy.values())
    for p in PHASE_NAMES:
        values[f"hashing.sign_eval_share.{p}"] = sign_busy[p] / total_sign if total_sign else 0.0
    ingest_busy = sum(s.busy for s in spans if s.name == "estimator.ingest")
    values["estimator.ingest_sign_eval_share"] = (sign_busy["ingest"] / ingest_busy
                                                  if ingest_busy else 0.0)

    needed = sum(len(np.unique(bench.items[:, d])) for d in range(bench.wl.k))
    s1, s2 = bench.wl.shape
    evals = estimate_count("hashing.sign_evals.init") + estimate_count("hashing.sign_evals.ingest")
    values["hashing.sign_evals_per_needed"] = evals / (s1 * s2 * needed)

    size = setup_bank.state_size() if setup_bank is not None else None
    values["estimator.state_bytes"] = float(8 * (size.counters + size.seeds)) if size else 0.0
    values["estimator.snapshot_bytes"] = float(bench.snapshot_path.stat().st_size)
    values["cli.import_s"] = statistics.median(imports)
    # The untraced replay: the traced one carries the wrappers' overhead.
    values["cli.process_s"] = (estimate_child.wall - untraced["estimate"]
                               if estimate_child is not None else 0.0)
    values["trace.unattributed_s"] = sum(own[s.id] for s in spans if s.name.startswith("op."))
    values["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
    return values


def traced_call(tr: tracing.Tracer, name: str, run):
    tr.install()
    try:
        with tr.span(f"op.{name}"):
            return run()
    finally:
        tr.uninstall()


def _fresh_process_state() -> None:
    """Drop the oracle's per-process sign-table cache, as a new CLI process would."""
    cache = getattr(oracle, "_sign_table_cache", None)
    if isinstance(cache, dict):
        cache.clear()


def run_traced(bench: Bench, seconds: float, trace_path: Path) -> dict:
    tr = tracing.Tracer()
    cycles: list[dict[str, float]] = []
    # Warm-up, not timed: the first in-process CLI run pays one-off costs
    # that would otherwise land on cycle 0's untraced `estimate`.
    bench.attempt("estimate", lambda: bench.run_estimate(inprocess=True), bench.check_estimate)
    start = time.perf_counter()
    while not cycles or (time.perf_counter() - start) * (len(cycles) + 1) / len(cycles) <= seconds:
        cycles.append(traced_cycle(bench, tr, len(cycles)))
    absent_targets = set(tr.absent)
    absent_layers = {name for name, _, places in tracing.TARGETS
                     if all(p in absent_targets for p in places)}
    values = {m: statistics.median(c[m] for c in cycles) for m in PER_LAYER}

    last = [s for s in tr.spans if s.run_id == len(cycles) - 1]
    own = tracing.self_times(last)
    totals: dict[str, list[float]] = {}
    for s in last:
        t = totals.setdefault(s.name, [0.0, 0])
        t[0] += own[s.id]
        t[1] += s.calls
    print(f"# traced cycles={len(cycles)} measured_s={time.perf_counter() - start:.3f}")
    print("# self time by span, last cycle (s, calls):")
    for name, (self_s, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        print(f"#   {name:<32} {self_s:10.4f} {calls:>9}")
    layers = {n: t for n, t in totals.items() if not n.startswith("op.")}
    if layers:
        print(f"# largest layer self time: {max(layers, key=lambda n: layers[n][0])}")
    by_id = {s.id: s for s in last}
    per_op: dict[str, dict[str, float]] = {}
    for s in last:
        if not s.name.startswith("op."):
            root = s
            while root.parent is not None:
                root = by_id[root.parent]
            op_layers = per_op.setdefault(root.name, {})
            op_layers[s.name] = op_layers.get(s.name, 0.0) + own[s.id]
    for op, op_layers in sorted(per_op.items()):
        top = max(op_layers, key=op_layers.get)
        print(f"# largest layer self time in {op}: {top} ({op_layers[top]:.4f} s)")
    for metric, (unit, layer) in PER_LAYER.items():
        mark = "  ABSENT" if layer in absent_layers else ""
        print(f"{metric}={values[metric]!r} {unit}{mark}")
    if tr.hook_errors:
        print(f"# counts missing, their hooks failed: {sorted(tr.hook_errors)}")
    print(f"# unattributed remainder {values['trace.unattributed_s']:.4f} s, "
          f"tracing overhead {values['trace.overhead_s']:.4f} s")
    trace_path.write_text(json.dumps({
        "absent": sorted(absent_targets),
        "spans": [s.as_dict() for s in tr.spans],
        "counts": [[root, key, v] for (root, key), v in tr.counts.items()],
    }))
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    return {m: {"value": v, "unit": PER_LAYER[m][0]} for m, v in values.items()}, cycles


# -- entry point -------------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = out.stdout.strip() if out.returncode == 0 else None
    digest = sha256(b"".join(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes()
                             for p in sorted(SRC.rglob("*.py"))))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "src_sha256": digest, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", choices=("snapshot", "estimate"),
                        help="negative control: corrupt what the gate reads")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {wl}")
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(work)
    builder = None if args.trace else Builder(wl, args.seed)  # setup_s samples only
    try:
        bench = Bench(wl, args.seed, work, spawner, builder, args.inject_fault)
        # The inputs are hundreds of thousands of tuples; keep the cyclic
        # collector from rescanning them during in-process operations.
        gc.freeze()
        if args.trace:
            metrics, samples = run_traced(bench, args.seconds, WORK / f"trace-{tag}.json")
        else:
            metrics, samples = run_end_to_end(bench, args.seconds)
    finally:
        for helper in (spawner, builder):
            if helper is not None:
                helper.close()
        shutil.rmtree(work, ignore_errors=True)
    failed = len(bench.failures)
    for failure in bench.failures[:20]:
        print(f"# FAILED {failure}")
    print(f"ops_failed_ratio={failed / bench.attempted!r} ratio  "
          f"({failed} of {bench.attempted} operations failed)")
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
              "metrics": metrics}
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({"env": env, **result, "samples": samples}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
