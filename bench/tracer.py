"""Spans for the traced run, recorded from outside the program.

The tracer replaces public functions of the ``prodsketch`` modules with
timing wrappers, at the module attribute where each caller looks them up
(``estimator`` binds ``batch_sign_eval`` by name, ``hashing`` binds
``field_mul_vec``, and so on), and restores them afterwards.  A target
that no longer exists is reported as absent, not as an error.

A span has a name, a start, an end, a parent and a run id.  Calls with the
same name under the same parent span in one run are merged into one span
that also carries its busy time and call count, so a per-item layer such as
stream parsing costs one record, not one per item.  Spans stay in memory
and are written out when the run ends.  A span's self time is its busy time
minus the busy time of its children; children always nest inside their
parent's calls, so the subtraction is exact.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (layer span name, kind, where it is looked up).  "iter" times each step
# of the returned iterator: a generator's work happens there, not at the
# call.  Dotted attributes name a method on a class.
TARGETS = (
    ("streamfile.read_header", "call", ("cli.read_header",)),
    ("streamfile.parse", "iter", ("cli.iter_items",)),
    ("streamfile.write", "call", ("cli.write_stream",)),
    ("streamgen.generate", "iter", ("cli.generate", "selftest.generate")),
    ("rng.words_at", "call", ("hashing.words_at",)),
    ("hashing.derive_coefficients", "call", ("estimator.derive_coefficients_batch",)),
    ("hashing.sign_eval", "call", ("estimator.batch_sign_eval", "oracle.batch_sign_eval")),
    ("field.mul_vec", "call", ("hashing.field_mul_vec",)),
    ("estimator.init", "call", ("estimator.EstimatorBank.__init__",)),
    ("estimator.ingest", "call", ("estimator.EstimatorBank.ingest_many",)),
    ("estimator.finalize", "call", ("estimator.EstimatorBank.estimate",)),
    ("estimator.snapshot_save", "call", ("estimator.EstimatorBank.save",)),
    ("estimator.snapshot_load", "call", ("estimator.EstimatorBank.load",)),
    ("estimator.merge", "call", ("estimator.merge_banks",)),
    ("oracle.table_add", "call", ("oracle.FrequencyTable.add",)),
    ("oracle.exact_l2sq", "call", ("cli.exact_l2sq", "selftest.exact_l2sq")),
    ("oracle.enumerate", "call", ("oracle.exhaustive_moments", "selftest.exhaustive_moments")),
    ("oracle.all_seed_signs", "call", ("oracle.all_seed_signs", "selftest.all_seed_signs")),
    ("selftest.run", "call", ("cli.run_selftest",)),
    ("rng.word_at", "count", ("streamgen.word_at", "hashing.word_at")),
)

# Sign evaluation is attributed to the nearest of these enclosing spans.
PHASES = {"estimator.init": "init", "estimator.ingest": "ingest",
          "oracle.all_seed_signs": "oracle"}


class Span:
    __slots__ = ("id", "name", "parent", "run_id", "start", "end", "busy", "calls")

    def __init__(self, sid, name, parent, run_id, start):
        self.id, self.name, self.parent, self.run_id = sid, name, parent, run_id
        self.start = self.end = start
        self.busy = 0.0
        self.calls = 0

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.run_id = 0
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self._stack: list[Span] = []
        self._merged: dict[tuple, Span] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> float:
        parent = self._stack[-1] if self._stack else None
        key = (name, parent.id if parent else None, self.run_id)
        now = time.perf_counter()
        span = self._merged.get(key)
        if span is None:
            span = Span(len(self.spans), name, key[1], self.run_id, now)
            self._merged[key] = span
            self.spans.append(span)
        self._stack.append(span)
        return now

    def exit(self, t0: float) -> None:
        now = time.perf_counter()
        span = self._stack.pop()
        span.busy += now - t0
        span.calls += 1
        span.end = now

    @contextmanager
    def span(self, name: str):
        t0 = self.enter(name)
        try:
            yield
        finally:
            self.exit(t0)

    def root(self) -> int | None:
        return self._stack[0].id if self._stack else None

    def phase(self) -> str:
        for span in reversed(self._stack):
            if span.name in PHASES:
                return PHASES[span.name]
        return "other"

    def count(self, key: str, value: int = 1) -> None:
        self.counts[(self.root(), key)] += value

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, kind, places in TARGETS:
            for place in places:
                module_name, _, attr_path = place.partition(".")
                try:
                    owner = importlib.import_module(f"prodsketch.{module_name}")
                    *owners, attr = attr_path.split(".")
                    for part in owners:
                        owner = getattr(owner, part)
                    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(place)
                    continue
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(name, kind, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, kind: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, kind, raw.__func__))
        fn = raw
        tracer = self
        hook = _COUNT_HOOKS.get(name)

        if kind == "count":
            def counted(*args, **kwargs):
                tracer.count(name + "_calls")
                return fn(*args, **kwargs)
            return counted

        if kind == "iter":
            def iterating(*args, **kwargs):
                return _TimedIterator(tracer, name, fn(*args, **kwargs))
            return iterating

        def timed(*args, **kwargs):
            t0 = tracer.enter(name)
            try:
                if hook is not None:
                    try:
                        hook(tracer, args, kwargs)
                    except Exception:  # a changed signature must not fail the program
                        tracer.hook_errors.add(name)
                return fn(*args, **kwargs)
            finally:
                tracer.exit(t0)
        return timed


class _TimedIterator:
    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer, self._name, self._inner = tracer, name, iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        t0 = tracer.enter(self._name)
        try:
            item = next(self._inner)
        finally:
            tracer.exit(t0)
        tracer.count(self._name + ".items")
        return item


def _sign_eval_counts(tracer: Tracer, args, kwargs) -> None:
    coefs, xs = args[0], args[1]  # (..., 4) coefficients, 1-D symbols
    phase = tracer.phase()
    tracer.count(f"hashing.sign_eval_calls.{phase}")
    tracer.count(f"hashing.sign_evals.{phase}", np.size(coefs) // 4 * np.size(xs))


def _mul_vec_counts(tracer: Tracer, args, kwargs) -> None:
    shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
    tracer.count(f"field.mul_vec_elems.{tracer.phase()}", math.prod(shape))


def _words_counts(tracer: Tracer, args, kwargs) -> None:
    tracer.count("rng.words", np.size(args[1]))


def _enumerate_counts(tracer: Tracer, args, kwargs) -> None:
    source, spec = args[0], kwargs["spec"]
    k = getattr(source, "k", None) or kwargs.get("k") or len(next(iter(source)))
    tracer.count("oracle.seed_tuples", (1 << (4 * spec.width)) ** k)


_COUNT_HOOKS = {
    "hashing.sign_eval": _sign_eval_counts,
    "field.mul_vec": _mul_vec_counts,
    "rng.words_at": _words_counts,
    "oracle.enumerate": _enumerate_counts,
}


# -- reading a run back ------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> busy time minus the busy time of its child spans."""
    own = {s.id: s.busy for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.busy
    return own


def phase_of(by_id: dict[int, Span], span: Span) -> str:
    """The PHASES value of the nearest enclosing phase span, or 'other'."""
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name in PHASES:
            return PHASES[span.name]
    return "other"
