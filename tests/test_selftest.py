"""Self-test battery semantics: coverage, fault injection, the field check."""

import hashlib
import itertools
import random
import sys
import types

import pytest

from prodsketch import field, oracle, selftest
from prodsketch.estimator import EstimatorBank
from prodsketch.field import FieldSpec
from prodsketch.hashing import SignHash
from prodsketch.selftest import battery_streams, check_field_axioms, run_selftest


def test_full_battery_passes_and_covers_k3():
    results = run_selftest()
    assert all(x.ok for x in results)
    names = {r.name for r in results}
    assert "tightness-k3" in names
    assert "expectation-matches-l2sq-k3-w1" in names
    assert "variance-bound-k3-w1" in names


def test_battery_runs_every_check_once():
    assert [r.name for r in run_selftest()] == [
        "field-axioms-w1", "field-axioms-w2", "field-axioms-w4", "field-axioms-w8",
        "reduction-polynomials-irreducible", "seed-census-w2",
        "expectation-matches-l2sq-k2-w2", "variance-bound-k2-w2",
        "expectation-matches-l2sq-k3-w1", "variance-bound-k3-w1",
        "tightness-k1", "tightness-k2", "tightness-k3", "merge-replay",
        "zero-single-and-constant", "zero-full-enumeration", "sketch-table-agreement",
    ]


def test_fault_injection_fails_only_the_field_check():
    results = run_selftest(field_fault=True)
    failed = {r.name for r in results if not r.ok}
    assert failed == {"field-axioms-w4"}


def test_batteries_are_fixed_and_desk_sized():
    k2 = battery_streams(2)
    assert len(k2) == 10
    assert all(1 <= len(s) <= 8 for s in k2)
    assert all(all(len(a) == 2 and 0 <= x < 4 for a in s for x in a) for s in k2)
    assert k2 == battery_streams(2)  # deterministic
    k3 = battery_streams(3)
    assert len(k3) == 6
    assert all(all(len(a) == 3 and 0 <= x < 2 for a in s for x in a) for s in k3)
    # The streams themselves are pinned: a moved seed changes no report.
    digests = [hashlib.sha256(repr(s).encode()).hexdigest() for s in (k2, k3)]
    assert digests == ["7a95f3804afe92864feb9d7553c9d7ecbc9817d004128adc21027e2429b97c55",
                       "9bef8f34959de14d6532625fd857e613ac3e4eda4c3e759b74cb9ef6da3d27b6"]


def _zero_check(results):
    (check,) = [r for r in results if r.name == "zero-full-enumeration"]
    return check.ok


def test_zero_full_enumeration_fails_on_a_broken_deviation_vector(monkeypatch):
    assert _zero_check(run_selftest())
    deviation = oracle._deviation_vector

    def shifted(table):
        v = deviation(table)
        v.flat[0] += 1
        return v

    monkeypatch.setattr(oracle, "_deviation_vector", shifted)
    assert not _zero_check(run_selftest())


def test_zero_full_enumeration_fails_on_a_broken_bank_marginal(monkeypatch):
    add_rows = EstimatorBank._add_rows

    def off_by_one(self, rows, counts):
        add_rows(self, rows, counts)
        self._counts[:, 1] += 1

    monkeypatch.setattr(EstimatorBank, "_add_rows", off_by_one)
    assert not _zero_check(run_selftest())


def _loop_axioms(spec):
    """``check_field_axioms`` without its product table: one loop.

    The reference for the (ok, detail) of ``check_field_axioms``.  A nonzero
    ``a`` fails when no ``b`` gives ``a * b == 1``.  It reads ``field_mul``
    from ``prodsketch.field`` at call time, so a test that patches the
    product there patches it here too.
    """
    field_mul = field.field_mul
    order = spec.order
    elements = range(order)
    for a in elements:
        if field_mul(0, a, spec) != 0 or field_mul(1, a, spec) != a:
            return False, f"identity/zero violated at a={a}"
    if order <= 16:
        triples = itertools.product(elements, repeat=3)
    else:
        rng = random.Random(0xF1E1D)
        triples = (
            tuple(rng.randrange(order) for _ in range(3)) for _ in range(300)
        )
    for a, b, c in triples:
        ab = field_mul(a, b, spec)
        if ab != field_mul(b, a, spec):
            return False, f"commutativity violated at ({a},{b})"
        if field_mul(ab, c, spec) != field_mul(a, field_mul(b, c, spec), spec):
            return False, f"associativity violated at ({a},{b},{c})"
        if field_mul(a, b ^ c, spec) != ab ^ field_mul(a, c, spec):
            return False, f"distributivity violated at ({a},{b},{c})"
    if order <= 256:
        for a in range(1, order):
            if all(field_mul(a, b, spec) != 1 for b in range(1, order)):
                return False, f"no inverse for a={a}"
    return True, "all axioms hold"


def _break_products(monkeypatch, *pairs):
    """Patch ``field_mul`` to flip the low bit of the products ``a * b`` in ``pairs``."""
    real = field.field_mul

    def broken(a, b, spec):
        return real(a, b, spec) ^ ((a, b) in pairs)

    monkeypatch.setattr(field, "field_mul", broken)
    monkeypatch.setattr(selftest, "field_mul", broken)


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_axioms_match_the_loop_on_every_field(width):
    spec = FieldSpec(width)
    assert check_field_axioms(spec) == _loop_axioms(spec) == (True, "all axioms hold")


def test_axioms_match_the_loop_on_the_reducible_ring():
    ring = types.SimpleNamespace(width=4, order=16, reduction_polynomial=0b10101)
    # x^2 + x + 1 (7) is the ring's first non-unit; the others are 9 and 14.
    assert check_field_axioms(ring) == _loop_axioms(ring) == (False, "no inverse for a=7")


@pytest.mark.parametrize("width, pairs, detail", [
    (4, [(1, 9)], "identity/zero violated at a=9"),
    (4, [(3, 2)], "commutativity violated at (2,3)"),
    (4, [(5, 6), (6, 5)], "associativity violated at (2,3,5)"),
    (2, [(3, 3)], "associativity violated at (2,2,3)"),
    (4, [(2, 3), (3, 2)], "distributivity violated at (2,1,2)"),
    (8, [(3, 0xF6), (0xF6, 3)], "distributivity violated at (3,110,152)"),  # a sampled triple
])
def test_axioms_match_the_loop_on_a_broken_product(monkeypatch, width, pairs, detail):
    _break_products(monkeypatch, *pairs)
    spec = FieldSpec(width)
    assert check_field_axioms(spec) == _loop_axioms(spec) == (False, detail)


@pytest.mark.parametrize("width, order, poly", [
    (16, 1 << 16, 0x10145),  # modulo (x^8+x^4+x^3+x+1)^2, a reducible ring
    (5, 32, 0b100101),  # GF(2^5) itself: a field, but not one it can certify
])
def test_axioms_refuse_orders_whose_inverses_go_unchecked(monkeypatch, width, order, poly):
    def no_product(*args, **kwargs):
        raise AssertionError("a product was computed before the refusal")

    monkeypatch.setattr(selftest, "field_mul", no_product)
    ring = types.SimpleNamespace(width=width, order=order, reduction_polynomial=poly)
    with pytest.raises(ValueError, match=f"order {order}$"):
        check_field_axioms(ring)


@pytest.mark.parametrize("pair, detail", [
    ((5, 0x52), "no inverse witnessed for a=5"),  # g^2 * g^253, a witness product
    ((5, 3), "no inverse witnessed for a=2"),  # g^2 * g: the powers miss elements
])
def test_w8_witness_fails_on_one_broken_product(monkeypatch, pair, detail):
    _break_products(monkeypatch, pair)
    assert check_field_axioms(FieldSpec(8)) == (False, detail)


def test_battery_work_is_bounded(monkeypatch):
    # Counts, not timings: evaluating per triple or per item again fails here.
    calls = {"field_mul": 0, "sign": 0}
    real_mul, real_call = field.field_mul, SignHash.__call__

    def counted_mul(a, b, spec):
        calls["field_mul"] += 1
        return real_mul(a, b, spec)

    def counted_call(self, x):
        calls["sign"] += 1
        return real_call(self, x)

    for name, module in list(sys.modules.items()):
        if name.startswith("prodsketch") and getattr(module, "field_mul", None) is real_mul:
            monkeypatch.setattr(module, "field_mul", counted_mul)
    monkeypatch.setattr(SignHash, "__call__", counted_call)
    assert all(x.ok for x in run_selftest())
    assert 0 < calls["field_mul"] <= 20_000
    assert 0 < calls["sign"] <= 5_000
