"""Self-test battery semantics: coverage, quick mode, fault injection."""

from prodsketch import oracle
from prodsketch.estimator import EstimatorBank
from prodsketch.selftest import all_passed, battery_streams_k2, battery_streams_k3, run_selftest


def test_full_battery_passes_and_covers_k3():
    results = run_selftest(quick=False)
    assert all_passed(results)
    names = {r.name for r in results}
    assert "tightness-k3" in names
    assert "expectation-matches-l2sq-k3-w1" in names
    assert "variance-bound-k3-w1" in names


def test_quick_skips_k3_but_keeps_k2():
    results = run_selftest(quick=True)
    assert all_passed(results)
    names = {r.name for r in results}
    assert "tightness-k3" not in names
    assert not any("k3" in n for n in names)
    assert "tightness-k2" in names
    assert "expectation-matches-l2sq-k2-w2" in names


def test_fault_injection_fails_only_the_field_check():
    results = run_selftest(quick=True, field_fault=True)
    failed = {r.name for r in results if not r.ok}
    assert failed == {"field-axioms-w4"}


def test_batteries_are_fixed_and_desk_sized():
    k2 = battery_streams_k2()
    assert len(k2) == 10
    assert all(1 <= len(s) <= 8 for s in k2)
    assert all(all(len(a) == 2 and 0 <= x < 4 for a in s for x in a) for s in k2)
    assert k2 == battery_streams_k2()  # deterministic
    k3 = battery_streams_k3()
    assert all(all(len(a) == 3 and 0 <= x < 2 for a in s for x in a) for s in k3)


def _zero_check(results):
    (check,) = [r for r in results if r.name == "zero-full-enumeration"]
    return check.ok


def test_zero_full_enumeration_fails_on_a_broken_deviation_vector(monkeypatch):
    assert _zero_check(run_selftest(quick=True))
    deviation = oracle._deviation_vector

    def shifted(table):
        v = deviation(table)
        v.flat[0] += 1
        return v

    monkeypatch.setattr(oracle, "_deviation_vector", shifted)
    assert not _zero_check(run_selftest(quick=True))


def test_zero_full_enumeration_fails_on_a_broken_bank_marginal(monkeypatch):
    add_rows = EstimatorBank._add_rows

    def off_by_one(self, rows, counts):
        add_rows(self, rows, counts)
        self._counts[:, 1] += 1

    monkeypatch.setattr(EstimatorBank, "_add_rows", off_by_one)
    assert not _zero_check(run_selftest(quick=True))
