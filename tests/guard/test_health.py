"""HealthLedger classification: transient deaths vs poison tasks."""

from repro.guard import (
    HealthLedger,
    VERDICT_POISON,
    VERDICT_TRANSIENT,
)


class TestVerdicts:
    def test_first_death_is_transient(self):
        ledger = HealthLedger(poison_threshold=2)
        assert ledger.record_death("t", 0, "crash", "exit 13") \
            == VERDICT_TRANSIENT

    def test_second_distinct_worker_is_poison(self):
        ledger = HealthLedger(poison_threshold=2)
        ledger.record_death("t", 0, "crash", "exit 13")
        assert ledger.record_death("t", 1, "crash", "exit 13") \
            == VERDICT_POISON

    def test_same_worker_twice_stays_transient(self):
        """Distinct workers, not raw death count: the same worker dying
        twice on one task may be that worker's problem."""
        ledger = HealthLedger(poison_threshold=2)
        ledger.record_death("t", 0, "crash", "exit 13")
        assert ledger.record_death("t", 0, "crash", "exit 13") \
            == VERDICT_TRANSIENT

    def test_deaths_do_not_leak_across_tasks(self):
        ledger = HealthLedger(poison_threshold=2)
        ledger.record_death("a", 0, "crash", "x")
        assert ledger.record_death("b", 1, "crash", "x") \
            == VERDICT_TRANSIENT

    def test_threshold_one_quarantines_immediately(self):
        ledger = HealthLedger(poison_threshold=1)
        assert ledger.record_death("t", 0, "timeout", "hang") \
            == VERDICT_POISON

    def test_threshold_floor_is_one(self):
        assert HealthLedger(poison_threshold=0).poison_threshold == 1


class TestRegister:
    def test_quarantine_register(self):
        ledger = HealthLedger()
        assert "t" not in ledger.quarantined
        ledger.quarantine("t", "why")
        assert ledger.quarantined == {"t": "why"}

    def test_deaths_are_readable(self):
        ledger = HealthLedger()
        ledger.record_death("t", 3, "timeout", "deadline")
        assert ledger.distinct_workers("t") == {3}
        assert ledger.fingerprint("t") \
            == "poison task: killed 1 distinct workers (timeout)"


class TestFingerprint:
    def test_fingerprint_excludes_worker_ids(self):
        """Two runs may dispatch the task to differently-numbered
        workers; the journaled quarantine detail must not vary with it."""
        a, b = HealthLedger(), HealthLedger()
        a.record_death("t", 0, "crash", "exit 13")
        a.record_death("t", 1, "crash", "exit 13")
        b.record_death("t", 5, "crash", "exit 13")
        b.record_death("t", 9, "crash", "exit 13")
        assert a.fingerprint("t") == b.fingerprint("t")
        assert "poison task" in a.fingerprint("t")
        assert "2 distinct workers" in a.fingerprint("t")

    def test_fingerprint_sorts_kinds(self):
        a, b = HealthLedger(), HealthLedger()
        a.record_death("t", 0, "crash", "x")
        a.record_death("t", 1, "timeout", "y")
        b.record_death("t", 0, "timeout", "y")
        b.record_death("t", 1, "crash", "x")
        assert a.fingerprint("t") == b.fingerprint("t")
        assert "crash,timeout" in a.fingerprint("t")
