"""Worker counters as data: ``payload_counters`` keeps exactly the
declared integer counters of a result payload, and ``Telemetry`` sums
whatever ``TaskFinished.counters`` carries into one map."""

from repro.sched.events import (
    SOURCE_CACHE,
    SOURCE_EXECUTED,
    WORKER_COUNTERS,
    TaskFinished,
    Telemetry,
    payload_counters,
)


def worker_body(**vec):
    """A sample result payload shaped like ``sched.worker.execute_task``."""
    return {"status": "correct", "detail": "", "times": {1: 0.5},
            "diagnostics": [], "profile": None,
            "vec": {"tier": "numpy", "vectorize": True, "bulk_loops": 2,
                    "bulk_iters": 40, "fallbacks": 1, **vec},
            "compile_cache": {"hits": 3, "misses": 1}}


class TestPayloadCounters:
    def test_keeps_every_declared_counter(self):
        assert payload_counters(worker_body()) == {
            "vec_bulk_loops": 2, "vec_bulk_iters": 40, "vec_fallbacks": 1,
            "compile_cache_hits": 3, "compile_cache_misses": 1}
        assert set(payload_counters(worker_body())) == set(WORKER_COUNTERS)

    def test_drops_undeclared_and_non_integer_entries(self):
        counters = payload_counters(worker_body(fallbacks="1",
                                                bulk_iters=2.5,
                                                shadow=9))
        # vec.tier (a string), vec.vectorize (a bool), vec.shadow
        # (undeclared) and the non-integer values never become counters
        assert counters == {"vec_bulk_loops": 2, "compile_cache_hits": 3,
                            "compile_cache_misses": 1}

    def test_payloads_without_riders(self):
        assert payload_counters(None) == {}
        assert payload_counters({"baseline": 0.25}) == {}
        assert payload_counters({"vec": None, "compile_cache": None}) == {}


class TestTelemetryCounters:
    def test_task_counters_are_summed(self):
        telemetry = Telemetry()
        telemetry(TaskFinished("a", "sample", SOURCE_EXECUTED,
                               counters=payload_counters(worker_body())))
        telemetry(TaskFinished("b", "sample", SOURCE_EXECUTED,
                               counters={"vec_bulk_loops": 5,
                                         "compile_cache_misses": 2}))
        telemetry(TaskFinished("c", "sample", SOURCE_CACHE))
        assert telemetry.counters == {
            "vec_bulk_loops": 7, "vec_bulk_iters": 40, "vec_fallbacks": 1,
            "compile_cache_hits": 3, "compile_cache_misses": 3}
        assert telemetry.compile_cache_hits == 3
        assert telemetry.compile_cache_misses == 3

    def test_unreported_counters_read_zero(self):
        telemetry = Telemetry()
        telemetry(TaskFinished("c", "sample", SOURCE_CACHE))
        assert telemetry.counters == {}
        assert telemetry.compile_cache_hits == 0
        assert telemetry.compile_cache_misses == 0
