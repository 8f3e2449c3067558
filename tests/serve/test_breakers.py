"""The capped Retry-After hint sent with 429 rejections."""

from repro.serve.metrics import ServiceMetrics


class TestRetryAfterCap:
    def test_default_cap_is_sixty_seconds(self):
        assert ServiceMetrics(2).retry_after_cap == 60.0

    def test_cap_floor_is_one_second(self):
        assert ServiceMetrics(2, retry_after_cap=0.25).retry_after_cap == 1.0

    def test_custom_cap_bounds_a_pathological_estimate(self):
        """Satellite: one stalled batch must not tell clients to go away
        for hours — the hint saturates at the configured cap."""
        metrics = ServiceMetrics(1, retry_after_cap=5.0)
        metrics.record_batch(requests=1, planned=1, unique=1,
                             wall_seconds=600.0)
        assert metrics.retry_after(inflight=50) == 5

    def test_estimate_below_the_cap_passes_through(self):
        metrics = ServiceMetrics(2, retry_after_cap=60.0)
        metrics.record_batch(requests=1, planned=1, unique=1,
                             wall_seconds=2.0)
        assert metrics.retry_after(inflight=2) == 2

    def test_hint_rounds_up(self):
        metrics = ServiceMetrics(2)
        metrics.record_batch(requests=1, planned=1, unique=1,
                             wall_seconds=1.0)
        assert metrics.retry_after(inflight=3) == 2      # 1.5s, ceil
