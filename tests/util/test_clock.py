"""Tests for the shared monotonic ns clock."""

from repro.util.clock import elapsed_ns, now_ns


class TestNow:
    def test_monotonic(self):
        a = now_ns()
        b = now_ns()
        assert b >= a

    def test_elapsed_nonnegative_integer(self):
        start = now_ns()
        delta = elapsed_ns(start)
        assert isinstance(delta, int)
        assert delta >= 0
