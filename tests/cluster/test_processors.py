"""Unit and property tests for the count-only processor pool."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.processors import ProcessorPool


class TestCountMode:
    def test_initial_state(self):
        pool = ProcessorPool(8)
        assert pool.free_cpus == 8
        assert pool.busy_cpus == 0

    def test_allocate_release_cycle(self):
        pool = ProcessorPool(8)
        pool.allocate(5)
        assert pool.free_cpus == 3
        pool.release(5)
        assert pool.free_cpus == 8

    def test_fits(self):
        pool = ProcessorPool(4)
        assert pool.fits(4)
        assert not pool.fits(5)
        assert not pool.fits(0)

    def test_overallocation_rejected(self):
        pool = ProcessorPool(4)
        pool.allocate(3)
        with pytest.raises(ValueError, match="only 1"):
            pool.allocate(2)

    def test_overrelease_rejected(self):
        pool = ProcessorPool(4)
        with pytest.raises(ValueError, match="exceed"):
            pool.release(1)

    def test_nonpositive_requests_rejected(self):
        pool = ProcessorPool(4)
        with pytest.raises(ValueError, match="positive"):
            pool.allocate(0)
        with pytest.raises(ValueError, match="CPU"):
            ProcessorPool(0)


@given(st.lists(st.integers(min_value=1, max_value=8), max_size=30))
def test_pool_conservation_property(sizes):
    """Alloc/release sequences never lose or invent CPUs."""
    pool = ProcessorPool(16)
    live = []
    for size in sizes:
        if pool.fits(size):
            pool.allocate(size)
            live.append(size)
        elif live:
            pool.release(live.pop(0))
        assert pool.free_cpus + sum(live) == 16
    for size in live:
        pool.release(size)
    assert pool.free_cpus == 16
