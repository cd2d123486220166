import tracemalloc

import pytest

from projcond.streams import substream


@pytest.fixture
def rng_factory():
    """Deterministic per-test generators: rng_factory('label') is stable."""

    def make(label: str, index: int = 0):
        return substream(987654321, label, index)

    return make


@pytest.fixture
def traced_peak():
    """traced_peak(fn) runs fn() under tracemalloc and returns its value and
    the peak of the memory traced meanwhile, in bytes."""

    def run(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
