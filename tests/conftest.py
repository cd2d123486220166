import pytest

from projcond.streams import substream


@pytest.fixture
def rng_factory():
    """Deterministic per-test generators: rng_factory('label') is stable."""

    def make(label: str, index: int = 0):
        return substream(987654321, label, index)

    return make
