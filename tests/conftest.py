from __future__ import annotations

import tracemalloc

import pytest

from leetoric import build_interleaver, certified_code, enumerate_codewords


@pytest.fixture(scope="session")
def code3():
    return certified_code(7, 3)


@pytest.fixture(scope="session")
def code4():
    return certified_code(9, 4)


@pytest.fixture(scope="session")
def code52():
    """The (5,2) Golomb-Welch code {x : x_1 + 2 x_2 = 0 mod 5}, beyond the certified pair."""
    return enumerate_codewords(((1, 2),), 5, 2)


@pytest.fixture(scope="session")
def imap3(code3):
    return build_interleaver(code3)


@pytest.fixture(scope="session")
def imap4(code4):
    return build_interleaver(code4)


@pytest.fixture(scope="session")
def imap52(code52):
    return build_interleaver(code52)


@pytest.fixture
def traced_peak_mb():
    """Rise of the tracemalloc peak over one call of fn, in MB, after a
    warm-up call that takes lazy imports and caches out of the figure."""

    def measure(fn) -> float:
        fn()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - before) / 2**20
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure
