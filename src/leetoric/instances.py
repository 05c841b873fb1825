"""The two certified code instances and their defining integer data.

Everything else in the package is generic in (q, n); this module pins the two
instances that are actually certified end to end: the 7^3 torus built from a
determinant-7 scaling matrix, and the 9^4 torus built from a determinant-9
one.  The Lee-code generators listed here are rows of those matrices reduced
mod q (the omitted rows are redundant mod q, which the tests confirm).
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import TYPE_CHECKING

from .lee import LeeCode, enumerate_codewords

if TYPE_CHECKING:
    from .lattices import IntMatrix

CERTIFIED: tuple[tuple[int, int], ...] = ((7, 3), (9, 4))

# rows of the scaling matrices; lattices loads only when one is asked for
_SCALING = {
    (7, 3): ((0, 2, 1), (0, 1, 4), (1, 0, 2)),
    (9, 4): ((0, 0, 1, 6), (0, 0, -1, 3), (0, 1, 1, 1), (1, 0, 0, 2)),
}

_GENERATORS = {
    (7, 3): ((0, 1, 4), (1, 0, 2)),
    (9, 4): ((0, 0, 1, 6), (0, 1, 1, 1), (1, 0, 0, 2)),
}


def require_certified(q: int, n: int) -> tuple[int, int]:
    """(q, n) as ints when certified; a float or a string raises TypeError."""
    q, n = index(q), index(n)
    if (q, n) not in CERTIFIED:
        raise ValueError("not certified")
    return q, n


def scaling_matrix(q: int, n: int) -> IntMatrix:
    """The integer matrix whose row lattice sits between Z^n and qZ^n."""
    from .lattices import IntMatrix

    return IntMatrix(_SCALING[require_certified(q, n)])


def code_generators(q: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Generator vectors of the certified Lee code, entries reduced mod q."""
    return _GENERATORS[require_certified(q, n)]


@lru_cache(maxsize=None, typed=True)  # typed: a 7.0 key must not hit the 7 entry
def certified_code(q: int, n: int) -> LeeCode:
    """The certified perfect Lee code on Z_q^n, enumerated once per process."""
    q, n = require_certified(q, n)
    return enumerate_codewords(code_generators(q, n), q, n)
