"""Exact integer-lattice algebra for row-generated sublattices of Z^n.

A sublattice is presented by a square integer matrix whose rows generate it:
the lattice is {x . M : x integer row vector}.  Everything here is exact
integer arithmetic (Python ints, so no overflow and no rounding): fraction-free
determinants, row-style Hermite normal form by Euclid's row reduction (the
form is unique, so the reduction's route cannot change it), coset counting,
and certification of nested chains Z^n > M Z^n > q Z^n.
"""

from __future__ import annotations

from math import prod
from operator import index
from typing import NamedTuple, Optional, Sequence


class IntMatrix(NamedTuple("IntMatrix", [("rows", tuple[tuple[int, ...], ...])])):
    """Square integer matrix, used as a lattice generator via its rows.

    The row convention matters: a vector v lies in the lattice exactly when
    v = x . M for some integer row vector x.  Entries must be integers
    (operator.index): a float or a string raises TypeError, not truncation.
    """

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = tuple(tuple(map(index, r)) for r in rows)
        if not rows:
            raise ValueError("matrix must have at least one row")
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        return super().__new__(cls, rows)

    # tuple's _make, and so _replace, would skip the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def scalar(cls, c: int, n: int) -> "IntMatrix":
        return cls(tuple(tuple(c * int(i == j) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)


def determinant(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    All intermediate divisions are exact, so the result is the true integer
    determinant regardless of entry size.
    """
    n = m.n
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_form(m: IntMatrix) -> IntMatrix:
    """Canonical row Hermite normal form of a nonsingular matrix.

    H is upper triangular with positive diagonal pivots, and every entry
    above a pivot is reduced into [0, pivot).  Euclid's subtract-and-swap
    clears each column below its pivot, leaving the gcd in the pivot row.
    Each step is a unimodular row operation, so the row spans of H and m
    coincide, which is what coset counting and the chain's inclusion test
    rely on; that H is unique makes the result independent of the steps.
    """
    n = m.n
    a = [list(r) for r in m.rows]
    for c in range(n):
        for r in range(c + 1, n):
            while a[r][c]:
                f = a[c][c] // a[r][c]
                a[c], a[r] = a[r], [x - f * y for x, y in zip(a[c], a[r])]
        if a[c][c] == 0:
            raise ValueError("singular matrix")
        if a[c][c] < 0:
            a[c] = [-x for x in a[c]]
        for r in range(c):
            f = a[r][c] // a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return IntMatrix(a)


def _solve_upper(h: IntMatrix, v: Sequence[int]) -> Optional[list[int]]:
    # Solve x . H = v over the integers for upper-triangular H with nonzero
    # diagonal; forward substitution column by column.
    n = h.n
    x = [0] * n
    for j in range(n):
        s = v[j] - sum(x[i] * h.rows[i][j] for i in range(j))
        quot, rem = divmod(s, h.rows[j][j])
        if rem:
            return None
        x[j] = quot
    return x


def coset_count(outer: IntMatrix, inner: IntMatrix) -> int:
    """Number of cosets of the inner lattice inside the outer lattice.

    Requires inner to be a sublattice of outer.  The count is the ratio of
    the Hermite-form pivot products, prod diag H(inner) / prod diag H(outer):
    no determinant is taken, so it is independent of `verify_chain`'s
    Bareiss index.  A singular lattice raises "singular matrix".
    """
    if outer.n != inner.n:
        raise ValueError("dimension mismatch")
    h_outer = hermite_form(outer)
    for row in inner.rows:
        if _solve_upper(h_outer, row) is None:
            raise ValueError("not a sublattice")
    quot, rem = divmod(
        prod(r[i] for i, r in enumerate(hermite_form(inner).rows)),
        prod(r[i] for i, r in enumerate(h_outer.rows)),
    )
    if rem:
        raise AssertionError("coset count is not integral despite inclusion")
    return quot


class ChainReport(NamedTuple):
    """Certificate for a nested chain Z^n > M Z^n > q Z^n.

    ambient_index is |Z^n / M Z^n| (equal to det_abs); scaled_index is
    |M Z^n / q Z^n| and is None when the inclusion q Z^n <= M Z^n fails,
    since the quotient is undefined in that case.
    """

    ambient_dim: int
    scale: int
    matrix: IntMatrix
    det_abs: int
    ambient_index: int
    scaled_index: Optional[int]
    inclusion_holds: bool

    @property
    def strictly_nested(self) -> bool:
        """Both inclusions proper: 1 < det_abs and scaled_index > 1."""
        return (
            self.inclusion_holds
            and self.det_abs > 1
            and self.scaled_index is not None
            and self.scaled_index > 1
        )


def verify_chain(m: IntMatrix, q: int) -> ChainReport:
    """Check the chain Z^n > M Z^n > q Z^n for an integer q; report the indices."""
    q = index(q)
    if q < 2:
        raise ValueError("scale must be at least 2")
    n = m.n
    det_abs = abs(determinant(m))
    if det_abs == 0:
        raise ValueError("singular matrix")
    h = hermite_form(m)
    inclusion = all(_solve_upper(h, e) is not None for e in IntMatrix.scalar(q, n).rows)
    scaled: Optional[int] = None
    if inclusion:
        scaled, rem = divmod(q**n, det_abs)
        if rem:
            raise AssertionError("index ratio is not integral despite inclusion")
    return ChainReport(
        ambient_dim=n, scale=q, matrix=m, det_abs=det_abs, ambient_index=det_abs,
        scaled_index=scaled, inclusion_holds=inclusion,
    )
