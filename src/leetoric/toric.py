"""Cell structure of the q^n torus and toric-code bookkeeping.

Qubits live on the axis-aligned 2-cells of the periodic q^n cubical complex
for n >= 3, and on edges in two dimensions.  A qubit cell's index is its
axes block (sorted axes subsets, lexicographic) times q^n plus the row-major
rank of its lower corner.  Stabilizer supports are rows of such indices,
their neighbouring corners read off the torus table lee.sphere_shifts:
X-type operators sit on the cells one dimension below the qubit cells,
Z-type on the cells one dimension above, and commutation is just overlap
parity.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import index
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .instances import require_certified
from .lee import sphere_shifts

# numpy is imported inside the functions that build arrays, not here: this
# module is on the `import leetoric` path of every CLI command, and only
# `verify stabilizers` and `interleave verify` use arrays.
if TYPE_CHECKING:
    import numpy as np


class CodeParams(
    NamedTuple("CodeParams", [("n_code", int), ("k", int), ("d", Optional[int]), ("t", int)])
):
    """Quantum code parameter record [[n_code, k, d]] with capability t.

    d may be None for records that claim a correction capability without
    claiming a minimum distance (the interleaved codes do exactly that);
    when d is present, t must be the derived floor((d-1)/2).
    """

    __slots__ = ()

    def __new__(cls, n_code: int, k: int, d: Optional[int], t: int) -> "CodeParams":
        if not (n_code >= k >= 1):
            raise ValueError("need n_code >= k >= 1")
        if d is not None:
            if d < 1:
                raise ValueError("distance must be positive")
            if t != (d - 1) // 2:
                raise ValueError("t must equal floor((d-1)/2)")
        elif t < 0:
            raise ValueError("capability must be nonnegative")
        return super().__new__(cls, n_code, k, d, t)

    # tuple's _make, and so _replace, would skip the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


def qubit_cell_dim(n: int) -> int:
    """Dimension of the cells carrying qubits: 2-cells, except edges in 2D."""
    if n < 2:
        raise ValueError("torus dimension must be at least 2")
    return 2 if n >= 3 else 1


def qubits_per_vertex(n: int) -> int:
    """alpha = C(n, k): one qubit cell per k-subset of axes at each vertex."""
    return comb(n, qubit_cell_dim(n))


def axes_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All sorted k-subsets of the n axes, in lexicographic order."""
    return tuple(combinations(range(n), k))


# Refuse a commutation check whose overlap gather would exceed this many
# (Z generator, qubit, X generator) incidences; (9, 4) needs 629,856.
MAX_INCIDENCES = 2**23


def stabilizer_counts(q: int, n: int) -> dict:
    """Sizes of the commutation check on the q^n torus, from (q, n) alone.

    incidences_checked counts the (Z generator, qubit, X generator) triples
    the overlap gather visits: every Z support has 2(k + 1) qubit cells and
    every qubit cell has 2k facets, each the anchor of one X generator.
    """
    q, n = index(q), index(n)
    if q < 2 or n < 2:
        raise ValueError("need q >= 2 and n >= 2")
    k = qubit_cell_dim(n)
    cells = q**n
    z_generators = comb(n, k + 1) * cells
    return {
        "qubits": qubits_per_vertex(n) * cells,
        "x_generators": comb(n, k - 1) * cells,
        "z_generators": z_generators,
        "incidences_checked": z_generators * 2 * (k + 1) * 2 * k,
    }


def support_rows(q: int, n: int, kind: str) -> np.ndarray:
    """All X (star) or Z (boundary) supports, one sorted row per anchor.

    Anchors are ordered as qubit cells are indexed: axes lexicographic,
    then positions row-major.  Row i holds the qubit cells containing
    (X) or bounding (Z) the i-th anchor.
    """
    import numpy as np

    k = qubit_cell_dim(n)
    if kind not in ("X", "Z"):
        raise ValueError("kind must be 'X' or 'Z'")
    face_block = {axes: i * q**n for i, axes in enumerate(axes_tuples(n, k))}
    # rows 0, 2a+1 and 2a+2: each vertex, its +e_a and its -e_a neighbour
    shifts = sphere_shifts(q, n)
    blocks = []
    for axes in axes_tuples(n, k - 1 if kind == "X" else k + 1):
        cols = []
        for a in range(n):
            if kind == "X" and a not in axes:
                base = face_block[tuple(sorted(axes + (a,)))]
                cols += [base + shifts[0], base + shifts[2 * a + 2]]
            elif kind == "Z" and a in axes:
                base = face_block[tuple(x for x in axes if x != a)]
                cols += [base + shifts[0], base + shifts[2 * a + 1]]
        blocks.append(np.stack(cols, axis=1))
    return np.sort(np.concatenate(blocks), axis=1)


def _z_incidences(q: int, n: int) -> Optional[Iterator[np.ndarray]]:
    # Per Z axes-block, each Z row's X rows (one per qubit-cell facet) sorted in
    # the row; None unless every qubit cell is in 2k X rows, as the table needs.
    import numpy as np

    xrows, zrows = support_rows(q, n, "X"), support_rows(q, n, "Z")
    flat, per_face = xrows.ravel(), 2 * qubit_cell_dim(n)
    if np.any(np.bincount(flat, minlength=stabilizer_counts(q, n)["qubits"]) != per_face):
        return None
    x_of_face = np.argsort(flat, kind="stable").reshape(-1, per_face) // xrows.shape[1]
    blocks = zrows.reshape(-1, q**n, zrows.shape[1])
    return (np.sort(x_of_face[block].reshape(q**n, -1)) for block in blocks)


def overlap_multiplicities(
    q: int, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Nonzero entries of hx·hzᵀ as (z_row, x_row, multiplicity) arrays.

    A pair's multiplicity, its number of shared qubit cells, is its run length
    in the Z row's sorted X-row incidences, one Z axes-block (q^n rows) at a
    time.  Raises ValueError when a qubit cell is not in exactly 2k X supports.
    """
    import numpy as np

    incidences = _z_incidences(q, n)
    if incidences is None:
        raise ValueError("some qubit cell is not in exactly 2k X supports")
    for b, inc in enumerate(incidences):
        starts = np.flatnonzero(np.diff(inc, prepend=-1))
        z = b * q**n + starts // inc.shape[1]
        yield z, inc.ravel()[starts], np.diff(starts, append=inc.size)


def commutation_check(q: int, n: int) -> bool:
    """Whether every X-type and Z-type pair overlaps on an even qubit count.

    A sorted incidence row has only even runs exactly when its entries pair
    up; X supports that do not put every qubit cell in exactly 2k of them
    fail.  Raises ValueError, before allocating anything, when the check
    would visit more than MAX_INCIDENCES incidences.
    """
    # the work is at least q**n >= 2**n: refuse a long n before any power
    long_n = q >= 2 and n > MAX_INCIDENCES.bit_length()
    if long_n or stabilizer_counts(q, n)["incidences_checked"] > MAX_INCIDENCES:
        raise ValueError(
            f"the {q}^{n} torus is over the limit of {MAX_INCIDENCES} incidences"
        )
    incidences = _z_incidences(q, n)
    return incidences is not None and all((i[:, 0::2] == i[:, 1::2]).all() for i in incidences)


def literature_params(q: int, n: int) -> CodeParams:
    """Parameter record of the standard toric code on the q^n torus.

    [[alpha q^n, alpha, q^min(c, n-c)]] for qubits on c-cells: there are
    alpha = C(n, c) = dim H_c(T^n) logical qubits, and the shortest logical
    operators are the c- and (n-c)-dimensional slices of the torus.
    """
    q, n = index(q), index(n)
    if q < 2:
        raise ValueError("need q >= 2")
    if not 2 <= n <= 4:
        raise ValueError("unsupported dimension")
    alpha, c = qubits_per_vertex(n), qubit_cell_dim(n)
    d = q ** min(c, n - c)
    return CodeParams(n_code=alpha * q**n, k=alpha, d=d, t=(d - 1) // 2)


def new_code_params(q: int, n: int) -> CodeParams:
    """Parameter record of the Lee-sphere-based code on the certified tori.

    alpha qubits on each of the q = |det M| vertices of Z^n / L(M); the
    distance 3 is the Lee code's, which `mindist` certifies.
    """
    q, n = require_certified(q, n)
    alpha = qubits_per_vertex(n)
    return CodeParams(n_code=alpha * q, k=alpha, d=3, t=1)
