"""Cell structure of the q^n torus and toric-code bookkeeping.

Cells are axis-aligned: a k-cell is a lower-corner position plus the k axes
it spans, with periodic wraparound mod q.  Qubits live on 2-cells for n >= 3;
in two dimensions the usual convention puts them on edges instead, and the
enumeration below follows that.  Stabilizers are plain index sets: X-type
operators sit on the cells one dimension below the qubit cells, Z-type on the
cells one dimension above, and commutation is just overlap parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

# numpy is imported inside the functions that build arrays, not here: this
# module is on the `import leetoric` path of every CLI command, and only
# `verify stabilizers` and `interleave verify` use arrays.
if TYPE_CHECKING:
    import numpy as np

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Cell:
    """Axis-aligned k-cell: lower corner plus the k axes it spans."""

    position: Vec
    axes: tuple[int, ...]


@dataclass(frozen=True)
class CodeParams:
    """Quantum code parameter record [[n_code, k, d]] with capability t.

    d may be None for records that claim a correction capability without
    claiming a minimum distance (the interleaved codes do exactly that);
    when d is present, t must be the derived floor((d-1)/2).
    """

    n_code: int
    k: int
    d: Optional[int]
    t: int
    label: str

    def __post_init__(self) -> None:
        if not (self.n_code >= self.k >= 1):
            raise ValueError("need n_code >= k >= 1")
        if self.d is not None:
            if self.d < 1:
                raise ValueError("distance must be positive")
            if self.t != (self.d - 1) // 2:
                raise ValueError("t must equal floor((d-1)/2)")
        elif self.t < 0:
            raise ValueError("capability must be nonnegative")


@dataclass(frozen=True)
class StabilizerSupport:
    """One stabilizer generator as a set of qubit-cell indices."""

    kind: str  # "X" (star) or "Z" (boundary)
    anchor: Cell
    support: tuple[int, ...]


def qubit_cell_dim(n: int) -> int:
    """Dimension of the cells carrying qubits: 2-cells, except edges in 2D."""
    if n < 2:
        raise ValueError("torus dimension must be at least 2")
    return 2 if n >= 3 else 1


def axes_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All sorted k-subsets of the n axes, in lexicographic order."""
    return tuple(combinations(range(n), k))


def position_rank(point: Sequence[int], q: int) -> int:
    """Row-major rank of a torus point (first coordinate most significant)."""
    r = 0
    for x in point:
        r = r * q + int(x) % q
    return r


def position_unrank(rank: int, q: int, n: int) -> Vec:
    coords = []
    for _ in range(n):
        rank, x = divmod(rank, q)
        coords.append(x)
    return tuple(reversed(coords))


def enumerate_faces(q: int, n: int) -> tuple[Cell, ...]:
    """All qubit cells in index order: lexicographic axes, then position."""
    if q < 2 or n < 2:
        raise ValueError("need q >= 2 and n >= 2")
    k = qubit_cell_dim(n)
    return tuple(
        Cell(position=pos, axes=axes)
        for axes in axes_tuples(n, k)
        for pos in product(range(q), repeat=n)
    )


def face_index(q: int, n: int, cell: Cell) -> int:
    """Index of a qubit cell under the enumerate_faces order."""
    k = qubit_cell_dim(n)
    pairs = axes_tuples(n, k)
    try:
        a = pairs.index(cell.axes)
    except ValueError:
        raise ValueError("invalid face axes") from None
    if len(cell.position) != n:
        raise ValueError("invalid face position")
    return a * q**n + position_rank(cell.position, q)


def face_from_index(q: int, n: int, index: int) -> Cell:
    """Inverse of face_index."""
    k = qubit_cell_dim(n)
    pairs = axes_tuples(n, k)
    a, r = divmod(index, q**n)
    if not (0 <= a < len(pairs)) or index < 0:
        raise ValueError("face index out of range")
    return Cell(position=position_unrank(r, q, n), axes=pairs[a])


def face_owner(face: Cell) -> Vec:
    """The hypercube owning a qubit cell: the one at its lower corner."""
    return face.position


def _check_anchor(q: int, n: int, anchor: Cell, want_dim: int) -> Vec:
    axes = anchor.axes
    if len(axes) != want_dim or list(axes) != sorted(set(axes)):
        raise ValueError("invalid anchor")
    if any(a < 0 or a >= n for a in axes):
        raise ValueError("invalid anchor")
    if len(anchor.position) != n:
        raise ValueError("invalid anchor")
    return tuple(int(x) % q for x in anchor.position)


def star_support(q: int, n: int, anchor: Cell) -> StabilizerSupport:
    """X-type support: all qubit cells containing the anchor cell.

    The anchor lives one dimension below the qubit cells (a vertex in 2D, an
    edge otherwise), and each free axis contributes the two qubit cells on
    either side of it, so the support size is 2(n - k + 1).
    """
    k = qubit_cell_dim(n)
    pos = _check_anchor(q, n, anchor, k - 1)
    idx = []
    for a in range(n):
        if a in anchor.axes:
            continue
        axes = tuple(sorted(anchor.axes + (a,)))
        shifted = tuple(x - (i == a) for i, x in enumerate(pos))
        idx.append(face_index(q, n, Cell(pos, axes)))
        idx.append(face_index(q, n, Cell(tuple(x % q for x in shifted), axes)))
    return StabilizerSupport(kind="X", anchor=anchor, support=tuple(sorted(idx)))


def boundary_support(q: int, n: int, anchor: Cell) -> StabilizerSupport:
    """Z-type support: the qubit cells on the boundary of the anchor cell.

    The anchor lives one dimension above the qubit cells (a face in 2D, a
    cube or 3-cell otherwise); dropping each spanned axis gives a near and a
    far side, so the support size is 2(k + 1).
    """
    k = qubit_cell_dim(n)
    pos = _check_anchor(q, n, anchor, k + 1)
    idx = []
    for a in anchor.axes:
        axes = tuple(x for x in anchor.axes if x != a)
        shifted = tuple(x + (i == a) for i, x in enumerate(pos))
        idx.append(face_index(q, n, Cell(pos, axes)))
        idx.append(face_index(q, n, Cell(tuple(x % q for x in shifted), axes)))
    return StabilizerSupport(kind="Z", anchor=anchor, support=tuple(sorted(idx)))


# Refuse a commutation check whose overlap gather would exceed this many
# (Z generator, qubit, X generator) incidences; (9, 4) needs 629,856.
MAX_INCIDENCES = 2**23


def stabilizer_counts(q: int, n: int) -> dict:
    """Sizes of the commutation check on the q^n torus, from (q, n) alone.

    incidences_checked counts the (Z generator, qubit, X generator) triples
    the overlap gather visits: every Z support has 2(k + 1) qubit cells and
    every qubit cell has 2k facets, each the anchor of one X generator.
    """
    if q < 2 or n < 2:
        raise ValueError("need q >= 2 and n >= 2")
    k = qubit_cell_dim(n)
    cells = q**n
    z_generators = comb(n, k + 1) * cells
    return {
        "qubits": comb(n, k) * cells,
        "x_generators": comb(n, k - 1) * cells,
        "z_generators": z_generators,
        "incidences_checked": z_generators * 2 * (k + 1) * 2 * k,
    }


def _step(rank: np.ndarray, radix: int, q: int, delta: int) -> np.ndarray:
    # Move every position one step along the axis with this radix, mod q.
    digit = rank // radix % q
    return rank + ((digit + delta) % q - digit) * radix


def support_rows(q: int, n: int, kind: str) -> np.ndarray:
    """All X (star) or Z (boundary) supports, one sorted row per anchor.

    Anchors are ordered as enumerate_faces orders qubit cells: axes
    lexicographic, then positions row-major.  Row i equals the support that
    star_support / boundary_support builds for the i-th anchor.
    """
    import numpy as np

    k = qubit_cell_dim(n)
    if kind not in ("X", "Z"):
        raise ValueError("kind must be 'X' or 'Z'")
    cells = q**n
    face_block = {axes: i * cells for i, axes in enumerate(axes_tuples(n, k))}
    radix = [q ** (n - 1 - a) for a in range(n)]
    rank = np.arange(cells, dtype=np.int64)
    blocks = []
    for axes in axes_tuples(n, k - 1 if kind == "X" else k + 1):
        cols = []
        for a in range(n):
            if kind == "X" and a not in axes:
                base = face_block[tuple(sorted(axes + (a,)))]
                cols += [base + rank, base + _step(rank, radix[a], q, -1)]
            elif kind == "Z" and a in axes:
                base = face_block[tuple(x for x in axes if x != a)]
                cols += [base + rank, base + _step(rank, radix[a], q, 1)]
        blocks.append(np.stack(cols, axis=1))
    return np.sort(np.concatenate(blocks), axis=1)


def overlap_multiplicities(
    q: int, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Nonzero entries of hx·hzᵀ as (z_row, x_row, multiplicity) arrays.

    Each Z row gathers the X rows of its qubit cells through a face -> X-row
    incidence, and a pair's multiplicity is the number of shared qubit
    cells.  One Z axes-block (q^n rows) is gathered and yielded at a time.
    """
    import numpy as np

    xrows = support_rows(q, n, "X")
    zrows = support_rows(q, n, "Z")
    n_faces = stabilizer_counts(q, n)["qubits"]
    flat = xrows.ravel()
    starts = np.zeros(n_faces + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n_faces), out=starts[1:])
    members = np.argsort(flat, kind="stable") // xrows.shape[1]
    n_x = len(xrows)
    for z0 in range(0, len(zrows), q**n):
        block = zrows[z0 : z0 + q**n]
        faces = block.ravel()
        lengths = starts[faces + 1] - starts[faces]
        ends = np.cumsum(lengths)
        gather = np.repeat(starts[faces] - ends + lengths, lengths)
        gather += np.arange(ends[-1], dtype=np.int64)
        z = np.repeat(np.arange(z0, z0 + len(block)), block.shape[1])
        keys = np.repeat(z, lengths) * n_x + members[gather]
        pairs, multiplicity = np.unique(keys, return_counts=True)
        yield pairs // n_x, pairs % n_x, multiplicity


def commutation_check(q: int, n: int) -> bool:
    """Whether every X-type and Z-type pair overlaps on an even qubit count.

    Raises ValueError, before allocating anything, when the check would
    visit more than MAX_INCIDENCES incidences.
    """
    import numpy as np

    work = stabilizer_counts(q, n)["incidences_checked"]
    if work > MAX_INCIDENCES:
        raise ValueError(
            f"the {q}^{n} torus needs {work} incidences, over the limit of "
            f"{MAX_INCIDENCES}"
        )
    return all(
        not np.any(multiplicity % 2)
        for _, _, multiplicity in overlap_multiplicities(q, n)
    )


def literature_params(q: int, n: int) -> CodeParams:
    """Parameter record of the standard toric code on the q^n torus."""
    if q < 2:
        raise ValueError("need q >= 2")
    if n == 2:
        n_code, k, d = 2 * q**2, 2, q
    elif n == 3:
        n_code, k, d = 3 * q**3, 3, q
    elif n == 4:
        n_code, k, d = 6 * q**4, 6, q**2
    else:
        raise ValueError("unsupported dimension")
    return CodeParams(
        n_code=n_code, k=k, d=d, t=(d - 1) // 2, label=f"toric-{n}d-q{q}"
    )


def new_code_params(q: int, n: int) -> CodeParams:
    """Parameter record of the Lee-sphere-based code on the certified tori."""
    if (q, n) == (7, 3):
        n_code, k = 3 * q, 3
    elif (q, n) == (9, 4):
        n_code, k = 6 * q, 6
    else:
        raise ValueError("not certified")
    return CodeParams(n_code=n_code, k=k, d=3, t=1, label=f"lee-{n}d-q{q}")
