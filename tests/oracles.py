"""Per-cell oracles for the torus engines: they walk one cell, face index or
burst pattern at a time, share no arithmetic with the engines, and nothing
in the package imports them.  numpy is a test dependency only: the package
runs on plain Python.  Two numpy oracles keep the package's former array
methods: the sorted-run overlap count of the commutation check
(overlap_multiplicities) and the hit-cell mask quotient of the burst sweep
(mask_quotient_sweep), whose tile classes come from a same-block matmul over
blocks looked up one tile cell at a time.
cell_facets builds the facets of every d-cell one cell at a time, and
support_rows reads the stabilizers off toric.boundary_columns: Z supports
are its (k+1)-cell rows, X supports its qubit-cell facets transposed.
bfs_codewords is the codeword closure written one coordinate at a time."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from leetoric import toric
from leetoric.interleave import InterleaverMap, LogicalIndex, PhysicalSlot, Vec
from leetoric.lee import lee_sphere
from leetoric.toric import axes_tuples, qubit_cell_dim, stabilizer_counts


@dataclass(frozen=True)
class Cell:
    """Axis-aligned k-cell: lower corner plus the k axes it spans."""

    position: Vec
    axes: tuple[int, ...]


@dataclass(frozen=True)
class StabilizerSupport:
    """One stabilizer generator as a set of qubit-cell indices."""

    kind: str  # "X" (star) or "Z" (boundary)
    anchor: Cell
    support: tuple[int, ...]


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


@dataclass(frozen=True)
class BurstPattern:
    """One burst: a Lee-sphere translate plus at most one error per tile cell."""

    anchor: Vec
    errors: frozenset[int]


@dataclass(frozen=True)
class CorrectionVerdict:
    correctable: bool
    per_block_error_counts: dict[tuple[int, int], int]


def code_block(index: LogicalIndex, q: int) -> tuple[int, int]:
    """Constituent code block of a logical index: (cross-section, i div q)."""
    return index.cross_section, index.codeword_index // q


def slot_to_face_index(q: int, n: int, ps: PhysicalSlot) -> int:
    """Face index of a physical slot under the toric enumeration order."""
    axes = axes_tuples(n, qubit_cell_dim(n))[ps.slot]
    return face_index(q, n, Cell(position=ps.hypercube, axes=axes))


def face_index_to_slot(q: int, n: int, index: int) -> PhysicalSlot:
    cell = face_from_index(q, n, index)
    slot = axes_tuples(n, qubit_cell_dim(n)).index(cell.axes)
    return PhysicalSlot(hypercube=face_owner(cell), slot=slot)


def deinterleave(imap: InterleaverMap, errored_faces: Iterable[int]) -> CorrectionVerdict:
    """Tally errored faces into constituent code blocks and judge the burst.

    Each face is routed through its owner hypercube and slot back to its
    logical index; a pattern is correctable when no block collects more than
    one error (the constituent codes correct a single error each).
    """
    counts: dict[tuple[int, int], int] = {}
    for f in errored_faces:
        ps = face_index_to_slot(imap.q, imap.n, int(f))
        li = imap.inverse[ps]
        key = code_block(li, imap.q)
        counts[key] = counts.get(key, 0) + 1
    correctable = all(v <= 1 for v in counts.values())
    return CorrectionVerdict(correctable=correctable, per_block_error_counts=counts)


def _tile_faces(anchor: Vec, q: int, n: int) -> list[list[int]]:
    # faces[k][s] = face index of slot s on the k-th hypercube of the tile
    offsets = lee_sphere(n).offsets
    alpha = len(axes_tuples(n, qubit_cell_dim(n)))
    out = []
    for off in offsets:
        h = tuple((a + b) % q for a, b in zip(anchor, off))
        out.append(
            [slot_to_face_index(q, n, PhysicalSlot(h, s)) for s in range(alpha)]
        )
    return out


def _pattern(anchor: Vec, faces: list[list[int]], vec: Iterable[int]) -> BurstPattern:
    # choice 0 = no error on that hypercube, choice s+1 = error on slot s
    errs = frozenset(faces[k][v - 1] for k, v in enumerate(vec) if v)
    return BurstPattern(anchor=anchor, errors=errs)


def enumerate_bursts(
    anchor: Vec,
    q: int,
    n: int,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Iterator[BurstPattern]:
    """Burst patterns on one Lee-sphere translate.

    Without samples: all (alpha+1)^(2n+1) patterns, in mixed-radix counting
    order starting from the empty burst.  With samples: that many patterns
    drawn independently and uniformly from the same space with a seeded
    generator, reproducible for a fixed seed.
    """
    anchor = tuple(int(x) % q for x in anchor)
    if len(anchor) != n:
        raise ValueError("invalid anchor")
    faces = _tile_faces(anchor, q, n)
    sphere = len(faces)
    alpha = len(faces[0])
    if samples is None:
        for vec in product(range(alpha + 1), repeat=sphere):
            yield _pattern(anchor, faces, vec)
    else:
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, alpha + 1, size=(samples, sphere))
        for vec in draws:
            yield _pattern(anchor, faces, vec)


def cell_facets(q: int, n: int, d: int) -> list[list[int]]:
    """The facets of every d-cell, one sorted list per cell, in cell order.

    Cells run over their axes blocks, then positions.  A facet drops one
    axis a of its cell, at the cell's corner or at corner + e_a, and is
    indexed as its axes block times q^n plus the position_rank of its corner.
    """
    facet_axes = axes_tuples(n, d - 1)
    out = []
    for axes in axes_tuples(n, d):
        for pos in product(range(q), repeat=n):
            idx = []
            for a in axes:
                lo = facet_axes.index(tuple(x for x in axes if x != a)) * q**n
                idx.append(lo + position_rank(pos, q))
                idx.append(lo + position_rank([x + (i == a) for i, x in enumerate(pos)], q))
            out.append(sorted(idx))
    return out


def support_rows(q: int, n: int, kind: str) -> tuple[tuple[int, ...], ...]:
    """One support tuple per X or Z generator, in generator order.

    Z rows are toric.boundary_columns(q, n, k + 1) read row by row.  X rows
    transpose the qubit cells' facets, boundary_columns(q, n, k): generator
    x acts on every qubit cell with x among its facets, in qubit order.
    """
    if kind not in ("X", "Z"):
        raise ValueError("kind must be 'X' or 'Z'")
    k = qubit_cell_dim(n)
    rows = (row for cols in toric.boundary_columns(q, n, k + (kind == "Z")) for row in zip(*cols))
    if kind == "Z":
        return tuple(rows)
    x_rows: list[list[int]] = [[] for _ in range(stabilizer_counts(q, n)["x_generators"])]
    for f, facets in enumerate(rows):
        for x in facets:
            x_rows[x].append(f)
    return tuple(map(tuple, x_rows))


def mask_quotient_sweep(imap: InterleaverMap) -> tuple[int, int]:
    """(failures, max_block_errors) of the exhaustive sweep, mask by mask.

    Every anchor's 2^(2n+1) masks of hit tile cells are judged, mask m
    standing for the alpha^|m| patterns hitting exactly those cells: the
    fullest block of a tile with classes cls sees max_k |m & cls[k]|
    errors, cls[k] being the bitmask of its cells in cell k's block, one
    bool -> int64 matmul of the same-block cube by the bit weights.  Anchors
    (row-major) with equal class rows share one evaluation.
    """
    offsets = lee_sphere(imap.n).offsets
    blocks = np.array([
        [imap.block_of[position_rank([a + o for a, o in zip(anchor, off)], imap.q)]
         for off in offsets]
        for anchor in product(range(imap.q), repeat=imap.n)
    ])
    sphere = len(offsets)
    cls = (blocks[:, :, None] == blocks[:, None, :]) @ (1 << np.arange(sphere))
    masks = np.arange(2**sphere)
    popcount = ((masks[:, None] >> np.arange(sphere)) & 1).sum(axis=1)
    weight = imap.alpha**popcount
    rows, anchors = np.unique(cls, axis=0, return_counts=True)
    failures = max_block = 0
    for lo in range(0, len(rows), 64):  # (masks, 64 classes, cells) at a time
        worst = popcount[masks[:, None, None] & rows[lo:lo + 64]].max(axis=-1)
        failures += int(((worst >= 2) * weight[:, None] * anchors[lo:lo + 64]).sum())
        max_block = max(max_block, int(worst.max()))
    return failures, max_block


def overlap_multiplicities(
    q: int, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Nonzero entries of hx·hzᵀ as (z_row, x_row, multiplicity) arrays.

    A pair's multiplicity, its number of shared qubit cells, is its run length
    in the Z row's sorted X-row incidences, one Z axes-block (q^n rows) at a
    time.  Reads toric.boundary_columns when first advanced; every qubit
    cell is in 2k X supports, one per facet.
    """
    xrows = np.asarray(support_rows(q, n, "X"))
    zrows = np.asarray(support_rows(q, n, "Z"))
    flat, per_face = xrows.ravel(), 2 * qubit_cell_dim(n)
    x_of_face = np.argsort(flat, kind="stable").reshape(-1, per_face) // xrows.shape[1]
    for b, block in enumerate(zrows.reshape(-1, q**n, zrows.shape[1])):
        inc = np.sort(x_of_face[block].reshape(q**n, -1))
        starts = np.flatnonzero(np.diff(inc, prepend=-1))
        z = b * q**n + starts // inc.shape[1]
        yield z, inc.ravel()[starts], np.diff(starts, append=inc.size)


def bfs_codewords(generators: Sequence[Sequence[int]], q: int, n: int) -> tuple[Vec, ...]:
    """The additive closure mod q in breadth-first order from 0, generators
    applied in the order given, each neighbour one generator expression."""
    gens = [tuple(x % q for x in g) for g in generators]
    zero = (0,) * n
    seen, order = {zero}, [zero]
    for p in order:
        for g in gens:
            s = tuple((a + b) % q for a, b in zip(p, g))
            if s not in seen:
                seen.add(s)
                order.append(s)
    return tuple(order)
