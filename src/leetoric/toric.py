"""Cell structure of the q^n torus and the stabilizer commutation check.

Qubits live on the axis-aligned 2-cells of the periodic q^n cubical complex
for n >= 3, and on edges in two dimensions (instances.qubit_cell_dim).  A
qubit cell's index is its axes block (sorted axes subsets, lexicographic)
times q^n plus the row-major rank of its lower corner, and cells of every
other dimension are indexed alike.  One builder, boundary_columns, gives the
facets of every d-cell, their +e_a corners read off the torus table
lee.sphere_shifts.  An X-type operator acts on the qubit cells that share a
facet (d = k), a Z-type one on the boundary of a cell one dimension up
(d = k + 1), and commutation is dd = 0, checked in plain Python: numpy is
never loaded here.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, product
from math import comb
from operator import index, itemgetter

from .instances import qubit_cell_dim, qubits_per_vertex
from .lee import sphere_shifts


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


def boundary_columns(q: int, n: int, d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The facets of every d-cell of the q^n torus, one tuple of columns per block.

    Blocks are the d-cells' axes subsets in lexicographic order; a column
    holds one facet per d-cell, its corners row-major, and a facet's index
    is its own axes block times q^n plus the rank of its corner.  Per axis
    a, ascending, a block has two columns: the facet without a at the
    corner, then the same facet at corner + e_a.  d = k + 1 gives the Z
    supports; d = k gives each qubit cell's 2k facets, the X generators.
    """
    cells, facets = q**n, axes_tuples(n, d - 1)
    ids = tuple(range(len(facets) * cells))  # one int object per facet
    shifts = sphere_shifts(q, n)  # row 2a+1: the +e_a neighbour
    blocks = []
    for axes in axes_tuples(n, d):
        cols = []
        for a in axes:
            lo = facets.index(tuple(x for x in axes if x != a)) * cells
            block = ids[lo:lo + cells]
            # sphere_shifts refuses q < 2, so itemgetter gets >= 2 ranks and returns a tuple
            cols += [block, itemgetter(*shifts[2 * a + 1])(block)]
        blocks.append(tuple(cols))
    return tuple(blocks)


def commutation_check(q: int, n: int) -> bool:
    """Whether every X-type and Z-type pair overlaps on an even qubit count.

    That is dd = 0 on the torus: the X generators through a qubit cell are
    its facets, boundary_columns(q, n, k), and a Z support is the boundary
    of a (k+1)-cell, boundary_columns(q, n, k + 1).  dd = 0 pairs a Z row's
    2(k+1)·2k incidences: the facet without b at side sb of its cell without
    a at side sa is the one reached through b, then a.  Pairs are compared
    as vectors over a Z block's anchors: each column of the block is one
    operator.itemgetter, which gathers in C the facets that column meets, so
    all 2(k+1)·2k incidences of every anchor are still read.  An anchor
    where a pair differs has its incidence multiset counted, so doctored
    columns of boundary_columns' shape are judged exactly.  Past
    MAX_INCIDENCES, ValueError comes first.
    """
    # the work is at least q**n >= 2**n: refuse a long n before any power
    long_n = q >= 2 and n > MAX_INCIDENCES.bit_length()
    if long_n or stabilizer_counts(q, n)["incidences_checked"] > MAX_INCIDENCES:
        raise ValueError(f"the {q}^{n} torus is over the limit of {MAX_INCIDENCES} incidences")
    k = qubit_cell_dim(n)
    # facets[2j + s][f]: the X generator through qubit cell f's facet
    # without its j-th axis, at f's corner (s = 0) or across it (s = 1)
    facets = [list(chain.from_iterable(c)) for c in zip(*boundary_columns(q, n, k))]
    for cols in boundary_columns(q, n, k + 1):
        odd = set()
        # q**n >= 4 anchors, so each gather returns a tuple, not a bare item
        take = [itemgetter(*col) for col in cols]
        # column 2a + sa is the cell without the anchor's a-th axis; for
        # a < b, the anchor's b-th axis is that cell's (b-1)-th
        for a, b in combinations(range(len(cols) // 2), 2):
            for sa, sb in product((0, 1), repeat=2):
                via_a = take[2 * a + sa](facets[2 * b - 2 + sb])
                via_b = take[2 * b + sb](facets[2 * a + sa])
                if via_a != via_b:
                    odd.update(p for p, (x, y) in enumerate(zip(via_a, via_b)) if x != y)
        tallies = (Counter(s[col[p]] for col in cols for s in facets) for p in odd)
        if any(m % 2 for tally in tallies for m in tally.values()):
            return False
    return True
