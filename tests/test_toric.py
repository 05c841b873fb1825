from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from leetoric import (
    CERTIFIED,
    CodeParams,
    commutation_check,
    interleaved_params,
    literature_params,
    minimum_distance,
    new_code_params,
    scaling_matrix,
    verify_chain,
)
from leetoric import toric
from leetoric.toric import (
    MAX_INCIDENCES,
    axes_tuples,
    boundary_columns,
    qubit_cell_dim,
    stabilizer_counts,
)
from oracles import (
    Cell,
    boundary_support,
    cell_facets,
    enumerate_faces,
    face_from_index,
    face_index,
    face_owner,
    overlap_multiplicities,
    position_rank,
    position_unrank,
    star_support,
    support_rows,
)


def cell_vertices(cell: Cell, q: int) -> frozenset:
    """All corners of a cell, as torus points; independent incidence oracle."""
    verts = []
    for picks in product((0, 1), repeat=len(cell.axes)):
        p = list(cell.position)
        for bit, axis in zip(picks, cell.axes):
            p[axis] = (p[axis] + bit) % q
        verts.append(tuple(p))
    return frozenset(verts)


@pytest.mark.parametrize(
    "q,n,count", [(7, 3, 1029), (9, 4, 39366), (5, 2, 50), (3, 4, 486), (2, 3, 24)]
)
def test_face_counts(q, n, count):
    assert len(enumerate_faces(q, n)) == count


def test_enumerate_faces_validation():
    with pytest.raises(ValueError):
        enumerate_faces(1, 3)
    with pytest.raises(ValueError):
        enumerate_faces(5, 1)


@pytest.mark.parametrize("q,n", [(5, 2), (7, 3)])
def test_enumeration_order_matches_index(q, n):
    for i, face in enumerate(enumerate_faces(q, n)):
        assert face_index(q, n, face) == i


@pytest.mark.parametrize("q,n", [(7, 3), (9, 4)])
def test_index_bijection_full(q, n):
    total = len(enumerate_faces(q, n))
    for i in range(total):
        face = face_from_index(q, n, i)
        assert face_index(q, n, face) == i


def test_face_index_errors():
    with pytest.raises(ValueError):
        face_index(7, 3, Cell((0, 0, 0), (0, 3)))
    with pytest.raises(ValueError):
        face_index(7, 3, Cell((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        face_from_index(7, 3, 1029)


@pytest.mark.parametrize("q,n,per_cube", [(7, 3, 3), (9, 4, 6), (5, 2, 2)])
def test_owner_partition(q, n, per_cube):
    owners = Counter(face_owner(f) for f in enumerate_faces(q, n))
    assert len(owners) == q**n
    assert set(owners.values()) == {per_cube}


def test_face_owner_is_lower_corner():
    f = Cell((1, 2, 3), (0, 1))
    assert face_owner(f) == (1, 2, 3)


@pytest.mark.parametrize(
    "q,n,star_size,boundary_size",
    [(5, 2, 4, 4), (7, 3, 4, 6), (3, 4, 6, 6), (9, 4, 6, 6)],
)
def test_support_sizes(q, n, star_size, boundary_size):
    rng = random.Random(n * 100 + q)
    k = qubit_cell_dim(n)
    total = len(list(combinations(range(n), k))) * q**n
    for _ in range(25):
        pos = tuple(rng.randrange(q) for _ in range(n))
        star_axes = tuple(sorted(rng.sample(range(n), k - 1)))
        star = star_support(q, n, Cell(pos, star_axes))
        assert star.kind == "X"
        assert len(star.support) == star_size
        assert len(set(star.support)) == star_size
        assert all(0 <= i < total for i in star.support)

        bound_axes = tuple(sorted(rng.sample(range(n), k + 1)))
        bound = boundary_support(q, n, Cell(pos, bound_axes))
        assert bound.kind == "Z"
        assert len(bound.support) == boundary_size
        assert len(set(bound.support)) == boundary_size
        assert all(0 <= i < total for i in bound.support)


@pytest.mark.parametrize("q,n", [(5, 2), (7, 3), (3, 4)])
def test_star_members_contain_anchor(q, n):
    # vertex-set incidence oracle: a qubit cell is in the star of an anchor
    # exactly when its corner set contains all the anchor's corners
    rng = random.Random(q * n)
    k = qubit_cell_dim(n)
    for _ in range(20):
        pos = tuple(rng.randrange(q) for _ in range(n))
        anchor = Cell(pos, tuple(sorted(rng.sample(range(n), k - 1))))
        anchor_verts = cell_vertices(anchor, q)
        support = star_support(q, n, anchor).support
        for idx in support:
            face = face_from_index(q, n, idx)
            assert anchor_verts <= cell_vertices(face, q)
        # completeness: no other qubit cell contains the anchor
        contained = [
            i
            for i, face in enumerate(enumerate_faces(q, n))
            if anchor_verts <= cell_vertices(face, q)
        ]
        assert sorted(support) == contained


@pytest.mark.parametrize("q,n", [(5, 2), (7, 3), (3, 4)])
def test_boundary_members_lie_on_anchor(q, n):
    rng = random.Random(q + 31 * n)
    k = qubit_cell_dim(n)
    for _ in range(20):
        pos = tuple(rng.randrange(q) for _ in range(n))
        anchor = Cell(pos, tuple(sorted(rng.sample(range(n), k + 1))))
        anchor_verts = cell_vertices(anchor, q)
        support = boundary_support(q, n, anchor).support
        for idx in support:
            face = face_from_index(q, n, idx)
            assert cell_vertices(face, q) <= anchor_verts
        contained = [
            i
            for i, face in enumerate(enumerate_faces(q, n))
            if cell_vertices(face, q) <= anchor_verts
        ]
        assert sorted(support) == contained


def test_invalid_anchor_rejected():
    with pytest.raises(ValueError, match="invalid anchor"):
        star_support(7, 3, Cell((0, 0, 0), (0, 1)))
    with pytest.raises(ValueError, match="invalid anchor"):
        star_support(7, 3, Cell((0, 0), (0,)))
    with pytest.raises(ValueError, match="invalid anchor"):
        boundary_support(7, 3, Cell((0, 0, 0), (0, 1)))
    with pytest.raises(ValueError, match="invalid anchor"):
        boundary_support(7, 3, Cell((0, 0, 0), (0, 1, 3)))
    with pytest.raises(ValueError, match="invalid anchor"):
        star_support(5, 2, Cell((0, 0), (1, 1)))


@pytest.mark.parametrize("q,n", [(5, 2), (7, 3), (3, 4), (9, 4)])
def test_commutation_check_true(q, n):
    assert commutation_check(q, n)


@pytest.mark.parametrize("q", [3, 5])
def test_commutation_matches_brute_force_2d(q):
    # re-derive the overlap parity with plain set intersections
    stars = [
        set(star_support(q, 2, Cell(pos, ())).support)
        for pos in product(range(q), repeat=2)
    ]
    bounds = [
        set(boundary_support(q, 2, Cell(pos, (0, 1))).support)
        for pos in product(range(q), repeat=2)
    ]
    parity_ok = all(
        len(s & b) % 2 == 0 for s in stars for b in bounds
    )
    assert parity_ok == commutation_check(q, 2)
    assert parity_ok


def per_cell_supports(q: int, n: int, kind: str) -> list:
    """One support per anchor from the per-cell builders, in anchor order."""
    k = qubit_cell_dim(n)
    dim, build = (k - 1, star_support) if kind == "X" else (k + 1, boundary_support)
    return [
        list(build(q, n, Cell(pos, axes)).support)
        for axes in axes_tuples(n, dim)
        for pos in product(range(q), repeat=n)
    ]


def boundary_rows(q: int, n: int, d: int) -> list:
    """boundary_columns read as one facet tuple per d-cell, in cell order."""
    return [row for cols in boundary_columns(q, n, d) for row in zip(*cols)]


@pytest.mark.parametrize("q,n", [(5, 2), (2, 3), (7, 3), (3, 4)])
@pytest.mark.parametrize("kind", ["X", "Z"])
def test_support_rows_match_per_cell_builders(q, n, kind):
    rows = support_rows(q, n, kind)
    assert [sorted(row) for row in rows] == per_cell_supports(q, n, kind)
    # facet order: per axis a of a cell, ascending, the facet without a at
    # the cell's corner, then the same facet at corner + e_a.  Z rows are
    # the (k+1)-cells' facets, and the X generators each qubit cell's.
    d = qubit_cell_dim(n) + (kind == "Z")
    blocks = boundary_columns(q, n, d)
    assert all(type(col) is tuple and len(col) == q**n for cols in blocks for col in cols)
    facet_axes = axes_tuples(n, d - 1)
    cells = [Cell(pos, axes) for axes in axes_tuples(n, d) for pos in product(range(q), repeat=n)]
    for cell, row in zip(cells, boundary_rows(q, n, d), strict=True):
        assert len(row) == 2 * d
        for j, a in enumerate(cell.axes):
            near, far = (divmod(f, q**n) for f in row[2 * j:2 * j + 2])
            axes = facet_axes.index(tuple(x for x in cell.axes if x != a))
            shifted = tuple((x + (i == a)) % q for i, x in enumerate(cell.position))
            assert near == (axes, position_rank(cell.position, q))
            assert far == (axes, position_rank(shifted, q))


def test_support_rows_match_per_cell_builders_sampled_9_4():
    q, n = 9, 4
    rng = random.Random(94)
    for kind, dim, build in (("X", 1, star_support), ("Z", 3, boundary_support)):
        rows = support_rows(q, n, kind)
        blocks = axes_tuples(n, dim)
        assert len(rows) == len(blocks) * q**n and {len(row) for row in rows} == {6}
        for _ in range(200):
            i = rng.randrange(len(rows))
            b, r = divmod(i, q**n)
            anchor = Cell(position_unrank(r, q, n), blocks[b])
            assert tuple(sorted(rows[i])) == build(q, n, anchor).support


def test_support_rows_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        support_rows(3, 3, "Y")


@pytest.mark.parametrize("q,n", [(5, 2), (3, 3), (2, 4), (3, 4)])
def test_boundary_columns_match_per_cell_oracle_and_square_to_zero(q, n):
    # every dimension, not only the stabilizers' k and k + 1: the facet
    # rows equal the per-cell oracle's, and the dense GF(2) product of the
    # d-cells' and (d+1)-cells' boundary matrices vanishes
    dense = {}
    for d in range(1, n + 1):
        rows = boundary_rows(q, n, d)
        assert [sorted(row) for row in rows] == cell_facets(q, n, d)
        h = np.zeros((len(rows), len(axes_tuples(n, d - 1)) * q**n), dtype=np.int64)
        np.add.at(h, (np.repeat(np.arange(len(rows)), 2 * d), np.ravel(rows)), 1)
        dense[d] = h
    for d in range(1, n):
        assert not np.any(dense[d + 1] @ dense[d] % 2), d


def test_overlap_multiplicities_equal_dense_product():
    q, n = 3, 3
    n_faces = len(enumerate_faces(q, n))

    def dense(kind):
        supports = per_cell_supports(q, n, kind)
        h = np.zeros((len(supports), n_faces), dtype=np.int64)
        for r, support in enumerate(supports):
            h[r, support] = 1
        return h

    hx, hz = dense("X"), dense("Z")
    overlaps = np.zeros((len(hx), len(hz)), dtype=np.int64)
    for z, x, multiplicity in overlap_multiplicities(q, n):
        assert np.all(multiplicity > 0)
        overlaps[x, z] = multiplicity
    assert np.array_equal(overlaps, hx @ hz.T)
    assert overlaps.any()


def _move_first_facet(blocks: tuple) -> tuple:
    # the first cell's first facet moves to a facet its row lacks
    first = blocks[0]
    moved = next(f for f in range(len(first[0])) if f not in [col[0] for col in first])
    return (((moved,) + first[0][1:],) + first[1:],) + blocks[1:]


def _doctor_dimension(monkeypatch, d: int) -> None:
    # boundary_columns(q, n, d) has its first facet moved; other d are intact
    original = toric.boundary_columns

    def doctored(q, n, dim):
        blocks = original(q, n, dim)
        return _move_first_facet(blocks) if dim == d else blocks

    monkeypatch.setattr(toric, "boundary_columns", doctored)


@pytest.mark.parametrize("q,n", [(5, 2), (7, 3), (9, 4)])
def test_commutation_check_detects_doctored_support(monkeypatch, q, n):
    # one qubit cell of the first Z support moves to a cell it lacks
    assert commutation_check(q, n)
    _doctor_dimension(monkeypatch, qubit_cell_dim(n) + 1)
    assert not commutation_check(q, n)


@pytest.mark.parametrize("q,n", [(5, 2), (7, 3), (9, 4)])
def test_commutation_check_detects_doctored_x_support(monkeypatch, q, n):
    # the first qubit cell's first facet moves to an X generator it lacks:
    # the cell is still in 2k X supports, but its facets no longer close up
    _doctor_dimension(monkeypatch, qubit_cell_dim(n))
    assert not commutation_check(q, n)


@pytest.mark.parametrize("q,n", [(5, 2), (7, 3), (9, 4)])
@pytest.mark.parametrize("step", ["+e_0", "+e_1", "+e_last"])
def test_commutation_check_detects_a_swapped_pair_in_one_table_row(monkeypatch, q, n, step):
    # two entries of one +e_a row of the table trade places: the facets
    # built from it no longer close up into boundaries.  (A swap in row 0,
    # the identity, relabels two corner cells in every dimension alike, and
    # the relabelled complex still commutes; the -e_a rows are not read.)
    original = toric.sphere_shifts
    row = {"+e_0": 1, "+e_1": 3, "+e_last": 2 * n - 1}[step]

    def doctored(q, n):
        table = [list(r) for r in original(q, n)]
        table[row][0], table[row][1] = table[row][1], table[row][0]
        return tuple(map(tuple, table))

    monkeypatch.setattr(toric, "sphere_shifts", doctored)
    assert not commutation_check(q, n)


@pytest.mark.parametrize("q,n", [(5, 2), (7, 3), (3, 4)])
@pytest.mark.parametrize("reorder", ["sorted", "shuffled"])
def test_commutation_check_reads_supports_as_sets(monkeypatch, q, n, reorder):
    # facets out of incidence order within each row, for the X generators
    # and the Z supports alike, defeat the pairing, not the verdict: every
    # anchor is then judged by its incidence multiset
    original, rng = toric.boundary_columns, random.Random(7)
    order = sorted if reorder == "sorted" else (lambda row: rng.sample(row, len(row)))

    def reordered(q, n, d):
        return tuple(
            tuple(zip(*(order(row) for row in zip(*cols)))) for cols in original(q, n, d)
        )

    monkeypatch.setattr(toric, "boundary_columns", reordered)
    assert commutation_check(q, n)
    monkeypatch.setattr(
        toric, "boundary_columns", lambda q, n, d: _move_first_facet(reordered(q, n, d))
    )
    assert not commutation_check(q, n)


def test_overlap_multiplicities_are_sorted_and_cover_every_z_row():
    q, n = 7, 3
    per_z = 2 * (qubit_cell_dim(n) + 1) * 2 * qubit_cell_dim(n)
    z, x, m = (np.concatenate(parts) for parts in zip(*overlap_multiplicities(q, n)))
    keys = z * stabilizer_counts(q, n)["x_generators"] + x
    assert np.all(np.diff(keys) > 0)
    assert np.array_equal(np.bincount(z, weights=m), np.full(len(support_rows(q, n, "Z")), per_z))


def test_commutation_check_9_4_memory_peak(traced_peak_mb):
    # the pair check holds one kind of support columns at a time, the
    # (2k x qubits) facet table and one pair of incidence vectors (~5.2 MB)
    assert traced_peak_mb(lambda: commutation_check(9, 4)) <= 8


@pytest.mark.parametrize(
    "q,n,counts",
    [
        (5, 2, (50, 25, 25, 200)),
        (7, 3, (1029, 1029, 343, 8232)),
        (9, 4, (39366, 26244, 26244, 629856)),
    ],
)
def test_stabilizer_counts(q, n, counts):
    got = stabilizer_counts(q, n)
    assert tuple(got.values()) == counts
    assert got["qubits"] == len(enumerate_faces(q, n))
    assert got["x_generators"] == len(support_rows(q, n, "X"))
    assert got["z_generators"] == len(support_rows(q, n, "Z"))
    gathered = sum(int(m.sum()) for _, _, m in overlap_multiplicities(q, n))
    assert got["incidences_checked"] == gathered


def test_work_limit_leaves_headroom_and_sizes_are_validated():
    assert stabilizer_counts(9, 4)["incidences_checked"] * 10 <= MAX_INCIDENCES
    with pytest.raises(ValueError):
        stabilizer_counts(1, 3)
    with pytest.raises(ValueError):
        commutation_check(5, 1)


def test_literature_params_frozen():
    p3 = literature_params(7, 3)
    assert (p3.n_code, p3.k, p3.d, p3.t) == (1029, 3, 7, 3)
    p4 = literature_params(9, 4)
    assert (p4.n_code, p4.k, p4.d, p4.t) == (39366, 6, 81, 40)
    p2 = literature_params(5, 2)
    assert (p2.n_code, p2.k, p2.d, p2.t) == (50, 2, 5, 2)
    with pytest.raises(ValueError):
        literature_params(1, 3)
    with pytest.raises(ValueError):
        literature_params(7, 5)
    for q, n in ((7.0, 3), (7, "3")):
        with pytest.raises(TypeError):
            literature_params(q, n)
        with pytest.raises(TypeError):
            stabilizer_counts(q, n)
        with pytest.raises(TypeError):
            new_code_params(q, n)
    assert type(stabilizer_counts(np.int64(9), 4)["qubits"]) is int


def test_new_code_params_frozen():
    p3 = new_code_params(7, 3)
    assert (p3.n_code, p3.k, p3.d, p3.t) == (21, 3, 3, 1)
    p4 = new_code_params(9, 4)
    assert (p4.n_code, p4.k, p4.d, p4.t) == (54, 6, 3, 1)
    with pytest.raises(ValueError, match="not certified"):
        new_code_params(5, 3)


def test_new_code_distance_matches_lee_code(code3, code4):
    assert new_code_params(7, 3).d == minimum_distance(code3)
    assert new_code_params(9, 4).d == minimum_distance(code4)


def gf2_rank(rows: np.ndarray, n_cols: int) -> int:
    """Rank over GF(2) of the dense 0/1 matrix with ones at row i's indices."""
    m = np.zeros((len(rows), n_cols), dtype=np.uint8)
    np.add.at(m, (np.arange(len(rows))[:, None], rows), 1)
    m %= 2
    rank = 0
    for c in range(n_cols):
        hits = np.flatnonzero(m[rank:, c])
        if hits.size == 0:
            continue
        m[[rank, rank + hits[0]]] = m[[rank + hits[0], rank]]
        others = np.flatnonzero(m[:, c])
        m[others[others != rank]] ^= m[rank]
        rank += 1
    return rank


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (5, 2), (3, 3), (3, 4)])
def test_literature_params_match_the_complex(q, n):
    # k = N - rank(hx) - rank(hz) is dim H_c(T^n) of the complex itself
    p = literature_params(q, n)
    assert p.n_code == stabilizer_counts(q, n)["qubits"]
    hx, hz = support_rows(q, n, "X"), support_rows(q, n, "Z")
    assert p.n_code - gf2_rank(hx, p.n_code) - gf2_rank(hz, p.n_code) == p.k


@pytest.mark.parametrize("q,n", CERTIFIED)
def test_code_records_count_qubits_per_vertex(q, n):
    alpha = len(axes_tuples(n, qubit_cell_dim(n)))
    chain = verify_chain(scaling_matrix(q, n), q)
    new, interleaved = new_code_params(q, n), interleaved_params(q, n)
    assert literature_params(q, n).n_code == stabilizer_counts(q, n)["qubits"]
    assert new.n_code == alpha * chain.det_abs
    # the interleaved code is [L(M) : qZ^n] copies of the new code
    assert interleaved.n_code == chain.scaled_index * new.n_code
    assert interleaved.k == chain.scaled_index * new.k


def test_code_params_validation():
    with pytest.raises(ValueError):
        CodeParams(n_code=10, k=2, d=3, t=2)
    with pytest.raises(ValueError):
        CodeParams(n_code=10, k=2, d=0, t=0)
    with pytest.raises(ValueError):
        CodeParams(n_code=1, k=2, d=3, t=1)
    with pytest.raises(ValueError):
        CodeParams(n_code=10, k=2, d=None, t=-1)
    capability_only = CodeParams(n_code=10, k=2, d=None, t=5)
    assert capability_only.d is None and capability_only.t == 5


def test_code_params_validation_has_no_bypass():
    p = CodeParams(10, 2, 3, 1)
    with pytest.raises(ValueError):
        p._replace(t=5)
    with pytest.raises(ValueError):
        CodeParams._make((1, 5, 0, 9))
    with pytest.raises(AttributeError):
        p.t = 5
    assert p._replace(d=None, t=4) == (10, 2, None, 4)
    assert CodeParams._make((10, 2, 3, 1)) == p


def test_qubit_cell_dim_convention():
    assert qubit_cell_dim(2) == 1
    assert qubit_cell_dim(3) == 2
    assert qubit_cell_dim(4) == 2
    with pytest.raises(ValueError):
        qubit_cell_dim(1)


def test_position_rank_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        q = rng.choice((2, 3, 5, 7, 9))
        n = rng.choice((1, 2, 3, 4))
        p = tuple(rng.randrange(q) for _ in range(n))
        assert position_unrank(position_rank(p, q), q, n) == p
