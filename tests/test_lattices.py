from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from leetoric import (
    IntMatrix,
    coset_count,
    determinant,
    hermite_form,
    lattices,
    scaling_matrix,
    verify_chain,
)

M3 = IntMatrix(((0, 2, 1), (0, 1, 4), (1, 0, 2)))
M4 = IntMatrix(((0, 0, 1, 6), (0, 0, -1, 3), (0, 1, 1, 1), (1, 0, 0, 2)))


def _parity(perm):
    inversions = sum(
        perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


def det_oracle(m: IntMatrix) -> int:
    """Leibniz expansion; independent of the elimination-based routine."""
    n = m.n
    return sum(
        _parity(p) * math.prod(m.rows[i][p[i]] for i in range(n))
        for p in permutations(range(n))
    )


def rational_solve(m: IntMatrix, v):
    """Oracle: the unique rational x with x . m = v, via fraction elimination."""
    n = m.n
    aug = [[Fraction(m.rows[r][c]) for r in range(n)] + [Fraction(v[c])] for c in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def in_lattice_oracle(m: IntMatrix, v) -> bool:
    sol = rational_solve(m, v)
    return sol is not None and all(x.denominator == 1 for x in sol)


def matmul_oracle(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Plain-Python product a . b: row i is (row i of a) . b."""
    n = a.n
    return IntMatrix(
        [[sum(r[k] * b.rows[k][j] for k in range(n)) for j in range(n)] for r in a.rows]
    )


def contains(m: IntMatrix, v) -> bool:
    """The package's membership path, as verify_chain and coset_count take it:
    solve x . H = v against the Hermite form."""
    return lattices._solve_upper(hermite_form(m), v) is not None


def random_matrix(rng: random.Random, n: int) -> IntMatrix:
    return IntMatrix(
        [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
    )


def test_instance_matrices_match_registry():
    assert scaling_matrix(7, 3) == M3
    assert scaling_matrix(9, 4) == M4


def test_determinant_frozen_values():
    assert determinant(M3) == 7
    assert determinant(M4) == -9


def test_determinant_matches_leibniz_oracle():
    rng = random.Random(7)
    for _ in range(80):
        m = random_matrix(rng, rng.choice((1, 2, 3, 4)))
        assert determinant(m) == det_oracle(m)


def test_determinant_singular_is_zero():
    m = IntMatrix(((1, 2), (2, 4)))
    assert determinant(m) == 0


# a zero first or middle column leaves no pivot for Bareiss before the last
# step, so determinant returns 0 early
ZERO_COLUMNS = [((0, 1, 2), (0, 3, 4), (0, 5, 6)), ((1, 0, 2), (3, 0, 4), (5, 0, 6))]


@pytest.mark.parametrize("rows", ZERO_COLUMNS)
def test_determinant_of_a_zero_column_is_zero(rows):
    assert determinant(IntMatrix(rows)) == 0


@pytest.mark.parametrize("rows", ZERO_COLUMNS)
def test_verify_chain_refuses_a_singular_matrix(rows):
    with pytest.raises(ValueError, match="singular matrix"):
        verify_chain(IntMatrix(rows), 7)


def test_constructors_and_validation():
    assert IntMatrix.scalar(1, 3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert IntMatrix.scalar(7, 2).rows == ((7, 0), (0, 7))
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(())


def test_entries_must_be_integers():
    # operator.index refuses what int() would truncate or parse
    for rows in (((1.9, 0), (0, "2")), ((1.5, 0), (0, 1)), ((2.0, 0), (0, 2))):
        with pytest.raises(TypeError):
            IntMatrix(rows)


def test_chain_scale_must_be_an_integer():
    for q in (7.0, "7", 7.5):
        with pytest.raises(TypeError):
            verify_chain(M3, q)
    report = verify_chain(M3, True + 6)
    assert type(report.scale) is int and report.scaled_index == 49


def test_validation_has_no_bypass():
    m = IntMatrix.scalar(1, 2)
    with pytest.raises(ValueError):
        m._replace(rows=((1, 2),))
    with pytest.raises(ValueError):
        IntMatrix._make([()])
    with pytest.raises(TypeError):
        IntMatrix._make([((1.5, 0), (0, 1))])
    assert m._replace(rows=[[2, 0], [0, 2]]) == IntMatrix.scalar(2, 2)
    assert IntMatrix._make([((1, 0), (0, 1))]) == m


def test_records_are_immutable_tuples():
    rep = verify_chain(M3, 7)
    with pytest.raises(AttributeError):
        rep.det_abs = 1
    with pytest.raises(AttributeError):
        M3.rows = ((1,),)
    assert M3 == (M3.rows,)
    assert rep == tuple(rep._asdict().values())


def test_hermite_form_properties():
    rng = random.Random(11)
    checked = negative = singular = 0
    # singular draws are rare: none come before the 60th nonsingular one
    while checked < 60 or singular < 10:
        m = random_matrix(rng, rng.choice((1, 2, 3, 4)))
        if det_oracle(m) == 0:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                hermite_form(m)
            continue
        checked += 1
        negative += any(x < 0 for row in m.rows for x in row)
        h = hermite_form(m)
        n = m.n
        for r in range(n):
            assert h.rows[r][r] > 0
            for c in range(r):
                assert h.rows[r][c] == 0
            for above in range(r):
                assert 0 <= h.rows[above][r] < h.rows[r][r]
        assert abs(det_oracle(h)) == abs(det_oracle(m))
        # same row lattice in both directions, judged by the rational oracle
        for row in m.rows:
            assert in_lattice_oracle(h, row)
        for row in h.rows:
            assert in_lattice_oracle(m, row)
    assert negative > checked // 2


def test_hermite_form_frozen_values():
    assert hermite_form(M3).rows == ((1, 0, 2), (0, 1, 4), (0, 0, 7))
    assert hermite_form(M4).rows == (
        (1, 0, 0, 2), (0, 1, 0, 4), (0, 0, 1, 6), (0, 0, 0, 9),
    )
    # a zero leading entry, negative entries, two zero leading entries
    assert hermite_form(IntMatrix(((0, 3), (2, 1)))).rows == ((2, 1), (0, 3))
    assert hermite_form(IntMatrix(((-4, 6), (6, -4)))).rows == ((2, 2), (0, 10))
    assert hermite_form(IntMatrix(((0, 0, 5), (0, 2, 1), (3, 1, 1)))).rows == (
        (3, 1, 1), (0, 2, 1), (0, 0, 5),
    )


def test_hermite_identity_fixed_point():
    eye = IntMatrix.scalar(1, 4)
    assert hermite_form(eye) == eye


def test_hermite_singular_raises():
    with pytest.raises(ValueError, match="singular matrix"):
        hermite_form(IntMatrix(((1, 2), (2, 4))))
    # no zero column: the second column vanishes only once the first is reduced
    with pytest.raises(ValueError, match="singular matrix"):
        hermite_form(IntMatrix(((2, 4, 1), (1, 2, 3), (3, 6, 4))))


def test_contains_frozen_memberships():
    for m, v, member in (
        (M3, (7, 7, 7), True),
        (M3, (7, 0, 0), True),
        (M3, (0, 2, 1), True),
        (M3, (1, 0, 0), False),
        (M4, (9, 9, 9, 9), True),
        *((M4, tuple(9 * int(i == j) for j in range(4)), True) for i in range(4)),
    ):
        assert contains(m, v) == in_lattice_oracle(m, v) == member


def test_contains_matches_rational_oracle():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        m = random_matrix(rng, rng.choice((2, 3, 4)))
        if det_oracle(m) == 0:
            continue
        checked += 1
        v = tuple(rng.randrange(-10, 11) for _ in range(m.n))
        assert contains(m, v) == in_lattice_oracle(m, v)


def test_coset_count_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        coset_count(M3, M4)


def test_coset_count_frozen_values():
    assert coset_count(M3, IntMatrix.scalar(7, 3)) == 49
    assert coset_count(M4, IntMatrix.scalar(9, 4)) == 729


@pytest.mark.parametrize(
    "inner_rows,expected",
    [((((2, 0), (0, 3))), 6), ((((1, 2), (0, 5))), 5)],
)
def test_coset_count_matches_enumeration_oracle(inner_rows, expected):
    outer = IntMatrix.scalar(1, 2)
    inner = IntMatrix(inner_rows)
    assert coset_count(outer, inner) == expected
    # oracle: count equivalence classes of a bounding box point set
    box = abs(det_oracle(inner))
    reps: list[tuple[int, int]] = []
    for p in product(range(box), repeat=2):
        diff_found = any(
            in_lattice_oracle(inner, (p[0] - r[0], p[1] - r[1])) for r in reps
        )
        if not diff_found:
            reps.append(p)
    assert len(reps) == expected


def test_coset_count_of_a_product_lattice_is_the_factor_determinant():
    # L(A·M) is a sublattice of L(M) of index |det A|, for any nonsingular A
    rng = random.Random(19)
    pairs = 0
    while pairs < 60:
        n = rng.choice((1, 2, 3, 4))
        m, a = random_matrix(rng, n), random_matrix(rng, n)
        if det_oracle(m) == 0 or det_oracle(a) == 0:
            continue
        assert coset_count(m, matmul_oracle(a, m)) == abs(det_oracle(a))
        pairs += 1


def test_coset_count_rejects_non_sublattice():
    with pytest.raises(ValueError, match="not a sublattice"):
        coset_count(IntMatrix.scalar(2, 2), IntMatrix.scalar(1, 2))


def test_coset_count_rejects_singular_inner():
    with pytest.raises(ValueError, match="singular matrix"):
        coset_count(IntMatrix.scalar(1, 2), IntMatrix(((1, 1), (1, 1))))


def test_verify_chain_certified_instances():
    r3 = verify_chain(M3, 7)
    assert r3.ambient_dim == 3 and r3.scale == 7
    assert r3.det_abs == 7 and r3.ambient_index == 7
    assert r3.scaled_index == 49
    assert r3.inclusion_holds and r3.strictly_nested

    r4 = verify_chain(M4, 9)
    assert r4.det_abs == 9 and r4.scaled_index == 729
    assert r4.inclusion_holds and r4.strictly_nested


def test_verify_chain_reduces_its_matrix_once(monkeypatch):
    calls, reduce = [], lattices.hermite_form
    monkeypatch.setattr(lattices, "hermite_form", lambda m: calls.append(m) or reduce(m))
    assert verify_chain(scaling_matrix(9, 4), 9).inclusion_holds
    assert len(calls) == 1


def test_verify_chain_scaled_index_agrees_with_coset_count():
    assert verify_chain(M3, 7).scaled_index == coset_count(M3, IntMatrix.scalar(7, 3))
    assert verify_chain(M4, 9).scaled_index == coset_count(M4, IntMatrix.scalar(9, 4))


def test_verify_chain_inclusion_failure_leaves_index_undefined():
    rep = verify_chain(M3, 5)
    assert not rep.inclusion_holds
    assert rep.scaled_index is None
    assert not rep.strictly_nested


def test_verify_chain_identity_is_not_strict():
    rep = verify_chain(IntMatrix.scalar(1, 3), 7)
    assert rep.inclusion_holds
    assert rep.det_abs == 1 and rep.scaled_index == 343
    assert not rep.strictly_nested


def test_verify_chain_errors():
    with pytest.raises(ValueError, match="singular matrix"):
        verify_chain(IntMatrix(((1, 1), (1, 1))), 3)
    with pytest.raises(ValueError):
        verify_chain(M3, 1)
