from __future__ import annotations

import gc
import random
import weakref
from itertools import product

import numpy as np
import pytest

from leetoric import (
    certified_code,
    code_generators,
    decode_nearest,
    enumerate_codewords,
    lee_sphere,
    mannheim_weight,
    minimum_distance,
    scaling_matrix,
    symmetric_residue,
    tiling_check,
)
from leetoric.lee import sphere_shifts
from oracles import position_rank, position_unrank


def lee_weight_oracle(v, q):
    """Per-coordinate minimum-representative weight, no symmetric residues."""
    return sum(min(x % q, q - x % q) for x in v)


def all_pairs_lee_distances(code):
    """Every point of Z_q^n (row-major) and its Lee distance to every codeword."""
    q = code.q
    points = np.array(list(product(range(q), repeat=code.n)), dtype=np.int8)
    words = np.array(code.codewords, dtype=np.int8)
    dist = np.zeros((len(points), len(words)), dtype=np.int8)
    for i in range(code.n):
        d = (points[:, None, i] - words[None, :, i]) % q
        dist += np.minimum(d, q - d)
    return points, dist


def golomb_welch_label(point, n):
    """Offset index from the syndrome s = sum i*x_i mod 2n+1: +e_i gives +i."""
    s = sum(i * x for i, x in enumerate(point, start=1)) % (2 * n + 1)
    if s == 0:
        return 0
    return 2 * s - 1 if s <= n else 2 * (2 * n + 1 - s)


@pytest.mark.parametrize("x,q,expected", [(4, 7, -3), (0, 9, 0), (6, 9, -3)])
def test_symmetric_residue_frozen(x, q, expected):
    assert symmetric_residue(x, q) == expected


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_symmetric_residue_range_and_congruence(q):
    half = (q - 1) // 2
    for x in range(-2 * q, 3 * q):
        r = symmetric_residue(x, q)
        assert -half <= r <= half
        assert (r - x) % q == 0


@pytest.mark.parametrize("q", [1, 2, 4, 10])
def test_symmetric_residue_undefined_moduli(q):
    with pytest.raises(ValueError, match="symmetric residue undefined"):
        symmetric_residue(3, q)


def test_mannheim_weight_frozen():
    assert mannheim_weight((1, 0, 2), 7) == 3
    assert mannheim_weight((0, 0, 0), 7) == 0
    assert mannheim_weight((0, 1, 4), 7) == 4


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_mannheim_weight_matches_min_representative_oracle(q):
    rng = random.Random(q)
    for _ in range(200):
        v = tuple(rng.randrange(-15, 16) for _ in range(rng.choice((1, 2, 3, 4))))
        assert mannheim_weight(v, q) == lee_weight_oracle(v, q)


def test_weight_zero_only_at_zero():
    for v in product(range(5), repeat=2):
        assert (mannheim_weight(v, 5) == 0) == (v == (0, 0))


def test_enumeration_counts_and_zero_first(code3, code4):
    assert len(code3.codewords) == 49
    assert len(code4.codewords) == 729
    assert code3.codewords[0] == (0, 0, 0)
    assert code4.codewords[0] == (0, 0, 0, 0)
    assert len(set(code3.codewords)) == 49
    assert len(set(code4.codewords)) == 729


def test_enumeration_gives_an_additive_group(code3, code4):
    words3 = set(code3.codewords)
    for a in code3.codewords:
        for b in code3.codewords:
            assert tuple((x + y) % 7 for x, y in zip(a, b)) in words3
    words4 = set(code4.codewords)
    rng = random.Random(3)
    for _ in range(2000):
        a = code4.codewords[rng.randrange(729)]
        b = code4.codewords[rng.randrange(729)]
        assert tuple((x + y) % 9 for x, y in zip(a, b)) in words4


def test_enumeration_agrees_with_matrix_row_closure(code3, code4):
    # the scaling matrix rows reduced mod q generate the same group,
    # including the rows the generator list leaves out as redundant
    rows3 = scaling_matrix(7, 3).rows
    alt3 = enumerate_codewords(rows3, 7, 3)
    assert set(alt3.codewords) == set(code3.codewords)
    rows4 = scaling_matrix(9, 4).rows
    alt4 = enumerate_codewords(rows4, 9, 4)
    assert set(alt4.codewords) == set(code4.codewords)


def test_enumeration_membership_example(code3):
    assert (0, 2, 1) in set(code3.codewords)


def test_enumeration_trivial_and_validation():
    trivial = enumerate_codewords(((0, 0, 0),), 7, 3)
    assert trivial.codewords == ((0, 0, 0),)
    with pytest.raises(ValueError):
        enumerate_codewords((), 7, 3)
    with pytest.raises(ValueError):
        enumerate_codewords(((1, 2),), 7, 3)


def test_minimum_distance_frozen(code3, code4):
    assert minimum_distance(code3) == 3
    assert minimum_distance(code4) == 3


def test_minimum_distance_matches_all_pairs_oracle(code3, code4):
    for code in (code3, code4):
        arr = np.array(code.codewords, dtype=np.int64)
        diff = (arr[None, :, :] - arr[:, None, :]) % code.q
        lee = np.minimum(diff, code.q - diff).sum(axis=2)
        off_diagonal = lee[~np.eye(len(arr), dtype=bool)]
        assert minimum_distance(code) == int(off_diagonal.min())


def test_minimum_distance_unit_generator():
    code = enumerate_codewords(((1, 0, 0),), 7, 3)
    assert minimum_distance(code) == 1


def test_minimum_distance_trivial_code_undefined():
    trivial = enumerate_codewords(((0, 0, 0),), 7, 3)
    with pytest.raises(ValueError, match="distance undefined"):
        minimum_distance(trivial)


def test_lee_sphere_frozen_orders():
    assert lee_sphere(1).offsets == ((0,), (1,), (-1,))
    assert lee_sphere(3).offsets == (
        (0, 0, 0),
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, -1, 0),
        (0, 0, 1),
        (0, 0, -1),
    )
    four = lee_sphere(4)
    assert len(four.offsets) == 9
    assert len(set(four.offsets)) == 9
    assert all(mannheim_weight(o, 9) <= 1 for o in four.offsets)
    with pytest.raises(ValueError):
        lee_sphere(0)


@pytest.mark.parametrize("q,n", [(2, 3), (5, 2), (7, 3), (3, 4), (9, 4)])
def test_sphere_shifts_match_per_point_oracle(q, n):
    table = sphere_shifts(q, n)
    offsets = lee_sphere(n).offsets
    assert table.shape == (2 * n + 1, q**n)
    expected = [
        [
            position_rank([x + o for x, o in zip(position_unrank(r, q, n), off)], q)
            for r in range(q**n)
        ]
        for off in offsets
    ]
    assert table.tolist() == expected
    assert np.array_equal(table[0], np.arange(q**n))
    assert all(np.array_equal(np.sort(row), np.arange(q**n)) for row in table)
    if q == 2:
        # +e_a and -e_a are the same step on a torus of side 2
        assert np.array_equal(table[1::2], table[2::2])


def test_tiling_certified_codes(code3, code4):
    assert tiling_check(code3)
    assert tiling_check(code4)


def test_tiling_rejects_overlapping_code():
    code = enumerate_codewords(((1, 1, 0), (0, 1, 1)), 7, 3)
    assert len(code.codewords) == 49
    assert not tiling_check(code)


def test_tiling_rejects_undercovering_code():
    trivial = enumerate_codewords(((0, 0, 0),), 7, 3)
    assert not tiling_check(trivial)


def test_decode_frozen_example(code3):
    res = decode_nearest((1, 1, 1), code3)
    assert res.codeword == (2, 1, 1)
    assert res.offset_index == 2


def test_decode_is_identity_on_codewords(code3, code4):
    for code in (code3, code4):
        for c in code.codewords:
            res = decode_nearest(c, code)
            assert res.codeword == c and res.offset_index == 0


def test_decode_sphere_roundtrip(code3, code4):
    for code in (code3, code4):
        offsets = lee_sphere(code.n).offsets
        for c in code.codewords:
            for j, off in enumerate(offsets):
                point = tuple((a + b) % code.q for a, b in zip(c, off))
                res = decode_nearest(point, code)
                assert res.codeword == c and res.offset_index == j


def test_decode_matches_brute_force_nearest(code3, code4):
    for code in (code3, code4):
        points, dist = all_pairs_lee_distances(code)
        within = dist <= 1
        # perfection: exactly one codeword lies within distance 1 of each point
        assert (within.sum(axis=1) == 1).all()
        nearest = within.argmax(axis=1)
        for point, k in zip(points.tolist(), nearest.tolist()):
            res = decode_nearest(point, code)
            assert res.codeword == code.codewords[k]
            assert res.offset_index == golomb_welch_label(point, code.n)


@pytest.mark.parametrize("generators", [((1, 1, 0), (0, 1, 1)), ((0, 0, 0),)])
def test_rejected_codes_cover_some_point_other_than_once(generators):
    code = enumerate_codewords(generators, 7, 3)
    _, dist = all_pairs_lee_distances(code)
    assert ((dist <= 1).sum(axis=1) != 1).any()
    assert not tiling_check(code)


def test_lee_code_equality_is_by_value():
    fresh = enumerate_codewords(code_generators(7, 3), 7, 3)
    assert fresh is not certified_code(7, 3)
    assert fresh == certified_code(7, 3)
    assert hash(fresh) == hash(certified_code(7, 3))


def test_decoded_code_is_freed_with_its_cover():
    fresh = enumerate_codewords(code_generators(7, 3), 7, 3)
    assert decode_nearest((1, 1, 1), fresh).codeword == (2, 1, 1)
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None


def test_decode_point_reduced_mod_q(code3):
    assert decode_nearest((8, 8, 8), code3) == decode_nearest((1, 1, 1), code3)


def test_decode_returns_the_shared_result(code3):
    res = decode_nearest((8, 8, 8), code3)
    assert res is decode_nearest((1, 1, 1), code3)
    assert res == ((2, 1, 1), 2)
    codeword, label = res
    assert (codeword, label) == (res.codeword, res.offset_index)


def test_decode_result_is_immutable(code3):
    res = decode_nearest((1, 1, 1), code3)
    with pytest.raises(AttributeError):
        res.codeword = (0, 0, 0)
    with pytest.raises(AttributeError):
        res.offset_index = 0
    assert (res.codeword, res.offset_index) == ((2, 1, 1), 2)


def test_decode_seeded_unreduced_stream(code3, code4):
    # points drawn from [-2q, 2q]^n, as the benchmark's decode stream draws them
    rng = random.Random(20)
    for code in (code3, code4):
        q, n = code.q, code.n
        offsets = lee_sphere(n).offsets
        for _ in range(3000):
            p = tuple(rng.randint(-2 * q, 2 * q) for _ in range(n))
            res = decode_nearest(p, code)
            off = offsets[res.offset_index]
            assert tuple((x - o) % q for x, o in zip(p, off)) == res.codeword
            assert res.offset_index == golomb_welch_label([x % q for x in p], n)


@pytest.mark.parametrize("point", [(1.9, 1, 1), ("1", 1, 1), (1, 1, 1.0)])
def test_decode_refuses_non_integer_coordinates(code3, point):
    with pytest.raises(TypeError):
        decode_nearest(point, code3)


def test_decode_takes_numpy_integers(code3):
    point = np.array([8, -6, 1], dtype=np.int64)
    assert decode_nearest(point, code3) == decode_nearest((1, 1, 1), code3)
    assert decode_nearest((True, 1, 1), code3) == decode_nearest((1, 1, 1), code3)


def test_enumeration_refuses_non_integer_generators():
    with pytest.raises(TypeError):
        enumerate_codewords(((0, 1.9, 4), (1, 0, 2)), 7, 3)
    with pytest.raises(TypeError):
        enumerate_codewords(((0, "1", 4), (1, 0, 2)), 7, 3)
    gens = [tuple(np.int64(x) for x in g) for g in code_generators(7, 3)]
    assert enumerate_codewords(gens, 7, 3) == certified_code(7, 3)


def test_wrong_size_code_is_rejected_before_its_cover():
    # all 343 points as codewords: 343 * 7 placements cannot tile 343 points
    code = enumerate_codewords(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 7, 3)
    assert len(code.codewords) == 343
    assert not tiling_check(code)
    with pytest.raises(ValueError, match="decoding not unique"):
        decode_nearest((0, 0, 1), code)


def test_decode_nonperfect_raises():
    code = enumerate_codewords(((1, 1, 0), (0, 1, 1)), 7, 3)
    with pytest.raises(ValueError, match="decoding not unique"):
        decode_nearest((0, 0, 1), code)


def test_decode_dimension_mismatch(code3):
    with pytest.raises(ValueError):
        decode_nearest((1, 1), code3)
