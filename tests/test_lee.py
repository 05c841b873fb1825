from __future__ import annotations

import gc
import random
import weakref
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from leetoric import (
    CERTIFIED,
    LeeCode,
    build_interleaver,
    certified_code,
    code_generators,
    decode_nearest,
    enumerate_codewords,
    lee_sphere,
    mannheim_weight,
    minimum_distance,
    scaling_matrix,
    tiling_check,
)
from leetoric import instances
from leetoric.instances import require_certified
from leetoric import lee
from leetoric.lee import sphere_shifts
from leetoric.toric import boundary_columns
from oracles import bfs_codewords, position_rank, position_unrank


def lee_weight_oracle(v, q):
    """Least |x + kq| over a run of representatives of each coordinate, summed."""
    return sum(min(abs(x + k * q) for k in range(-abs(x) - 1, abs(x) + 2)) for x in v)


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


def shifted_code3():
    """The certified (7,3) codewords stored unreduced, shifted by 7e_0 - 7e_1."""
    code = certified_code(7, 3)
    words = tuple((a + 7, b - 7, c) for a, b, c in code.codewords)
    return LeeCode(7, 3, code.generators, words)


# the [7,4] Hamming code: at q = 2 the Lee weight is the Hamming weight
HAMMING_7_4 = (
    (1, 1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 1, 0), (0, 0, 0, 1, 1, 0, 1),
)


def distance_three_codes():
    """Codes of Lee distance 3 beyond the certified pair: even q, q = 2, unreduced words."""
    return [
        enumerate_codewords(((3,),), 6, 1),
        enumerate_codewords(((8, 1), (5, 0)), 10, 2),
        shifted_code3(),
        enumerate_codewords(HAMMING_7_4, 2, 7),
    ]


def golomb_welch_label(point, n):
    """Offset index from the syndrome s = sum i*x_i mod 2n+1: +e_i gives +i."""
    s = sum(i * x for i, x in enumerate(point, start=1)) % (2 * n + 1)
    if s == 0:
        return 0
    return 2 * s - 1 if s <= n else 2 * (2 * n + 1 - s)


def test_mannheim_weight_frozen():
    assert mannheim_weight((1, 0, 2), 7) == 3
    assert mannheim_weight((0, 0, 0), 7) == 0
    assert mannheim_weight((0, 1, 4), 7) == 4


@pytest.mark.parametrize("q", range(2, 11))
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


def test_certified_instances_share_one_key_order():
    # CERTIFIED is the scaling matrices' keys; the generators list the same
    # instances in the same order
    assert CERTIFIED == ((7, 3), (9, 4))
    assert tuple(instances._GENERATORS) == tuple(instances._SCALING) == CERTIFIED


def test_enumeration_membership_example(code3):
    assert (0, 2, 1) in set(code3.codewords)


def _random_generator_sets():
    # unreduced entries, some negative, one to three generators per set, on
    # the two certified tori and on small ones down to one coordinate
    rng = random.Random(18)
    for q, n in [(7, 3)] * 10 + [(9, 4)] * 10 + [(2, 1), (3, 1), (2, 2), (4, 3), (6, 2), (8, 1)]:
        count = rng.randint(1, 3)
        gens = tuple(tuple(rng.randint(-q, 2 * q) for _ in range(n)) for _ in range(count))
        yield q, n, gens


ORDER_CASES = [
    *((q, n, code_generators(q, n)) for q, n in CERTIFIED),
    (5, 2, ((1, 2),)),
    (7, 3, ((1, 1, 0), (0, 1, 1))),  # the README's failing set
    *_random_generator_sets(),
    # the smallest torus, and zero generators, whose sums are already seen
    (2, 1, ((1,),)),
    (2, 1, ((0,), (1,))),
    (5, 3, ((0, 0, 0), (1, 2, 3), (0, 0, 0))),
    (4, 2, ((2, 0), (0, 0), (1, 3))),
]


@pytest.mark.parametrize("q,n,generators", ORDER_CASES)
def test_enumeration_order_matches_the_bfs_oracle(q, n, generators):
    # the order fixes the interleaver blocks, so it is checked word by word
    code = enumerate_codewords(generators, q, n)
    assert code.codewords == bfs_codewords(generators, q, n)
    assert all(type(x) is int for c in code.codewords for x in c)


def test_lee_code_refuses_a_modulus_below_two_and_an_empty_dimension():
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        LeeCode(1, 3, (), ())
    with pytest.raises(ValueError, match="dimension must be positive"):
        LeeCode(7, 0, (), ())


def test_lee_code_refuses_codewords_of_another_length(code52):
    # padded words used to rank past the table, cut ones to read False
    padded = tuple(c + (0,) for c in code52.codewords)
    with pytest.raises(ValueError, match=r"codeword \(0, 0, 0\) has length 3, not 2"):
        LeeCode(5, 2, code52.generators, padded)
    cut = tuple(c[:1] for c in code52.codewords)
    with pytest.raises(ValueError, match=r"codeword \(0,\) has length 1, not 2"):
        LeeCode(5, 2, code52.generators, cut)
    one_bad = code52.codewords[:3] + ((1, 2, 3),) + code52.codewords[4:]
    with pytest.raises(ValueError, match=r"codeword \(1, 2, 3\) has length 3"):
        LeeCode(5, 2, code52.generators, one_bad)
    assert tiling_check(LeeCode(5, 2, code52.generators, code52.codewords))


def test_enumeration_trivial_and_validation():
    trivial = enumerate_codewords(((0, 0, 0),), 7, 3)
    assert trivial.codewords == ((0, 0, 0),)
    for empty in ((), np.empty((0, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match="nonempty"):
            enumerate_codewords(empty, 7, 3)
    with pytest.raises(ValueError):
        enumerate_codewords(((1, 2),), 7, 3)


def test_minimum_distance_frozen(code3, code4):
    assert minimum_distance(code3) == 3
    assert minimum_distance(code4) == 3
    assert [minimum_distance(code) for code in distance_three_codes()] == [3] * 4
    assert len(enumerate_codewords(HAMMING_7_4, 2, 7).codewords) == 16


def test_minimum_distance_matches_all_pairs_oracle(code3, code4):
    for code in (code3, code4, *distance_three_codes()):
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
    # and codes whose every stored word is 0 mod 7, however it is written
    zero_words = [((7, -7, 0),), ((0, 0, 0), (14, 0, -7), (7, 7, 7))]
    for code in (trivial, *(LeeCode(7, 3, ((0, 0, 0),), words) for words in zero_words)):
        with pytest.raises(ValueError, match="distance undefined"):
            minimum_distance(code)


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


# (2, 5) and (3, 6) rotate many short runs, (11, 2) few long ones
@pytest.mark.parametrize("q,n", [(2, 3), (5, 2), (7, 3), (3, 4), (9, 4), (2, 5), (3, 6), (11, 2)])
def test_sphere_shifts_match_per_point_oracle(q, n):
    table = sphere_shifts(q, n)
    offsets = lee_sphere(n).offsets
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    assert len(table) == 2 * n + 1 and {len(row) for row in table} == {q**n}
    expected = [
        [
            position_rank([x + o for x, o in zip(position_unrank(r, q, n), off)], q)
            for r in range(q**n)
        ]
        for off in offsets
    ]
    assert [list(row) for row in table] == expected
    assert table[0] == tuple(range(q**n))
    assert all(sorted(row) == list(range(q**n)) for row in table)
    if q == 2:
        # +e_a and -e_a are the same step on a torus of side 2
        assert table[1::2] == table[2::2]


def test_sphere_shifts_is_one_cached_table_per_torus():
    assert sphere_shifts(9, 4) is sphere_shifts(9, 4)
    assert sphere_shifts(np.int64(7), 3) == sphere_shifts(7, 3)
    for q, n in ((7.0, 3), (7, 3.0), ("7", 3)):
        with pytest.raises(TypeError):
            sphere_shifts(q, n)
    with pytest.raises(ValueError, match="over the limit"):
        sphere_shifts(2, 21)


def test_sphere_shifts_refuses_a_modulus_below_two():
    # so every row has q^n >= 2 ranks: boundary_columns gathers them with
    # itemgetter, which given one index returns a bare item, not a tuple
    for q in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            sphere_shifts(q, 3)
    with pytest.raises(ValueError, match="at least 2"):
        boundary_columns(1, 3, 2)


@pytest.mark.parametrize("q,n", [(7, -1), (2, -30), (7, 0)])
def test_sphere_shifts_refuses_a_non_positive_dimension(q, n):
    # q**n is then a float below 1, which the size limit alone lets through
    with pytest.raises(ValueError, match="dimension must be positive"):
        sphere_shifts(q, n)


def test_tiling_certified_codes(code3, code4, code52):
    assert tiling_check(code3)
    assert tiling_check(code4)
    assert tiling_check(code52)
    # placement ranks reduce the stored entries mod q
    assert tiling_check(shifted_code3())
    assert shifted_code3().placement == code3.placement


def test_one_codeword_code_places_one_tuple_per_row():
    # itemgetter of a single rank returns the bare item; placement rows stay
    # 1-tuples, so the one-codeword code of Z_3 tiles and decodes
    code = enumerate_codewords(((0,),), 3, 1)
    assert code.codewords == ((0,),)
    assert code.placement == ((0,), (1,), (2,))
    assert tiling_check(code)
    assert decode_nearest((2,), code) == lee.DecodeResult((0,), 2)


@pytest.mark.parametrize("n,generators", [(7, HAMMING_7_4), (3, ((1, 1, 1),))])
def test_radius_one_spheres_are_refused_at_q_2(n, generators):
    # +e_i = -e_i mod 2, so a sphere has n + 1 points, not 2n + 1: perfect
    # binary codes such as [7,4] Hamming would fail the size count, so q = 2 is refused
    code = enumerate_codewords(generators, 2, n)
    for use in (tiling_check, lambda c: decode_nearest((0,) * n, c), build_interleaver):
        with pytest.raises(ValueError, match=r"needs q >= 3: \+e_i and -e_i coincide mod 2"):
            use(code)
    assert "_decoder" not in vars(code)
    assert len(sphere_shifts(2, n)) == 2 * n + 1


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


def test_decode_matches_brute_force_nearest(code3, code4, code52):
    for code in (code3, code4, code52, shifted_code3()):
        points, dist = all_pairs_lee_distances(code)
        within = dist <= 1
        # perfection: exactly one codeword lies within distance 1 of each point
        assert (within.sum(axis=1) == 1).all()
        nearest = within.argmax(axis=1)
        for point, k in zip(points.tolist(), nearest.tolist()):
            res = decode_nearest(point, code)
            # the stored codeword, unreduced if it was stored so
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
    numpy_sized = LeeCode(np.int64(7), np.int64(3), fresh.generators, fresh.codewords)
    assert type(numpy_sized.q) is int and type(numpy_sized.n) is int
    assert numpy_sized == fresh and hash(numpy_sized) == hash(fresh)


def test_lee_code_is_immutable_and_a_value():
    code = enumerate_codewords(code_generators(7, 3), 7, 3)
    decode_nearest((1, 1, 1), code)
    for name in ("q", "codewords", "placement", "_decoder"):
        with pytest.raises(AttributeError):
            setattr(code, name, None)
        with pytest.raises(AttributeError):
            delattr(code, name)
    assert code.q == 7 and len(code.codewords) == 49
    assert code != (code.q, code.n, code.generators, code.codewords)
    assert code != enumerate_codewords(code_generators(7, 3)[:1], 7, 3)
    assert len({code, certified_code(7, 3), certified_code(9, 4)}) == 2
    assert weakref.ref(code)() is code
    assert repr(code) == "LeeCode(q=7, n=3, generators=((0, 1, 4), (1, 0, 2)))"


def test_lee_sphere_is_an_immutable_tuple():
    sphere = lee_sphere(2)
    with pytest.raises(AttributeError):
        sphere.n = 3
    assert sphere == (2, ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))


def test_decoded_code_is_freed_with_its_cover():
    fresh = enumerate_codewords(code_generators(7, 3), 7, 3)
    assert decode_nearest((1, 1, 1), fresh).codeword == (2, 1, 1)
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None


def test_decode_point_reduced_mod_q(code3):
    assert decode_nearest((8, 8, 8), code3) == decode_nearest((1, 1, 1), code3)


def test_decode_returns_the_shared_result(code3, code4, code52):
    res = decode_nearest((8, 8, 8), code3)
    assert res is decode_nearest((1, 1, 1), code3)
    assert res == ((2, 1, 1), 2)
    codeword, label = res
    assert (codeword, label) == (res.codeword, res.offset_index)
    # every representative of a point gets the point's one result object
    rng = random.Random(5)
    for code in (code3, code4, code52):
        q, n = code.q, code.n
        for point in product(range(q), repeat=n):
            res = decode_nearest(point, code)
            assert type(res) is lee.DecodeResult
            assert res is code._decoder[0][lee._rank(point, q)]  # the cover's own entry
            lift = tuple(x + q * rng.randint(-2, 2) for x in point)
            assert decode_nearest(lift, code) is res
        assert len(set(map(id, code._decoder[0]))) == q**n  # one object per point


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


@pytest.mark.parametrize(
    "point",
    [
        (1.9, 1, 1),
        ("1", 1, 1),
        (1, 1, 1.0),
        # x % 7 is a Decimal, a Fraction or a float64: the rank is no int
        (Decimal(1), 1, 1),
        (1, Fraction(8), 1),
        (1, 1, np.float64(1)),
        # x % 7 raises (bytes) or formats a string ("%d" % 7 == "7")
        (b"1", 1, 1),
        (1, 1, "%d"),
    ],
)
def test_decode_refuses_non_integer_coordinates(code3, point):
    decode_nearest((1, 1, 1), code3)  # warm: the record is in place
    with pytest.raises(TypeError):
        decode_nearest(point, code3)


class IndexOnly:
    """An integer by operator.index and by nothing else: no %, no arithmetic."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


def test_decode_takes_numpy_integers(code3):
    point = np.array([8, -6, 1], dtype=np.int64)
    assert decode_nearest(point, code3) == decode_nearest((1, 1, 1), code3)
    assert decode_nearest((True, 1, 1), code3) == decode_nearest((1, 1, 1), code3)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint64])
def test_decode_takes_narrow_numpy_integers_exactly(code3, dtype):
    # x % 7 keeps the dtype, so a rank built from it would wrap at 8 bits
    # (6, 6, 6) ranks 342; an int8 Horner loop gets 86
    for point in product((0, 5, 6), repeat=3):
        res = decode_nearest(np.array(point, dtype=dtype), code3)
        assert res is decode_nearest(point, code3)


def test_decode_takes_an_index_only_coordinate(code3, code4):
    for code in (code3, code4):
        q, n = code.q, code.n
        rng = random.Random(q)
        for _ in range(200):
            point = tuple(rng.randint(-2 * q, 2 * q) for _ in range(n))
            res = decode_nearest(point, code)
            assert decode_nearest(tuple(map(IndexOnly, point)), code) is res
            mixed = point[:-1] + (IndexOnly(point[-1]),)
            assert decode_nearest(mixed, code) is res


def test_enumeration_refuses_non_integer_generators():
    with pytest.raises(TypeError):
        enumerate_codewords(((0, 1.9, 4), (1, 0, 2)), 7, 3)
    with pytest.raises(TypeError):
        enumerate_codewords(((0, "1", 4), (1, 0, 2)), 7, 3)
    gens = [tuple(np.int64(x) for x in g) for g in code_generators(7, 3)]
    assert enumerate_codewords(gens, 7, 3) == certified_code(7, 3)
    # a 2-D array has no truth value, only a length
    rows = np.array(code_generators(7, 3))
    assert enumerate_codewords(rows, 7, 3) == certified_code(7, 3)


@pytest.mark.parametrize("q,n", [(7.0, 3), (7, 3.0), ("7", 3), (np.float64(7), 3)])
def test_modulus_and_dimension_must_be_integers(q, n, code3):
    with pytest.raises(TypeError):
        enumerate_codewords(code_generators(7, 3), q, n)
    with pytest.raises(TypeError):
        LeeCode(q, n, code3.generators, code3.codewords)
    with pytest.raises(TypeError):
        require_certified(q, n)
    with pytest.raises(TypeError):
        certified_code(q, n)


def test_float_modulus_leaves_the_certified_cache_clean(code3):
    # A warm cache must not serve its (7, 3) entry to a 7.0 key...
    with pytest.raises(TypeError):
        certified_code(7.0, 3)
    # ...and a cold one, configured alike, must not store a q = 7.0 code
    # that a later certified_code(7, 3) is served.
    fresh = lru_cache(**certified_code.cache_parameters())(certified_code.__wrapped__)
    with pytest.raises(TypeError):
        fresh(7.0, 3)
    assert fresh.cache_info().currsize == 0
    code = fresh(7, 3)
    assert type(code.q) is int and type(code.n) is int and code == code3
    assert require_certified(np.int64(9), np.int64(4)) == (9, 4)
    assert type(fresh(np.int64(9), 4).q) is int


def test_wrong_size_code_is_rejected_before_its_cover(monkeypatch):
    def no_table(q, n):
        raise AssertionError(f"the {q}^{n} torus table was read")

    monkeypatch.setattr(lee, "sphere_shifts", no_table)
    # all 343 points as codewords: 343 * 7 placements cannot tile 343 points
    code = enumerate_codewords(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 7, 3)
    assert len(code.codewords) == 343
    assert not tiling_check(code)
    with pytest.raises(ValueError, match="decoding not unique"):
        decode_nearest((0, 0, 1), code)
    # 4 * 21 placements on 4^10 = 2^20 points: the 21 x 2^20 table is never built
    wide = enumerate_codewords(((1,) * 10,), 4, 10)
    assert len(wide.codewords) == 4
    assert not tiling_check(wide) and wide.placement is None


def test_decode_nonperfect_raises():
    code = enumerate_codewords(((1, 1, 0), (0, 1, 1)), 7, 3)
    with pytest.raises(ValueError, match="decoding not unique"):
        decode_nearest((0, 0, 1), code)


def test_decode_nonperfect_refuses_every_call():
    # no record is stored, so the second decode reads the placement again
    code = enumerate_codewords(((1, 1, 0), (0, 1, 1)), 7, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="decoding not unique") as info:
            decode_nearest((0, 0, 1), code)
        assert info.value.__context__ is None or info.value.__suppress_context__
        assert "_decoder" not in vars(code)


def test_decode_refuses_a_wrong_length_before_a_non_tiling_code():
    code = enumerate_codewords(((1, 1, 0), (0, 1, 1)), 7, 3)
    for point in ((0, 1), (0, 0, 0, 1)):
        for _ in range(2):
            with pytest.raises(ValueError, match="dimension mismatch"):
                decode_nearest(point, code)
    with pytest.raises(ValueError, match="decoding not unique"):
        decode_nearest((0, 0, 1), code)


def test_decode_record_is_stored_once():
    code = enumerate_codewords(code_generators(7, 3), 7, 3)
    assert "_decoder" not in vars(code)
    with pytest.raises(ValueError, match="dimension mismatch"):
        decode_nearest((1, 1), code)  # refused before the record is made
    assert "_decoder" not in vars(code)
    res = decode_nearest((1, 1, 1), code)
    record = vars(code)["_decoder"]
    assert record == (code._decoder[0], 7, 3) and record[0] is code._decoder[0]
    assert len(record[0]) == 343 and record[0][lee._rank((1, 1, 1), 7)] is res
    assert decode_nearest((8, 8, 8), code) is res
    assert vars(code)["_decoder"] is record


def test_decode_dimension_mismatch(code3):
    with pytest.raises(ValueError):
        decode_nearest((1, 1), code3)


def test_decode_refuses_a_wrong_length_when_warm(code3, code4):
    rng = random.Random(7)
    for code in (code3, code4):
        q, n = code.q, code.n
        for _ in range(1000):
            decode_nearest(tuple(rng.randint(-2 * q, 2 * q) for _ in range(n)), code)
        # a leading 0 or a dropped coordinate leaves a rank inside the cover
        for point in ((), (1,) * (n - 1), (0,) + (1,) * n, (1,) * (n + 1)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                decode_nearest(point, code)
