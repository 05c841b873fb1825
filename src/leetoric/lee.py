"""Perfect radius-1 Lee-sphere codes in Z_q^n.

Codewords are the additive closure mod q of a handful of generator vectors.
Distances use the Lee (Mannheim) weight, sum of min(x mod q, -x mod q), at
every modulus; the radius-1 sphere {0, +/-e_i} has 2n+1 points for q >= 3,
and perfection means those spheres tile Z_q^n with no gaps and no overlaps.

For a radius-1 code "the spheres tile Z_q^n" and "every point decodes
uniquely" are one fact, so each code computes one placement (LeeCode.placement)
on first use.  The tiling check asks whether it exists; LeeCode._by_rank
spreads the interleaver's blocks and the decode cover over Z_q^n through it,
the cover's shared results carrying the offset index as cross-section label.
The first decode of a tiling code stores the record (cover, q, n) in the
code, so a warm decode is one length check, one Horner loop of x % q and one
cover read; a coordinate that is not an int (a numpy integer, or a float that
must be refused) is ranked again through operator.index.

lee_sphere and sphere_shifts each fix one offset order (zero, then +e_i, -e_i
per axis): lee_sphere as offset vectors, sphere_shifts as the torus table, a
cached tuple of rows from which every engine takes neighbours.  Neither calls
the other; test_sphere_shifts_match_per_point_oracle pins their agreement.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import add, index, itemgetter, mod
from typing import NamedTuple, Optional, Sequence

Vec = tuple[int, ...]

# Refuse a space Z_q^n of more points than this: the closure and the tiling
# check keep per-point state.  (9, 4) has 6,561 points.
MAX_POINTS = 2**20


class LeeCode:
    """Group code in Z_q^n, enumerated once and immutable afterwards.

    q and n are taken by operator.index; equal fields mean equal codes and hashes.
    """

    def __init__(
        self, q: int, n: int, generators: tuple[Vec, ...], codewords: tuple[Vec, ...]
    ) -> None:
        q, n = index(q), index(n)
        if q < 2:
            raise ValueError("modulus must be at least 2")
        if n < 1:
            raise ValueError("dimension must be positive")
        if set(map(len, codewords)) - {n}:  # one C-level pass over the lengths
            word = next(c for c in codewords if len(c) != n)
            raise ValueError(f"codeword {tuple(word)} has length {len(word)}, not {n}")
        vars(self).update(q=q, n=n, generators=generators, codewords=codewords)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"LeeCode is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.q, self.n, self.generators, self.codewords

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"LeeCode(q={self.q}, n={self.n}, generators={self.generators})"

    @cached_property
    def placement(self) -> Optional[tuple[Vec, ...]]:
        """Row j: the rank of codeword_i + offsets[j] for every i, or None
        unless the spheres tile: |C|(2n+1) = q^n placements on distinct ranks."""
        q, n = self.q, self.n
        _require_points(q, n)
        if q == 2:
            raise ValueError("a radius-1 Lee sphere needs q >= 3: +e_i and -e_i coincide mod 2")
        if len(self.codewords) * (2 * n + 1) != q**n:
            return None  # checked first: at q = 4, n = 10 the table is 21 x 2^20
        ranks = [_rank(c, q) for c in self.codewords]
        # itemgetter of one rank returns the bare item, not a 1-tuple
        take = itemgetter(*ranks) if len(ranks) > 1 else lambda row: (row[ranks[0]],)
        rows = tuple(map(take, sphere_shifts(q, n)))
        hit = bytearray(q**n)  # in a fresh process this beats a set of the ranks
        for r in chain.from_iterable(rows):
            hit[r] = 1
        return None if 0 in hit else rows

    def _by_rank(self, rows) -> tuple:
        # rows[j][i] at rank placement[j][i]: one entry per point of a tiling code
        table = [None] * self.q**self.n
        for ranks, values in zip(self.placement, rows):
            for r, value in zip(ranks, values):
                table[r] = value
        return tuple(table)


class LeeSphere(NamedTuple):
    """Radius-1 sphere offsets in the fixed order (0, +e1, -e1, +e2, ...)."""

    n: int
    offsets: tuple[Vec, ...]


class DecodeResult(NamedTuple):
    codeword: Vec
    offset_index: int


def mannheim_weight(v: Sequence[int], q: int) -> int:
    """Lee weight: each coordinate's distance to 0 on the cycle Z_q, any q >= 2."""
    return sum(min(x % q, -x % q) for x in v)


def _rank(point: Sequence[int], q: int) -> int:
    # row-major rank of the point reduced mod q, by Horner's rule
    r = 0
    for x in point:
        r = r * q + index(x) % q
    return r


def _require_points(q: int, n: int) -> None:
    # q**n >= 2**n, so a long n is refused before its power is taken
    if q < 2:
        raise ValueError("modulus must be at least 2")
    if n < 1:  # q**n would be a float below 1, inside the limit
        raise ValueError("dimension must be positive")
    if n > MAX_POINTS.bit_length() or q**n > MAX_POINTS:
        raise ValueError(f"{q}^{n} points is over the limit of {MAX_POINTS}")


def enumerate_codewords(generators: Sequence[Sequence[int]], q: int, n: int) -> LeeCode:
    """Additive closure mod q of the generators, in deterministic BFS order.

    The closure of a finite set under addition mod q is the subgroup it
    generates, so the result always contains 0 (first) and is closed under
    addition.  Enumeration order is stable: breadth-first from 0, generators
    applied in the order given.  Entries, q and n must be integers
    (operator.index): a float or a string raises TypeError, not truncation.
    """
    if len(generators) == 0:  # an array has no truth value
        raise ValueError("generators must be nonempty")
    q, n = index(q), index(n)
    _require_points(q, n)
    gens = []
    for g in generators:
        if len(g) != n:
            raise ValueError("generator dimension mismatch")
        gens.append(tuple(index(x) % q for x in g))
    zero, qs = (0,) * n, (q,) * n
    seen, order = {zero}, [zero]
    for p in order:  # the queue: a list iterator sees what is appended to it
        for g in gens:
            s = tuple(map(mod, map(add, p, g), qs))
            if s not in seen:
                seen.add(s)
                order.append(s)
    return LeeCode(q=q, n=n, generators=tuple(gens), codewords=tuple(order))


def minimum_distance(code: LeeCode) -> int:
    """Least nonzero Lee weight over the stored codewords, by full sweep.

    Weight 0 means 0 mod q, so an unreduced word counts as its residue, at
    every q.  For a group code this equals the minimum pairwise distance.
    """
    d = min(filter(None, (mannheim_weight(c, code.q) for c in code.codewords)), default=0)
    if not d:
        raise ValueError("distance undefined")
    return d


def lee_sphere(n: int) -> LeeSphere:
    """The 2n+1 radius-1 offsets: zero first, then +e_i, -e_i per axis."""
    if n < 1:
        raise ValueError("dimension must be positive")
    axes = [tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (1, -1)]
    return LeeSphere(n=n, offsets=((0,) * n, *axes))


@lru_cache(maxsize=None, typed=True)  # typed: a 7.0 key must not hit the 7 entry
def sphere_shifts(q: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Torus neighbours: one row per lee_sphere(n) offset, in its order.

    Row k maps the row-major rank of each x in Z_q^n to the rank of
    x + offsets[k]: row 0 is the identity, rows 2a+1, 2a+2 step +e_a, -e_a,
    rotating each run of q^(n-a) ranks by q^(n-1-a).  Cached per (q, n).
    """
    q, n = index(q), index(n)
    _require_points(q, n)
    ranks, rows = tuple(range(q**n)), []
    for a in range(n):
        step, run = q ** (n - 1 - a), q ** (n - a)
        for s in (step, run - step):  # +e_a, then -e_a
            cut = (ranks[lo + s:lo + run] + ranks[lo:lo + s] for lo in range(0, q**n, run))
            rows.append(tuple(chain.from_iterable(cut)))
    return (ranks, *rows)


def tiling_check(code: LeeCode) -> bool:
    """True iff the radius-1 spheres around the codewords tile Z_q^n exactly."""
    return code.placement is not None


def decode_nearest(point: Sequence[int], code: LeeCode) -> DecodeResult:
    """Unique covering codeword and cross-section label of a point.

    Only defined for perfect codes; anything else raises, because two
    codewords would then compete for (or none would cover) some point.
    The first decode of a tiling code builds the cover with code._by_rank
    and stores the record (cover, q, n) in the code; a code that does not
    tile gets none, so every decode re-reads its placement and raises.  A
    warm decode checks the length, ranks the point with x % q per coordinate
    and reads the cover.  A rank that comes out as anything but an int, or a
    TypeError, ArithmeticError or RuntimeWarning in that loop, sends the
    point through operator.index: numpy integers decode exactly, and a
    float, a Decimal or a string raises TypeError (an object whose x % q is
    an int is ranked by that int).  A numpy-array point takes that
    operator.index path at about twice the cost (3.12 vs 1.67 us per (9,4)
    point), so a caller holding an array passes point.tolist().  All
    representatives of a point share one immutable result.
    """
    try:
        cover, q, n = code._decoder
    except AttributeError:
        # a wrong length is refused before the placement is read, as when warm
        if len(point) != code.n:
            raise ValueError("dimension mismatch") from None
        if code.placement is None:
            raise ValueError("decoding not unique") from None
        # code only in the outer iterable: named inside, it would be a cell per call
        rows = (map(tuple.__new__, repeat(DecodeResult), zip(words, repeat(j)))
                for j, words in enumerate(repeat(code.codewords, 2 * code.n + 1)))
        cover, q, n = vars(code)["_decoder"] = (code._by_rank(rows), code.q, code.n)
    if len(point) != n:
        raise ValueError("dimension mismatch")
    r = 0
    try:
        for x in point:
            r = r * q + x % q
    except (TypeError, ArithmeticError, RuntimeWarning):  # a str; a numpy overflow
        r = None
    if type(r) is not int:  # a numpy integer's fixed width could have wrapped
        r = _rank(point, q)
    return cover[r]
