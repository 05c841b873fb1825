"""Perfect radius-1 Lee-sphere codes in Z_q^n.

Codewords are the additive closure mod q of a handful of generator vectors.
Distances use the Mannheim weight (sum of absolute symmetric residues), the
sphere of radius 1 around each codeword is the cross shape {0, +/-e_i}, and
perfection means those spheres tile Z_q^n with no gaps and no overlaps.

For a radius-1 code "the spheres tile Z_q^n" and "every point decodes
uniquely" are one fact, so one pass serves both: each code places every
codeword + offset once, on first use, into its own point -> DecodeResult
cover, unless |C|(2n+1) != q^n rules a tiling out before any is built.  The
tiling check asks whether that cover exists, and a decode is one lookup that
returns the cover's shared, immutable result; the offset index doubles as
the point's cross-section label.  The cover lives on the code and goes with it.

lee_sphere fixes the offset order once; sphere_shifts turns it into the
torus table, a cached tuple of rows from which every engine takes neighbours.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from operator import index
from typing import NamedTuple, Optional, Sequence

Vec = tuple[int, ...]

# Refuse a space Z_q^n of more points than this: the closure and the tiling
# check keep per-point state.  (9, 4) has 6,561 points.
MAX_POINTS = 2**20


class LeeCode:
    """Group code in Z_q^n, enumerated once and immutable afterwards.

    Codes with equal fields are equal and hash alike.
    """

    def __init__(
        self, q: int, n: int, generators: tuple[Vec, ...], codewords: tuple[Vec, ...]
    ) -> None:
        if q < 2:
            raise ValueError("modulus must be at least 2")
        if n < 1:
            raise ValueError("dimension must be positive")
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
    def _cover(self) -> Optional[dict[Vec, DecodeResult]]:
        # Point -> DecodeResult, or None unless the spheres tile: |C|(2n+1)
        # = q^n placements on q^n distinct points leave no overlap and no gap.
        q = self.q
        _require_points(q, self.n)
        offsets = lee_sphere(self.n).offsets
        if len(self.codewords) * len(offsets) != q**self.n:
            return None
        cover = {
            tuple([(a + b) % q for a, b in zip(c, o)]): DecodeResult(c, j)
            for c in self.codewords
            for j, o in enumerate(offsets)
        }
        return cover if len(cover) == q**self.n else None


class LeeSphere(NamedTuple):
    """Radius-1 sphere offsets in the fixed order (0, +e1, -e1, +e2, ...)."""

    n: int
    offsets: tuple[Vec, ...]


class DecodeResult(NamedTuple):
    codeword: Vec
    offset_index: int


def symmetric_residue(x: int, q: int) -> int:
    """Representative of x mod q in [-(q-1)/2, (q-1)/2], for odd q."""
    if q < 3 or q % 2 == 0:
        raise ValueError("symmetric residue undefined")
    r = x % q
    return r - q if r > (q - 1) // 2 else r


def mannheim_weight(v: Sequence[int], q: int) -> int:
    """Sum of absolute symmetric residues of the coordinates."""
    return sum(abs(symmetric_residue(x, q)) for x in v)


def _require_points(q: int, n: int) -> None:
    # q**n >= 2**n, so a long n is refused before its power is taken
    if (q >= 2 and n > MAX_POINTS.bit_length()) or q**n > MAX_POINTS:
        raise ValueError(f"{q}^{n} points is over the limit of {MAX_POINTS}")


def enumerate_codewords(generators: Sequence[Sequence[int]], q: int, n: int) -> LeeCode:
    """Additive closure mod q of the generators, in deterministic BFS order.

    The closure of a finite set under addition mod q is the subgroup it
    generates, so the result always contains 0 (first) and is closed under
    addition.  Enumeration order is stable: breadth-first from 0, generators
    applied in the order given.  Entries, q and n must be integers
    (operator.index): a float or a string raises TypeError, not truncation.
    """
    if not generators:
        raise ValueError("generators must be nonempty")
    q, n = index(q), index(n)
    if q < 2:
        raise ValueError("modulus must be at least 2")
    _require_points(q, n)
    gens = []
    for g in generators:
        if len(g) != n:
            raise ValueError("generator dimension mismatch")
        gens.append(tuple(index(x) % q for x in g))
    zero = (0,) * n
    seen = {zero}
    order = [zero]
    head = 0
    while head < len(order):
        p = order[head]
        head += 1
        for g in gens:
            s = tuple((a + b) % q for a, b in zip(p, g))
            if s not in seen:
                seen.add(s)
                order.append(s)
    return LeeCode(q=q, n=n, generators=tuple(gens), codewords=tuple(order))


def minimum_distance(code: LeeCode) -> int:
    """Minimum Mannheim weight over the nonzero codewords, by full sweep.

    For a group code this equals the minimum pairwise distance.
    """
    nonzero = [c for c in code.codewords if any(c)]
    if not nonzero:
        raise ValueError("distance undefined")
    return min(mannheim_weight(c, code.q) for c in nonzero)


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
    return code._cover is not None


def decode_nearest(point: Sequence[int], code: LeeCode) -> DecodeResult:
    """Unique covering codeword and cross-section label of a point.

    Only defined for perfect codes; anything else raises, because two
    codewords would then compete for (or none would cover) some point.
    Coordinates must be integers (operator.index): a float or a string raises
    TypeError.  All points of one sphere share one immutable result.
    """
    if len(point) != code.n:
        raise ValueError("dimension mismatch")
    cover = code._cover
    if cover is None:
        raise ValueError("decoding not unique")
    q = code.q
    return cover[tuple([index(x) % q for x in point])]
