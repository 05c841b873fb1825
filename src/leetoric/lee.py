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
torus table from which every array engine takes its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

# numpy is imported inside sphere_shifts: `import leetoric` must not load it
if TYPE_CHECKING:
    import numpy as np

Vec = tuple[int, ...]

# Refuse a space Z_q^n of more points than this: the closure and the tiling
# check keep per-point state.  (9, 4) has 6,561 points.
MAX_POINTS = 2**20


@dataclass(frozen=True)
class LeeCode:
    """Group code in Z_q^n, enumerated once and immutable afterwards."""

    q: int
    n: int
    generators: tuple[Vec, ...]
    codewords: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("modulus must be at least 2")
        if self.n < 1:
            raise ValueError("dimension must be positive")

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


@dataclass(frozen=True)
class LeeSphere:
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
    applied in the order given.  Entries must be integers (operator.index):
    a float or a string raises TypeError rather than being truncated.
    """
    if not generators:
        raise ValueError("generators must be nonempty")
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


def sphere_shifts(q: int, n: int) -> np.ndarray:
    """Torus neighbours: one row per lee_sphere(n) offset, in its order.

    Row k maps the row-major rank of each x in Z_q^n to the rank of
    x + offsets[k]: row 0 is the identity, rows 2a+1, 2a+2 step +e_a, -e_a.
    """
    import numpy as np

    _require_points(q, n)
    grid = np.arange(q**n, dtype=np.int64).reshape((q,) * n)
    offsets = lee_sphere(n).offsets
    return np.stack([np.roll(grid, np.negative(o), range(n)).ravel() for o in offsets])


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
