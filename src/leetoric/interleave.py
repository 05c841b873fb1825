"""Qubit interleaver over Lee-sphere tiles, plus burst-correction sweeps.

The interleaver is a bijection between logical indices (cross-section j,
block slot b, codeword position i) and physical slots (owner hypercube plus
one of its owned faces).  Logical index (j, b, i) goes to the hypercube
sitting at codeword_i + offset_j, so every hypercube carries qubits of a
single cross-section, namely the one matching its own offset label inside
its Lee-sphere tile.  A burst confined to one tile therefore touches each
cross-section at most once, which is exactly what the sweeps below certify.

Error patterns are sets of face indices in the toric module's numbering.
A burst at an anchor may err at most one face per hypercube of the tile
{anchor + offsets}; constituent code blocks correct one error each, so a
pattern is correctable exactly when no block sees two.  Every slot of a
hypercube belongs to the same block, so a pattern's verdict depends only on
its mask of hit tile cells: the (alpha+1)^(2n+1) patterns of a tile collapse
to 2^(2n+1) masks, mask m standing for alpha^|m| patterns.  That makes the
exhaustive sweep cheap on both certified instances; seeded sampling plus
extremal patterns remains the default in 4D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .instances import certified_code, require_certified
from .lee import LeeCode, lee_sphere
from .toric import (
    Cell,
    CodeParams,
    axes_tuples,
    face_from_index,
    face_index,
    face_owner,
    qubit_cell_dim,
)

# numpy is imported inside the functions that build arrays, not here: this
# module is on the `import leetoric` path of every CLI command, and only
# `interleave verify` and `verify stabilizers` use arrays.
if TYPE_CHECKING:
    import numpy as np

Vec = tuple[int, ...]

RNG_ALGORITHM = "numpy-pcg64"

# Sampled sweeps refuse more draws than this, which bounds their run time;
# exhaustive mode checks every pattern for less than such a sample costs.
MAX_SAMPLES = 10**8

# Sampled draws are judged this many at a time, which bounds the sweep's
# working memory whatever the sample count.
_DRAW_CHUNK = 2**14


@dataclass(frozen=True)
class LogicalIndex:
    """Position of a qubit before interleaving."""

    cross_section: int
    block: int
    codeword_index: int


@dataclass(frozen=True)
class PhysicalSlot:
    """Position of a qubit after interleaving: a hypercube plus a face slot."""

    hypercube: Vec
    slot: int


@dataclass(frozen=True)
class InterleaverMap:
    """The interleaver of a perfect code, held as rank arrays.

    hypercube_rank[j, i] is the row-major rank of the hypercube
    codeword_i + offset_j, and block_of[r] is the constituent code block
    j * ceil(|C| / q) + i div q that owns every slot of hypercube r.  The
    forward and inverse dictionaries are built from them on first access.
    """

    q: int
    n: int
    alpha: int
    hypercube_rank: np.ndarray = field(compare=False)
    block_of: np.ndarray = field(compare=False)

    @cached_property
    def forward(self) -> dict[LogicalIndex, PhysicalSlot]:
        coords = (self.hypercube_rank[..., None] // _radix(self.q, self.n)) % self.q
        return {
            LogicalIndex(j, b, i): PhysicalSlot(hyper, b)
            for j, section in enumerate(coords.tolist())
            for i, hyper in enumerate(map(tuple, section))
            for b in range(self.alpha)
        }

    @cached_property
    def inverse(self) -> dict[PhysicalSlot, LogicalIndex]:
        return {ps: li for li, ps in self.forward.items()}


@dataclass(frozen=True)
class BurstPattern:
    """One burst: a Lee-sphere translate plus at most one error per tile cell."""

    anchor: Vec
    errors: frozenset[int]


@dataclass(frozen=True)
class CorrectionVerdict:
    correctable: bool
    per_block_error_counts: dict[tuple[int, int], int]


@dataclass(frozen=True)
class BurstSweepSummary:
    """Reproducible record of one verification sweep.

    method names how patterns were judged: "mask-quotient" evaluates every
    anchor's 2^(2n+1) masks of hit tile cells, each standing for the
    alpha^|mask| patterns hitting exactly those cells, and masks_checked
    counts those (anchor, mask) pairs, anchors whose tiles split into blocks
    alike sharing one evaluation; "sampled-masks" judges each drawn and
    extremal pattern by its mask, and masks_checked is None.
    """

    q: int
    n: int
    mode: str
    samples: Optional[int]
    seed: Optional[int]
    rng_algorithm: Optional[str]
    translates: int
    patterns_checked: int
    failures: int
    max_block_errors: int
    method: str
    masks_checked: Optional[int]


def code_block(index: LogicalIndex, q: int) -> tuple[int, int]:
    """Constituent code block of a logical index: (cross-section, i div q)."""
    return index.cross_section, index.codeword_index // q


def _radix(q: int, n: int) -> np.ndarray:
    import numpy as np

    return q ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _sphere_ranks(points: np.ndarray, q: int, n: int) -> np.ndarray:
    # ranks[p, k] = row-major rank of points[p] + k-th sphere offset, mod q
    import numpy as np

    offsets = np.array(lee_sphere(n).offsets, dtype=np.int64)
    return ((points[:, None, :] + offsets) % q) @ _radix(q, n)


def build_interleaver(code: LeeCode) -> InterleaverMap:
    """Bijection between logical indices and physical slots of a perfect code.

    Codeword order is the enumeration order of the code (null codeword
    first), offsets follow the fixed sphere order, and the slot b selects
    among each hypercube's owned faces in axes-lexicographic order.  The
    code is perfect exactly when the spheres hit every hypercube once.
    """
    import numpy as np

    q, n = code.q, code.n
    words = np.array(code.codewords, dtype=np.int64).reshape(-1, n)
    hypercube_rank = _sphere_ranks(words, q, n).T
    if np.any(np.bincount(hypercube_rank.ravel(), minlength=q**n) != 1):
        raise ValueError("interleaver requires a perfect code")
    sections = np.arange(hypercube_rank.shape[0])[:, None]
    block_of = np.empty(q**n, dtype=np.int64)
    block_of[hypercube_rank] = (
        sections * math.ceil(len(words) / q) + np.arange(len(words)) // q
    )
    alpha = len(axes_tuples(n, qubit_cell_dim(n)))
    return InterleaverMap(
        q=q, n=n, alpha=alpha, hypercube_rank=hypercube_rank, block_of=block_of
    )


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


def all_burst_translates(q: int, n: int) -> tuple[Vec, ...]:
    """All q^n anchors of the Lee-sphere translates, in row-major order."""
    return tuple(product(range(q), repeat=n))


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
    import numpy as np

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


def _tile_classes(imap: InterleaverMap) -> np.ndarray:
    # cls[a, k] = bitmask of the cells of anchor a's tile in cell k's block
    import numpy as np

    q, n = imap.q, imap.n
    anchors = np.indices((q,) * n).reshape(n, -1).T
    blocks = imap.block_of[_sphere_ranks(anchors, q, n)]
    same = blocks[:, :, None] == blocks[:, None, :]
    return same @ (1 << np.arange(blocks.shape[1]))


def verify_burst_correction(
    q: int,
    n: int,
    *,
    exhaustive: Optional[bool] = None,
    samples: Optional[int] = None,
    seed: int = 0,
) -> BurstSweepSummary:
    """Sweep Lee-sphere bursts over every translate and count failures.

    Exhaustive mode accounts for all (alpha+1)^(2n+1) per-tile patterns of
    every anchor through their 2^(2n+1) hit-cell masks; it is the default
    for (7, 3).  For (9, 4) the default is one million seeded samples
    spread evenly over the anchors (at most MAX_SAMPLES), plus the
    all-cells-errored extremal pattern of every slot for every anchor.  A
    pattern with mask m sees max_k |m & cls[k]| errors in its fullest
    block, cls[k] being the tile cells sharing cell k's block.  Failures
    are reported, not raised.
    """
    import numpy as np

    require_certified(q, n)
    if exhaustive and samples is not None:
        raise ValueError("choose either exhaustive or sampled mode")
    if exhaustive is None and samples is None:
        exhaustive = (q, n) == (7, 3)
    if exhaustive:
        samples = None
    elif samples is None:
        samples = 1_000_000
    elif samples < 1:
        raise ValueError("sample count must be positive")
    elif samples > MAX_SAMPLES:
        raise ValueError(
            f"sample count {samples} is over the limit of {MAX_SAMPLES}; "
            "use exhaustive mode"
        )

    imap = build_interleaver(certified_code(q, n))
    cls = _tile_classes(imap)
    anchors, sphere = cls.shape
    alpha = imap.alpha
    masks = np.arange(2**sphere)
    popcount = ((masks[:, None] >> np.arange(sphere)) & 1).sum(axis=1)
    # Anchors with equal class rows share every verdict: worst[m, u] is the
    # error count of the fullest block when mask m hits a tile of class u.
    rows, row_of, mult = np.unique(cls, axis=0, return_inverse=True, return_counts=True)
    row_of = row_of.ravel()
    worst = popcount[masks[:, None, None] & rows].max(axis=-1)

    if exhaustive:
        weight = alpha**popcount
        failures = int(((worst >= 2) * weight[:, None] * mult).sum())
        max_block = int(worst.max())
        patterns = anchors * int(weight.sum())
        masks_checked = anchors * masks.size
        mode, method = "exhaustive", "mask-quotient"
        used_seed, used_rng = None, None
    else:
        # the alpha extremal patterns of an anchor all hit every tile cell
        extremal = worst[-1, row_of]
        failures = alpha * int(np.count_nonzero(extremal >= 2))
        max_block = int(extremal.max())
        per_anchor = math.ceil(samples / anchors)
        draws = anchors * per_anchor
        bits = 1 << np.arange(sphere)
        rng = np.random.default_rng(seed)
        for lo in range(0, draws, _DRAW_CHUNK):
            hi = min(lo + _DRAW_CHUNK, draws)
            # one call over consecutive draws yields the same stream as one
            # call per anchor; draw d belongs to anchor d // per_anchor
            vecs = rng.integers(0, alpha + 1, size=(hi - lo, sphere))
            drawn = worst[(vecs > 0) @ bits, row_of[np.arange(lo, hi) // per_anchor]]
            failures += int(np.count_nonzero(drawn >= 2))
            max_block = max(max_block, int(drawn.max()))
        patterns = anchors * (alpha + per_anchor)
        masks_checked = None
        mode, method = "sampled", "sampled-masks"
        used_seed, used_rng = seed, RNG_ALGORITHM

    return BurstSweepSummary(
        q=q,
        n=n,
        mode=mode,
        samples=samples,
        seed=used_seed,
        rng_algorithm=used_rng,
        translates=anchors,
        patterns_checked=patterns,
        failures=failures,
        max_block_errors=max_block,
        method=method,
        masks_checked=masks_checked,
    )


def interleaved_params(q: int, n: int) -> CodeParams:
    """Parameter record of the interleaved code on a certified instance.

    The capability t is the burst-correction capability q; no minimum
    distance is claimed, so the distance field stays empty.
    """
    require_certified(q, n)
    alpha = len(axes_tuples(n, qubit_cell_dim(n)))
    return CodeParams(
        n_code=alpha * q**n,
        k=alpha * q ** (n - 1),
        d=None,
        t=q,
        label=f"interleaved-{n}d-q{q}",
    )
