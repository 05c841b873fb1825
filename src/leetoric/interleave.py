"""Qubit interleaver over Lee-sphere tiles, plus burst-correction sweeps.

The interleaver is a bijection between logical indices (cross-section j,
block slot b, codeword position i) and physical slots (owner hypercube plus
one of its owned faces).  Logical index (j, b, i) goes to the hypercube
codeword_i + offset_j, row j of the torus table lee.sphere_shifts at the
codeword's rank, so every hypercube carries qubits of a single
cross-section, namely the one matching its own offset label inside its
Lee-sphere tile.  A burst confined to one tile therefore touches each
cross-section at most once, which is exactly what the sweeps below certify.

A burst at an anchor may err at most one face per hypercube of the tile
{anchor + offsets}; constituent code blocks correct one error each, so a
pattern is correctable exactly when no block sees two.  Every slot of a
hypercube belongs to the same block, so a pattern's verdict depends only on
its mask of hit tile cells: the (alpha+1)^(2n+1) patterns of a tile collapse
to 2^(2n+1) masks, mask m standing for alpha^|m| patterns.  That makes the
exhaustive sweep cheap on both certified instances, and it is the default.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, NamedTuple, Optional

from .instances import certified_code, require_certified
from .lee import LeeCode, sphere_shifts
from .toric import CodeParams, qubits_per_vertex

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


class LogicalIndex(NamedTuple):
    """Position of a qubit before interleaving."""

    cross_section: int
    block: int
    codeword_index: int


class PhysicalSlot(NamedTuple):
    """Position of a qubit after interleaving: a hypercube plus a face slot."""

    hypercube: Vec
    slot: int


class InterleaverMap:
    """The interleaver of a perfect code, held as rank arrays.

    hypercube_rank[j, i] is the row-major rank of the hypercube
    codeword_i + offset_j, and block_of[r] is the constituent code block
    j * ceil(|C| / q) + i div q that owns every slot of hypercube r.  Both
    arrays are read-only; the forward and inverse dictionaries are built
    from them on first access.  Maps compare by identity.
    """

    def __init__(
        self, q: int, n: int, alpha: int, hypercube_rank: np.ndarray, block_of: np.ndarray
    ) -> None:
        self.q, self.n, self.alpha = q, n, alpha
        self.hypercube_rank, self.block_of = hypercube_rank, block_of

    @cached_property
    def forward(self) -> dict[LogicalIndex, PhysicalSlot]:
        import numpy as np

        coords = np.stack(np.unravel_index(self.hypercube_rank, (self.q,) * self.n), -1)
        return {
            LogicalIndex(j, b, i): PhysicalSlot(hyper, b)
            for j, section in enumerate(coords.tolist())
            for i, hyper in enumerate(map(tuple, section))
            for b in range(self.alpha)
        }

    @cached_property
    def inverse(self) -> dict[PhysicalSlot, LogicalIndex]:
        return {ps: li for li, ps in self.forward.items()}


class BurstSweepSummary(NamedTuple):
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


def build_interleaver(code: LeeCode) -> InterleaverMap:
    """Bijection between logical indices and physical slots of a perfect code.

    Codeword order is the enumeration order of the code (null codeword
    first), offsets follow the fixed sphere order, and the slot b selects
    among each hypercube's owned faces in axes-lexicographic order.  The
    code is perfect exactly when the spheres hit every hypercube once.
    """
    import numpy as np

    q, n = code.q, code.n
    words = np.array(code.codewords, dtype=np.int64).reshape(-1, n) % q
    hypercube_rank = sphere_shifts(q, n)[:, np.ravel_multi_index(words.T, (q,) * n)]
    if np.any(np.bincount(hypercube_rank.ravel(), minlength=q**n) != 1):
        raise ValueError("interleaver requires a perfect code")
    sections = np.arange(hypercube_rank.shape[0])[:, None]
    block_of = np.empty(q**n, dtype=np.int64)
    block_of[hypercube_rank] = (
        sections * math.ceil(len(words) / q) + np.arange(len(words)) // q
    )
    hypercube_rank.flags.writeable = block_of.flags.writeable = False
    return InterleaverMap(
        q=q, n=n, alpha=qubits_per_vertex(n), hypercube_rank=hypercube_rank,
        block_of=block_of,
    )


def all_burst_translates(q: int, n: int) -> tuple[Vec, ...]:
    """All q^n anchors of the Lee-sphere translates, in row-major order."""
    return tuple(product(range(q), repeat=n))


def _tile_classes(imap: InterleaverMap) -> np.ndarray:
    # cls[a, k] = bitmask of the cells of anchor a's tile in cell k's block
    import numpy as np

    blocks = imap.block_of[sphere_shifts(imap.q, imap.n).T]
    cls = np.zeros(blocks.shape, dtype=np.int64)
    for j in range(blocks.shape[1]):
        np.bitwise_or(cls, 1 << j, out=cls, where=blocks == blocks[:, j, None])
    return cls


def verify_burst_correction(
    q: int,
    n: int,
    *,
    exhaustive: Optional[bool] = None,
    samples: Optional[int] = None,
    seed: int = 0,
) -> BurstSweepSummary:
    """Sweep Lee-sphere bursts over every translate and count failures.

    The mode is sampled exactly when samples is given; an explicit
    exhaustive flag must agree.  Exhaustive mode accounts for all
    (alpha+1)^(2n+1) per-tile patterns of every anchor through their
    2^(2n+1) hit-cell masks.  Sampled mode draws that many seeded patterns
    spread evenly over the anchors (at most MAX_SAMPLES), plus the
    all-cells-errored extremal pattern of every slot for every anchor.  A
    pattern with mask m sees max_k |m & cls[k]| errors in its fullest
    block, cls[k] being the tile cells sharing cell k's block.  Failures
    are reported, not raised.
    """
    import numpy as np

    q, n = require_certified(q, n)
    if exhaustive is not None and exhaustive != (samples is None):
        raise ValueError("choose either exhaustive mode or a sample count")
    if samples is not None and samples < 1:
        raise ValueError("sample count must be positive")
    if samples is not None and samples > MAX_SAMPLES:
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
    # error count of the fullest block when mask m hits a tile of class u,
    # the distinct rows sorted lexicographically and found by run starts.
    order = np.lexsort(cls.T[::-1])
    ranked = cls[order]
    first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    rows, row_of = ranked[first], (np.cumsum(first) - 1)[np.argsort(order)]
    worst = popcount[masks[:, None, None] & rows].max(axis=-1)

    if samples is None:
        weight = alpha**popcount
        failures = int(((worst >= 2) * weight[:, None] * np.bincount(row_of)).sum())
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
        rng = np.random.default_rng(seed)
        for lo in range(0, draws, _DRAW_CHUNK):
            hi = min(lo + _DRAW_CHUNK, draws)
            # one call over consecutive draws, int32 or int64, yields the same
            # stream as one call per anchor; draw d is anchor d // per_anchor's
            hit = rng.integers(0, alpha + 1, size=(hi - lo, sphere), dtype=np.int32) > 0
            mask = np.zeros(hi - lo, dtype=np.int64)
            for j in range(sphere):
                mask |= np.left_shift(hit[:, j], j, dtype=np.int64)
            drawn = worst[mask, row_of[np.arange(lo, hi) // per_anchor]]
            failures += int(np.count_nonzero(drawn >= 2))
            max_block = max(max_block, int(drawn.max()))
        patterns = anchors * (alpha + per_anchor)
        masks_checked = None
        mode, method = "sampled", "sampled-masks"
        used_seed, used_rng = seed, RNG_ALGORITHM

    return BurstSweepSummary(
        q=q, n=n, mode=mode, samples=samples, seed=used_seed, rng_algorithm=used_rng,
        translates=anchors, patterns_checked=patterns, failures=failures,
        max_block_errors=max_block, method=method, masks_checked=masks_checked,
    )


def interleaved_params(q: int, n: int) -> CodeParams:
    """Parameter record of the interleaved code on a certified instance.

    It is q^(n-1) = [L(M) : qZ^n] copies of the new code [[alpha q, alpha]].
    The capability t is the burst-correction capability q; no minimum
    distance is claimed, so the distance field stays empty.
    """
    q, n = require_certified(q, n)
    alpha = qubits_per_vertex(n)
    return CodeParams(n_code=alpha * q**n, k=alpha * q ** (n - 1), d=None, t=q)
