"""Qubit interleaver over Lee-sphere tiles, plus burst-correction sweeps.

The interleaver is a bijection between logical indices (cross-section j,
block slot b, codeword position i) and physical slots (owner hypercube plus
one of its owned faces).  Logical index (j, b, i) goes to the hypercube
codeword_i + offset_j: the code's placement, which lee computes once and
only a perfect code has.  So every hypercube carries qubits of a single
cross-section, namely the one matching its own offset label inside its
Lee-sphere tile.  A burst confined to one tile therefore touches each
cross-section at most once, which is exactly what the sweeps below certify.

A burst at an anchor may err at most one face per hypercube of the tile
{anchor + offsets}; constituent code blocks correct one error each, so a
pattern is correctable exactly when no block sees two.  Every slot of a
hypercube belongs to its block, so with s_b tile cells in block b a tile has
prod_b (1 + alpha s_b) correctable patterns: one pass over the anchors counts
them all, and that exhaustive sweep is the default.  Only the sampled sweep
imports numpy, for its PCG64 draws.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import chain, product, repeat
from operator import index
from typing import TYPE_CHECKING, NamedTuple, Optional

from .instances import certified_code, require_certified
from .lee import LeeCode, sphere_shifts
from .toric import CodeParams, qubits_per_vertex

# numpy stays off the `import leetoric` path: only the sampled sweep imports it
if TYPE_CHECKING:
    import numpy as np

Vec = tuple[int, ...]

RNG_ALGORITHM = "numpy-pcg64"

# Sampled sweeps refuse more draws than this, which bounds their run time;
# exhaustive mode checks every pattern for less than such a sample costs.
MAX_SAMPLES = 10**8

# Sampled draws are judged this many at a time, which bounds the sweep's
# working memory whatever the sample count.
_DRAW_CHUNK = 2**12


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
    """The interleaver of a perfect code, held as rank tuples.

    hypercube_rank is the code's placement, computed once in lee, and
    block_of[r] is the constituent code block j * ceil(|C| / q) + i div q of
    the hypercube r = hypercube_rank[j][i], which owns all its slots.  Both
    are tuples, so read-only; the forward and inverse dictionaries are built
    from them on first access.  Maps compare by identity.
    """

    def __init__(
        self, q: int, n: int, alpha: int, hypercube_rank: tuple[Vec, ...], block_of: Vec
    ) -> None:
        self.q, self.n, self.alpha = q, n, alpha
        self.hypercube_rank, self.block_of = hypercube_rank, block_of

    @cached_property
    def forward(self) -> dict[LogicalIndex, PhysicalSlot]:
        hypercube = all_burst_translates(self.q, self.n)  # indexed by rank
        return {
            LogicalIndex(j, b, i): PhysicalSlot(hypercube[r], b)
            for j, section in enumerate(self.hypercube_rank)
            for i, r in enumerate(section)
            for b in range(self.alpha)
        }

    @cached_property
    def inverse(self) -> dict[PhysicalSlot, LogicalIndex]:
        return {ps: li for li, ps in self.forward.items()}


class BurstSweepSummary(NamedTuple):
    """Reproducible record of one verification sweep.

    method names how patterns were judged: "block-product" counts each
    anchor's correctable patterns as prod_b (1 + alpha s_b), s_b being the
    number of its tile cells in block b, and every other pattern of the
    (alpha+1)^(2n+1) as a failure; "sampled-masks" judges each drawn and
    extremal pattern by its mask of hit tile cells.
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


def build_interleaver(code: LeeCode) -> InterleaverMap:
    """Bijection between logical indices and physical slots of a perfect code.

    Codeword order is the enumeration order of the code (null codeword
    first), offsets follow the fixed sphere order, and the slot b selects
    among each hypercube's owned faces in axes-lexicographic order.  The
    hypercube ranks are the code's placement, which only a perfect code has.
    """
    hyper = code.placement
    if hyper is None:
        raise ValueError("interleaver requires a perfect code")
    q, n = code.q, code.n
    per = math.ceil(len(code.codewords) / q)  # blocks per cross-section
    block_of = [0] * q**n
    for j, row in enumerate(hyper):
        blocks = chain.from_iterable(map(repeat, range(j * per, (j + 1) * per), repeat(q)))
        for r, b in zip(row, blocks):
            block_of[r] = b
    return InterleaverMap(q, n, qubits_per_vertex(n), hyper, tuple(block_of))


def all_burst_translates(q: int, n: int) -> tuple[Vec, ...]:
    """All q^n anchors of the Lee-sphere translates, in row-major order."""
    return tuple(product(range(q), repeat=n))


def _tile_classes(imap: InterleaverMap) -> np.ndarray:
    # cls[a, k] = bitmask of the cells of anchor a's tile in cell k's block, in
    # the least unsigned dtype of 2n+1 bits; ranks below MAX_POINTS fit int32
    import numpy as np

    shifts = sphere_shifts(imap.q, imap.n)
    blocks = np.asarray(imap.block_of, dtype=np.int32)[np.asarray(shifts, dtype=np.int32).T]
    cls = np.zeros(blocks.shape, dtype=np.min_scalar_type(2 ** blocks.shape[1] - 1))
    for j in range(blocks.shape[1]):
        np.bitwise_or(cls, 1 << j, out=cls, where=blocks == blocks[:, j, None])
    return cls


def verify_burst_correction(
    q: int,
    n: int,
    *,
    exhaustive: Optional[bool] = None,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> BurstSweepSummary:
    """Sweep Lee-sphere bursts over every translate and count failures.

    The mode is sampled exactly when samples is given; an explicit
    exhaustive flag must agree.  Exhaustive mode accounts for all
    (alpha+1)^(2n+1) per-tile patterns of every anchor by the block
    product.  Sampled mode draws that many seeded patterns spread evenly
    over the anchors (at most MAX_SAMPLES), plus the all-cells-errored
    extremal pattern of every slot for every anchor.  A pattern with mask
    m sees max_k |m & cls[k]| errors in its fullest block, cls[k] being the
    tile cells sharing cell k's block.  Failures are reported, not raised.
    samples and seed must be integers.  A seed applies only to sampled
    mode: given without samples it raises ValueError; omitted, it is 0.
    Sampled mode needs numpy, and without it ValueError comes before any
    sweep work.
    """
    q, n = require_certified(q, n)
    if seed is not None and samples is None:
        raise ValueError("--seed applies only to a sampled sweep: give --samples")
    samples = None if samples is None else index(samples)
    seed = index(0 if seed is None else seed)
    if exhaustive is not None and exhaustive != (samples is None):
        raise ValueError("choose either exhaustive mode or a sample count")
    if samples is not None and samples < 1:
        raise ValueError("sample count must be positive")
    if samples is not None and samples > MAX_SAMPLES:
        raise ValueError(
            f"sample count {samples} is over the limit of {MAX_SAMPLES}; "
            "use exhaustive mode"
        )
    if samples is not None:
        try:
            import numpy  # noqa: F401  (the draws are numpy's PCG64)
        except ImportError:
            raise ValueError("the sampled sweep needs numpy, which is not installed") from None

    imap = build_interleaver(certified_code(q, n))
    alpha, anchors = imap.alpha, q**n
    if samples is None:
        # tiles[a] = the blocks of anchor a's tile cells, in sphere order
        tiles = zip(*(map(imap.block_of.__getitem__, row) for row in sphere_shifts(q, n)))
        per_tile = (alpha + 1) ** (2 * n + 1)
        failures = max_block = 0
        for tile in tiles:
            sizes = Counter(tile).values()
            failures += per_tile - math.prod(1 + alpha * s for s in sizes)
            max_block = max(max_block, *sizes)
        patterns, mode, method = anchors * per_tile, "exhaustive", "block-product"
    else:
        failures, max_block, per_anchor = _sampled_sweep(imap, samples, seed)
        patterns, mode, method = anchors * (alpha + per_anchor), "sampled", "sampled-masks"
    return BurstSweepSummary(
        q=q, n=n, mode=mode, samples=samples, seed=None if samples is None else seed,
        rng_algorithm=None if samples is None else RNG_ALGORITHM, translates=anchors,
        patterns_checked=patterns, failures=failures, max_block_errors=max_block,
        method=method,
    )


def _sampled_sweep(imap: InterleaverMap, samples: int, seed: int) -> tuple[int, int, int]:
    # (failures, max_block_errors, draws per anchor) of the sampled sweep
    import numpy as np

    cls = _tile_classes(imap)
    anchors, sphere = cls.shape
    masks = np.arange(2**sphere)
    popcount = ((masks[:, None] >> np.arange(sphere)) & 1).sum(axis=1)
    # Anchors with equal class rows share every verdict: worst[u << sphere | m]
    # (int8) is the error count of the fullest block when mask m hits a tile of
    # distinct class row u, the rows sorted lexicographically and found by run
    # starts, and filled in one row at a time.
    order = np.lexsort(cls.T[::-1])
    ranked = cls[order]
    first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    rows, row_of = ranked[first], (np.cumsum(first) - 1)[np.argsort(order)]
    del cls, ranked, order
    worst = np.empty(len(rows) << sphere, dtype=np.int8)
    for u, row in enumerate(rows):
        worst[u << sphere:(u + 1) << sphere] = popcount[masks[:, None] & row].max(axis=1)
    # the alpha extremal patterns of an anchor all hit every tile cell
    extremal = worst[row_of << sphere | (2**sphere - 1)]
    failures = imap.alpha * int(np.count_nonzero(extremal >= 2))
    max_block = int(extremal.max())
    per_anchor = math.ceil(samples / anchors)
    draws = anchors * per_anchor
    weights = np.left_shift(1, np.arange(sphere), dtype=np.int16)
    rng = np.random.default_rng(seed)
    for lo in range(0, draws, _DRAW_CHUNK):
        hi = min(lo + _DRAW_CHUNK, draws)
        # one call over consecutive draws, int32 or int64, yields the same
        # stream as one call per anchor; draw d is anchor d // per_anchor's,
        # and an integer matrix product (no BLAS) weighs its hit cells into
        # its mask
        hit = rng.integers(0, imap.alpha + 1, size=(hi - lo, sphere), dtype=np.int32) > 0
        mask = hit.view(np.uint8) @ weights
        drawn = worst[row_of[np.arange(lo, hi) // per_anchor] << sphere | mask]
        failures += int(np.count_nonzero(drawn >= 2))
        max_block = max(max_block, int(drawn.max()))
    return failures, max_block, per_anchor


def interleaved_params(q: int, n: int) -> CodeParams:
    """Parameter record of the interleaved code on a certified instance.

    It is q^(n-1) = [L(M) : qZ^n] copies of the new code [[alpha q, alpha]].
    The capability t is the burst-correction capability q; no minimum
    distance is claimed, so the distance field stays empty.
    """
    q, n = require_certified(q, n)
    alpha = qubits_per_vertex(n)
    return CodeParams(n_code=alpha * q**n, k=alpha * q ** (n - 1), d=None, t=q)
