"""Qubit interleaver over Lee-sphere tiles, and its burst-correction sweep.

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
them all, and that block product answers both sweep modes.  A seeded pattern
hits a subset of its tile's cells, so when every tile has its cells in
distinct blocks no sampled pattern can fail and the sampled summary follows
without a draw.  Every map build_interleaver makes is such a map: two cells
of a tile differ by Lee weight at most 2, below the code's distance 3, so
they carry distinct offset labels and lie in distinct cross-sections, hence
distinct blocks.  A map with a failing tile gets the exact figures over every
pattern in either mode.  The interleaved code's printed record is in report.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import chain, compress, product, repeat, tee
from operator import index, itemgetter
from typing import NamedTuple, Optional

from .instances import certified_code, qubits_per_vertex, require_certified
from .lee import LeeCode, _require_points, sphere_shifts

Vec = tuple[int, ...]

# The generator whose stream, seeded, defines a sampled sweep's pattern set
RNG_ALGORITHM = "numpy-pcg64"

# Sampled sweeps refuse more samples than this; exhaustive mode accounts for
# every pattern in the same one pass.
MAX_SAMPLES = 10**8


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
    the hypercube r = hypercube_rank[j][i], which owns all its slots; the
    code's _by_rank spreads it, as it spreads the decode cover.  Both are
    tuples, so read-only; the forward and inverse dictionaries are built
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

    method is always "block-product": each anchor's correctable patterns
    are counted as prod_b (1 + alpha s_b), s_b being the number of its tile
    cells in block b, and every other pattern of the (alpha+1)^(2n+1) as a
    failure.  A sampled summary with no failing tile follows from it without
    a draw, since every pattern then hits each block at most once.
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
    blocks = (chain.from_iterable(map(repeat, range(j * per, (j + 1) * per), repeat(q)))
              for j in range(len(hyper)))
    return InterleaverMap(q, n, qubits_per_vertex(n), hyper, code._by_rank(blocks))


def all_burst_translates(q: int, n: int) -> tuple[Vec, ...]:
    """All q^n anchors of the Lee-sphere translates, in row-major order.

    A torus of more than lee.MAX_POINTS points raises ValueError first.
    """
    q, n = index(q), index(n)
    _require_points(q, n)
    return tuple(product(range(q), repeat=n))


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
    exhaustive flag must agree.  Both modes run one block-product pass.
    Exhaustive mode accounts for all (alpha+1)^(2n+1) per-tile patterns of
    every anchor.  Sampled mode covers that many seeded patterns spread
    evenly over the anchors (at most MAX_SAMPLES), plus the all-cells-errored
    extremal pattern of every slot for every anchor.  Each of them hits a
    subset of its tile's cells, so when every tile's cells lie in distinct
    blocks none fails: the summary is failures 0 and max_block_errors 1,
    without a draw.  When some tile repeats a block, sampled mode reports
    the exact figures over every pattern, as exhaustive mode does, and
    echoes the sampling inputs.  Failures are reported, not raised.
    samples and seed must be integers, not bools.  A seed applies only to
    sampled mode: given without samples it raises ValueError; omitted, it is 0.
    A seed outside [0, 2**64) raises ValueError before the interleaver is
    built.
    """
    q, n = require_certified(q, n)
    if seed is not None and samples is None:
        raise ValueError("--seed applies only to a sampled sweep: give --samples")
    if bool in (type(samples), type(seed)):
        raise TypeError("samples and seed must be integers, not bools")
    samples = None if samples is None else index(samples)
    seed = index(0 if seed is None else seed)
    if not 0 <= seed < 2**64:
        raise ValueError("--seed must fit in an unsigned 64-bit integer")
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
    alpha, anchors, sphere = imap.alpha, q**n, 2 * n + 1
    # tiles[a] = the blocks of anchor a's tile cells, in sphere order; only a
    # tile that repeats a block has failing patterns
    tiles, keys = tee(zip(*(itemgetter(*row)(imap.block_of) for row in sphere_shifts(q, n))))
    per_tile = (alpha + 1) ** sphere
    failures = 0
    max_block = 1  # a tile whose cells lie in distinct blocks
    for tile in compress(tiles, map(sphere.__gt__, map(len, map(set, keys)))):
        sizes = Counter(tile).values()
        failures += per_tile - math.prod(1 + alpha * s for s in sizes)
        max_block = max(max_block, *sizes)
    sampled = samples is not None
    patterns = anchors * per_tile
    if sampled and not failures:  # no subset of a tile's cells can fail
        patterns = anchors * (alpha + math.ceil(samples / anchors))
    return BurstSweepSummary(
        q=q, n=n, mode="sampled" if sampled else "exhaustive", samples=samples,
        seed=seed if sampled else None, rng_algorithm=RNG_ALGORITHM if sampled else None,
        translates=anchors, patterns_checked=patterns, failures=failures,
        max_block_errors=max_block, method="block-product",
    )
