from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest

import leetoric
import oracles
from leetoric import (
    InterleaverMap,
    LogicalIndex,
    PhysicalSlot,
    all_burst_translates,
    build_interleaver,
    certified_code,
    decode_nearest,
    enumerate_codewords,
    interleaved_params,
    lee_sphere,
    verify_burst_correction,
)
from leetoric import interleave
from oracles import (
    code_block,
    deinterleave,
    enumerate_bursts,
    face_index_to_slot,
    position_rank,
    slot_to_face_index,
)


def test_map_sizes_and_alpha(imap3, imap4):
    assert len(imap3.forward) == len(imap3.inverse) == 1029
    assert imap3.alpha == 3
    assert len(imap4.forward) == len(imap4.inverse) == 39366
    assert imap4.alpha == 6


def test_forward_frozen_examples(imap3, code3):
    assert imap3.forward[LogicalIndex(0, 0, 0)] == PhysicalSlot((0, 0, 0), 0)
    # cross-section 1 sits one step along the first axis from its codeword
    for i in (0, 1, 7, 48):
        c = code3.codewords[i]
        expected = ((c[0] + 1) % 7, c[1], c[2])
        for b in range(imap3.alpha):
            ps = imap3.forward[LogicalIndex(1, b, i)]
            assert ps.hypercube == expected and ps.slot == b


def test_forward_matches_literal_construction(imap3, code3, imap4, code4):
    for imap, code in ((imap3, code3), (imap4, code4)):
        q = code.q
        expected = {
            LogicalIndex(j, b, i): PhysicalSlot(
                tuple((a + o) % q for a, o in zip(c, off)), b
            )
            for j, off in enumerate(lee_sphere(code.n).offsets)
            for i, c in enumerate(code.codewords)
            for b in range(imap.alpha)
        }
        assert list(imap.forward.items()) == list(expected.items())


def _routed_blocks(imap) -> list[int]:
    # Block id per hypercube rank, found by routing every physical slot
    # through the inverse map; the block must be constant per hypercube.
    blocks: dict[tuple[int, int], int] = {}
    routed: list = [None] * imap.q**imap.n
    for ps, li in imap.inverse.items():
        b = blocks.setdefault(code_block(li, imap.q), len(blocks))
        r = position_rank(ps.hypercube, imap.q)
        assert routed[r] in (None, b), "code block is not constant per hypercube"
        routed[r] = b
    assert None not in routed
    return routed


def test_block_of_matches_routed_blocks(imap3, imap4):
    for imap in (imap3, imap4):
        routed = _routed_blocks(imap)
        block_of = list(imap.block_of)
        # equal partitions: the two labelings correspond one to one
        pairs = set(zip(routed, block_of))
        assert len(pairs) == len(set(routed)) == len(set(block_of))
        assert len(pairs) == imap.q ** (imap.n - 1)


def test_bijection_exhaustive(imap3, imap4, imap52):
    for imap in (imap3, imap4, imap52):
        assert len(imap.forward) == len(imap.inverse)
        for li, ps in imap.forward.items():
            assert imap.inverse[ps] == li


def test_cross_section_homogeneity(imap3, code3, imap4, code4, imap52, code52):
    for imap, code in ((imap3, code3), (imap4, code4), (imap52, code52)):
        by_hypercube: dict[tuple, set[int]] = {}
        for ps, li in imap.inverse.items():
            by_hypercube.setdefault(ps.hypercube, set()).add(li.cross_section)
        assert len(by_hypercube) == code.q**code.n
        for h, sections in by_hypercube.items():
            assert len(sections) == 1
            assert sections == {decode_nearest(h, code).offset_index}


def test_build_rejects_nonperfect_code():
    broken = enumerate_codewords(((1, 1, 0), (0, 1, 1)), 7, 3)
    with pytest.raises(ValueError):
        build_interleaver(broken)


def _with_block_of(imap: InterleaverMap, block_of) -> InterleaverMap:
    return InterleaverMap(imap.q, imap.n, imap.alpha, imap.hypercube_rank, tuple(block_of))


def test_doctored_map_is_not_equal_to_the_certified_one(imap3):
    doctored = _with_block_of(imap3, [0] * len(imap3.block_of))
    assert doctored != imap3
    assert imap3 == imap3
    # maps compare by identity, even when they hold the same arrays
    twin = _with_block_of(imap3, imap3.block_of)
    assert twin != imap3
    assert len({imap3, twin, imap3}) == 2


def test_interleaver_records_are_immutable_tuples():
    li, ps = LogicalIndex(2, 1, 23), PhysicalSlot((1, 2, 3), 1)
    summary = verify_burst_correction(7, 3)
    for record, name in ((li, "block"), (ps, "slot"), (summary, "failures")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert li == (2, 1, 23) and ps == ((1, 2, 3), 1)


def test_map_arrays_are_read_only(imap3):
    assert type(imap3.hypercube_rank) is tuple and type(imap3.hypercube_rank[0]) is tuple
    with pytest.raises(TypeError):
        imap3.hypercube_rank[0][0] = 5
    with pytest.raises(TypeError):
        imap3.block_of[0] = 5


def test_slot_face_index_roundtrip(imap3):
    for ps in list(imap3.inverse)[:100]:
        idx = slot_to_face_index(7, 3, ps)
        assert face_index_to_slot(7, 3, idx) == ps


def test_deinterleave_empty_burst(imap3):
    verdict = deinterleave(imap3, [])
    assert verdict.correctable
    assert verdict.per_block_error_counts == {}


def test_deinterleave_single_errors_always_correctable(imap3, imap4):
    for idx in range(1029):
        verdict = deinterleave(imap3, [idx])
        assert verdict.correctable
        assert list(verdict.per_block_error_counts.values()) == [1]
    rng = random.Random(19)
    for _ in range(300):
        verdict = deinterleave(imap4, [rng.randrange(39366)])
        assert verdict.correctable


def test_deinterleave_same_block_collision(imap3):
    # i = 0 and i = 1 share block (0, 0): two errors there defeat the block
    f1 = slot_to_face_index(7, 3, imap3.forward[LogicalIndex(0, 0, 0)])
    f2 = slot_to_face_index(7, 3, imap3.forward[LogicalIndex(0, 1, 1)])
    assert f1 != f2
    verdict = deinterleave(imap3, [f1, f2])
    assert not verdict.correctable
    assert verdict.per_block_error_counts == {(0, 0): 2}


def test_deinterleave_two_slots_of_one_hypercube_collide(imap3):
    # both slots belong to the same hypercube, hence the same block: this is
    # why bursts are restricted to one error per hypercube
    f1 = slot_to_face_index(7, 3, imap3.forward[LogicalIndex(2, 0, 5)])
    f2 = slot_to_face_index(7, 3, imap3.forward[LogicalIndex(2, 1, 5)])
    verdict = deinterleave(imap3, [f1, f2])
    assert not verdict.correctable


def test_code_block_grouping():
    assert code_block(LogicalIndex(2, 1, 23), 7) == (2, 3)
    assert code_block(LogicalIndex(0, 0, 6), 7) == (0, 0)
    assert code_block(LogicalIndex(0, 0, 7), 7) == (0, 1)


def test_all_burst_translates():
    t3 = all_burst_translates(7, 3)
    assert len(t3) == 343 and t3[0] == (0, 0, 0)
    assert len(set(t3)) == 343
    t4 = all_burst_translates(9, 4)
    assert len(t4) == 6561 and (0, 0, 0, 0) in t4


def test_enumerate_bursts_exhaustive_census(imap3):
    patterns = list(enumerate_bursts((0, 0, 0), 7, 3))
    assert len(patterns) == 4**7
    assert patterns[0].errors == frozenset()
    seen = set()
    for p in patterns[:500] + patterns[-500:]:
        owners = [face_index_to_slot(7, 3, f).hypercube for f in p.errors]
        assert len(owners) == len(set(owners))  # one error per hypercube
        assert len(p.errors) <= 7
        seen.add(p.errors)
    assert len(seen) == 1000  # distinct choice vectors give distinct bursts


def test_enumerate_bursts_sampled_reproducible():
    a = [p.errors for p in enumerate_bursts((1, 2, 3), 7, 3, samples=100, seed=8)]
    b = [p.errors for p in enumerate_bursts((1, 2, 3), 7, 3, samples=100, seed=8)]
    c = [p.errors for p in enumerate_bursts((1, 2, 3), 7, 3, samples=100, seed=9)]
    assert a == b
    assert a != c
    assert len(a) == 100


def test_enumerate_bursts_invalid_anchor():
    with pytest.raises(ValueError):
        list(enumerate_bursts((0, 0), 7, 3))


def test_engine_agrees_with_deinterleave_on_full_anchor(imap3):
    # the vectorized sweep says every pattern of this tile is correctable;
    # re-walk all of them through the reference deinterleaver
    for pattern in enumerate_bursts((0, 0, 0), 7, 3):
        verdict = deinterleave(imap3, pattern.errors)
        assert verdict.correctable
        assert all(v == 1 for v in verdict.per_block_error_counts.values())


def test_sampled_bursts_agree_with_deinterleave_4d(imap4):
    rng = random.Random(23)
    anchors = all_burst_translates(9, 4)
    for _ in range(30):
        anchor = anchors[rng.randrange(len(anchors))]
        for pattern in enumerate_bursts(anchor, 9, 4, samples=5, seed=rng.randrange(1000)):
            assert deinterleave(imap4, pattern.errors).correctable


def test_full_tile_bursts_are_correctable(imap3, imap4):
    # worst case: an error on every hypercube of the translate
    rng = random.Random(31)
    for imap, q, n in ((imap3, 7, 3), (imap4, 9, 4)):
        offsets = lee_sphere(n).offsets
        for _ in range(10):
            anchor = tuple(rng.randrange(q) for _ in range(n))
            tiles = [
                tuple((a + o) % q for a, o in zip(anchor, off)) for off in offsets
            ]
            for slot_rule in ("constant", "random"):
                errors = []
                for h in tiles:
                    s = 0 if slot_rule == "constant" else rng.randrange(imap.alpha)
                    errors.append(slot_to_face_index(q, n, PhysicalSlot(h, s)))
                verdict = deinterleave(imap, errors)
                assert verdict.correctable
                assert len(verdict.per_block_error_counts) == 2 * n + 1


def test_subpattern_monotonicity(imap3):
    offsets = lee_sphere(3).offsets
    rng = random.Random(37)
    for _ in range(10_000):
        anchor = tuple(rng.randrange(7) for _ in range(3))
        errors = []
        for off in offsets:
            choice = rng.randrange(4)
            if choice:
                h = tuple((a + o) % 7 for a, o in zip(anchor, off))
                errors.append(slot_to_face_index(7, 3, PhysicalSlot(h, choice - 1)))
        if not deinterleave(imap3, errors).correctable:
            continue
        sub = [f for f in errors if rng.random() < 0.5]
        assert deinterleave(imap3, sub).correctable


def test_sweep_3d_exhaustive_summary():
    s = verify_burst_correction(7, 3, exhaustive=True)
    assert s.mode == "exhaustive"
    assert s.translates == 343
    assert s.patterns_checked == 343 * 4**7 == 5_619_712
    assert s.failures == 0
    assert s.max_block_errors == 1
    assert s.samples is None and s.seed is None and s.rng_algorithm is None


def test_sweep_3d_default_mode_is_exhaustive():
    for q, n in ((7, 3), (9, 4)):
        assert verify_burst_correction(q, n).mode == "exhaustive"


def test_sweep_4d_sampled_summary_and_reproducibility():
    s1 = verify_burst_correction(9, 4, samples=7000, seed=5)
    s2 = verify_burst_correction(9, 4, samples=7000, seed=5)
    assert s1._asdict() == s2._asdict()
    assert s1.mode == "sampled"
    assert s1.samples == 7000 and s1.seed == 5
    assert s1.rng_algorithm == "numpy-pcg64"
    assert s1.translates == 6561
    # ceil(7000/6561) = 2 draws per anchor, plus 6 extremal patterns
    assert s1.patterns_checked == 6561 * 8
    assert s1.failures == 0
    assert s1.max_block_errors == 1


def test_sweep_4d_exhaustive_summary():
    s = verify_burst_correction(9, 4, exhaustive=True)
    assert s.mode == "exhaustive" and s.method == "block-product"
    assert s.translates == 6561
    assert s.patterns_checked == 6561 * 7**9 == 264_760_015_527
    assert "masks_checked" not in s._fields
    assert s.failures == 0
    assert s.max_block_errors == 1


def _doctored(q: int, n: int, tiles: int, seed: int):
    # The certified interleaver with two cells of each of some tiles merged
    # into one block, so bursts hitting both cells defeat that block.
    imap = build_interleaver(certified_code(q, n))
    block_of = list(imap.block_of)
    rng = random.Random(seed)
    anchors = all_burst_translates(q, n)
    for _ in range(tiles):
        anchor = rng.choice(anchors)
        first, second = (
            position_rank([a + o for a, o in zip(anchor, off)], q)
            for off in rng.sample(lee_sphere(n).offsets, 2)
        )
        block_of[second] = block_of[first]
    return _with_block_of(imap, block_of)


def _oracle_worst(imap, anchor, vecs: np.ndarray) -> np.ndarray:
    # Errors in the fullest block of each pattern (row of choices, 0 = no
    # error on that tile cell), by tallying the blocks of the errored cells.
    q, blocks = imap.q, max(imap.block_of) + 1
    tile = np.array([
        imap.block_of[position_rank([a + o for a, o in zip(anchor, off)], q)]
        for off in lee_sphere(imap.n).offsets
    ])
    pattern = np.broadcast_to(np.arange(len(vecs))[:, None], vecs.shape)
    keys = (pattern * blocks + tile)[vecs > 0]
    tally = np.bincount(keys, minlength=len(vecs) * blocks)
    return tally.reshape(len(vecs), blocks).max(axis=1)


def test_doctored_blocks_match_pattern_oracle_3d_exhaustive(monkeypatch):
    imap = _doctored(7, 3, tiles=12, seed=41)
    choices = np.array(list(product(range(imap.alpha + 1), repeat=7)))
    worst = np.concatenate(
        [_oracle_worst(imap, anchor, choices) for anchor in all_burst_translates(7, 3)]
    )
    monkeypatch.setattr(interleave, "build_interleaver", lambda code: imap)
    s = verify_burst_correction(7, 3, exhaustive=True)
    assert s.patterns_checked == worst.size
    assert s.failures == int(np.count_nonzero(worst >= 2)) > 0
    assert s.max_block_errors == int(worst.max())


def _sampled_oracle(imap, per_anchor: int, seed: int) -> np.ndarray:
    # The alpha extremal patterns and then per_anchor seeded draws of every
    # anchor, drawn per anchor as a sweep with one generator call per anchor
    # would, judged by _oracle_worst.
    rng = np.random.default_rng(seed)
    sphere = 2 * imap.n + 1
    extremal = np.repeat(np.arange(1, imap.alpha + 1)[:, None], sphere, axis=1)
    return np.concatenate([
        _oracle_worst(
            imap,
            anchor,
            np.vstack([extremal, rng.integers(0, imap.alpha + 1, size=(per_anchor, sphere))]),
        )
        for anchor in all_burst_translates(imap.q, imap.n)
    ])


def test_doctored_blocks_match_pattern_oracle_4d_sampled(monkeypatch):
    imap = _doctored(9, 4, tiles=40, seed=43)
    worst = _sampled_oracle(imap, per_anchor=2, seed=5)
    monkeypatch.setattr(interleave, "build_interleaver", lambda code: imap)
    s = verify_burst_correction(9, 4, samples=7000, seed=5)
    assert s.patterns_checked == worst.size
    assert s.failures == int(np.count_nonzero(worst >= 2)) > 0
    assert s.max_block_errors == int(worst.max())


@pytest.mark.parametrize("q,n,tiles,seed", [(7, 3, 12, 41), (9, 4, 40, 43)])
def test_sampled_chunks_that_split_anchors_match_the_oracle(monkeypatch, q, n, tiles, seed):
    # 6 draws per anchor: a chunk of 4 is shorter than an anchor's run and a
    # chunk of 64 longer, and both end inside some anchors' runs
    imap = _doctored(q, n, tiles=tiles, seed=seed)
    worst = _sampled_oracle(imap, per_anchor=6, seed=9)
    monkeypatch.setattr(interleave, "build_interleaver", lambda code: imap)
    samples = q**n * 5 + 1
    default = verify_burst_correction(q, n, samples=samples, seed=9)
    assert default.patterns_checked == worst.size
    assert default.failures == int(np.count_nonzero(worst >= 2)) > 0
    assert default.max_block_errors == int(worst.max())
    for chunk in (4, 64):
        monkeypatch.setattr(interleave, "_DRAW_CHUNK", chunk)
        assert verify_burst_correction(q, n, samples=samples, seed=9) == default


def test_tile_classes_match_the_matmul_oracle(imap3, imap4):
    doctored = _doctored(9, 4, tiles=40, seed=43)
    for imap in (imap3, imap4, doctored):
        cls = interleave._tile_classes(imap)
        assert cls.dtype.kind == "u"
        assert cls.tolist() == oracles.tile_classes(imap).tolist()
    assert len(np.unique(interleave._tile_classes(imap4), axis=0)) == 1
    assert len(np.unique(interleave._tile_classes(doctored), axis=0)) > 1


def test_tile_classes_9_4_memory_peak(imap4, traced_peak_mb):
    # one same-block comparison per tile cell, ORed in place: the (6561, 9)
    # blocks and classes and one bool column test (~0.5 MB), no upcast cube
    assert traced_peak_mb(lambda: interleave._tile_classes(imap4)) <= 2


def test_sampled_sweep_working_set_does_not_grow_with_samples(traced_peak_mb):
    # one chunk of draws and the compact verdict table, whatever the count
    rise = [
        traced_peak_mb(lambda: verify_burst_correction(9, 4, samples=samples, seed=5))
        for samples in (10**5, 10**6)
    ]
    assert rise[1] <= 1.5
    assert abs(rise[1] - rise[0]) <= 0.1


def _overwritten(imap: InterleaverMap, seed: int) -> InterleaverMap:
    # a tenth of block_of overwritten with blocks drawn from the map's own
    rng = random.Random(seed)
    block_of = list(imap.block_of)
    for r in rng.sample(range(len(block_of)), len(block_of) // 10):
        block_of[r] = rng.choice(imap.block_of)
    return _with_block_of(imap, block_of)


@pytest.mark.parametrize("q,n", [(7, 3), (9, 4)])
def test_block_product_matches_the_mask_quotient_oracle(monkeypatch, q, n):
    certified = build_interleaver(certified_code(q, n))
    maps = [certified] + [_overwritten(certified, seed) for seed in range(6)]
    for imap in maps:
        monkeypatch.setattr(interleave, "build_interleaver", lambda code: imap)
        s = verify_burst_correction(q, n)
        assert (s.failures, s.max_block_errors) == oracles.mask_quotient_sweep(imap)
        assert s.method == "block-product"
        assert (s.failures > 0) == (imap is not certified)


@pytest.mark.parametrize("a", [2, 4, 7, 11])
def test_int32_draws_take_the_int64_stream(a):
    # The sampled sweep draws int32 choices; its seeded results stand for the
    # int64 stream only while PCG64's bounded draws below 2^32 agree.
    streams = []
    for dtype in (np.int32, np.int64):
        rng = np.random.default_rng(2024 + a)
        streams.append(np.concatenate([
            rng.integers(0, a, size=(rows, 9), dtype=dtype) for rows in (1000, 37, 2**12)
        ]))
    assert np.array_equal(*streams)


def test_sweep_mode_errors():
    with pytest.raises(ValueError):
        verify_burst_correction(7, 3, exhaustive=True, samples=10)
    with pytest.raises(ValueError):
        verify_burst_correction(9, 4, exhaustive=False)
    with pytest.raises(ValueError):
        verify_burst_correction(9, 4, samples=0)
    with pytest.raises(ValueError, match="not certified"):
        verify_burst_correction(5, 3)


def test_sweep_refuses_a_seed_without_samples(monkeypatch):
    # refused before any sweep work: the interleaver is never built
    def no_build(code):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(interleave, "build_interleaver", no_build)
    for seed in (5, 0):
        for mode in ({}, {"exhaustive": True}):
            with pytest.raises(ValueError, match="--samples"):
                verify_burst_correction(7, 3, seed=seed, **mode)


def test_sampled_sweep_seed_defaults_to_zero():
    s = verify_burst_correction(7, 3, samples=1000)
    assert s.seed == 0
    assert s == verify_burst_correction(7, 3, samples=1000, seed=0)


@pytest.mark.parametrize("field", ["samples", "seed"])
@pytest.mark.parametrize("bad", [2.5, "7"])
def test_sweep_takes_only_integer_samples_and_seeds(field, bad):
    with pytest.raises(TypeError):
        verify_burst_correction(7, 3, **{"samples": 10, "seed": 1, field: bad})


def test_sweep_reads_numpy_integers_as_ints():
    s = verify_burst_correction(9, 4, samples=np.int64(7000), seed=np.uint64(5))
    assert s == verify_burst_correction(9, 4, samples=7000, seed=5)
    assert type(s.samples) is int and type(s.seed) is int


def test_interleaved_params_frozen():
    p3 = interleaved_params(7, 3)
    assert (p3.n_code, p3.k, p3.t) == (1029, 147, 7)
    assert p3.d is None
    p4 = interleaved_params(9, 4)
    assert (p4.n_code, p4.k, p4.t) == (39366, 4374, 9)
    assert p4.d is None
    with pytest.raises(ValueError, match="not certified"):
        interleaved_params(5, 3)


def test_public_surface_leaves_the_oracles_to_the_tests():
    names = leetoric.__all__
    assert names == sorted(names) and len(names) == 39
    assert all(hasattr(leetoric, name) for name in names)
    moved = {k for k, v in vars(oracles).items() if getattr(v, "__module__", None) == "oracles"}
    assert len(moved) == 26 and not moved & set(names)
    assert not [k for k in moved for m in (leetoric.toric, interleave) if hasattr(m, k)]
