"""Move-sequence structure: cycles, blocks, criticality, surplus."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

import flipbench as fb
from flipbench.analysis import cyclic_ratio_qualifies
from flipbench.thresholds import Beta

from conftest import random_moves, run_random


def _oracle_min_circuits(occ):
    """Inclusion-minimal circuits of one vertex by subset enumeration.

    occ: list of (time, p, q).  A circuit is an index subset whose moves
    chain destination-to-departure and close on the first departed part.
    """
    idx = range(len(occ))
    circuits = []
    for size in range(2, len(occ) + 1):
        for combo in itertools.combinations(idx, size):
            ok = all(occ[a][2] == occ[b][1] for a, b in zip(combo, combo[1:]))
            if ok and occ[combo[-1]][2] == occ[combo[0]][1]:
                circuits.append(frozenset(combo))
    minimal = [c for c in circuits
               if not any(o < c for o in circuits)]
    return {frozenset(occ[i][0] for i in c) for c in minimal}


def test_cycles_against_subset_oracle():
    for seed in range(40):
        rng = random.Random(f"cyc:{seed}")
        k = rng.choice([2, 3, 4])
        moves = random_moves(3, k, rng.randint(4, 10), seed)
        got = fb.cycles(moves, k)
        assert not got.truncated
        stats = fb.occurrence_stats(moves)
        want = set()
        for v in stats.moving:
            occ = [(t, moves[t - 1].p, moves[t - 1].q) for t in stats.times[v]]
            want |= _oracle_min_circuits(occ)
        assert {frozenset(c.times) for c in got.cycles} == want
        # minimality characterization: departed parts pairwise distinct
        for c in got.cycles:
            assert len(set(c.parts)) == len(c.parts) <= k


def test_cycle_chaining_is_valid():
    moves = random_moves(4, 4, 20, 99)
    for c in fb.cycles(moves, 4).cycles:
        ms = [moves[t - 1] for t in c.times]
        assert all(m.v == c.v for m in ms)
        for a, b in zip(ms, ms[1:]):
            assert a.q == b.p
        assert ms[-1].q == ms[0].p
        assert tuple(m.p for m in ms) == c.parts


def test_classify_cyclic_matches_cycle_cover():
    for seed in range(30):
        rng = random.Random(f"cc:{seed}")
        k = rng.choice([2, 3, 4])
        moves = random_moves(5, k, rng.randint(3, 14), 1000 + seed)
        cyc, acyc = fb.classify_cyclic(moves, k)
        covered = {c.v for c in fb.cycles(moves, k).cycles}
        assert cyc == covered
        stats = fb.occurrence_stats(moves)
        assert cyc | acyc == stats.moving and not (cyc & acyc)
        # acyclic vertices move at most k-1 times
        for v in acyc:
            assert stats.counts[v] <= k - 1


def test_occurrence_stats_and_pairs():
    moves = (fb.Move(2, 1, 2), fb.Move(0, 1, 2), fb.Move(2, 2, 1),
             fb.Move(1, 2, 1), fb.Move(2, 1, 2))
    stats = fb.occurrence_stats(moves)
    assert stats.counts == {2: 3, 0: 1, 1: 1}
    assert stats.times[2] == (1, 3, 5)
    assert stats.singletons == {0, 1} and stats.repeating == {2}
    assert (stats.s, stats.s1, stats.s2) == (3, 2, 1)
    assert fb.pairs(moves) == [fb.Pair(2, 1, 3), fb.Pair(2, 3, 5)]


def test_block_decompositions_alternate_and_cover():
    for seed in range(20):
        rng = random.Random(f"bd:{seed}")
        k = rng.choice([2, 3])
        moves = random_moves(6, k, rng.randint(5, 20), 2000 + seed)
        segs = (fb.transition_singleton_blocks(moves) if k == 2
                else fb.cyclic_acyclic_blocks(moves, k))
        assert segs[0].t1 == 1 and segs[-1].t2 == len(moves)
        for a, b in zip(segs, segs[1:]):
            assert b.t1 == a.t2 + 1 and a.special != b.special
        if k == 2:
            stats = fb.occurrence_stats(moves)
            for seg in segs:
                for t in range(seg.t1, seg.t2 + 1):
                    v = moves[t - 1].v
                    assert (v in stats.repeating) == seg.special


BETAS = (Beta.sqrt_half(), Beta.of(2), Beta.of(Fraction(1, 2)), Beta.of(Fraction(3, 2)))


def _oracle_critical(moves, beta):
    ell = len(moves)
    for length in range(1, ell + 1):
        for start in range(ell - length + 1):
            blk = moves[start:start + length]
            if beta.qualifies(length, len({m.v for m in blk})):
                return start + 1, start + length
    return None


def _scan_critical(moves, beta):
    """Second reference: a sliding window per length, one qualifies test per
    window, O(ell^2) in all; fast enough for traces the oracle cannot take."""
    ell = len(moves)
    for length in range(1, ell + 1):
        counts = collections.Counter(m.v for m in moves[:length])
        for start in range(ell - length + 1):
            if beta.qualifies(length, len(counts)):
                return start + 1, start + length
            if start + length < ell:
                out = moves[start].v
                counts[out] -= 1
                if not counts[out]:
                    del counts[out]
                counts[moves[start + length].v] += 1
    return None


def _check_block(moves, beta, want, sub_windows=True):
    """find_critical_block returns want, or raises when want is None; a found
    block has length ceil((1+beta)s) and no proper sub-window qualifies."""
    if want is None:
        with pytest.raises(fb.BlockNotFoundError, match=f"{len(moves)}-step"):
            fb.find_critical_block(moves, beta)
        return None
    block = fb.find_critical_block(moves, beta)
    assert (block.t1, block.t2) == want
    assert block.length == beta.ceil_threshold(block.stats().s)
    if sub_windows:
        for a in range(block.t1, block.t2 + 1):
            for b in range(a, block.t2 + 1):
                if (a, b) != (block.t1, block.t2):
                    sub = moves[a - 1:b]
                    assert not beta.qualifies(len(sub), len({m.v for m in sub}))
    return block


def test_find_critical_block_oracle():
    found = missing = 0
    for seed in range(160):
        rng = random.Random(f"fc:{seed}")
        k = rng.randint(2, 4)
        n = rng.randint(1, 24)
        ell = seed if seed < 2 else rng.randint(2, 120)
        moves = random_moves(n, k, ell, 3000 + seed)
        for beta in BETAS:
            block = _check_block(moves, beta, _oracle_critical(moves, beta),
                                 sub_windows=ell <= 40)
            found += block is not None
            missing += block is None
    assert found >= 300 and missing >= 60


def test_find_critical_block_on_natural_traces():
    found = longest = 0
    for seed in range(9):
        trace = run_random((32, 64, 128)[seed % 3], 2, 700 + seed,
                           rule=("first", "best", "random")[seed // 3])
        longest = max(longest, len(trace))
        reference = _oracle_critical if len(trace) <= 80 else _scan_critical
        for beta in BETAS:
            found += _check_block(trace.moves, beta, reference(trace.moves, beta)) is not None
    assert found >= 6 and longest > 80


def _spread_moves(n, length, gap, seed):
    """k=2 moves whose vertex never repeats within `gap` steps, so that
    critical blocks are long."""
    rng = random.Random(f"spread:{seed}")
    tau = [1] * n
    out = []
    for _ in range(length):
        recent = {m.v for m in out[-gap:]}
        v = rng.choice([u for u in range(n) if u not in recent])
        out.append(fb.Move(v, tau[v], 3 - tau[v]))
        tau[v] = 3 - tau[v]
    return tuple(out)


def test_find_critical_block_matches_scan_on_long_traces():
    lengths = []
    for seed in range(4):
        rng = random.Random(f"fl:{seed}")
        n = rng.randint(40, 120)
        moves = _spread_moves(n, rng.randint(380, 420), rng.randint(5, n // 2), seed)
        for beta in BETAS:
            block = _check_block(moves, beta, _scan_critical(moves, beta), sub_windows=False)
            lengths.append(block.length)
    assert min(lengths) > 50


def test_critical_block_exists_at_window_length():
    for beta in BETAS:
        for seed in range(10):
            n = 6 + seed
            moves = random_moves(n, 2, beta.ceil_threshold(n), 4000 + seed)
            fb.find_critical_block(moves, beta)  # must not raise


def test_two_critical_block():
    moves = random_moves(4, 3, 12, 77)  # length 12 = 3*4 guarantees a block
    block = fb.two_critical_block(moves)
    assert block.length >= 3 * block.stats().s
    for seed in range(20):
        moves = random_moves(8, 3, 10 + 2 * seed, 4100 + seed)
        want = _oracle_critical(moves, Beta.of(2))
        try:
            block = fb.two_critical_block(moves)
        except fb.BlockNotFoundError:
            assert want is None
        else:
            assert (block.t1, block.t2) == want


def test_block_view():
    moves = random_moves(5, 2, 10, 5)
    view = fb.BlockView(parent=moves, t1=3, t2=7)
    assert view.seq == moves[2:7] and view.length == 5
    with pytest.raises(fb.ModelError):
        fb.BlockView(parent=moves, t1=0, t2=4)
    with pytest.raises(fb.ModelError):
        fb.BlockView(parent=moves, t1=4, t2=11)


def _surplus_by_definition(moves, k):
    cyc, acyc = fb.classify_cyclic(moves, k)
    stats = fb.occurrence_stats(moves)
    return len(moves) - sum(stats.counts[v] for v in acyc) - len(cyc)


def test_surplus_definition_and_max():
    for seed in range(20):
        rng = random.Random(f"sp:{seed}")
        k = rng.choice([2, 3, 4])
        moves = random_moves(5, k, rng.randint(3, 15), 5000 + seed)
        assert fb.surplus(moves, k) == _surplus_by_definition(moves, k)
        # m_L(t), the largest surplus of a length-t block
        t = rng.randint(1, len(moves))
        blocks = [moves[i:i + t] for i in range(len(moves) - t + 1)]
        assert max(fb.surplus(b, k) for b in blocks) == \
            max(_surplus_by_definition(b, k) for b in blocks)


def test_cyclic_ratio_qualifies_oracle():
    import math
    for seed in range(200):
        rng = random.Random(f"cr:{seed}")
        k = rng.choice([2, 3, 4])
        n = rng.randint(2, 40)
        alpha = Fraction(rng.randint(k, 5 * k), rng.choice([1, 2, 3]))
        if alpha <= k - 1:
            alpha = Fraction(k)
        c = rng.randint(0, n)
        length = rng.randint(max(c, 1), 4 * n)
        got = cyclic_ratio_qualifies(c, length, k, alpha, n)
        need = alpha - (k - 1)
        if need <= 0 or float(alpha) * n <= 1:
            continue
        lhs = c / length
        rhs = float(need) / ((2 * k - 1) * float(alpha)
                             * math.log2(float(alpha) * n))
        if abs(lhs - rhs) > 1e-7:  # decide only away from the boundary
            assert got == (lhs >= rhs)


def test_find_alpha_cyclic_block_on_full_windows():
    for seed in range(10):
        rng = random.Random(f"ac:{seed}")
        k = rng.choice([2, 3, 4])
        n = rng.randint(3, 8)
        moves = random_moves(n, k, k * n, 6000 + seed)
        block = fb.find_alpha_cyclic_block(moves, k, Fraction(k), n)
        sub = block.seq
        cyc, _ = fb.classify_cyclic(sub, k)
        assert cyclic_ratio_qualifies(len(cyc), len(sub), k, Fraction(k), n)
