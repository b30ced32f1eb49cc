"""Smoothed weight sampling: determinism, support bounds, validation."""

import hashlib
import math
import random
import types
from fractions import Fraction

import pytest

import flipbench as fb
from flipbench import generator
from flipbench.generator import (GeneratorError, build_graph, grid_bounds,
                                 sample_weights)


def test_profile_validation():
    with pytest.raises(GeneratorError):
        fb.SmoothingProfile(phi=Fraction(1, 4), seed=0)
    with pytest.raises(GeneratorError):
        fb.SmoothingProfile(phi=Fraction(1), seed=0,
                            centers=(Fraction(3, 4),))
    prof = fb.SmoothingProfile(phi=Fraction(2), seed=0,
                               centers=(Fraction(1, 2),))
    assert prof.support(0) == (Fraction(1, 4), Fraction(3, 4))


def test_sampling_is_deterministic_and_order_free():
    prof = fb.SmoothingProfile(phi=Fraction(1), seed=7)
    edges = fb.complete_edges(6)
    a = sample_weights(edges, prof)
    b = sample_weights(edges, prof)
    assert a == b
    # each edge's weight depends only on (seed, index)
    assert sample_weights(edges[:4], prof)[3] == a[3]


def test_weights_inside_support():
    prof = fb.SmoothingProfile(phi=Fraction(4), seed=3,
                               centers=tuple([Fraction(1, 2)] * 10))
    for i, num in enumerate(sample_weights(range(10), prof)):
        lo, hi = prof.support(i)
        assert lo <= Fraction(num, fb.DEFAULT_DENOM) <= hi


def _centres(kind, m):
    if kind == "zero":
        return ()
    if kind == "half":
        return tuple([Fraction(1, 2)] * m)
    return tuple(Fraction(i % 5 - 2, 10) for i in range(m))


@pytest.mark.parametrize("n, phi, seed, kind, denom, digest", [
    (12, Fraction(1), 0, "zero", 2 ** 20, "904f201966be1390"),
    (40, Fraction(3), 7, "zero", 2 ** 20, "1197ab2db844fd55"),
    (20, Fraction(1, 2), 5, "zero", 2 ** 20, "8b181ce74fdc5a90"),
    (16, Fraction(2), 9, "half", 2 ** 20, "eb1c1ed3df9275bb"),
    (9, Fraction(7, 3), 4, "mixed", 2 ** 20, "26e1f3bf07d786a0"),
    (10, Fraction(1), 3, "zero", 2 ** 10, "fd360c762ec16c57"),
    (150, Fraction(1), 11, "zero", 2 ** 20, "aa89cc2f3f59e850"),
    (150, Fraction(2), 123456, "half", 2 ** 20, "1b6605fe431d96f2"),
])
def test_sample_weights_are_pinned(n, phi, seed, kind, denom, digest):
    # digests recorded before the grid bounds were cached per centre, the
    # n=150 ones before the batch draws: the same (seed, edge index) must
    # keep its weight
    edges = fb.complete_edges(n)
    prof = fb.SmoothingProfile(phi=phi, seed=seed, centers=_centres(kind, len(edges)))
    nums = sample_weights(edges, prof, denom)
    assert hashlib.sha256(repr(nums).encode()).hexdigest()[:16] == digest


def test_grid_bounds_cover_support():
    prof = fb.SmoothingProfile(phi=Fraction(3), seed=0)
    lo, hi = grid_bounds(prof, 0, 2 ** 10)
    s_lo, s_hi = prof.support(0)
    assert s_lo <= Fraction(lo, 2 ** 10) and Fraction(hi, 2 ** 10) <= s_hi
    assert Fraction(lo - 1, 2 ** 10) < s_lo and s_hi < Fraction(hi + 1, 2 ** 10)


def test_build_graph_kinds():
    assert build_graph("complete", 4) == ((0, 1), (0, 2), (0, 3), (1, 2),
                                          (1, 3), (2, 3))
    g1 = build_graph("gnp", 10, p=0.5, seed=1)
    assert g1 == build_graph("gnp", 10, p=0.5, seed=1)
    assert build_graph("gnp", 10, p=0.0, seed=1) == ()
    assert build_graph("gnp", 10, p=1.0, seed=1) == fb.complete_edges(10)
    with pytest.raises(GeneratorError):
        build_graph("gnp", 4, p=2.0)
    with pytest.raises(GeneratorError):
        build_graph("mystery", 4)


@pytest.mark.parametrize("seed, digest", [(0, "c74711bd80c38af8"), (5, "436c997cd258e78f")])
def test_gnp_is_pinned(seed, digest):
    # recorded before the batch draws: 7140 pairs, most of them batched
    edges = build_graph("gnp", 120, p=0.25, seed=seed)
    assert hashlib.sha256(repr(edges).encode()).hexdigest()[:16] == digest


def _stdlib_weights(m, prof, denom):
    bounds = {}
    for i in range(m):
        if prof.center(i) not in bounds:
            bounds[prof.center(i)] = grid_bounds(prof, i, denom)
    return tuple(random.Random(f"w:{prof.seed}:{i}").randint(*bounds[prof.center(i)])
                 for i in range(m))


@pytest.mark.parametrize("seed, grids", [
    (7, [(Fraction(1, 2), 2 ** 10, "zero"), (Fraction(7, 3), 2 ** 40, "zero")]),
    (123456, [(Fraction(1), 2 ** 20, "zero"), (Fraction(2), 2 ** 20, "mixed")]),
    (987654321012345, [(Fraction(3), 2 ** 31, "zero"), (Fraction(2), 2 ** 20, "half")]),
])
def test_batched_draws_match_the_stdlib(seed, grids):
    # seeds of 1, 6 and 15 digits; n=150 crosses the i = 10, 100, 1000 and
    # 10000 key-length boundaries; a 2**40 grid needs more than one word per
    # draw, so it takes the stdlib
    edges = fb.complete_edges(150)
    m = len(edges)
    assert generator._mt_words(f"w:{seed}:", m, 8)[1].sum() > 10000
    for phi, denom, kind in grids:
        prof = fb.SmoothingProfile(phi=phi, seed=seed, centers=_centres(kind, m))
        assert sample_weights(edges, prof, denom) == _stdlib_weights(m, prof, denom)
    coins = [random.Random(f"gnp:{seed}:{i}").random() for i in range(m)]
    # p on either side of one coin: a coin off by one ulp changes the graph
    for p in (0, 0.1, 0.5, 1, coins[m // 2], math.nextafter(coins[m // 2], 1)):
        assert build_graph("gnp", 150, p=p, seed=seed) == tuple(
            e for e, coin in zip(edges, coins) if coin < p)


def _stdlib_words(prefix, m, count):
    streams = [random.Random(f"{prefix}{i}") for i in range(m)]
    return [[rng.getrandbits(32) for _ in range(count)] for rng in streams]


def _key_words(prefix, i):
    b = f"{prefix}{i}".encode()
    return (int.from_bytes(b + hashlib.sha512(b).digest(), "big").bit_length() + 31) // 32


def _check_draws(seed, m):
    """Every batched word, weight and gnp coin of indices < m against the
    stdlib; returns the indices the batches computed."""
    prof = fb.SmoothingProfile(phi=Fraction(1), seed=seed)
    assert sample_weights(range(m), prof) == _stdlib_weights(m, prof, fb.DEFAULT_DENOM)
    done = True
    for prefix, count in ((f"w:{seed}:", generator._WORDS), (f"gnp:{seed}:", 2)):
        words, batched = generator._mt_words(prefix, m, count)
        expected = _stdlib_words(prefix, m, count)
        assert [w for w, ok in zip(words.tolist(), batched) if ok] == [
            w for w, ok in zip(expected, batched) if ok]
        done &= batched
    # random() is (a >> 5) * 2**26 + (b >> 6) over 2**53: the coin build_graph forms
    assert [((a >> 5) * 2 ** 26 + (b >> 6)) / 2 ** 53 for a, b in expected] == [
        random.Random(f"gnp:{seed}:{i}").random() for i in range(m)]
    return done


@pytest.mark.parametrize("m", [639, 640])
def test_min_batch_applies_to_all_indices(m):
    # _MIN_BATCH counts every index, whatever its key length: below it the
    # stdlib computes every draw, at it one batch computes them all
    assert generator._MIN_BATCH == 640
    done = _check_draws(4, m)
    assert done.all() if m >= generator._MIN_BATCH else not done.any()


def test_one_batch_spans_key_lengths():
    # n = 64 with a 12-digit seed: indices of 1..4 digits in one batch, whose
    # keys have two word counts (20 words below i = 10, 21 from there)
    seed, n = 123456789012, 64
    m = n * (n - 1) // 2
    assert len(str(m - 1)) == 4 and m < generator._MAX_BATCH
    assert [_key_words(f"w:{seed}:", i) for i in (0, 9, 10, 100, 1000, m - 1)] == [
        20, 20, 21, 21, 21, 21]
    assert _check_draws(seed, m).all()
    prof = fb.SmoothingProfile(phi=Fraction(1), seed=seed)
    edges = fb.complete_edges(n)
    coins = [random.Random(f"gnp:{seed}:{i}").random() for i in range(m)]
    for p in (0.5, coins[7], coins[1500]):
        assert build_graph("gnp", n, p=p, seed=seed) == tuple(
            e for e, coin in zip(edges, coins) if coin < p)
    inst = fb.make_instance("complete", n, 2, prof)
    assert inst.weight_nums == _stdlib_weights(m, prof, fb.DEFAULT_DENOM)


def test_batch_boundary_inside_one_digit_range():
    # m = 9000 takes two even batches of 4500: the boundary falls among
    # the 4-digit indices
    m = 9000
    assert generator._MAX_BATCH < m <= 2 * generator._MAX_BATCH
    assert len(str(m // 2 - 1)) == len(str(m // 2)) == 4
    assert _check_draws(77, m).all()


def test_rejection_tail_takes_the_stdlib(monkeypatch):
    # with one word per seed, randint's redraw after a rejected word (about
    # half the draws on a 2**20 + 1 grid) comes from the stdlib expression
    edges = fb.complete_edges(64)
    prof = fb.SmoothingProfile(phi=Fraction(1), seed=3)
    expected = _stdlib_weights(len(edges), prof, fb.DEFAULT_DENOM)
    seeded = []

    class Recording(random.Random):
        def __init__(self, x):
            seeded.append(x)
            super().__init__(x)

    monkeypatch.setattr(generator, "random", types.SimpleNamespace(Random=Recording))
    monkeypatch.setattr(generator, "_WORDS", 1)
    assert sample_weights(edges, prof) == expected
    assert 0 < len(seeded) < len(edges)
    with pytest.raises(ValueError):  # past the first twist's 227 words
        generator._mt_words("w:3:", len(edges), 228)


def test_make_instance():
    prof = fb.SmoothingProfile(phi=Fraction(2), seed=5)
    inst = fb.make_instance("complete", 8, 3, prof)
    assert inst.complete and inst.n == 8 and inst.k == 3
    assert inst.phi == 2
    inst2 = fb.make_instance("complete", 8, 3, prof)
    assert inst.content_hash() == inst2.content_hash()
