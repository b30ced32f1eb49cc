"""Smoothed weight sampling: determinism, support bounds, validation."""

import hashlib
from fractions import Fraction

import pytest

import flipbench as fb
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
])
def test_sample_weights_are_pinned(n, phi, seed, kind, denom, digest):
    # digests recorded before the grid bounds were cached per centre: the
    # same (seed, edge index) must keep its weight
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


def test_make_instance():
    prof = fb.SmoothingProfile(phi=Fraction(2), seed=5)
    inst = fb.make_instance("complete", 8, 3, prof)
    assert inst.complete and inst.n == 8 and inst.k == 3
    assert inst.phi == 2
    inst2 = fb.make_instance("complete", 8, 3, prof)
    assert inst.content_hash() == inst2.content_hash()
