"""Smoothed weight sampling: determinism, support bounds, validation."""

from fractions import Fraction

import pytest

import flipbench as fb
from flipbench.generator import (GeneratorError, build_graph, grid_bounds,
                                 sample_weight_num, sample_weights)


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
    assert sample_weight_num(prof, 3, fb.DEFAULT_DENOM) == a[3]


def test_weights_inside_support():
    prof = fb.SmoothingProfile(phi=Fraction(4), seed=3,
                               centers=tuple([Fraction(1, 2)] * 10))
    for i in range(10):
        num = sample_weight_num(prof, i, fb.DEFAULT_DENOM)
        lo, hi = prof.support(i)
        assert lo <= Fraction(num, fb.DEFAULT_DENOM) <= hi


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
