"""Graph construction and smoothed edge-weight sampling.

The smoothing density is uniform on an interval of length 1/phi centered
at c_e, so the density equals phi on its support (the extremal case).
Weights are drawn on the fixed-point grid {.../D} so everything downstream
stays exact.  Each edge weight is a pure function of (seed, edge index):
sampling is reproducible and order-independent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .model import DEFAULT_DENOM, Instance, ModelError, complete_edges


class GeneratorError(ModelError):
    pass


@dataclass(frozen=True)
class SmoothingProfile:
    """Per-edge uniform densities with max value exactly phi.

    Every support interval [c_e - 1/(2 phi), c_e + 1/(2 phi)] must fit in
    [-1, 1]; with phi >= 1/2 and centers defaulting to zero that always
    holds.
    """

    phi: Fraction
    seed: int
    centers: tuple = ()  # per-edge Fractions; empty means all zero

    def __post_init__(self):
        if self.phi < Fraction(1, 2):
            raise GeneratorError("phi < 1/2: support interval would exceed [-1,1]")
        half = Fraction(1, 2) / self.phi
        for c in self.centers:
            if abs(c) + half > 1:
                raise GeneratorError(f"center {c} pushes support outside [-1,1]")

    def center(self, i: int) -> Fraction:
        return self.centers[i] if self.centers else Fraction(0)

    def support(self, i: int):
        half = Fraction(1, 2) / self.phi
        c = self.center(i)
        return c - half, c + half


GRAPH_KINDS = ("complete", "gnp")


def build_graph(kind: str, n: int, p: float | None = None, seed: int = 0):
    """Edge set of a simple graph: complete or G(n,p).

    gnp inclusion of each pair is a pure function of (seed, pair index),
    so the same seed always yields the same graph.
    """
    if kind not in GRAPH_KINDS:
        raise GeneratorError(f"unknown graph kind {kind!r}")
    if n < 2:
        raise GeneratorError("need n >= 2")
    if kind == "complete":
        return complete_edges(n)
    if p is None or not 0 <= p <= 1:
        raise GeneratorError("gnp requires p in [0,1]")
    out = []
    for idx, (u, v) in enumerate(complete_edges(n)):
        rng = random.Random(f"gnp:{seed}:{idx}")
        if rng.random() < p:
            out.append((u, v))
    return tuple(out)


def grid_bounds(profile: SmoothingProfile, i: int, denom: int):
    """Integer grid {lo..hi} such that lo/denom..hi/denom covers the support."""
    lo_f, hi_f = profile.support(i)
    lo = math.ceil(lo_f * denom)
    hi = math.floor(hi_f * denom)
    return lo, hi


def sample_weights(edges, profile: SmoothingProfile, denom: int = DEFAULT_DENOM):
    """Weight numerators, each uniform on its grid and keyed by (seed, edge
    index); the grid bounds are computed once per distinct centre."""
    bounds: dict = {}
    nums = []
    for i in range(len(edges)):
        c = profile.centers[i] if profile.centers else 0
        if c not in bounds:
            bounds[c] = grid_bounds(profile, i, denom)
        nums.append(random.Random(f"w:{profile.seed}:{i}").randint(*bounds[c]))
    return tuple(nums)


def make_instance(kind: str, n: int, k: int, profile: SmoothingProfile,
                  p: float | None = None, denom: int = DEFAULT_DENOM) -> Instance:
    """Build a graph and sample smoothed weights for it in one step."""
    es = build_graph(kind, n, p=p, seed=profile.seed)
    nums = sample_weights(es, profile, denom=denom)
    return Instance(n=n, k=k, edges=es, weight_nums=nums, denom=denom,
                    phi=profile.phi, complete=(kind == "complete"))
