"""Shared helpers for the test suite.

Instances come in two flavors: smoothed random ones (the generator's
native output) and synthesized ones, where a dense valid move sequence
is chosen first and exact integer edge weights making every step
improving are found by a perceptron on the steps' sign rows.  The latter
is the only practical way to obtain blocks with high repeat density
(e.g. length >= 3 * #vertices) at desk scale, and is legitimate because
the structural lemmas quantify over arbitrary improving sequences.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import numpy as np

import flipbench as fb
from flipbench import analysis, matrices

GRID = 2 ** 20


class MatrixBuilds:
    """Counts step matrices and P's constructed, not build calls: the
    distinct objects build_M and build_P return, plus cycle enumerations,
    wherever the package or its re-exports name them."""

    def __init__(self, monkeypatch):
        self.made = {"M": [], "P": []}
        self.cycles = 0
        real_m, real_p, real_cycles = matrices.build_M, matrices.build_P, analysis.cycles

        def build_m(trace):
            self.made["M"].append(real_m(trace))
            return self.made["M"][-1]

        def build_p(*args, **kw):
            self.made["P"].append(real_p(*args, **kw))
            return self.made["P"][-1]

        def enumerate_cycles(*args, **kw):
            self.cycles += 1
            return real_cycles(*args, **kw)

        patches = {real_m: build_m, real_p: build_p, real_cycles: enumerate_cycles}
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "flipbench":
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in patches:
                        monkeypatch.setattr(module, attr, patches[value])

    def reset(self):
        self.made = {"M": [], "P": []}
        self.cycles = 0

    def counts(self) -> dict:
        """Matrices built since the last reset (objects are kept alive, so
        their ids are distinct) and cycle enumerations."""
        return {"M": len({id(m) for m in self.made["M"]}),
                "P": len({id(p) for p in self.made["P"]}), "cycles": self.cycles}


def views(obj) -> set:
    """The keys of the views a model object has built so far."""
    return {key.removeprefix("view:") for key in vars(obj) if key.startswith("view:")}


# --- reference oracles, from the definitions ----------------------------------
# None of them calls the step-sign kernel (model.step_signs, step_deltas,
# sequence_chunks) or the certificates' witness index itself, so none can
# share a bug with the code it checks.

def improving_set(inst, tau) -> list:
    """Every (Move, delta) at tau with a strictly positive exact delta, in
    (vertex, destination part) order: moving v from p to q gains the
    weight of v's edges into p less the weight of its edges into q."""
    into = [[0] * (inst.k + 1) for _ in range(inst.n)]
    for (a, b), num in zip(inst.edges, inst.weight_nums):
        into[a][tau[b]] += num
        into[b][tau[a]] += num
    out = []
    for v, p in enumerate(tau):
        for q in range(1, inst.k + 1):
            if q != p and into[v][p] > into[v][q]:
                out.append((fb.Move(v, p, q), Fraction(into[v][p] - into[v][q], inst.denom)))
    return out


def play_move(inst, tau, move) -> tuple:
    """(delta, configuration after move) of one move from tau, read off a
    one-step replay, which checks the move first."""
    step = fb.replay(inst, tau, [move])
    return Fraction(step.delta_nums[0], inst.denom), step.final_configuration()


def good_arc(trace, v: int, u: int) -> tuple:
    """(verdict, witness times) of the arc v->u by the paper's definition:
    the first pair (k=2) or minimal cycle column of P over v, in P's
    column order, with a nonzero entry on edge {u, v}."""
    e = trace.instance.edge_index(u, v)
    p = fb.build_P(trace, "pairs" if trace.instance.k == 2 else "cycles")
    for label, col in zip(p.col_labels, p.cols):
        if label.v == v and e is not None and dict(col).get(e):
            return True, label.times
    return False, None


def smoothed_instance(n: int, k: int, seed: int, phi=1, kind: str = "complete",
                      p: float = 0.5):
    profile = fb.SmoothingProfile(phi=Fraction(phi), seed=seed)
    return fb.make_instance(kind, n, k, profile, p=p)


def random_tau0(n: int, k: int, seed) -> tuple:
    rng = random.Random(f"tau0:{seed}")
    return tuple(rng.randint(1, k) for _ in range(n))


def run_random(n: int, k: int, seed: int, phi=1, rule: str = "first"):
    inst = smoothed_instance(n, k, seed, phi=phi)
    tau0 = random_tau0(n, k, seed)
    return fb.run_flip(inst, tau0, fb.PivotRule(variant=rule, seed=seed))


def random_moves(n: int, k: int, length: int, seed) -> tuple:
    """Valid (but not necessarily improving) random move sequence."""
    rng = random.Random(f"moves:{seed}")
    tau = [rng.randint(1, k) for _ in range(n)]
    out = []
    for _ in range(length):
        v = rng.randrange(n)
        q = rng.choice([x for x in range(1, k + 1) if x != tau[v]])
        out.append(fb.Move(v, tau[v], q))
        tau[v] = q
    return tuple(out)


def _relabelled(tau) -> tuple:
    """tau with its parts renamed in order of first appearance: two
    configurations have the same H for every weighting iff this agrees."""
    names: dict = {}
    return tuple(names.setdefault(p, len(names)) for p in tau)


def synth_trace(n: int, k: int, s: int, length: int, seed: int):
    """Improving trace with a dense move sequence, or None if none is found.

    Samples a valid random walk over the first s vertices, writes each
    step's sign row from the definition (+1 on edges to the part left, -1
    on edges to the part entered) and looks for integer weights x with
    every row a.x > 0.  A walk whose configuration repeats up to a
    relabelling of the parts has none: the steps between the two visits
    sum to the zero column.  Otherwise a perceptron from x = 0 adds the
    first row with a.x <= 0 until none is left, giving up after
    10,000 updates.  x is scaled to the exact grid (|num| <= GRID) and the
    replayed trace is verified to be strictly improving.
    """
    rng = random.Random(f"synth:{seed}")
    tau = [rng.randint(1, k) for _ in range(n)]
    tau0 = tuple(tau)
    moves = []
    for _ in range(length):
        v = rng.randrange(s)
        pp = tau[v]
        q = rng.choice([x for x in range(1, k + 1) if x != pp])
        moves.append(fb.Move(v, pp, q))
        tau[v] = q
    edges = fb.complete_edges(n)
    eidx = {e: i for i, e in enumerate(edges)}
    tau = list(tau0)
    seen = {_relabelled(tau)}
    A = np.zeros((length, len(edges)), dtype=np.int64)
    for t, (v, pp, q) in enumerate(moves):
        for u in range(n):
            if u == v:
                continue
            e = eidx[(min(u, v), max(u, v))]
            if tau[u] == pp:
                A[t, e] = 1
            elif tau[u] == q:
                A[t, e] = -1
        tau[v] = q
        shape = _relabelled(tau)
        if shape in seen:
            return None
        seen.add(shape)
    x = np.zeros(len(edges), dtype=np.int64)
    for _ in range(10_000):
        short = np.flatnonzero(A @ x <= 0)
        if not short.size:
            break
        x += A[short[0]]
    else:
        return None
    nums = tuple((x * (GRID // int(np.abs(x).max()))).tolist())
    inst = fb.Instance(n=n, k=k, edges=edges, weight_nums=nums, denom=GRID,
                       phi=Fraction(1), complete=True)
    trace = fb.replay(inst, tau0, moves)
    if len(trace) != length or any(d <= 0 for d in trace.delta_nums):
        return None
    return trace


def synth_traces(n: int, k: int, s: int, length: int, want: int,
                 seed0: int = 0, max_tries: int = 10_000):
    out = []
    seed = seed0
    while len(out) < want and seed < seed0 + max_tries:
        tr = synth_trace(n, k, s, length, seed)
        if tr is not None:
            out.append(tr)
        seed += 1
    return out


def synth_3cut_blocks(count: int) -> list:
    """The 2-critical k=3 blocks of the first count accepted seeds of
    synth_trace(12, 3, 5, 15, seed), from seed 0, each sliced to a trace
    of its own.  Ten of them span seeds 0-149 and a hundred seeds 0-1047."""
    out = []
    for trace in synth_traces(12, 3, 5, 15, want=count):
        block = fb.two_critical_block(trace.moves)
        out.append(fb.slice_trace(trace, block.t1, block.t2))
    return out
