"""Rank certificates: arc graphs whose edge rows of P are provably independent.

A certificate is a directed acyclic graph over the moving vertices.  Each
arc v->u carries a witness column (a pair or cycle over the tail v) whose
entry on edge {u,v} is nonzero, and the per-tail arc ordering satisfies a
staircase zero pattern, which forces the corresponding rows of the
combined matrix P to be linearly independent.  Hence rank(P) >= #arcs.
Every witness is a column of the trace's P (pairs for k=2, minimal
cycles otherwise).  Builders and validator alike look its heads up in
one per-trace witness index, {(tail, times): heads}, read off the P
that build_P keeps on the trace in one pass.

Three constructions are provided:
  * k=2 blocks: functional reverse-BFS graph from the singleton vertices,
    augmented with one arc per gap between adjacent transition blocks;
  * k=3 complete graphs: leaping-cycle windows over the cyclic blocks of
    every cyclic vertex;
  * general k: one arc per cyclic vertex, then break functional cycles.
The first two read one run list per cyclic vertex: its time-steps,
split into runs at acyclic steps, one run per cyclic block it moves in.

Every construction is re-validated against the actual matrix rather than
trusted; validate_certificate runs its own elimination, mod a prime other
than exact_rank's and then over Q, so the check does not share code with
exact_rank.

CERTIFICATE_MODES is the one place that says, per mode (k2, 3cut, half),
which block the rank lemma certifies, over which window, with which rank
bound and builder; certificate_mode(k) picks the mode of a part count k,
and certify() is the one entry point from a mode name to a built and
validated certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .analysis import (BlockView, Cycle, classify_cyclic, find_critical_block,
                       occurrence_stats, two_critical_block)
from .engine import Trace
from .matrices import build_P, exact_rank
from .model import ModelError
from .thresholds import Beta


class CertificateError(ModelError):
    pass


@dataclass(frozen=True)
class Arc:
    v: int          # tail
    u: int          # head
    witness: tuple  # 1-based time-steps of the witness pair/cycle over v


@dataclass(frozen=True)
class CertificateGraph:
    """Arcs grouped by tail; per-tail tuples are in independence order."""

    arcs_by_tail: dict

    @property
    def arcs(self) -> tuple:
        out = []
        for v in sorted(self.arcs_by_tail):
            out.extend(self.arcs_by_tail[v])
        return tuple(out)

    @property
    def n_arcs(self) -> int:
        return sum(len(a) for a in self.arcs_by_tail.values())

    def to_text(self) -> str:
        lines = []
        for arc in self.arcs:
            ts = ",".join(str(t) for t in arc.witness)
            lines.append(f"{arc.v} {arc.u} {ts}")
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Verdict:
    valid: bool
    reason: str = ""


# --- the witness index -------------------------------------------------------

def _witness_heads(trace: Trace) -> dict:
    """{(tail, 1-based time-steps): heads}, one entry per column of the
    trace's P, a pair (k=2) or minimal cycle over tail, in P's column
    order, which lists a vertex's columns in label order; heads are the
    vertices u whose edge {tail, u} carries a nonzero entry of that
    column, in edge order.  Built once per trace, in one pass over P."""
    def build():
        p = build_P(trace, combine_mode(trace.instance.k))
        u, w, _ = trace.instance.edge_arrays()
        tails = np.repeat([lab.v for lab in p.col_labels], np.diff(p.ptr))
        heads = (u[p.rows] + w[p.rows] - tails).tolist()
        ptr = p.ptr.tolist()
        return {(lab.v, lab.times): heads[a:b]
                for lab, a, b in zip(p.col_labels, ptr, ptr[1:])}
    return trace.derived("witnesses", build)


# --- the cyclic runs, per vertex --------------------------------------------

def _cyclic_runs(moves):
    """({v: v's 1-based time-steps, split into runs}, acyclic) for the
    cyclic vertices v of classify_cyclic(moves), where acyclic is the set
    of the other moving vertices.  Each run is v's steps in one of its
    cyclic blocks: two steps of v share a block iff no acyclic step lies
    between them, so a run is keyed by the count of acyclic steps before
    it."""
    _, acyclic = classify_cyclic(moves)
    runs: dict = {}
    acyclic_steps = 0
    for t, m in enumerate(moves, start=1):
        if m.v in acyclic:
            acyclic_steps += 1
        else:
            runs.setdefault(m.v, {}).setdefault(acyclic_steps, []).append(t)
    return {v: list(by_gap.values()) for v, by_gap in runs.items()}, acyclic


# --- k=2: the functional certificate -----------------------------------------

def build_k2_certificate(trace: Trace, beta: Beta):
    """Functional reverse-BFS certificate plus gap arcs, for a critical block.

    Returns (graph, bound) with bound = max{s2, ceil(beta/(1+beta)*s1)};
    the graph has at least s2 + sum over repeating-in-many-blocks vertices
    of (b(v) - 2) arcs.  The trace must be the block itself, replayed from
    its own starting configuration.
    """
    inst = trace.instance
    if inst.k != 2:
        raise CertificateError("k=2 certificate requires a 2-cut trace")
    moves = trace.moves
    stats = occurrence_stats(moves)
    if not stats.singletons:
        raise CertificateError("block has no singleton vertices")
    if not beta.qualifies(len(moves), stats.s):
        raise CertificateError("block does not meet the criticality threshold")

    # all good arcs out of repeating vertices, each with its first pair
    witness: dict = {}
    for (v, times), heads in _witness_heads(trace).items():
        for u in heads:
            witness.setdefault((v, u), times)

    # reverse BFS from the singletons along good arcs
    tails_of: dict = {}
    for v, u in witness:
        tails_of.setdefault(u, []).append(v)
    tree: dict = {}
    queue = sorted(stats.singletons)
    seen = set(queue)
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for v in sorted(tails_of.get(u, ())):
            if v not in seen:
                seen.add(v)
                tree[v] = Arc(v=v, u=u, witness=witness[(v, u)])
                queue.append(v)
    missing = stats.repeating - set(tree)
    if missing:
        raise CertificateError(
            f"reverse BFS did not reach vertices {sorted(missing)}; block is not critical")

    # augmentation: one straddling-pair arc per gap between adjacent
    # transition blocks of each vertex, head = a singleton in the gap; at
    # k=2 the cyclic blocks are the transition blocks, since a vertex is
    # cyclic iff it moves at least twice
    runs, _ = _cyclic_runs(moves)
    arcs_by_tail: dict = {}
    for v in sorted(stats.repeating):
        tree_arc = tree[v]
        gap_arcs = []
        for run_a, run_b in zip(runs[v], runs[v][1:]):
            t_a, t_b = run_a[-1], run_b[0]
            cands = sorted(u for u in {moves[t - 1].v for t in range(t_a + 1, t_b)}
                           & stats.singletons
                           if inst.edge_index(u, v) is not None)
            if cands:
                gap_arcs.append(Arc(v=v, u=cands[0], witness=(t_a, t_b)))
        # at most one gap head can sit inside the tree witness pair and
        # break the staircase; discard that arc (and any duplicate head)
        x1, x2 = tree_arc.witness
        kept = [arc for arc in gap_arcs
                if arc.u != tree_arc.u and not x1 < stats.times[arc.u][0] < x2]
        arcs_by_tail[v] = (tree_arc, *kept)

    graph = CertificateGraph(arcs_by_tail=arcs_by_tail)
    bound = max(stats.s2, beta.ceil_singleton_bound(stats.s1))
    return graph, bound


# --- k=3 complete graphs: leaping cycles -------------------------------------

def _leaping_cycle(moves, run1, run2, run3) -> Cycle:
    """A leaping cycle over the vertex of three of its cyclic runs (k=3).

    Case analysis over the part trajectory after the last step t1 of
    run 1: a direct reverse move gives a 2-cycle; a move back into the
    starting part via the third part forces an intermediate move and
    gives a 3-cycle; otherwise the last step of run 2 and the first of
    run 3 form a 2-cycle.
    """
    t1 = run1[-1]
    v, a, b = moves[t1 - 1]
    c = ({1, 2, 3} - {a, b}).pop()
    span = [t1, *run2, *run3]
    # Case 1: v moves b -> a somewhere in the span
    for t in span:
        if moves[t - 1].p == b and moves[t - 1].q == a:
            return Cycle(v=v, times=(t1, t), parts=(a, b))
    # Case 2: v moves c -> a; a b -> c move is forced in between
    for t in span:
        if moves[t - 1].p == c and moves[t - 1].q == a:
            for tm in span:
                if t1 < tm < t and moves[tm - 1].p == b and moves[tm - 1].q == c:
                    return Cycle(v=v, times=(t1, tm, t), parts=(a, b, c))
            raise CertificateError("missing forced intermediate move; trace invalid")
    # Case 3: the last step of run 2 and the first of run 3 reverse each other
    m2, m3 = moves[run2[-1] - 1], moves[run3[0] - 1]
    if m2.q == m3.p and m3.q == m2.p:
        return Cycle(v=v, times=(run2[-1], run3[0]), parts=(m2.p, m3.p))
    raise CertificateError("case analysis failed; trace violates the move chaining")


def _is_tricky(moves, cyc: Cycle, acyclic) -> bool:
    """A leaping cycle is tricky iff it is a 3-cycle whose steps lie in
    three distinct runs and the acyclic vertices moving in [t1,t2] and
    in [t2,t3] coincide.  Equal sets imply distinct runs: t1 ends its
    run, so [t1,t2] holds an acyclic step, and two steps of one run have
    none between them."""
    if len(cyc.times) != 3:
        return False
    t1, t2, t3 = cyc.times
    return ({moves[t - 1].v for t in range(t1, t2 + 1)} & acyclic
            == {moves[t - 1].v for t in range(t2, t3 + 1)} & acyclic)


def _window_arcs(trace: Trace, v: int, runs, acyclic):
    """Ordered good arcs out of a cyclic vertex v, one per surviving window.

    Groups v's cyclic runs into overlapping windows of four, takes a
    non-tricky leaping cycle per window (of the two candidates at most
    one can be tricky), finds an acyclic witness vertex in the window's
    gap, then filters to a neighbor-wise independent subsequence of at
    least ceil(floor((b-1)/3)/2) arcs, for b runs.  Complete graphs
    only: the witness argument needs every edge {u,v} to exist.
    """
    moves = trace.moves
    big_r = (len(runs) - 1) // 3
    if big_r == 0:
        return []

    window_cycles = []
    window_gap_sets = []
    for r in range(big_r):
        win = runs[3 * r:3 * r + 4]
        cand1 = _leaping_cycle(moves, *win[:3])
        cand2 = _leaping_cycle(moves, *win[1:])
        tricky1 = _is_tricky(moves, cand1, acyclic)
        if tricky1 and _is_tricky(moves, cand2, acyclic):
            raise CertificateError("both window cycles tricky; contract broken")
        # gap vertex set: acyclic vertices strictly between the window's
        # first and fourth runs; steps inside a cyclic block move only
        # cyclic vertices
        gap = {moves[t - 1].v for t in range(win[0][-1] + 1, win[3][0])} & acyclic
        window_cycles.append(cand2 if tricky1 else cand1)
        window_gap_sets.append(gap)

    # leaping cycles are minimal cycles, so each is a column of P
    witness_heads = _witness_heads(trace)
    witnesses = []
    for r, cyc in enumerate(window_cycles):
        heads = witness_heads[(v, cyc.times)]
        found = next((u for u in sorted(window_gap_sets[r]) if u in heads), None)
        if found is None:
            raise CertificateError(
                f"no gap witness with nonzero entry for window {r + 1}")
        witnesses.append(found)

    # selection: repeatedly take the smallest live window index, emit its
    # witness, and kill every window whose gaps contain that witness
    live = list(range(big_r))
    picked = []
    while live:
        r = live[0]
        w = witnesses[r]
        picked.append(w)
        live = [i for i in live if w not in window_gap_sets[i]]
    # reverse, attaching each vertex's least-index window cycle
    arcs = []
    for w in reversed(picked):
        r = next(i for i in range(big_r) if witnesses[i] == w)
        arcs.append(Arc(v=v, u=w, witness=window_cycles[r].times))
    return arcs


def build_3cut_certificate(trace: Trace):
    """Certificate for a 2-critical block on a complete graph, k=3.

    Returns (graph, bound): the larger of the window-arc graph and the
    half certificate (>= ceil(c/2) arcs), and its arc count, so the bound
    is exactly what validating the graph checks.  Asserts bound >=
    ceil(s/32).
    """
    inst = trace.instance
    if inst.k != 3 or not inst.complete:
        raise CertificateError("construction requires k=3 on a complete graph")
    # the half builder also refuses a trace that is not improving
    half_graph, _ = build_half_certificate(trace)
    runs, acyclic = _cyclic_runs(trace.moves)
    arcs_by_tail = {}
    for v in sorted(runs):
        arcs = _window_arcs(trace, v, runs[v], acyclic)
        if arcs:
            arcs_by_tail[v] = tuple(arcs)
    graph = CertificateGraph(arcs_by_tail=arcs_by_tail)
    if half_graph.n_arcs > graph.n_arcs:
        graph = half_graph
    bound = graph.n_arcs
    need = CERTIFICATE_MODES["3cut"].rank_bound(
        occurrence_stats(trace.moves).s, len(runs), Beta.of(2))
    if bound < need:
        raise CertificateError(
            f"certificate bound {bound} below ceil(s/32)={need}; block not 2-critical?")
    return graph, bound


# --- general k: half certificate ---------------------------------------------

def build_half_certificate(trace: Trace, check_rank: bool = False):
    """One arc per cyclic vertex, functional cycles broken: >= ceil(c/2) arcs.

    An improving trace guarantees each cycle column has a nonzero entry
    on some edge at its vertex; failure of that search means the trace
    was not improving and is reported as a contract violation.
    """
    if any(d <= 0 for d in trace.delta_nums):
        raise CertificateError("trace is not improving")
    cyclic, _ = classify_cyclic(trace.moves)
    first: dict = {}
    for (v, times), heads in _witness_heads(trace).items():
        first.setdefault(v, (times, heads))
    arcs: dict = {}
    for v in sorted(cyclic):
        if v not in first:
            raise CertificateError(f"cyclic vertex {v} has no enumerated cycle")
        times, heads = first[v]
        if not heads:
            raise CertificateError(
                f"cycle column of vertex {v} is all-zero: trace was not improving")
        arcs[v] = Arc(v=v, u=min(heads), witness=times)

    # break the node-disjoint directed cycles of the functional graph; a
    # walk from each tail runs until it reaches a node some walk has seen
    removed = set()
    seen = set()
    for start in sorted(arcs):
        path = []
        node = start
        while node in arcs and node not in seen:
            seen.add(node)
            path.append(node)
            node = arcs[node].u
        if node in path:
            # walk closed on itself: drop the arc leaving the smallest node
            removed.add(min(path[path.index(node):]))

    arcs_by_tail = {v: (arc,) for v, arc in arcs.items() if v not in removed}
    graph = CertificateGraph(arcs_by_tail=arcs_by_tail)
    if 2 * graph.n_arcs < len(cyclic):
        raise CertificateError("cycle breaking removed too many arcs")
    if check_rank:
        rank = exact_rank(build_P(trace, combine_mode(trace.instance.k)))
        if rank < graph.n_arcs:
            raise CertificateError(
                f"exact rank {rank} below certified bound {graph.n_arcs}")
    return graph, graph.n_arcs


# --- validation --------------------------------------------------------------

def validate_certificate(graph: CertificateGraph, trace: Trace) -> Verdict:
    """Adversarial re-check of a certificate against the real matrix.

    Verifies acyclicity, that every witness is a pair (k=2) or cycle
    column of P over its arc's tail, nonzero witness entries, the
    per-tail staircase zero pattern, distinct edge rows, and full row
    rank of the witness-row submatrix of P over all its columns.  Full
    row rank is proven by _row_rank mod a prime of the validator's own (a
    code path independent of exact_rank); only when that count falls
    short does the same routine, run over Q on Fractions, decide.
    """
    inst = trace.instance
    arcs = graph.arcs
    if not arcs:
        return Verdict(valid=True)

    # acyclicity: peel vertices of in-degree 0 (Kahn); an arc left over
    # lies on or behind a directed cycle
    out_heads: dict = {}
    in_degree: dict = {}
    for arc in arcs:
        out_heads.setdefault(arc.v, []).append(arc.u)
        in_degree[arc.u] = in_degree.get(arc.u, 0) + 1
    ready = [v for v in out_heads if v not in in_degree]
    peeled = 0
    while ready:
        for nxt in out_heads.get(ready.pop(), ()):
            peeled += 1
            in_degree[nxt] -= 1
            if not in_degree[nxt]:
                ready.append(nxt)
    if peeled < len(arcs):
        return Verdict(valid=False, reason="graph has a directed cycle")

    # witness entries and staircase, on the heads of each witness column
    witness_heads = _witness_heads(trace)
    for arc in arcs:
        if (arc.v, arc.witness) not in witness_heads:
            return Verdict(valid=False,
                           reason=f"arc {arc.v}->{arc.u}: witness {arc.witness} is not "
                                  f"a pair or cycle of vertex {arc.v}")

    rows_of: dict = {}
    for arc in arcs:
        e = inst.edge_index(arc.u, arc.v)
        if e is None:
            return Verdict(valid=False, reason=f"arc {arc.v}->{arc.u}: edge missing")
        if e in rows_of:
            return Verdict(valid=False, reason=f"arc {arc.v}->{arc.u}: duplicate edge row")
        rows_of[e] = len(rows_of)
        if arc.u not in witness_heads[(arc.v, arc.witness)]:
            return Verdict(valid=False, reason=f"arc {arc.v}->{arc.u}: witness entry is zero")
    for v, ordered in graph.arcs_by_tail.items():
        for i, arc_i in enumerate(ordered):
            for arc_j in ordered[i + 1:]:
                if arc_j.u in witness_heads[(arc_i.v, arc_i.witness)]:
                    return Verdict(
                        valid=False,
                        reason=f"staircase broken at {v}->{arc_j.u} on witness of {v}->{arc_i.u}")

    # full row rank of the arcs' edge rows over all pair/cycle columns of
    # the trace, read in one pass over P
    p = build_P(trace, combine_mode(inst.k))
    row_at = np.full(p.n_rows, -1, dtype=np.intp)
    row_at[list(rows_of)] = np.arange(len(rows_of))
    at = row_at[p.rows]
    hit = at >= 0
    col_of = np.repeat(np.arange(p.n_cols), np.diff(p.ptr))
    rows = np.zeros((len(rows_of), p.n_cols), dtype=np.int64)
    rows[at[hit], col_of[hit]] = p.vals[hit]
    if _row_rank(rows % _VALIDATOR_PRIME, _VALIDATOR_PRIME) < len(arcs):
        rank = _row_rank(rows.astype(object) * Fraction(1))
        if rank != len(arcs):
            return Verdict(valid=False,
                           reason=f"witness rows have rank {rank}, expected {len(arcs)}")
    return Verdict(valid=True)


# the validator's prime, deliberately not exact_rank's 2**31 - 1; residues
# stay below 2**31, so a product of two fits in int64
_VALIDATOR_PRIME = 2 ** 31 - 19


def _row_rank(red: np.ndarray, p: int | None = None) -> int:
    """Rank of the rows of red, reduced in place: int64 residues mod p, or
    Fractions over Q when p is None.

    Each row in turn takes its first nonzero column as pivot and clears
    that column from the rows after it; a row left all zero depends on
    the rows before it.  Full rank mod p proves the rows independent over
    Q: some maximal minor is nonzero mod p, so it is a nonzero integer.
    A lower count mod p may be an unlucky prime.
    """
    rank = 0
    for i in range(len(red)):
        nonzero = np.flatnonzero(red[i])
        if not len(nonzero):
            continue
        c = nonzero[0]
        if p is None:
            red[i + 1:] -= (red[i + 1:, c] / red[i, c])[:, None] * red[i]
        else:
            factors = red[i + 1:, c] * pow(int(red[i, c]), -1, p) % p
            red[i + 1:] = (red[i + 1:] - factors[:, None] * red[i]) % p
        rank += 1
    return rank


# --- certificate modes -------------------------------------------------------

@dataclass(frozen=True)
class CertificateMode:
    """One mode's rank-lemma choices; a callable ignores a beta it does not need."""

    block: Callable       # (window moves, beta) -> BlockView to certify
    window: Callable      # (k, beta, n) -> lemma window length
    rank_bound: Callable  # (s, c, beta) -> lemma rank bound of a block
    build: Callable       # (trace, beta) -> (graph, bound)


CERTIFICATE_MODES = {
    # a beta-critical block of the window, rank >= ceil(beta s/(1+2beta))
    "k2": CertificateMode(
        block=find_critical_block,
        window=lambda k, beta, n: beta.ceil_threshold(n),
        rank_bound=lambda s, c, beta: beta.ceil_rank_bound(s),
        build=build_k2_certificate),
    # a 2-critical block of the window (k=3, complete graphs), rank >= ceil(s/32)
    "3cut": CertificateMode(
        block=lambda moves, beta: two_critical_block(moves),
        window=lambda k, beta, n: 3 * n,
        rank_bound=lambda s, c, beta: -(-s // 32),
        build=lambda trace, beta: build_3cut_certificate(trace)),
    # the whole window, rank >= ceil(c/2)
    "half": CertificateMode(
        block=lambda moves, beta: BlockView(moves, 1, len(moves)),
        window=lambda k, beta, n: k * n,
        rank_bound=lambda s, c, beta: -(-c // 2),
        build=lambda trace, beta: build_half_certificate(trace)),
}


def certificate_mode(k: int) -> str:
    """The certificate mode of part count k: k2, 3cut at k=3, else half."""
    return {2: "k2", 3: "3cut"}.get(k, "half")


def combine_mode(k: int) -> str:
    """build_P's columns at part count k: pairs at k=2, minimal cycles else."""
    return "pairs" if k == 2 else "cycles"


def certify(trace: Trace, mode: str, beta: Beta):
    """Build the mode's certificate and validate it: (graph, bound, verdict)."""
    if mode not in CERTIFICATE_MODES:
        raise CertificateError(f"unknown certificate mode {mode!r}")
    graph, bound = CERTIFICATE_MODES[mode].build(trace, beta)
    return graph, bound, validate_certificate(graph, trace)
