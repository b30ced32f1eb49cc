"""Combinatorial structure of move sequences.

Occurrence statistics, consecutive-occurrence pairs (k=2), minimal cycles
(general k), cyclic/acyclic and transition/singleton block decompositions,
critical blocks, surplus, and cyclic-heavy block location.  Everything
here is a pure function of the move list (never of the starting
configuration) and all time-steps are 1-based, matching trace files.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .model import ModelError, Move
from .thresholds import Beta


class BlockNotFoundError(ModelError):
    pass


class TruncatedCycleSetError(ModelError):
    """An operation that needs the complete cycle set got a truncated one."""


DEFAULT_CYCLE_CAP = 100_000


# --- occurrences -------------------------------------------------------------

@dataclass(frozen=True)
class OccurrenceStats:
    counts: dict          # vertex -> number of moves
    times: dict           # vertex -> tuple of 1-based time-steps
    moving: frozenset     # S(L)
    singletons: frozenset  # S1(L): vertices moving exactly once
    repeating: frozenset   # S2(L): vertices moving at least twice

    @property
    def s(self) -> int:
        return len(self.moving)

    @property
    def s1(self) -> int:
        return len(self.singletons)

    @property
    def s2(self) -> int:
        return len(self.repeating)


def occurrence_stats(moves: Sequence[Move]) -> OccurrenceStats:
    counts: dict = {}
    times: dict = {}
    for t, m in enumerate(moves, start=1):
        counts[m.v] = counts.get(m.v, 0) + 1
        times.setdefault(m.v, []).append(t)
    moving = frozenset(counts)
    singles = frozenset(v for v, c in counts.items() if c == 1)
    return OccurrenceStats(counts=counts,
                           times={v: tuple(ts) for v, ts in times.items()},
                           moving=moving, singletons=singles,
                           repeating=moving - singles)


# --- pairs (k=2) -------------------------------------------------------------

class Pair(NamedTuple):
    v: int
    t1: int
    t2: int

    @property
    def times(self) -> tuple:
        """(t1, t2), as a Cycle names its time-steps."""
        return (self.t1, self.t2)


def pairs(moves: Sequence[Move]):
    """All consecutive-occurrence pairs, in (vertex, time) order."""
    stats = occurrence_stats(moves)
    out = []
    for v in sorted(stats.times):
        ts = stats.times[v]
        for a, b in zip(ts, ts[1:]):
            out.append(Pair(v, a, b))
    return out


# --- cycles (general k) ------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    v: int
    times: tuple   # increasing 1-based time-steps
    parts: tuple   # departed parts p_{t_1}, ..., p_{t_w} (all distinct)


@dataclass(frozen=True)
class CycleSet:
    cycles: tuple
    truncated: bool = False


def cycles(moves: Sequence[Move], k: int, cap: int = DEFAULT_CYCLE_CAP) -> CycleSet:
    """All inclusion-wise minimal circuits, per vertex.

    A circuit whose departed parts are pairwise distinct is exactly a
    minimal one (any repeat splits off a sub-circuit), so enumeration
    extends partial chains only into unvisited parts and closes on the
    start part.  Per-vertex output beyond `cap` sets the truncation flag.
    """
    stats = occurrence_stats(moves)
    out = []
    truncated = False
    for v in sorted(stats.times):
        occ = [(t, moves[t - 1].p, moves[t - 1].q) for t in stats.times[v]]
        found: list = []
        overflow = False

        def extend(path, visited, start_part, last_q):
            nonlocal overflow
            if overflow:
                return
            last_idx = path[-1]
            for j in range(last_idx + 1, len(occ)):
                t, p, q = occ[j]
                if p != last_q:
                    continue
                if q == start_part:
                    if len(found) >= cap:
                        overflow = True
                        return
                    sel = path + [j]
                    found.append(Cycle(v=v, times=tuple(occ[i][0] for i in sel),
                                       parts=tuple(occ[i][1] for i in sel)))
                elif q not in visited and len(path) + 1 < k:
                    extend(path + [j], visited | {q}, start_part, q)

        for i in range(len(occ)):
            t, p, q = occ[i]
            extend([i], {p, q}, p, q)
            if overflow:
                break
        if overflow:
            truncated = True
        out.extend(found)
    return CycleSet(cycles=tuple(out), truncated=truncated)


def classify_cyclic(moves: Sequence[Move], k: int):
    """(C(L), A(L)): vertices covered / not covered by some cycle.

    A vertex is cyclic iff its part walk within the sequence revisits a
    part, which avoids enumerating the cycles themselves.
    """
    walks: dict = {}
    cyclic = set()
    for m in moves:
        walk = walks.setdefault(m.v, None)
        if walk is None:
            walks[m.v] = walk = {m.p}
        if m.v in cyclic:
            continue
        if m.q in walk:
            cyclic.add(m.v)
        else:
            walk.add(m.q)
    moving = set(walks)
    return cyclic, moving - cyclic


# --- block decompositions ----------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """A maximal run of steps, all of whose vertices share one class."""

    t1: int
    t2: int
    special: bool  # True for transition (k=2) / cyclic (general k) runs


def _alternating(moves: Sequence[Move], special: set):
    segments = []
    start = None
    flag = None
    for t, m in enumerate(moves, start=1):
        f = m.v in special
        if flag is None:
            start, flag = t, f
        elif f != flag:
            segments.append(Segment(start, t - 1, flag))
            start, flag = t, f
    if flag is not None:
        segments.append(Segment(start, len(moves), flag))
    return segments


def transition_singleton_blocks(moves: Sequence[Move]):
    """k=2 decomposition into transition (repeating) / singleton runs."""
    stats = occurrence_stats(moves)
    return _alternating(moves, set(stats.repeating))


def cyclic_acyclic_blocks(moves: Sequence[Move], k: int):
    """General-k decomposition into cyclic / acyclic runs."""
    cyc, _ = classify_cyclic(moves, k)
    return _alternating(moves, cyc)


@dataclass(frozen=True)
class BlockView:
    """An index range [t1, t2] into a parent move sequence (1-based)."""

    parent: tuple
    t1: int
    t2: int

    def __post_init__(self):
        if not 1 <= self.t1 <= self.t2 <= len(self.parent):
            raise ModelError(f"block range [{self.t1},{self.t2}] out of bounds")

    @property
    def seq(self) -> tuple:
        return tuple(self.parent[self.t1 - 1:self.t2])

    @property
    def length(self) -> int:
        return self.t2 - self.t1 + 1

    def stats(self) -> OccurrenceStats:
        return occurrence_stats(self.seq)


# --- critical blocks ---------------------------------------------------------

def find_critical_block(moves: Sequence[Move], beta: Beta) -> BlockView:
    """Shortest, leftmost block B with len(B) >= (1+beta)*s(B).

    Shortest-first makes the result inclusion-wise minimal, hence
    beta-critical; any such block satisfies len(B) = ceil((1+beta)*s(B))
    (dropping the last move would otherwise contradict minimality).
    Guaranteed to succeed when len(moves) >= ceil((1+beta)*n).

    A window of length L holds s = L - r distinct vertices, where r counts
    the repeat pairs (prev[t], t) inside it (prev[t] is the last earlier
    move of moves[t]'s vertex), so it qualifies iff r >= need(L) = L -
    s_max[L].  A length is skipped when fewer than need(L) pairs have gap
    <= L-1; otherwise one integer difference-array pass counts r for every
    window.  When no window qualifies, every longer window holds at least
    L - max(r) distinct vertices, so the search jumps to the first length
    whose s_max reaches that.  O(ell log ell + passes * (ell + pairs)).
    """
    ell = len(moves)
    last: dict = {}
    prev, time = [], []
    for t, m in enumerate(moves, start=1):
        p = last.get(m.v)
        if p is not None:
            prev.append(p)
            time.append(t)
        last[m.v] = t
    prev, time = np.array(prev, dtype=np.intp), np.array(time, dtype=np.intp)
    order = np.argsort(time - prev, kind="stable")
    prev, time = prev[order], time[order]
    # fits[L] = number of pairs with gap <= L - 1, i.e. that fit a length-L window
    fits = [0] + np.cumsum(np.bincount(time - prev, minlength=ell + 1))[:ell].tolist()
    s_max = beta.s_max_table(ell)
    length = 1
    while length <= ell:
        need = length - s_max[length]
        if fits[length] < need:
            length += 1
            continue
        # window starts a (0-based) hold pair (p, t) iff t - length <= a <= p - 1
        windows = ell - length + 1
        p, t = prev[:fits[length]], time[:fits[length]]
        lo = np.maximum(t - length, 0)
        hi = np.minimum(p, windows)
        repeats = np.cumsum(np.bincount(lo, minlength=windows + 1)
                            - np.bincount(hi, minlength=windows + 1))[:windows]
        hit = np.flatnonzero(repeats >= need)
        if hit.size:
            start = int(hit[0])
            return BlockView(parent=tuple(moves), t1=start + 1, t2=start + length)
        length = bisect.bisect_left(s_max, length - int(repeats.max()))
    raise BlockNotFoundError(
        f"no block of the {ell}-step sequence satisfies len >= (1+{beta})*s")


def two_critical_block(moves: Sequence[Move]) -> BlockView:
    """2-critical block: threshold 3 = 1 + beta with beta = 2."""
    return find_critical_block(moves, Beta.of(2))


# --- surplus and cyclic-heavy blocks ----------------------------------------

def surplus(moves: Sequence[Move], k: int) -> int:
    """z(L) = len(L) - sum of acyclic move counts - number of cyclic vertices."""
    cyc, acyc = classify_cyclic(moves, k)
    stats = occurrence_stats(moves)
    return len(moves) - sum(stats.counts[v] for v in acyc) - len(cyc)


def cyclic_ratio_qualifies(c: int, length: int, k: int, alpha: Fraction, n: int) -> bool:
    """c/length >= (alpha-k+1) / ((2k-1) * alpha * lg(alpha*n)), exactly.

    Floats decide away from the boundary; ties fall back to an integer
    power comparison of (alpha*n)^b vs 2^a.
    """
    alpha = Fraction(alpha)
    need = alpha - (k - 1)
    if need <= 0:
        return True
    if c == 0:
        return False
    an = alpha * n
    if an <= 1:
        return False
    exponent = Fraction(need * length, (2 * k - 1) * alpha * c)
    lhs = math.log2(float(an))
    rhs = float(exponent)
    if lhs > rhs + 1e-9:
        return True
    if lhs < rhs - 1e-9:
        return False
    a, b = exponent.numerator, exponent.denominator
    return an.numerator ** b >= (2 ** a) * (an.denominator ** b)


def find_alpha_cyclic_block(moves: Sequence[Move], k: int, alpha, n: int) -> BlockView:
    """First block whose cyclic-vertex share meets the alpha-cyclic bound.

    Scans starts ascending, then ends ascending, keeping per-vertex part
    walks incrementally so each extension is O(1) amortized.  Existence
    is guaranteed for sequences of length alpha*n with at most n moving
    vertices.
    """
    alpha = Fraction(alpha)
    ell = len(moves)
    parent = tuple(moves)
    for start in range(ell):
        walks: dict = {}
        cyclic = set()
        for end in range(start, ell):
            m = moves[end]
            walk = walks.get(m.v)
            if walk is None:
                walks[m.v] = walk = {m.p}
            if m.v not in cyclic:
                if m.q in walk:
                    cyclic.add(m.v)
                else:
                    walk.add(m.q)
            length = end - start + 1
            if cyclic_ratio_qualifies(len(cyclic), length, k, alpha, n):
                return BlockView(parent=parent, t1=start + 1, t2=end + 1)
    raise BlockNotFoundError("no alpha-cyclic block found")
