"""Combinatorial structure of move sequences.

Occurrence statistics, consecutive-occurrence pairs (k=2), minimal cycles
(general k), the cyclic/acyclic block decomposition (transition/singleton
blocks at k=2), critical blocks, surplus, and cyclic-heavy block location.  Everything
here is a pure function of the move list (never of the starting
configuration) and all time-steps are 1-based, matching trace files.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
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


def cycles(moves: Sequence[Move], k: int) -> CycleSet:
    """All inclusion-wise minimal circuits, per vertex.

    A circuit whose departed parts are pairwise distinct is exactly a
    minimal one (any repeat splits off a sub-circuit), so enumeration
    extends partial chains only into unvisited parts and closes on the
    start part.  Chains grow depth-first on an explicit stack, each by v's
    later moves out of the part it entered, in time order.  Per-vertex
    output beyond DEFAULT_CYCLE_CAP sets the truncation flag.
    """
    occ: dict = {}  # vertex -> its moves as (time, p, q)
    for t, (v, p, q) in enumerate(moves, start=1):
        occ.setdefault(v, []).append((t, p, q))
    out = []
    truncated = False
    for v in sorted(occ):
        ev = occ[v]
        if len(ev) < 2:
            continue  # a cycle returns to its start part: two moves at least
        leaving: dict = {}  # part -> indices into ev of the moves out of it
        for j, (_, p, _) in enumerate(ev):
            leaving.setdefault(p, []).append(j)

        def after(j):  # the moves that can extend a chain ending with ev[j]
            ext = leaving.get(ev[j][2], ())
            return iter(ext[bisect.bisect(ext, j):])

        found = 0
        for i, (_, start, head) in enumerate(ev):
            path, visited, stack = [i], {start, head}, [after(i)]
            while stack and found <= DEFAULT_CYCLE_CAP:
                j = next(stack[-1], None)
                if j is None:
                    stack.pop()
                    visited.discard(ev[path.pop()][2])
                elif ev[j][2] == start:
                    found += 1
                    if found <= DEFAULT_CYCLE_CAP:
                        sel = path + [j]
                        out.append(Cycle(v=v, times=tuple(ev[x][0] for x in sel),
                                         parts=tuple(ev[x][1] for x in sel)))
                elif ev[j][2] not in visited and len(path) + 1 < k:
                    path.append(j)
                    visited.add(ev[j][2])
                    stack.append(after(j))
        truncated |= found > DEFAULT_CYCLE_CAP
    return CycleSet(cycles=tuple(out), truncated=truncated)


def _cyclic_steps(moves: Sequence[Move]) -> dict:
    """{v: index into moves of the step at which v's part walk first
    revisits a part}, for each vertex whose walk does."""
    walks: dict = {}
    turned: dict = {}
    for i, (v, p, q) in enumerate(moves):
        if v in turned:
            continue
        walk = walks.get(v)
        if walk is None:
            walks[v] = walk = {p}
        if q in walk:
            turned[v] = i
        else:
            walk.add(q)
    return turned


def classify_cyclic(moves: Sequence[Move]):
    """(C(L), A(L)): vertices covered / not covered by some cycle.

    A vertex is cyclic iff its part walk within the sequence revisits a
    part, which needs no part count and avoids enumerating the cycles.
    """
    cyclic = set(_cyclic_steps(moves))
    return cyclic, {m.v for m in moves} - cyclic


# --- block decomposition -----------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """A maximal run of steps, all of whose vertices share one class."""

    t1: int
    t2: int
    special: bool  # True for cyclic runs (the transition runs at k=2)


def cyclic_acyclic_blocks(moves: Sequence[Move]):
    """Decomposition into maximal cyclic / acyclic runs, by classify_cyclic's
    rule on the moves alone.  At k=2 a vertex is cyclic iff it moves at
    least twice, so these are the transition / singleton runs."""
    cyc = _cyclic_steps(moves)
    segments = []
    t1 = 1
    for special, run in itertools.groupby(moves, key=lambda m: m.v in cyc):
        t2 = t1 + len(list(run)) - 1
        segments.append(Segment(t1, t2, special))
        t1 = t2 + 1
    return segments


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
    move of moves[t]'s vertex), so it qualifies iff r >= need(L) =
    beta.ceil_singleton_bound(L).  A length is skipped when fewer than
    need(L) pairs have gap <= L-1; otherwise one integer difference-array
    pass counts r for every window.  When none qualifies, every longer
    window holds at least x = L - max(r) distinct vertices, so the search
    jumps to beta.ceil_threshold(x).  O(ell log ell + passes*(ell + pairs)).
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
    length = 1
    while length <= ell:
        need = beta.ceil_singleton_bound(length)
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
        length = beta.ceil_threshold(length - int(repeats.max()))
    raise BlockNotFoundError(
        f"no block of the {ell}-step sequence satisfies len >= (1+{beta})*s")


def two_critical_block(moves: Sequence[Move]) -> BlockView:
    """2-critical block: threshold 3 = 1 + beta with beta = 2."""
    return find_critical_block(moves, Beta.of(2))


# --- surplus and cyclic-heavy blocks ----------------------------------------

def surplus(moves: Sequence[Move]) -> int:
    """z(L) = len(L) - sum of acyclic move counts - number of cyclic vertices."""
    cyc, acyc = classify_cyclic(moves)
    stats = occurrence_stats(moves)
    return len(moves) - sum(stats.counts[v] for v in acyc) - len(cyc)


def cyclic_ratio_qualifies(c: int, length: int, k: int, alpha: Fraction, n: int) -> bool:
    """c/length >= (alpha-k+1) / ((2k-1) * alpha * lg(alpha*n)), exactly.

    With a/b = (alpha-k+1) * length / ((2k-1) * alpha * c) in lowest
    terms, that is lg(alpha*n) >= a/b, decided as the integer comparison
    (alpha*n)^b >= 2^a.
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
    a, b = exponent.numerator, exponent.denominator
    return an.numerator ** b >= (2 ** a) * (an.denominator ** b)


def find_alpha_cyclic_block(moves: Sequence[Move], k: int, alpha, n: int) -> BlockView:
    """First block whose cyclic-vertex share meets the alpha-cyclic bound.

    Scans starts ascending, then ends ascending; per start, one walk over
    the suffix counts the vertices turning cyclic at each step.  Existence
    is guaranteed for sequences of length alpha*n with at most n moving
    vertices.
    """
    alpha = Fraction(alpha)
    ell = len(moves)
    parent = tuple(moves)
    for start in range(ell):
        turned = Counter(_cyclic_steps(parent[start:]).values())
        cyclic = 0
        for length in range(1, ell - start + 1):
            cyclic += turned[length - 1]
            if cyclic_ratio_qualifies(cyclic, length, k, alpha, n):
                return BlockView(parent=parent, t1=start + 1, t2=start + length)
    raise BlockNotFoundError("no alpha-cyclic block found")
