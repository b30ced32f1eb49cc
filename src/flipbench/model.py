"""Exact core model: graphs with fixed-point weights, configurations, moves.

All cut/potential arithmetic is exact.  Edge weights are fixed-point
rationals num_e / D with a shared power-of-two denominator D, so every
improvement test "delta > 0" is an integer comparison and never suffers
floating-point corruption.

Vertices are 0-based integers, part labels are 1-based (1..k).  For k=2
the +/-1 encoding is part 1 -> +1, part 2 -> -1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_DENOM = 2 ** 20

Configuration = tuple  # tuple[int, ...], parts[v] in 1..k


class ModelError(ValueError):
    pass


class InvalidMoveError(ModelError):
    def __init__(self, move, reason):
        self.move = move
        super().__init__(f"invalid move {move}: {reason}")


class Move(NamedTuple):
    v: int
    p: int
    q: int


@dataclass(frozen=True)
class Instance:
    """A simple graph with exact fixed-point edge weights.

    weights are num_e / denom with |num_e| <= denom, i.e. |w_e| <= 1.
    phi bounds the density of the smoothing distribution the weights
    were drawn from; it is carried along for reporting and epsilon
    computations.  complete=True asserts the edge set is all pairs.
    """

    n: int
    k: int
    edges: tuple
    weight_nums: tuple
    denom: int = DEFAULT_DENOM
    phi: Fraction = Fraction(1)
    complete: bool = False
    _adj: dict = field(default_factory=dict, repr=False, compare=False)
    _edge_index: dict = field(default_factory=dict, repr=False, compare=False)
    _hash: str | None = field(default=None, init=False, repr=False, compare=False)
    _weights: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("need at least one vertex")
        if self.k < 2:
            raise ModelError("part count k must be at least 2")
        if self.denom <= 0 or self.denom & (self.denom - 1):
            raise ModelError("denominator must be a positive power of two")
        if len(self.edges) != len(self.weight_nums):
            raise ModelError("edge/weight length mismatch")
        seen = set()
        for (u, v) in self.edges:
            if u == v:
                raise ModelError(f"loop edge {u}")
            if not (0 <= u < v < self.n):
                raise ModelError(f"edge ({u},{v}) out of range or unordered")
            if (u, v) in seen:
                raise ModelError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        for num in self.weight_nums:
            if abs(num) > self.denom:
                raise ModelError("weight magnitude exceeds 1")
        if self.complete and len(self.edges) != self.n * (self.n - 1) // 2:
            raise ModelError("complete flag set but edge set is not all pairs")
        adj = {v: [] for v in range(self.n)}
        index = {}
        for i, (u, v) in enumerate(self.edges):
            num = self.weight_nums[i]
            adj[u].append((v, i, num))
            adj[v].append((u, i, num))
            index[(u, v)] = i
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_edge_index", index)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int):
        """(neighbor, edge index, weight numerator) triples of v."""
        return self._adj[v]

    def edge_index(self, u: int, v: int):
        """Index of edge {u,v}, or None if absent."""
        if u > v:
            u, v = v, u
        return self._edge_index.get((u, v))

    def weight_matrix(self) -> np.ndarray:
        """Read-only dense symmetric n x n weight numerators, built once: int64
        while n * denom < 2**62 keeps every sum of a row and every difference
        of two such sums exact, Python ints otherwise."""
        if self._weights is None:
            dtype = np.int64 if self.n * self.denom < 2 ** 62 else object
            w = np.zeros((self.n, self.n), dtype=dtype)
            u, v = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
            w[u, v] = w[v, u] = np.array(self.weight_nums, dtype=dtype)
            w.flags.writeable = False
            object.__setattr__(self, "_weights", w)
        return self._weights

    def total_weight(self) -> Fraction:
        return Fraction(sum(self.weight_nums), self.denom)

    # --- serialization: header `n k D phi complete`, then `u v num` lines

    def to_text(self) -> str:
        lines = [f"{self.n} {self.k} {self.denom} {self.phi} {int(self.complete)}"]
        for (u, v), num in zip(self.edges, self.weight_nums):
            lines.append(f"{u} {v} {num}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Instance":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ModelError("empty instance file")
        head = lines[0].split()
        if len(head) != 5:
            raise ModelError("malformed instance header")
        try:
            n, k, denom = int(head[0]), int(head[1]), int(head[2])
            phi = Fraction(head[3])
            complete = bool(int(head[4]))
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"non-numeric instance header {lines[0][:60]!r}") from None
        edges, nums = [], []
        for lineno, ln in enumerate(lines[1:], start=2):
            parts = ln.split()
            if len(parts) != 3:
                raise ModelError(f"malformed edge line {lineno}")
            try:
                u, v, num = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ModelError(f"non-integer token on edge line {lineno}") from None
            if u > v:
                u, v = v, u
            edges.append((u, v))
            nums.append(num)
        return cls(n=n, k=k, edges=tuple(edges), weight_nums=tuple(nums),
                   denom=denom, phi=phi, complete=complete)

    def content_hash(self) -> str:
        if self._hash is None:
            digest = hashlib.sha256(self.to_text().encode()).hexdigest()[:16]
            object.__setattr__(self, "_hash", digest)
        return self._hash


def complete_edges(n: int):
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


# --- configurations ----------------------------------------------------------

def check_configuration(inst: Instance, tau: Sequence[int]) -> None:
    if len(tau) != inst.n:
        raise ModelError(f"configuration has {len(tau)} labels, instance has {inst.n} vertices")
    for v, part in enumerate(tau):
        if not 1 <= part <= inst.k:
            raise ModelError(f"vertex {v} has part {part} outside 1..{inst.k}")


def parse_configuration(text: str) -> Configuration:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ModelError(f"non-integer part label in {text.strip()[:60]!r}") from None


# --- simplex frame -----------------------------------------------------------

@dataclass(frozen=True)
class SimplexFrame:
    """Unit vectors pointing at the corners of an equilateral simplex.

    Coordinates are kept rational (k coordinates spanning a (k-1)-dim
    subspace) together with the exact squared norm, so the Gram matrix
    of the normalized vectors is exactly 1 on the diagonal and
    -1/(k-1) off it.
    """

    k: int
    vectors: tuple       # k tuples of k Fractions each
    norm_sq: Fraction    # squared length of each raw vector

    def gram(self):
        g = []
        for i in range(self.k):
            row = []
            for j in range(self.k):
                dot = sum(a * b for a, b in zip(self.vectors[i], self.vectors[j]))
                row.append(dot / self.norm_sq)
            g.append(tuple(row))
        return tuple(g)


def simplex_vectors(k: int) -> SimplexFrame:
    """Frame sigma(1..k) with <s_i,s_i> = 1 and <s_i,s_j> = -1/(k-1)."""
    if k < 2:
        raise ModelError("simplex frame needs k >= 2")
    centroid = Fraction(1, k)
    vectors = tuple(
        tuple((Fraction(1) if j == i else Fraction(0)) - centroid for j in range(k))
        for i in range(k)
    )
    return SimplexFrame(k=k, vectors=vectors, norm_sq=Fraction(k - 1, k))


# --- objective ---------------------------------------------------------------

def cut_value(inst: Instance, tau: Sequence[int]) -> Fraction:
    """Total weight of edges whose endpoints lie in different parts."""
    check_configuration(inst, tau)
    total = 0
    for (u, v), num in zip(inst.edges, inst.weight_nums):
        if tau[u] != tau[v]:
            total += num
    return Fraction(total, inst.denom)


def hamiltonian(inst: Instance, tau: Sequence[int]) -> Fraction:
    """Potential H(tau) = cut_value(tau) - (k-1)/k * total edge weight.

    Equals -((k-1)/k) * sum_e X_e <sigma(tau(u)), sigma(tau(v))> with the
    simplex frame; crossing edges contribute X_e/k, non-crossing ones
    -(k-1)/k * X_e.  Evaluated via the crossing form, which is exact and
    cheap.
    """
    return cut_value(inst, tau) - Fraction(inst.k - 1, inst.k) * inst.total_weight()


def validate_move(inst: Instance, tau: Sequence[int], m: Move) -> None:
    if not 0 <= m.v < inst.n:
        raise InvalidMoveError(m, "vertex out of range")
    if not (1 <= m.p <= inst.k and 1 <= m.q <= inst.k):
        raise InvalidMoveError(m, f"parts outside 1..{inst.k}")
    if m.p == m.q:
        raise InvalidMoveError(m, "from-part equals to-part")
    if tau[m.v] != m.p:
        raise InvalidMoveError(m, f"vertex {m.v} is in part {tau[m.v]}, not {m.p}")


def step_column(inst: Instance, tau: Sequence[int], m: Move) -> tuple:
    """The move's signed column: sorted (edge index, +/-1) pairs.

    +1 towards neighbors in the departed part p, -1 towards neighbors in
    the destination part q; other neighbors do not change crossing status.
    """
    col = []
    for u, e, _ in inst.neighbors(m.v):
        if tau[u] == m.p:
            col.append((e, 1))
        elif tau[u] == m.q:
            col.append((e, -1))
    col.sort()
    return tuple(col)


def move_delta_num(inst: Instance, tau: Sequence[int], m: Move) -> int:
    """Numerator of H(apply(tau,m)) - H(tau) over inst.denom: the inner
    product of the move's column with the weight numerators."""
    return sum(val * inst.weight_nums[e] for e, val in step_column(inst, tau, m))


def move_delta(inst: Instance, tau: Sequence[int], m: Move) -> Fraction:
    check_configuration(inst, tau)
    validate_move(inst, tau, m)
    return Fraction(move_delta_num(inst, tau, m), inst.denom)


def apply_move(tau: Configuration, m: Move) -> Configuration:
    if tau[m.v] != m.p:
        raise InvalidMoveError(m, f"vertex {m.v} is in part {tau[m.v]}, not {m.p}")
    if m.p == m.q:
        raise InvalidMoveError(m, "from-part equals to-part")
    out = list(tau)
    out[m.v] = m.q
    return tuple(out)


def improving_moves(inst: Instance, tau: Sequence[int]):
    """All (Move, delta) with strictly positive exact delta.

    Empty result means tau is a local max-k-cut.  Moves are ordered by
    (vertex, destination part).
    """
    check_configuration(inst, tau)
    out = []
    for v in range(inst.n):
        for q in range(1, inst.k + 1):
            if q == tau[v]:
                continue
            m = Move(v, tau[v], q)
            d = move_delta_num(inst, tau, m)
            if d > 0:
                out.append((m, Fraction(d, inst.denom)))
    return out
