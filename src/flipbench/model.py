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
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_DENOM = 2 ** 20

Configuration = tuple  # tuple[int, ...], parts[v] in 1..k


class ModelError(ValueError):
    pass


class InvalidMoveError(ModelError):
    def __init__(self, move, reason):
        self.move = move
        self.reason = reason
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
    _hash: str | None = field(default=None, init=False, repr=False, compare=False)
    _weights: object = field(default=None, init=False, repr=False, compare=False)
    _edge_ids: object = field(default=None, init=False, repr=False, compare=False)
    _edge_arrays: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("need at least one vertex")
        if self.k < 2:
            raise ModelError("part count k must be at least 2")
        if self.denom <= 0 or self.denom & (self.denom - 1):
            raise ModelError("denominator must be a positive power of two")
        if len(self.edges) != len(self.weight_nums):
            raise ModelError("edge/weight length mismatch")
        try:
            u, v, nums = self.edge_arrays()
        except OverflowError:  # a token past int64: checked exactly, in Python ints
            u, v = np.array(self.edges, dtype=object).reshape(-1, 2).T
            nums = np.array(self.weight_nums, dtype=object)
        order = np.lexsort((v, u))  # stable: an edge's first copy sorts first
        dup = np.zeros(self.m, dtype=bool)
        dup[order[1:]] = (u[order[1:]] == u[order[:-1]]) & (v[order[1:]] == v[order[:-1]])
        bad = ~((0 <= u) & (u < v) & (v < self.n)) | dup
        if bad.any():  # the first offending edge, in edge order
            e = int(bad.argmax())
            a, b = self.edges[e]
            if a == b:
                raise ModelError(f"loop edge {a}")
            if dup[e]:
                raise ModelError(f"duplicate edge ({a},{b})")
            raise ModelError(f"edge ({a},{b}) out of range or unordered")
        if ((nums > self.denom) | (nums < -self.denom)).any():
            raise ModelError("weight magnitude exceeds 1")
        if self.complete and len(self.edges) != self.n * (self.n - 1) // 2:
            raise ModelError("complete flag set but edge set is not all pairs")

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int):
        """Index of edge {u,v}, or None if absent."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return None
        e = int(self.edge_ids()[u, v])
        return None if e < 0 else e

    def edge_arrays(self):
        """Read-only endpoint and weight-numerator arrays (u, v, nums) of the
        edges, built once; nums is int64 while m * denom < 2**63 keeps every
        sum of them exact, Python ints otherwise."""
        if self._edge_arrays is None:
            u, v = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp,
                               count=2 * self.m).reshape(-1, 2).T
            dtype = np.int64 if self.m * self.denom < 2 ** 63 else object
            arrays = (u, v, np.fromiter(self.weight_nums, dtype=dtype, count=self.m))
            for a in arrays:
                a.flags.writeable = False
            object.__setattr__(self, "_edge_arrays", arrays)
        return self._edge_arrays

    def edge_ids(self) -> np.ndarray:
        """Read-only symmetric n x n matrix of edge indices, -1 on non-edges
        and on the diagonal, built once."""
        if self._edge_ids is None:
            u, v, _ = self.edge_arrays()
            # int32 holds the index of any edge of an instance that fits in memory
            ids = np.full((self.n, self.n), -1, dtype=np.int32)
            ids[u, v] = ids[v, u] = np.arange(self.m)
            ids.flags.writeable = False
            object.__setattr__(self, "_edge_ids", ids)
        return self._edge_ids

    def weight_matrix(self) -> np.ndarray:
        """Read-only dense symmetric n x n weight numerators, built once: int64
        while n * denom < 2**62 keeps every sum of a row and every difference
        of two such sums exact, Python ints otherwise."""
        if self._weights is None:
            dtype = np.int64 if self.n * self.denom < 2 ** 62 else object
            w = np.zeros((self.n, self.n), dtype=dtype)
            u, v, nums = self.edge_arrays()
            w[u, v] = w[v, u] = nums
            w.flags.writeable = False
            object.__setattr__(self, "_weights", w)
        return self._weights

    def total_weight(self) -> Fraction:
        return Fraction(int(self.edge_arrays()[2].sum()), self.denom)

    # --- serialization: header `n k D phi complete`, then `u v num` lines

    def to_text(self) -> str:
        flat = np.column_stack(self.edge_arrays()).ravel().tolist()
        return (f"{self.n} {self.k} {self.denom} {self.phi} {int(self.complete)}\n"
                + ("%s %s %s\n" * self.m) % tuple(flat))

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
    return tuple(combinations(range(n), 2))


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


def random_configuration(n: int, k: int, seed) -> Configuration:
    """The seeded random start: each vertex's part uniform on 1..k, drawn
    in vertex order from a stream named by the seed."""
    rng = random.Random(f"tau0:{seed}")
    return tuple(rng.randint(1, k) for _ in range(n))


# --- objective ---------------------------------------------------------------

def cut_value(inst: Instance, tau: Sequence[int]) -> Fraction:
    """Total weight of edges whose endpoints lie in different parts."""
    check_configuration(inst, tau)
    u, v, nums = inst.edge_arrays()
    tau = np.asarray(tau)
    return Fraction(int(np.where(tau[u] != tau[v], nums, 0).sum()), inst.denom)


def hamiltonian(inst: Instance, tau: Sequence[int]) -> Fraction:
    """Potential H(tau) = cut_value(tau) - (k-1)/k * total edge weight.

    Equals -((k-1)/k) * sum_e X_e <sigma(tau(u)), sigma(tau(v))> for the
    paper's simplex corners, whose inner product is 1 for equal parts and
    -1/(k-1) otherwise; crossing edges contribute X_e/k, non-crossing ones
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


# --- step signs: the one kernel behind every delta, column and check -----

def _part_signs(taus: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """+1 where taus[i] holds moves[i]'s departed part, -1 where it holds
    the destination part, 0 elsewhere; int8."""
    signs = (taus == moves[:, 1:2]).astype(np.int8)
    signs -= taus == moves[:, 2:3]
    return signs


def step_signs(inst: Instance, taus: np.ndarray, moves: np.ndarray):
    """Signed neighbour rows of moves[i] = (v, p, q) made from taus[i].

    Returns (signs, ids): signs[i, u] is +1 towards a neighbour u of v
    sitting in the departed part p, -1 towards one in the destination
    part q and 0 elsewhere (non-neighbours and v itself included);
    ids[i, u] is the index of edge {v, u}, -1 on non-edges.  Row i is
    the move's column of the step matrix, read by edge index.
    """
    ids = inst.edge_ids().take(moves[:, 0], axis=0)
    signs = _part_signs(taus, moves)
    signs *= ids >= 0
    return signs, ids


def step_deltas(inst: Instance, taus: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """Improvement numerators of the moves: each signed row's inner product
    with the mover's weight row, int64 within weight_matrix's overflow rule
    and Python ints beyond it.  The weight row is zero off v's edges, so
    the row needs no edge mask."""
    weights = inst.weight_matrix().take(moves[:, 0], axis=0)
    return (_part_signs(taus, moves) * weights).sum(axis=1)


# a chunk of at most this many configuration cells bounds the kernel's
# temporaries to a few MB whatever the trace length
_CHUNK_CELLS = 2 ** 18


def sequence_chunks(inst: Instance, tau0: Sequence[int], moves):
    """A move sequence played from tau0, in chunks of consecutive steps.

    Yields (first step index, moves, taus) with moves a c x 3 int32 array
    and taus[i] the configuration moves[i] starts from.  Each cell of taus
    is looked up in the chunk's start configuration followed by its
    destination parts, at the index a maximum.accumulate carries down
    from the last step that moved the cell's vertex.  Moves are not
    validated.
    """
    moves = np.fromiter(chain.from_iterable(moves), dtype=np.int32,
                        count=3 * len(moves)).reshape(-1, 3)
    tau = np.array(tau0, dtype=np.int32)
    n = inst.n
    size = max(1, _CHUNK_CELLS // n)
    for lo in range(0, len(moves), size):
        chunk = moves[lo:lo + size]
        c = len(chunk)
        at = np.empty((c, n), dtype=np.int32)
        at[:] = np.arange(n)
        at[np.arange(1, c), chunk[:-1, 0]] = np.arange(n, n + c - 1)
        np.maximum.accumulate(at, axis=0, out=at)
        taus = np.concatenate((tau, chunk[:, 2])).take(at)
        yield lo, chunk, taus
        tau = taus[-1].copy()
        tau[chunk[-1, 0]] = chunk[-1, 2]


def move_delta(inst: Instance, tau: Sequence[int], m: Move) -> Fraction:
    """H(apply(tau,m)) - H(tau): the kernel's one-row case."""
    check_configuration(inst, tau)
    validate_move(inst, tau, m)
    deltas = step_deltas(inst, np.array([tau], dtype=np.intp), np.array([m], dtype=np.intp))
    return Fraction(int(deltas[0]), inst.denom)


def apply_move(tau: Configuration, m: Move) -> Configuration:
    """tau after m.  With no k at hand a destination part above k passes;
    validate_move checks that range against an instance."""
    if not 0 <= m.v < len(tau):
        raise InvalidMoveError(m, "vertex out of range")
    if m.q < 1:
        raise InvalidMoveError(m, "destination part below 1")
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
    (vertex, destination part); all n(k-1) of them are scored in one
    kernel call.
    """
    check_configuration(inst, tau)
    tau = np.array(tau, dtype=np.intp)
    v, q = np.nonzero(np.arange(1, inst.k + 1) != tau[:, None])
    moves = np.stack([v, tau[v], q + 1], axis=1)
    deltas = step_deltas(inst, np.broadcast_to(tau, (len(moves), inst.n)), moves)
    return [(Move(*map(int, m)), Fraction(int(d), inst.denom))
            for m, d in zip(moves, deltas) if d > 0]
