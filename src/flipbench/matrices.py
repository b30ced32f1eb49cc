"""Edge-by-time sign matrices, combined columns, exact rank.

The step matrix M has one row per edge and one column per time-step;
column t is supported on the edges incident to the moving vertex, with
entry +1 towards neighbors sitting in the departed part and -1 towards
neighbors sitting in the destination part, so <column t, X> is exactly
the step's improvement.  Combined matrices P merge columns along
consecutive-occurrence pairs (k=2) or minimal cycles (general k); their
rows for vertices that do not move inside the combined span vanish, and
the surviving entries do not depend on the starting configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import CycleSet, TruncatedCycleSetError, cycles, pairs
from .engine import Trace
from .model import ModelError, step_column


@dataclass(frozen=True)
class SignMatrix:
    """Sparse integer matrix stored by column.

    cols[j] is a tuple of (row index, entry) with strictly increasing row
    indices and nonzero entries.  col_labels carries the object a column
    came from (a time-step, a Pair, or a Cycle).
    """

    n_rows: int
    cols: tuple
    col_labels: tuple = ()

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    def entry(self, i: int, j: int) -> int:
        for r, val in self.cols[j]:
            if r == i:
                return val
        return 0

    def column(self, j: int):
        return self.cols[j]

    def dense(self):
        out = [[0] * self.n_cols for _ in range(self.n_rows)]
        for j, col in enumerate(self.cols):
            for r, val in col:
                out[r][j] = val
        return out

    def row_support(self):
        """Row indices with at least one nonzero entry."""
        rows = set()
        for col in self.cols:
            for r, _ in col:
                rows.add(r)
        return rows


def build_M(trace: Trace) -> SignMatrix:
    """Step matrix of a trace; <column t, X> equals the step-t improvement."""
    inst = trace.instance
    tau = list(trace.tau0)
    cols = []
    for move, _ in trace.steps:
        cols.append(step_column(inst, tau, move))
        tau[move.v] = move.q
    return SignMatrix(n_rows=inst.m, cols=tuple(cols),
                      col_labels=tuple(range(1, len(cols) + 1)))


def _combine(m_cols, time_lists):
    cols = []
    for ts in time_lists:
        acc: dict = {}
        for t in ts:
            for r, val in m_cols[t - 1]:
                acc[r] = acc.get(r, 0) + val
        cols.append(tuple(sorted((r, v) for r, v in acc.items() if v != 0)))
    return tuple(cols)


def build_P(trace: Trace, mode: str, cycle_set: CycleSet | None = None) -> SignMatrix:
    """Combined matrix: one column per pair (k=2) or per minimal cycle.

    Entries can reach +/-k in magnitude.  In cycle mode a truncated cycle
    set is refused, since a partial column family would silently weaken
    every rank statement made about the result.
    """
    m = build_M(trace)
    if mode == "pairs":
        labels = tuple(pairs(trace.moves))
        time_lists = [(p.t1, p.t2) for p in labels]
    elif mode == "cycles":
        if cycle_set is None:
            cycle_set = cycles(trace.moves, trace.instance.k)
        if cycle_set.truncated:
            raise TruncatedCycleSetError(
                "cycle enumeration was truncated; combined matrix would be partial")
        labels = cycle_set.cycles
        time_lists = [c.times for c in labels]
    else:
        raise ModelError(f"unknown combine mode {mode!r}")
    return SignMatrix(n_rows=m.n_rows, cols=_combine(m.cols, time_lists),
                      col_labels=labels)


def columns_for(trace: Trace, time_lists) -> SignMatrix:
    """Combined columns for explicit 1-based time-step groups."""
    time_lists = tuple(tuple(ts) for ts in time_lists)
    for ts in time_lists:
        for t in ts:
            if not 1 <= t <= len(trace):
                raise ModelError(f"time-step {t} outside 1..{len(trace)}")
    m = build_M(trace)
    return SignMatrix(n_rows=m.n_rows, cols=_combine(m.cols, time_lists),
                      col_labels=time_lists)


# --- exact rank --------------------------------------------------------------

_PRIME = 2 ** 31 - 1  # residues < 2**31, so a product of two fits in int64
# largest lifted residue taken as an integer kernel entry, floor(sqrt(2**31));
# a larger one is more likely the image of a fraction, left to the fallback
_LIFT = 46340


def exact_rank(mat) -> int:
    """Rank over the rationals, certified mod p with a Bareiss fallback.

    Accepts a SignMatrix or a dense list of integer rows.  Row reduction
    mod p = 2**31 - 1 finds r pivots: a nonsingular r x r minor mod p is
    nonsingular over Q, so rank >= r.  Below full column rank, each free
    column's kernel vector is read off the reduced form, lifted to
    symmetric residues and checked A.K == 0 in exact integers; these
    cols - r independent kernel vectors prove rank <= r.  An entry beyond
    int64, a lifted residue beyond _LIFT, a product that could overflow
    int64 or a failed check sends the matrix to fraction-free Bareiss
    elimination instead.  No float decides anything.
    """
    try:
        a = _nonzero_rows(mat)
    except OverflowError:
        return _bareiss_rank(mat.dense() if isinstance(mat, SignMatrix) else mat)
    rank = _certified_rank(a)
    return _bareiss_rank(a.tolist()) if rank is None else rank


def _nonzero_rows(mat) -> np.ndarray:
    """The matrix's nonzero rows as an int64 array; OverflowError if an
    entry does not fit."""
    if not isinstance(mat, SignMatrix):
        a = np.array([list(r) for r in mat], dtype=np.int64)
        return a[a.any(axis=1)] if a.ndim == 2 else np.zeros((0, 0), dtype=np.int64)
    rows, cols, vals = [], [], []
    for j, col in enumerate(mat.cols):
        for r, val in col:
            rows.append(r)
            cols.append(j)
            vals.append(val)
    support, at = np.unique(np.array(rows, dtype=np.intp), return_inverse=True)
    a = np.zeros((len(support), mat.n_cols), dtype=np.int64)
    a[at, cols] = np.array(vals, dtype=np.int64)
    return a


def _certified_rank(a: np.ndarray) -> int | None:
    """Exact rank of an int64 matrix from a mod-p reduction and an integer
    kernel, or None when the certificate cannot be completed."""
    a = a[:, a.any(axis=0)]
    if a.shape[0] < a.shape[1]:
        a = a.T
    red, pivots = _rref_mod_p(a)
    n_cols = a.shape[1]
    if len(pivots) == n_cols:
        return n_cols
    free = np.setdiff1d(np.arange(n_cols), pivots)
    lifted = -red[:, free] % _PRIME
    lifted[lifted > _PRIME // 2] -= _PRIME
    if np.abs(lifted).max(initial=0) > _LIFT:
        return None
    if max(int(a.max()), -int(a.min())) * _LIFT * n_cols >= 2 ** 63:
        return None
    kernel = np.zeros((n_cols, len(free)), dtype=np.int64)
    kernel[free, np.arange(len(free))] = 1
    kernel[pivots] = lifted
    if (a @ kernel).any():
        return None
    return len(pivots)


def _rref_mod_p(a: np.ndarray):
    """Reduced row echelon form of a mod _PRIME: (pivot rows, pivot columns)."""
    red = a % _PRIME
    n_rows, n_cols = red.shape
    pivots = []
    for c in range(n_cols):
        row = len(pivots)
        if row == n_rows:
            break
        below = np.flatnonzero(red[row:, c])
        if not len(below):
            continue
        if below[0]:
            red[[row, row + below[0]]] = red[[row + below[0], row]]
        red[row, c:] = red[row, c:] * pow(int(red[row, c]), -1, _PRIME) % _PRIME
        factors = red[:, c].copy()
        factors[row] = 0
        hit = np.flatnonzero(factors)
        red[hit, c:] = (red[hit, c:] - factors[hit, None] * red[row, c:]) % _PRIME
        pivots.append(c)
    return red[:len(pivots)], pivots


def _bareiss_rank(rows) -> int:
    """Rank by fraction-free (Bareiss) elimination on Python integers;
    works on the transpose when that is smaller, zero rows dropped first."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    n_cols = len(rows[0])
    if n_cols < len(rows):
        rows = [[rows[i][j] for i in range(len(rows))] for j in range(n_cols)]
        rows = [r for r in rows if any(r)]
        if not rows:
            return 0
        n_cols = len(rows[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            fi = rows[i][c]
            if fi == 0 and piv == prev:
                continue
            row_i = rows[i]
            row_r = rows[r]
            for j in range(c + 1, n_cols):
                row_i[j] = (row_i[j] * piv - fi * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        rank += 1
        r += 1
        if r == len(rows):
            break
    return rank


# --- improvements ------------------------------------------------------------

def weighted_column_sums(mat: SignMatrix, weight_nums) -> tuple:
    """Numerators of <column, X> for every column."""
    out = []
    for col in mat.cols:
        out.append(sum(val * weight_nums[r] for r, val in col))
    return tuple(out)
