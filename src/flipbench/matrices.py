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
from fractions import Fraction
from itertools import chain

import numpy as np

from .analysis import CycleSet, TruncatedCycleSetError, cycles, pairs
from .engine import Trace
from .model import ModelError, Views, sequence_chunks, step_signs


@dataclass(frozen=True, eq=False)
class SignMatrix(Views):
    """Sparse integer matrix in compressed-column form.

    Column j has the entries vals[ptr[j]:ptr[j+1]] on the rows
    rows[ptr[j]:ptr[j+1]], with strictly increasing row indices and
    nonzero integer entries.  col_labels carries the object a column came
    from (a time-step, a Pair, or a Cycle).  Built matrices have
    read-only arrays, since a trace shares its matrices with every caller;
    cols is a view, built once.
    """

    n_rows: int
    ptr: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    col_labels: tuple = ()

    @property
    def n_cols(self) -> int:
        return len(self.ptr) - 1

    @property
    def cols(self) -> tuple:
        """Column j as a tuple of (row index, entry) pairs of Python ints."""
        def build():
            pairs = list(zip(self.rows.tolist(), self.vals.tolist()))
            ptr = self.ptr.tolist()
            return tuple(tuple(pairs[a:b]) for a, b in zip(ptr, ptr[1:]))
        return self.derived("cols", build)

    def row_support(self):
        """Row indices with at least one nonzero entry."""
        return set(self.rows.tolist())


def _from_cells(n_rows: int, n_cols: int, cols, rows, vals, labels) -> SignMatrix:
    """The matrix summing the entries given per (column, row) cell: a
    stable sort of column * n_rows + row keys unless they come strictly
    increasing, a segmented sum over runs of equal keys, zero sums
    dropped."""
    stride = max(n_rows, 1)
    key = cols * stride + rows
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        ends = np.cumsum(vals)[np.append(starts[1:] - 1, len(vals) - 1)]
        key, vals = key[starts], np.diff(ends, prepend=0)
    keep = vals != 0
    key, vals = key[keep], vals[keep]
    ptr = np.searchsorted(key, np.arange(n_cols + 1) * stride)
    rows = key - np.repeat(np.arange(n_cols) * stride, np.diff(ptr))
    for a in (ptr, rows, vals):
        a.flags.writeable = False
    return SignMatrix(n_rows=n_rows, ptr=ptr, rows=rows, vals=vals, col_labels=labels)


def build_M(trace: Trace) -> SignMatrix:
    """Step matrix of a trace; <column t, X> equals the step-t improvement.

    Read off the model's step-sign kernel: column t holds the nonzero
    signs of step t's row, on the edges their ids name.  Built once per
    trace.
    """
    return trace.derived("M", lambda: _step_matrix(trace))


def _step_matrix(trace: Trace) -> SignMatrix:
    inst = trace.instance
    steps = [np.zeros(0, np.intp)]
    rows = [np.zeros(0, np.int32)]
    vals = [np.zeros(0, np.int8)]
    for lo, moves, taus in sequence_chunks(inst, trace.tau0, trace.moves):
        signs, ids = step_signs(inst, taus, moves)
        cells = np.flatnonzero(signs)
        steps.append(cells // inst.n + lo)
        rows.append(ids.take(cells))
        vals.append(signs.take(cells))
    return _from_cells(inst.m, len(trace), np.concatenate(steps), np.concatenate(rows),
                       np.concatenate(vals), tuple(range(1, len(trace) + 1)))


def _combine(m: SignMatrix, time_lists, labels) -> SignMatrix:
    """Columns summing the step columns of m over each group of 1-based
    time-steps."""
    sizes = np.fromiter(map(len, time_lists), dtype=np.intp, count=len(time_lists))
    steps = np.fromiter(chain.from_iterable(time_lists), dtype=np.intp,
                        count=int(sizes.sum())) - 1
    lo = m.ptr[steps]
    lens = m.ptr[steps + 1] - lo
    idx = np.repeat(lo - (np.cumsum(lens) - lens), lens) + np.arange(int(lens.sum()))
    groups = np.repeat(np.repeat(np.arange(len(time_lists)), sizes), lens)
    return _from_cells(m.n_rows, len(time_lists), groups, m.rows[idx], m.vals[idx], labels)


def build_P(trace: Trace, mode: str, cycle_set: CycleSet | None = None) -> SignMatrix:
    """Combined matrix: one column per pair (k=2) or per minimal cycle.

    Built once per trace and mode; an explicit cycle_set bypasses that
    memo.  Entries can reach +/-k in magnitude.  In cycle mode a
    truncated cycle set is refused, since a partial column family would
    silently weaken every rank statement made about the result.
    """
    if mode not in ("pairs", "cycles"):
        raise ModelError(f"unknown combine mode {mode!r}")
    if cycle_set is None:
        return trace.derived(mode, lambda: _build_P(trace, mode, None))
    return _build_P(trace, mode, cycle_set)


def _build_P(trace: Trace, mode: str, cycle_set: CycleSet | None) -> SignMatrix:
    if mode == "pairs":
        labels = tuple(pairs(trace.moves))
    else:
        if cycle_set is None:
            cycle_set = cycles(trace.moves, trace.instance.k)
        if cycle_set.truncated:
            raise TruncatedCycleSetError(
                "cycle enumeration was truncated; combined matrix would be partial")
        labels = cycle_set.cycles
    return _combine(build_M(trace), [lab.times for lab in labels], labels)


# --- exact rank --------------------------------------------------------------

_PRIME = 2 ** 31 - 1  # residues < 2**31, so a product of two fits in int64
# largest lifted residue taken as an integer kernel entry, floor(sqrt(2**31));
# a larger one is more likely the image of a fraction, left to the fallback
_LIFT = 46340


def exact_rank(mat) -> int:
    """Rank over the rationals: one row reduction, certified mod p, run
    over Q when the certificate cannot be completed.

    Accepts a SignMatrix or dense integer rows (a list or an array); any
    other entry, or a ragged or non-2-D input, raises ModelError.
    _rref mod p = 2**31 - 1 finds r pivots: a nonsingular r x r minor
    mod p is nonsingular over Q, so rank >= r.  Below full column rank,
    each free column's kernel vector is read off the reduced form, lifted
    to symmetric residues and checked A.K == 0 in exact integers; these
    cols - r independent kernel vectors prove rank <= r.  An entry beyond
    int64, a lifted residue beyond _LIFT, a product that could overflow
    int64 or a failed check sends the matrix through the same _rref over
    Q, on Fractions, instead.  No float decides anything.
    """
    a = _tall(mat)
    rank = _certified_rank(a) if a.dtype == np.int64 else None
    return len(_rref(a.astype(object) * Fraction(1))[1]) if rank is None else rank


def _tall(mat) -> np.ndarray:
    """The matrix without its zero rows and columns, transposed if it is
    wider than tall: int64, or dtype=object when a dense entry does not
    fit in int64."""
    if isinstance(mat, SignMatrix):
        support, at = np.unique(mat.rows, return_inverse=True)
        a = np.zeros((len(support), mat.n_cols), dtype=np.int64)
        a[at, np.repeat(np.arange(mat.n_cols), np.diff(mat.ptr))] = mat.vals
    else:
        a = np.array(mat, dtype=object)  # each entry as given, never cast
        if not a.size:
            return np.zeros((0, 0), dtype=np.int64)
        if a.ndim != 2 or not all(isinstance(x, (int, np.integer)) for x in a.flat):
            raise ModelError("exact_rank takes a matrix of integer entries")
        try:
            a = a.astype(np.int64)
        except OverflowError:
            pass  # an entry past int64 keeps the object array
        a = a[a.any(axis=1)]
    a = a[:, a.any(axis=0)]
    return a.T if a.shape[0] < a.shape[1] else a


def _certified_rank(a: np.ndarray) -> int | None:
    """Exact rank of an int64 matrix from a mod-p reduction and an integer
    kernel, or None when the certificate cannot be completed."""
    red, pivots = _rref(a % _PRIME, _PRIME)
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


def _rref(red: np.ndarray, p: int | None = None):
    """Reduced row echelon form of red, in place: (pivot rows, pivot
    columns).  Over GF(p) on int64 residues mod p, or over Q on an
    object array of Fractions when p is None."""
    reduce = (lambda x: x) if p is None else (lambda x: x % p)
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
        inv = 1 / red[row, c] if p is None else pow(int(red[row, c]), -1, p)
        red[row, c:] = reduce(red[row, c:] * inv)
        factors = red[:, c].copy()
        factors[row] = 0
        hit = np.flatnonzero(factors)
        red[hit, c:] = reduce(red[hit, c:] - factors[hit, None] * red[row, c:])
        pivots.append(c)
    return red[:len(pivots)], pivots
