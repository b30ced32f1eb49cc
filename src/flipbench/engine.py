"""FLIP execution engine: pivot rules, validated traces, replay, trace files.

A run keeps its state in numpy arrays: at k = 2 one gain vector
W @ sigma (sigma = +1 in part 1, -1 in part 2), at k >= 3 a part-major
(k, n) array of every vertex's weight numerator towards each part.
run_flip has one loop per layout; a step calls no Python-level
function and allocates no array: best scores every move into a buffer
made once per run, first and random at k >= 3 only mark the improving
ones, and a move updates one row at k = 2 and two at k >= 3.  A
supplied sequence (replay, trace files, verify_trace) is checked by
model.validate_move and scored by the step-sign kernel.  All deltas are
exact Python integer numerators over the instance denominator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .model import (Instance, InvalidMoveError, ModelError, Move, Views,
                    check_configuration, hamiltonian, is_integer_type,
                    parse_configuration, sequence_chunks, step_deltas, validate_move)

DEFAULT_CAP = 10 ** 8
PIVOT_RULES = ("first", "best", "random")
# the most cells of a FLIP state, n * max(n, k): the n x n weight matrix, 2W
# at k = 2, and k x n sums and n x k scores at k >= 3, 128 MiB apiece in int64,
# besides an n x k mask; the k >= 3 weight rows are views of the matrix
MAX_STATE_CELLS = 2 ** 24


class ReplayError(ModelError):
    """A supplied move sequence is invalid from its starting configuration."""

    def __init__(self, step: int, move: Move, reason: str):
        self.step = step
        self.move = move
        super().__init__(f"invalid at step {step}: move {move} ({reason})")


@dataclass(frozen=True)
class PivotRule:
    """Which improving move a FLIP implementation picks.

    Ties under best-improving break by (vertex index, destination part)
    ascending; random-improving draws uniformly from the improving set
    with its own seeded stream.  fixed-replay is handled by replay().
    """

    variant: str = "best"  # first | best | random
    seed: int = 0

    def __post_init__(self):
        if self.variant not in PIVOT_RULES:
            raise ModelError(f"unknown pivot rule {self.variant!r}")


@dataclass(frozen=True)
class Trace(Views):
    """A validated move sequence with exact per-step improvements.

    Its views, each built on first use, so a run pays nothing: moves,
    delta_nums, final_configuration, the step matrix ("M"), the combined
    matrices (keyed by combine mode) and the certificate witness index
    read off P ("witnesses").
    """

    instance: Instance
    tau0: tuple
    steps: tuple          # ((Move, delta_num), ...) in time order
    step_cap_hit: bool = False
    rule: str = ""
    seed: int = 0

    def __len__(self):
        return len(self.steps)

    @property
    def moves(self):
        return self.derived("moves", lambda: tuple(m for m, _ in self.steps))

    @property
    def delta_nums(self):
        return self.derived("delta_nums", lambda: tuple(d for _, d in self.steps))

    def configuration_at(self, t: int) -> tuple:
        """tau_t, the configuration after step t (t=0 gives tau0), for t
        in 0..len(self); any other t is a ModelError."""
        if not 0 <= t <= len(self.steps):
            raise ModelError(f"step {t} is outside 0..{len(self.steps)}")
        tau = list(self.tau0)
        for move, _ in self.steps[:t]:
            tau[move.v] = move.q
        return tuple(tau)

    def final_configuration(self) -> tuple:
        return self.derived("final_configuration",
                            lambda: self.configuration_at(len(self.steps)))


class _State:
    """FLIP start state, run_flip's fast path and nothing else's.

    k = 2: one gain vector gain = W @ sigma, where sigma[v] is +1 in part
    1 and -1 in part 2.  A vertex's only move improves by
    sigma[v] * gain[v], so scoring a step is one product, and a move is
    one row update, gain -= 2 * sigma[v] * W[v], read from a copy of 2W.
    k >= 3: the sums are part-major, sums[p - 1, v] the weight numerator
    from v into part p, built one present part at a time, so moving v to
    q improves by sums[tau[v] - 1, v] - sums[q - 1, v].  A step takes
    every vertex's own-part sum; best then subtracts into the transposed
    view of an (n, k) score buffer, and first and random only compare
    into the same view of the positive mask, so both read flat in
    (vertex, part) order.  A move updates two contiguous rows.  The
    buffers are made once per run, so a step allocates no array.  The
    dtype is the weight matrix's: int64 within its overflow rule, Python
    ints beyond it, so no decision uses floats.  tau is a list of ints.
    """

    def __init__(self, inst: Instance, tau0):
        check_state_cells(inst.n, inst.k)
        check_configuration(inst, tau0)
        n, k = inst.n, inst.k
        self.tau = [int(p) for p in tau0]
        weights = inst.weight_matrix()
        # a 0-d operand of the state's dtype: comparing to a Python 0 costs twice as much
        self.zero = np.zeros((), dtype=weights.dtype)
        if k == 2:
            self.sigma = np.array([3 - 2 * p for p in self.tau], dtype=weights.dtype)
            self.gain = weights @ self.sigma
            # rows of 2W: a move is then one in-place pass with no temporary
            self.double = list(2 * weights)
            self.scores = np.empty(n, dtype=weights.dtype)
        else:
            tau = np.array(self.tau, dtype=np.intp)
            self.sums = np.zeros((k, n), dtype=weights.dtype)
            # the set, not np.unique, which imports numpy.ma on first use
            for p in set(self.tau):
                self.sums[p - 1] = weights[tau == p].sum(axis=0)
            # views of the read-only matrix's rows, so the instance keeps them
            self.weight_rows = inst.derived("weight_rows", lambda: list(weights))
            # flat index of sums[tau[v] - 1, v]: take() on it beats 2-d fancy indexing
            self.own = (tau - 1) * n + np.arange(n)
            self.own_sums = np.empty(n, dtype=weights.dtype)
            self.scores = np.empty(n * k, dtype=weights.dtype)
        self.positive = np.empty(len(self.scores), dtype=bool)


def check_state_cells(n: int, k: int) -> None:
    if n * max(n, k) > MAX_STATE_CELLS:
        raise ModelError(f"a FLIP state of n={n} vertices and k={k} parts has "
                         f"{n * max(n, k)} cells, past the budget of {MAX_STATE_CELLS}")


def run_flip(inst: Instance, tau0, rule: PivotRule = PivotRule(),
             cap: int = DEFAULT_CAP) -> Trace:
    """Run FLIP until local optimality or the step cap, an integer >= 0.

    Every recorded delta is strictly positive; hitting the cap marks the
    trace instead of raising.  Each layout has one loop, which reads the
    rule from two flags and calls no Python-level function per step.
    """
    if not is_integer_type(type(cap)):
        raise ModelError(f"cap must be an integer, not {cap!r}")
    if cap < 0:
        raise ModelError("cap must be non-negative")
    state = _State(inst, tau0)
    tau, zero, scores, positive = state.tau, state.zero, state.scores, state.positive
    tau0, n, k = tuple(tau), inst.n, inst.k
    first, best = rule.variant == "first", rule.variant == "best"
    randrange = None if first or best else random.Random(f"flip:{rule.seed}").randrange
    greater, multiply, subtract, add = np.greater, np.multiply, np.subtract, np.add
    steps, cap_hit = [], False
    record, new_move = steps.append, tuple.__new__
    # positive is 1-d: nonzero() is flatnonzero without its ravel, and
    # argmax takes the first maximum, the (vertex, part) tie-break
    if k == 2:
        sigma, gain, double = state.sigma, state.gain, state.double
        for _ in range(cap):
            multiply(sigma, gain, out=scores)
            if first or best:
                i = int((greater(scores, zero, out=positive) if first else scores).argmax())
            else:
                cands = greater(scores, zero, out=positive).nonzero()[0]
                if not len(cands):
                    break
                i = cands.item(randrange(len(cands)))
            delta = scores.item(i)
            if delta <= 0:
                break
            p = tau[i]
            (subtract if p == 1 else add)(gain, double[i], out=gain)
            sigma[i] = 2 * p - 3
            tau[i] = 3 - p
            record((new_move(Move, (i, p, 3 - p)), delta))
        else:
            cap_hit = bool(greater(multiply(sigma, gain, out=scores), zero, out=positive).any())
    else:
        sums, own, own_sums, weight_rows = state.sums, state.own, state.own_sums, state.weight_rows
        # lists of row views: indexing one skips numpy's view construction
        sum_rows, sum_at, take = list(sums), sums.item, sums.take
        by_part, positive_by_part = scores.reshape(n, k).T, positive.reshape(n, k).T
        for _ in range(cap):
            # own is always in range: "clip" skips the buffered bounds check of out=
            take(own, out=own_sums, mode="clip")
            if best:
                subtract(own_sums, sums, out=by_part)
                i = int(scores.argmax())
            else:
                # the mask alone: only the chosen move's delta is computed
                greater(own_sums, sums, out=positive_by_part)
                if first:
                    i = int(positive.argmax())
                else:
                    cands = positive.nonzero()[0]
                    if not len(cands):
                        break
                    i = cands.item(randrange(len(cands)))
            v, q = divmod(i, k)
            delta = scores.item(i) if best else own_sums.item(v) - sum_at(q, v)
            if delta <= 0:
                break
            p, q = tau[v], q + 1
            sum_rows[p - 1] -= weight_rows[v]
            sum_rows[q - 1] += weight_rows[v]
            own[v] = (q - 1) * n + v
            tau[v] = q
            record((new_move(Move, (v, p, q)), delta))
        else:
            take(own, out=own_sums, mode="clip")
            cap_hit = bool(greater(own_sums, sums, out=positive_by_part).any())
    return Trace(instance=inst, tau0=tau0, steps=tuple(steps),
                 step_cap_hit=cap_hit, rule=rule.variant, seed=rule.seed)


def replay(inst: Instance, tau0, moves: Iterable[Move]) -> Trace:
    """Validate and score an externally supplied move sequence.

    Every move field must be of an is_integer_type, checked before any
    move is validated, and is stored as an int.  Every move must then
    pass model.validate_move from the configuration it starts in; the
    first that fails raises ReplayError carrying its 1-based step index
    and validate_move's reason.  The steps are then scored by the
    step-sign kernel.  Replayed traces may contain non-improving steps;
    callers that need strict improvement must check deltas.
    """
    if inst.n * inst.n > MAX_STATE_CELLS:
        raise ModelError(f"n={inst.n}: n x n views pass the budget of {MAX_STATE_CELLS} cells")
    check_configuration(inst, tau0)
    moves = [Move(*move) for move in moves]
    if set(map(type, chain.from_iterable(moves))) - {int}:
        for t, move in enumerate(moves, start=1):
            for field, x in zip(Move._fields, move):
                if not is_integer_type(type(x)):
                    raise ReplayError(t, move, f"{field} is {x!r}, not an integer")
        moves = [Move(*map(int, move)) for move in moves]
    tau = list(tau0)
    for t, move in enumerate(moves, start=1):
        try:
            validate_move(inst, tau, move)
        except InvalidMoveError as exc:
            raise ReplayError(t, move, exc.reason) from None
        tau[move.v] = move.q
    deltas = []
    for _, chunk, taus in sequence_chunks(inst, tau0, moves):
        deltas.extend(step_deltas(inst, taus, chunk).tolist())
    return Trace(instance=inst, tau0=tuple(map(int, tau0)),
                 steps=tuple(zip(moves, deltas)), rule="replay")


def slice_trace(trace: Trace, t1: int, t2: int) -> Trace:
    """Sub-trace over steps t1..t2 (1-based, inclusive), re-validated from
    the configuration reached just before step t1."""
    if not 1 <= t1 <= t2 <= len(trace.steps):
        raise ModelError(f"slice [{t1},{t2}] out of range")
    tau = trace.configuration_at(t1 - 1)
    return replay(trace.instance, tau, trace.moves[t1 - 1:t2])


# --- trace files -------------------------------------------------------------

def _read_rule(value: str) -> tuple:
    rule, word, seed = value.split()
    if word != "seed" or rule not in PIVOT_RULES + ("replay", "unknown"):
        raise ValueError(value)
    return rule, int(seed)


# Each trace-file header, in written order: name -> (its value written
# from a Trace, its value read back from the text after `# <name> `).
TRACE_HEADERS = {
    "instance": (lambda trace: trace.instance.content_hash(), str),
    "rule": (lambda trace: f"{trace.rule or 'unknown'} seed {trace.seed}", _read_rule),
    "cap_hit": (lambda trace: str(int(trace.step_cap_hit)),
                {"0": False, "1": True}.__getitem__),
    "tau0": (lambda trace: " ".join(map(str, trace.tau0)), parse_configuration),
}


def trace_to_text(trace: Trace) -> str:
    lines = [f"# {name} {write(trace)}" for name, (write, _) in TRACE_HEADERS.items()]
    for t, (move, dnum) in enumerate(trace.steps, start=1):
        lines.append(f"{t} {move.v} {move.p} {move.q} {dnum}")
    return "\n".join(lines) + "\n"


def trace_from_text(inst: Instance, text: str) -> Trace:
    """Read a trace file against its instance.

    Each TRACE_HEADERS line `# <name> <value>` may appear at most once,
    and a value its reader rejects is a ModelError; `# instance` must name
    inst's content hash, and `# tau0` gives the start configuration.
    Both are required; a file without `# rule` and `# cap_hit` reads as
    an uncapped replay with seed 0.  Any other `#` line is a comment.
    Records are numbered 1..L in order, and the recorded steps must pass
    verify_trace; otherwise ModelError.
    """
    header = {}
    steps = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            name, space, value = ln.removeprefix("# ").partition(" ")
            if not space or name not in TRACE_HEADERS:
                continue
            if name in header:
                raise ModelError(f"trace file repeats its {name} header")
            try:
                header[name] = TRACE_HEADERS[name][1](value)
            except ModelError:
                raise
            except (ValueError, KeyError):
                raise ModelError(f"malformed {name} header: {ln!r}") from None
            if name == "instance" and value != inst.content_hash():
                raise ModelError(f"{ln!r} does not name instance {inst.content_hash()}")
            continue
        try:
            t, v, p, q, dnum = map(int, ln.split())
        except ValueError:
            raise ModelError(f"malformed trace record: {ln!r}") from None
        if t != len(steps) + 1:
            raise ModelError(f"trace record {ln!r} is numbered {t}, expected {len(steps) + 1}")
        steps.append((Move(v, p, q), dnum))
    header = {"rule": ("replay", 0), "cap_hit": False, **header}
    for name in TRACE_HEADERS:
        if name not in header:
            raise ModelError(f"trace file missing {name} header")
    variant, seed = header["rule"]
    trace = Trace(instance=inst, tau0=header["tau0"], steps=tuple(steps),
                  step_cap_hit=header["cap_hit"], rule=variant, seed=seed)
    verify_trace(trace)
    return trace


def verify_trace(trace: Trace) -> None:
    """Re-check a trace by replaying its moves.

    replay validates every move and scores it with the step-sign kernel,
    never with run_flip's state; every recorded delta must equal the
    replayed one, and H(final) - H(tau0) must equal the sum of the deltas
    over the denominator: O(steps * n + m).  A bad move or delta raises
    ModelError naming its step.
    """
    inst = trace.instance
    replayed = replay(inst, trace.tau0, trace.moves)
    for t, (want, got) in enumerate(zip(trace.delta_nums, replayed.delta_nums), start=1):
        if want != got:
            raise ModelError(f"delta mismatch at step {t}: recorded {want}, replay gives {got}")
    gap = hamiltonian(inst, trace.final_configuration()) - hamiltonian(inst, trace.tau0)
    if gap != Fraction(sum(trace.delta_nums), inst.denom):
        raise ModelError(f"H(final) - H(tau0) = {gap} is not the sum of the deltas")
