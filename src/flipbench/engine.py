"""FLIP execution engine: pivot rules, validated traces, replay, trace files.

A run keeps its scores in numpy arrays: at k = 2 one gain vector
W @ sigma (sigma = +1 in part 1, -1 in part 2), at k >= 3 an (n, k)
array of every vertex's weight numerator towards each part.  Scoring
all moves of a step is one vectorised pass, and a move is one row
update at k = 2 and two column updates at k >= 3.  A supplied move
sequence (replay, trace files, verify_trace) is instead checked by
model.validate_move and scored by the model's step-sign kernel.  All
deltas are recorded as exact Python integer numerators over the
instance denominator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .model import (Instance, InvalidMoveError, ModelError, Move, Views,
                    check_configuration, hamiltonian, parse_configuration,
                    sequence_chunks, step_deltas, validate_move)

DEFAULT_CAP = 10 ** 8
PIVOT_RULES = ("first", "best", "random")
# the most cells of a FLIP state, n * max(n, k): the n x n weight matrix, 2W
# at k = 2, and n x k sums and scores at k >= 3, 128 MiB apiece in int64
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
        """tau_t, the configuration after step t (t=0 gives tau0)."""
        tau = list(self.tau0)
        for move, _ in self.steps[:t]:
            tau[move.v] = move.q
        return tuple(tau)

    def final_configuration(self) -> tuple:
        return self.derived("final_configuration",
                            lambda: self.configuration_at(len(self.steps)))


class _State:
    """Mutable FLIP state, run_flip's fast path and nothing else's.

    k = 2: one gain vector gain = W @ sigma, where sigma[v] is +1 in part
    1 and -1 in part 2.  A vertex's only move improves by
    sigma[v] * gain[v], so scoring a step is one product, and a move is
    one row update, gain -= 2 * sigma[v] * W[v], read from a copy of 2W.
    k >= 3: sums[v, p - 1] is the weight numerator from v into part p,
    so moving v to q improves by sums[v, tau[v] - 1] - sums[v, q - 1].
    The (n, k) deltas read flat in (vertex, part) order with no copy, and
    a move updates two columns.
    The dtype is the weight matrix's: int64 within its overflow rule,
    Python ints beyond it, so no decision uses floats.
    """

    def __init__(self, inst: Instance, tau0):
        check_state_cells(inst.n, inst.k)
        check_configuration(inst, tau0)
        self.k = inst.k
        weights = inst.weight_matrix()
        tau = np.array(tau0, dtype=np.intp)
        if self.k == 2:
            self.sigma = np.where(tau == 1, 1, -1).astype(weights.dtype)
            self.gain = weights @ self.sigma
            # rows of 2W: a move is then one in-place pass with no temporary
            self.double = 2 * weights
        else:
            self.weights = weights
            self.tau = tau
            parts = tau[:, None] == np.arange(1, self.k + 1)
            self.sums = weights @ parts.astype(np.int64)
            # flat index of sums[v, tau[v] - 1]: take() on it beats 2-d fancy indexing
            self.own = np.arange(inst.n) * self.k + tau - 1

    def deltas(self):
        """Improvement numerator of every candidate move, indexed as
        move_at reads it: one move per vertex at k = 2, and (vertex, part)
        order at k >= 3, where a vertex's own part scores 0."""
        if self.k == 2:
            return self.sigma * self.gain
        return (self.sums.ravel().take(self.own)[:, None] - self.sums).ravel()

    def move_at(self, i) -> Move:
        if self.k == 2:
            p = 1 if self.sigma[i] > 0 else 2
            return Move(int(i), p, 3 - p)
        v, q = divmod(int(i), self.k)
        return Move(v, int(self.tau[v]), q + 1)

    def apply(self, move: Move) -> None:
        if self.k == 2:
            if move.p == 1:
                self.gain -= self.double[move.v]
                self.sigma[move.v] = -1
            else:
                self.gain += self.double[move.v]
                self.sigma[move.v] = 1
        else:
            row = self.weights[move.v]
            self.sums[:, move.p - 1] -= row
            self.sums[:, move.q - 1] += row
            self.tau[move.v] = move.q
            self.own[move.v] += move.q - move.p


def check_state_cells(n: int, k: int) -> None:
    if n * max(n, k) > MAX_STATE_CELLS:
        raise ModelError(f"a FLIP state of n={n} vertices and k={k} parts has "
                         f"{n * max(n, k)} cells, past the budget of {MAX_STATE_CELLS}")


def run_flip(inst: Instance, tau0, rule: PivotRule = PivotRule(),
             cap: int = DEFAULT_CAP) -> Trace:
    """Run FLIP until local optimality or the step cap.

    Every recorded delta is strictly positive; hitting the cap marks the
    trace instead of raising.
    """
    if cap < 0:
        raise ModelError("cap must be non-negative")
    state = _State(inst, tau0)
    rng = random.Random(f"flip:{rule.seed}") if rule.variant == "random" else None
    steps = []
    cap_hit = False
    while True:
        d = state.deltas()
        if len(steps) >= cap:
            cap_hit = bool((d > 0).any())
            break
        if rule.variant == "random":
            # d is 1-d: nonzero() is flatnonzero without its ravel
            cands = (d > 0).nonzero()[0]
            if not len(cands):
                break
            i = cands[rng.randrange(len(cands))]
        else:
            # argmax takes the first maximum: the (vertex, part) tie-break
            i = (d > 0 if rule.variant == "first" else d).argmax()
            if d[i] <= 0:
                break
        move = state.move_at(i)
        steps.append((move, int(d[i])))
        state.apply(move)
    return Trace(instance=inst, tau0=tuple(tau0), steps=tuple(steps),
                 step_cap_hit=cap_hit, rule=rule.variant, seed=rule.seed)


def replay(inst: Instance, tau0, moves: Iterable[Move]) -> Trace:
    """Validate and score an externally supplied move sequence.

    Every move must pass model.validate_move from the configuration it
    starts in; the first that fails raises ReplayError carrying its
    1-based step index and validate_move's reason.  The steps are then
    scored by the step-sign kernel.  Replayed traces may contain
    non-improving steps; callers that need strict improvement must check
    deltas.
    """
    if inst.n * inst.n > MAX_STATE_CELLS:
        raise ModelError(f"n={inst.n}: n x n views pass the budget of {MAX_STATE_CELLS} cells")
    check_configuration(inst, tau0)
    moves = [Move(*move) for move in moves]
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
    return Trace(instance=inst, tau0=tuple(tau0), steps=tuple(zip(moves, deltas)),
                 rule="replay")


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
