"""FLIP execution engine: pivot rules, validated traces, replay, trace files.

A run keeps, for every vertex, the total weight numerator towards each
part in a numpy array, so scoring all n*k moves is one vectorised pass
and a move is two row updates.  A supplied move sequence (replay, trace
files, verify_trace) is instead checked by model.validate_move and
scored by the model's step-sign kernel.  All deltas are recorded as
exact Python integer numerators over the instance denominator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .model import (Instance, InvalidMoveError, ModelError, Move,
                    check_configuration, hamiltonian, parse_configuration,
                    sequence_chunks, step_deltas, validate_move)

DEFAULT_CAP = 10 ** 8
PIVOT_RULES = ("first", "best", "random")


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
class Trace:
    """A validated move sequence with exact per-step improvements.

    _matrices holds the trace's step matrix and combined matrices once
    matrices.build_M / build_P have built them, keyed by "M" or the
    combine mode; it is created on first use, so a run pays nothing.
    """

    instance: Instance
    tau0: tuple
    steps: tuple          # ((Move, delta_num), ...) in time order
    step_cap_hit: bool = False
    rule: str = ""
    seed: int = 0
    _matrices: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.steps)

    @property
    def moves(self):
        return tuple(m for m, _ in self.steps)

    @property
    def delta_nums(self):
        return tuple(d for _, d in self.steps)

    def configuration_at(self, t: int) -> tuple:
        """tau_t, the configuration after step t (t=0 gives tau0)."""
        tau = list(self.tau0)
        for move, _ in self.steps[:t]:
            tau[move.v] = move.q
        return tuple(tau)

    def final_configuration(self) -> tuple:
        return self.configuration_at(len(self.steps))


class _State:
    """Mutable FLIP state, run_flip's fast path: configuration plus every
    vertex's pull to each part.

    sums[p, v] is the weight numerator from v to the vertices in part p
    (row 0 unused), so moving v to q improves by sums[tau[v], v] - sums[q, v]
    and a move updates two rows.  The dtype is the weight matrix's: int64
    within its overflow rule, Python ints beyond it, so no decision uses
    floats.
    """

    def __init__(self, inst: Instance, tau0):
        check_configuration(inst, tau0)
        self.n = inst.n
        self.weights = inst.weight_matrix()
        self.tau = np.array(tau0, dtype=np.intp)
        parts = np.arange(inst.k + 1)[:, None] == self.tau
        self.sums = parts.astype(np.int64) @ self.weights
        # flat index of sums[tau[v], v]: take() on it beats 2-d fancy indexing
        self.own = self.tau * self.n + np.arange(self.n)

    def deltas(self):
        """Improvement numerator of every move, flat in (vertex, part) order;
        a vertex's own part scores 0."""
        depart = self.sums.ravel().take(self.own)
        return (depart - self.sums[1:]).T.ravel()

    def apply(self, move: Move) -> None:
        row = self.weights[move.v]
        self.sums[move.p] -= row
        self.sums[move.q] += row
        self.tau[move.v] = move.q
        self.own[move.v] += (move.q - move.p) * self.n


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
            cands = np.flatnonzero(d > 0)
            if not len(cands):
                break
            i = cands[rng.randrange(len(cands))]
        else:
            # argmax takes the first maximum: the (vertex, part) tie-break
            i = (d > 0 if rule.variant == "first" else d).argmax()
            if d[i] <= 0:
                break
        v, q = divmod(int(i), inst.k)
        move = Move(v, int(state.tau[v]), q + 1)
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

def trace_to_text(trace: Trace) -> str:
    lines = [
        f"# instance {trace.instance.content_hash()}",
        f"# rule {trace.rule or 'unknown'} seed {trace.seed}",
        f"# cap_hit {int(trace.step_cap_hit)}",
        "# tau0 " + " ".join(str(p) for p in trace.tau0),
    ]
    for t, (move, dnum) in enumerate(trace.steps, start=1):
        lines.append(f"{t} {move.v} {move.p} {move.q} {dnum}")
    return "\n".join(lines) + "\n"


def trace_from_text(inst: Instance, text: str) -> Trace:
    """Read a trace file against its instance.

    Exactly one `# instance` header must name inst's content hash, exactly
    one `# tau0` header gives the start configuration, records are
    numbered 1..L in order, and the recorded steps must pass verify_trace;
    otherwise ModelError.  The optional `# rule <r> seed <s>` and
    `# cap_hit <0|1>` headers that trace_to_text writes are read back
    (a file without them reads as an uncapped replay with seed 0); a
    malformed or repeated one is a ModelError.
    """
    tau0 = None
    named = False
    rule = cap_hit = None
    steps = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            if ln.startswith("# rule "):
                if rule is not None:
                    raise ModelError("trace file repeats its rule header")
                rule = _parse_rule_header(ln)
            elif ln.startswith("# cap_hit "):
                if cap_hit is not None:
                    raise ModelError("trace file repeats its cap_hit header")
                if ln not in ("# cap_hit 0", "# cap_hit 1"):
                    raise ModelError(f"malformed cap_hit header: {ln!r}")
                cap_hit = ln.endswith("1")
            elif ln.startswith("# tau0 "):
                if tau0 is not None:
                    raise ModelError("trace file repeats its tau0 header")
                tau0 = parse_configuration(ln[len("# tau0 "):])
            elif ln.startswith("# instance "):
                if named:
                    raise ModelError("trace file repeats its instance header")
                if ln.removeprefix("# instance ") != inst.content_hash():
                    raise ModelError(f"{ln!r} does not name instance {inst.content_hash()}")
                named = True
            continue
        try:
            t, v, p, q, dnum = map(int, ln.split())
        except ValueError:
            raise ModelError(f"malformed trace record: {ln!r}") from None
        if t != len(steps) + 1:
            raise ModelError(f"trace record {ln!r} is numbered {t}, expected {len(steps) + 1}")
        steps.append((Move(v, p, q), dnum))
    if not named:
        raise ModelError("trace file missing instance header")
    if tau0 is None:
        raise ModelError("trace file missing tau0 header")
    variant, seed = rule or ("replay", 0)
    trace = Trace(instance=inst, tau0=tau0, steps=tuple(steps),
                  step_cap_hit=bool(cap_hit), rule=variant, seed=seed)
    verify_trace(trace)
    return trace


def _parse_rule_header(ln: str) -> tuple:
    """(rule, seed) from `# rule <r> seed <s>`, as trace_to_text writes it."""
    words = ln.split()
    if (len(words) != 5 or words[3] != "seed"
            or words[2] not in PIVOT_RULES + ("replay", "unknown")):
        raise ModelError(f"malformed rule header: {ln!r}")
    try:
        return words[2], int(words[4])
    except ValueError:
        raise ModelError(f"malformed rule header: {ln!r}") from None


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
