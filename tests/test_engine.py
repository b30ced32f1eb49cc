"""FLIP engine: termination, pivot rules, replay, trace files."""

import random
from fractions import Fraction

import pytest

import flipbench as fb

from conftest import random_tau0, run_random, smoothed_instance


def test_run_reaches_local_optimum():
    for seed in range(8):
        trace = run_random(10, 3, seed)
        assert not trace.step_cap_hit
        assert all(d > 0 for d in trace.delta_nums)
        final = trace.final_configuration()
        assert fb.improving_moves(trace.instance, final) == []
        fb.verify_trace(trace)


def test_total_improvement_matches_hamiltonian_gap():
    trace = run_random(12, 2, 3)
    gap = fb.hamiltonian(trace.instance, trace.final_configuration()) \
        - fb.hamiltonian(trace.instance, trace.tau0)
    assert Fraction(sum(trace.delta_nums), trace.instance.denom) == gap


def test_rules_agree_on_final_optimality():
    inst = smoothed_instance(10, 2, 5)
    tau0 = random_tau0(10, 2, 5)
    for variant in ("first", "best", "random"):
        trace = fb.run_flip(inst, tau0, fb.PivotRule(variant=variant, seed=1))
        assert fb.improving_moves(inst, trace.final_configuration()) == []


def _configurations(trace):
    """tau_0, tau_1, ..., tau_ell, walked one move at a time."""
    tau = list(trace.tau0)
    out = [tuple(tau)]
    for move in trace.moves:
        tau[move.v] = move.q
        out.append(tuple(tau))
    return out


def test_best_rule_picks_largest_delta():
    inst = smoothed_instance(9, 3, 2)
    tau0 = random_tau0(9, 3, 2)
    trace = fb.run_flip(inst, tau0, fb.PivotRule(variant="best"))
    for tau, (move, dnum) in zip(_configurations(trace), trace.steps):
        best = max(d for _, d in fb.improving_moves(inst, tau))
        assert Fraction(dnum, inst.denom) == best


def test_first_rule_picks_first_improving():
    inst = smoothed_instance(9, 3, 4)
    tau0 = random_tau0(9, 3, 4)
    trace = fb.run_flip(inst, tau0, fb.PivotRule(variant="first"))
    for tau, (move, _) in zip(_configurations(trace), trace.steps):
        first = fb.improving_moves(inst, tau)[0][0]
        assert move == first


def test_random_rule_is_seeded():
    inst = smoothed_instance(10, 2, 6)
    tau0 = random_tau0(10, 2, 6)
    t1 = fb.run_flip(inst, tau0, fb.PivotRule(variant="random", seed=9))
    t2 = fb.run_flip(inst, tau0, fb.PivotRule(variant="random", seed=9))
    assert t1.moves == t2.moves


def test_cap():
    inst = smoothed_instance(12, 2, 7)
    tau0 = random_tau0(12, 2, 7)
    full = fb.run_flip(inst, tau0)
    assert len(full) > 2
    capped = fb.run_flip(inst, tau0, cap=2)
    assert len(capped) == 2 and capped.step_cap_hit
    exact = fb.run_flip(inst, tau0, cap=len(full))
    assert not exact.step_cap_hit


def test_replay_matches_run():
    traces = [run_random(10, k, 8, rule=rule)
              for k, rule in ((3, "first"), (2, "random"), (4, "best"))]
    # denom 2**70 puts the weights, and so the kernel, on Python ints
    wide = fb.make_instance("complete", 10, 3, fb.SmoothingProfile(phi=1, seed=8),
                            denom=2 ** 70)
    assert wide.weight_matrix().dtype == object
    traces.append(fb.run_flip(wide, random_tau0(10, 3, 8)))
    for trace in traces:
        assert len(trace) > 0
        back = fb.replay(trace.instance, trace.tau0, trace.moves)
        assert back.steps == trace.steps
        _assert_python_ints(back)


def test_replay_invalid_move():
    inst = smoothed_instance(5, 2, 0)
    tau0 = (1, 1, 1, 1, 1)
    bad = [fb.Move(0, 1, 2), fb.Move(0, 1, 2)]  # second has stale from-part
    with pytest.raises(fb.ReplayError) as ei:
        fb.replay(inst, tau0, bad)
    assert ei.value.step == 2


def test_replay_error_names_the_reason():
    inst = smoothed_instance(5, 3, 0)
    tau0 = (1, 2, 3, 1, 2)
    for move, reason in ((fb.Move(0, 1, 7), "parts outside 1..3"),
                         (fb.Move(0, 1, 1), "from-part equals to-part"),
                         (fb.Move(0, 2, 3), "vertex 0 is in part 1, not 2"),
                         (fb.Move(5, 1, 2), "vertex out of range")):
        with pytest.raises(fb.ReplayError) as ei:
            fb.replay(inst, tau0, [fb.Move(1, 2, 3), move])
        assert ei.value.step == 2 and ei.value.move == move
        assert str(ei.value) == f"invalid at step 2: move {move} ({reason})"


def test_supplied_sequences_never_build_the_flip_state(monkeypatch):
    # replay, verify_trace, trace files and slices go through validate_move
    # and the step-sign kernel; only run_flip drives engine._State
    built = []

    class Counting(fb.engine._State):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(fb.engine, "_State", Counting)
    trace = run_random(12, 3, 9)
    assert built and len(trace) >= 4
    built.clear()
    fb.replay(trace.instance, trace.tau0, trace.moves)
    fb.verify_trace(trace)
    fb.trace_from_text(trace.instance, fb.trace_to_text(trace))
    fb.slice_trace(trace, 2, 4)
    assert built == []


def test_slice_trace():
    trace = run_random(12, 3, 9)
    assert len(trace) >= 4
    sub = fb.slice_trace(trace, 2, 4)
    assert sub.moves == trace.moves[1:4]
    assert sub.delta_nums == trace.delta_nums[1:4]
    assert sub.tau0 == trace.configuration_at(1)
    with pytest.raises(fb.ModelError):
        fb.slice_trace(trace, 0, 2)
    with pytest.raises(fb.ModelError):
        fb.slice_trace(trace, 3, len(trace) + 1)


def test_trace_text_roundtrip():
    trace = run_random(9, 3, 11)
    text = fb.trace_to_text(trace)
    assert f"# instance {trace.instance.content_hash()}" in text
    back = fb.trace_from_text(trace.instance, text)
    assert back.moves == trace.moves
    assert back.delta_nums == trace.delta_nums
    assert back.tau0 == trace.tau0
    with pytest.raises(fb.ModelError):
        fb.trace_from_text(trace.instance, "1 0 1 2 5\n")  # no tau0 header


def test_configurations_walk():
    trace = run_random(8, 2, 12)
    confs = _configurations(trace)
    assert len(confs) == len(trace) + 1
    assert confs[0] == trace.tau0
    assert confs[-1] == trace.final_configuration()
    for t in range(len(trace) + 1):
        assert trace.configuration_at(t) == confs[t]


def reference_flip(inst, tau0, rule, cap):
    """FLIP straight from the model's improving-move list: the ordered
    candidates give first, the first maximum gives best, and random draws
    from the rule's seeded stream."""
    rng = random.Random(f"flip:{rule.seed}")
    tau, steps = tuple(tau0), []
    while True:
        cands = fb.improving_moves(inst, tau)
        if len(steps) >= cap or not cands:
            return steps, bool(cands)
        if rule.variant == "first":
            move, delta = cands[0]
        elif rule.variant == "best":
            move, delta = max(cands, key=lambda c: c[1])
        else:
            move, delta = cands[rng.randrange(len(cands))]
        steps.append((move, int(delta * inst.denom)))
        tau = fb.apply_move(tau, move)


def _assert_python_ints(trace):
    for move, dnum in trace.steps:
        assert all(type(x) is int for x in (*move, dnum))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["complete", "gnp"])
def test_run_flip_equals_reference_flip(kind, k):
    cap_hits = 0
    for seed in range(2):
        inst = smoothed_instance(13, k, 40 + seed, kind=kind, p=0.6)
        # from all-in-one-part, every move of a vertex ties across the empty parts
        tau0 = random_tau0(13, k, (kind, k)) if seed else (1,) * 13
        for variant in ("first", "best", "random"):
            rule = fb.PivotRule(variant=variant, seed=seed)
            for cap in (fb.engine.DEFAULT_CAP, 3):
                trace = fb.run_flip(inst, tau0, rule, cap=cap)
                steps, hit = reference_flip(inst, tau0, rule, cap)
                assert list(trace.steps) == steps
                assert trace.step_cap_hit == hit
                _assert_python_ints(trace)
                cap_hits += hit
    assert cap_hits


def test_run_flip_exact_beyond_int64():
    # n * denom >= 2**62 puts the state on Python ints instead of int64
    profile = fb.SmoothingProfile(phi=Fraction(1), seed=5)
    inst = fb.make_instance("complete", 12, 3, profile, denom=2 ** 70)
    assert inst.weight_matrix().dtype == object
    tau0 = random_tau0(12, 3, 5)
    for variant in ("first", "best", "random"):
        rule = fb.PivotRule(variant=variant, seed=2)
        trace = fb.run_flip(inst, tau0, rule)
        assert list(trace.steps) == reference_flip(inst, tau0, rule, fb.engine.DEFAULT_CAP)[0]
        assert max(trace.delta_nums) >= 2 ** 63
        _assert_python_ints(trace)
        fb.verify_trace(trace)


def test_trace_text_roundtrips_rule_seed_and_cap():
    inst = smoothed_instance(12, 2, 7)
    capped = fb.run_flip(inst, random_tau0(12, 2, 7),
                         fb.PivotRule(variant="random", seed=5), cap=2)
    assert capped.step_cap_hit
    text = fb.trace_to_text(capped)
    back = fb.trace_from_text(inst, text)
    assert (back.step_cap_hit, back.rule, back.seed) == (True, "random", 5)
    assert back.steps == capped.steps and fb.trace_to_text(back) == text
    # a file without the optional headers reads as an uncapped replay
    bare = "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith(("# rule ", "# cap_hit ")))
    back = fb.trace_from_text(inst, bare)
    assert (back.step_cap_hit, back.rule, back.seed) == (False, "replay", 0)


@pytest.mark.parametrize("header, message", [
    ("# rule random seed 5", "repeats its rule header"),
    ("# cap_hit 1", "repeats its cap_hit header"),
    ("# rule random seed", "malformed rule header"),
    ("# rule random seed five", "malformed rule header"),
    ("# rule sideways seed 5", "malformed rule header"),
    ("# rule random sed 5", "malformed rule header"),
    ("# cap_hit yes", "malformed cap_hit header"),
])
def test_trace_text_rejects_bad_rule_and_cap_headers(header, message):
    trace = run_random(12, 2, 19)
    with pytest.raises(fb.ModelError, match=message):
        fb.trace_from_text(trace.instance, header + "\n" + fb.trace_to_text(trace))


def test_trace_text_rejects_other_instance():
    trace = run_random(12, 2, 13)
    other = smoothed_instance(12, 2, 14)
    with pytest.raises(fb.ModelError, match="instance"):
        fb.trace_from_text(other, fb.trace_to_text(trace))


def test_trace_text_requires_one_instance_header():
    trace = run_random(12, 2, 16)
    text = fb.trace_to_text(trace)
    header = text.splitlines()[0]
    assert header.startswith("# instance ")
    with pytest.raises(fb.ModelError, match="missing instance header"):
        fb.trace_from_text(trace.instance, text.replace(header + "\n", ""))
    with pytest.raises(fb.ModelError, match="repeats its instance header"):
        fb.trace_from_text(trace.instance, header + "\n" + text)
    assert fb.trace_from_text(trace.instance, text).steps == trace.steps


def test_trace_text_requires_one_tau0_header():
    trace = run_random(12, 2, 17)
    text = fb.trace_to_text(trace)
    other = "# tau0 " + " ".join("1" for _ in trace.tau0) + "\n"
    for bad in (text + other, other + text):
        with pytest.raises(fb.ModelError, match="repeats its tau0 header"):
            fb.trace_from_text(trace.instance, bad)


def test_trace_text_records_are_numbered_in_order():
    trace = run_random(12, 2, 18)
    assert len(trace) >= 3
    lines = fb.trace_to_text(trace).splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    records = [ln.split() for ln in lines if not ln.startswith("#")]
    for numbers in (["7"] * len(records),
                    [str(t) for t in range(2, len(records) + 2)],
                    ["2", "1"] + [str(t) for t in range(3, len(records) + 1)]):
        renumbered = [" ".join([t] + rec[1:]) for t, rec in zip(numbers, records)]
        with pytest.raises(fb.ModelError, match="numbered"):
            fb.trace_from_text(trace.instance, "\n".join(head + renumbered) + "\n")
    assert fb.trace_from_text(trace.instance, "\n".join(lines) + "\n").steps == trace.steps


def test_trace_text_rejects_edited_delta():
    trace = run_random(12, 2, 15)
    lines = fb.trace_to_text(trace).splitlines()
    tok = lines[-1].split()
    lines[-1] = " ".join(tok[:4] + ["999999"])
    with pytest.raises(fb.ModelError, match=f"delta mismatch at step {len(trace)}: "
                                            f"recorded 999999, replay gives {trace.delta_nums[-1]}$"):
        fb.trace_from_text(trace.instance, "\n".join(lines) + "\n")
    for bad in (" ".join(tok[:4] + ["x"]), " ".join(tok[:4])):
        lines[-1] = bad
        with pytest.raises(fb.ModelError, match="malformed"):
            fb.trace_from_text(trace.instance, "\n".join(lines) + "\n")
    text = fb.trace_to_text(trace).replace("# tau0 ", "# tau0 x ")
    with pytest.raises(fb.ModelError, match="non-integer"):
        fb.trace_from_text(trace.instance, text)


def test_verify_trace_names_the_bad_step():
    trace = run_random(10, 3, 21)
    assert len(trace) >= 4
    steps = list(trace.steps)
    (v, p, q), d = steps[2]
    other = ({1, 2, 3} - {p, q}).pop()
    assert trace.configuration_at(2)[v] == p != other
    for bad in (((v, p, q), d + 1),          # tampered delta
                ((v, q, other), d),          # from a part v is not in
                ((v, p, 4), d),              # destination outside 1..k
                ((v, p, p), d)):             # p == q
        move, dnum = bad
        tampered = steps[:2] + [(fb.Move(*move), dnum)] + steps[3:]
        forged = fb.Trace(instance=trace.instance, tau0=trace.tau0, steps=tuple(tampered))
        with pytest.raises(fb.ModelError, match="step 3"):
            fb.verify_trace(forged)


def test_verify_trace_accepts_run_flip_traces():
    for k in (2, 3, 4, 5):
        for rule in ("first", "best", "random"):
            for seed in range(3):
                fb.verify_trace(run_random(14, k, 30 + seed, rule=rule))
