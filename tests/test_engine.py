"""FLIP engine: termination, pivot rules, replay, trace files."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import flipbench as fb
from flipbench import engine

from conftest import improving_set, random_tau0, run_random, smoothed_instance, views


def test_run_reaches_local_optimum():
    for seed in range(8):
        trace = run_random(10, 3, seed)
        assert not trace.step_cap_hit
        assert all(d > 0 for d in trace.delta_nums)
        final = trace.final_configuration()
        assert improving_set(trace.instance, final) == []
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
        assert improving_set(inst, trace.final_configuration()) == []


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
        best = max(d for _, d in improving_set(inst, tau))
        assert Fraction(dnum, inst.denom) == best


def test_first_rule_picks_first_improving():
    inst = smoothed_instance(9, 3, 4)
    tau0 = random_tau0(9, 3, 4)
    trace = fb.run_flip(inst, tau0, fb.PivotRule(variant="first"))
    for tau, (move, _) in zip(_configurations(trace), trace.steps):
        first = improving_set(inst, tau)[0][0]
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


@pytest.mark.parametrize("cap", [2.5, True, Fraction(3, 2), float("inf"), "3", None],
                         ids=["2.5", "True", "Fraction", "inf", "str", "None"])
def test_run_flip_refuses_a_non_integer_cap(cap):
    # a float cap used to round up, True to cap at 1 and inf to run uncapped
    inst = smoothed_instance(12, 2, 7)
    tau0 = random_tau0(12, 2, 7)
    with pytest.raises(fb.ModelError, match=r"^cap must be an integer, not "):
        fb.run_flip(inst, tau0, cap=cap)
    capped = fb.run_flip(inst, tau0, cap=np.int64(3))
    assert capped.steps == fb.run_flip(inst, tau0, cap=3).steps
    assert len(capped) == 3 and capped.step_cap_hit


def test_run_flip_keeps_the_weight_rows_read_only():
    # the k >= 3 weight rows are an instance view of the read-only matrix
    inst = smoothed_instance(16, 3, 4)
    weights = inst.weight_matrix().copy()
    traces = [fb.run_flip(inst, random_tau0(16, 3, s)) for s in (1, 2)]
    assert all(len(trace) > 0 for trace in traces)
    assert "weight_rows" in views(inst)
    rows = inst.derived("weight_rows", list)
    assert len(rows) == 16 and all(row.base is inst.weight_matrix() for row in rows)
    with pytest.raises(ValueError, match="read-only"):
        rows[0] += 1
    assert (inst.weight_matrix() == weights).all()
    assert traces[1].steps == fb.run_flip(inst, random_tau0(16, 3, 2)).steps


def test_flip_runs_and_a_campaign_never_import_numpy_ma():
    # numpy.ma, which np.unique imports on first use, holds about 1 MB
    script = r"""if True:
        import sys
        import flipbench as fb
        for k in (2, 3):
            inst = fb.make_instance("complete", 24, k, fb.SmoothingProfile(phi=1, seed=k))
            for variant in fb.engine.PIVOT_RULES:
                tau0 = fb.model.random_configuration(24, k, variant)
                assert len(fb.run_flip(inst, tau0, fb.PivotRule(variant=variant))) > 0
        cfg = fb.parse_config("mode scaling\nn_grid 8,12\nk 3\ntrials 2\nseed 9\n")
        fields, rows = fb.run_experiment(cfg)
        assert len(fb.rows_to_csv(fields, rows).splitlines()) == 7
        print("numpy.ma" in sys.modules)
    """
    # the package the tests import: the checkout's src or an installed wheel
    where = str(Path(fb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (where, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_flip_state_is_bounded_before_allocation(monkeypatch):
    # the check reads n and k alone, so no case here allocates anything
    engine.check_state_cells(2 ** 12, 2 ** 12)  # exactly the budget
    with pytest.raises(fb.ModelError, match=rf"n=2 vertices and k=2147483647 parts "
                       rf"has 4294967294 cells, past the budget of {engine.MAX_STATE_CELLS}"):
        engine.check_state_cells(2, 2 ** 31 - 1)
    # run_flip checks it before building its state
    monkeypatch.setattr(engine, "MAX_STATE_CELLS", 5)
    with pytest.raises(fb.ModelError, match="n=2 vertices and k=3 parts has 6 cells"):
        fb.run_flip(smoothed_instance(2, 3, 1), (1, 1))


@pytest.mark.parametrize("label", [2.5, 2.0, True, np.float64(2.5), np.True_],
                         ids=["2.5", "2.0", "True", "np.float64", "np.True_"])
def test_run_flip_refuses_a_non_integer_start_label(label):
    # a label truncated to an integer part would leave the run's own trace
    # failing verify_trace at its first move of vertex 3
    inst = fb.make_instance("complete", 8, 3, fb.SmoothingProfile(phi=1, seed=0))
    tau0 = (3, 1, 1, label, 2, 3, 3, 2)
    with pytest.raises(fb.ModelError, match=r"^vertex 3 has part label .+, not an integer$"):
        fb.run_flip(inst, tau0)
    with pytest.raises(fb.ModelError, match="not an integer"):
        fb.replay(inst, tau0, [])


def test_run_flip_records_python_ints_for_a_numpy_start():
    inst = smoothed_instance(16, 3, 4)
    tau0 = random_tau0(16, 3, 4)
    for start in (np.array(tau0), np.array(tau0, dtype=np.int8)):
        for variant in fb.engine.PIVOT_RULES:
            rule = fb.PivotRule(variant=variant, seed=3)
            trace = fb.run_flip(inst, start, rule)
            assert len(trace) > 0 and trace.tau0 == tau0
            assert all(type(p) is int for p in trace.tau0)
            _assert_python_ints(trace)
            assert trace.steps == fb.run_flip(inst, tau0, rule).steps


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
                         (fb.Move(0, 1, 0), "parts outside 1..3"),
                         (fb.Move(0, 1, -3), "parts outside 1..3"),
                         (fb.Move(0, 1, 1), "from-part equals to-part"),
                         (fb.Move(0, 2, 3), "vertex 0 is in part 1, not 2"),
                         (fb.Move(5, 1, 2), "vertex out of range"),
                         (fb.Move(-1, 2, 1), "vertex out of range")):
        with pytest.raises(fb.ReplayError) as ei:
            fb.replay(inst, tau0, [fb.Move(1, 2, 3), move])
        assert ei.value.step == 2 and ei.value.move == move
        assert str(ei.value) == f"invalid at step 2: move {move} ({reason})"


@pytest.mark.parametrize("move, reason", [
    ((0.0, 1, 2), "v is 0.0, not an integer"),
    ((0, 1.0, 2), "p is 1.0, not an integer"),
    ((0, True, 2), "p is True, not an integer"),
    ((True, 1, 2), "v is True, not an integer"),
    ((0, 1, 2.0), "q is 2.0, not an integer"),
], ids=["float v", "float p", "bool p", "bool v", "float q"])
def test_replay_refuses_a_non_integer_move_field(move, reason):
    # a bool or float field used to be recorded as given, or to raise a bare TypeError
    inst = smoothed_instance(4, 2, 0)
    with pytest.raises(fb.ReplayError) as ei:
        fb.replay(inst, (1, 1, 2, 2), [(1, 1, 2), move])
    assert ei.value.step == 2 and ei.value.move == fb.Move(*move)
    assert str(ei.value) == f"invalid at step 2: move {fb.Move(*move)} ({reason})"


def test_replay_stores_numpy_integer_moves_as_ints():
    inst = smoothed_instance(4, 2, 0)
    numpy_move = (np.int64(0), np.int32(1), np.uint8(2))
    trace = fb.replay(inst, (1, 1, 2, 2), [numpy_move, fb.Move(1, 1, 2)])
    assert trace.moves == (fb.Move(0, 1, 2), fb.Move(1, 1, 2))
    _assert_python_ints(trace)
    assert fb.trace_from_text(inst, fb.trace_to_text(trace)).steps == trace.steps


def test_supplied_sequences_never_build_the_flip_state(monkeypatch):
    # replay, verify_trace, trace files and slices go through validate_move
    # and the step-sign kernel; only run_flip drives engine._State, in its
    # k = 2 gain-vector layout and its (n, k) layout alike
    built = []

    class Counting(fb.engine._State):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(fb.engine, "_State", Counting)
    for k in (2, 3):
        trace = run_random(12, k, 9)
        assert built and len(trace) >= 4
        built.clear()
        fb.replay(trace.instance, trace.tau0, trace.moves)
        fb.verify_trace(trace)
        fb.trace_from_text(trace.instance, fb.trace_to_text(trace))
        fb.slice_trace(trace, 2, 4)
        assert built == []


def test_trace_views_are_built_once():
    trace = run_random(9, 3, 5)
    assert views(trace) == set()  # a run builds none of them
    assert trace.moves is trace.moves and trace.delta_nums is trace.delta_nums
    assert trace.final_configuration() is trace.final_configuration()
    assert trace.final_configuration() == trace.configuration_at(len(trace))
    assert fb.build_M(trace) is fb.build_M(trace)
    assert views(trace) == {"moves", "delta_nums", "final_configuration", "M"}
    # the views are not part of equality, hashing or repr
    fresh = fb.Trace(instance=trace.instance, tau0=trace.tau0, steps=trace.steps,
                     step_cap_hit=trace.step_cap_hit, rule=trace.rule, seed=trace.seed)
    assert fresh == trace and hash(fresh) == hash(trace) and repr(fresh) == repr(trace)
    other = dataclasses.replace(trace, seed=trace.seed + 1)
    assert views(other) == set() and other.moves == trace.moves
    assert other.moves is not trace.moves


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
    # blank lines, comments and unknown headers are skipped
    lines = text.splitlines()
    lines[1:1] = ["# note written by hand", "", "# foo bar", "#"]
    lines.insert(len(lines) // 2, "   ")
    back = fb.trace_from_text(trace.instance, "\n".join(lines) + "\n")
    assert back.steps == trace.steps and back.tau0 == trace.tau0
    assert fb.trace_to_text(back) == text


def test_configurations_walk():
    trace = run_random(8, 2, 12)
    confs = _configurations(trace)
    assert len(confs) == len(trace) + 1
    assert confs[0] == trace.tau0
    assert confs[-1] == trace.final_configuration()
    for t in range(len(trace) + 1):
        assert trace.configuration_at(t) == confs[t]


def test_configuration_at_refuses_steps_outside_the_trace():
    trace = run_random(10, 2, 1)
    assert len(trace) == 5
    assert trace.configuration_at(0) == trace.tau0
    assert trace.configuration_at(5) == trace.final_configuration()
    for t in (-1, -5, 6, 8):
        with pytest.raises(fb.ModelError, match=rf"^step {t} is outside 0\.\.5$"):
            trace.configuration_at(t)


def reference_flip(inst, tau0, rule, cap):
    """FLIP straight from the reference improving-move list: the ordered
    candidates give first, the first maximum gives best, and random draws
    from the rule's seeded stream."""
    rng = random.Random(f"flip:{rule.seed}")
    tau, steps = tuple(tau0), []
    while True:
        cands = improving_set(inst, tau)
        if len(steps) >= cap or not cands:
            return steps, bool(cands)
        if rule.variant == "first":
            move, delta = cands[0]
        elif rule.variant == "best":
            move, delta = max(cands, key=lambda c: c[1])
        else:
            move, delta = cands[rng.randrange(len(cands))]
        steps.append((move, int(delta * inst.denom)))
        tau = tau[:move.v] + (move.q,) + tau[move.v + 1:]


def _assert_python_ints(trace):
    for move, dnum in trace.steps:
        assert all(type(x) is int for x in (*move, dnum))


def _reference_instance(kind, k, seed):
    n = 13
    if kind == "equal":
        # every weight numerator equal: nearly every step is a many-way tie
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
        return fb.Instance(n=n, k=k, edges=edges, weight_nums=(3,) * len(edges),
                           complete=True)
    if kind == "isolated":
        # a sparse G(n, p) with a vertex of no edges, which scores 0 for every move
        for s in range(seed, seed + 100):
            inst = smoothed_instance(n, k, s, kind="gnp", p=0.15)
            if len({u for edge in inst.edges for u in edge}) < n:
                return inst
        pytest.fail("no G(n, p) instance with an isolated vertex in the search budget")
    return smoothed_instance(n, k, seed, kind=kind, p=0.6)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["complete", "gnp", "equal", "isolated"])
def test_run_flip_equals_reference_flip(kind, k):
    cap_hits = 0
    for seed in range(2):
        inst = _reference_instance(kind, k, 40 + seed)
        # from all-in-one-part, every move of a vertex ties across the empty parts
        tau0 = random_tau0(13, k, (kind, k)) if seed else (1,) * 13
        for variant in ("first", "best", "random"):
            rule = fb.PivotRule(variant=variant, seed=seed)
            for cap in (fb.engine.DEFAULT_CAP, 3, 1, 0):
                trace = fb.run_flip(inst, tau0, rule, cap=cap)
                steps, hit = reference_flip(inst, tau0, rule, cap)
                assert list(trace.steps) == steps
                assert trace.step_cap_hit == hit
                _assert_python_ints(trace)
                cap_hits += hit
    assert cap_hits


def test_run_flip_exact_beyond_int64():
    # n * denom >= 2**62 puts the state on Python ints instead of int64, in
    # the k = 2 gain vector and the k >= 3 (n, k) sums alike
    profile = fb.SmoothingProfile(phi=Fraction(1), seed=5)
    for k in (2, 3):
        inst = fb.make_instance("complete", 12, k, profile, denom=2 ** 70)
        assert inst.weight_matrix().dtype == object
        tau0 = random_tau0(12, k, 5)
        for variant in ("first", "best", "random"):
            rule = fb.PivotRule(variant=variant, seed=2)
            trace = fb.run_flip(inst, tau0, rule)
            assert list(trace.steps) == reference_flip(inst, tau0, rule,
                                                       fb.engine.DEFAULT_CAP)[0]
            assert max(trace.delta_nums) >= 2 ** 63
            _assert_python_ints(trace)
            fb.verify_trace(trace)


def test_trace_text_roundtrips_rule_seed_and_cap():
    inst = smoothed_instance(12, 2, 7)
    capped = fb.run_flip(inst, random_tau0(12, 2, 7),
                         fb.PivotRule(variant="random", seed=5), cap=2)
    assert capped.step_cap_hit
    text = fb.trace_to_text(capped)
    assert [ln.split()[1] for ln in text.splitlines()[:4]] == list(fb.engine.TRACE_HEADERS)
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
    # every header, repeated with its own line before or after the text
    for name, line in zip(fb.engine.TRACE_HEADERS, text.splitlines(keepends=True)):
        for bad in (text + line, line + text):
            with pytest.raises(fb.ModelError, match=f"repeats its {name} header"):
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
