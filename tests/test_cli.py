"""Command-line interface smoke tests via main()."""

import hashlib
import random

import pytest

import flipbench as fb
from flipbench import harness
from flipbench.cli import main
from flipbench.thresholds import Beta

from conftest import random_tau0, run_random, smoothed_instance


@pytest.fixture()
def instance_file(tmp_path):
    inst = smoothed_instance(10, 2, 31)
    path = tmp_path / "instance.txt"
    path.write_text(inst.to_text())
    return str(path), inst


def test_run_writes_trace(tmp_path, instance_file, capsys):
    path, inst = instance_file
    out = tmp_path / "trace.txt"
    code = main(["run", "--instance", path, "--seed", "3", "--rule", "first",
                 "--out", str(out)])
    assert code == 0
    trace = fb.trace_from_text(inst, out.read_text())
    assert len(trace) > 0 and all(d > 0 for d in trace.delta_nums)
    # the start a campaign trial of seed 3 would take
    assert trace.tau0 == random_tau0(inst.n, inst.k, 3)
    err = capsys.readouterr().err
    assert f"steps {len(trace)}" in err
    # the same two files feed analyze and then certify
    files = ["--instance", path, "--trace", str(out)]
    assert main(["analyze", *files, "--report", "cycles"]) == 0
    assert capsys.readouterr().out.startswith("cyclic ")
    assert main(["certify", *files, "--mode", "half"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("# arcs ") and last.endswith(" valid 1") and int(last.split()[2]) > 0


def test_run_with_explicit_tau0(tmp_path, instance_file):
    path, inst = instance_file
    tau = tmp_path / "tau0.txt"
    tau.write_text(" ".join(["1"] * 10) + "\n")
    out = tmp_path / "t.txt"
    assert main(["run", "--instance", path, "--tau0", str(tau),
                 "--out", str(out)]) == 0
    trace = fb.trace_from_text(inst, out.read_text())
    assert trace.tau0 == tuple([1] * 10)


def _write_trace(tmp_path, trace):
    tpath = tmp_path / "trace.txt"
    tpath.write_text(fb.trace_to_text(trace))
    ipath = tmp_path / "inst.txt"
    ipath.write_text(trace.instance.to_text())
    return str(ipath), str(tpath)


def test_analyze_reports(tmp_path, capsys):
    # pick a seed whose trace contains a critical block
    for seed in range(60):
        trace = run_random(16, 2, seed)
        try:
            fb.find_critical_block(trace.moves, Beta.sqrt_half())
            break
        except fb.BlockNotFoundError:
            continue
    else:
        pytest.fail("no critical trace found in the search budget")
    ipath, tpath = _write_trace(tmp_path, trace)
    assert main(["analyze", "--instance", ipath, "--trace", tpath,
                 "--report", "blocks"]) == 0
    out = capsys.readouterr().out
    assert "critical beta=1/sqrt(2)" in out
    assert main(["analyze", "--instance", ipath, "--trace", tpath,
                 "--report", "surplus"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ell ")
    trace3 = run_random(10, 3, 1)
    ipath3, tpath3 = _write_trace(tmp_path, trace3)
    assert main(["analyze", "--instance", ipath3, "--trace", tpath3,
                 "--report", "cycles"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cyclic ")
    assert not fb.cycles(trace3.moves, 3).truncated
    assert out.splitlines()[-1].startswith(("cyclic ", "cycle "))


def test_analyze_reports_a_trace_without_a_block(tmp_path, capsys):
    # a natural trace with no critical block is valid input: the segments,
    # then `critical none`, and exit 0
    for seed in range(60):
        trace = run_random(16, 2, seed)
        try:
            fb.find_critical_block(trace.moves, Beta.sqrt_half())
        except fb.BlockNotFoundError:
            break
    else:
        pytest.fail("every trace in the search budget holds a critical block")
    ipath, tpath = _write_trace(tmp_path, trace)
    assert main(["analyze", "--instance", ipath, "--trace", tpath,
                 "--report", "blocks"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[-1] == "critical none" and captured.err == ""
    assert lines[:-1] and all(ln.split()[0] in ("transition", "singleton")
                              for ln in lines[:-1])
    # so does a trace of no steps at all
    inst = trace.instance
    optimum = fb.run_flip(inst, trace.tau0).final_configuration()
    ipath, tpath = _write_trace(tmp_path, fb.run_flip(inst, optimum))
    assert main(["analyze", "--instance", ipath, "--trace", tpath,
                 "--report", "blocks"]) == 0
    assert capsys.readouterr().out == "critical none\n"


def test_analyze_marks_a_truncated_cycle_set(tmp_path, capsys):
    # one vertex walking 400 times among three parts has more minimal
    # cycles than the per-vertex cap
    inst = fb.Instance.from_text("2 3 1048576 1 0\n0 1 5\n")
    rng = random.Random(1)
    moves, part = [], 1
    for _ in range(400):
        q = rng.choice([x for x in (1, 2, 3) if x != part])
        moves.append(fb.Move(0, part, q))
        part = q
    trace = fb.replay(inst, (1, 1), moves)
    assert fb.cycles(trace.moves, 3).truncated
    ipath, tpath = _write_trace(tmp_path, trace)
    assert main(["analyze", "--instance", ipath, "--trace", tpath,
                 "--report", "cycles"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + fb.analysis.DEFAULT_CYCLE_CAP + 1
    assert lines[-1] == f"truncated at {fb.analysis.DEFAULT_CYCLE_CAP} cycles per vertex"
    # certify refuses the same files (the walk is not improving): exit 2
    assert main(["certify", "--instance", ipath, "--trace", tpath, "--mode", "half"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_cycles_of_a_long_walk(tmp_path, capsys):
    # vertex 0 walks through 1100 parts and back to the first: one minimal
    # cycle of 1100 steps, found without recursing once per step
    inst = fb.Instance.from_text("2 3000 1048576 1 0\n0 1 5\n")
    parts = list(range(1, 1101)) + [1]
    trace = fb.replay(inst, (1, 1), [fb.Move(0, p, q) for p, q in zip(parts, parts[1:])])
    ipath, tpath = _write_trace(tmp_path, trace)
    assert main(["analyze", "--instance", ipath, "--trace", tpath,
                 "--report", "cycles"]) == 0
    times = ",".join(map(str, range(1, 1101)))
    assert capsys.readouterr().out.splitlines() == [
        "cyclic 1 acyclic 0", f"cycle v=0 times={times} parts={times}"]


def test_certify_half_mode(tmp_path, capsys):
    trace = run_random(12, 4, 606)
    ipath, tpath = _write_trace(tmp_path, trace)
    assert main(["certify", "--instance", ipath, "--trace", tpath,
                 "--mode", "half"]) == 0
    out = capsys.readouterr().out
    assert "valid 1" in out


def test_experiment_csv(tmp_path):
    cfgp = tmp_path / "cfg.txt"
    cfgp.write_text("mode scaling\nn_grid 8\nk 2\ntrials 2\nseed 9\n")
    outp = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfgp), "--out", str(outp)]) == 0
    text = outp.read_text()
    assert text.startswith("row_type,") and "summary" in text


def test_approx_config_past_the_brute_force_limit_exits_2(tmp_path, capsys, monkeypatch):
    # 5^12 configurations would not fit in memory: the config is refused
    # before any trial runs
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_flip_trial", no_trial)
    monkeypatch.setattr(harness, "state_cuts", no_trial)
    cfgp = tmp_path / "approx.cfg"
    cfgp.write_text("mode approx\nn_grid 12\nk 5\ntrials 1\n")
    assert main(["experiment", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k^n <= 4^12" in err and "Traceback" not in err


def test_approx_at_its_largest_config(tmp_path, capsys):
    # the cut values of all 4^12 configurations give OPT, and FLIP's local
    # optimum must reach 3/4 of it
    cfgp = tmp_path / "approx.cfg"
    cfgp.write_text("mode approx\nn_grid 12\nk 4\ntrials 1\n")
    assert main(["experiment", "--config", str(cfgp)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,k,phi,trial,opt,local,steps,ok"
    assert len(lines) == 2 and lines[1].startswith("12,4,") and lines[1].endswith(",1")


@pytest.mark.parametrize("mode, line", [
    ("scaling", "phi_grid 1e400"), ("mc", "phi_grid 1,1e400"), ("mc", "eps 1e400"),
    ("rank", "beta 1e400"), ("rank", "beta 1e-400"), ("mc", "eps 1e-400"),
])
def test_config_value_past_float_range_exits_2(tmp_path, capsys, mode, line):
    # the bounds and the mc sampler take these values as floats: one that
    # overflows, or that reads 0.0, is refused at parse, not with a traceback
    cfgp = tmp_path / "cfg.txt"
    cfgp.write_text(f"mode {mode}\nn_grid 16\nk 2\ntrials 1\nsamples 10\n{line}\n")
    assert main(["experiment", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: every phi, eps and beta") and "Traceback" not in err


def test_bad_instance_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    assert main(["run", "--instance", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_instance_file_exits_2(tmp_path, capsys):
    assert main(["run", "--instance", str(tmp_path / "absent.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "absent.txt" in err


def test_non_integer_instance_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2 1048576 1 x\n0 1 5\n")
    assert main(["run", "--instance", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edges, message", [
    # tokens past int64 are checked as Python ints, not converted
    ("0 1000000000000000000000000000000 5", "edge (0,1000000000000000000000000000000) out of range"),
    ("0 1 99999999999999999999999999999", "weight magnitude exceeds 1"),
    ("0 1 5\n-1 2 5", "edge (-1,2) out of range or unordered"),
    ("0 1 5\n1 3 5\n2 7 5", "edge (2,7) out of range or unordered"),
    ("0 1 5\n2 2 5", "loop edge 2"),
    ("0 1 5\n1 2 5\n0 1 3", "duplicate edge (0,1)"),
    # the reader orders each pair, so an unordered pair can only repeat one
    ("0 2 5\n2 0 5", "duplicate edge (0,2)"),
    ("0 1 1048577", "weight magnitude exceeds 1"),
    # the first offending edge in file order is the one reported
    ("0 1 5\n3 3 5\n0 9 5", "loop edge 3"),
])
def test_hostile_instance_file_exits_2(tmp_path, capsys, edges, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"4 2 1048576 1 0\n{edges}\n")
    assert main(["run", "--instance", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("header, message", [
    ("4 2 1048576 0 0", "phi must be positive, not 0"),
    ("4 2 1048576 -5 0", "phi must be positive, not -5"),
    ("4 2 1048576 -1/2 0", "phi must be positive, not -1/2"),
    ("4 2 1048576 1 7", "complete flag must be 0 or 1, not 7"),
    ("4 2 1048576 1 -1", "complete flag must be 0 or 1, not -1"),
])
def test_bad_instance_header_exits_2(tmp_path, capsys, header, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{header}\n0 1 5\n")
    assert main(["run", "--instance", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_config_with_a_repeated_key_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "cfg.txt"
    cfgp.write_text("mode scaling\nk 2\nk 3\nmode rank\n")
    assert main(["experiment", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "config key 'k' on line 3 repeats line 2" in err


# 10**17 parts take 711 PiB for numpy's part-label array, past any 64-bit
# address space, so the allocation is refused at once on every machine
@pytest.mark.parametrize("command, name, text", [
    ("run", "inst.txt", "2 100000000000000000 1048576 1 0\n0 1 5\n"),
    ("experiment", "scaling.cfg",
     "mode scaling\nn_grid 8\nk 100000000000000000\ntrials 1\nseed 1\n"),
])
def test_part_count_numpy_cannot_allocate_exits_2(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    flag = "--instance" if command == "run" else "--config"
    assert main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: part count k") and "at most 2147483647" in err


def test_run_past_the_state_budget_exits_2(tmp_path, capsys):
    # the n x n weight matrix counts: 4097 vertices are refused at k=2,
    # before the weight matrix or any state is built
    path = tmp_path / "inst.txt"
    path.write_text("4097 2 1048576 1 0\n0 1 5\n")
    assert main(["run", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a FLIP state of n=4097 vertices and k=2 parts")


@pytest.mark.parametrize("command", [["certify", "--mode", "half"], ["analyze"]])
def test_trace_past_the_state_budget_exits_2(tmp_path, capsys, command):
    # replay builds n x n views of the instance, so a trace file is held to
    # run's budget: 4097 vertices are refused before any view is built
    n = 4097
    text = f"{n} 2 1048576 1 0\n0 1 5\n"
    ipath, tpath = tmp_path / "inst.txt", tmp_path / "trace.txt"
    ipath.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    tpath.write_text(f"# instance {digest}\n# tau0 {' '.join(['1'] * n)}\n1 0 1 2 5\n")
    assert main([command[0], "--instance", str(ipath), "--trace", str(tpath), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n=4097: n x n views pass the budget of 16777216 cells")


@pytest.mark.parametrize("k, code", [(2 ** 31 - 1, 0), (3_000_000_000, 2)])
def test_part_labels_fit_int32(tmp_path, capsys, k, code):
    # the step-sign kernel holds part labels in int32: a trace moving to
    # the top label of the largest part count is read, and a larger part
    # count is refused with the instance, not with a traceback
    text = f"2 {k} 1048576 1 0\n0 1 5\n"
    ipath, tpath = tmp_path / "inst.txt", tmp_path / "trace.txt"
    ipath.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    tpath.write_text(f"# instance {digest}\n# tau0 1 1\n1 0 1 {k} 5\n")
    assert main(["analyze", "--instance", str(ipath), "--trace", str(tpath)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: part count k") if code else err == ""


@pytest.mark.parametrize("beta", ["abc", "-1", "0"])
def test_bad_beta_exits_2(tmp_path, capsys, beta):
    ipath, tpath = _write_trace(tmp_path, run_random(10, 2, 1))
    assert main(["analyze", "--instance", ipath, "--trace", tpath,
                 "--beta", beta]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beta" in err


@pytest.mark.parametrize("command", [["certify", "--mode", "k2"], ["analyze"]])
def test_trace_without_instance_header_exits_2(tmp_path, capsys, command):
    ipath, tpath = _write_trace(tmp_path, run_random(10, 2, 1))
    with open(tpath) as fh:
        lines = [ln for ln in fh if not ln.startswith("# instance ")]
    with open(tpath, "w") as fh:
        fh.writelines(lines)
    assert main([command[0], "--instance", ipath, "--trace", tpath, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "instance header" in err


@pytest.mark.parametrize("command", [["certify", "--mode", "k2"], ["analyze"]])
@pytest.mark.parametrize("edit", ["second tau0", "renumbered", "rule header", "cap_hit header"])
def test_trace_file_trust_boundary_exits_2(tmp_path, capsys, command, edit):
    trace = run_random(10, 2, 1)
    assert len(trace) >= 2
    ipath, tpath = _write_trace(tmp_path, trace)
    with open(tpath) as fh:
        lines = fh.read().splitlines()
    if edit == "second tau0":
        lines.append("# tau0 " + " ".join(["1"] * trace.instance.n))
        message = "repeats its tau0 header"
    elif edit == "renumbered":
        lines = [ln if ln.startswith("#") else "7" + ln[ln.index(" "):] for ln in lines]
        message = "numbered 7, expected 1"
    elif edit == "rule header":
        lines = [ln.replace(" seed ", " seed x") if ln.startswith("# rule ") else ln
                 for ln in lines]
        message = "malformed rule header"
    else:
        lines = ["# cap_hit 2" if ln.startswith("# cap_hit ") else ln for ln in lines]
        message = "malformed cap_hit header"
    with open(tpath, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main([command[0], "--instance", ipath, "--trace", tpath, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
