"""Command-line interface smoke tests via main()."""

import pytest

import flipbench as fb
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
