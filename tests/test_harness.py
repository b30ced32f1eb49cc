"""Experiment harness: config parsing, seeds, bounds, MC, CSV determinism."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import flipbench as fb
from flipbench import harness
from flipbench.harness import (CONFIG_FIELDS, ExperimentConfig, derive_seed,
                               exp_scaling, window_length)
from flipbench.thresholds import Beta

from conftest import MatrixBuilds, smoothed_instance


def test_parse_config_full():
    cfg = fb.parse_config(
        "# campaign\n"
        "mode rank\n"
        "n_grid 16,32\n"
        "k 2\n"
        "phi_grid 1,5/2\n"
        "beta 1/sqrt2\n"
        "trials 3\n"
        "rule first\n"
        "seed 7\n"
        "cap 1000\n"
        "eta 0.2\n"
        "graph complete\n"
        "jobs 2\n")
    assert cfg.mode == "rank" and cfg.n_grid == (16, 32)
    assert cfg.phi_grid == (Fraction(1), Fraction(5, 2))
    assert cfg.beta.rational is None
    assert cfg.trials == 3 and cfg.seed == 7 and cfg.cap == 1000
    assert cfg.eta == 0.2 and cfg.jobs == 2


def test_parse_config_errors():
    with pytest.raises(fb.HarnessError):
        fb.parse_config("n_grid 8\n")          # missing mode
    with pytest.raises(fb.HarnessError, match="unknown config key 'what' on line 2"):
        fb.parse_config("mode scaling\nwhat 3\n")
    with pytest.raises(fb.HarnessError, match="bad value for 'n_grid' on line 2"):
        fb.parse_config("mode scaling\nn_grid x,y\n")
    with pytest.raises(fb.HarnessError):
        fb.parse_config("mode warp\n")
    with pytest.raises(fb.HarnessError):
        ExperimentConfig(mode="scaling", trials=0)
    with pytest.raises(fb.HarnessError):
        ExperimentConfig(mode="scaling", n_grid=())


def test_parse_config_rejects_a_repeated_key():
    # the last value once won silently: this read as mode rank, k 3
    with pytest.raises(fb.HarnessError, match="config key 'k' on line 3 repeats line 2"):
        fb.parse_config("mode scaling\nk 2\nk 3\nmode rank\n")
    with pytest.raises(fb.HarnessError, match="config key 'mode' on line 5 repeats line 1"):
        fb.parse_config("mode scaling\n# mode rank\n\nk 2\nmode rank\n")
    # a repeat is an error even with the same value; comments are not keys
    with pytest.raises(fb.HarnessError, match="config key 'k' on line 3 repeats line 2"):
        fb.parse_config("mode scaling\nk 3\nk 3\n")
    assert fb.parse_config("mode scaling\n# k 2\n\nk 3\n").k == 3


@pytest.mark.parametrize("line, message", [
    ("rule worst", "rule 'worst'"),
    ("k 1", "k=1"),
    ("k 2147483648", "k=2147483648 must be at least 2 and at most 2147483647"),
    ("graph ring", "graph kind 'ring'"),
    ("p 1.5", "p=1.5"),
    ("p -0.1", "p=-0.1"),
    ("cap -1", "cap=-1"),
    ("jobs 0", "jobs=0"),
    ("samples 0", "samples=0"),
    ("n_grid 8,1", "n_grid"),
    ("phi_grid 1,1/4", "phi_grid"),
    ("beta 0", "beta must be positive"),
    ("beta -1", "beta must be positive"),
    ("beta abc", "'abc'"),
    ("eps 0", "eps=0 must be positive"),
    ("eps -1", "eps=-1 must be positive"),
    ("eps -1/20", "eps=-1/20 must be positive"),
    ("eta nan", "eta=nan must be finite"),
    ("eta inf", "eta=inf must be finite"),
    ("eta -inf", "eta=-inf must be finite"),
])
def test_parse_config_rejects_bad_values(line, message):
    with pytest.raises(fb.HarnessError, match=message):
        fb.parse_config(f"mode scaling\n{line}\n")


def test_config_bounds_the_flip_state():
    # refused at parse, from n and k alone: nothing is allocated
    with pytest.raises(fb.ModelError, match=r"n=2 vertices and k=2147483647 parts"):
        fb.parse_config("mode scaling\nn_grid 2\nk 2147483647\n")
    # the largest n of the grid counts, up to exactly the budget
    with pytest.raises(fb.ModelError, match=r"n=4194305 vertices and k=4 parts"):
        fb.parse_config("mode scaling\nn_grid 2,4194305\nk 4\n")
    # the n x n weight matrix counts too: n * max(n, k) cells, so n <= 4096
    assert fb.parse_config("mode scaling\nn_grid 2,4096\nk 4096\n").k == 4096
    with pytest.raises(fb.ModelError, match=r"n=4097 vertices and k=2 parts has "
                       r"16785409 cells"):
        fb.parse_config("mode scaling\nn_grid 4097\nk 2\n")


def test_approx_config_rejects_n_above_12():
    with pytest.raises(fb.HarnessError, match="approx mode requires n <= 12"):
        fb.parse_config("mode approx\nn_grid 6,13\n")
    assert fb.parse_config("mode approx\nn_grid 6,12\n").n_grid == (6, 12)
    # state_cuts holds all k^n cut values at once: 5^12 of them in int64
    # would take 2 GB, so the config refuses past 4^12
    with pytest.raises(fb.HarnessError, match=r"requires k\^n <= 4\^12; k=5, n=12"):
        fb.parse_config("mode approx\nn_grid 6,12\nk 5\n")
    assert fb.parse_config("mode approx\nn_grid 12\nk 4\n").k == 4
    assert fb.parse_config("mode approx\nn_grid 10\nk 5\n").k == 5


def test_approx_config_checks_phi_exactly():
    # a phi a hair below 1 rounds to 1.0 as a float; centres at 1/2 would
    # then push the support outside [-1, 1]
    with pytest.raises(fb.HarnessError, match="phi >= 1"):
        fb.parse_config("mode approx\nn_grid 6\n"
                        "phi_grid 999999999999999999/1000000000000000000\n")
    assert fb.parse_config("mode approx\nn_grid 6\nphi_grid 1,3/2\n").phi_grid[0] == 1


def test_config_table_covers_every_field():
    assert list(CONFIG_FIELDS) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(0, "scaling", 8, Fraction(1), 0)
    assert a == derive_seed(0, "scaling", 8, Fraction(1), 0)
    b = derive_seed(0, "scaling", 8, Fraction(1), 1)
    c = derive_seed(1, "scaling", 8, Fraction(1), 0)
    assert len({a, b, c}) == 3
    assert 0 <= a < 16 ** 12


def test_epsilon_bound_shrinks_with_n_and_phi():
    beta = Beta.sqrt_half()
    e1 = fb.epsilon_bound(beta, 1, 16)
    assert 0 < e1 < 1
    assert fb.epsilon_bound(beta, 1, 32) < e1
    assert fb.epsilon_bound(beta, 2, 16) == pytest.approx(e1 / 2)


@pytest.mark.parametrize("beta", ["1000", "1/1000"])
def test_epsilon_bound_past_float_range(beta):
    # n^exponent passes float range at n=16 for both betas: eps reads 0
    cfg = fb.parse_config(f"mode rank\nn_grid 16\nk 2\ntrials 1\nbeta {beta}\n")
    assert fb.epsilon_bound(cfg.beta, 1, 16) == 0.0
    _, rows = fb.run_experiment(cfg)
    assert [row["eps"] for row in rows] == ["0"]


def test_theorem_bound_regimes():
    assert fb.theorem_bound(2, True, 1, 16) == pytest.approx(
        1580 * 16 ** ((2 + math.sqrt(2)) * (math.sqrt(2) + 0.1)))
    assert fb.theorem_bound(3, True, 2, 8) == pytest.approx(2 * 8.0 ** 99.1)
    general = fb.theorem_bound(3, False, 1, 8)
    assert general == pytest.approx(
        8.0 ** (2 * 5 * 3 * math.log2(24) + 3 + 0.1))


def test_theorem_bound_past_float_range():
    # the first n whose power leaves float range, at k=4 and k=5 complete
    assert fb.theorem_bound(4, True, 1, 11) == math.inf
    assert fb.theorem_bound(5, True, 1, 6) == math.inf
    assert math.isfinite(fb.theorem_bound(4, True, 1, 10))
    assert math.isfinite(fb.theorem_bound(5, True, 1, 5))
    cfg = fb.parse_config("mode scaling\nn_grid 16\nk 4\ntrials 1\nseed 1\n")
    summary = fb.rows_to_csv(*fb.run_experiment(cfg)).splitlines()[-1]
    assert summary.startswith("summary,") and summary.split(",")[10] == "inf"


def _least(holds):
    return next(t for t in itertools.count() if holds(t))


def test_window_length():
    # each k's mode, lemma window and rank bound, against the paper: k=2 a
    # beta-critical block of the first ceil((1+beta)n) steps with rank >=
    # ceil(beta s/(1+2beta)); k=3 a 2-critical block of the first 3n with
    # rank >= ceil(s/32); k >= 4 all of the first kn with rank >= ceil(c/2)
    modes = fb.certificates.CERTIFICATE_MODES
    sqrt_half = Beta.sqrt_half()
    rationals = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    assert [fb.certificates.certificate_mode(k) for k in (2, 3, 4, 5)] == \
        ["k2", "3cut", "half", "half"]
    for n in (1, 2, 7, 16, 50, 129):
        # (1 + 1/sqrt2) n <= w  iff  w >= n and 2 (w - n)^2 >= n^2
        assert window_length(2, sqrt_half, n) == \
            _least(lambda w: w >= n and 2 * (w - n) ** 2 >= n * n)
        for b in rationals:
            assert window_length(2, Beta.of(b), n) == math.ceil((1 + b) * n)
        for k in (3, 4, 5):
            assert window_length(k, sqrt_half, n) == (3 * n if k == 3 else k * n)
    for s in range(100):
        c = s // 3
        # s / (2 + sqrt2) <= t  iff  s <= 2t or 2 t^2 >= (s - 2t)^2
        assert modes["k2"].rank_bound(s, c, sqrt_half) == \
            _least(lambda t: s <= 2 * t or 2 * t * t >= (s - 2 * t) ** 2)
        for b in rationals:
            assert modes["k2"].rank_bound(s, c, Beta.of(b)) == math.ceil(b * s / (1 + 2 * b))
        assert modes["3cut"].rank_bound(s, c, sqrt_half) == _least(lambda t: 32 * t >= s)
        assert modes["half"].rank_bound(s, c, sqrt_half) == _least(lambda t: 2 * t >= c)


def test_mc_refuses_dependent_vectors():
    with pytest.raises(fb.HarnessError):
        fb.mc_slow_bound([[1, 2], [2, 4]], 1, Fraction(1, 20), 100, 0)


def test_mc_k1_exact_probability():
    res = fb.mc_slow_bound([[1, 0]], 1, Fraction(1, 10), 200_000, 1)
    # Pr[0 < X <= eps] = phi*eps exactly
    assert abs(res.estimate_cumulative - 0.1) <= 4 * res.stderr_cumulative
    assert res.estimate_interval == res.estimate_cumulative
    assert res.bound_cumulative == pytest.approx(0.1)


def test_brute_force_opt_on_unit_k4():
    denom = fb.DEFAULT_DENOM
    inst = fb.Instance(n=4, k=2, edges=fb.complete_edges(4),
                       weight_nums=(denom,) * 6, denom=denom, complete=True)
    assert fb.state_cuts(inst).max() == 4 * denom  # balanced bipartition
    inst3 = fb.Instance(n=4, k=3, edges=fb.complete_edges(4),
                        weight_nums=(denom,) * 6, denom=denom, complete=True)
    assert fb.state_cuts(inst3).max() == 5 * denom
    big = fb.Instance(n=13, k=2, edges=(), weight_nums=())
    with pytest.raises(fb.HarnessError):
        fb.state_cuts(big)


def _every_cut(inst):
    """cut_value(inst, tau) * denom of every tau, in state_cuts' order:
    index sum_v (tau_v - 1) k^v, so vertex 0's part moves fastest."""
    return [fb.cut_value(inst, rev[::-1]) * inst.denom
            for rev in itertools.product(range(1, inst.k + 1), repeat=inst.n)]


@pytest.mark.parametrize("k,n", [(2, 6), (3, 5), (4, 4)])
def test_state_cuts_equal_cut_value_on_every_state(k, n):
    insts = [smoothed_instance(n, k, seed) for seed in (0, 1, 2)]
    insts.append(smoothed_instance(n, k, 3, kind="gnp", p=0.5))
    assert insts[-1].m < n * (n - 1) // 2  # a graph with missing pairs
    for inst in insts:
        cuts = fb.state_cuts(inst)
        assert cuts.dtype == np.int64 and len(cuts) == k ** n
        assert cuts.tolist() == _every_cut(inst)


def test_state_cuts_on_python_int_weights():
    # denom 2**70 puts the weight numerators on Python ints
    inst = fb.make_instance("complete", 5, 3, fb.SmoothingProfile(phi=1, seed=4),
                            denom=2 ** 70)
    cuts = fb.state_cuts(inst)
    assert cuts.dtype == object and cuts.max() == max(_every_cut(inst))
    assert cuts.max() > 2 ** 63


def test_scaling_experiment_rows():
    cfg = ExperimentConfig(mode="scaling", n_grid=(8,), phi_grid=(Fraction(1),),
                           k=2, trials=3, seed=1)
    fields, rows = exp_scaling(cfg)
    trials = [r for r in rows if r["row_type"] == "trial"]
    summaries = [r for r in rows if r["row_type"] == "summary"]
    assert len(trials) == 3 and len(summaries) == 1
    assert all(r["cap_hit"] == 0 for r in trials)
    assert summaries[0]["steps"] == max(r["steps"] for r in trials)
    assert float(summaries[0]["bound"]) > summaries[0]["steps"]


def test_approx_mode_all_hold():
    cfg = ExperimentConfig(mode="approx", n_grid=(6,), phi_grid=(Fraction(1),),
                           k=3, trials=5, seed=2)
    fields, rows = fb.approx_check(cfg)
    assert len(rows) == 5 and all(r["ok"] == 1 for r in rows)
    with pytest.raises(fb.HarnessError):
        fb.approx_check(ExperimentConfig(mode="approx", n_grid=(20,)))
    # state_cuts refuses past 4^12 configurations itself, before it allocates
    with pytest.raises(fb.HarnessError, match=r"k\^n > 4\^12; k=5, n=11"):
        fb.state_cuts(smoothed_instance(11, 5, 0))
    with pytest.raises(fb.HarnessError):
        fb.approx_check(ExperimentConfig(mode="approx", n_grid=(6,),
                                         phi_grid=(Fraction(1, 2),)))
    # a graph the brute force would not see is refused, not ignored
    with pytest.raises(fb.HarnessError, match="approx mode requires graph complete"):
        fb.parse_config("mode approx\nn_grid 7\ngraph gnp\np 0.1\n")


def test_rank_campaign_rows_have_status():
    cfg = ExperimentConfig(mode="rank", n_grid=(8,), phi_grid=(Fraction(1),),
                           k=2, trials=3, seed=3)
    fields, rows = fb.exp_rank_campaign(cfg)
    assert len(rows) == 3
    for r in rows:
        assert r["status"] in ("ok", "skip")
        if r["status"] == "ok":
            assert r["violation"] == 0


def test_rank_campaign_certifies_reached_windows(monkeypatch):
    # natural desk-scale traces stop short of the lemma window; half the
    # lemma window sends them down the certificate path
    monkeypatch.setattr(harness, "window_length", lambda k, beta, n: n // 2)
    rows = []
    for seed in (0, 12, 13, 22):  # k=2 seeds whose window holds a critical block
        cfg = ExperimentConfig(mode="rank", n_grid=(24,), k=2, trials=1, seed=seed)
        rows += fb.exp_rank_campaign(cfg)[1]
    cfg = ExperimentConfig(mode="rank", n_grid=(24,), k=4, trials=4, seed=0)
    rows += fb.exp_rank_campaign(cfg)[1]
    assert len(rows) == 8
    for r in rows:
        assert r["status"] == "ok" and r["violation"] == 0
        assert r["rank"] >= r["cert_arcs"]
    assert all(r["cert_arcs"] > 0 for r in rows[:4])
    assert sum(r["cert_arcs"] for r in rows[4:]) > 0


def test_rank_trial_builds_one_P(monkeypatch):
    # the certificate and the exact rank read the one P kept on the block:
    # one step matrix and one P per trial, cycles enumerated once at k > 2
    monkeypatch.setattr(harness, "window_length", lambda k, beta, n: n // 2)
    builds = MatrixBuilds(monkeypatch)
    for k in (2, 4):
        builds.reset()
        cfg = ExperimentConfig(mode="rank", n_grid=(24,), k=k, trials=1, seed=0)
        (row,) = fb.exp_rank_campaign(cfg)[1]
        assert row["status"] == "ok" and row["violation"] == 0
        assert builds.counts() == {"M": 1, "P": 1, "cycles": int(k > 2)}


def test_mc_experiment_within_tolerance():
    cfg = ExperimentConfig(mode="mc", phi_grid=(Fraction(1),),
                           samples=100_000, seed=4)
    fields, rows = fb.exp_mc(cfg)
    assert [r["k"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert r["ok_cum"] == 1 and r["ok_step"] == 1


def test_csv_is_deterministic():
    cfg = ExperimentConfig(mode="scaling", n_grid=(8, 12),
                           phi_grid=(Fraction(1), Fraction(2)),
                           k=2, trials=2, seed=5)
    out1 = fb.rows_to_csv(*fb.run_experiment(cfg))
    out2 = fb.rows_to_csv(*fb.run_experiment(cfg))
    assert out1 == out2
    assert out1.splitlines()[0].startswith("row_type,n,k,phi")


def test_jobs_fan_out_preserves_order():
    # every mode's trials go through the one trial path, in or out of a pool
    for mode, k in (("scaling", 2), ("rank", 4), ("approx", 3)):
        cfg1 = ExperimentConfig(mode=mode, n_grid=(8,),
                                phi_grid=(Fraction(1),), k=k, trials=4, seed=6)
        cfg2 = dataclasses.replace(cfg1, jobs=2)
        assert fb.run_experiment(cfg1) == fb.run_experiment(cfg2)


@pytest.mark.parametrize("jobs, trials, cpus, workers", [
    (500, 2, 4, 2), (500, 6, 4, 4), (3, 6, 4, 3), (500, 6, None, None)])
def test_jobs_capped_by_tasks_and_cpus(monkeypatch, jobs, trials, cpus, workers):
    # a fake pool records its size and maps in-process: no test starts a
    # real pool of that many workers
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cfg = ExperimentConfig(mode="scaling", n_grid=(8,), phi_grid=(Fraction(1),),
                           k=2, trials=trials, seed=6, jobs=jobs)
    assert fb.run_experiment(cfg) == fb.run_experiment(dataclasses.replace(cfg, jobs=1))
    assert started == ([] if workers is None else [workers])
