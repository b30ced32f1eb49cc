"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 4 and 5 share three session-scoped corpora: natural k=2 critical
blocks, synthesized k=3 2-critical blocks (dense move sequences made
improving by exact integer weights; natural desk-scale runs never contain
2-critical blocks), and natural k=4 traces.
"""

import random
import time
from fractions import Fraction

import pytest

import flipbench as fb
from flipbench.analysis import cyclic_ratio_qualifies
from flipbench.harness import ExperimentConfig
from flipbench.thresholds import Beta

from conftest import (play_move, random_moves, random_tau0, run_random,
                      smoothed_instance, synth_3cut_blocks)

BETA = Beta.sqrt_half()


def _verdict(num, name, ok, extra=""):
    line = f"criterion {num} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


# --- shared corpora ----------------------------------------------------------

@pytest.fixture(scope="session")
def k2_blocks():
    """>=100 critical blocks from natural k=2 runs, n in [16, 64]."""
    out = []
    ns = (16, 24, 32, 48, 64)
    seed = tried = 0
    while len(out) < 100 and tried < 2000:
        n = ns[tried % len(ns)]
        trace = run_random(n, 2, seed)
        seed += 1
        tried += 1
        try:
            block = fb.find_critical_block(trace.moves, BETA)
        except fb.BlockNotFoundError:
            continue
        out.append(fb.slice_trace(trace, block.t1, block.t2))
    return out


@pytest.fixture(scope="session")
def k3_blocks():
    """The 100 2-critical blocks of synth_3cut_blocks (seeds 0-1047), each
    inside a walk made improving by exact integer weights."""
    out = synth_3cut_blocks(100)
    assert len(out) == 100
    assert all(d > 0 for sub in out for d in sub.delta_nums)
    return out


@pytest.fixture(scope="session")
def k4_traces():
    """100 natural k=4 traces on complete and gnp graphs."""
    out = []
    for seed in range(100):
        kind = "complete" if seed % 2 == 0 else "gnp"
        inst = smoothed_instance(14 + (seed % 3) * 4, 4, 9000 + seed, kind=kind)
        tau0 = random_tau0(inst.n, 4, 9000 + seed)
        out.append(fb.run_flip(inst, tau0, fb.PivotRule(variant="first",
                                                        seed=seed)))
    return out


# --- criteria ----------------------------------------------------------------

def test_criterion_1_exact_delta_identity():
    t0 = time.time()
    bad = total = 0
    for i in range(25):
        rng = random.Random(f"c1:{i}")
        n = rng.randint(4, 64)
        k = rng.choice([2, 3, 4])
        inst = smoothed_instance(n, k, 10_000 + i)
        for j in range(400):
            tau = tuple(rng.randint(1, k) for _ in range(n))
            v = rng.randrange(n)
            q = rng.choice([x for x in range(1, k + 1) if x != tau[v]])
            move = fb.Move(v, tau[v], q)
            d, tau2 = play_move(inst, tau, move)
            if d != fb.hamiltonian(inst, tau2) - fb.hamiltonian(inst, tau):
                bad += 1
            total += 1
    elapsed = time.time() - t0
    _verdict(1, "exact-delta identity", bad == 0 and total >= 10_000
             and elapsed < 60,
             f"{total} triples, {bad} mismatches, {elapsed:.1f}s")


def test_criterion_2_step_column_identity():
    bad = traces = 0
    for seed in range(100):
        rng = random.Random(f"c2:{seed}")
        trace = run_random(rng.randint(6, 16), rng.choice([2, 3, 4]),
                           20_000 + seed)
        nums = trace.instance.weight_nums
        sums = tuple(sum(val * nums[r] for r, val in col)
                     for col in fb.build_M(trace).cols)
        if sums != trace.delta_nums:
            bad += 1
        traces += 1
    _verdict(2, "step-column identity", bad == 0 and traces >= 100,
             f"{traces} traces")


def test_criterion_3_nullification_and_relabeling():
    bad = traces = 0
    for seed in range(200):
        rng = random.Random(f"c3:{seed}")
        k = rng.choice([2, 3, 4])
        trace = run_random(rng.randint(6, 14), k, 30_000 + seed)
        mode = "pairs" if k == 2 else "cycles"
        p = fb.build_P(trace, mode)
        stats = fb.occurrence_stats(trace.moves)
        ok = all(u in stats.moving and v in stats.moving
                 for r in p.row_support()
                 for (u, v) in [trace.instance.edges[r]])
        still = [v for v in range(trace.instance.n) if v not in stats.moving]
        tau_alt = list(trace.tau0)
        for v in still:
            tau_alt[v] = rng.randint(1, k)
        alt = fb.replay(trace.instance, tuple(tau_alt), trace.moves)
        ok = ok and fb.build_P(alt, mode).cols == p.cols
        if not ok:
            bad += 1
        traces += 1
    _verdict(3, "nullification and relabel invariance",
             bad == 0 and traces >= 200, f"{traces} traces")


def test_criterion_4_certificate_soundness(k2_blocks, k3_blocks, k4_traces):
    bad = built = 0
    for sub in k2_blocks:
        graph, _ = fb.build_k2_certificate(sub, BETA)
        verdict = fb.validate_certificate(graph, sub)
        rank = fb.exact_rank(fb.build_P(sub, "pairs"))
        if not verdict.valid or rank < graph.n_arcs:
            bad += 1
        built += 1
    for sub in k3_blocks:
        graph, _ = fb.build_3cut_certificate(sub)
        verdict = fb.validate_certificate(graph, sub)
        rank = fb.exact_rank(fb.build_P(sub, "cycles"))
        if not verdict.valid or rank < graph.n_arcs:
            bad += 1
        built += 1
    for trace in k4_traces:
        graph, _ = fb.build_half_certificate(trace, check_rank=False)
        verdict = fb.validate_certificate(graph, trace)
        rank = fb.exact_rank(fb.build_P(trace, "cycles"))
        if not verdict.valid or rank < graph.n_arcs:
            bad += 1
        built += 1
    _verdict(4, "certificate soundness", bad == 0 and built >= 300,
             f"{built} certificates, {bad} failures")


def test_criterion_5_rank_bounds(k2_blocks, k3_blocks, k4_traces):
    t0 = time.time()
    viol = 0
    assert len(k2_blocks) >= 100
    for sub in k2_blocks:
        stats = fb.occurrence_stats(sub.moves)
        rank = fb.exact_rank(fb.build_P(sub, "pairs"))
        if rank < BETA.ceil_rank_bound(stats.s):
            viol += 1
    assert len(k3_blocks) >= 100
    for sub in k3_blocks:
        stats = fb.occurrence_stats(sub.moves)
        rank = fb.exact_rank(fb.build_P(sub, "cycles"))
        if rank < -(-stats.s // 32):
            viol += 1
    assert len(k4_traces) >= 100
    for trace in k4_traces:
        cyc, _ = fb.classify_cyclic(trace.moves)
        rank = fb.exact_rank(fb.build_P(trace, "cycles"))
        if rank < -(-len(cyc) // 2):
            viol += 1
    elapsed = time.time() - t0
    _verdict(5, "rank lower bounds", viol == 0 and elapsed < 1800,
             f"{len(k2_blocks)}+{len(k3_blocks)}+{len(k4_traces)} cases, "
             f"{viol} violations, {elapsed:.1f}s")


def test_criterion_6_block_existence():
    bad = 0
    # critical blocks on every window of length ceil((1+beta)n)
    for seed in range(100):
        rng = random.Random(f"c6a:{seed}")
        n = rng.randint(4, 24)
        moves = random_moves(n, 2, BETA.ceil_threshold(n), 40_000 + seed)
        try:
            block = fb.find_critical_block(moves, BETA)
            if block.length != BETA.ceil_threshold(block.stats().s):
                bad += 1
        except fb.BlockNotFoundError:
            bad += 1
    # alpha-cyclic blocks on every window of length k*n
    for seed in range(100):
        rng = random.Random(f"c6b:{seed}")
        k = rng.choice([2, 3, 4])
        n = rng.randint(3, 12)
        moves = random_moves(n, k, k * n, 50_000 + seed)
        try:
            block = fb.find_alpha_cyclic_block(moves, k, Fraction(k), n)
            cyc, _ = fb.classify_cyclic(block.seq)
            if not cyclic_ratio_qualifies(len(cyc), block.length, k,
                                          Fraction(k), n):
                bad += 1
        except fb.BlockNotFoundError:
            bad += 1
    # surplus subadditivity z(B) <= z(B1) + z(B2) + (2k-1)c(B)
    splits = 0
    for seed in range(500):
        rng = random.Random(f"c6c:{seed}")
        k = rng.choice([2, 3, 4])
        n = rng.randint(3, 10)
        moves = random_moves(n, k, rng.randint(2, 4 * n), 60_000 + seed)
        cyc, _ = fb.classify_cyclic(moves)
        z = fb.surplus(moves)
        for _ in range(20):
            cut = rng.randint(1, len(moves) - 1)
            z1 = fb.surplus(moves[:cut])
            z2 = fb.surplus(moves[cut:])
            if z > z1 + z2 + (2 * k - 1) * len(cyc):
                bad += 1
            splits += 1
    _verdict(6, "block existence and surplus subadditivity",
             bad == 0 and splits >= 10_000, f"{splits} splits")


def test_criterion_7_monte_carlo_tail_bounds():
    t0 = time.time()
    phi, eps = Fraction(1), Fraction(1, 20)
    ok = True
    details = []
    # k=1: estimate equals phi*eps within 3 sigma at 10^6 samples
    res = fb.mc_slow_bound([[1, 0]], phi, eps, 1_000_000, 71)
    exact = float(phi * eps)
    ok &= abs(res.estimate_cumulative - exact) <= 3 * res.stderr_cumulative
    details.append(f"k=1 est {res.estimate_cumulative:.5f} vs {exact:.5f}")
    # k=2,3: coordinate vectors vs the closed-form simplex/box volumes
    for k in (2, 3):
        vectors = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
        res = fb.mc_slow_bound(vectors, phi, eps, 1_000_000, 72 + k)
        simplex = float(phi * eps) ** k / __import__("math").factorial(k)
        box = float(phi * eps) ** k
        ok &= res.estimate_cumulative <= simplex + 3 * res.stderr_cumulative
        ok &= abs(res.estimate_cumulative - simplex) <= 3 * res.stderr_cumulative
        ok &= res.estimate_interval <= box + 3 * res.stderr_interval
        details.append(f"k={k} est {res.estimate_cumulative:.2e} "
                       f"vs {simplex:.2e}")
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _verdict(7, "Monte Carlo tail bounds", ok,
             "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_8_approximation_guarantee():
    rows = []
    for k in (2, 3):
        cfg = ExperimentConfig(mode="approx", n_grid=(8, 10), k=k,
                               phi_grid=(Fraction(1),), trials=50, seed=81)
        _, out = fb.approx_check(cfg)
        rows.extend(out)
    bad = sum(1 for r in rows if r["ok"] != 1)
    _verdict(8, "local optima within (1-1/k) of OPT",
             bad == 0 and len(rows) >= 200, f"{len(rows)} runs")


def test_criterion_9_termination_and_determinism():
    cfg = ExperimentConfig(mode="scaling", n_grid=(32, 64, 128), k=2,
                           phi_grid=(Fraction(1), Fraction(10)), trials=2,
                           rule="first", seed=91, cap=10 ** 6)
    fields, rows = fb.run_experiment(cfg)
    trials = [r for r in rows if r["row_type"] == "trial"]
    ok = all(r["cap_hit"] == 0 and r["steps"] < cfg.cap for r in trials)
    report = []
    for r in rows:
        if r["row_type"] == "summary":
            report.append(f"n={r['n']} phi={r['phi']} max_steps={r['steps']} "
                          f"bound={r['bound']}")
    csv1 = fb.rows_to_csv(fields, rows)
    csv2 = fb.rows_to_csv(*fb.run_experiment(cfg))
    ok &= csv1 == csv2
    mc_cfg = ExperimentConfig(mode="mc", phi_grid=(Fraction(1),),
                              samples=50_000, seed=92)
    ok &= fb.rows_to_csv(*fb.run_experiment(mc_cfg)) == \
        fb.rows_to_csv(*fb.run_experiment(mc_cfg))
    print("observed max steps vs reference bounds: " + "; ".join(report))
    _verdict(9, "termination below cap and byte-identical CSVs", ok)
