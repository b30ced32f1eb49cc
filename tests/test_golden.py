"""Golden digests: fixed configs and CLI runs must reproduce their bytes.

Each digest is the sha256 of a workload's whole output: the CSV text of
every config in a mode, or every `flipbench certify` stdout and exit
code over a corpus of traces.  A campaign that raises contributes its
error message instead of a CSV.  The values were recorded before the
certificate builders read their witness columns from the trace's P
(`certify_3cut` before the certificate-mode table took over the rank
campaign's per-k choices, `window_arcs_3cut` before the 3cut windows
read one run list per cyclic vertex, `flip_traces` before run_flip's state
went part-major with per-run score buffers), and pin that refactors keep
every output byte-identical.
"""

import hashlib
from fractions import Fraction

import numpy as np

import flipbench as fb
from flipbench import certificates, harness
from flipbench.cli import main
from flipbench.harness import ExperimentConfig
from flipbench.thresholds import Beta

from conftest import random_tau0, run_random, smoothed_instance, synth_3cut_blocks

GOLDEN = {
    "scaling": "1415354cca9488fd7603183d36bb197499fa4e4c39941386c2cf68d619382caa",
    "mc": "8d117e8430db1c2db1e8fee0252e415eefd741db57a8a3952617c1b2b38ebbc2",
    "approx": "c8ed083e1404cd5e8aaf7fefed0a036784e724ce2669d1290d4cacd30b886d32",
    "rank": "c83de74e6ecba5767aaea7697434dd52c6333695bd8e1915c018824f37184fe1",
    "rank_short_window": "1272fd0fcf48c1f43f23b3d027181a8c0ba40820833bfa1133b55b904ac86c57",
    "certify_k2": "a972f7d18801b9cb6a89dc5f9f3699d7fc7c05fe5ae1bb089a50d6f6202c55c8",
    "certify_half": "ccb7bb164c8ae6a54bfe3888fe70c91e3413cd0274975434fce55ce11eb5ba52",
    "certify_3cut": "8a147793511e6451fb3e16d83b07c250defe23657b018acae18116cc3457c233",
    "window_arcs_3cut": "0c10cdaf9ff97b342fe33f42ee4b507a2140dc075a9bf8a00f41b9f846a8cfae",
    "flip_traces": "412f435e0f9712cb5c16babeef5664c6914b1ba02cce5586f3ca535d50391789",
}

CONFIGS = {
    "scaling": [
        dict(n_grid=(8, 12), phi_grid=(Fraction(1), Fraction(2)), k=2, trials=3, seed=5),
        dict(n_grid=(10,), k=3, trials=3, seed=6, rule="best", graph="gnp", p=0.6),
        dict(n_grid=(9,), k=4, trials=2, seed=7, rule="random", cap=5),
    ],
    "mc": [dict(phi_grid=(Fraction(1), Fraction(3, 2)), samples=20_000,
                eps=Fraction(1, 10), seed=4)],
    "approx": [dict(n_grid=(6, 8), k=2, trials=2, seed=2),
               dict(n_grid=(7,), phi_grid=(Fraction(1), Fraction(5, 4)), k=3,
                    trials=2, seed=3)],
    "rank": [dict(n_grid=(8, 12), k=2, trials=3, seed=3),
             dict(n_grid=(8,), k=3, trials=2, seed=4),
             dict(n_grid=(8,), k=4, trials=2, seed=5)],
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def _csv(cfg) -> str:
    try:
        return fb.rows_to_csv(*fb.run_experiment(cfg))
    except fb.ModelError as exc:
        return f"error: {type(exc).__name__}: {exc}"


def _certify_outputs(tmp_path, capsys, traces, mode):
    for i, trace in enumerate(traces):
        ipath, tpath = tmp_path / f"inst{i}.txt", tmp_path / f"trace{i}.txt"
        ipath.write_text(trace.instance.to_text())
        tpath.write_text(fb.trace_to_text(trace))
        code = main(["certify", "--instance", str(ipath), "--trace", str(tpath),
                     "--mode", mode])
        yield f"{capsys.readouterr().out}exit {code}\n"


def _natural_k2_blocks():
    beta = Beta.sqrt_half()
    for seed in range(40):
        trace = run_random((16, 24, 32)[seed % 3], 2, 900 + seed)
        try:
            block = fb.find_critical_block(trace.moves, beta)
        except fb.BlockNotFoundError:
            continue
        yield fb.slice_trace(trace, block.t1, block.t2)


def _window_arcs_3cut():
    """Each cyclic vertex's window arcs (v, u, witness), or the error that
    refused them, over natural complete k=3 runs of every pivot rule: the
    3cut corpus above certifies its half graph on every block, so only
    this digest pins the leaping-cycle windows."""
    rules = ("first", "best", "random")
    for n in (16, 24, 32):
        for seed in range(30):
            trace = run_random(n, 3, 700 + seed, rule=rules[seed % 3])
            runs, acyclic = certificates._cyclic_runs(trace.moves)
            for v in sorted(runs):
                try:
                    arcs = [(a.v, a.u, a.witness)
                            for a in certificates._window_arcs(trace, v, runs[v], acyclic)]
                except fb.CertificateError as exc:
                    arcs = f"error: {exc}"
                yield f"{n} {seed} {v} {arcs}"


def _flip_traces():
    """The trace file of every run_flip run over a corpus: k = 2..5 at
    n = 24 and 64 on complete and G(n, 1/2) instances, every rule at the
    default cap and at caps 5 and 0, the Python-int state of a
    denom = 2**70 instance at k = 2 and 3, and one numpy-array start."""
    runs = []
    for k in (2, 3, 4, 5):
        for n in (24, 64):
            for kind in ("complete", "gnp"):
                inst = smoothed_instance(n, k, 100 * k + n, kind=kind)
                runs.append((inst, random_tau0(n, k, (kind, n, k))))
    for k in (2, 3):
        wide = fb.make_instance("complete", 24, k, fb.SmoothingProfile(phi=1, seed=k),
                                denom=2 ** 70)
        runs.append((wide, random_tau0(24, k, ("wide", k))))
    for inst, tau0 in runs:
        for variant in fb.engine.PIVOT_RULES:
            rule = fb.PivotRule(variant=variant, seed=inst.n + inst.k)
            for cap in (fb.engine.DEFAULT_CAP, 5, 0):
                yield fb.trace_to_text(fb.run_flip(inst, tau0, rule, cap=cap))
    inst = smoothed_instance(64, 3, 7)
    yield fb.trace_to_text(fb.run_flip(inst, np.array(random_tau0(64, 3, 7))))


def compute_digests(tmp_path, capsys, monkeypatch) -> dict:
    out = {mode: _digest(_csv(ExperimentConfig(mode=mode, **kw)) for kw in configs)
           for mode, configs in CONFIGS.items()}
    monkeypatch.setattr(harness, "window_length", lambda k, beta, n: n // 2)
    out["rank_short_window"] = _digest(
        _csv(ExperimentConfig(mode="rank", n_grid=(24,), k=k, trials=1, seed=seed))
        for k, seeds in ((2, (0, 1, 12, 13, 22)), (3, (0, 1)), (4, range(4)))
        for seed in seeds)
    out["certify_k2"] = _digest(
        _certify_outputs(tmp_path, capsys, _natural_k2_blocks(), "k2"))
    out["certify_half"] = _digest(_certify_outputs(
        tmp_path, capsys, (run_random(14, 4, 600 + s) for s in range(12)), "half"))
    out["certify_3cut"] = _digest(
        _certify_outputs(tmp_path, capsys, synth_3cut_blocks(10), "3cut"))
    out["window_arcs_3cut"] = _digest(_window_arcs_3cut())
    out["flip_traces"] = _digest(_flip_traces())
    return out


def test_outputs_match_their_golden_digests(tmp_path, capsys, monkeypatch):
    assert compute_digests(tmp_path, capsys, monkeypatch) == GOLDEN
