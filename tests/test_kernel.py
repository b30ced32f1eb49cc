"""The step-sign kernel against a from-definition per-step loop.

Every step column, combined column and recorded delta is recomputed here
by walking the configuration one move at a time over the instance's edge
list, without the kernel's edge-index matrix or numpy.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import flipbench as fb
from flipbench import certificates, model

from conftest import random_tau0, run_random


def definition_steps(inst, tau0, moves):
    """(sorted (edge, sign) column, delta numerator) of every step."""
    tau = list(tau0)
    out = []
    for v, p, q in moves:
        col = []
        for e, (a, b) in enumerate(inst.edges):
            if v in (a, b):
                u = b if a == v else a
                if tau[u] == p:
                    col.append((e, 1))
                elif tau[u] == q:
                    col.append((e, -1))
        out.append((tuple(col), sum(s * inst.weight_nums[e] for e, s in col)))
        tau[v] = q
    return out


def definition_combined(cols, groups):
    out = []
    for ts in groups:
        acc = {}
        for t in ts:
            for e, s in cols[t - 1]:
                acc[e] = acc.get(e, 0) + s
        out.append(tuple(sorted((e, x) for e, x in acc.items() if x)))
    return tuple(out)


def random_walk(inst, length, rng):
    """A valid, not necessarily improving, trace from a random start."""
    tau0 = tuple(rng.randint(1, inst.k) for _ in range(inst.n))
    tau = list(tau0)
    moves = []
    for _ in range(length):
        v = rng.randrange(inst.n)
        q = rng.choice([x for x in range(1, inst.k + 1) if x != tau[v]])
        moves.append(fb.Move(v, tau[v], q))
        tau[v] = q
    return fb.replay(inst, tau0, moves)


def shuffled_edges(inst, rng):
    """The same graph and weights with the edge list in random order."""
    order = list(range(inst.m))
    rng.shuffle(order)
    return fb.Instance(n=inst.n, k=inst.k, edges=tuple(inst.edges[i] for i in order),
                       weight_nums=tuple(inst.weight_nums[i] for i in order),
                       denom=inst.denom, phi=inst.phi)


def corpus():
    rng = random.Random("kernel")
    isolated = 0
    for k in (2, 3, 4, 5):
        for kind, p in (("complete", 0.5), ("gnp", 0.4), ("gnp", 0.12)):
            for seed in range(3):
                n = rng.randint(5, 14)
                inst = fb.make_instance(kind, n, k, fb.SmoothingProfile(phi=1, seed=seed), p=p)
                degree = (inst.edge_ids() >= 0).sum(axis=1)
                isolated += int((degree == 0).any())
                if seed == 2:
                    inst = shuffled_edges(inst, rng)
                tau0 = random_tau0(n, k, seed)
                yield fb.run_flip(inst, tau0, fb.PivotRule(variant="best", seed=seed))
                yield random_walk(inst, rng.randint(1, 40), rng)
                yield fb.replay(inst, tau0, [])
    assert isolated >= 3


def test_kernel_matches_the_definition():
    for trace in corpus():
        inst = trace.instance
        steps = definition_steps(inst, trace.tau0, trace.moves)
        cols = tuple(col for col, _ in steps)
        assert tuple(d for _, d in steps) == trace.delta_nums
        fb.verify_trace(trace)
        m = fb.build_M(trace)
        assert m.cols == cols and m.n_cols == len(trace)
        for mode in ("pairs", "cycles"):
            p = fb.build_P(trace, mode)
            groups = [(c.t1, c.t2) if mode == "pairs" else c.times for c in p.col_labels]
            assert p.cols == definition_combined(cols, groups)


def test_empty_trace():
    inst = fb.make_instance("complete", 6, 3, fb.SmoothingProfile(phi=1, seed=1))
    trace = fb.replay(inst, random_tau0(6, 3, 1), [])
    fb.verify_trace(trace)
    assert fb.build_M(trace).cols == ()
    assert fb.build_P(trace, "pairs").cols == fb.build_P(trace, "cycles").cols == ()
    assert fb.exact_rank(fb.build_M(trace)) == 0


def test_chunk_boundaries(monkeypatch):
    # three steps per chunk: configurations carry across chunk boundaries;
    # the chunked matrix is built on a second Trace, since each trace
    # keeps the step matrix it built first
    trace = random_walk(fb.make_instance("gnp", 9, 4, fb.SmoothingProfile(phi=1, seed=3),
                                         p=0.5), 40, random.Random(7))
    whole = fb.build_M(trace).cols
    monkeypatch.setattr(model, "_CHUNK_CELLS", 3 * trace.instance.n)
    chunks = list(model.sequence_chunks(trace.instance, trace.tau0, trace.moves))
    assert [lo for lo, *_ in chunks] == list(range(0, 40, 3))
    steps = definition_steps(trace.instance, trace.tau0, trace.moves)
    again = fb.replay(trace.instance, trace.tau0, trace.moves)
    assert fb.build_M(again) is not fb.build_M(trace)
    assert fb.build_M(again).cols == whole == tuple(col for col, _ in steps)
    fb.verify_trace(trace)
    forged = list(trace.steps)
    forged[30] = (forged[30][0], forged[30][1] + 1)
    with pytest.raises(fb.ModelError, match="delta mismatch at step 31"):
        fb.verify_trace(fb.Trace(instance=trace.instance, tau0=trace.tau0,
                                 steps=tuple(forged)))


def test_beyond_int64_stays_python_ints():
    # denom 2**70 puts the weights on Python ints; recorded deltas are
    # compared as Python ints, never cast to int64
    inst = fb.make_instance("complete", 10, 3, fb.SmoothingProfile(phi=1, seed=9),
                            denom=2 ** 70)
    trace = fb.run_flip(inst, random_tau0(10, 3, 9), fb.PivotRule(variant="best"))
    steps = definition_steps(inst, trace.tau0, trace.moves)
    assert tuple(d for _, d in steps) == trace.delta_nums
    assert max(trace.delta_nums) >= 2 ** 63
    fb.verify_trace(trace)
    assert fb.build_M(trace).cols == tuple(col for col, _ in steps)
    tau = trace.tau0
    deltas = model.step_deltas(inst, np.array([tau]), np.array([trace.moves[0]]))
    assert deltas.dtype == object and type(deltas[0]) is int
    assert fb.cut_value(inst, tau) == Fraction(
        sum(num for (u, v), num in zip(inst.edges, inst.weight_nums) if tau[u] != tau[v]),
        inst.denom)
    for small in (inst, run_random(10, 3, 9).instance):
        ref = fb.run_flip(small, random_tau0(10, 3, 9), fb.PivotRule(variant="best"))
        forged = ((ref.steps[0][0], 2 ** 80),) + ref.steps[1:]
        with pytest.raises(fb.ModelError, match="delta mismatch at step 1"):
            fb.verify_trace(fb.Trace(instance=small, tau0=ref.tau0, steps=forged))


def _half_certificate_with_arcs(min_arcs):
    for seed in range(600, 640):
        trace = run_random(14, 4, seed)
        graph, _ = fb.build_half_certificate(trace, check_rank=False)
        if graph.n_arcs >= min_arcs:
            return trace, graph
    pytest.fail("no half certificate with enough arcs")


@pytest.fixture()
def fallbacks(monkeypatch):
    calls = []
    real = certificates._row_rank

    def counting(red, p=None):
        if p is None:
            calls.append(len(red))
        return real(red, p)

    monkeypatch.setattr(certificates, "_row_rank", counting)
    return calls


def _labels(trace, arcs):
    """The P column labels of the arcs' witnesses."""
    by_witness = {(c.v, c.times): c for c in fb.build_P(trace, "cycles").col_labels}
    return tuple(by_witness[(arc.v, arc.witness)] for arc in arcs)


def _plant(monkeypatch, planted):
    """Let the validator read planted as the trace's P."""
    monkeypatch.setattr(certificates, "build_P", lambda trace, mode: planted)


def test_validator_proves_full_rank_mod_p_without_fallback(fallbacks):
    trace, graph = _half_certificate_with_arcs(3)
    assert fb.validate_certificate(graph, trace) == certificates.Verdict(valid=True)
    assert fallbacks == []


def test_validator_falls_back_on_a_planted_deficiency(fallbacks, monkeypatch):
    trace, graph = _half_certificate_with_arcs(3)
    # a P of the arcs' witness columns, each holding 1 on every arc's edge
    # row: the witness rows are equal, so they have rank 1, which the
    # rational elimination must confirm and report
    arcs = graph.arcs
    rows = sorted(trace.instance.edge_index(arc.u, arc.v) for arc in arcs)
    _plant(monkeypatch, fb.SignMatrix(
        n_rows=trace.instance.m, ptr=np.arange(len(arcs) + 1) * len(rows),
        rows=np.tile(rows, len(arcs)), vals=np.ones(len(arcs) * len(rows), dtype=np.int64),
        col_labels=_labels(trace, arcs)))
    verdict = fb.validate_certificate(graph, trace)
    assert verdict == certificates.Verdict(
        valid=False, reason=f"witness rows have rank 1, expected {graph.n_arcs}")
    assert fallbacks == [graph.n_arcs]


def test_validator_fallback_overrules_an_unlucky_prime(fallbacks, monkeypatch):
    # a witness row whose only entry is the validator's prime vanishes mod
    # p but is independent over Q: the fallback must accept it
    trace, graph = _half_certificate_with_arcs(1)
    arc = graph.arcs[0]
    one = certificates.CertificateGraph(arcs_by_tail={arc.v: (arc,)})
    e = trace.instance.edge_index(arc.u, arc.v)
    _plant(monkeypatch, fb.SignMatrix(
        n_rows=trace.instance.m, ptr=np.array([0, 1]), rows=np.array([e]),
        vals=np.array([certificates._VALIDATOR_PRIME]), col_labels=_labels(trace, [arc])))
    assert fb.validate_certificate(one, trace).valid
    assert fallbacks == [1]
    assert certificates._row_rank(np.array([[0]]), certificates._VALIDATOR_PRIME) == 0
    assert certificates._VALIDATOR_PRIME != fb.matrices._PRIME
