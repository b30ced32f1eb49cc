"""Certificates: good arcs, constructions for k=2/3/general, validation."""

from fractions import Fraction

import pytest

import flipbench as fb
from flipbench import certificates
from flipbench.certificates import Arc, CertificateGraph
from flipbench.thresholds import Beta

from conftest import (MatrixBuilds, good_arc, random_moves, run_random,
                      smoothed_instance, synth_3cut_blocks, synth_traces)


def _k2_trace(moves, n=3):
    inst = smoothed_instance(n, 2, 123)
    return fb.replay(inst, tuple([1] * n), moves)


def _witness_entry(trace, times, e):
    """Entry on edge row e of the sum of the step columns at times."""
    m = fb.build_M(trace)
    return sum(dict(m.cols[t - 1]).get(e, 0) for t in times)


def _one_arc(v, u, witness):
    return CertificateGraph(arcs_by_tail={v: (Arc(v, u, witness),)})


def test_good_arc_odd_parity():
    # v moves at 1 and 3, u once in between: arc v->u is good
    trace = _k2_trace([fb.Move(0, 1, 2), fb.Move(1, 1, 2), fb.Move(0, 2, 1)])
    good, wit = good_arc(trace, 0, 1)
    assert good and wit == (1, 3)
    e = trace.instance.edge_index(0, 1)
    assert _witness_entry(trace, wit, e) != 0
    assert fb.validate_certificate(_one_arc(0, 1, wit), trace).valid


def test_good_arc_even_parity_fails():
    # u moves twice between the pair: entry cancels, arc not good
    trace = _k2_trace([fb.Move(0, 1, 2), fb.Move(1, 1, 2),
                       fb.Move(1, 2, 1), fb.Move(0, 2, 1)])
    good, wit = good_arc(trace, 0, 1)
    assert not good and wit is None
    e = trace.instance.edge_index(0, 1)
    assert _witness_entry(trace, (1, 4), e) == 0
    verdict = fb.validate_certificate(_one_arc(0, 1, (1, 4)), trace)
    assert verdict.reason == "arc 0->1: witness entry is zero"


def test_good_arc_requires_edge_and_sane_endpoints():
    inst = fb.Instance(n=3, k=2, edges=((0, 1),), weight_nums=(5,))
    trace = fb.replay(inst, (1, 1, 1),
                      [fb.Move(0, 1, 2), fb.Move(2, 1, 2), fb.Move(0, 2, 1)])
    good, _ = good_arc(trace, 0, 2)  # odd parity but edge {0,2} missing
    assert not good
    for graph, reason in ((_one_arc(0, 2, (1, 3)), "arc 0->2: edge missing"),
                          # vertex 1 does not move
                          (_one_arc(1, 0, (1, 3)),
                           "arc 1->0: witness (1, 3) is not a pair or cycle of vertex 1"),
                          (_one_arc(0, 0, (1, 3)), "graph has a directed cycle")):
        assert fb.validate_certificate(graph, trace).reason == reason


def test_good_arc_general_k_matches_cycle_scan():
    # the validator accepts a one-arc certificate exactly when the
    # definition finds its witness good
    traces = synth_traces(8, 3, 4, 12, want=2, seed0=500)
    assert traces
    for trace in traces:
        inst = trace.instance
        cyc_set = fb.cycles(trace.moves, 3)
        stats = fb.occurrence_stats(trace.moves)
        for v in sorted(stats.moving)[:3]:
            for u in range(inst.n):
                if u == v:
                    continue
                good, wit = good_arc(trace, v, u)
                e = inst.edge_index(u, v)
                want = any(_witness_entry(trace, c.times, e) != 0
                           for c in cyc_set.cycles if c.v == v)
                assert good == want
                if good:
                    assert _witness_entry(trace, wit, e) != 0
                for c in cyc_set.cycles:
                    if c.v == v:
                        hit = e is not None and _witness_entry(trace, c.times, e) != 0
                        verdict = fb.validate_certificate(_one_arc(v, u, c.times), trace)
                        assert verdict.valid == hit


def _collect_k2_blocks(want, seed0=0, with_singletons=True):
    beta = Beta.sqrt_half()
    out = []
    seed = seed0
    while len(out) < want and seed < seed0 + 400:
        n = (16, 24, 32)[seed % 3]
        trace = run_random(n, 2, seed)
        seed += 1
        try:
            block = fb.find_critical_block(trace.moves, beta)
        except fb.BlockNotFoundError:
            continue
        sub = fb.slice_trace(trace, block.t1, block.t2)
        if with_singletons and not fb.occurrence_stats(sub.moves).singletons:
            continue
        out.append(sub)
    return out


def test_k2_certificate_on_natural_blocks():
    beta = Beta.sqrt_half()
    blocks = _collect_k2_blocks(8, seed0=100)
    assert len(blocks) == 8
    for sub in blocks:
        graph, bound = fb.build_k2_certificate(sub, beta)
        stats = fb.occurrence_stats(sub.moves)
        assert bound == max(stats.s2, beta.ceil_singleton_bound(stats.s1))
        assert bound >= beta.ceil_rank_bound(stats.s)
        verdict = fb.validate_certificate(graph, sub)
        assert verdict.valid, verdict.reason
        rank = fb.exact_rank(fb.build_P(sub, "pairs"))
        assert rank >= graph.n_arcs
        assert rank >= bound


def test_k2_certificate_refuses_non_critical_blocks():
    beta = Beta.sqrt_half()
    trace = _k2_trace([fb.Move(0, 1, 2), fb.Move(1, 1, 2), fb.Move(2, 1, 2)])
    with pytest.raises(fb.CertificateError):
        fb.build_k2_certificate(trace, beta)  # s=3, ell=3 < (1+beta)*3
    wrong_k = run_random(8, 3, 1)
    with pytest.raises(fb.CertificateError):
        fb.build_k2_certificate(wrong_k, beta)


def test_leaping_cycle_and_3cut_on_synthesized_blocks():
    subs = synth_3cut_blocks(4)
    assert len(subs) == 4
    for sub in subs:
        assert all(d > 0 for d in sub.delta_nums)
        graph, bound = fb.build_3cut_certificate(sub)
        stats = fb.occurrence_stats(sub.moves)
        assert bound >= -(-stats.s // 32)
        verdict = fb.validate_certificate(graph, sub)
        assert verdict.valid, verdict.reason
        assert fb.exact_rank(fb.build_P(sub, "cycles")) >= bound


def test_3cut_certificate_builds_one_cyclic_view(monkeypatch):
    # the window arcs, their leaping cycles and the trickiness checks all
    # read the one run list the builder computes
    calls = []
    real = certificates._cyclic_runs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certificates, "_cyclic_runs", counted)
    for sub in synth_3cut_blocks(10):
        calls.clear()
        fb.build_3cut_certificate(sub)
        assert len(calls) == 1
        # the runs' cyclic and acyclic sets are the one cyclic rule's
        runs, acyclic = real(sub.moves)
        assert (set(runs), acyclic) == fb.classify_cyclic(sub.moves)

    # each cyclic vertex's runs are its steps grouped by the cyclic
    # segments of the block decomposition
    split = 0
    for seed in range(200):
        k = 2 + seed % 4
        moves = random_moves(10, k, 25, seed)
        runs, acyclic = real(moves)
        split += sum(len(r) >= 2 for r in runs.values())
        grouped: dict = {}
        for seg in fb.cyclic_acyclic_blocks(moves):
            if seg.special:
                for t in range(seg.t1, seg.t2 + 1):
                    grouped.setdefault(moves[t - 1].v, {}).setdefault(seg.t1, []).append(t)
        assert runs == {v: list(by_seg.values()) for v, by_seg in grouped.items()}
        assert acyclic == {m.v for m in moves} - set(runs)
    assert split >= 500


def test_3cut_requires_complete_improving_k3():
    k4 = run_random(8, 4, 3)
    with pytest.raises(fb.CertificateError):
        fb.build_3cut_certificate(k4)
    inst = fb.Instance(n=2, k=3, edges=((0, 1),), weight_nums=(7,))
    bad = fb.replay(inst, (1, 1), [fb.Move(0, 1, 2), fb.Move(0, 2, 1)])
    with pytest.raises(fb.CertificateError):
        fb.build_3cut_certificate(bad)  # non-improving (and not complete)


def test_half_certificate_on_natural_k4_traces():
    done = 0
    for seed in range(20):
        trace = run_random(14, 4, 600 + seed)
        cyc, _ = fb.classify_cyclic(trace.moves)
        graph, bound = fb.build_half_certificate(trace, check_rank=True)
        assert 2 * bound >= len(cyc)
        verdict = fb.validate_certificate(graph, trace)
        assert verdict.valid, verdict.reason
        if cyc:
            done += 1
    assert done >= 5


def test_half_certificate_refuses_non_improving():
    inst = fb.Instance(n=2, k=2, edges=((0, 1),), weight_nums=(7,))
    bad = fb.replay(inst, (1, 1), [fb.Move(0, 1, 2), fb.Move(0, 2, 1)])
    with pytest.raises(fb.CertificateError):
        fb.build_half_certificate(bad)


def test_half_certificate_breaks_a_loop_at_its_smallest_node():
    # each cyclic vertex's first pair and its smallest head: 0 (1,4) -> 2,
    # 1 (2,5) -> 2 and 2 (3,8) -> 1, where vertex 0 moves twice inside
    # (3,8); the walk from 0 runs 0, 2, 1 and closes at 2, yet the arc
    # dropped is the one leaving the loop's smallest node, 1
    inst = fb.Instance(n=6, k=2, edges=((0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5),
                                        (2, 3), (2, 4), (3, 4)),
                       weight_nums=(-1, -1, 1, -1, -4, -4, 1, -2, -4), denom=4)
    trace = fb.replay(inst, (2, 2, 1, 1, 2, 2), [
        fb.Move(0, 2, 1), fb.Move(1, 2, 1), fb.Move(2, 1, 2), fb.Move(0, 1, 2),
        fb.Move(1, 1, 2), fb.Move(4, 2, 1), fb.Move(0, 2, 1), fb.Move(2, 2, 1),
        fb.Move(3, 1, 2)])
    assert all(d > 0 for d in trace.delta_nums)
    assert good_arc(trace, 1, 2) == (True, (2, 5))
    graph, bound = fb.build_half_certificate(trace)
    assert graph.arcs == (Arc(0, 2, (1, 4)), Arc(2, 1, (3, 8)))
    assert bound == 2 and fb.validate_certificate(graph, trace).valid


def test_half_certificate_reads_only_the_cyclic_set(monkeypatch):
    # one arc per cyclic vertex needs the cyclic set, not the run lists
    def refused(*args):
        raise AssertionError("half certificate built the cyclic run lists")

    monkeypatch.setattr(certificates, "_cyclic_runs", refused)
    built = 0
    for seed in range(10):
        trace = run_random(14, 4, 600 + seed)
        graph, _ = fb.build_half_certificate(trace, check_rank=False)
        cyc, _ = fb.classify_cyclic(trace.moves)
        assert set(graph.arcs_by_tail) <= cyc and 2 * graph.n_arcs >= len(cyc)
        built += graph.n_arcs > 0
    assert built >= 3


def test_certify_dispatches_by_mode():
    trace = run_random(12, 4, 606)
    graph, bound = fb.build_half_certificate(trace, check_rank=False)
    verdict = fb.validate_certificate(graph, trace)
    assert fb.certify(trace, "half", Beta.sqrt_half()) == (graph, bound, verdict)
    with pytest.raises(fb.CertificateError):
        fb.certify(trace, "k4", Beta.sqrt_half())


def test_valid_verdict_bound_is_the_validated_graph():
    # a printed bound must be backed by the graph that was validated: the
    # k2 bound is the lemma's max{s2, ceil(beta/(1+beta) s1)}, which its
    # graph meets or exceeds; 3cut and half report their graph's size
    beta = Beta.sqrt_half()
    blocks = {"k2": _collect_k2_blocks(8, seed0=100), "3cut": synth_3cut_blocks(10),
              "half": [run_random(14, 4, 600 + s) for s in range(10)]}
    assert set(blocks) == set(fb.certificates.CERTIFICATE_MODES)
    assert len(blocks["3cut"]) == 10
    for mode, subs in blocks.items():
        for sub in subs:
            graph, bound, verdict = fb.certify(sub, mode, beta)
            assert verdict.valid, verdict.reason
            if mode == "k2":
                assert bound <= graph.n_arcs
            else:
                assert bound == graph.n_arcs


def test_validate_rejects_fabricated_arcs():
    trace = _k2_trace([fb.Move(0, 1, 2), fb.Move(1, 1, 2),
                       fb.Move(1, 2, 1), fb.Move(0, 2, 1)])
    # witness entry on {0,1} is zero (even parity)
    bogus = CertificateGraph(arcs_by_tail={0: (Arc(0, 1, (1, 4)),)})
    verdict = fb.validate_certificate(bogus, trace)
    assert not verdict.valid and "zero" in verdict.reason


def test_validate_rejects_witness_steps_outside_the_trace():
    trace = _k2_trace([fb.Move(0, 1, 2), fb.Move(1, 1, 2), fb.Move(0, 2, 1),
                       fb.Move(1, 2, 1)])
    for witness in ((0, 2), (3, 5)):
        graph = CertificateGraph(arcs_by_tail={0: (Arc(0, 1, witness),)})
        verdict = fb.validate_certificate(graph, trace)
        assert not verdict.valid
        assert f"witness {witness} is not a pair or cycle of vertex 0" in verdict.reason


def test_validate_rejects_witnesses_that_are_not_columns_of_P():
    # a single step, and a pair of the head rather than the tail, both have
    # a nonzero entry on {0,1} but are no pair of vertex 0
    trace = _k2_trace([fb.Move(0, 1, 2), fb.Move(1, 1, 2), fb.Move(0, 2, 1)])
    e = trace.instance.edge_index(0, 1)
    assert _witness_entry(trace, (1,), e) != 0
    paired = _k2_trace([fb.Move(0, 1, 2), fb.Move(1, 1, 2), fb.Move(0, 2, 1),
                        fb.Move(1, 2, 1)])
    assert _witness_entry(paired, (2, 4), e) != 0
    for tr, witness in ((trace, (1,)), (paired, (2, 4))):
        graph = CertificateGraph(arcs_by_tail={0: (Arc(0, 1, witness),)})
        verdict = fb.validate_certificate(graph, tr)
        assert not verdict.valid
        assert f"witness {witness} is not a pair or cycle of vertex 0" in verdict.reason
    # the pair of vertex 0 itself is a column of P and validates
    graph = CertificateGraph(arcs_by_tail={0: (Arc(0, 1, (1, 3)),)})
    assert fb.validate_certificate(graph, trace).valid


def test_validate_rejects_directed_cycles_and_duplicate_rows():
    trace = _k2_trace([fb.Move(0, 1, 2), fb.Move(1, 1, 2), fb.Move(0, 2, 1),
                       fb.Move(1, 2, 1)])
    looped = CertificateGraph(arcs_by_tail={0: (Arc(0, 1, (1, 3)),),
                                            1: (Arc(1, 0, (2, 4)),)})
    verdict = fb.validate_certificate(looped, trace)
    assert not verdict.valid and "cycle" in verdict.reason
    doubled = CertificateGraph(arcs_by_tail={0: (Arc(0, 1, (1, 3)),
                                                 Arc(0, 1, (1, 3)))})
    verdict = fb.validate_certificate(doubled, trace)
    assert not verdict.valid


def test_validate_checks_acyclicity_of_long_chains_and_cycles():
    # 1500 arcs v -> v+1 are deeper than Python's recursion limit; the chain
    # is acyclic and fails on its first witness, the closed cycle does not
    # get that far
    trace = run_random(8, 2, 4)
    chain = CertificateGraph(arcs_by_tail={v: (Arc(v, v + 1, (0, 0)),) for v in range(1500)})
    verdict = fb.validate_certificate(chain, trace)
    assert not verdict.valid
    assert "arc 0->1: witness (0, 0) is not a pair or cycle of vertex 0" in verdict.reason
    cycle = CertificateGraph(arcs_by_tail={v: (Arc(v, (v + 1) % 1500, (0, 0)),)
                                           for v in range(1500)})
    verdict = fb.validate_certificate(cycle, trace)
    assert not verdict.valid and verdict.reason == "graph has a directed cycle"


def test_validate_rejects_broken_staircase():
    # find a pair of v with two adjacent odd-parity vertices; listing both
    # arcs with the same witness breaks the staircase zero pattern
    for seed in range(200):
        trace = run_random(16, 2, 700 + seed)
        stats = fb.occurrence_stats(trace.moves)
        for v in sorted(stats.repeating):
            ts = stats.times[v]
            for a, b in zip(ts, ts[1:]):
                inside = {}
                for t in range(a + 1, b):
                    w = trace.moves[t - 1].v
                    inside[w] = inside.get(w, 0) + 1
                odd = sorted(u for u, c in inside.items()
                             if c % 2 == 1 and u != v)
                if len(odd) >= 2:
                    graph = CertificateGraph(arcs_by_tail={
                        v: (Arc(v, odd[0], (a, b)), Arc(v, odd[1], (a, b)))})
                    verdict = fb.validate_certificate(graph, trace)
                    assert not verdict.valid
                    assert "staircase" in verdict.reason
                    return
    pytest.fail("no two-headed odd pair found in the search budget")


def test_empty_certificate_is_trivially_valid():
    trace = run_random(8, 2, 4)
    verdict = fb.validate_certificate(CertificateGraph(arcs_by_tail={}), trace)
    assert verdict == certificates.Verdict(valid=True)


def test_bound_tradeoff_identity():
    # max{(1-l)/2, l/18 - (1-l)/3} >= 1/32 for every l in [0,1]
    for i in range(0, 1001):
        lam = Fraction(i, 1000)
        a = (1 - lam) / 2
        b = lam / 18 - (1 - lam) / 3
        assert max(a, b) >= Fraction(1, 32)


def _leaping_k3_trace(b):
    """Vertex 0 flips between parts 1 and 2 b times; between two of its
    moves one fresh vertex moves 1 -> 3 once, so vertex 0 alone is cyclic,
    sits in b cyclic blocks and has (b-1)//3 leaping windows."""
    moves = [fb.Move(0, 1 + i % 2, 2 - i % 2) for i in range(b)]
    for u in range(b - 1, 0, -1):
        moves.insert(u, fb.Move(u, 1, 3))
    return fb.replay(smoothed_instance(b, 3, 77), tuple([1] * b), moves)


def test_window_passes_over_a_tricky_first_cycle():
    # vertex 0 walks 1 -> 2 -> 3 -> 1 -> 2 in four runs; vertex 1 moves
    # 1 -> 2 -> 3 across the first two gaps and vertex 2 once across the
    # third.  The first candidate, the 3-cycle (1, 3, 5), sees {1} on both
    # halves, so it is tricky; the window takes (3, 5, 7), which is not
    moves = [fb.Move(0, 1, 2), fb.Move(1, 1, 2), fb.Move(0, 2, 3), fb.Move(1, 2, 3),
             fb.Move(0, 3, 1), fb.Move(2, 1, 2), fb.Move(0, 1, 2)]
    trace = fb.replay(smoothed_instance(3, 3, 5), (1, 1, 1), moves)
    runs, acyclic = certificates._cyclic_runs(moves)
    assert runs == {0: [[1], [3], [5], [7]]} and acyclic == {1, 2}
    first = certificates._leaping_cycle(moves, *runs[0][:3])
    assert first.times == (1, 3, 5) and certificates._is_tricky(moves, first, acyclic)
    arcs = certificates._window_arcs(trace, 0, runs[0], acyclic)
    assert arcs == [Arc(0, 1, (3, 5, 7))]
    assert fb.validate_certificate(CertificateGraph({0: tuple(arcs)}), trace).valid


def test_step_matrix_built_once_per_certificate(monkeypatch):
    # builders, validator and exact rank all read the one P kept on the
    # trace: one step matrix, one P and one cycle enumeration per trace
    builds = MatrixBuilds(monkeypatch)
    one = {"M": 1, "P": 1, "cycles": 1}
    multi = 0
    for seed in range(10):
        trace = run_random(14, 4, 600 + seed)
        cyc, _ = fb.classify_cyclic(trace.moves)
        builds.reset()
        graph, _ = fb.build_half_certificate(trace, check_rank=True)
        assert fb.validate_certificate(graph, trace).valid
        assert builds.counts() == one
        multi += len(cyc) >= 2
    assert multi >= 3

    trace = _leaping_k3_trace(13)
    builds.reset()
    runs, acyclic = certificates._cyclic_runs(trace.moves)
    arcs = certificates._window_arcs(trace, 0, runs[0], acyclic)
    assert len({arc.witness for arc in arcs}) >= 2
    graph = CertificateGraph(arcs_by_tail={0: tuple(arcs)})
    assert fb.validate_certificate(graph, trace).valid
    assert builds.counts() == one
    assert len([c for c in fb.cycles(trace.moves, 3).cycles if c.v == 0]) >= 2

    subs = synth_3cut_blocks(4)
    assert len(subs) == 4
    for sub in subs:
        builds.reset()
        assert fb.certify(sub, "3cut", Beta.sqrt_half())[2].valid
        _, bound = fb.build_3cut_certificate(sub)
        assert fb.exact_rank(fb.build_P(sub, "cycles")) >= bound
        assert builds.counts() == one


def test_rank_certify_operation_builds_one_step_matrix(monkeypatch):
    # the benchmark's operation: trace text -> verified trace -> block and
    # certificate -> validation -> P -> rank, where at k >= 3 the caller
    # enumerates cycles itself and builds P from them, bypassing the P
    # kept on the trace but not its step matrix
    beta = Beta.sqrt_half()
    callers_cycles = fb.cycles
    builds = MatrixBuilds(monkeypatch)
    runs = []
    for seed in range(40):
        ran = run_random(32, 2, seed)
        try:
            fb.find_critical_block(ran.moves, beta)
        except fb.BlockNotFoundError:
            continue
        runs.append(ran)
    assert len(runs) >= 2
    runs = runs[:2] + [run_random(24, 3, 1), run_random(20, 4, 2)]
    for ran in runs:
        k = ran.instance.k
        builds.reset()
        trace = fb.trace_from_text(ran.instance, fb.trace_to_text(ran))
        fb.verify_trace(trace)
        if k == 2:
            block = fb.find_critical_block(trace.moves, beta)
            sub = fb.slice_trace(trace, block.t1, block.t2)
            graph, _ = fb.build_k2_certificate(sub, beta)
            cycle_set = None
        else:
            sub = trace
            graph, _ = fb.build_half_certificate(sub, check_rank=False)
            cycle_set = callers_cycles(sub.moves, k)
        assert fb.validate_certificate(graph, sub).valid
        p = fb.build_P(sub, "pairs" if k == 2 else "cycles", cycle_set=cycle_set)
        assert fb.exact_rank(p) >= graph.n_arcs
        # the library's own P, plus the caller's from its own cycles at k >= 3
        assert builds.counts() == {"M": 1, "P": 1 + (k > 2), "cycles": int(k > 2)}
