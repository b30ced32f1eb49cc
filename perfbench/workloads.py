"""The three benchmark workloads: set-up, operations, checks, layer metrics.

Each workload builds its inputs from the benchmark seed through the
program (`setup`), lists one round of operations (`round`), runs one
operation through flipbench's public functions (`run`), and checks an
operation's output against the independent oracles (`check`).  Every
call into flipbench goes through `self.tr.call`, which records a span in
traced runs and calls straight through otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
from fractions import Fraction

from flipbench import (BlockNotFoundError, PivotRule, SmoothingProfile, Beta,
                       build_half_certificate, build_k2_certificate, build_P,
                       cycles, exact_rank, find_critical_block, make_instance,
                       parse_config, rows_to_csv, run_experiment, run_flip,
                       slice_trace, trace_from_text, trace_to_text,
                       validate_certificate, verify_trace)
from flipbench import harness

import oracles
from oracles import require

RULES = ("first", "best", "random")
BETA = Beta.sqrt_half()


def derive(*parts) -> int:
    """Benchmark-side seed for instances and starts."""
    tag = ":".join(str(p) for p in parts)
    return int(hashlib.sha256(tag.encode()).hexdigest()[:12], 16)


def same_instance(inst, oinst) -> bool:
    return (list(inst.edges) == oinst.edges and list(inst.weight_nums) == oinst.nums
            and (inst.n, inst.k, inst.denom, inst.phi, inst.complete)
            == (oinst.n, oinst.k, oinst.denom, oinst.phi, oinst.complete))


def flip_attrs(trace):
    return {"rule": trace.rule, "steps": len(trace)}


def instance_attrs(inst):
    return {"edges": inst.m}


class Workload:
    tail_pct = 90
    min_ops = 100
    setup_points = 3  # set-up is timed before the loop and at points spread over it
    setup_burst = 1   # consecutive set-ups timed at each point

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tr = tracer

    def instrument(self):
        """Extra spans for a traced run; undone by `uninstrument`."""

    def uninstrument(self):
        pass

    def prepare_check(self, inputs):
        """Oracle-side preparation before the outputs are checked."""

    def generator_engine_metrics(self):
        """generator.* and engine.run_flip.* / trace_to_text from the spans."""
        tr = self.tr
        out = {}
        made = tr.named("generator.make_instance")
        if made:
            out["generator.make_instance_ms"] = tr.mean_ms("generator.make_instance")
            out["generator.us_per_edge"] = (
                1e6 * tr.total_s(made) / sum(s["edges"] for s in made))
        runs = tr.named("engine.run_flip")
        for rule in RULES:
            mine = [s for s in runs if s["rule"] == rule]
            steps = sum(s["steps"] for s in mine)
            if steps:
                out[f"engine.run_flip.{rule}.us_per_step"] = 1e6 * tr.total_s(mine) / steps
        if tr.named("engine.trace_to_text"):
            out["engine.trace_to_text_ms"] = tr.mean_ms("engine.trace_to_text")
        return out


# --- flip_restarts -----------------------------------------------------------

class FlipRestarts(Workload):
    """FLIP from seeded random starts on a few large instances, then trace text."""

    name = "flip_restarts"
    # (graph, n, k, p): two dense complete graphs and one sparse G(n, p)
    INSTANCES = (("complete", 256, 2, None), ("complete", 256, 3, None),
                 ("gnp", 384, 2, 0.25))
    STARTS = 6  # per instance and rule in one round

    def _seed(self, idx):
        return derive("flip_restarts", self.seed, idx)

    def setup(self):
        return tuple(
            self.tr.call("generator.make_instance", make_instance, kind, n, k,
                         SmoothingProfile(phi=Fraction(1), seed=self._seed(i)), p=p,
                         attrs=instance_attrs)
            for i, (kind, n, k, p) in enumerate(self.INSTANCES))

    def round(self, insts):
        ops = []
        for j in range(self.STARTS):
            for i, inst in enumerate(insts):
                for rule in RULES:
                    tau0 = oracles.random_start(
                        inst.n, inst.k, f"start:{self.seed}:{i}:{rule}:{j}")
                    ops.append((i, rule, tau0, j))
        return ops

    def run(self, insts, op):
        i, rule, tau0, pivot_seed = op
        trace = self.tr.call("engine.run_flip", run_flip, insts[i], tau0,
                             PivotRule(variant=rule, seed=pivot_seed), attrs=flip_attrs)
        return self.tr.call("engine.trace_to_text", trace_to_text, trace)

    def prepare_check(self, insts):
        self.oracle_insts = []
        for i, (kind, n, k, p) in enumerate(self.INSTANCES):
            oinst = oracles.generate(kind, n, k, self._seed(i), p=p)
            require(same_instance(insts[i], oinst), f"instance {i} differs from the weight rule")
            self.oracle_insts.append(oinst)

    def check(self, insts, op, text):
        i, rule, tau0, pivot_seed = op
        oracles.check_trace_text(self.oracle_insts[i], text, tau0, rule, pivot_seed)
        return {"failed": False}

    def layer_metrics(self, checks):
        return self.generator_engine_metrics()


# --- rank_certify ------------------------------------------------------------

class RankCertify(Workload):
    """Trace text -> verified trace -> block / certificate -> P -> exact rank."""

    name = "rank_certify"
    # (n, k, seeded): the three k=2 instances follow --seed, so that their
    # traces' lengths and blocks average over several instances; the k>=3
    # ones are fixed, since exact_rank is wrong on some of them and a failed
    # operation may only be kept on inputs that do not depend on the seed.
    SPECS = ((128, 2, True), (128, 2, True), (128, 2, True),
             (64, 3, False), (64, 4, False), (48, 3, False))
    STARTS = 2
    FIXED_SEED = 0
    setup_points = 5  # set-up is about 1 s

    def _seed(self, spec_idx):
        n, k, seeded = self.SPECS[spec_idx]
        if seeded:
            return derive("rank_certify", self.seed, n, k, spec_idx)
        return derive("rank_certify", self.FIXED_SEED, n, k)

    def _starts(self, spec_idx):
        n, k, _ = self.SPECS[spec_idx]
        base = self._seed(spec_idx)
        for j in range(self.STARTS):
            for rule in RULES:
                yield rule, oracles.random_start(n, k, f"start:{base}:{rule}:{j}"), j

    def setup(self):
        inputs = []
        for s, (n, k, _) in enumerate(self.SPECS):
            inst = self.tr.call("generator.make_instance", make_instance, "complete", n, k,
                                SmoothingProfile(phi=Fraction(1), seed=self._seed(s)),
                                attrs=instance_attrs)
            for rule, tau0, j in self._starts(s):
                trace = self.tr.call("engine.run_flip", run_flip, inst, tau0,
                                     PivotRule(variant=rule, seed=j), attrs=flip_attrs)
                text = self.tr.call("engine.trace_to_text", trace_to_text, trace)
                inputs.append((s, inst, text, rule, tau0, j))
        return tuple(inputs)

    def round(self, inputs):
        return list(range(len(inputs)))

    def run(self, inputs, op):
        _, inst, text, *_ = inputs[op]
        call = self.tr.call
        trace = call("engine.trace_from_text", trace_from_text, inst, text)
        call("engine.verify_trace", verify_trace, trace)
        block = graph = verdict = cycle_set = None
        sub = trace
        if inst.k == 2:
            block = call("analysis.find_critical_block", critical_block, trace.moves, BETA,
                         attrs=lambda b: {"found": b is not None})
            if block is not None:
                sub = call("engine.slice_trace", slice_trace, trace, block.t1, block.t2)
                graph, _ = call("certificates.build", build_k2_certificate, sub, BETA)
            mode = "pairs"
        else:
            graph, _ = call("certificates.build", build_half_certificate, trace,
                            check_rank=False)
            cycle_set = call("analysis.cycles", cycles, trace.moves, inst.k)
            mode = "cycles"
        if graph is not None:
            verdict = call("certificates.validate", validate_certificate, graph, sub)
        mat = call("matrices.build_P", build_P, sub, mode, cycle_set=cycle_set,
                   attrs=lambda m: {"cells": len(m.row_support()) * m.n_cols})
        rank = call("matrices.exact_rank", exact_rank, mat)
        return {
            "steps": trace.steps,
            "block": None if block is None else (block.t1, block.t2),
            "arcs": None if graph is None else graph.arcs,
            "valid": None if verdict is None else verdict.valid,
            "cycles": None if cycle_set is None else tuple(c.times for c in cycle_set.cycles),
            "cols": mat.cols,
            "rank": rank,
        }

    def prepare_check(self, inputs):
        self.oracle_insts = {}
        for s, (n, k, _) in enumerate(self.SPECS):
            oinst = oracles.generate("complete", n, k, self._seed(s))
            self.oracle_insts[s] = oinst
        for s, inst, *_ in inputs:
            require(same_instance(inst, self.oracle_insts[s]),
                    f"instance of spec {s} differs from the weight rule")

    def check(self, inputs, op, out):
        s, inst, text, rule, tau0, j = inputs[op]
        oinst = self.oracle_insts[s]
        k = oinst.k
        records = oracles.check_trace_text(oinst, text, tau0, rule, j)["records"]
        require([(m.v, m.p, m.q, d) for m, d in out["steps"]] == records,
                "parsed trace differs from the trace text")
        moves = [(v, p, q) for v, p, q, _ in records]
        if k == 2:
            block = oracles.shortest_block([v for v, _, _ in moves])
            require(out["block"] == block,
                    f"critical block {out['block']} != brute force {block}")
            t1, t2 = block if block else (1, len(moves))
            if block:
                s_block = len({v for v, _, _ in moves[t1 - 1:t2]})
                require(oracles.beta_qualifies(t2 - t1 + 1, s_block),
                        "block misses len >= (1+beta)s")
            sub_moves = moves[t1 - 1:t2]
            start = list(tau0)
            for v, _, q in moves[:t1 - 1]:
                start[v] = q
            times = oracles.pair_times(sub_moves)
        else:
            sub_moves, start = moves, tau0
            times = oracles.cycle_times(moves, k)
            require(out["cycles"] == tuple(times), "cycle set differs from brute force")
        cols = oracles.combined_columns(oinst, start, sub_moves, times)
        require([dict(c) for c in out["cols"]] == cols, "P differs from the oracle's columns")
        rank = oracles.oracle_rank(oracles.dense_rows(cols))
        info = {"failed": out["rank"] != rank, "oracle_rank": rank, "arcs": 0}
        if out["arcs"] is not None:
            arcs = out["arcs"]
            require(out["valid"], "certificate judged invalid")
            require(len(arcs) <= rank, f"{len(arcs)} arcs exceed rank {rank}")
            edges = [oinst.edge(a.u, a.v) for a in arcs]
            require(None not in edges, "certificate arc on a missing edge")
            witness = [[col.get(e, 0) for col in cols] for e in edges]
            require(oracles.oracle_rank(witness) == len(arcs),
                    "witness rows lack full row rank mod p")
            if k >= 3:
                c = len(oracles.cyclic_vertices(moves))
                require(2 * len(arcs) >= c, f"{len(arcs)} arcs < ceil(c/2), c={c}")
            info["arcs"] = len(arcs)
        return info

    def layer_metrics(self, checks):
        tr = self.tr
        out = self.generator_engine_metrics()
        for name in ("engine.trace_from_text", "engine.verify_trace", "engine.slice_trace",
                     "analysis.find_critical_block", "analysis.cycles",
                     "matrices.build_P", "matrices.exact_rank",
                     "certificates.build", "certificates.validate"):
            if tr.named(name):
                out[name + "_ms"] = tr.mean_ms(name)
        searched = tr.named("analysis.find_critical_block")
        if searched:
            out["analysis.block_found_ratio"] = (
                sum(s["found"] for s in searched) / len(searched))
        cells = sum(s["cells"] for s in tr.named("matrices.build_P"))
        if cells:
            out["matrices.exact_rank_ns_per_cell"] = (
                1e9 * tr.total_s(tr.named("matrices.exact_rank")) / cells)
        ranks = sum(c["oracle_rank"] for c in checks if c["arcs"])
        if ranks:
            out["certificates.arcs_per_rank"] = sum(c["arcs"] for c in checks) / ranks
        return out


def critical_block(moves, beta):
    """find_critical_block, or None when the trace has no critical block."""
    try:
        return find_critical_block(moves, beta)
    except BlockNotFoundError:
        return None


# --- scaling_campaign --------------------------------------------------------

class ScalingCampaign(Workload):
    """Single-cell `mode scaling` campaigns: parse_config -> run_experiment -> CSV."""

    name = "scaling_campaign"
    # (graph, n, k, rule): every rule at three sizes and two part counts, plus
    # G(96, 1/2).  A campaign's time grows with n, so the cells fall into one
    # cluster per size; with the middle size and the G(n, p) cell the middle
    # cluster holds the median, which then does not jump between clusters.
    CELLS = tuple(("complete", n, k, rule) for n in (64, 96, 128) for k in (2, 3)
                  for rule in RULES) + (("gnp", 96, 2, "first"),)
    TRIALS = 2
    P = "0.5"
    tail_pct = 80
    min_ops = 52
    setup_points = 5
    setup_burst = 50  # set-up is well under a millisecond

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.texts = [
            f"mode scaling\nn_grid {n}\nk {k}\nrule {rule}\ntrials {self.TRIALS}\n"
            f"seed {derive('scaling_campaign', seed, i)}\ngraph {graph}\np {self.P}\n"
            for i, (graph, n, k, rule) in enumerate(self.CELLS)]

    def setup(self):
        return tuple(self.tr.call("harness.parse_config", parse_config, text)
                     for text in self.texts)

    def round(self, configs):
        return list(range(len(self.CELLS)))

    def run(self, configs, op):
        call = self.tr.call
        cfg = call("harness.parse_config", parse_config, self.texts[op])
        fields, rows = call("harness.run_experiment", run_experiment, cfg,
                            attrs=lambda r: {"trials": sum(
                                row["row_type"] == "trial" for row in r[1])})
        return call("harness.rows_to_csv", rows_to_csv, fields, rows)

    def instrument(self):
        """Spans around the generator and engine calls inside each trial."""
        if self.tr.enabled:
            self._saved = harness.make_instance, harness.run_flip
            harness.make_instance = self.tr.wrap("generator.make_instance", make_instance,
                                                 attrs=instance_attrs)
            harness.run_flip = self.tr.wrap("engine.run_flip", run_flip, attrs=flip_attrs)

    def uninstrument(self):
        if self.tr.enabled:
            harness.make_instance, harness.run_flip = self._saved

    def check(self, configs, op, text):
        graph, n, k, rule = self.CELLS[op]
        cfg = configs[op]
        rows = list(csv.DictReader(io.StringIO(text)))
        require(len(rows) == self.TRIALS + 1, "wrong number of CSV rows")
        phi = Fraction(1)
        steps = []
        for trial, row in enumerate(rows[:-1]):
            seed = harness.derive_seed(cfg.seed, "scaling", n, phi, trial)
            oinst = oracles.generate(graph, n, k, seed, phi=phi,
                                     p=float(self.P) if graph == "gnp" else None)
            tau0 = oracles.random_start(n, k, f"tau0:{seed}")
            records, cap_hit = oracles.flip(oinst, tau0, rule, seed, cap=cfg.cap)
            tau = list(tau0)
            for v, _, q, _ in records:
                tau[v] = q
            h = oracles.potential(oinst, tau)
            want = {"row_type": "trial", "n": str(n), "k": str(k), "phi": "1/1",
                    "trial": str(trial), "steps": str(len(records)),
                    "cap_hit": str(int(cap_hit)), "trace_hash": oinst.content_hash(),
                    "final_H": f"{h.numerator}/{h.denominator}"}
            got = {key: row[key] for key in want}
            require(got == want, f"cell {op} trial {trial}: {got} != {want}")
            steps.append(len(records))
        summary = rows[-1]
        require(summary["row_type"] == "summary", "last row is not the summary")
        require(int(summary["steps"]) == max(steps), "summary steps != max of trials")
        require(summary["median_steps"] == format(float(statistics.median(steps)), ".10g"),
                "summary median != median of trials")
        return {"failed": False}

    def layer_metrics(self, checks):
        tr = self.tr
        out = self.generator_engine_metrics()
        out["harness.parse_config_ms"] = tr.mean_ms("harness.parse_config")
        runs = tr.named("harness.run_experiment")
        out["harness.run_experiment_ms_per_trial"] = (
            1e3 * tr.total_s(runs) / sum(s["trials"] for s in runs))
        out["harness.rows_to_csv_ms"] = tr.mean_ms("harness.rows_to_csv")
        return out


WORKLOADS = {w.name: w for w in (FlipRestarts, RankCertify, ScalingCampaign)}

# The workloads whose round a traced run adds, after its timed loop, for
# the layers it does not reach itself: rank_certify reaches every layer
# but harness, scaling_campaign reaches harness.
COMPLEMENTS = {"flip_restarts": ("rank_certify", "scaling_campaign"),
               "rank_certify": ("scaling_campaign",),
               "scaling_campaign": ("rank_certify",)}
