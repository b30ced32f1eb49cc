"""Closed-loop benchmark of flipbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  One client runs the workload's round of operations again and
again, each operation starting when the previous one ends, until at
least S seconds have passed and the workload's minimum operation count
is reached; rounds are never cut short.  One untimed warm-up operation
comes first.  Set-up is timed before the loop and again, outside the
loop's clock, after the rounds in which the clock passes 1/P, 2/P, ...
of S, at P = `setup_points` points in all, `setup_burst` times at each;
the median is reported.  Spreading the repeats over the run keeps a
drift in the machine's speed from landing on all of them at once.
Outputs of the first round are checked against the oracles in
oracles.py; later rounds must reproduce them exactly.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics from benchmark-side spans with
--trace 1.  A traced run reports every per-layer metric: for the layers
its workload does not reach, it adds after its timed loop one round of
each workload named in workloads.COMPLEMENTS.  The full result, and the spans of a traced run, are also
written under perfbench/results/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import pathlib
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_program():
    """Put ./src first on the path; refuse to run without the sources."""
    if not (SRC / "flipbench" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'flipbench'} not found; run from a flipbench checkout")
    sys.path.insert(0, str(SRC))
    import flipbench
    if pathlib.Path(flipbench.__file__).resolve().parent != (SRC / "flipbench").resolve():
        sys.exit(f"error: imported flipbench from {flipbench.__file__}, not {SRC}")


def percentile(values, pct):
    """Nearest-rank percentile: with N values, N - ceil(pct*N/100) lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


class OpError:
    """An operation that raised; equal to another with the same message."""

    def __init__(self, exc):
        self.msg = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.msg == self.msg


def run_op(wl, inputs, op):
    try:
        return wl.run(inputs, op)
    except Exception as exc:  # counted as a failed operation, reported on stderr
        traceback.print_exc()
        return OpError(exc)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    import oracles
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer)
    wl.instrument()

    setup_s = []
    problems = []
    setup_points = 0

    def set_up():
        """Time `setup_burst` set-ups; return the inputs the first one built."""
        nonlocal setup_points
        setup_points += 1
        tracer.op = -1
        built = []
        for _ in range(wl.setup_burst):
            t0 = time.perf_counter()
            built.append(wl.setup())
            setup_s.append(time.perf_counter() - t0)
        if any(b != built[0] for b in built[1:]):
            problems.append("set-up built different inputs on a repeat")
        return built[0]

    inputs = set_up()
    ops = wl.round(inputs)

    run_op(wl, inputs, ops[0])  # warm-up

    latencies = []
    first = []
    rounds = 0
    wall = 0.0
    while True:
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = len(latencies)
            t0 = time.perf_counter()
            out = run_op(wl, inputs, op)
            latencies.append(time.perf_counter() - t0)
            if rounds == 0:
                first.append(out)
            elif out != first[i]:
                problems.append(f"op {i} gave a different output in round {rounds + 1}")
        wall += time.perf_counter() - t_round
        rounds += 1
        if wall >= args.seconds and len(latencies) >= wl.min_ops:
            break
        if (setup_points < wl.setup_points
                and wall >= args.seconds * setup_points / wl.setup_points
                and set_up() != inputs):
            problems.append("set-up built different inputs on a repeat")
    tracer.op = -1
    wl.uninstrument()

    checks = []
    failed_in_round = 0
    try:
        wl.prepare_check(inputs)
        for op, out in zip(ops, first):
            if isinstance(out, OpError):
                failed_in_round += 1
                continue
            info = wl.check(inputs, op, out)
            failed_in_round += info["failed"]
            checks.append(info)
    except oracles.OracleError as exc:
        problems.append(f"oracle: {exc}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layers = wl.layer_metrics(checks)
        for name in workloads.COMPLEMENTS[args.workload]:
            try:
                extra = complement_round(workloads.WORKLOADS[name], args.seed, out_dir, stem)
            except oracles.OracleError as exc:
                problems.append(f"oracle, {name} round: {exc}")
                continue
            layers = {**extra, **layers}
        missing = [name for name in LAYER_UNITS if name not in layers]
        if missing:
            problems.append(f"per-layer metrics not measured: {missing}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items() if name in layers}
        metrics["traced.ops_per_s"] = {"value": len(latencies) / wall, "unit": "1/s"}
    else:
        metrics = {
            "ops_per_s": {"value": len(latencies) / wall, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * percentile(latencies, wl.tail_pct), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": len(latencies),
              "failed": rounds * failed_in_round, "metrics": metrics}

    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=rounds, ops_per_round=len(ops), tail_pct=wl.tail_pct,
                  failed_per_round=failed_in_round, setup_s_all=setup_s,
                  wall_s=wall, problems=problems)
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        tracer.dump(out_dir / f"spans-{stem}.jsonl")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


# Every per-layer metric of a traced run, in the order printed, with its unit.
LAYER_UNITS = {
    "generator.make_instance_ms": "ms",
    "generator.us_per_edge": "us",
    "engine.run_flip.first.us_per_step": "us",
    "engine.run_flip.best.us_per_step": "us",
    "engine.run_flip.random.us_per_step": "us",
    "engine.trace_to_text_ms": "ms",
    "engine.trace_from_text_ms": "ms",
    "engine.verify_trace_ms": "ms",
    "engine.slice_trace_ms": "ms",
    "analysis.find_critical_block_ms": "ms",
    "analysis.cycles_ms": "ms",
    "analysis.block_found_ratio": "ratio",
    "matrices.build_P_ms": "ms",
    "matrices.exact_rank_ms": "ms",
    "matrices.exact_rank_ns_per_cell": "ns",
    "certificates.build_ms": "ms",
    "certificates.validate_ms": "ms",
    "certificates.arcs_per_rank": "ratio",
    "harness.parse_config_ms": "ms",
    "harness.run_experiment_ms_per_trial": "ms",
    "harness.rows_to_csv_ms": "ms",
}


def complement_round(cls, seed, out_dir, stem):
    """Per-layer metrics from one traced round of another workload.

    Its set-up, one round and the oracle checks of that round run after
    the timed loop, outside every clock of this run; its operations are
    not counted in `attempted` or `failed`.
    """
    import tracing
    other = cls(seed, tracing.Tracer())
    other.instrument()
    try:
        inputs = other.setup()
        ops = other.round(inputs)
        outs = [run_op(other, inputs, op) for op in ops]
    finally:
        other.uninstrument()
    other.prepare_check(inputs)
    checks = [other.check(inputs, op, out)
              for op, out in zip(ops, outs) if not isinstance(out, OpError)]
    other.tr.dump(out_dir / f"spans-{stem}-{other.name}.jsonl")
    return other.layer_metrics(checks)


if __name__ == "__main__":
    sys.exit(main())
