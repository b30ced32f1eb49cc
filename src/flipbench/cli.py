"""Command-line front end.

Subcommands: run (execute FLIP on an instance file), analyze (block and
cycle structure of a trace), certify (build and validate a rank
certificate), experiment (batch campaigns to CSV).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (DEFAULT_CYCLE_CAP, BlockNotFoundError, classify_cyclic,
                       cycles, cyclic_acyclic_blocks, find_critical_block,
                       occurrence_stats, surplus)
from .certificates import CERTIFICATE_MODES, certify
from .engine import (DEFAULT_CAP, PIVOT_RULES, PivotRule, check_state_cells,
                     run_flip, trace_from_text, trace_to_text)
from .harness import parse_config, rows_to_csv, run_experiment
from .model import (Instance, ModelError, parse_configuration,
                    random_configuration)
from .thresholds import Beta


def _load_instance(path: str) -> Instance:
    with open(path) as fh:
        return Instance.from_text(fh.read())


def _load_trace(instance_path: str, trace_path: str):
    inst = _load_instance(instance_path)
    with open(trace_path) as fh:
        return trace_from_text(inst, fh.read())


def _write_out(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    check_state_cells(inst.n, inst.k)  # before a start of n labels is drawn
    if args.tau0:
        with open(args.tau0) as fh:
            tau0 = parse_configuration(fh.read())
    else:
        tau0 = random_configuration(inst.n, inst.k, args.seed)
    rule = PivotRule(variant=args.rule, seed=args.seed)
    trace = run_flip(inst, tau0, rule, cap=args.cap)
    _write_out(trace_to_text(trace), args.out)
    print(f"# steps {len(trace)} cap_hit {int(trace.step_cap_hit)}",
          file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    trace = _load_trace(args.instance, args.trace)
    moves = trace.moves
    k = trace.instance.k
    beta = Beta.parse(args.beta)
    if args.report == "blocks":
        # at k=2 the cyclic vertices are the repeating ones, so the cyclic
        # runs are the transition blocks
        for seg in cyclic_acyclic_blocks(moves):
            kind = ("transition" if k == 2 else "cyclic") if seg.special \
                else ("singleton" if k == 2 else "acyclic")
            print(f"{kind} {seg.t1} {seg.t2}")
        try:
            block = find_critical_block(moves, beta)
        except BlockNotFoundError:
            # a valid trace need not hold a block: report it, not a bad file
            print("critical none")
            return 0
        stats = block.stats()
        print(f"critical beta={beta} t1={block.t1} t2={block.t2} "
              f"ell={block.length} s={stats.s}")
    elif args.report == "cycles":
        cyc, acyc = classify_cyclic(moves)
        print(f"cyclic {len(cyc)} acyclic {len(acyc)}")
        cycle_set = cycles(moves, k)
        for c in cycle_set.cycles:
            ts = ",".join(str(t) for t in c.times)
            ps = ",".join(str(p) for p in c.parts)
            print(f"cycle v={c.v} times={ts} parts={ps}")
        if cycle_set.truncated:
            print(f"truncated at {DEFAULT_CYCLE_CAP} cycles per vertex")
    elif args.report == "surplus":
        stats = occurrence_stats(moves)
        cyc, acyc = classify_cyclic(moves)
        print(f"ell {len(moves)} s {stats.s} cyclic {len(cyc)} "
              f"acyclic {len(acyc)} surplus {surplus(moves)}")
    return 0


def cmd_certify(args) -> int:
    trace = _load_trace(args.instance, args.trace)
    graph, bound, verdict = certify(trace, args.mode, Beta.parse(args.beta))
    sys.stdout.write(graph.to_text())
    print(f"# arcs {graph.n_arcs} bound {bound} valid {int(verdict.valid)}")
    if not verdict.valid:
        print(f"# reason {verdict.reason}")
        return 1
    return 0


def cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    _write_out(rows_to_csv(*run_experiment(cfg)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flipbench",
        description="Laboratory for the FLIP local-search method on "
                    "smoothed max-k-cut instances")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run FLIP on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--rule", default="best", choices=PIVOT_RULES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--tau0", default=None, help="file with a start configuration")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("analyze", help="block/cycle structure of a trace")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--beta", default="1/sqrt2")
    p.add_argument("--report", default="blocks",
                   choices=["blocks", "cycles", "surplus"])
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("certify", help="build and validate a rank certificate")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", required=True, choices=list(CERTIFICATE_MODES))
    p.add_argument("--beta", default="1/sqrt2")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("experiment", help="batch campaign to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ModelError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
