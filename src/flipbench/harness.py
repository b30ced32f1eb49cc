"""Batch experiment driver: scaling, rank campaigns, Monte Carlo, approximation.

Every experiment is a pure function of its ExperimentConfig: per-trial
seeds are derived from (master seed, cell, trial index), rationals are
emitted as num/den, and rows are assembled in deterministic cell/trial
order even when trials fan out across processes.  CSV is the only output
format.  Every scaling, rank and approx trial runs through _flip_trial:
one seed, one instance from the config's graph and p, and one start from
model.random_configuration, the start `flipbench run` also takes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import classify_cyclic, occurrence_stats
from .certificates import (CERTIFICATE_MODES, certificate_mode, certify,
                           combine_mode)
from .engine import (DEFAULT_CAP, PIVOT_RULES, PivotRule, check_state_cells,
                     run_flip, slice_trace)
from .generator import GRAPH_KINDS, SmoothingProfile, make_instance
from .matrices import build_P, exact_rank
from .model import (MAX_PARTS, Instance, ModelError, cut_value, hamiltonian,
                    random_configuration)
from .thresholds import Beta

DEFAULT_ETA = 0.1
MAX_BRUTE_FORCE_STATES = 4 ** 12  # state_cuts holds them all: ~240 MB peak RSS


class HarnessError(ModelError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str                      # a key of EXPERIMENTS
    n_grid: tuple = (8,)
    k: int = 2
    phi_grid: tuple = (Fraction(1),)
    beta: Beta = Beta.sqrt_half()
    trials: int = 10
    rule: str = "first"
    seed: int = 0
    cap: int = DEFAULT_CAP
    eta: float = DEFAULT_ETA
    graph: str = "complete"
    p: float = 0.5                 # gnp edge probability
    samples: int = 100_000         # mc mode
    eps: Fraction = Fraction(1, 20)  # mc mode
    jobs: int = 1

    def __post_init__(self):
        if self.mode not in EXPERIMENTS:
            raise HarnessError(f"unknown experiment mode {self.mode!r}")
        if not self.n_grid or not self.phi_grid:
            raise HarnessError("n and phi grids must be non-empty")
        if self.trials < 1:
            raise HarnessError("need at least one trial")
        if self.rule not in PIVOT_RULES:
            raise HarnessError(f"unknown pivot rule {self.rule!r}")
        if not 2 <= self.k <= MAX_PARTS:
            raise HarnessError(
                f"part count k={self.k} must be at least 2 and at most {MAX_PARTS}")
        if self.graph not in GRAPH_KINDS:
            raise HarnessError(f"unknown graph kind {self.graph!r}")
        if not 0 <= self.p <= 1:
            raise HarnessError(f"edge probability p={self.p} outside [0,1]")
        if self.cap < 0 or self.jobs < 1 or self.samples < 1:
            raise HarnessError(f"need cap >= 0, jobs >= 1, samples >= 1; got "
                               f"cap={self.cap} jobs={self.jobs} samples={self.samples}")
        if min(self.n_grid) < 2:
            raise HarnessError("every n in n_grid must be at least 2")
        check_state_cells(max(self.n_grid), self.k)
        # phi >= 1/2 as an integer test: exact for int, Fraction and float
        phi_num, phi_den = min(self.phi_grid).as_integer_ratio()
        if 2 * phi_num < phi_den:
            raise HarnessError("every phi in phi_grid must be at least 1/2")
        if self.eps.as_integer_ratio()[0] <= 0:
            raise HarnessError(f"eps={self.eps} must be positive")
        if not math.isfinite(self.eta):
            raise HarnessError(f"eta={self.eta} must be finite")
        for x in (*self.phi_grid, self.eps, self.beta.rational or 1):
            try:
                num, den = x.as_integer_ratio()
                in_range = num / den > 0
            except OverflowError:
                in_range = False
            if not in_range:
                raise HarnessError("every phi, eps and beta must have a positive finite float")
        if self.mode == "approx":
            if max(self.n_grid) > 12:
                raise HarnessError("approx mode requires n <= 12")
            if self.k ** max(self.n_grid) > MAX_BRUTE_FORCE_STATES:
                raise HarnessError(
                    f"approx mode requires k^n <= 4^12; k={self.k}, n={max(self.n_grid)}")
            if phi_num < phi_den:
                raise HarnessError("nonnegative weights need phi >= 1 with centers at 1/2")
            if self.graph != "complete":
                raise HarnessError("approx mode requires graph complete")


# config key -> converter from its value text; one entry per config field
CONFIG_FIELDS = {
    "mode": str,
    "n_grid": lambda v: tuple(map(int, v.split(","))),
    "k": int,
    "phi_grid": lambda v: tuple(map(Fraction, v.split(","))),
    "beta": Beta.parse,
    "trials": int,
    "rule": str,
    "seed": int,
    "cap": int,
    "eta": float,
    "graph": str,
    "p": float,
    "samples": int,
    "eps": Fraction,
    "jobs": int,
}


def parse_config(text: str) -> ExperimentConfig:
    """Config file format: one `key value` pair per line, # comments."""
    kw: dict = {}
    seen: dict = {}
    for lineno, ln in enumerate(text.splitlines(), start=1):
        key, _, value = ln.strip().partition(" ")
        if not key or key.startswith("#"):
            continue
        convert = CONFIG_FIELDS.get(key)
        if convert is None:
            raise HarnessError(f"unknown config key {key!r} on line {lineno}")
        if seen.setdefault(key, lineno) != lineno:
            raise HarnessError(f"config key {key!r} on line {lineno} repeats line {seen[key]}")
        try:
            kw[key] = convert(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise HarnessError(f"bad value for {key!r} on line {lineno}: {exc}")
    if "mode" not in kw:
        raise HarnessError("config requires a mode")
    return ExperimentConfig(**kw)


# --- seeds, bounds, epsilon --------------------------------------------------

def derive_seed(master: int, *parts) -> int:
    tag = ":".join(str(p) for p in (master,) + parts)
    return int(hashlib.sha256(tag.encode()).hexdigest()[:12], 16)


def epsilon_bound(beta: Beta, phi, n: int, eta: float = DEFAULT_ETA) -> float:
    """Slowness threshold: e^(-2(1+2b)/b) / (phi * n^((1+2b+2b^2)/b + eta(1+2b)/b)).

    A power past float range reads 0.0.
    """
    b = float(beta)
    exp_const = math.exp(-2 * (1 + 2 * b) / b)
    exponent = (1 + 2 * b + 2 * b * b) / b + eta * (1 + 2 * b) / b
    try:
        return exp_const / (float(phi) * n ** exponent)
    except OverflowError:
        return 0.0


def theorem_bound(k: int, complete: bool, phi, n: int, eta: float = DEFAULT_ETA) -> float:
    """Reference step-count bound for the reporting column (sanity only).

    k=2 complete: 1580 * phi * n^((2+sqrt2)(sqrt2+eta));
    k=3 complete: phi * n^(99+eta) (constant suppressed);
    otherwise:    phi * n^(2(2k-1)k*lg(kn)+3+eta) (constant suppressed).
    A power past float range reads math.inf.
    """
    phi = float(phi)
    try:
        if k == 2 and complete:
            return 1580.0 * phi * n ** ((2 + math.sqrt(2)) * (math.sqrt(2) + eta))
        if k == 3 and complete:
            return phi * float(n) ** (99 + eta)
        exponent = 2 * (2 * k - 1) * k * math.log2(k * n) + 3 + eta
        return phi * float(n) ** exponent
    except OverflowError:
        return math.inf


def _fmt_frac(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _fmt_float(x: float) -> str:
    return format(x, ".10g")


# --- one trial ---------------------------------------------------------------

def _flip_trial(cfg: ExperimentConfig, n: int, phi, trial: int, centers=()):
    """One trial of the smoothed model: (instance, trace).

    The trial's seed, derived from (seed, mode, n, phi, trial), names the
    instance's weights, the random start and the pivot rule's stream.
    """
    seed = derive_seed(cfg.seed, cfg.mode, n, phi, trial)
    profile = SmoothingProfile(phi=Fraction(phi), seed=seed, centers=centers)
    inst = make_instance(cfg.graph, n, cfg.k, profile, p=cfg.p)
    tau0 = random_configuration(n, cfg.k, seed)
    return inst, run_flip(inst, tau0, PivotRule(variant=cfg.rule, seed=seed), cap=cfg.cap)


def _trials(cfg: ExperimentConfig, fn):
    """fn((cfg, n, phi, trial)) over the config's grid, in grid order, fanned
    out across at most cfg.jobs processes, and never more than there are
    tasks or CPUs (a fork-started pool forks every worker at once)."""
    tasks = [(cfg, n, phi, t) for n in cfg.n_grid for phi in cfg.phi_grid
             for t in range(cfg.trials)]
    workers = min(cfg.jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# --- scaling -----------------------------------------------------------------

def _scaling_trial(args):
    cfg, n, phi, trial = args
    inst, trace = _flip_trial(*args)
    h = hamiltonian(inst, trace.final_configuration())
    return {
        "row_type": "trial", "n": n, "k": cfg.k, "phi": _fmt_frac(phi),
        "trial": trial, "steps": len(trace), "cap_hit": int(trace.step_cap_hit),
        "final_H": _fmt_frac(h), "trace_hash": inst.content_hash(),
    }


def exp_scaling(cfg: ExperimentConfig):
    """Step counts to termination per cell, with the theorem reference bound."""
    rows = _trials(cfg, _scaling_trial)
    out = []
    i = 0
    for n in cfg.n_grid:
        for phi in cfg.phi_grid:
            cell = rows[i:i + cfg.trials]
            i += cfg.trials
            out.extend(cell)
            steps = [r["steps"] for r in cell]
            out.append({
                "row_type": "summary", "n": n, "k": cfg.k, "phi": _fmt_frac(phi),
                "steps": max(steps),
                "median_steps": _fmt_float(float(statistics.median(steps))),
                "bound": _fmt_float(theorem_bound(cfg.k, cfg.graph == "complete",
                                                  phi, n, cfg.eta)),
                "eta": _fmt_float(cfg.eta),
            })
    fields = ["row_type", "n", "k", "phi", "trial", "steps", "cap_hit",
              "final_H", "trace_hash", "median_steps", "bound", "eta"]
    return fields, out


# --- rank campaign -----------------------------------------------------------

def window_length(k: int, beta: Beta, n: int) -> int:
    """The lemma window of k's certificate mode."""
    return CERTIFICATE_MODES[certificate_mode(k)].window(k, beta, n)


def _rank_trial(args):
    cfg, n, phi, trial = args
    inst, trace = _flip_trial(*args)
    w = window_length(cfg.k, cfg.beta, n)
    base = {
        "n": n, "k": cfg.k, "phi": _fmt_frac(phi), "trial": trial, "window": w,
        "trace_hash": inst.content_hash(),
        "eps": _fmt_float(epsilon_bound(cfg.beta, phi, n, cfg.eta)),
    }
    if len(trace) < w:
        return {**base, "status": "skip", "ell": len(trace)}
    mode = certificate_mode(cfg.k)
    block = CERTIFICATE_MODES[mode].block(trace.moves[:w], cfg.beta)
    sub = slice_trace(trace, block.t1, block.t2)
    stats = occurrence_stats(sub.moves)
    cyc, _ = classify_cyclic(sub.moves)
    # the lemma's rank lower bound for the block, beside the certificate's own
    bound = CERTIFICATE_MODES[mode].rank_bound(stats.s, len(cyc), cfg.beta)
    # the certificate and the exact rank read the one P kept on sub
    graph, _, verdict = certify(sub, mode, cfg.beta)
    rank = exact_rank(build_P(sub, combine_mode(cfg.k)))
    violation = int(rank < bound or rank < graph.n_arcs or not verdict.valid)
    return {**base, "status": "ok", "ell": len(sub.moves), "s": stats.s,
            "c": len(cyc), "rank": rank, "bound": bound,
            "cert_arcs": graph.n_arcs, "violation": violation}


def exp_rank_campaign(cfg: ExperimentConfig):
    rows = _trials(cfg, _rank_trial)
    fields = ["n", "k", "phi", "trial", "window", "status", "ell", "s", "c",
              "rank", "bound", "cert_arcs", "violation", "trace_hash", "eps"]
    return fields, rows


# --- Monte Carlo -------------------------------------------------------------

@dataclass(frozen=True)
class MCResult:
    k: int
    samples: int
    estimate_cumulative: float   # Pr[all > 0 and sum <= eps]
    estimate_interval: float     # Pr[all in (0, eps]]
    stderr_cumulative: float
    stderr_interval: float
    bound_cumulative: float      # (phi eps)^k / k!
    bound_interval: float        # (phi eps)^k


def mc_slow_bound(vectors, phi, eps, samples: int, seed: int) -> MCResult:
    """Monte-Carlo check of the slow-event tail bounds.

    vectors: k linearly independent integer rows of length m.  Weights
    are sampled from the extremal density (uniform on an interval of
    length 1/phi around zero).  Refuses dependent vectors, reporting the
    observed rank as the certificate of dependence.
    """
    A = np.array(vectors, dtype=np.int64)
    if A.ndim != 2:
        raise HarnessError("vectors must form a k x m array")
    k, m = A.shape
    r = exact_rank([list(map(int, row)) for row in A])
    if r < k:
        raise HarnessError(f"vectors are dependent: rank {r} < {k}")
    phi_f, eps_f = float(phi), float(eps)
    rng = np.random.default_rng(seed)
    half = 1.0 / (2.0 * phi_f)
    hits_cum = 0
    hits_int = 0
    batch = 200_000
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        X = rng.uniform(-half, half, size=(b, m))
        Y = X @ A.T
        pos = (Y > 0).all(axis=1)
        hits_cum += int(np.count_nonzero(pos & (Y.sum(axis=1) <= eps_f)))
        hits_int += int(np.count_nonzero(pos & (Y <= eps_f).all(axis=1)))
        done += b
    est_c = hits_cum / samples
    est_i = hits_int / samples
    se = lambda p: math.sqrt(max(p * (1 - p), 1.0 / samples) / samples)
    return MCResult(k=k, samples=samples,
                    estimate_cumulative=est_c, estimate_interval=est_i,
                    stderr_cumulative=se(est_c), stderr_interval=se(est_i),
                    bound_cumulative=(phi_f * eps_f) ** k / math.factorial(k),
                    bound_interval=(phi_f * eps_f) ** k)


def exp_mc(cfg: ExperimentConfig):
    """Coordinate-vector MC rows for k = 1..3 at each phi in the grid."""
    rows = []
    for phi in cfg.phi_grid:
        for k in (1, 2, 3):
            m = max(k, 2)
            vectors = [[1 if j == i else 0 for j in range(m)] for i in range(k)]
            res = mc_slow_bound(vectors, phi, cfg.eps, cfg.samples,
                                derive_seed(cfg.seed, "mc", str(phi), k))
            rows.append({
                "k": k, "phi": _fmt_frac(phi), "eps": _fmt_frac(cfg.eps),
                "samples": cfg.samples,
                "estimate_cum": _fmt_float(res.estimate_cumulative),
                "stderr_cum": _fmt_float(res.stderr_cumulative),
                "bound_cum": _fmt_float(res.bound_cumulative),
                "ok_cum": int(res.estimate_cumulative
                              <= res.bound_cumulative + 3 * res.stderr_cumulative),
                "estimate_step": _fmt_float(res.estimate_interval),
                "stderr_step": _fmt_float(res.stderr_interval),
                "bound_step": _fmt_float(res.bound_interval),
                "ok_step": int(res.estimate_interval
                               <= res.bound_interval + 3 * res.stderr_interval),
            })
    fields = ["k", "phi", "eps", "samples", "estimate_cum", "stderr_cum",
              "bound_cum", "ok_cum", "estimate_step", "stderr_step",
              "bound_step", "ok_step"]
    return fields, rows


# --- approximation -----------------------------------------------------------

def state_cuts(inst: Instance) -> np.ndarray:
    """Exact cut numerator of every configuration tau, at index sum_v (tau_v - 1) k^v:
    over vertices 0..v, k copies of the cuts over 0..v-1, copy a adding v's weight to
    the earlier vertices outside part a + 1 (their total less same[a], built by the
    same doubling over u < v).  Refused before allocating past n=12 or 4^12 states."""
    n, k = inst.n, inst.k
    if n > 12 or k ** n > MAX_BRUTE_FORCE_STATES:
        raise HarnessError(f"brute force refused for n > 12 or k^n > 4^12; k={k}, n={n}")
    dtype = inst.edge_arrays()[2].dtype  # int64 while every sum of weights fits
    w = inst.weight_matrix().astype(dtype)
    cut = np.zeros(1, dtype)
    for v in range(n):
        same = np.zeros((k, 1), dtype)
        for u in range(v):
            same = (same[:, None] + w[u, v] * np.eye(k, dtype=dtype)[:, :, None]).reshape(k, -1)
        np.subtract(w[:v, v].sum(), same, out=same)
        cut = np.add(same, cut, out=same).ravel()
    return cut


def _approx_trial(args):
    cfg, n, phi, trial = args
    # nonnegative weights: center every support interval at 1/2
    inst, trace = _flip_trial(*args, centers=(Fraction(1, 2),) * (n * (n - 1) // 2))
    if any(num < 0 for num in inst.weight_nums):
        raise HarnessError("nonnegative-weight profile produced a negative weight")
    opt_num = int(state_cuts(inst).max())
    local = cut_value(inst, trace.final_configuration())
    # (1 - 1/k) * OPT <= local, exactly
    ok = local * cfg.k * inst.denom >= (cfg.k - 1) * opt_num
    return {"n": n, "k": cfg.k, "phi": _fmt_frac(phi), "trial": trial,
            "opt": _fmt_frac(Fraction(opt_num, inst.denom)),
            "local": _fmt_frac(local), "steps": len(trace), "ok": int(ok)}


def approx_check(cfg: ExperimentConfig):
    """Brute-force OPT against FLIP's local optimum; the config has checked
    n <= 12, k^n <= 4^12, phi >= 1 and a complete graph."""
    rows = _trials(cfg, _approx_trial)
    fields = ["n", "k", "phi", "trial", "opt", "local", "steps", "ok"]
    return fields, rows


# --- orchestration -----------------------------------------------------------

# experiment mode -> campaign(cfg) -> (CSV fields, rows)
EXPERIMENTS = {
    "scaling": exp_scaling,
    "rank": exp_rank_campaign,
    "mc": exp_mc,
    "approx": approx_check,
}


def run_experiment(cfg: ExperimentConfig):
    return EXPERIMENTS[cfg.mode](cfg)


def rows_to_csv(fields, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
