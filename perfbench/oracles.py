"""Independent oracles that check flipbench's outputs.

Nothing here imports flipbench.  Each oracle is rebuilt from the
documented rules (README of the package, module docstrings) rather than
from the program's code:

* instances: weights are uniform on the fixed-point grid covering
  [c - 1/(2 phi), c + 1/(2 phi)] (c = 0), drawn from
  ``random.Random(f"w:{seed}:{i}")`` per edge index i; G(n, p) keeps pair
  index i when ``random.Random(f"gnp:{seed}:{i}").random() < p``;
  instance text is the header ``n k D phi complete`` then ``u v num``
  lines, and the content hash is the first 16 hex digits of its SHA-256;
* FLIP: per-vertex part sums, the first / best / random pivot rules with
  ties broken by (vertex, destination part) ascending;
* traces: ``# instance``, ``# rule``, ``# cap_hit``, ``# tau0`` headers
  and ``t v p q delta_num`` records;
* blocks, pairs and minimal cycles by brute force from their definitions;
* rank: the largest of the ranks modulo two word-size primes (numpy).
  A rank mod p never exceeds the rank over Q, so full rank mod p is a
  proof and a disagreement upward exposes a wrong exact rank.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import numpy as np

PRIMES = (2147483647, 2147483629)
DEFAULT_DENOM = 2 ** 20


class OracleError(AssertionError):
    """An output disagrees with an oracle."""


def require(cond, msg):
    if not cond:
        raise OracleError(msg)


# --- rank --------------------------------------------------------------------

def rank_mod_p(mat, p: int) -> int:
    """Rank of an integer matrix over GF(p), by row reduction in int64.

    p < 2**31, so every product of two reduced entries fits in int64.
    """
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2 or a.size == 0:
        return 0
    a = a[a.any(axis=1)]
    n_rows, n_cols = a.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = r + 1 + np.flatnonzero(a[r + 1:, c])
        if below.size:
            f = a[below, c][:, None]
            a[below] = (a[below] - (f * a[r][None, :]) % p) % p
        r += 1
    return r


def oracle_rank(mat) -> int:
    """Largest rank of `mat` modulo the word-size primes in PRIMES."""
    return max(rank_mod_p(mat, p) for p in PRIMES)


def dense_rows(cols):
    """Dense matrix of sparse columns {row: value}, over their nonzero rows."""
    rows = sorted({r for col in cols for r in col})
    index = {r: i for i, r in enumerate(rows)}
    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        for r, val in col.items():
            out[index[r], j] = val
    return out


# --- instances ---------------------------------------------------------------

class Instance:
    """An instance rebuilt by the oracle: edges, numerators, adjacency."""

    def __init__(self, n, k, edges, nums, denom=DEFAULT_DENOM,
                 phi=Fraction(1), complete=False):
        self.n, self.k = n, k
        self.edges, self.nums = list(edges), list(nums)
        self.denom, self.phi, self.complete = denom, Fraction(phi), complete
        self.adj = [[] for _ in range(n)]
        self.edge_id = {}
        self._hash = None
        for i, ((u, v), num) in enumerate(zip(self.edges, self.nums)):
            self.adj[u].append((v, num, i))
            self.adj[v].append((u, num, i))
            self.edge_id[(u, v)] = i

    def edge(self, u, v):
        return self.edge_id.get((min(u, v), max(u, v)))

    def text(self) -> str:
        lines = [f"{self.n} {self.k} {self.denom} {self.phi} {int(self.complete)}"]
        lines += [f"{u} {v} {num}" for (u, v), num in zip(self.edges, self.nums)]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        if self._hash is None:
            self._hash = hashlib.sha256(self.text().encode()).hexdigest()[:16]
        return self._hash


def generate(kind, n, k, seed, phi=Fraction(1), p=None, denom=DEFAULT_DENOM):
    """The documented instance rule: graph, then one weight per edge index."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "complete":
        edges = pairs
    elif kind == "gnp":
        edges = [e for i, e in enumerate(pairs)
                 if random.Random(f"gnp:{seed}:{i}").random() < p]
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    half = Fraction(1, 2) / Fraction(phi)
    lo, hi = math.ceil(-half * denom), math.floor(half * denom)
    nums = [random.Random(f"w:{seed}:{i}").randint(lo, hi) for i in range(len(edges))]
    return Instance(n, k, edges, nums, denom, phi, kind == "complete")


def random_start(n, k, key) -> tuple:
    """Uniform start configuration drawn from random.Random(key)."""
    rng = random.Random(key)
    return tuple(rng.randint(1, k) for _ in range(n))


# --- FLIP --------------------------------------------------------------------

def part_sums(inst: Instance, tau):
    """sums[v][q]: total weight numerator from v towards part q."""
    sums = [[0] * (inst.k + 1) for _ in range(inst.n)]
    for (u, v), num in zip(inst.edges, inst.nums):
        sums[u][tau[v]] += num
        sums[v][tau[u]] += num
    return sums


def improvement(inst: Instance, tau, v, q) -> int:
    """Numerator of the potential change when v moves to part q, from scratch."""
    p = tau[v]
    return sum(num if tau[u] == p else -num if tau[u] == q else 0
               for u, num, _ in inst.adj[v])


def improving(inst: Instance, tau, sums=None, first=False):
    """All (v, p, q, delta) with delta > 0, ordered by (v, q); with
    first=True only the first of them."""
    sums = part_sums(inst, tau) if sums is None else sums
    out = []
    for v in range(inst.n):
        p = tau[v]
        for q in range(1, inst.k + 1):
            d = sums[v][p] - sums[v][q]
            if q != p and d > 0:
                out.append((v, p, q, d))
                if first:
                    return out
    return out


def flip(inst: Instance, tau0, rule: str, seed: int, cap: int):
    """Reference FLIP: (records [(v, p, q, delta)], cap_hit)."""
    tau = list(tau0)
    sums = part_sums(inst, tau)
    rng = random.Random(f"flip:{seed}")
    records = []
    while True:
        cands = improving(inst, tau, sums, first=rule == "first")
        if len(records) >= cap or not cands:
            return records, bool(cands)
        if rule == "first":
            pick = cands[0]
        elif rule == "best":
            top = max(c[3] for c in cands)
            pick = next(c for c in cands if c[3] == top)
        elif rule == "random":
            pick = cands[rng.randrange(len(cands))]
        else:
            raise ValueError(f"unknown rule {rule!r}")
        v, p, q, _ = pick
        records.append(pick)
        tau[v] = q
        for u, num, _ in inst.adj[v]:
            sums[u][p] -= num
            sums[u][q] += num


def parse_trace(text: str) -> dict:
    """Trace file fields: instance hash, rule, seed, cap_hit, tau0, records."""
    out = {"records": []}
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "#":
            if tok[1] == "instance":
                out["instance"] = tok[2]
            elif tok[1] == "rule":
                out["rule"], out["seed"] = tok[2], int(tok[4])
            elif tok[1] == "cap_hit":
                out["cap_hit"] = int(tok[2])
            elif tok[1] == "tau0":
                out["tau0"] = tuple(int(x) for x in tok[2:])
            continue
        require(len(tok) == 5, f"malformed record {line!r}")
        t, v, p, q, d = (int(x) for x in tok)
        require(t == len(out["records"]) + 1, f"record {t} out of order")
        out["records"].append((v, p, q, d))
    for key in ("instance", "rule", "cap_hit", "tau0"):
        require(key in out, f"trace text lacks the {key} header")
    return out


def check_flip(inst: Instance, tau0, records, cap_hit) -> tuple:
    """Check a FLIP run; return the final configuration.

    Every move is valid, every delta equals the improvement recomputed
    from the weight numerators and is positive, the run ends in a local
    optimum, and the step cap was not hit.
    """
    require(not cap_hit, "step cap hit")
    require(len(tau0) == inst.n and all(1 <= x <= inst.k for x in tau0),
            "start configuration out of range")
    tau = list(tau0)
    for t, (v, p, q, d) in enumerate(records, start=1):
        require(0 <= v < inst.n and 1 <= q <= inst.k and q != p and tau[v] == p,
                f"step {t}: invalid move {(v, p, q)}")
        exact = improvement(inst, tau, v, q)
        require(d == exact, f"step {t}: delta {d} != recomputed {exact}")
        require(d > 0, f"step {t}: non-improving delta {d}")
        tau[v] = q
    require(not improving(inst, tau), "final configuration has an improving move")
    return tuple(tau)


def potential(inst: Instance, tau) -> Fraction:
    """H(tau) = cut value - (k-1)/k * total weight."""
    cut = sum(num for (u, v), num in zip(inst.edges, inst.nums) if tau[u] != tau[v])
    return (Fraction(cut, inst.denom)
            - Fraction(inst.k - 1, inst.k) * Fraction(sum(inst.nums), inst.denom))


def check_trace_text(inst: Instance, text: str, tau0, rule: str, seed: int) -> dict:
    """Check a trace file against the instance and the reference FLIP."""
    tr = parse_trace(text)
    require(tr["instance"] == inst.content_hash(),
            f"trace header hash {tr['instance']} != {inst.content_hash()}")
    require(tr["tau0"] == tuple(tau0), "trace tau0 differs from the start given")
    require((tr["rule"], tr["seed"]) == (rule, seed), "trace rule/seed header differs")
    check_flip(inst, tr["tau0"], tr["records"], tr["cap_hit"])
    ref, _ = flip(inst, tau0, rule, seed, cap=len(tr["records"]) + 1)
    require(ref == tr["records"], f"moves differ from the reference {rule} rule")
    return tr


# --- move-sequence structure -------------------------------------------------

def beta_qualifies(length: int, s: int) -> bool:
    """length >= (1 + 1/sqrt(2)) * s, in integers."""
    return length >= s and 2 * (length - s) ** 2 >= s * s


def shortest_block(vertices):
    """Shortest, then leftmost, (t1, t2) with len >= (1+1/sqrt2)*s, or None."""
    best = None
    ell = len(vertices)
    for start in range(ell):
        seen = set()
        for end in range(start, ell):
            if best is not None and end - start + 1 >= best[1] - best[0] + 1:
                break
            seen.add(vertices[end])
            if beta_qualifies(end - start + 1, len(seen)):
                best = (start + 1, end + 1)
                break
    return best


def occurrences(moves):
    """vertex -> list of (1-based time, p, q)."""
    occ = {}
    for t, (v, p, q) in enumerate(moves, start=1):
        occ.setdefault(v, []).append((t, p, q))
    return occ


def pair_times(moves):
    """Consecutive-occurrence pairs, ordered by (vertex, time)."""
    occ = occurrences(moves)
    return [(a[0], b[0]) for v in sorted(occ) for a, b in zip(occ[v], occ[v][1:])]


def cycle_times(moves, k):
    """Time lists of all minimal cycles, ordered by (vertex, start, extension).

    A cycle over v is a chain of v's moves t_1 < ... < t_w, each leaving
    the part the previous one entered, the last returning to the part the
    first left, with pairwise distinct departed parts (so w <= k).
    """
    out = []
    occ = occurrences(moves)
    for v in sorted(occ):
        ev = occ[v]

        def grow(chain, left):
            _, p0, _ = ev[chain[0]]
            _, _, q_last = ev[chain[-1]]
            for j in range(chain[-1] + 1, len(ev)):
                _, p, q = ev[j]
                if p != q_last:
                    continue
                if q == p0:
                    out.append(tuple(ev[i][0] for i in chain + [j]))
                elif q not in left and len(chain) + 1 < k:
                    grow(chain + [j], left | {q})

        for i in range(len(ev)):
            grow([i], {ev[i][1], ev[i][2]})
    return out


def cyclic_vertices(moves):
    """Vertices whose part walk revisits a part."""
    walk = {}
    out = set()
    for v, p, q in moves:
        parts = walk.setdefault(v, {p})
        if q in parts:
            out.add(v)
        parts.add(q)
    return out


def combined_columns(inst: Instance, tau0, moves, time_lists):
    """Columns {edge: entry} summing the step columns of each time list.

    Step t's column is +1 on edges to neighbours in the departed part and
    -1 on edges to neighbours in the destination part.
    """
    tau = list(tau0)
    steps = []
    for v, p, q in moves:
        col = {}
        for u, _, e in inst.adj[v]:
            if tau[u] == p:
                col[e] = 1
            elif tau[u] == q:
                col[e] = -1
        steps.append(col)
        tau[v] = q
    cols = []
    for ts in time_lists:
        acc = {}
        for t in ts:
            for e, val in steps[t - 1].items():
                acc[e] = acc.get(e, 0) + val
        cols.append({e: val for e, val in acc.items() if val})
    return cols
