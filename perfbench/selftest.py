"""Self-tests of the benchmark's oracles; they test the oracles, not flipbench.

    python3 perfbench/selftest.py

Imports nothing from flipbench.  The file name keeps it out of the
package's pytest run.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import unittest
from fractions import Fraction

import numpy as np

import oracles

# Cycle matrices of natural k=3 FLIP runs (first rule, complete graph,
# generator seed s, start random.Random(f"selftest:{s}")), reduced to
# their nonzero rows.  flipbench's exact_rank (Bareiss with the skipped
# row scaling) returns 2 on the first and 7 on the second.
NATURAL_K3 = (
    (13, 24, [[2, 1, 0], [0, -1, 0], [0, 0, -1]], 3),
    (14, 44, [[-2, 0, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 2, -2],
              [0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 1, -1, 0, 0], [0, 0, 0, 2, -2, 0, 0],
              [0, 0, 0, 0, 0, 0, 2]], 6),
)


def fraction_rank(rows) -> int:
    """Rank over Q by plain Fraction elimination; for small matrices only."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def natural_k3_matrix(n, seed):
    inst = oracles.generate("complete", n, 3, seed)
    tau0 = oracles.random_start(n, 3, f"selftest:{seed}")
    records, _ = oracles.flip(inst, tau0, "first", 0, cap=10 ** 6)
    moves = [(v, p, q) for v, p, q, _ in records]
    cols = oracles.combined_columns(inst, tau0, moves, oracles.cycle_times(moves, 3))
    return oracles.dense_rows(cols).tolist()


def small_instance(n, k, seed):
    return oracles.generate("complete", n, k, seed)


class RankOracle(unittest.TestCase):
    def test_primes_are_prime(self):
        for p in oracles.PRIMES:
            self.assertLess(p, 2 ** 31)
            self.assertTrue(all(p % d for d in range(2, int(p ** 0.5) + 1)))

    def test_agrees_with_fraction_elimination(self):
        rng = random.Random(1)
        for _ in range(200):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            inner = rng.randint(1, min(rows, cols))
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
            mat = (np.array(left) @ np.array(right)).tolist()
            self.assertEqual(oracles.oracle_rank(mat), fraction_rank(mat), mat)

    def test_large_entries_do_not_overflow(self):
        mat = [[2 ** 40 + 1, 3], [5, 2 ** 35 - 7], [2 ** 40 + 6, 2 ** 35 - 4]]
        self.assertEqual(oracles.oracle_rank(mat), fraction_rank(mat))

    def test_natural_k3_matrices_where_bareiss_is_wrong(self):
        for n, seed, mat, rank in NATURAL_K3:
            self.assertEqual(natural_k3_matrix(n, seed), mat)
            self.assertEqual(fraction_rank(mat), rank)
            self.assertEqual(oracles.oracle_rank(mat), rank)

    def test_empty_and_zero(self):
        self.assertEqual(oracles.oracle_rank(np.zeros((0, 3))), 0)
        self.assertEqual(oracles.oracle_rank([[0, 0], [0, 0]]), 0)


class InstanceOracle(unittest.TestCase):
    def test_text_and_hash(self):
        inst = oracles.Instance(3, 2, [(0, 1), (0, 2), (1, 2)], [5, -3, 7])
        text = "3 2 1048576 1 0\n0 1 5\n0 2 -3\n1 2 7\n"
        self.assertEqual(inst.text(), text)
        self.assertEqual(inst.content_hash(), "8c2c46c19b2b432f")
        self.assertEqual(inst.content_hash(), hashlib.sha256(text.encode()).hexdigest()[:16])

    def test_generate(self):
        inst = oracles.generate("complete", 6, 2, 7)
        self.assertEqual(inst.edges, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        self.assertTrue(all(-2 ** 19 <= x <= 2 ** 19 for x in inst.nums))
        self.assertEqual(inst.nums, oracles.generate("complete", 6, 2, 7).nums)
        self.assertNotEqual(inst.nums, oracles.generate("complete", 6, 2, 8).nums)
        self.assertEqual(inst.nums[4], random.Random("w:7:4").randint(-2 ** 19, 2 ** 19))
        narrow = oracles.generate("complete", 6, 2, 7, phi=Fraction(4))
        self.assertTrue(all(-2 ** 17 <= x <= 2 ** 17 for x in narrow.nums))
        self.assertEqual(oracles.generate("gnp", 6, 2, 7, p=0.0).edges, [])
        self.assertEqual(oracles.generate("gnp", 6, 2, 7, p=1.0).edges, inst.edges)
        self.assertIn("1 0", oracles.generate("gnp", 6, 2, 7, p=0.5).text().splitlines()[0])


class FlipOracle(unittest.TestCase):
    def run_rule(self, n, k, seed, rule):
        inst = small_instance(n, k, seed)
        tau0 = oracles.random_start(n, k, f"t:{seed}")
        records, cap_hit = oracles.flip(inst, tau0, rule, seed, cap=10 ** 6)
        return inst, tau0, records, cap_hit

    def test_rules_follow_their_definitions(self):
        for rule, seed, k in itertools.product(("first", "best", "random"), range(6), (2, 3)):
            inst, tau0, records, cap_hit = self.run_rule(9, k, seed, rule)
            self.assertFalse(cap_hit)
            tau = list(tau0)
            for v, p, q, d in records:
                moves = [(u, tau[u], r, oracles.improvement(inst, tau, u, r))
                         for u in range(inst.n) for r in range(1, k + 1) if r != tau[u]]
                good = [m for m in moves if m[3] > 0]
                if rule == "first":
                    self.assertEqual((v, p, q, d), good[0])
                elif rule == "best":
                    self.assertEqual(d, max(m[3] for m in good))
                    self.assertEqual((v, p, q, d), next(m for m in good if m[3] == d))
                else:
                    self.assertIn((v, p, q, d), good)
                before = oracles.potential(inst, tau)
                tau[v] = q
                self.assertEqual(oracles.potential(inst, tau) - before, Fraction(d, inst.denom))
            self.assertEqual(oracles.check_flip(inst, tau0, records, cap_hit), tuple(tau))

    def test_cap(self):
        inst, tau0, records, _ = self.run_rule(10, 2, 3, "first")
        cut, hit = oracles.flip(inst, tau0, "first", 3, cap=len(records) - 1)
        self.assertEqual((cut, hit), (records[:-1], True))
        with self.assertRaises(oracles.OracleError):
            oracles.check_flip(inst, tau0, cut, hit)

    def test_checker_rejects_tampering(self):
        inst, tau0, records, _ = self.run_rule(14, 3, 4, "first")
        self.assertGreater(len(records), 3)
        v, p, q, d = records[2]
        for bad in ([*records[:2], (v, p, q, d + 1), *records[3:]],
                    [*records[:2], (v, q, p, d), *records[3:]],
                    records[:-1]):
            with self.assertRaises(oracles.OracleError):
                oracles.check_flip(inst, tau0, bad, False)

    def test_trace_text(self):
        inst, tau0, records, _ = self.run_rule(8, 2, 5, "random")
        text = "\n".join(
            [f"# instance {inst.content_hash()}", "# rule random seed 5", "# cap_hit 0",
             "# tau0 " + " ".join(map(str, tau0))]
            + [f"{t} {v} {p} {q} {d}" for t, (v, p, q, d) in enumerate(records, 1)]) + "\n"
        self.assertEqual(oracles.check_trace_text(inst, text, tau0, "random", 5)["records"],
                         records)
        with self.assertRaises(oracles.OracleError):
            oracles.check_trace_text(inst, text.replace(inst.content_hash(), "0" * 16),
                                     tau0, "random", 5)
        with self.assertRaises(oracles.OracleError):
            oracles.check_trace_text(inst, text, tau0, "first", 5)


class StructureOracle(unittest.TestCase):
    def test_beta_threshold(self):
        for length, s in itertools.product(range(0, 40), range(1, 25)):
            exact = length >= s and (length - s) ** 2 * 2 >= s * s
            self.assertEqual(oracles.beta_qualifies(length, s), exact)
            self.assertEqual(exact, length >= (1 + 2 ** -0.5) * s)

    def test_shortest_block_against_full_search(self):
        rng = random.Random(2)
        for _ in range(300):
            seq = [rng.randrange(rng.randint(1, 8)) for _ in range(rng.randint(1, 20))]
            blocks = [(i + 1, j) for length in range(1, len(seq) + 1)
                      for i in range(len(seq) - length + 1)
                      for j in [i + length]
                      if oracles.beta_qualifies(length, len(set(seq[i:j])))]
            self.assertEqual(oracles.shortest_block(seq), blocks[0] if blocks else None)
        self.assertEqual(oracles.shortest_block([0, 1, 2, 3]), None)
        self.assertEqual(oracles.shortest_block([0, 1, 0, 1, 2]), (1, 4))

    def test_pairs_and_cycles(self):
        moves = [(0, 1, 2), (1, 1, 3), (0, 2, 3), (0, 3, 1), (1, 3, 1), (0, 1, 2)]
        self.assertEqual(oracles.pair_times(moves), [(1, 3), (3, 4), (4, 6), (2, 5)])
        self.assertEqual(oracles.cycle_times(moves, 3), [(1, 3, 4), (3, 4, 6), (2, 5)])
        self.assertEqual(oracles.cycle_times(moves, 2), [(2, 5)])
        self.assertEqual(oracles.cyclic_vertices(moves), {0, 1})
        self.assertEqual(oracles.cyclic_vertices(moves[:3]), set())

    def test_cyclic_vertices_are_those_with_cycles(self):
        for seed, k in itertools.product(range(8), (3, 4)):
            inst = small_instance(12, k, seed)
            tau0 = oracles.random_start(12, k, f"c:{seed}")
            records, _ = oracles.flip(inst, tau0, "random", seed, cap=10 ** 6)
            moves = [(v, p, q) for v, p, q, _ in records]
            times = oracles.cycle_times(moves, k)
            self.assertEqual({moves[ts[0] - 1][0] for ts in times},
                             oracles.cyclic_vertices(moves))
            for ts in times:
                parts = [moves[t - 1][1] for t in ts]
                self.assertEqual(len(set(parts)), len(parts))

    def test_step_columns_give_the_improvements(self):
        for seed, k in itertools.product(range(5), (2, 3)):
            inst = small_instance(10, k, seed)
            tau0 = oracles.random_start(10, k, f"s:{seed}")
            records, _ = oracles.flip(inst, tau0, "first", seed, cap=10 ** 6)
            moves = [(v, p, q) for v, p, q, _ in records]
            cols = oracles.combined_columns(inst, tau0, moves,
                                            [(t,) for t in range(1, len(moves) + 1)])
            for col, (_, _, _, d) in zip(cols, records):
                self.assertEqual(sum(val * inst.nums[e] for e, val in col.items()), d)


if __name__ == "__main__":
    unittest.main()
