"""Sign matrices: step identity, nullification, relabeling, exact rank."""

import random
from fractions import Fraction

import numpy as np
import pytest

import flipbench as fb
from flipbench.analysis import TruncatedCycleSetError

from conftest import random_tau0, run_random, smoothed_instance


def test_step_columns_score_the_improvements():
    for seed in range(10):
        trace = run_random(10, random.Random(seed).choice([2, 3, 4]), seed)
        m = fb.build_M(trace)
        assert m.n_cols == len(trace)
        nums = trace.instance.weight_nums
        sums = tuple(sum(val * nums[r] for r, val in col) for col in m.cols)
        assert sums == trace.delta_nums


def test_column_support_is_incident_to_the_mover():
    trace = run_random(8, 3, 2)
    m = fb.build_M(trace)
    for j, (move, _) in enumerate(trace.steps):
        for r, val in m.cols[j]:
            assert move.v in trace.instance.edges[r]
            assert val in (-1, 1)


def test_pair_columns_sum_step_columns():
    trace = run_random(10, 2, 4)
    m = fb.build_M(trace)
    p = fb.build_P(trace, "pairs")
    assert p is fb.build_P(trace, "pairs") and p.cols is p.cols
    for j, pair in enumerate(p.col_labels):
        acc = {}
        for t in (pair.t1, pair.t2):
            for r, val in m.cols[t - 1]:
                acc[r] = acc.get(r, 0) + val
        want = tuple(sorted((r, v) for r, v in acc.items() if v != 0))
        assert p.cols[j] == want


def test_nullification_of_nonmoving_rows():
    for seed in range(10):
        k = random.Random(seed).choice([2, 3])
        trace = run_random(9, k, 100 + seed)
        mode = "pairs" if k == 2 else "cycles"
        p = fb.build_P(trace, mode)
        if p.n_cols == 0:
            continue
        stats = fb.occurrence_stats(trace.moves)
        for r in p.row_support():
            u, v = trace.instance.edges[r]
            assert u in stats.moving and v in stats.moving


def test_relabel_invariance_of_combined_columns():
    # changing the start part of non-moving vertices leaves P unchanged
    for seed in range(10):
        k = random.Random(seed).choice([2, 3])
        trace = run_random(9, k, 200 + seed)
        stats = fb.occurrence_stats(trace.moves)
        still = [v for v in range(trace.instance.n) if v not in stats.moving]
        if not still:
            continue
        rng = random.Random(f"relabel:{seed}")
        tau_alt = list(trace.tau0)
        for v in still:
            tau_alt[v] = rng.randint(1, k)
        alt = fb.replay(trace.instance, tuple(tau_alt), trace.moves)
        mode = "pairs" if k == 2 else "cycles"
        assert fb.build_P(alt, mode).cols == fb.build_P(trace, mode).cols


def test_entries_bounded_by_k():
    for seed in range(6):
        k = 2 + seed % 3
        trace = run_random(8, k, 300 + seed)
        p = fb.build_P(trace, "pairs" if k == 2 else "cycles")
        for col in p.cols:
            for _, val in col:
                assert 0 < abs(val) <= k


def test_truncated_cycle_set_refused():
    trace = run_random(8, 3, 6)
    truncated = fb.CycleSet(cycles=(), truncated=True)
    with pytest.raises(TruncatedCycleSetError):
        fb.build_P(trace, "cycles", cycle_set=truncated)
    with pytest.raises(fb.ModelError):
        fb.build_P(trace, "nonsense")


def _dense(mat):
    out = [[0] * mat.n_cols for _ in range(mat.n_rows)]
    for j, col in enumerate(mat.cols):
        for r, val in col:
            out[r][j] = val
    return out


def _fraction_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank, r = 0, 0
    if not rows:
        return 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        if r == len(rows):
            break
    return rank


def test_exact_rank_against_fraction_oracle():
    for seed in range(60):
        rng = random.Random(f"rk:{seed}")
        rows = [[rng.randint(-5, 5) for _ in range(rng.randint(1, 7))]]
        n_cols = len(rows[0])
        for _ in range(rng.randint(0, 7)):
            rows.append([rng.randint(-5, 5) for _ in range(n_cols)])
        assert fb.exact_rank(rows) == _fraction_rank(rows)
    # rank-deficient by construction
    assert fb.exact_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert fb.exact_rank([[0, 0], [0, 0]]) == 0
    assert fb.exact_rank([]) == 0


@pytest.mark.parametrize("rows", [
    [[0.5]], [[1.5, 3], [1, 2]],          # int64 would truncate them to rank 0 and 2
    [[Fraction(1, 2), 1], [1, 2]],
    [1, 2], [[1, 2], [3]],                # not a matrix: a row, ragged rows
])
def test_exact_rank_refuses_non_integer_entries(rows):
    with pytest.raises(fb.ModelError, match="exact_rank takes a matrix of integer entries"):
        fb.exact_rank(rows)


def test_exact_rank_on_sign_matrices():
    for seed in range(6):
        k = 2 + seed % 3
        trace = run_random(9, k, 400 + seed)
        p = fb.build_P(trace, "pairs" if k == 2 else "cycles")
        assert fb.exact_rank(p) == _fraction_rank(_dense(p))


def test_exact_rank_on_natural_cycle_matrices():
    # rank-deficient cycle matrices of natural k>=3 FLIP runs, against the
    # Fraction oracle on the transpose of their nonzero rows
    for n, k in ((32, 3), (48, 3), (40, 4), (64, 4)):
        for seed in range(5):
            rule = ("first", "best", "random")[seed % 3]
            p = fb.build_P(run_random(n, k, seed, rule=rule), "cycles")
            support = [r for r in _dense(p) if any(r)]
            assert fb.exact_rank(p) == _fraction_rank([list(c) for c in zip(*support)])


@pytest.fixture
def rational_calls(monkeypatch):
    """Calls of the rational fallback, _rref over Q."""
    calls = []
    rref = fb.matrices._rref

    def counting(red, p=None):
        if p is None:
            calls.append(1)
        return rref(red, p)

    monkeypatch.setattr(fb.matrices, "_rref", counting)
    return calls


def _planted_matrix(rng):
    """Entries in [-3, 3]; rows drawn from a smaller basis (scaled copies,
    sums and differences) and some columns repeated or negated, so most
    matrices are rank-deficient by construction."""
    n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
    if rng.random() < 0.15:
        return [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
    basis = [[rng.randint(-1, 1) for _ in range(n_cols)]
             for _ in range(rng.randint(0, min(n_rows, n_cols)))]
    rows = []
    for _ in range(n_rows):
        if not basis:
            rows.append([0] * n_cols)
        elif rng.random() < 0.5:
            c, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(basis)
            rows.append([c * x for x in b])
        else:
            s, a, b = rng.choice((-1, 1)), rng.choice(basis), rng.choice(basis)
            rows.append([x + s * y for x, y in zip(a, b)])
    for _ in range(rng.randint(0, n_cols // 2)):
        i, j, s = rng.randrange(n_cols), rng.randrange(n_cols), rng.choice((-1, 1))
        for row in rows:
            row[j] = s * row[i]
    return rows


def test_exact_rank_on_planted_deficiency_against_fraction_oracle(rational_calls):
    deficient = 0
    for seed in range(320):
        rows = _planted_matrix(random.Random(f"planted:{seed}"))
        want = _fraction_rank(rows)
        deficient += want < min(len(rows), len(rows[0]))
        assert fb.exact_rank(rows) == want, seed
        assert fb.exact_rank([list(c) for c in zip(*rows)]) == want, seed
    assert deficient >= 240
    # both the certified path and the fallback were exercised
    assert 0 < len(rational_calls) < 2 * 320


_WIDE = [[3, 0, 1, -2, 5, 2 ** 70, 7],
         [0, 0, 0, 0, 0, 0, 0],
         [6, 0, 2, -4, 10, 2 ** 71, 14],
         [1, 0, -1, 4, 2, 3, 0]]


@pytest.mark.parametrize("rows, rank", [
    ([[2 ** 31 - 1]], 1),                 # the prime itself: zero mod p
    ([[2 ** 31 - 1, 0], [0, 1]], 2),      # an unlucky prime hides one pivot
    ([[2, 1], [4, 2]], 1),                # kernel (1, -2)/2 is not integral
    ([[2 ** 70, 1], [2 ** 70, 1]], 1),    # entries beyond int64
    ([[2 ** 64 - 1, 1], [1, 2 ** 64 - 1]], 2),  # beyond int64, within uint64
    # wide and dense, with a zero row, a zero column and an entry beyond
    # int64: dropped and transposed once, then reduced over Q
    (_WIDE, 2),
    ([list(c) for c in zip(*_WIDE)], 2),
])
def test_exact_rank_falls_back_to_bareiss(rows, rank, rational_calls):
    # named for the Bareiss fallback it first tested; the fallback is now
    # the same _rref run over Q
    assert fb.exact_rank(rows) == rank == _fraction_rank(rows)
    assert rational_calls


def test_exact_rank_reads_uint64_entries_past_int64():
    # a cast to int64 would wrap both diagonal entries to -1: rank 1
    rows = [[2 ** 64 - 1, 1], [1, 2 ** 64 - 1]]
    assert fb.exact_rank(np.array(rows, dtype=np.uint64)) == 2 == _fraction_rank(rows)


def test_natural_sign_matrices_need_no_fallback(rational_calls):
    # full-rank pair matrices and rank-deficient cycle matrices alike are
    # decided by the mod-p pass and an integer kernel
    deficient = 0
    for n, k in ((24, 2), (32, 3), (40, 4)):
        for seed in range(4):
            p = fb.build_P(run_random(n, k, seed), "pairs" if k == 2 else "cycles")
            rank = fb.exact_rank(p)
            assert not rational_calls
            support = [r for r in _dense(p) if any(r)]
            assert rank == _fraction_rank([list(c) for c in zip(*support)])
            deficient += rank < min(len(support), p.n_cols)
    assert deficient
