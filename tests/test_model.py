"""Core model: exact deltas, objective identities, serialization."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

import flipbench as fb
from flipbench.model import (check_configuration, parse_configuration,
                             validate_move)

from conftest import random_tau0, smoothed_instance


def test_delta_matches_hamiltonian_difference():
    for seed in range(20):
        rng = random.Random(f"t:{seed}")
        n = rng.randint(3, 12)
        k = rng.choice([2, 3, 4])
        inst = smoothed_instance(n, k, seed)
        tau = random_tau0(n, k, seed)
        v = rng.randrange(n)
        q = rng.choice([x for x in range(1, k + 1) if x != tau[v]])
        move = fb.Move(v, tau[v], q)
        d = fb.move_delta(inst, tau, move)
        tau2 = fb.apply_move(tau, move)
        assert d == fb.hamiltonian(inst, tau2) - fb.hamiltonian(inst, tau)
        assert d == fb.cut_value(inst, tau2) - fb.cut_value(inst, tau)


def test_hamiltonian_via_simplex_frame():
    # H(tau) = -((k-1)/k) * sum_e w_e <sigma(tau_u), sigma(tau_v)>, where the
    # simplex frame's Gram matrix is 1 on equal parts and -1/(k-1) otherwise
    for seed in range(5):
        rng = random.Random(f"sf:{seed}")
        n, k = rng.randint(3, 8), rng.choice([2, 3, 4])
        inst = smoothed_instance(n, k, seed)
        tau = random_tau0(n, k, seed)
        total = Fraction(0)
        for (u, v), num in zip(inst.edges, inst.weight_nums):
            gram = Fraction(1) if tau[u] == tau[v] else Fraction(-1, k - 1)
            total += Fraction(num, inst.denom) * gram
        assert fb.hamiltonian(inst, tau) == -Fraction(k - 1, k) * total


def test_improving_moves_brute_force():
    for seed in range(10):
        rng = random.Random(f"im:{seed}")
        n, k = rng.randint(3, 7), rng.choice([2, 3])
        inst = smoothed_instance(n, k, seed)
        tau = random_tau0(n, k, seed)
        got = fb.improving_moves(inst, tau)
        want = []
        for v in range(n):
            for q in range(1, k + 1):
                if q == tau[v]:
                    continue
                m = fb.Move(v, tau[v], q)
                d = fb.move_delta(inst, tau, m)
                if d > 0:
                    want.append((m, d))
        assert got == want


def test_instance_text_roundtrip():
    inst = smoothed_instance(6, 3, 42)
    back = fb.Instance.from_text(inst.to_text())
    assert back == inst
    assert back.content_hash() == inst.content_hash()


_INVALID_INSTANCES = [
    ({"k": 1, "edges": (), "weight_nums": ()}, "part count k must be at least 2"),
    ({"edges": ((0, 0),), "weight_nums": (1,)}, "loop edge 0"),
    ({"edges": ((1, 0),), "weight_nums": (1,)}, r"edge \(1,0\) out of range or unordered"),
    ({"edges": ((0, 3),), "weight_nums": (1,)}, r"edge \(0,3\) out of range or unordered"),
    ({"edges": ((-1, 2),), "weight_nums": (1,)}, r"edge \(-1,2\) out of range or unordered"),
    ({"edges": ((0, 10 ** 30),), "weight_nums": (1,)}, r"edge \(0,10{30}\) out of range"),
    ({"edges": ((0, 1), (0, 1)), "weight_nums": (1, 1)}, r"duplicate edge \(0,1\)"),
    ({"edges": ((0, 1),), "weight_nums": (2 ** 21,)}, "weight magnitude exceeds 1"),
    ({"edges": ((0, 1),), "weight_nums": (-2 ** 63,)}, "weight magnitude exceeds 1"),
    ({"edges": ((0, 1),), "weight_nums": (10 ** 29,)}, "weight magnitude exceeds 1"),
    ({"edges": ((0, 1),), "weight_nums": (1,), "denom": 3}, "positive power of two"),
    ({"edges": ((0, 1),), "weight_nums": (1,), "complete": True}, "complete flag set"),
    # the first offending edge in edge order wins, then the edge checks
    # before the weights
    ({"edges": ((0, 1), (2, 2), (1, 2), (0, 1)), "weight_nums": (1, 1, 1, 1)}, "loop edge 2"),
    ({"edges": ((0, 2), (0, 2), (2, 1)), "weight_nums": (1, 1, 1)}, r"duplicate edge \(0,2\)"),
    ({"edges": ((0, 1), (0, 5)), "weight_nums": (2 ** 30, 1)}, r"edge \(0,5\) out of range"),
]


def test_instance_validation_errors():
    for kw, message in _INVALID_INSTANCES:
        with pytest.raises(fb.ModelError, match=message):
            fb.Instance(**{"n": 3, "k": 2, **kw})


def test_move_validation():
    inst = smoothed_instance(4, 3, 0)
    tau = (1, 2, 3, 1)
    with pytest.raises(fb.InvalidMoveError):
        validate_move(inst, tau, fb.Move(0, 2, 3))   # wrong from-part
    with pytest.raises(fb.InvalidMoveError):
        validate_move(inst, tau, fb.Move(0, 1, 1))   # p == q
    with pytest.raises(fb.InvalidMoveError):
        validate_move(inst, tau, fb.Move(9, 1, 2))   # out of range
    with pytest.raises(fb.InvalidMoveError):
        fb.apply_move(tau, fb.Move(0, 2, 3))
    assert fb.apply_move(tau, fb.Move(0, 1, 2)) == (2, 2, 3, 1)


def test_apply_move_rejects_vertices_and_parts_out_of_range():
    # a negative vertex once moved the last one, and part 0 was accepted
    for tau, move in (((1, 2), fb.Move(-1, 2, 1)), ((1, 2), fb.Move(5, 1, 2)),
                      ((1, 2), fb.Move(2, 1, 2)), ((1, 2), fb.Move(0, 1, 0)),
                      ((1, 2), fb.Move(0, 1, -3))):
        with pytest.raises(fb.InvalidMoveError):
            fb.apply_move(tau, move)


def test_configuration_helpers():
    inst = smoothed_instance(4, 2, 0)
    with pytest.raises(fb.ModelError):
        check_configuration(inst, (1, 2))
    with pytest.raises(fb.ModelError):
        check_configuration(inst, (1, 2, 3, 1))
    assert parse_configuration("1 2 2 1") == (1, 2, 2, 1)
    with pytest.raises(fb.ModelError):
        parse_configuration("1 x 2 1")


def test_move_delta_num_sign_convention():
    # path 0-1-2 with weights a, b: moving vertex 1 out of part of 0
    inst = fb.Instance(n=3, k=2, edges=((0, 1), (1, 2)),
                       weight_nums=(5, -3), denom=fb.DEFAULT_DENOM)
    tau = (1, 1, 2)
    # neighbors: 0 in departed part (+5), 2 in destination part (-(-3))
    step = fb.replay(inst, tau, [fb.Move(1, 1, 2)])
    assert fb.build_M(step).cols[0] == ((0, 1), (1, -1))
    assert fb.move_delta(inst, tau, fb.Move(1, 1, 2)) == Fraction(5 + 3, inst.denom)


def test_edge_index_and_neighbors():
    inst = smoothed_instance(5, 2, 1)
    assert inst.edge_index(3, 1) == inst.edge_index(1, 3)
    assert inst.edge_index(0, 4) is not None
    assert int((inst.edge_ids()[0] >= 0).sum()) == 4
    assert inst.edge_index(2, 2) is None
    assert inst.edge_index(0, 5) is None and inst.edge_index(-1, 2) is None
    assert inst.m == 10


def test_cached_hash_and_weight_matrix():
    inst = smoothed_instance(9, 3, 8, kind="gnp")
    assert inst.content_hash() == hashlib.sha256(inst.to_text().encode()).hexdigest()[:16]
    assert inst.content_hash() is inst.content_hash()
    w = inst.weight_matrix()
    assert w is inst.weight_matrix() and not w.flags.writeable
    assert (w == w.T).all() and not w.diagonal().any()
    assert int((w != 0).sum()) == 2 * sum(1 for num in inst.weight_nums if num)
    for (u, v), num in zip(inst.edges, inst.weight_nums):
        assert w[u, v] == num
    # the caches are not part of equality or of the constructor
    again = fb.Instance(n=inst.n, k=inst.k, edges=inst.edges, weight_nums=inst.weight_nums,
                        denom=inst.denom, phi=inst.phi)
    assert again == inst and again._hash is None and again._weights is None


def test_cached_edge_ids_and_arrays():
    inst = smoothed_instance(9, 3, 8, kind="gnp")
    ids = inst.edge_ids()
    assert ids is inst.edge_ids() and not ids.flags.writeable
    assert (ids == ids.T).all() and (ids.diagonal() == -1).all()
    assert int((ids >= 0).sum()) == 2 * inst.m
    u, v, nums = inst.edge_arrays()
    assert inst.edge_arrays()[0] is u and not nums.flags.writeable
    for e, ((a, b), num) in enumerate(zip(inst.edges, inst.weight_nums)):
        assert ids[a, b] == e and (u[e], v[e], nums[e]) == (a, b, num)
    assert nums.dtype == np.int64
    # beyond m * denom < 2**63 the numerators stay Python ints
    big = fb.make_instance("complete", 12, 3, fb.SmoothingProfile(phi=1, seed=5), denom=2 ** 70)
    assert big.edge_arrays()[2].dtype == object
    assert big.total_weight() == Fraction(sum(big.weight_nums), big.denom)


@pytest.mark.parametrize("build, digest", [
    (lambda: fb.make_instance("gnp", 96, 2, fb.SmoothingProfile(phi=Fraction(1), seed=3), p=0.5),
     "e632750cedd88a6e587d6890a058991c85c95b9c095bdb49b40e53d0c5492ff6"),
    # m * denom >= 2**63: the object-dtype path, nums held as Python ints
    (lambda: fb.make_instance("complete", 12, 3, fb.SmoothingProfile(phi=1, seed=5), denom=2 ** 70),
     "abe5feea0ba4156d86276edc74075a9aa843b19ff8fb289a590251b0039fa218"),
])
def test_instance_text_is_pinned(build, digest):
    # digests recorded before to_text and the edge arrays were built in numpy
    inst = build()
    assert hashlib.sha256(inst.to_text().encode()).hexdigest() == digest
    w = inst.weight_matrix()
    expected = np.zeros((inst.n, inst.n), dtype=w.dtype)
    for (u, v), num in zip(inst.edges, inst.weight_nums):
        expected[u, v] = expected[v, u] = num
    assert w.dtype == expected.dtype and (w == expected).all()
    if w.dtype == object:  # exact Python ints, not int64 scalars
        assert all(type(x) is int for x in w.ravel())
