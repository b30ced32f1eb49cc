"""Graph construction and smoothed edge-weight sampling.

The smoothing density is uniform on an interval of length 1/phi centered
at c_e, so the density equals phi on its support (the extremal case).
Weights are drawn on the fixed-point grid {.../D} so everything downstream
stays exact.  Each draw is a pure function of (seed, index), so sampling
is reproducible and order-independent.  The sampling rule:

- edge i of a profile with seed s and grid {lo..hi} weighs
  random.Random(f"w:{s}:{i}").randint(lo, hi) / D;
- G(n, p) keeps pair i, in complete_edges order, when
  random.Random(f"gnp:{s}:{i}").random() < p.

`_mt_words` evaluates exactly this rule for many indices at once: it
replays CPython's string seeding and Mersenne Twister in numpy for every
seed of a batch of up to 8192 indices of any key length.  The stdlib
expression remains the definition, and it computes every draw the batch
does not reach, all of them when there are fewer than 640 indices.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .model import DEFAULT_DENOM, Instance, ModelError, complete_edges

# the sha512 random.seed itself uses: cheaper than hashlib's on short input
_sha512 = getattr(random, "_sha512", hashlib.sha512)


class GeneratorError(ModelError):
    pass


@dataclass(frozen=True)
class SmoothingProfile:
    """Per-edge uniform densities with max value exactly phi.

    Every support interval [c_e - 1/(2 phi), c_e + 1/(2 phi)] must fit in
    [-1, 1]; with phi >= 1/2 and centers defaulting to zero that always
    holds.
    """

    phi: Fraction
    seed: int
    centers: tuple = ()  # per-edge Fractions; empty means all zero

    def __post_init__(self):
        if self.phi < Fraction(1, 2):
            raise GeneratorError("phi < 1/2: support interval would exceed [-1,1]")
        half = Fraction(1, 2) / self.phi
        for c in self.centers:
            if abs(c) + half > 1:
                raise GeneratorError(f"center {c} pushes support outside [-1,1]")

    def center(self, i: int) -> Fraction:
        return self.centers[i] if self.centers else Fraction(0)

    def support(self, i: int):
        half = Fraction(1, 2) / self.phi
        c = self.center(i)
        return c - half, c + half


# --- the stdlib's per-index streams, many seeds at once ----------------------

_N, _M = 624, 397  # MT19937 state size and twist offset
_WORDS = 8         # outputs per seed; randint's rejection tail past them uses the stdlib
_MIN_BATCH = 640   # a batch costs ~8k ufunc calls at any size: fewer indices use the stdlib
_MAX_BATCH = 8192
_INIT = [19650218]  # init_genrand(19650218), where init_by_array starts
while len(_INIT) < _N:
    _INIT.append((1812433253 * (_INIT[-1] ^ (_INIT[-1] >> 30)) + len(_INIT)) & 0xFFFFFFFF)
# 0-d arrays: the scalar operand numpy's ufuncs take fastest
_INIT = [np.array(x, np.uint32) for x in _INIT]
_POS = [np.array(i, np.uint32) for i in range(_N)]


def _mt_outputs(key, spans, count):
    """First `count` outputs of CPython's MT19937 after init_by_array(key),
    for every row of the (c, words) uint32 array `key`.  `spans` holds
    (n_words, start, stop): rows start..stop-1 have keys of n_words words.

    init_by_array's first loop writes positions 1..623, with key word
    j = 0, 1, ... cycling, then position 1 again; its second loop writes
    2..623, then 1.  Run the first loop once to learn position 623, then
    replay it in lockstep with the second, keeping only the positions the
    first twist reads: memory is O(c), not O(624 c).  Every step runs on
    the whole batch but the key add, which runs once per key length.
    """
    c = len(key)
    s, t, mult = (np.empty((2, c), np.uint32) for _ in range(3))
    mult[0], mult[1] = 1664525, 1566083941  # the two loops' multipliers
    (s0, s1), (t0, t1) = s, t
    low, high = np.empty((count + 1, c), np.uint32), np.empty((count, c), np.uint32)
    # (rows, their t0, their s0, key word j + j for each j)
    segments = [(slice(a, b), t0[a:b], s0[a:b], list(np.ascontiguousarray(
        (key[a:b, :w] + np.arange(w, dtype=np.uint32)).T))) for w, a, b in spans]

    def mix(v, out, m):  # out = (v ^ (v >> 30)) * m
        np.right_shift(v, _POS[30], out=out)
        np.bitwise_xor(out, v, out=out)
        np.multiply(out, m, out=out)

    def first_loop(i):  # s0 = (init[i] ^ t0) + key[j] + j, j = (i - 1) mod key words
        np.bitwise_xor(t0, _INIT[i], out=t0)
        for _, t0_rows, s0_rows, kj in segments:
            np.add(t0_rows, kj[(i - 1) % len(kj)], out=s0_rows)

    s0[:] = _INIT[0]
    for i in range(1, _N):
        mix(s0, t0, mult[0])
        first_loop(i)
    mix(s0, t1, mult[0])
    s0[:] = _INIT[0]
    mix(s0, t0, mult[0])
    first_loop(1)
    one = t1 ^ s0  # position 1, revisited
    for rows, _, _, kj in segments:
        one[rows] += kj[(_N - 1) % len(kj)]
    s1[:] = one
    for i in range(2, _N):
        mix(s, t, mult)
        first_loop(i)
        np.bitwise_xor(t1, s0, out=t1)
        np.subtract(t1, _POS[i], out=s1)  # second loop: (mt[i] ^ t1) - i
        if i <= count:
            low[i] = s1
        elif _M <= i < _M + count:
            high[i - _M] = s1
    mix(s1, t1, mult[1])
    low[0], low[1] = 0x80000000, (t1 ^ one) - _POS[1]
    y = (low[:-1] & np.uint32(0x80000000)) | (low[1:] & np.uint32(0x7FFFFFFF))
    y = high ^ (y >> 1) ^ ((y & np.uint32(1)) * np.uint32(0x9908B0DF))  # the twist
    y ^= y >> 11
    y ^= (y << 7) & np.uint32(0x9D2C5680)
    y ^= (y << 15) & np.uint32(0xEFC60000)
    return (y ^ (y >> 18)).T


def _mt_keys(prefix: bytes, lo: int, hi: int, digits):
    """(key, spans): init_by_array's keys for the seeds f"{prefix}{i}",
    lo <= i < hi, as _mt_outputs reads them.  seed(str) reads the bytes
    and their sha512 as one big-endian int, and the key is its 32-bit
    words, little-endian: the digest, the decimal digits and the prefix,
    each reversed, then zeros.  `digits` holds (digit count, start, stop,
    key words) for the index ranges."""
    seed = prefix.replace(b"%", b"%%") + b"%d"
    digests = b"".join([_sha512(seed % i).digest() for i in range(lo, hi)])
    # whole words for the longest seed's bytes; past a key's own words lie only zeros
    buf = np.zeros((hi - lo, -(-(64 + digits[-1][0] + len(prefix)) // 4) * 4), np.uint8)
    buf[:, :64] = np.frombuffer(digests, np.uint8).reshape(-1, 64)[:, ::-1]
    index = np.arange(lo, hi)
    spans = []  # [key words, start, stop]
    for d, start, stop, n_words in digits:
        start, stop = max(start, lo) - lo, min(stop, hi) - lo
        if start >= stop:
            continue
        for j in range(d):
            buf[start:stop, 64 + j] = 48 + index[start:stop] // 10 ** j % 10
        buf[start:stop, 64 + d:64 + d + len(prefix)] = np.frombuffer(prefix[::-1], np.uint8)
        if spans and spans[-1][0] == n_words:
            spans[-1][2] = stop
        else:
            spans.append([n_words, start, stop])
    return buf.view("<u4"), spans


def _mt_words(prefix: str, m: int, count: int):
    """(words, done): words[i] holds the first `count` getrandbits(32) of
    random.Random(f"{prefix}{i}") for every i < m with done[i].  Batches of
    up to _MAX_BATCH indices of any key length compute them; with fewer
    than _MIN_BATCH indices in all, the stdlib computes every draw."""
    if not 0 < count <= _N - _M:
        raise ValueError(f"count {count} outside the first twist")
    words, done = np.zeros((m, count), np.uint32), np.zeros(m, bool)
    prefix = prefix.encode()
    digits = []  # (digit count, start, stop, key words) of the indices < m
    for d in range(1, len(str(max(m - 1, 0))) + 1):
        start = 10 ** (d - 1) if d > 1 else 0
        b = b"%s%d" % (prefix, start)
        # seeds of one byte length share the prefix, so they share its bit length
        n_words = (int.from_bytes(b + _sha512(b).digest(), "big").bit_length() + 31) // 32
        if n_words > _N:  # init_by_array then runs past 624 steps: left to the stdlib
            break
        digits.append((d, start, min(10 ** d, m), n_words))
    usable = digits[-1][2] if digits else 0
    if usable < _MIN_BATCH:
        return words, done
    batches = -(-usable // _MAX_BATCH)
    size = -(-usable // batches)  # even batches of at most _MAX_BATCH
    for lo in range(0, usable, size):
        hi = min(lo + size, usable)
        words[lo:hi] = _mt_outputs(*_mt_keys(prefix, lo, hi, digits), count)
    done[:usable] = True
    return words, done


GRAPH_KINDS = ("complete", "gnp")


def build_graph(kind: str, n: int, p: float | None = None, seed: int = 0):
    """Edge set of a simple graph: complete or G(n,p).

    gnp inclusion of each pair is a pure function of (seed, pair index),
    so the same seed always yields the same graph.
    """
    if kind not in GRAPH_KINDS:
        raise GeneratorError(f"unknown graph kind {kind!r}")
    if n < 2:
        raise GeneratorError("need n >= 2")
    if kind == "complete":
        return complete_edges(n)
    if p is None or not 0 <= p <= 1:
        raise GeneratorError("gnp requires p in [0,1]")
    pairs = complete_edges(n)
    words, done = _mt_words(f"gnp:{seed}:", len(pairs), 2)
    # random() is (a * 2**26 + b) / 2**53 from the top 27 and 26 bits of two words
    x = ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) * (1.0 / 9007199254740992.0)
    keep = x < p
    for i in np.flatnonzero(~done).tolist():
        keep[i] = random.Random(f"gnp:{seed}:{i}").random() < p
    return tuple(compress(pairs, keep.tolist()))


def grid_bounds(profile: SmoothingProfile, i: int, denom: int):
    """Integer grid {lo..hi} such that lo/denom..hi/denom covers the support."""
    lo_f, hi_f = profile.support(i)
    lo = math.ceil(lo_f * denom)
    hi = math.floor(hi_f * denom)
    return lo, hi


def sample_weights(edges, profile: SmoothingProfile, denom: int = DEFAULT_DENOM):
    """Weight numerators, each uniform on its grid and keyed by (seed, edge
    index); the grid bounds are computed once per distinct centre, and the
    edges of one grid are drawn together."""
    m = len(edges)
    grids: dict = {}  # (lo, hi) -> edge indices
    if profile.centers:
        bounds: dict = {}
        for i in range(m):
            c = profile.centers[i]
            if c not in bounds:
                bounds[c] = grid_bounds(profile, i, denom)
            grids.setdefault(bounds[c], []).append(i)
    elif m:
        grids[grid_bounds(profile, 0, denom)] = np.arange(m)
    words, done = _mt_words(f"w:{profile.seed}:", m, _WORDS)
    nums = np.empty(m, dtype=object)
    for (lo, hi), idx in grids.items():
        idx = np.asarray(idx)
        width = hi - lo + 1
        ok = np.zeros(len(idx), bool)
        if 1 <= width < 2 ** 32:  # randint's getrandbits(k) is the top k bits of one word
            r = words[idx] >> (32 - width.bit_length())
            hit = r < width  # _randbelow redraws r >= width
            ok = hit.any(axis=1) & done[idx]
            r = r[np.arange(len(idx)), hit.argmax(axis=1)]
            nums[idx] = r.astype(np.int64 if abs(lo) < 2 ** 62 else object) + lo
        for i in idx[~ok].tolist():  # the draws the batch does not reach
            nums[i] = random.Random(f"w:{profile.seed}:{i}").randint(lo, hi)
    return tuple(nums.tolist())


def make_instance(kind: str, n: int, k: int, profile: SmoothingProfile,
                  p: float | None = None, denom: int = DEFAULT_DENOM) -> Instance:
    """Build a graph and sample smoothed weights for it in one step."""
    es = build_graph(kind, n, p=p, seed=profile.seed)
    nums = sample_weights(es, profile, denom=denom)
    return Instance(n=n, k=k, edges=es, weight_nums=nums, denom=denom,
                    phi=profile.phi, complete=(kind == "complete"))
