"""Threshold arithmetic against a high-precision rational sqrt(2) oracle."""

import math
from fractions import Fraction

import pytest

from flipbench import Beta

# rational sandwich sqrt(2) in [LO, HI] with 60 digits of precision
_SCALE = 10 ** 60
_LO = Fraction(math.isqrt(2 * _SCALE * _SCALE), _SCALE)
_HI = _LO + Fraction(1, _SCALE)
assert _LO * _LO < 2 < _HI * _HI

# every s below 2000, then large ones where a search from 0 would crawl
SIZES = list(range(0, 2000)) + [10 ** 6, 10 ** 6 + 1, 2 ** 40 - 1, 10 ** 12,
                                10 ** 12 + 7, 10 ** 18 + 3]


def _oracle_ceil(x_lo: Fraction, x_hi: Fraction) -> int:
    lo, hi = math.ceil(x_lo), math.ceil(x_hi)
    assert lo == hi, "oracle precision insufficient"
    return lo


def test_qualifies_oracle():
    beta = Beta.sqrt_half()
    for s in range(0, 400):
        for length in range(s, 3 * s + 2):
            lo = (1 + 1 / _HI) * s
            hi = (1 + 1 / _LO) * s
            if length >= hi:
                want = True
            elif length < lo:
                want = False
            else:
                continue  # boundary tighter than the sandwich; skip
            assert beta.qualifies(length, s) == want


def test_ceil_threshold_oracle():
    beta = Beta.sqrt_half()
    for s in SIZES:
        want = s + _oracle_ceil(s / _HI, s / _LO)
        assert beta.ceil_threshold(s) == want


def test_ceil_singleton_bound_oracle():
    # beta/(1+beta) = 1/(1+sqrt2)
    beta = Beta.sqrt_half()
    for s in SIZES:
        want = _oracle_ceil(s / (1 + _HI), s / (1 + _LO))
        assert beta.ceil_singleton_bound(s) == want


def test_ceil_rank_bound_oracle():
    # beta/(1+2*beta) = 1/(sqrt2+2)
    beta = Beta.sqrt_half()
    for s in SIZES:
        want = _oracle_ceil(s / (2 + _HI), s / (2 + _LO))
        assert beta.ceil_rank_bound(s) == want


def test_rational_beta():
    beta = Beta.of(2)
    assert beta.ceil_threshold(5) == 15
    assert beta.qualifies(15, 5) and not beta.qualifies(14, 5)
    assert beta.ceil_singleton_bound(9) == 6    # ceil(2/3 * 9)
    assert beta.ceil_rank_bound(9) == 4         # ceil(2/5 * 9)
    half = Beta.of(Fraction(1, 2))
    assert half.ceil_threshold(4) == 6
    assert half.qualifies(6, 4) and not half.qualifies(5, 4)


RATIONALS = (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(1, 7),
             Fraction(5, 3), Fraction(7071, 10000), Fraction(9))


def test_rational_qualifies_matches_fraction_form():
    for value in RATIONALS:
        beta = Beta.of(value)
        for s in range(0, 60):
            for length in range(0, 12 * s + 3):
                assert beta.qualifies(length, s) == (length >= (1 + value) * s)


def test_rational_ceilings_oracle():
    for value in RATIONALS:
        beta = Beta.of(value)
        for s in SIZES:
            assert beta.ceil_threshold(s) == math.ceil((1 + value) * s)
            assert beta.ceil_singleton_bound(s) == math.ceil(value / (1 + value) * s)
            assert beta.ceil_rank_bound(s) == math.ceil(value / (1 + 2 * value) * s)


def test_at_least_over_all_signs():
    # for 1/sqrt(2), x - y/sqrt2 is 0 or at least 1/150 in size here, far
    # above the sandwich's error
    for value in (None, *RATIONALS):
        beta = Beta(rational=value)
        b = _LO / 2 if value is None else value
        for x in range(-40, 41):
            for y in range(-40, 41):
                assert beta.at_least(x, y) == (x >= b * y)


def test_block_search_ceilings():
    # find_critical_block reads need(L) = L - s_max(L), with s_max(L) the
    # largest s with qualifies(L, s), as ceil_singleton_bound(L), and the
    # least length a block of s vertices can have as ceil_threshold(s)
    for beta in (Beta.sqrt_half(), Beta.of(2), Beta.of(Fraction(1, 2)),
                 Beta.of(Fraction(3, 2)), Beta.of(Fraction(1, 7))):
        for length in range(0, 301):
            s_max = length - beta.ceil_singleton_bound(length)
            assert beta.qualifies(length, s_max)
            assert not beta.qualifies(length, s_max + 1)
        for s in range(0, 301):
            least = beta.ceil_threshold(s)
            assert beta.qualifies(least, s)
            assert least == 0 or not beta.qualifies(least - 1, s)


def test_parse_and_str():
    assert Beta.parse("1/sqrt2").rational is None
    assert Beta.parse("1/sqrt(2)").rational is None
    assert Beta.parse("2").rational == 2
    assert Beta.parse("3/4").rational == Fraction(3, 4)
    assert str(Beta.sqrt_half()) == "1/sqrt(2)"
    assert float(Beta.sqrt_half()) == pytest.approx(1 / math.sqrt(2))


def test_decimal_beta_parses_as_its_rational():
    # 0.7071 is a decimal like any other, not an alias of 1/sqrt(2)
    assert Beta.parse("0.7071").rational == Fraction(7071, 10000)
    assert str(Beta.parse(" 0.7071 ")) == "7071/10000"
