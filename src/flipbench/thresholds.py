"""Exact comparisons against the critical-block threshold 1+beta.

beta is either a rational or the irrational optimum 1/sqrt(2).  In the
latter case every test is reduced to an integer inequality (squares of
both sides), so block classification never depends on floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import ModelError


@dataclass(frozen=True)
class Beta:
    """Block-criticality parameter with exact threshold arithmetic."""

    rational: Fraction | None  # None means beta = 1/sqrt(2)

    def __post_init__(self):
        if self.rational is not None and self.rational <= 0:
            raise ModelError(f"beta must be positive, got {self.rational}")

    @classmethod
    def sqrt_half(cls) -> "Beta":
        return cls(rational=None)

    @classmethod
    def of(cls, value) -> "Beta":
        return cls(rational=Fraction(value))

    @classmethod
    def parse(cls, text: str) -> "Beta":
        text = text.strip()
        if text in ("1/sqrt2", "1/sqrt(2)", "sqrt1_2"):
            return cls.sqrt_half()
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"beta {text!r} is neither a rational nor 1/sqrt2") from None
        return cls(rational=value)

    def __str__(self):
        return "1/sqrt(2)" if self.rational is None else str(self.rational)

    def __float__(self):
        return 1 / math.sqrt(2) if self.rational is None else float(self.rational)

    def qualifies(self, length: int, s: int) -> bool:
        """length >= (1+beta)*s, exactly."""
        if self.rational is not None:
            return length >= (1 + self.rational) * s
        diff = length - s
        return diff >= 0 and 2 * diff * diff >= s * s

    def ceil_threshold(self, s: int) -> int:
        """ceil((1+beta)*s), exactly."""
        if self.rational is not None:
            return s + math.ceil(self.rational * s)
        return s + _ceil_over_sqrt2_plus(s, 0)

    def ceil_singleton_bound(self, s: int) -> int:
        """ceil(beta/(1+beta) * s), exactly."""
        if self.rational is not None:
            b = self.rational
            return math.ceil(b * s / (1 + b))
        return _ceil_over_sqrt2_plus(s, 1)

    def ceil_rank_bound(self, s: int) -> int:
        """ceil(beta/(1+2*beta) * s), exactly."""
        if self.rational is not None:
            b = self.rational
            return math.ceil(b * s / (1 + 2 * b))
        return _ceil_over_sqrt2_plus(s, 2)


def _ceil_over_sqrt2_plus(s: int, a: int) -> int:
    """ceil(s / (sqrt2 + a)) for s, a >= 0: the smallest t >= 0 with
    t*(sqrt2 + a) >= s, i.e. s - a*t <= 0 or 2*t^2 >= (s - a*t)^2.

    With r = isqrt(2*s^2), sqrt2 < (r+1)/s, so s^2 // (r + 1 + a*s) never
    exceeds the answer and falls short of it by at most two; the search
    counts up from there.
    """
    t = s * s // (math.isqrt(2 * s * s) + 1 + a * s)
    while s - a * t > 0 and 2 * t * t < (s - a * t) ** 2:
        t += 1
    return t
