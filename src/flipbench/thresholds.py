"""Exact comparisons against the critical-block threshold 1+beta.

beta is a rational or the irrational optimum 1/sqrt(2).  Beta.at_least is
the one test of x >= beta*y; qualifies and the three ceilings read it, so
block classification never depends on floating point.
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

    def at_least(self, x: int, y: int) -> bool:
        """x >= beta*y for integers x, y, exactly: a cross-multiplication for
        a rational beta, else sqrt(2)*x >= y by signs, then by squares."""
        if self.rational is not None:
            return x * self.rational.denominator >= self.rational.numerator * y
        if (x >= 0) != (y >= 0):
            return x >= 0
        return 2 * x * x >= y * y if x >= 0 else 2 * x * x <= y * y

    def qualifies(self, length: int, s: int) -> bool:
        """length >= (1+beta)*s, exactly."""
        return self.at_least(length - s, s)

    def ceil_threshold(self, s: int) -> int:
        """ceil((1+beta)*s), exactly."""
        return s + self._least(s, 0)

    def ceil_singleton_bound(self, s: int) -> int:
        """ceil(beta/(1+beta) * s), exactly."""
        return self._least(s, 1)

    def ceil_rank_bound(self, s: int) -> int:
        """ceil(beta/(1+2*beta) * s), exactly."""
        return self._least(s, 2)

    def _least(self, s: int, a: int) -> int:
        """The least t >= 0 with at_least(t, s - a*t), i.e.
        ceil(beta*s / (1 + a*beta)), for s, a >= 0.  The count starts at
        the exact floor num*s // (den + a*num) for beta = num/den; for
        1/sqrt(2), sqrt2 < (r+1)/s with r = isqrt(2*s^2), so
        s^2 // (r + 1 + a*s) is at most two short of ceil(s/(sqrt2 + a)).
        """
        if self.rational is not None:
            num, den = self.rational.numerator, self.rational.denominator
            t = num * s // (den + a * num)
        else:
            t = s * s // (math.isqrt(2 * s * s) + 1 + a * s)
        while not self.at_least(t, s - a * t):
            t += 1
        return t
