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
        # smallest t with 2*t^2 >= s^2 (t = ceil(s/sqrt(2)))
        t = math.isqrt(s * s // 2)
        while 2 * t * t < s * s:
            t += 1
        return s + t

    def ceil_singleton_bound(self, s: int) -> int:
        """ceil(beta/(1+beta) * s), exactly."""
        if self.rational is not None:
            b = self.rational
            return math.ceil(b * s / (1 + b))
        # smallest t with t*(1+sqrt2)/sqrt2 >= s, i.e. s-t <= 0 or 2t^2 >= (s-t)^2
        t = 0
        while True:
            rem = s - t
            if rem <= 0 or 2 * t * t >= rem * rem:
                return t
            t += 1

    def ceil_rank_bound(self, s: int) -> int:
        """ceil(beta/(1+2*beta) * s), exactly."""
        if self.rational is not None:
            b = self.rational
            return math.ceil(b * s / (1 + 2 * b))
        # smallest t with t >= s/(sqrt(2)+2), i.e. t*(sqrt2+2) >= s,
        # i.e. s-2t <= 0 or 2*t^2 >= (s-2t)^2
        t = 0
        while True:
            rem = s - 2 * t
            if rem <= 0 or 2 * t * t >= rem * rem:
                return t
            t += 1
