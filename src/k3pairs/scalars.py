"""Exact scalar arithmetic: Bernoulli numbers and the rendering of the
Gaussian rationals i^s * c.

Conventions fixed here and relied on everywhere else:

* Bernoulli numbers use B_1 = -1/2 (the "first" convention), so that
  sum_{k=0}^{m} binom(m+1, k) B_k = 0 for m >= 1.
* A v^s cell of a v-expansion is stored as the rational c whose value
  is i^s * c (see series.v_substitute_qmajor); i_power_str renders that
  value, e.g. "1/240", "-i", "1/288i".
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = [
    "bernoulli",
    "fraction_str",
    "i_power_str",
]


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """m-th Bernoulli number as an exact Fraction, B_1 = -1/2."""
    if m < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    if m == 0:
        return Fraction(1)
    if m > 1 and m % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{m} binom(m+1, k) B_k = 0  solved for B_m.
    acc = Fraction(0)
    for k in range(m):
        acc += comb(m + 1, k) * bernoulli(k)
    return -acc / (m + 1)


def fraction_str(x) -> str:
    """Canonical "p/q" (or "p" when q = 1) rendering of an exact rational."""
    if isinstance(x, int):
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def i_power_str(s: int, c) -> str:
    """The Gaussian rational i^s * c, for a rational c, as "p/q" when it
    is real and "p/qi" or "i" with a leading "-" when it is imaginary:
    "1/240", "-1/2", "i", "-i", "2i", "1/288i", and "0" for c = 0."""
    if not c:
        return "0"
    if s % 2 == 0:
        return fraction_str(c if s % 4 == 0 else -c)
    im = c if s % 4 == 1 else -c
    mag = "i" if abs(im) == 1 else fraction_str(abs(im)) + "i"
    return mag if im > 0 else "-" + mag
