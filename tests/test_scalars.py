from fractions import Fraction
from math import comb

from k3pairs.scalars import bernoulli, fraction_str, i_power_str


def test_bernoulli_small():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)   # first-convention sign
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for m in (3, 5, 7, 9, 11):
        assert bernoulli(m) == 0


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1
    for m in range(1, 12):
        assert sum(comb(m + 1, k) * bernoulli(k)
                   for k in range(m + 1)) == 0


def test_gaussian_strings():
    # i_power_str(s, c) renders i^s c, the value of a stored v^s cell c,
    # in every form that fit and the symmetry report print
    assert i_power_str(0, Fraction(1, 240)) == "1/240"
    assert i_power_str(4, Fraction(-1, 12)) == "-1/12"
    assert i_power_str(2, Fraction(-1, 24)) == "1/24"
    assert i_power_str(2, Fraction(1, 2)) == "-1/2"
    assert i_power_str(0, 5) == "5"
    assert i_power_str(6, 0) == "0"
    assert i_power_str(3, 0) == "0"
    assert i_power_str(1, 1) == "i"
    assert i_power_str(3, 1) == "-i"
    assert i_power_str(-1, 1) == "-i"           # i^-1 = -i
    assert i_power_str(-1, -1) == "i"
    assert i_power_str(1, Fraction(2)) == "2i"
    assert i_power_str(5, -2) == "-2i"
    assert i_power_str(3, Fraction(-1, 288)) == "1/288i"
    assert i_power_str(3, Fraction(1, 288)) == "-1/288i"
    assert i_power_str(7, Fraction(-11, 17280)) == "11/17280i"
    assert i_power_str(-3, Fraction(1, 5)) == "1/5i"   # i^-3 = i
    # against the rendering of a (re, im) pair of Fractions that the
    # fit output has always used: "p/q", "p/qi", "i", "-i", "0"
    for c in (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-7, 12)):
        for s in range(-5, 9):
            re, im = [(c, 0), (0, c), (-c, 0), (0, -c)][s % 4]
            assert i_power_str(s, Fraction(c)) == _pair_str(re, im), (s, c)


def _pair_str(re, im):
    """re + i im with re = 0 or im = 0, in the "p/q" / "p/qi" style."""
    if not im:
        return fraction_str(re)
    mag = fraction_str(abs(im)) + "i" if abs(im) != 1 else "i"
    return mag if im > 0 else "-" + mag


def test_fraction_str():
    assert fraction_str(Fraction(3, 4)) == "3/4"
    assert fraction_str(Fraction(-3, 1)) == "-3"
    assert fraction_str(7) == "7"
