from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from k3pairs.errors import BadConstantTerm, Mismatch
from k3pairs.modular import sigma_series
from k3pairs.rings import UPoly, YPoly
from k3pairs.series import QSeries, v_substitute_qmajor


def geom(order):
    return QSeries(0, [1] * order)


def test_mul_and_order_tracking():
    f = QSeries(0, [1, 1, 1, 1, 1])            # order 5
    g = QSeries(-1, [1, 0, 2, 0])              # order 3, lower -1
    p = f * g
    assert p.lower == -1
    assert p.order == min(5 + (-1), 3 + 0)     # = 3
    assert p.coeff(-1) == 1
    assert p.coeff(0) == 1
    assert p.coeff(2) == 3


def _term_product(f, g):
    """The product as a loop over every pair of nonzero cells."""
    n = min(len(f.coeffs), len(g.coeffs))
    out = [0] * n
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            if i + j < n and a and b:
                out[i + j] += a * b
    return QSeries(f.lower + g.lower, out)


def _scalar_series(cells):
    return st.builds(QSeries, st.integers(-3, 3), st.lists(cells, max_size=8))


_ints = st.integers(-4, 4)
_rationals = st.one_of(_ints, st.fractions(-3, 3, max_denominator=12))


@given(_scalar_series(_rationals), _scalar_series(_rationals))
def test_scalar_product_matches_the_term_loop(f, g):
    p, want = f * g, _term_product(f, g)
    assert (p.lower, p.order) == (want.lower, want.order)
    assert p.coeffs == want.coeffs


@given(_scalar_series(_ints), _scalar_series(_ints))
def test_integer_product_keeps_int_cells(f, g):
    p = f * g
    assert p.coeffs == _term_product(f, g).coeffs
    assert all(type(c) is int for c in p.coeffs)


def test_scalar_product_cancelling_and_mixed_cells():
    f = QSeries(-2, [Fraction(1, 2), Fraction(1, 3), 0, 5])
    g = QSeries(1, [Fraction(1, 2), Fraction(-1, 3), 7])
    p = f * g           # at q^0: 1/2 * (-1/3) + 1/3 * 1/2 cancels
    assert (p.lower, p.order) == (-1, 2)
    assert p.coeffs == [Fraction(1, 4), 0, Fraction(61, 18)]
    assert type(p.coeffs[0]) is Fraction and not p.coeffs[1]
    # a ring cell in either factor keeps the per-term loop
    h = QSeries(0, [UPoly({2: 1}), Fraction(1, 2)])
    assert (h * QSeries(0, [2, 3])).coeffs == \
        [UPoly({2: 2}), UPoly({2: 3}) + 1]


def test_log_exp_roundtrip():
    # exp of the log of f = 1 + 2q - q^2 + 3q^3 + 5q^5 gives f back
    f = QSeries(0, [Fraction(1), Fraction(2), Fraction(-1), Fraction(3),
                    Fraction(0), Fraction(5)])
    log_f = QSeries(0, [0, Fraction(2), Fraction(-3), Fraction(23, 3),
                        Fraction(-29, 2), Fraction(182, 5)])
    log_f.exp().assert_agrees(f, what="exp(log f) and f")


def test_log_exp_guards():
    with pytest.raises(BadConstantTerm):
        QSeries(0, [1, 1]).exp()
    with pytest.raises(BadConstantTerm):
        QSeries(-1, [1, 1, 1]).exp()
    # an empty window knows no constant term
    for lower in (0, -2):
        with pytest.raises(BadConstantTerm, match="unknown at order 0"):
            QSeries(lower, [0] * -lower, "v").exp()


def test_exp_known_series():
    f = QSeries(0, [0, Fraction(1), 0, 0, 0])
    e = f.exp()
    assert [e.coeff(k) for k in range(5)] == \
        [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]


def test_add_scalar_and_shift():
    f = geom(4)
    assert (f + 3).coeff(0) == 4
    assert f.shift(2).coeff(2) == 1
    assert f.shift(2).order == 6


def test_add_scalar_pads_down_to_the_constant_term():
    # q^0 is known (zero) below a positive lower whenever the order is
    # positive, so a scalar lands there
    sig = sigma_series(3, 6)
    assert sig.lower == 1
    plus = sig + 1
    assert (plus.lower, plus.coeffs) == (0, [1, 1, 9, 28, 73, 126])
    minus = 1 - sig
    assert (minus.lower, minus.coeffs) == (0, [1, -1, -9, -28, -73, -126])
    assert sig.coeffs == [1, 9, 28, 73, 126]
    # with the order at or below 0 the constant term is not known
    for f in (QSeries(0, []), QSeries(-3, [1, 2])):
        with pytest.raises(ValueError, match="beyond the known window"):
            f + 1


def test_coeff_beyond_order_is_an_error():
    f = geom(4)
    with pytest.raises(ValueError):
        f.coeff(4)
    assert f.coeff(-3) == 0                    # below lower: exactly zero


def test_truncate_stays_within_the_known_window():
    f = QSeries(0, list(range(10)))
    assert f.truncate(0).order == 0
    with pytest.raises(ValueError):
        f.truncate(11)
    with pytest.raises(ValueError):
        f.truncate(-3)


def test_agrees_and_mismatch_location():
    a = QSeries(0, [YPoly({0: UPoly.one()}), YPoly({1: UPoly({2: 1})})])
    b = QSeries(0, [YPoly({0: UPoly.one()}), YPoly({1: UPoly({4: 1})})])
    assert a.first_mismatch(b, 0, 1) is None
    with pytest.raises(Mismatch) as ei:
        a.assert_agrees(b, what="routes")
    assert ei.value.location == {"q": 1, "y": 1, "u2": 2}


def test_comparison_window_overflow_guard():
    a, b = geom(4), geom(6)
    with pytest.raises(ValueError):
        a.first_mismatch(b, 0, 6)


def test_empty_comparison_window_is_refused():
    a, b = QSeries(0, [1]), QSeries(0, [2])
    with pytest.raises(ValueError, match=r"window \[1,1\) is empty"):
        a.assert_agrees(b, lo=1)
    with pytest.raises(ValueError, match=r"window \[3,2\) is empty"):
        geom(4).first_mismatch(geom(4), 3, 2)
    with pytest.raises(ValueError, match="empty"):
        QSeries(0, []).first_mismatch(QSeries(0, []))
    with pytest.raises(Mismatch):
        a.assert_agrees(b, lo=0)


def test_v_substitution_two_cos():
    # column at q^0: y + y^-1  ->  2 cos v = 2 - v^2 + v^4/12 - ...; the
    # v^s cell stores c with value i^s c, here 2 cosh w in w = iv
    f = QSeries(0, [YPoly({1: 1, -1: 1})])
    v = v_substitute_qmajor(f, 6)
    c = [v.coeff(s).coeff(0) for s in range(6)]
    assert c[0] == 2
    assert c[1] == 0
    assert c[2] == 1                           # value i^2 * 1 = -1
    assert c[3] == 0
    assert c[4] == Fraction(1, 12)


def test_v_substitution_single_exponential():
    # y at q^1 -> e^{iv} column: values i^s/s!, stored as 1/s!
    f = QSeries(0, [0, YPoly({1: 1})])
    v = v_substitute_qmajor(f, 4)
    assert [v.coeff(s).coeff(1) for s in range(4)] == \
        [1, 1, Fraction(1, 2), Fraction(1, 6)]
    assert all(type(v.coeff(s).coeff(1)) is Fraction for s in range(4))


def test_v_substitution_upoly_cells():
    f = QSeries(0, [0, YPoly({2: UPoly({2: 1})})])   # u y^2 q
    v = v_substitute_qmajor(f, 3)
    cell = v.coeff(2).coeff(1)                 # (2i)^2/2! * u = i^2 * 2u
    assert cell == UPoly({2: 2})


def test_v_substitute_refuses_a_scalar_cell():
    with pytest.raises(TypeError, match=r"q\^0"):
        v_substitute_qmajor(QSeries(0, [1, YPoly({1: 2})]), 3)
    with pytest.raises(TypeError, match=r"q\^3"):
        v_substitute_qmajor(QSeries(2, [YPoly({1: 2}), Fraction(1, 2)]), 3)


def test_pow():
    f = QSeries(0, [1, 1, 0, 0, 0, 0])
    assert (f ** 3).coeff(2) == 3
    assert (f ** 0).coeff(0) == 1
    with pytest.raises(ValueError, match="-2"):
        f ** -2
