from fractions import Fraction

import pytest

from k3pairs import theta
from k3pairs.rings import Monomial, UPoly, YPoly, kron_width
from k3pairs.series import QSeries
from k3pairs.theta import log_phi_product, phi_bilateral, phi_product, psi

Y = Monomial(0, 1)
YINV = Monomial(0, -1)
U = Monomial(2, 0)


def ypoly(d):
    return YPoly({e: UPoly({0: v}) if isinstance(v, int) else v
                  for e, v in d.items()})


def test_phi_bilateral_axes():
    f = phi_bilateral(Y, YINV, 6, 5)
    q0 = {e: 1 for e in range(0, 6)}
    q0.update({-e: 1 for e in range(1, 6)})
    assert f.coeff(0) == ypoly(q0)
    assert f.coeff(1) == YPoly.zero()
    assert f.coeff(2) == YPoly.zero()


def test_phi_bilateral_window_zero():
    f = phi_bilateral(Y, YINV, 3, 0)
    assert f.coeff(0) == ypoly({0: 1})
    assert f.coeff(1) == YPoly.zero()


def test_phi_bilateral_pure_u_axis():
    with pytest.raises(ValueError):
        phi_bilateral(U, YINV, 4, 3)


def test_phi_bilateral_rejects_trivial():
    with pytest.raises(ValueError):
        phi_bilateral(Monomial(), Y, 4, 4)


def test_psi_frozen_columns():
    f = psi(U, Y, 6, 4)
    assert f.coeff(0) == YPoly(
        {p: UPoly({2 * p: 1, 0: -1}) for p in range(1, 5)})
    assert f.coeff(1) == YPoly({0: UPoly({2: 1, -2: -1})})  # x - 1/x


def test_psi_trivial_x_vanishes():
    f = psi(Monomial(), Y, 6, 4)
    for m in range(6):
        assert f.coeff(m) == YPoly.zero()


def test_psi_needs_y_part():
    with pytest.raises(ValueError):
        psi(U, Monomial(2, 0), 4, 4)


def test_psi_refuses_arguments_whose_y_parts_cancel():
    # x = u y^-1 and y_mono = y: every term x^p y^p = u^p of the l = 0 row
    # sits at q^0 y^0, so no window bounds that row
    with pytest.raises(ValueError, match="product of the two arguments"):
        psi(Monomial(2, -1), Y, 4, 2)
    with pytest.raises(ValueError, match="product of the two arguments"):
        psi(Monomial(-2, 2), Monomial(0, -2), 4, 5)


@pytest.mark.parametrize("x,ym", [
    (Monomial(2, -1), Monomial(0, 2)),  # x^p pulls y^(p-l) back into
                                        # the window
    (Monomial(-2, 2), YINV),
    (Monomial(3, 0), Monomial(2, 1)),
])
def test_psi_keeps_every_term_inside_the_window(x, ym):
    """Above q^0, psi is the lattice sum cut to |y| <= ywin term by term,
    however far y_mono^(p-l) alone lies outside the window."""
    qorder, ywin = 9, 2
    want = {}
    for el in range(1, qorder):
        for p in range(1, (qorder - 1) // el + 1):
            d = ym ** (p - el)
            for m, sign in (((x ** p) * d, 1), ((x ** -el) * d, -1)):
                if abs(m.y) <= ywin:
                    want[p * el] = want.get(p * el, YPoly()) + sign * YPoly(
                        {m.y: UPoly.u(m.u2, 1)})
    f = psi(x, ym, qorder, ywin)
    for qe in range(1, qorder):
        assert f.coeff(qe) == want.get(qe, 0), qe


def bilateral_unit(mono, ywin):
    out = YPoly.zero()
    k = 0
    while abs(k * mono.y) <= ywin:
        out = out + YPoly({(mono ** k).y: UPoly.u((mono ** k).u2, 1)})
        if k > 0:
            mk = mono ** -k
            out = out + YPoly({mk.y: UPoly.u(mk.u2, 1)})
        k += 1
    return out


@pytest.mark.parametrize("x,ym", [
    (U, Y),                       # the rank-one instance
    (Monomial(3, 0), Monomial(2, 1)),   # generic half-integer u-power
    (Monomial(-2, 2), Monomial(0, -1)),
])
def test_psi_equals_bilateral_quotient(x, ym):
    qorder, ywin = 9, 7
    lhs = psi(x, ym, qorder, ywin)
    rhs = phi_bilateral(x * ym, ym.inverse(), qorder, ywin)
    for m in range(1, qorder):
        assert lhs.coeff(m) == rhs.coeff(m), m
    # the q^0 columns are the two one-sided expansions of the same
    # rational function; they differ by exactly the bilateral unit
    diff = rhs.coeff(0) - lhs.coeff(0)
    assert diff == bilateral_unit(ym, ywin)


def test_phi_product_constant_and_first_column():
    f = phi_product(0, 0, 4, 4)
    assert f.coeff(0) == ypoly({0: 1})
    assert f.coeff(1) == ypoly({1: 2, -1: 2, 0: -4})
    g = phi_product(1, 0, 3, 4)
    assert g.coeff(1) == YPoly({
        0: UPoly({0: -2, 2: -1, -2: -1}),
        1: UPoly({0: 1, 2: 1}),
        -1: UPoly({0: 1, -2: 1})})


def test_log_phi_product_hand_columns():
    f = log_phi_product(0, 0, 3, 4)
    assert f.coeff(0) == YPoly.zero()
    assert f.coeff(1) == ypoly({1: 2, -1: 2, 0: -4})
    assert f.coeff(2) == YPoly({
        e: v * Fraction(1)
        for e, v in ypoly({2: 1, -2: 1, 1: 2, -1: 2, 0: -6}).c.items()})


def test_rank_one_bridge():
    qorder, ywin = 8, 8
    t = YPoly({0: UPoly({0: 1, 2: 1}), -1: -UPoly.one(), 1: UPoly({2: -1})})
    lhs = psi(U, Y, qorder, ywin).map_coeffs(lambda c: c * t)
    rhs = phi_product(1, 0, qorder, ywin).map_coeffs(
        lambda c: c * UPoly({0: 1, 2: -1}))
    for m in range(qorder):
        # an empty column is stored as a bare 0
        lc, rc = (c or YPoly.zero() for c in (lhs.coeff(m), rhs.coeff(m)))
        assert lc.restrict(ywin - 1) == rc.restrict(ywin - 1), m



# ---------------------------------------------------------------------------
# the packed product kernels against the generic series route

ONE = YPoly({0: UPoly.one()})


def _oracle_term(m):
    return YPoly({m.y: UPoly.u(m.u2, 1)})


def _oracle_phi(k, l, qorder, ywin):
    """phi_product as QSeries products, factor by factor, on the full
    support of each cell, then cut to |y| <= ywin."""
    out = QSeries.from_dict({0: ONE}, 0, qorder)
    num = [Monomial(), Monomial(), Monomial(2 * k, 0), Monomial(-2 * k, 0)]
    den = [Monomial(2 * l, 1), Monomial(-2 * l, -1),
           Monomial(2 * (k + l), 1), Monomial(-2 * (k + l), -1)]
    for n in range(1, qorder):
        for m in num:
            out = out * QSeries.from_dict(
                {0: ONE, n: -_oracle_term(m)}, 0, qorder)
        for m in den:
            out = out * QSeries.from_dict(
                {n * j: _oracle_term(m ** j)
                 for j in range((qorder - 1) // n + 1)}, 0, qorder)
    return out.map_coeffs(lambda c: c.restrict(ywin))


ORACLE_GRID = [(0, 0, 1, 0), (1, 0, 2, 0), (1, 1, 2, 1), (0, 0, 7, 6),
               (1, 0, 8, 8), (2, -2, 6, 3), (-1, 1, 5, 5), (-1, 2, 7, 3),
               (3, -1, 5, 0), (-2, -1, 6, 4), (0, 3, 6, 2), (2, 1, 8, 7),
               # where a (y, u) grid of the cells would be widest
               (3, 3, 7, 6), (-3, -3, 6, 5), (3, 0, 7, 6)]


@pytest.mark.parametrize("k,l,qorder,ywin", ORACLE_GRID)
def test_log_phi_product_exponentiates_to_the_series_route(k, l, qorder, ywin):
    # below q^qorder every cell has |y| < qorder, so at ywin = qorder both
    # sides are the full series; exp is one-to-one on series with zero
    # constant term, so this pins log_phi_product down as log phi
    full = log_phi_product(k, l, qorder, qorder)
    assert full.exp(one=ONE) == _oracle_phi(k, l, qorder, qorder)
    assert log_phi_product(k, l, qorder, ywin) == full.map_coeffs(
        lambda c: c.restrict(ywin))


@pytest.mark.parametrize("k,l,qorder,ywin", ORACLE_GRID)
def test_product_kernels_match_the_series_route(k, l, qorder, ywin):
    got, want = phi_product(k, l, qorder, ywin), _oracle_phi(k, l, qorder, ywin)
    assert got.order == want.order == qorder
    for j in range(qorder):
        assert got.coeff(j) == want.coeff(j), j
    logs = log_phi_product(k, l, qorder, ywin)
    assert logs.order == qorder
    for f in (got, logs):
        for j in range(qorder):
            if f.coeff(j):
                assert max(map(abs, f.coeff(j).c)) <= ywin
    for j in range(1, qorder):
        for entry in logs.coeff(j).c.values():
            assert all(type(v) is Fraction for v in entry.c.values())


def _l1(cell):
    return sum(abs(v) for entry in cell.c.values() for v in entry.c.values())


def test_majorants_bound_the_cells():
    qorder = 8
    big, hbig = theta._phi_majorant(qorder), theta._log_majorant(qorder)
    for k, l in ((0, 0), (1, 0), (2, -1), (-1, 3),
                 (3, 3), (-3, -3), (3, 0)):
        f = _oracle_phi(k, l, qorder, qorder)
        g = log_phi_product(k, l, qorder, qorder)
        assert g.exp(one=ONE) == f
        for j in range(1, qorder):
            assert _l1(f.coeff(j)) <= big[j]
            assert j * _l1(g.coeff(j)) <= hbig[j]
    # at (2, -1) the eight factors give eight distinct q^1 entries
    assert _l1(_oracle_phi(2, -1, 2, 1).coeff(1)) == big[1] == 8


@pytest.mark.parametrize("k,l,qorder,ywin", ORACLE_GRID)
def test_log_cells_are_bounded_by_eight_sigma(k, l, qorder, ywin):
    """Every entry of h_j = j g_j, g the full log phi_product that
    test_log_phi_product_exponentiates_to_the_series_route checks, is at
    most 8 sigma(j) in absolute value: the bound log_phi_product packs
    to, counted here by brute divisor enumeration."""
    g = log_phi_product(k, l, qorder, qorder)
    packed_to = theta._log_majorant(qorder)
    for j in range(1, qorder):
        bound = 8 * sum(d for d in range(1, j + 1) if j % d == 0)
        assert packed_to[j] == bound
        cell = g.coeff(j)
        for entry in (cell.c.values() if cell else ()):
            assert all(abs(j * v) <= bound for v in entry.c.values()), j


# theta packs each kernel to kron_width of its majorant's largest entry;
# the last bound, 2442497014756992, needs 7 bytes
@pytest.mark.parametrize("bound", [0, 1, 127, 128, 255, 2 ** 15 - 1, 2 ** 15,
                                   2442497014756992])
def test_packed_width_is_the_least_with_room(bound):
    w = kron_width(bound)
    assert bound < 256 ** w // 2
    assert w == 1 or bound >= 256 ** (w - 1) // 2
