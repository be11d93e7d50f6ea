"""Theta kernels as truncated (q, y, u)-series.

Three families of kernels feed the partition-function routes and the
verification suites:

* ``phi_bilateral`` -- the sign-matched bilateral lattice sum (the
  workable form of the theta quotient),
* ``psi`` -- the double sum over lattice points ``(p, l)`` with
  ``p >= 1, l >= 0``,
* ``phi_product`` / ``log_phi_product`` -- the eight-factor product
  kernel and its exact series logarithm.

Every function returns a q-series whose coefficients are y-Laurent
polynomials with u-Laurent entries, cut to the window |y| <= ywin, and
every returned coefficient is exact on that window.  The lattice sums
drop the terms outside it as they make them.  The product kernels work
on the full support of each cell, which is finite below q^qorder.  They
do not pack a cell in y and u, where a row's width grows with k and l,
but in the exponents (a, b) of its factor monomials Y = u^l y and
K = u^|k|: the eight factors are 1 - m q^n with m among 1, K^(+-1),
Y^(+-1) and (K Y)^(+-1) or (K^-1 Y)^(+-1), whatever k and l are.  So
every cell is one big integer on a ``rings._KronGrid``, and the whole
product is one ``rings.kron_product``.  Digit (a, b) reads back as the
entry of y^a u^(l a + |k| b).  The byte width comes from a
plain-integer majorant of the cells read back, itself a kron_product,
never from the closed forms the verifiers compare against, and only the
finished cells are cut to the window.
"""

from fractions import Fraction

from .errors import BadConstantTerm
from .rings import Monomial, UPoly, YPoly, _KronGrid, kron_product, \
    kron_width
from .series import QSeries

__all__ = ["phi_bilateral", "psi", "phi_product", "log_phi_product"]


def _check_ywin(ywin: int) -> None:
    """Refuse a negative y-window, on which a builder would hold only zeros."""
    if ywin < 0:
        raise ValueError(f"ywin must be nonnegative (got {ywin})")


def _term(m: Monomial, ywin: int) -> YPoly:
    """The monomial m as a one-term y-polynomial, empty when |m.y| > ywin.

    This is where the lattice sums drop the terms outside the window.
    In psi a y-part of x moves the term x^p y_mono^(p-l) into or out of
    the window whatever y_mono^(p-l) alone does, so only the finished
    monomial can be tested.
    """
    return YPoly._of({m.y: UPoly.u(m.u2, 1)} if abs(m.y) <= ywin else {})


def _axis_bound(m: Monomial, ywin: int) -> int:
    if m.y != 0:
        return ywin // abs(m.y)
    if m.u2 != 0:
        raise ValueError(
            "a pure u-power axis monomial makes the bilateral sum "
            "unbounded at fixed q-order")
    raise ValueError("bilateral sum diverges for a trivial monomial")


def phi_bilateral(a: Monomial, b: Monomial, qorder: int,
                  ywin: int) -> QSeries:
    """sum over sign(i) = sign(j) of sign(i) a^i b^j q^{ij}, truncated.

    sign(0) = +1, so the two boundary rays i = 0, j >= 0 and
    j = 0, i >= 0 belong to the positive quadrant while the negative
    quadrant is open.  Terms whose y-exponent leaves the window are
    dropped; everything kept is exact.
    """
    _check_ywin(ywin)
    if qorder <= 0:
        return QSeries(0, [], "q")
    cells: dict[int, YPoly] = {}

    def push(qe: int, m: Monomial, sign: int):
        t = _term(m, ywin)
        if t:
            cells[qe] = cells.get(qe, YPoly()) + (t if sign > 0 else -t)

    push(0, Monomial(), +1)
    for i in range(1, _axis_bound(a, ywin) + 1):
        push(0, a ** i, +1)
    for j in range(1, _axis_bound(b, ywin) + 1):
        push(0, b ** j, +1)
    for i in range(1, qorder):
        for j in range(1, (qorder - 1) // i + 1):
            push(i * j, (a ** i) * (b ** j), +1)
            push(i * j, (a ** -i) * (b ** -j), -1)
    return QSeries.from_dict(cells, 0, qorder)


def psi(x: Monomial, y_mono: Monomial, qorder: int, ywin: int) -> QSeries:
    """sum_{l >= 0} sum_{p >= 1} (x^p - x^{-l}) y^{p-l} q^{pl} with the
    formal variables replaced by the given monomials.

    The l = 0 row at q^0 is finite on the window only when both y_mono
    and x*y_mono carry a y-part; otherwise ValueError names the one that
    lacks it.
    """
    _check_ywin(ywin)
    if qorder <= 0:
        return QSeries(0, [], "q")
    if y_mono.y == 0:
        raise ValueError(
            "the second argument needs a y-part; a pure u-power makes "
            "the l = 0 row unbounded at q^0")
    if x.y + y_mono.y == 0:
        raise ValueError(
            "the product of the two arguments needs a y-part; when their "
            "y-parts cancel, the l = 0 row is unbounded at q^0")
    cells: dict[int, YPoly] = {}

    def push(qe: int, p: int, el: int):
        d = y_mono ** (p - el)
        t = _term((x ** p) * d, ywin) - _term((x ** -el) * d, ywin)
        if t:
            cells[qe] = cells.get(qe, YPoly()) + t

    for p in range(1, ywin // abs(y_mono.y) + 1):
        push(0, p, 0)
    for el in range(1, qorder):
        for p in range(1, (qorder - 1) // el + 1):
            push(p * el, p, el)
    return QSeries.from_dict(cells, 0, qorder)


def _phi_majorant(qorder: int) -> list:
    """Plain-integer majorant F of phi_product below q^qorder.

    F = prod_{n>=1} (1 + q^n)^4 (1 - q^n)^{-4} is phi_product with every
    monomial set to 1 and every factor sign made positive.  So F_j bounds
    the sum of the absolute values of the q^j cell as a polynomial in the
    factor monomials Y and K of _phi_grid, before Y = u^l y and K = u^|k|
    are specialised, for every k and l.  That is the bound the byte width
    needs, since _phi_grid packs the entries of that polynomial as its
    digits; at k = 0, where K = 1, a digit is a sum of such entries, and
    F_j bounds it too.
    """
    return kron_product([1] + [0] * (qorder - 1), ((-1, 0),) * 4,
                        ((1, 0),) * 4)


def _log_majorant(qorder: int) -> list:
    """H_j = 8 sigma(j) below q^qorder (H_0 = 0), a bound on the sum of
    the absolute values of h_j = j g_j, g = log phi_product(k, l).

    The eight factors of phi_product at q^n are 1 - m q^n for unit
    monomials m, and log(1 - m q^n) = -sum_r m^r q^{nr} / r.  So h_j is
    a sum over the divisors n of j of eight terms +-(j/r) m^r = +-n m^r,
    r = j/n, and its entries sum in absolute value to at most
    8 sum_{n | j} n.  Like F, this comes from the factor list alone, so
    it bounds h_j as a polynomial in the factor monomials Y and K of
    _phi_grid, before they are specialised: the polynomial whose entries are
    the packed digits (at k = 0, sums of them).
    """
    H = [0] * qorder
    for n in range(1, qorder):
        for j in range(n, qorder, n):
            H[j] += 8 * n
    return H


def _phi_grid(k: int, qorder: int, width: int) -> _KronGrid:
    """The packed q^0 .. q^(qorder-1) cells of phi_product(k, l) in the
    exponents (a, b) of its factor monomials Y = u^l y and K = u^|k|.

    With s the sign of k, the eight factors are 1 - q^n (twice),
    1 - K^(+-1) q^n, 1 - Y^(+-1) q^n and 1 - (K^s Y)^(+-1) q^n; at k = 0,
    where K = 1, b stays 0.  Entry (a, b) is the one of
    y^a u^(l*a + |k|*b), which is one-to-one when k != 0, and its
    u-exponent ascends with b.
    """
    s = (k > 0) - (k < 0)
    return _KronGrid([1] + [0] * (qorder - 1),
                     ((0, 0), (0, 0), (0, s), (0, -s)),
                     ((1, 0), (-1, 0), (1, s), (-1, -s)),
                     (qorder - 1) * abs(s), width)


def phi_product(k: int, l: int, qorder: int, ywin: int) -> QSeries:
    """The eight-factor product kernel with u -> u^k, y -> u^l y:

        prod_{n>=1} (1-q^n)^2 (1-u^k q^n)(1-u^{-k} q^n)
                    / [(1-u^l y q^n)(1-u^{-l} y^{-1} q^n)
                       (1-u^{k+l} y q^n)(1-u^{-k-l} y^{-1} q^n)]

    Built on packed integers (see _phi_grid), with the byte width taken
    from the majorant of _phi_majorant, then restricted to ywin.
    """
    _check_ywin(ywin)
    if qorder <= 0:
        return QSeries(0, [], "q")
    grid = _phi_grid(k, qorder, kron_width(max(_phi_majorant(qorder))))
    return QSeries(0, [
        YPoly({
            a: UPoly({2 * (l * a + abs(k) * b): c for b, c in row.items()})
            for a, row in grid.read(v, j, ywin).items()}) if v else 0
        for j, v in enumerate(grid.cells)], "q")


def log_phi_product(k: int, l: int, qorder: int, ywin: int) -> QSeries:
    """Exact series logarithm g of phi_product (constant term is 1).

    With f = phi_product, q f' = (q g') f gives h_j = j g_j as
    h_j = j f_j - sum_{0<i<j} h_i f_{j-i}, an integer recurrence run on
    the packed cells of _phi_grid, in the factor monomials Y and K: each
    product of two packed cells is shifted right by the origin.  Each h_j
    is read back, only its nonzero digits visited, and divided by j, so
    the cells have Fraction entries.

    The byte width only has to decode the finished h_j, not f or the
    partial products.  The packing sends each cell, a polynomial in Y and
    K, to its value at Y = X^row, K = X, times X^origin, a ring
    homomorphism, and every shift right by the origin divides an exact
    multiple of X^origin (at q^j the Y- and K-exponents stay within j, so
    the supports stay inside the grid).  So each packed h_j is that value
    of the true h_j whatever w is.  Reading back balanced base-X digits is
    injective and returns the true entries when they all lie below X/2 in
    absolute value, which the bound 8 sigma(j) of _log_majorant
    guarantees.  Were that bound too small, the cells read back would not
    be the cells of log phi_product, and a comparison with the closed
    forms would fail rather than pass.
    """
    _check_ywin(ywin)
    if qorder <= 0:
        raise BadConstantTerm("log needs constant term exactly 1")
    grid = _phi_grid(k, qorder, kron_width(max(_log_majorant(qorder))))
    f = grid.cells
    h = [0] * qorder
    cols: list = [0] * qorder
    for j in range(1, qorder):
        acc = sum(h[i] * f[j - i] for i in range(1, j))
        h[j] = j * f[j] - (acc >> (grid.bits * grid.origin))
        if h[j]:
            cols[j] = YPoly({
                a: UPoly({2 * (l * a + abs(k) * b): Fraction(c, j)
                          for b, c in row.items()})
                for a, row in grid.read(h[j], j, ywin).items()})
    return QSeries(0, cols, "q")
