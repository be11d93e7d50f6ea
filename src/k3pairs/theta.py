"""Theta kernels as truncated (q, y, u)-series.

Three families of kernels feed the partition-function routes and the
verification suites:

* ``phi_bilateral`` -- the sign-matched bilateral lattice sum (the
  workable form of the theta quotient),
* ``psi`` -- the double sum over lattice points ``(p, l)`` with
  ``p >= 1, l >= 0``,
* ``phi_product`` / ``log_phi_product`` -- the eight-factor product
  kernel and its exact series logarithm.

Every function returns a q-series whose coefficients are windowed
y-Laurent polynomials with u-Laurent entries, and every returned
coefficient is exact on the stated window: the product-based kernels
inflate their working window internally so that no contribution can
fold back from discarded high y-exponents into the window the caller
asked for.
"""

from .rings import Monomial, UPoly, YPoly
from .series import QSeries

__all__ = ["phi_bilateral", "psi", "phi_product", "log_phi_product"]


def _one_y(window):
    return YPoly({0: UPoly.one()}, window)


def _term(m: Monomial, window) -> YPoly:
    """The monomial m as a one-term y-polynomial (empty if windowed out)."""
    return YPoly({m.y: UPoly.u(m.u2, 1)}, window)


def _axis_bound(m: Monomial, ywin: int, uwin: int | None) -> int:
    if m.y != 0:
        return ywin // abs(m.y)
    if m.u2 != 0:
        if uwin is None:
            raise ValueError(
                "a pure u-power axis monomial makes the bilateral sum "
                "unbounded at fixed q-order; pass uwin")
        return (2 * uwin) // abs(m.u2)
    raise ValueError("bilateral sum diverges for a trivial monomial")


def phi_bilateral(a: Monomial, b: Monomial, qorder: int, ywin: int,
                  uwin: int | None = None) -> QSeries:
    """sum over sign(i) = sign(j) of sign(i) a^i b^j q^{ij}, truncated.

    sign(0) = +1, so the two boundary rays i = 0, j >= 0 and
    j = 0, i >= 0 belong to the positive quadrant while the negative
    quadrant is open.  Terms whose y-exponent (or u-exponent, when uwin
    is given) leaves the window are dropped; everything kept is exact.
    """
    if qorder <= 0:
        return QSeries(0, [], "q")
    cells: dict[int, YPoly] = {}

    def push(qe: int, m: Monomial, sign: int):
        if abs(m.y) > ywin:
            return
        if uwin is not None and abs(m.u2) > 2 * uwin:
            return
        t = _term(m, ywin)
        cells[qe] = cells.get(qe, YPoly.zero(ywin)) + (t if sign > 0 else -t)

    push(0, Monomial(), +1)
    for i in range(1, _axis_bound(a, ywin, uwin) + 1):
        push(0, a ** i, +1)
    for j in range(1, _axis_bound(b, ywin, uwin) + 1):
        push(0, b ** j, +1)
    for i in range(1, qorder):
        for j in range(1, (qorder - 1) // i + 1):
            push(i * j, (a ** i) * (b ** j), +1)
            push(i * j, (a ** -i) * (b ** -j), -1)
    return QSeries.from_dict(cells, 0, qorder)


def psi(x: Monomial, y_mono: Monomial, qorder: int, ywin: int) -> QSeries:
    """sum_{l >= 0} sum_{p >= 1} (x^p - x^{-l}) y^{p-l} q^{pl} with the
    formal variables replaced by the given monomials."""
    if qorder <= 0:
        return QSeries(0, [], "q")
    if y_mono.y == 0:
        raise ValueError(
            "the second argument needs a y-part; a pure u-power makes "
            "the l = 0 row unbounded at q^0")
    cells: dict[int, YPoly] = {}

    def push(qe: int, p: int, el: int):
        d = y_mono ** (p - el)
        if abs(d.y) > ywin:
            return
        t = _term((x ** p) * d, ywin) - _term((x ** -el) * d, ywin)
        if t:
            cells[qe] = cells.get(qe, YPoly.zero(ywin)) + t

    for p in range(1, ywin // abs(y_mono.y) + 1):
        push(0, p, 0)
    for el in range(1, qorder):
        for p in range(1, (qorder - 1) // el + 1):
            push(p * el, p, el)
    return QSeries.from_dict(cells, 0, qorder)


def _geometric(m: Monomial, n: int, qorder: int, win: int) -> QSeries:
    """1/(1 - m q^n) = sum_{j >= 0} m^j q^{nj}, truncated."""
    cells = {}
    j = 0
    while n * j < qorder:
        mj = m ** j
        if abs(mj.y) <= win:
            cells[n * j] = _term(mj, win)
        j += 1
    return QSeries.from_dict(cells, 0, qorder)


def phi_product(k: int, l: int, qorder: int, ywin: int) -> QSeries:
    """The eight-factor product kernel with u -> u^k, y -> u^l y:

        prod_{n>=1} (1-q^n)^2 (1-u^k q^n)(1-u^{-k} q^n)
                    / [(1-u^l y q^n)(1-u^{-l} y^{-1} q^n)
                       (1-u^{k+l} y q^n)(1-u^{-k-l} y^{-1} q^n)]
    """
    if qorder <= 0:
        return QSeries(0, [], "q")
    # A contribution folding back into |e| <= ywin through an
    # intermediate y-exponent w costs at least |w| + (|w| - ywin) in
    # q-degree, so intermediates past this window cannot matter.
    win = max(ywin, (qorder + ywin) // 2 + 1)
    num = [(Monomial(), 2), (Monomial(2 * k, 0), 1), (Monomial(-2 * k, 0), 1)]
    den = [Monomial(2 * l, 1), Monomial(-2 * l, -1),
           Monomial(2 * (k + l), 1), Monomial(-2 * (k + l), -1)]
    out = QSeries.from_dict({0: _one_y(win)}, 0, qorder)
    for n in range(1, qorder):
        for m, mult in num:
            fac = QSeries.from_dict(
                {0: _one_y(win), n: -_term(m, win)}, 0, qorder)
            for _ in range(mult):
                out = out * fac
        for m in den:
            out = out * _geometric(m, n, qorder, win)
    return out.map_coeffs(lambda c: c.restrict(ywin))


def log_phi_product(k: int, l: int, qorder: int, ywin: int) -> QSeries:
    """Exact series logarithm of phi_product (constant term is 1).

    Coefficients pick up Fraction entries from the 1/k factors of the
    log recurrence.
    """
    win = max(ywin, (qorder + ywin) // 2 + 1)
    f = phi_product(k, l, qorder, win)
    return f.log().map_coeffs(lambda c: c.restrict(ywin))
