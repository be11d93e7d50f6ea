"""Truncated Laurent series with exact coefficients in a pluggable ring.

A ``QSeries`` knows its variable name, its structural lowest exponent
``lower`` (support is contained in [lower, oo)), and its truncation horizon
``order``: coefficients are stored, exactly, for every exponent in
[lower, order).  Asking for a coefficient at or beyond ``order`` is an error
— nothing is ever silently assumed zero past the horizon.

Multiplication tracks validity honestly:

    (f * g).order = min(f.order + g.lower, g.order + f.lower)

When every cell of both factors is an int or a Fraction, the product is
one convolution over Z of the numerators over each factor's lcm
denominator; its cells are ints when both factors hold only ints, and
otherwise one Fraction per nonzero cell, with the int 0 for a zero cell.
A factor with ring-valued cells multiplies term by term in its ring.

Coefficients may be int, Fraction, UPoly, TTPoly, YPoly, or nested
QSeries (a power series in v over q-series is just a QSeries with var "v"
whose coefficients are QSeries with var "q").  TTPoly has no product, so
a series of TTPoly cells, as ``partition`` returns S and F, is added,
cut and compared but never multiplied.  A series in v made by
v_substitute_qmajor stores at v^s the rational c whose value is i^s * c:
it is the series in w = iv, so products of v-series stay index-additive.

Every check in the package that compares two series does so through
``QSeries.assert_agrees``, which raises ``Mismatch`` at the first
difference with its location: the exponent of each nested variable down
to the cell, then the y- and doubled u-exponent inside a YPoly or UPoly
cell, e.g. ``{"v": 2, "du": 1, "q": 3}`` or ``{"q": 3, "y": -1, "u2": 2}``.
No other module builds the location of a series comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import BadConstantTerm, Mismatch
from .rings import UPoly, YPoly, _int_conv

__all__ = ["QSeries", "v_substitute_qmajor"]


def _cadd(a, b):
    if isinstance(a, int) and a == 0:
        return b
    if isinstance(b, int) and b == 0:
        return a
    return a + b


def _cmul(a, b):
    if (isinstance(a, int) and a == 0) or (isinstance(b, int) and b == 0):
        return 0
    return a * b


class QSeries:
    """Exact truncated Laurent series in one named variable."""

    __slots__ = ("var", "lower", "coeffs")
    __hash__ = None

    def __init__(self, lower: int, coeffs: list, var: str = "q"):
        self.var = var
        self.lower = lower
        self.coeffs = list(coeffs)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, order: int, var: str = "q", lower: int = 0):
        return cls(lower, [0] * (order - lower), var)

    @classmethod
    def one(cls, order: int, var: str = "q"):
        c = [0] * order
        if order > 0:
            c[0] = 1
        return cls(0, c, var)

    @classmethod
    def from_dict(cls, d: dict, lower: int, order: int, var: str = "q"):
        return cls(lower, [d.get(e, 0) for e in range(lower, order)], var)

    @property
    def order(self) -> int:
        return self.lower + len(self.coeffs)

    def coeff(self, e: int):
        if e >= self.order:
            raise ValueError(
                f"coefficient of {self.var}^{e} is beyond truncation order "
                f"{self.order}")
        if e < self.lower:
            return 0
        return self.coeffs[e - self.lower]

    def known(self, e: int) -> bool:
        return e < self.order

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        """Structural equality (same var, same known window, same values)."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.var != other.var or self.order != other.order:
            return False
        lo = min(self.lower, other.lower)
        return all(_ceq(self.coeff(e), other.coeff(e))
                   for e in range(lo, self.order))

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, QSeries):
            if other.var != self.var:
                raise ValueError("variable mismatch in series addition")
            lower = min(self.lower, other.lower)
            order = min(self.order, other.order)
            return QSeries(lower,
                           [_cadd(self.coeff(e), other.coeff(e))
                            for e in range(lower, order)], self.var)
        # scalar: only touches the constant term, known once order > 0
        if not other:
            return self
        if self.order <= 0:
            raise ValueError("cannot add a constant beyond the known window")
        lower = min(self.lower, 0)
        out = [0] * (self.lower - lower) + self.coeffs
        out[-lower] = _cadd(out[-lower], other)
        return QSeries(lower, out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.lower, [-c if c else 0
                                    for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QSeries):
            if other.var != self.var:
                raise ValueError("variable mismatch in series product")
            lower = self.lower + other.lower
            f, g = self.coeffs, other.coeffs
            n = min(len(f), len(g))
            fz, gz = _over_lcm(f), _over_lcm(g)
            if fz and gz:
                out = _int_conv(fz[0], gz[0], n)
                if fz[2] or gz[2]:
                    d = fz[1] * gz[1]
                    out = [Fraction(x, d) if x else 0 for x in out]
                return QSeries(lower, out, self.var)
            out = [0] * n
            for i, fc in enumerate(f):
                if not fc:
                    continue
                jmax = min(len(g), n - i)
                for j in range(jmax):
                    gc = g[j]
                    if not gc:
                        continue
                    out[i + j] = _cadd(out[i + j], fc * gc)
            return QSeries(lower, out, self.var)
        if not other:
            return QSeries.zero(self.order, self.var, self.lower)
        return QSeries(self.lower,
                       [_cmul(c, other) for c in self.coeffs], self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"series power {n} is negative; need n >= 0")
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                break
            base = base * base
        if out is None:
            # x^0: unit to this series' order
            return QSeries.one(max(self.order, 1), self.var)
        return out

    def shift(self, k: int) -> "QSeries":
        """Multiply by var^k."""
        return QSeries(self.lower + k, self.coeffs, self.var)

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < self.lower:
            raise ValueError(
                f"truncation order {order} is below the lowest exponent "
                f"{self.lower}")
        return QSeries(self.lower, self.coeffs[:order - self.lower], self.var)

    def map_coeffs(self, fn) -> "QSeries":
        return QSeries(self.lower,
                       [fn(c) if c else 0 for c in self.coeffs],
                       self.var)

    def exp(self, one=1) -> "QSeries":
        """Exact exp; requires a known constant term 0 and no lower terms.

        ``one`` is the multiplicative identity of the coefficient ring
        (pass e.g. a unit QSeries for nested series coefficients).
        """
        for e in range(self.lower, min(0, self.order)):
            if self.coeff(e):
                raise BadConstantTerm("exp needs support in [0, oo)")
        if not self.known(0):
            raise BadConstantTerm(
                f"exp needs constant term exactly 0, which is unknown at "
                f"order {self.order}")
        if self.coeff(0):
            raise BadConstantTerm("exp needs constant term exactly 0")
        n = self.order
        f = [self.coeff(e) if self.known(e) else 0 for e in range(0, n)]
        g = [0] * n
        g[0] = one
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):
                if f[j] and g[k - j]:
                    acc = _cadd(acc, _cmul(f[j] * g[k - j], j))
            g[k] = _cmul(acc, Fraction(1, k)) if acc else 0
        return QSeries(0, g, self.var)

    # -- comparison -------------------------------------------------------
    def first_mismatch(self, other: "QSeries", lo: int | None = None,
                       hi: int | None = None):
        """First exponent in the comparison window where the two differ.

        The window is [lo, hi), by default from the lower of the two lowest
        exponents to the lower of the two orders.  A ValueError is raised
        if the window is empty or reaches past a known range: the
        comparison would be vacuous, which is never wanted here.
        """
        if self.var != other.var:
            raise ValueError("variable mismatch in comparison")
        start = min(self.lower, other.lower) if lo is None else lo
        stop = min(self.order, other.order) if hi is None else hi
        if stop > min(self.order, other.order):
            raise ValueError(
                f"comparison window [{start},{stop}) exceeds known orders "
                f"({self.order}, {other.order})")
        if start >= stop:
            raise ValueError(
                f"comparison window [{start},{stop}) is empty")
        for e in range(start, stop):
            if not _ceq(self.coeff(e), other.coeff(e)):
                return e
        return None

    def assert_agrees(self, other: "QSeries", lo=None, hi=None,
                      what: str = "series"):
        e = self.first_mismatch(other, lo, hi)
        if e is not None:
            raise Mismatch(f"{what} disagree", {
                self.var: e, **_locate(self.coeff(e), other.coeff(e))})

    def __repr__(self):
        return (f"QSeries(var={self.var!r}, lower={self.lower}, "
                f"order={self.order})")


def _over_lcm(cells: list):
    """(numerators, d, fractional) when every cell is an int or a Fraction:
    the cells are the numerators over d, the lcm of their denominators, and
    fractional says whether any cell is a Fraction.  None otherwise."""
    types = set(map(type, cells))
    if not types <= {int, Fraction}:
        return None
    if Fraction not in types:
        return cells, 1, False
    d = lcm(*[c.denominator for c in cells])
    return [c.numerator * (d // c.denominator) for c in cells], d, True


def _ceq(a, b) -> bool:
    return not a and not b or a == b


# -- mismatch localisation ---------------------------------------------------

def _locate(a, b) -> dict:
    """The exponent coordinates of the first difference inside two unequal
    cells: a series drills through its first differing exponent, a YPoly
    or UPoly through its lowest differing key (named "y" or "u2"), where a
    scalar on the other side sits at the key 0."""
    if isinstance(a, QSeries) and isinstance(b, QSeries):
        e = a.first_mismatch(b)
        return {} if e is None else {a.var: e, **_locate(a.coeff(e),
                                                        b.coeff(e))}
    for ring, name in ((YPoly, "y"), (UPoly, "u2")):
        if isinstance(a, ring) or isinstance(b, ring):
            ac, bc = (x.c if isinstance(x, ring) else {0: x} if x else {}
                      for x in (a, b))
            for e in sorted(ac.keys() | bc.keys()):
                x, y = ac.get(e, 0), bc.get(e, 0)
                if not _ceq(x, y):
                    return {name: e, **_locate(x, y)}
            return {}
    return {}


# -- the y -> e^{iv} substitution --------------------------------------------

def v_substitute_qmajor(f: QSeries, vorder: int) -> QSeries:
    """Substitute y -> e^{iv} in a q-major series with YPoly coefficients.

    Returns a QSeries in v whose coefficients are QSeries in q.  The v^s
    coefficient of column q^m is i^s/s! * sum_k c_{m,k} k^s, and the cell
    stores the rational part 1/s! * sum_k c_{m,k} k^s: i^s is carried by
    the index s.  The entries c_{m,k} are int, Fraction or UPoly, and
    every cell is summed by _v_cell_sums in one integer loop.  The types
    are those of a sum in the entries' own ring: a cell with no term
    left (only y^0, at s >= 1) is the int 0, a cell with a UPoly term is
    a UPoly of Fractions, and any other is one Fraction.  A nonzero cell
    that is not a YPoly raises TypeError.
    """
    cols: list[list] = [[0] * len(f.coeffs) for _ in range(vorder)]
    for idx, c in enumerate(f.coeffs):
        if not c:
            continue
        if not isinstance(c, YPoly):
            raise TypeError(
                f"y -> e^{{iv}} needs YPoly cells, but the cell at "
                f"{f.var}^{f.lower + idx} is {type(c).__name__}")
        for s, cell in enumerate(_v_cell_sums(c, vorder, f.var,
                                              f.lower + idx)):
            cols[s][idx] = cell
    return QSeries(0, [QSeries(f.lower, col, f.var) for col in cols], "v")


def _v_cell_sums(c: YPoly, vorder: int, var: str, m: int) -> list:
    """The cells 1/s! * sum_k c_k k^s of the YPoly c at var^m, s < vorder.

    Each entry c_k is read once as a row (k, is_upoly, pairs): the
    (u-key, numerator) pairs of its coefficients over d, the lcm of every
    denominator in c, where a scalar entry is one pair at the key 0.  At
    each s the rows with k = 0 are dropped from s = 1 on, the numerators
    times k^s are summed into one dict by u-key, and the cell is a UPoly
    of Fraction(w, d * s!) while a UPoly row is left (UPoly({}) if they
    cancel), else Fraction(sum, d * s!), or the int 0 with no row left.
    """
    rows = []
    for k, v in c.c.items():
        if isinstance(v, UPoly):
            rows.append((k, True, v.c.items()))
        elif isinstance(v, (int, Fraction)):
            rows.append((k, False, ((0, v),)))
        else:
            raise TypeError(
                f"y -> e^{{iv}} needs int, Fraction or UPoly entries, but "
                f"the entry at {var}^{m} y^{k} is {type(v).__name__}")
    d = lcm(*[x.denominator for _, _, pairs in rows for _, x in pairs])
    rows = [
        (k, u, [(e, x.numerator * (d // x.denominator)) for e, x in pairs])
        for k, u, pairs in rows]
    out = []
    fact = 1
    for s in range(vorder):
        if s == 1:
            rows = [row for row in rows if row[0]]
        fact *= s or 1
        if not rows:
            out.append(0)
            continue
        acc: dict = {}
        for k, _, pairs in rows:
            p = k ** s
            for e, x in pairs:
                acc[e] = acc.get(e, 0) + x * p
        den = d * fact
        if any(u for _, u, _ in rows):
            out.append(UPoly._of({e: Fraction(w, den)
                                  for e, w in acc.items() if w}))
        else:
            out.append(Fraction(acc[0], den))
    return out
