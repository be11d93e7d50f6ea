"""Exact Laurent-polynomial rings.

Three sparse dict-backed rings on one private core, ``_Sparse``, which
holds what they share: the exponent-key -> nonzero-coefficient dict,
equality (with int and Fraction read as constants), truthiness,
coefficient access, +, - and scalar scaling.  ``UPoly`` and ``YPoly``
multiply through its one loop on int exponent keys; ``TTPoly``,
whose keys are pairs, has no product:

* ``UPoly`` — Laurent polynomials in one variable u with half-integer
  exponents allowed.  Exponents are stored *doubled* (the key 3 means
  u^{3/2}); coefficients are int or Fraction and may mix.  A UPoly has
  no division: exact division works on integer lists, in place, by
  ``_divide_out``, the one exact division of a list by u^d - 1.
  ``ucomb`` builds every Gaussian-binomial closed form as a list over
  whole exponents, each factor [a]/[b] two shifted copies and one pass,
  and makes the UPoly once from the finished list; the kernel route of
  ``partition`` divides every cell by its one chain of factors, one
  pass each.  ``_int_conv`` is the one integer list convolution, of
  series, Eisenstein monomials and binomial lists alike.  A UPoly's
  u-derivatives at u = 1 up to tmax come from one pass over the terms,
  summed over Z with the falling factorials built up over the orders.
* ``TTPoly`` — Laurent polynomials in two variables (t, tb), the Hodge
  variables: the container that partition returns and prints its Hodge
  cells in, built from packed digits, never multiplied.
* ``YPoly`` — Laurent polynomials in y with coefficients in any ring that
  supports +, unary -, * and truthiness.  A product keeps every term;
  callers that want a y-window truncate where they make the terms, or
  with ``restrict``.

``kron_digits`` reads a signed big integer back as its nonzero base-X
digits at X = 256^w, with a bias of X/2 per digit; it is exact when every
digit lies below X/2 in absolute value.  The zero digits are skipped in C:
the biased integer XOR the bias is zero on exactly their bytes, each
digit's bytes are ORed onto its lowest, and a byte regex over every w-th
byte finds the runs of nonzero digits, so its Python loop runs once per
nonzero digit, however many slots the integer spans.  ``kron_width`` is
the least w that gives a digit bound that room.  ``kron_product``, the one
factor-product recurrence, multiplies q-cells in place by factors
(1 - c X^d q^n)^(+-1): at X = 1 it gives the majorants that size the
widths, and on a ``_KronGrid``, rows of digits in two exponents, the
cells of theta's product kernel and of partition's Hilbert series, whose
cells partition's coherent-system table multiplies by packed integers.
``ucomb`` takes A.B at the same kind of point X = 256^w, from closed
forms in plain integers: ``verify_ab_identity`` compares it with P
there, and ``_product_cell`` reads each A.B entry of the matrix
route back once with kron_digits.  Why w and both uses are exact is
argued once, in ``verify_ab_identity``'s docstring.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from math import lcm
from operator import add, lshift, rshift, sub

from .errors import NotDivisible
from .scalars import fraction_str

__all__ = ["UPoly", "TTPoly", "YPoly", "Monomial"]

_NONZERO = re.compile(rb"[^\x00]+")


def kron_width(bound: int) -> int:
    """The least byte width w with bound < 256^w / 2: the width at which
    kron_digits reads back every digit of absolute value at most bound."""
    return bound.bit_length() // 8 + 1


def kron_digits(n: int, emin: int, step: int, width: int, slots: int) -> dict:
    """The nonzero base-X digits of n at X = 256^width, as a map from the
    exponent emin + step*s of digit s to its value.

    Exact when every digit has absolute value below X/2: adding X/2 to each
    of the ``slots`` digits makes them all lie in [0, X), where base-X
    digits are unique.  A digit is zero exactly where its biased bytes
    equal the bias, so the biased integer XOR the bias is zero on exactly
    the bytes of the zero digits.  Each digit's bytes are ORed onto its
    lowest byte, by shifts that each at most double the bytes covered and
    never reach past the digit's own top byte into the next digit, and a
    byte regex over every width-th byte finds the runs of nonzero digits:
    the loop below runs once per nonzero digit, not once per slot.
    """
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    size = slots * width
    biased = n + bias
    buf = biased.to_bytes(size, "little")
    z, reach = biased ^ bias, 1
    while reach < width:
        shift = min(reach, width - reach)
        z |= z >> (8 * shift)
        reach += shift
    out = {}
    for run in _NONZERO.finditer(z.to_bytes(size, "little")[::width]):
        for s in range(run.start(), run.end()):
            out[emin + s * step] = int.from_bytes(
                buf[s * width:(s + 1) * width], "little") - half
    return out


def kron_product(cells: list, num, den, bits: int = 0) -> list:
    """Multiply the q-cells q^0 .. q^(len-1) in place by
    prod_{n>=1} prod_num (1 - c X^d q^n) / prod_den (1 - c X^d q^n) at
    X = 2^bits, each factor given as (c, d) with c = +-1 and d a signed
    digit shift, and return them.  Multiplying by 1 - c X^d q^n is
    f_j -= c X^d f_{j-n} for j descending; dividing by it is
    f_j += c X^d f_{j-n} for j ascending.  A shift d < 0 divides by
    X^-d, exact when the cells' support allows it.  At bits = 0 the
    cells are plain integer series.
    """
    top = len(cells)
    for n in range(1, top):
        for sign, factors in ((1, num), (-1, den)):
            js = range(top - 1, n - 1, -1) if sign > 0 else range(n, top)
            for c, d in factors:
                op = sub if c * sign > 0 else add
                sh, s = (lshift, bits * d) if d >= 0 else (rshift, -bits * d)
                for j in js:
                    cells[j] = op(cells[j], sh(cells[j - n], s))
    return cells


class _KronGrid:
    """The packed q^0 .. q^(len(seed)-1) cells of the integer series seed
    times prod_{n>=1} prod_num (1 - M q^n) / prod_den (1 - M q^n) for
    monomials M that move an exponent pair (a, b) by (da, db), with
    |da|, |db| <= 1, so that the q^j cell is a sum of entries c_{a,b}
    with |a| <= j and |b| <= j.  Entry (a, b) is digit
    origin + a*row + b at X = 256^width: one row of row = 2*bspan + 1
    digits per a after another, with (0, 0) at digit ``origin``, where
    bspan is at least len(seed) - 1, or 0 for a product in a alone, whose
    rows are one digit.  The whole support fits, so no window is needed,
    and each M is a shift by da*row + db digits in one kron_product; a
    wider bspan leaves room to multiply the cells by powers of X.
    """

    def __init__(self, seed: list, num, den, bspan: int, width: int):
        self.yspan, self.bspan = len(seed) - 1, bspan
        self.row = row = 2 * bspan + 1
        self.origin = self.yspan * row + bspan
        self.width, self.bits = width, 8 * width
        self.cells = kron_product(
            [v << (self.bits * self.origin) for v in seed],
            [(1, da * row + db) for da, db in num],
            [(1, da * row + db) for da, db in den], self.bits)

    def read(self, v: int, j: int, amax: int) -> dict:
        """{a: {b: entry}} of the packed q^j cell v, for |a| <= amax."""
        # rows below a = -j are empty
        return self.read_rows(v >> self.bits * (self.yspan - j) * self.row,
                              j, amax)

    def read_rows(self, v: int, j: int, amax: int) -> dict:
        """``read`` of a q^j cell whose empty rows below a = -j are
        already dropped: entry (a, b) at digit (a + j)*row + bspan + b."""
        row, bspan = self.row, self.bspan
        out: dict = {}
        for i, c in kron_digits(v, -j * row, 1, self.width,
                                (2 * j + 1) * row).items():
            a, b = divmod(i, row)
            if abs(a) <= amax:
                out.setdefault(a, {})[b - bspan] = c
        return out


class _Sparse:
    """The arithmetic the rings share: ``c`` maps an exponent key to a
    nonzero coefficient, and ``KEY0`` is the key of the constant term.
    The int and Fraction scalars act as constants."""

    __slots__ = ("c",)
    __hash__ = None
    KEY0 = 0

    def __init__(self, coeffs: dict | None = None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v}

    @classmethod
    def _of(cls, c: dict):
        """Wrap a dict that already holds no zero coefficient."""
        r = cls.__new__(cls)
        r.c = c
        return r

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls.KEY0: 1})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c == ({self.KEY0: other} if other else {})
        return NotImplemented

    def coeff(self, e):
        return self.c.get(e, 0)

    def __add__(self, other):
        # the ring's own type is tested first: Fraction is an ABC, so the
        # scalar test runs Python-level code on every miss
        if not isinstance(other, type(self)):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._of({self.KEY0: other} if other else {})
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                del out[e]
        return self._of(out)

    __radd__ = __add__

    def __neg__(self):
        return self._of({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _conv(self, other):
        """The product with other, of the same ring, on int exponent keys."""
        a, b = self.c, other.c
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                w = out.get(e, 0) + va * vb
                if w:
                    out[e] = w
                else:
                    del out[e]
        return self._of(out)

    def _scale(self, k):
        """Multiply by the scalar k."""
        return self._of({e: v * k for e, v in self.c.items()} if k else {})

    def __repr__(self):
        return f"{type(self).__name__}({self.c!r})"


class UPoly(_Sparse):
    """Sparse Laurent polynomial in u; exponent keys are doubled."""

    __slots__ = ()

    @classmethod
    def u(cls, e2: int = 2, v=1):
        """The monomial v * u^{e2/2} (e2 is the doubled exponent)."""
        return cls({e2: v})

    def __mul__(self, other):
        if isinstance(other, UPoly):
            return self._conv(other)
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, e2: int) -> "UPoly":
        """Multiply by u^{e2/2}."""
        return UPoly._of({e + e2: v for e, v in self.c.items()})

    def derivs_at_one(self, tmax: int) -> list:
        """The u-derivatives at u = 1 of every order t <= tmax, in one pass
        over the terms (integer exponents only when tmax >= 1).

        Each u^n contributes its coefficient times the falling factorial
        n(n-1)...(n-t+1), built up over t as the pass goes (1 at t = 0,
        where this is the value at 1).  The sums run over Z on the numerators
        over the lcm d of the denominators.  The t-th value is an int
        exactly when every entry with a nonzero falling factorial at t is
        an int; otherwise it is one Fraction, Fraction(0) included.
        """
        if tmax < 0:
            raise ValueError("derivative order must be nonnegative")
        if tmax and any(e2 % 2 for e2 in self.c):
            raise ValueError("derivative at u=1 needs integer exponents")
        d = lcm(*[v.denominator for v in self.c.values()])
        sums = [0] * (tmax + 1)
        frac_top = -1  # the highest t that a Fraction entry reaches
        for e2, v in self.c.items():
            n = e2 // 2
            top = tmax if n < 0 else min(n, tmax)
            if not isinstance(v, int):
                frac_top = max(frac_top, top)
            x = v.numerator * (d // v.denominator)
            for t in range(top + 1):
                sums[t] += x
                x *= n - t
        return [Fraction(x, d) if t <= frac_top else x // d
                for t, x in enumerate(sums)]

    def __str__(self):
        return _join_terms(_coeff_str(self.c[e], e != 0) + _u_mono(e)
                           for e in sorted(self.c))


def _u_mono(e2: int) -> str:
    """u^{e2/2} as printed: empty at e2 = 0, else u, u^k or u^k/2."""
    if e2 == 0:
        return ""
    if e2 == 2:
        return "u"
    if e2 % 2 == 0:
        return f"u^{e2 // 2}"
    return f"u^{e2}/2"


def _int_conv(f: list, g: list, n: int) -> list:
    """The first n coefficients of the product of two integer lists of
    any lengths."""
    out = [0] * n
    for i, a in enumerate(f[:n]):
        if a:
            for j, b in enumerate(g[:n - i], i):
                out[j] += a * b
    return out


def _divide_out(f: list, d2s: tuple, step: int) -> list:
    """f, the coefficients of every step-th doubled key from its lowest,
    divided in place by the product of 1 - u^{d/2} over the doubled
    exponents d > 0 of d2s.  Each factor is the pass f[k] += f[k-d] for k
    ascending; a quotient exists only if its top d entries are zero, and
    they are cut off.  NotDivisible names the first factor where they are
    not, as u^{d/2} - 1, a unit times 1 - u^{d/2}."""
    top = len(f)
    for d2 in d2s:
        d = d2 // step
        for k in range(d, top):
            f[k] += f[k - d]
        if any(f[max(top - d, 0):top]):
            raise NotDivisible(f"remainder in division by {_u_mono(d2)} - 1")
        top -= d
    del f[max(top, 0):]
    return f


def _from_list(lo: int, f, step: int) -> UPoly:
    """The UPoly sum_k f[k] u^{(lo+step*k)/2} of a list or iterable f."""
    return UPoly._of({e: v for e, v in zip(count(lo, step), f) if v})


def _join_terms(terms) -> str:
    """The printed terms of a polynomial joined by "+", except before a
    term that carries its own "-"; "0" when there are none."""
    out = ""
    for t in terms:
        out += t if not out or t.startswith("-") else "+" + t
    return out or "0"


def _coeff_str(v, has_mono: bool) -> str:
    if has_mono:
        if v == 1:
            return ""
        if v == -1:
            return "-"
    return fraction_str(v)


class TTPoly(_Sparse):
    """Sparse Laurent polynomial in the Hodge variables (t, tb)."""

    __slots__ = ()
    KEY0 = (0, 0)

    def __str__(self):
        parts = []
        for (p, q) in sorted(self.c, key=lambda e: (e[0] + e[1], e[0])):
            v = self.c[(p, q)]
            mono = "*".join(
                ([] if p == 0 else ["t" if p == 1 else f"t^{p}"])
                + ([] if q == 0 else ["tb" if q == 1 else f"tb^{q}"]))
            if mono:
                if v == 1:
                    term = mono
                elif v == -1:
                    term = "-" + mono
                else:
                    term = f"{fraction_str(v)}*{mono}"
            else:
                term = fraction_str(v)
            parts.append(term)
        return _join_terms(parts)


class YPoly(_Sparse):
    """Sparse Laurent polynomial in y over an arbitrary coefficient ring.

    Anything that is not a YPoly multiplies as a scalar: an element of the
    coefficient ring, or an int or Fraction.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, YPoly):
            return self._conv(other)
        return self._scale(other)

    __rmul__ = __mul__

    def mirror(self) -> "YPoly":
        """Substitute y -> 1/y."""
        return YPoly._of({-e: v for e, v in self.c.items()})

    def restrict(self, window: int) -> "YPoly":
        """The terms with |exponent| <= window."""
        return YPoly._of({e: v for e, v in self.c.items()
                          if abs(e) <= window})


class Monomial:
    """A unit monomial u^{u2/2} * y^{y} used as a theta-kernel argument."""

    __slots__ = ("u2", "y")

    def __init__(self, u2: int = 0, y: int = 0):
        self.u2 = u2
        self.y = y

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.u2 + other.u2, self.y + other.y)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.u2 * n, self.y * n)

    def inverse(self) -> "Monomial":
        return Monomial(-self.u2, -self.y)

    def __eq__(self, other):
        return (isinstance(other, Monomial)
                and self.u2 == other.u2 and self.y == other.y)

    def __hash__(self):
        return hash((self.u2, self.y))

    def __repr__(self):
        return f"Monomial(u2={self.u2}, y={self.y})"
