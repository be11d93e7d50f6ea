"""An exact linear fitter over Z, kept as an oracle for the closed form.

``fit_in_R`` searches for a q-series among the Eisenstein monomials of
bounded weight by elimination on a window of coefficients, then demands
a zero residual on a held-out window.  It shares nothing with the
closed form of ``modular`` but the monomial expansions, so a column that
both produce is derived twice, independently.
"""

from fractions import Fraction
from math import gcd, lcm

from k3pairs.errors import NoSolution, ValidationFailure
from k3pairs.modular import EisensteinBasis


def _primitive(row: list) -> list:
    """The integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve_exact(rows: list, k: int):
    """Solve A x = b for a rational matrix A and rational b.

    Each row holds k rational entries of A followed by its right-hand
    side.  One Gauss-Jordan elimination over Z: every row is cleared of
    denominators, pivots are taken in column order from the first
    nonzero row below, and every updated row is divided by its content.
    Returns the particular solution (Fraction coordinates) with every
    free coordinate pinned to zero, or None if inconsistent.
    """
    work = []
    for row in rows:
        d = lcm(*(c.denominator for c in row))
        work.append(_primitive([c.numerator * (d // c.denominator)
                                for c in row]))
    m = len(work)
    pivots = []
    rr = 0
    for col in range(k):
        p = next((i for i in range(rr, m) if work[i][col]), None)
        if p is None:
            continue
        work[rr], work[p] = work[p], work[rr]
        prow = work[rr]
        piv = prow[col]
        for i in range(m):
            f = work[i][col]
            if i != rr and f:
                work[i] = _primitive([piv * a - f * b
                                      for a, b in zip(work[i], prow)])
        pivots.append(col)
        rr += 1
        if rr == m:
            break
    if any(row[k] for row in work[rr:]):
        return None
    x = [Fraction(0)] * k
    for row, col in zip(work, pivots):
        x[col] = Fraction(row[k], row[col])
    return x


def fit_in_R(target, weight_bound: int, fit_qorder: int,
             test_qorder: int) -> dict:
    """Express a rational q-series exactly in the monomials of weight
    <= weight_bound.

    Solves the linear system on q^0 .. q^fit_qorder, then demands a zero
    residual on q^{fit_qorder+1} .. q^test_qorder.  Raises NoSolution if
    the window system is inconsistent and ValidationFailure if its
    solution breaks beyond the window; returns the nonzero combination,
    as (name, Fraction) pairs in the basis order, otherwise.
    """
    if not 0 <= fit_qorder < test_qorder:
        raise ValueError("need 0 <= fit_qorder < test_qorder")
    elements = EisensteinBasis(weight_bound, test_qorder + 1).elements
    cols = [ser.coeffs for _, _, ser in elements]
    tgt = [target.coeff(m) for m in range(test_qorder + 1)]
    rows = [[c[m] for c in cols] + [tgt[m]] for m in range(fit_qorder + 1)]
    x = solve_exact(rows, len(cols))
    if x is None:
        raise NoSolution(
            f"no combination of weight <= {weight_bound} matches the "
            f"window up to q^{fit_qorder}")
    used = [(xi, c) for xi, c in zip(x, cols) if xi]
    for m in range(fit_qorder + 1, test_qorder + 1):
        if sum(xi * c[m] for xi, c in used) != tgt[m]:
            raise ValidationFailure(
                f"combination matches through q^{fit_qorder} but fails "
                f"at q^{m}")
    return {"weight_bound": weight_bound, "validated_to_qorder": test_qorder,
            "combination": [(nm, xi) for (nm, _, _), xi in zip(elements, x)
                            if xi]}
