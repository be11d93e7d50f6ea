"""u-combinatorics: u-integers, u-binomials, the three upper-triangular
matrices (with their closed-form entries) whose product identity drives
the section-counting recursion, the check of that identity on integer
values, and the weight table of the kernel route.

Matrix conventions (all entries UPoly, rows/columns indexed from 0, entry
(i, j) nonzero only for j - i = 2*l >= 0):

    A(n)[k, k+2l] = qbinom(k+l, n) * qbinom(k+2l, l)
    B[k, k+2l]    = (-1)^l u^(l(l-1)/2) * ( [k+2l] * qbinom(k+l, l) ) / [k+l]
    P(n)[k, k+2l] = u^(l^2+l(k-n)) * ( [k+2l] * qbinom(n+l, n)
                                       * qbinom(k+l-1, n-1) ) / [n+l]
    P(0) = identity.

The B and P entries are computed exactly as displayed: full numerator
product first, then one exact division (the individual ratio [k+2l]/[k+l]
is generally not a polynomial); a failed division is a bug and raises
InternalNonExactDivision.  ``matrix_entry``, the form the partition routes
use, divides in linear time via the u-integer division trick in
rings.UPoly.  ``verify_ab_identity`` builds no UPoly: it takes the same
closed forms as integers at X = 256^w, dividing with one exact divmod.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import InternalNonExactDivision, Mismatch, NotDivisible
from .rings import UPoly

__all__ = [
    "u_integer",
    "u_binomial",
    "matrix_entry",
    "matrix_product_entry",
    "c_table",
    "verify_ab_identity",
]


@lru_cache(maxsize=None)
def u_integer(n: int) -> UPoly:
    """[n] = 1 + u + ... + u^{n-1}  (the u-analog of n; [0] = 0)."""
    if n < 0:
        raise ValueError("u_integer is defined for n >= 0")
    return UPoly({2 * j: 1 for j in range(n)})


@lru_cache(maxsize=None)
def u_binomial(n: int, k: int) -> UPoly:
    """Gaussian binomial [n choose k]; zero outside 0 <= k <= n or n < 0.

    Degree k(n-k), nonnegative integer coefficients, built by alternating
    window-multiplications and exact divisions so every intermediate stays
    a polynomial.
    """
    if k < 0 or n < 0 or k > n:
        return UPoly.zero()
    k = min(k, n - k)
    out = UPoly.one()
    for j in range(1, k + 1):
        out = out.mul_u_integer(n - k + j).div_u_integer(j)
    return out


def _entry_B(k: int, l: int) -> UPoly:
    if l == 0:
        return UPoly.one()
    try:
        core = (u_integer(k + 2 * l) * u_binomial(k + l, l)) \
            .div_u_integer(k + l)
    except NotDivisible as e:  # pragma: no cover - contract guarantee
        raise InternalNonExactDivision(f"B entry ({k},{k + 2 * l})") from e
    core = core.shift(l * (l - 1))  # u^{binom(l,2)}
    return -core if l % 2 else core


def _entry_P(n: int, k: int, l: int) -> UPoly:
    if n == 0:
        return UPoly.one() if l == 0 else UPoly.zero()
    num = u_integer(k + 2 * l) * u_binomial(n + l, n) \
        * u_binomial(k + l - 1, n - 1)
    if not num:
        return UPoly.zero()
    try:
        core = num.div_u_integer(n + l)
    except NotDivisible as e:  # pragma: no cover - contract guarantee
        raise InternalNonExactDivision(f"P({n}) entry ({k},{k + 2 * l})") \
            from e
    return core.shift(2 * (l * l + l * (k - n)))


@lru_cache(maxsize=None)
def matrix_entry(kind: str, i: int, j: int, n: int | None = None) -> UPoly:
    """Closed-form entry (i, j) of A(n), B, or P(n)."""
    if i < 0 or j < i or (j - i) % 2:
        return UPoly.zero()
    l = (j - i) // 2
    if kind == "A":
        if n is None:
            raise ValueError("A needs the parameter n")
        return u_binomial(i + l, n) * u_binomial(j, l)
    if kind == "B":
        return _entry_B(i, l)
    if kind == "P":
        if n is None:
            raise ValueError("P needs the parameter n")
        return _entry_P(n, i, l)
    raise ValueError(f"unknown matrix kind {kind!r}")


def matrix_product_entry(n: int, i: int, j: int) -> UPoly:
    """(A(n) . B)[i, j] computed as the actual finite product-sum."""
    if i < 0 or j < i or (j - i) % 2:
        return UPoly.zero()
    acc = UPoly.zero()
    for m in range(i, j + 1, 2):
        a = matrix_entry("A", i, m, n)
        if not a:
            continue
        b = matrix_entry("B", m, j)
        if b:
            acc = acc + a * b
    return acc


# -- the C-table ---------------------------------------------------------------

def c_table(n: int, r: int) -> dict:
    """Triangular table of theta-kernel weights at level n, rank parameter r.

    Maps (i, j) with 1 <= i <= n, 0 <= j <= n - i to a nonzero UPoly;
    absent keys are zero.  Built from the single seed C(1, 0) = 1 at
    n = 1 by the two-term shift recursion, with r baked into the shifts.
    """
    if n < 1:
        raise ValueError("the table starts at n = 1")
    cur = {(1, 0): UPoly.one()}
    for m in range(1, n):
        # pass from level m to level m+1
        nxt: dict = {}
        up = 2 * (r - m)   # doubled exponent of u^{r-m}
        dn = 2 * (m - r)
        for i in range(1, m + 2):
            for j in range(0, m + 2 - i):
                acc = UPoly.zero()
                e = cur.get((i - 1, j))
                if e:
                    acc = acc + e
                e = cur.get((i + 1, j - 1))
                if e:
                    acc = acc + e
                e = cur.get((i, j - 1))
                if e:
                    acc = acc - e.shift(up)
                e = cur.get((i, j))
                if e:
                    acc = acc - e.shift(dn)
                if acc:
                    nxt[(i, j)] = acc
        cur = nxt
    return cur


# -- exact verification of A(n)B = P(n) on integer values ---------------------

@lru_cache(maxsize=None)
def _values_at(width: int, size: int) -> tuple:
    """u-integers [k](X) for k <= size and the rows of Gaussian binomials
    [N, k](X) for N <= size, at X = 256^width, as tuples of ints.

    [k](X) = (X^k - 1)/(X - 1); the binomials come from the q-Pascal rule
    [N, k] = [N-1, k-1] + X^k [N-1, k], so only shifts and adds.
    """
    bits = 8 * width
    rep = tuple(((1 << bits * k) - 1) // ((1 << bits) - 1)
                for k in range(size + 1))
    rows = [(1,)]
    for big_n in range(1, size + 1):
        prev = rows[-1]
        rows.append((1, *(prev[k - 1] + (prev[k] << bits * k)
                          for k in range(1, big_n)), 1))
    return rep, tuple(rows)


def _at_x(kind: str, i: int, j: int, n: int | None, width: int,
          size: int) -> tuple:
    """Entry (i, j) of A(n), B or P(n) at X = 256^width, as (e, f, g) with
    value X^e * f * g.

    A is returned as its two Gaussian binomials f = [i+l, n](X) and
    g = [j, l](X); B and P as X^e times their core (f, with g = 1), the
    core being one exact division of the numerator's value by [i+l](X)
    or [n+l](X).  Needs size >= j and size >= n + l.
    """
    rep, rows = _values_at(width, size)

    def qbinom(big_n, k):
        return rows[big_n][k] if 0 <= k <= big_n else 0

    l = (j - i) // 2
    if kind == "A":
        return 0, qbinom(i + l, n), qbinom(j, l)
    if kind == "B":
        if l == 0:
            return 0, 1, 1
        core, rest = divmod(rep[j] * qbinom(i + l, l), rep[i + l])
        if rest:
            raise InternalNonExactDivision(f"B entry ({i},{j})")
        return l * (l - 1) // 2, -core if l % 2 else core, 1
    if n == 0:
        return 0, int(l == 0), 1
    core, rest = divmod(rep[j] * qbinom(n + l, n) * qbinom(i + l - 1, n - 1),
                        rep[n + l])
    if rest:
        raise InternalNonExactDivision(f"P({n}) entry ({i},{j})")
    return l * l + l * (i - n), core, 1


def _bound(n: int, i: int, j: int) -> int:
    """Closed-form bound on every coefficient of
    D = sum_m A(n)[i, m] B[m, j] - P(n)[i, j]; see verify_ab_identity."""
    l = (j - i) // 2
    out = 1 if n == 0 else \
        2 * j * comb(n + l, n) * (comb(i + l - 1, n - 1) if i + l else 0)
    for m in range(i, j + 1, 2):
        la, lb = (m - i) // 2, (j - m) // 2
        out += comb(i + la, n) * comb(m, la) \
            * (2 * j * comb(m + lb, lb) if lb else 1)
    return out


def _width(n_max: int, i: int, j: int) -> int:
    """Smallest byte width w with _bound(n, i, j) < 256^w / 2 for every
    n <= n_max."""
    bound = max(_bound(n, i, j) for n in range(n_max + 1))
    return bound.bit_length() // 8 + 1


def verify_ab_identity(n_max: int, index_max: int) -> int:
    """Assert A(n).B == P(n) entrywise for 0 <= n <= n_max on the index
    square [0, index_max]; returns the number of entries checked.

    Each cell (i, j) is checked on integers: every entry is evaluated at
    X = 256^w from its closed form (``_at_x``), no polynomial is built,
    and the cell passes when sum_m a(X) b(X) = p(X), both sides times the
    same power of X.  This is exact for two reasons.

    Polynomiality: the B and P cores lie in Z[u].  [N] is the product of
    the cyclotomic Phi_d over d | N, d > 1, each once, and Phi_d divides
    [N choose k] when floor(N/d) > floor(k/d) + floor((N-k)/d).  For B,
    let d | k+l: either d does not divide k, and Phi_d divides
    [k+l choose l], or d | l, and Phi_d divides [k+2l].  For P, let
    d | n+l: either d does not divide n, and Phi_d divides
    [n+l choose n]; or d divides n and l, and then either d does not
    divide k, so not k+l-n, and Phi_d divides [k+l-1 choose n-1], or
    d | k, and Phi_d divides [k+2l].  As [m] is monic, num(X) =
    core(X) [m](X), so each core is one exact divmod by [m](X), and a
    nonzero remainder is a bug (InternalNonExactDivision).

    Width: A has nonnegative coefficients, so its l1 norm is a(1).  A
    quotient q = num/[m] with num >= 0 satisfies q (1 - u^m) =
    num (1 - u), so every |q_k| <= |num (1 - u)|_1 <= 2 num(1).  So no
    coefficient of D = sum_m A(n)[i, m] B[m, j] - P(n)[i, j] exceeds
    sum_m a(1) 2 b_num(1) + 2 p_num(1), ordinary binomials only
    (``_bound``; an entry equal to 1 counts 1).  ``_width`` is the
    smallest w with that bound below X/2 for every n of the cell, so each
    base-X digit of D lies in (-X/2, X/2), where digits are unique: D(X) = 0
    only if D = 0.

    [k](X) and [N choose k](X) are cached per (w, size).  In a cell,
    g B[m, j](X) is formed once for all n, as A(n)[i, m] = [i+l, n] g
    with g = [m choose l].  Only on a failure is the UPoly difference
    built, for the Mismatch location.  Raises ValueError for negative
    bounds, and Mismatch with the failing row, column and lowest
    differing doubled u-exponent.
    """
    if n_max < 0 or index_max < 0:
        raise ValueError(f"n_max and index_max must be >= 0 "
                         f"(got {n_max}, {index_max})")
    size = max(index_max, n_max + index_max // 2)
    checked = 0
    for i in range(index_max + 1):
        for j in range(i, index_max + 1, 2):
            width = _width(n_max, i, j)
            bits = 8 * width
            ms = range(i, j + 1, 2)
            bs = []
            for m in ms:
                e, f, g = _at_x("B", m, j, None, width, size)
                bs.append((f * g) << bits * e)
            # (m, g) -> g * B[m, j](X), keyed by the g that _at_x gives
            gbs: dict = {}
            for n in range(n_max + 1):
                acc = 0
                for m, b in zip(ms, bs):
                    e, f, g = _at_x("A", i, m, n, width, size)
                    if f:
                        gb = gbs.get((m, g))
                        if gb is None:
                            gb = gbs[m, g] = g * b
                        acc += (f * gb) << bits * e
                e, f, g = _at_x("P", i, j, n, width, size)
                if acc << bits * max(-e, 0) != (f * g) << bits * max(e, 0):
                    diff = matrix_product_entry(n, i, j) \
                        - matrix_entry("P", i, j, n)
                    raise Mismatch(
                        f"A({n}).B differs from P({n})",
                        {"row": i, "col": j,
                         "u2": min(diff.c) if diff else 0})
                checked += 1
    return checked
