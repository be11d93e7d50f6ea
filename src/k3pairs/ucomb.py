"""u-combinatorics: u-integers, u-factorials, u-binomials and their
symmetric variants, the balanced product kernel, the three upper-triangular
matrices (with their closed-form entries) whose product identity drives the
section-counting recursion, and the weight table of the kernel route.

Matrix conventions (all entries UPoly, rows/columns indexed from 0, entry
(i, j) nonzero only for j - i = 2*l >= 0):

    A(n)[k, k+2l] = qbinom(k+l, n) * qbinom(k+2l, l)
    B[k, k+2l]    = (-1)^l u^(l(l-1)/2) * ( [k+2l] * qbinom(k+l, l) ) / [k+l]
    P(n)[k, k+2l] = u^(l^2+l(k-n)) * ( [k+2l] * qbinom(n+l, n)
                                       * qbinom(k+l-1, n-1) ) / [n+l]
    P(0) = identity.

The B and P entries are computed exactly as displayed: full numerator
product first, then one exact division (the individual ratio [k+2l]/[k+l]
is generally not a polynomial).  Divisions are linear-time via the
u-integer division trick in rings.UPoly; a failed division is a bug and
raises InternalNonExactDivision.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InternalNonExactDivision, Mismatch, NotDivisible
from .rings import UPoly, kron_eval

__all__ = [
    "u_integer",
    "u_factorial",
    "u_binomial",
    "sym_u_binomial",
    "k_series",
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
def u_factorial(n: int) -> UPoly:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("u_factorial is defined for n >= 0")
    if n == 0:
        return UPoly.one()
    return u_factorial(n - 1).mul_u_integer(n)


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


@lru_cache(maxsize=None)
def sym_u_binomial(n: int, k: int) -> UPoly:
    """Symmetrized binomial {n, k} = u^{-k(n-k)/2} [n choose k].

    Extended to negative upper index by {-n, k} = (-1)^k {n+k-1, k}.
    """
    if k < 0:
        return UPoly.zero()
    if n < 0:
        base = sym_u_binomial(-n + k - 1, k)
        return base if k % 2 == 0 else -base
    return u_binomial(n, k).shift(-k * (n - k))


def k_series(n: int, t_cutoff: int) -> list[UPoly]:
    """Coefficients (in t^0..t^{t_cutoff}) of the balanced product kernel.

    For n >= 0 this is prod_{s=0}^{n-1} (1 + t u^{s-(n-1)/2}), a polynomial
    whose t^k coefficient is {n, k}; for n < 0 it is the t-power-series
    inverse of the |n| kernel.
    """
    if t_cutoff < 0:
        raise ValueError("t_cutoff must be >= 0")
    if n >= 0:
        coeffs = [UPoly.one()] + [UPoly.zero()] * t_cutoff
        for s in range(n):
            shift = 2 * s - (n - 1)  # doubled exponent of u^{s-(n-1)/2}
            for k in range(min(s + 1, t_cutoff), 0, -1):
                coeffs[k] = coeffs[k] + coeffs[k - 1].shift(shift)
        return coeffs
    fwd = k_series(-n, t_cutoff)
    inv = [UPoly.one()] + [UPoly.zero()] * t_cutoff
    for k in range(1, t_cutoff + 1):
        acc = UPoly.zero()
        for j in range(1, k + 1):
            acc = acc + fwd[j] * inv[k - j]
        inv[k] = -acc
    return inv


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


# -- fast exact verification of A(n)B = P(n) -----------------------------------

def verify_ab_identity(n_max: int, index_max: int) -> int:
    """Assert A(n).B == P(n) entrywise for 0 <= n <= n_max on the index
    square [0, index_max]; returns the number of entries checked.

    Each cell is checked on big integers: every entry is evaluated at
    X = 256^w with ``rings.kron_eval``, and the cell passes when
    sum_m a(X) b(X) X^shift equals p(X) X^shift.  The width w is chosen
    per cell from a bound on the coefficients of the difference
    polynomial D = sum_m a b - p (the sum of max|a| max|b| min(len) over
    the terms, plus max|p|) so that every coefficient of D lies below X/2
    in absolute value.  Such an integer polynomial vanishes at X only if
    it is zero, because base-X digits in (-X/2, X/2) are unique; so the
    integer check is exactly the polynomial identity.  Evaluations are
    remembered within one row i only.  Raises ValueError for negative
    bounds, and Mismatch with the failing row, column and lowest
    differing doubled u-exponent.
    """
    if n_max < 0 or index_max < 0:
        raise ValueError(f"n_max and index_max must be >= 0 "
                         f"(got {n_max}, {index_max})")
    memo: dict = {}  # evaluations of the current row's A and B entries

    def at_x(poly, kind, row, col, n, width):
        key = (kind, row, col, n, width)
        if key not in memo:
            memo[key] = kron_eval(poly.c, min(poly.c), 2, width)
        return memo[key]

    checked = 0
    for i in range(index_max + 1):
        memo.clear()
        for j in range(i, index_max + 1, 2):
            bs = [matrix_entry("B", m, j) for m in range(i, j + 1, 2)]
            for n in range(n_max + 1):
                target = matrix_entry("P", i, j, n)
                bound = target.max_abs_int()
                emin = min(target.c, default=0)
                terms = []
                for m, b in zip(range(i, j + 1, 2), bs):
                    a = matrix_entry("A", i, m, n)
                    if a and b:
                        terms.append((m, a, b))
                        bound += (a.max_abs_int() * b.max_abs_int()
                                  * min(len(a.c), len(b.c)))
                        emin = min(emin, min(a.c) + min(b.c))
                width = bound.bit_length() // 8 + 1  # bound < X/2
                acc = 0
                for m, a, b in terms:
                    sh = (min(a.c) + min(b.c) - emin) // 2 * 8 * width
                    acc += (at_x(a, "A", i, m, n, width)
                            * at_x(b, "B", m, j, None, width)) << sh
                if acc != kron_eval(target.c, emin, 2, width):
                    diff = matrix_product_entry(n, i, j) - target
                    raise Mismatch(
                        f"A({n}).B differs from P({n})",
                        {"row": i, "col": j,
                         "u2": min(diff.c) if diff else 0})
                checked += 1
    return checked
