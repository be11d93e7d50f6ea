"""u-combinatorics: the Gaussian binomials as whole-exponent integer
lists (``_binomial_list``, built by ``_ratio`` steps), the three
upper-triangular matrices (with their closed-form entries) whose
product identity drives the section-counting recursion, the check of
that identity on integer values, and the weight table of the kernel
route.

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
use, builds each entry as one whole-exponent list from the binomial lists
that the closed route's cells and the kernel route's r = n column read
too: convolved by rings._int_conv, times [a]/[b] as two shifted copies
and the exact pass of rings (``_ratio``), and made a UPoly once at the
end.  No u-integer or u-binomial is kept as a UPoly.
``verify_ab_identity`` builds no UPoly: it takes the same
closed forms as integers at X = 256^w, column by column, dividing with
one exact divmod: each P core once per cell, each B core once per width
and column.  It sums A(n).B for every n of a cell at once, by Horner's
rule in the q-Pascal step that takes one binomial row to the next, so
with one multiply per term of the sum, not per term and n.  Each B and
P core is also a sum of two products of u-binomials,

    B core = qbinom(k+l, l) + u^(k+l) qbinom(k+l-1, l-1)          (l >= 1)
    P core = qbinom(n+l, n) qbinom(k+l-1, n-1)
             + u^(n+l) qbinom(n+l-1, l) qbinom(k+l-1, n)            (n >= 1),

so its coefficients are nonnegative and sum to ordinary binomials; the
check sizes w from those sums.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import neg, sub

from .errors import InternalNonExactDivision, Mismatch, NotDivisible
from .rings import UPoly, _divide_out, _from_list, _int_conv, kron_width

__all__ = [
    "matrix_entry",
    "matrix_product_entry",
    "c_table",
    "verify_ab_identity",
]


def _ratio(f: list, a: int, b: int) -> list:
    """f [a]/[b] = f (1 - u^a)/(1 - u^b) for a list f over the whole
    exponents: two shifted copies, then the exact pass of ``rings``, which
    raises NotDivisible naming u^b - 1 if the quotient is no polynomial."""
    pad = [0] * a
    return _divide_out(list(map(sub, f + pad, pad + f)), (2 * b,), 2)


@lru_cache(maxsize=None)
def _binomial_list(n: int, k: int) -> list:
    """The coefficients of [n choose k] over the whole exponents from u^0
    up (degree k(n-k), nonnegative), empty outside 0 <= k <= n; callers
    never write to it.  Built by k steps f [n-k+j]/[j] on one list, so
    every intermediate is the polynomial [n-k+j, j]."""
    if k < 0 or n < 0 or k > n:
        return []
    k = min(k, n - k)
    f = [1]
    for j in range(1, k + 1):
        f = _ratio(f, n - k + j, j)
    return f


def _binomial_product(n1: int, k1: int, n2: int, k2: int) -> list:
    """[n1 choose k1] [n2 choose k2] as one list over the whole exponents."""
    f, g = _binomial_list(n1, k1), _binomial_list(n2, k2)
    return _int_conv(f, g, len(f) + len(g) - 1) if f and g else []


def _entry_B(k: int, l: int) -> UPoly:
    if l == 0:
        return UPoly.one()
    try:
        core = _ratio(_binomial_list(k + l, l), k + 2 * l, k + l)
    except NotDivisible as e:
        raise InternalNonExactDivision(f"B entry ({k},{k + 2 * l})") from e
    # times (-1)^l u^{binom(l,2)}
    return _from_list(l * (l - 1), map(neg, core) if l % 2 else core, 2)


def _entry_P(n: int, k: int, l: int) -> UPoly:
    if n == 0:
        return UPoly.one() if l == 0 else UPoly.zero()
    try:
        core = _ratio(_binomial_product(n + l, n, k + l - 1, n - 1),
                      k + 2 * l, n + l)
    except NotDivisible as e:
        raise InternalNonExactDivision(f"P({n}) entry ({k},{k + 2 * l})") \
            from e
    return _from_list(2 * (l * l + l * (k - n)), core, 2)


@lru_cache(maxsize=None)
def matrix_entry(kind: str, i: int, j: int, n: int | None = None) -> UPoly:
    """Closed-form entry (i, j) of A(n), B, or P(n)."""
    if i < 0 or j < i or (j - i) % 2:
        return UPoly.zero()
    l = (j - i) // 2
    if kind == "A":
        if n is None:
            raise ValueError("A needs the parameter n")
        return _from_list(0, _binomial_product(i + l, n, j, l), 2)
    if kind == "B":
        return _entry_B(i, l)
    if kind == "P":
        if n is None:
            raise ValueError("P needs the parameter n")
        return _entry_P(n, i, l)
    raise ValueError(f"unknown matrix kind {kind!r}")


@lru_cache(maxsize=None)
def matrix_product_entry(n: int, i: int, j: int) -> UPoly:
    """(A(n) . B)[i, j] computed as the actual finite product-sum.

    Memoized like ``matrix_entry``; callers never write to it.  The matrix
    route's entry P(n)[k+2r, k+2l] at rank r is its entry
    P(n)[(k+2)+2(r-1), (k+2)+2(l-1)] at rank r - 1, so the ranks of one n
    share their entries."""
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


def _b_at_x(m: int, j: int, width: int, size: int) -> tuple:
    """B[m, j](X) for m < j at X = 256^width, as (e, v) with value X^e v:
    the core v is one exact division of the numerator's value by
    [m+l'](X), l' = (j - m)/2, and e = l'(l'-1)/2.  Needs size >= j."""
    rep, rows = _values_at(width, size)
    lb = (j - m) // 2
    core, rest = divmod(rep[j] * rows[m + lb][lb], rep[m + lb])
    if rest:
        raise InternalNonExactDivision(f"B entry ({m},{j})")
    return lb * (lb - 1) // 2, -core if lb % 2 else core


def _cell_at_x(n_max: int, i: int, j: int, width: int, size: int,
               bcol: dict) -> tuple:
    """Every entry cell (i, j) of verify_ab_identity reads, at X = 256^width,
    as (a, b, p).  With m = i + 2t:

    a[t] = g = [m, t](X), the n-free factor of A(n)[i, m] = [i+t, n] g;
    the factor [i+t, n](X) is left to _ab_at_x;
    b[t] = (e, v): B[m, j](X) = X^e v, taken from bcol, the column's
    table keyed by (width, m), and divided by _b_at_x on a miss;
    p[n] = (e, v): P(n)[i, j](X) = X^e v, the core v being one exact
    division of the numerator's value by [n+l](X).

    Needs size >= j and size >= n_max + (j - i)/2.
    """
    rep, rows = _values_at(width, size)
    l = (j - i) // 2
    a = [rows[i + 2 * t][t] for t in range(l + 1)]
    b = []
    for m in range(i, j, 2):
        if (width, m) not in bcol:
            bcol[width, m] = _b_at_x(m, j, width, size)
        b.append(bcol[width, m])
    b.append((0, 1))        # B[j, j] = 1
    p = [(0, int(l == 0))]
    for n in range(1, n_max + 1):
        e = l * l + l * (i - n)
        if n > i + l:       # [i+l-1, n-1] = 0
            p.append((e, 0))
            continue
        core, rest = divmod(rep[j] * rows[n + l][n] * rows[i + l - 1][n - 1],
                            rep[n + l])
        if rest:
            raise InternalNonExactDivision(f"P({n}) entry ({i},{j})")
        p.append((e, core))
    return a, b, p


def _q_pascal(w: list, bits: int, top: int) -> None:
    """One q-Pascal step M in place at X = 2^bits: w[n] becomes
    w[n-1] + X^n w[n] for 1 <= n <= top, and w[0] stays.  M takes the
    binomial row [N, *](X) to [N+1, *](X).  The entries above top stay,
    which is M only if top is the last index or w[n] = 0 for n >= top."""
    for n in range(top, 0, -1):
        w[n] = w[n - 1] + (w[n] << bits * n)


def _ab_at_x(n_max: int, i: int, a: list, b: list, bits: int) -> list:
    """acc[n] = sum_m A(n)[i, m](X) B[m, j](X) for n <= n_max, at
    X = 2^bits, from the a and b of _cell_at_x.

    With m = i + 2t and h_t = a[t] B[m, j](X), the row [i+t, *](X) is
    M^(i+t) applied to the unit vector e_0, so acc = M^i (h_0 e_0 +
    M (h_1 e_0 + M (h_2 e_0 + ...))): Horner over t from the top down,
    then i more steps, all shifts and adds, and one multiply per t.
    After k steps, w[n] = 0 for n > k, so step k runs to min(k, n_max).
    """
    l = len(a) - 1
    w = [0] * (n_max + 1)
    for t in range(l, -1, -1):
        _q_pascal(w, bits, min(l - t, n_max))
        e, v = b[t]
        w[0] += (a[t] * v) << bits * e
    for steps in range(l + 1, l + i + 1):
        _q_pascal(w, bits, min(steps, n_max))
    return w


def _bounds(n_max: int, i: int, j: int) -> list:
    """For each n <= n_max, sum_m A(n)[i, m](1) |B[m, j]|(1) + P(n)[i, j](1),
    a bound on every coefficient of D = sum_m A(n)[i, m] B[m, j] - P(n)[i, j];
    see verify_ab_identity."""
    l = (j - i) // 2
    # per m = i + 2t: the top i+t of A's n-dependent factor [i+t, n](1), and
    # the n-free rest [m, t](1) |B[m, j]|(1) = C(m, t) (C(m+l', l')
    # + C(m+l'-1, l'-1)) with l' = l - t
    terms = [(i + t, comb(i + 2 * t, t) * (comb(i + l + t, l - t) + (
        comb(i + l + t - 1, l - t - 1) if t < l else 0)))
        for t in range(l + 1)]
    out = []
    for n in range(n_max + 1):
        if n == 0:
            p = int(l == 0)         # P(0) is the identity
        elif i + l == 0:
            p = 0                   # [i+l-1, n-1] = [-1, n-1] = 0
        else:
            p = comb(n + l, n) * comb(i + l - 1, n - 1) \
                + comb(n + l - 1, l) * comb(i + l - 1, n)
        out.append(p + sum([comb(top, n) * w for top, w in terms]))
    return out


def _width(n_max: int, i: int, j: int) -> int:
    """Smallest byte width w with every bound of _bounds(n_max, i, j)
    below 256^w / 2."""
    return kron_width(max(_bounds(n_max, i, j)))


def verify_ab_identity(n_max: int, index_max: int) -> int:
    """Assert A(n).B == P(n) entrywise for 0 <= n <= n_max on the index
    square [0, index_max]; returns the number of entries checked.

    Each cell (i, j) is checked on integers: every B and P entry it
    reads, and the n-free factor of each A entry, is evaluated at
    X = 256^w from its closed form, in one call per cell
    (``_cell_at_x``), no polynomial is built, and the cell passes when
    sum_m A(n)[i, m](X) B[m, j](X) = P(n)[i, j](X) at every n, both
    sides times the same power of X.  This is exact for two reasons.

    Cells go column by column, j outer and i inner.  B[m, j](X) is read
    by every cell (i, j) with i <= m, so each column keeps a table of
    its B values keyed by (w, m), dropped after the column: each B core
    is divided once per (w, m, j) of the run (359 times at (5, 31),
    where cells read B[m, j] with m < j 1,360 times).  The key holds w
    because one column can mix widths.

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

    Width: write [N, k] for [N choose k].  From [k+2l] = [k+l] +
    u^{k+l} [l] and [l] [k+l, l] = [k+l] [k+l-1, l-1], the B core is
    [k+l, l] + u^{k+l} [k+l-1, l-1].  From [k+2l] = [n+l] +
    u^{n+l} [k+l-n], [k+l-n] [k+l-1, n-1] = [n] [k+l-1, n] and
    [n] [n+l, n] = [n+l] [n+l-1, l], the P core (n >= 1) is
    [n+l, n] [k+l-1, n-1] + u^{n+l} [n+l-1, l] [k+l-1, n].  So A, the
    B cores and P have nonnegative coefficients, and each l1 norm is the
    value at 1, a sum of products of ordinary binomials.  No coefficient
    of D = sum_m A(n)[i, m] B[m, j] - P(n)[i, j] then exceeds
    sum_m A(n)[i, m](1) |B[m, j]|(1) + P(n)[i, j](1) (``_bounds``).
    ``_width`` is the smallest w with that bound below X/2 for every n of
    the cell, so each base-X digit of D lies in (-X/2, X/2), where digits
    are unique: D(X) = 0 only if D = 0.  The check still divides each
    numerator as displayed; the two-term forms only size the digits.

    [k](X) and [N choose k](X) are cached per (w, size); B, P and the
    n-free factor g = [m, t] of A(n)[i, m] = [i+t, n] g, t = (m - i)/2,
    are read off them.  The factor [i+t, n](X) is never formed.  The
    q-Pascal step M, w[n] -> w[n-1] + X^n w[n], takes the row
    [N, *](X) to [N+1, *](X), and [0, *] is the unit vector e_0, so the
    sums of a cell, sum_t [i+t, n] h_t with h_t = g B[m, j](X), are
    the entries of M^i (h_0 e_0 + M (h_1 e_0 + M (h_2 e_0 + ...))) for
    n <= n_max (``_ab_at_x``).  Each step is shifts and adds; the one
    multiply per t is g v, shifted by B's X^e instead of multiplying e
    zero digits.  The sums are the same integers as term by term, so
    the comparison and the argument above are unchanged.

    Only on a failure is the UPoly difference built, for the Mismatch
    location.  Raises ValueError for negative bounds, and Mismatch at the
    first failing cell in column order with its n, row and column, plus
    the lowest differing doubled u-exponent ``u2`` when the UPoly entries
    differ too (when they agree, the fault is in the evaluation and there
    is no such exponent).
    """
    if n_max < 0 or index_max < 0:
        raise ValueError(f"n_max and index_max must be >= 0 "
                         f"(got {n_max}, {index_max})")
    size = max(index_max, n_max + index_max // 2)
    checked = 0
    for j in range(index_max + 1):
        bcol: dict = {}     # B[m, j](X) by (width, m), for this column only
        for i in range(j % 2, j + 1, 2):
            width = _width(n_max, i, j)
            bits = 8 * width
            a, b, p = _cell_at_x(n_max, i, j, width, size, bcol)
            accs = _ab_at_x(n_max, i, a, b, bits)
            for n, (e, v) in enumerate(p):
                acc = accs[n]
                if acc << bits * max(-e, 0) != v << bits * max(e, 0):
                    diff = matrix_product_entry(n, i, j) \
                        - matrix_entry("P", i, j, n)
                    location = {"n": n, "row": i, "col": j}
                    if diff:
                        location["u2"] = min(diff.c)
                    raise Mismatch(f"A({n}).B differs from P({n})", location)
                checked += 1
    return checked
