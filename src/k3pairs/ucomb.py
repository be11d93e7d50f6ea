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
InternalNonExactDivision.  ``matrix_entry``, the closed-form API and
the tests' oracle, builds each entry as one whole-exponent list from the
binomial lists that the closed route's cells and the kernel route's
r = n column read too: convolved by rings._int_conv, times [a]/[b] as
two shifted copies and the exact pass of rings (``_ratio``), and made a
UPoly once at the end.  No u-integer or u-binomial is kept as a UPoly.
The matrix route reads no ``matrix_entry``: its one memo of an entry,
``_product_cell``, takes each A(n).B entry as one integer at X = 256^w
from the closed forms' values and reads it back once with
rings.kron_digits into a list, so this module multiplies no UPoly;
``matrix_product_entry`` is that list's UPoly.  ``verify_ab_identity``
builds no UPoly either: it compares the two sides of A(n).B = P(n) as
integers at X = 256^w, one evaluator per side (``_ab_at_x`` and
``_p_at_x``).  Its docstring gives, once for both, the short divisors
of the B and P cores, the width w, and why a comparison or a readout at
X is exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import neg, sub

from .errors import InternalNonExactDivision, Mismatch, NotDivisible
from .rings import UPoly, _divide_out, _from_list, _int_conv, \
    kron_digits, kron_width

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
    """Closed-form entry (i, j) of A(n), B, or P(n).  Raises ValueError
    for an unknown kind, and for A or P without n or with n < 0."""
    if kind in ("A", "P"):
        if n is None:
            raise ValueError(f"{kind} needs the parameter n")
        _check_n(n)
    elif kind != "B":
        raise ValueError(f"unknown matrix kind {kind!r}")
    if i < 0 or j < i or (j - i) % 2:
        return UPoly.zero()
    l = (j - i) // 2
    if kind == "A":
        return _from_list(0, _binomial_product(i + l, n, j, l), 2)
    if kind == "B":
        return _entry_B(i, l)
    return _entry_P(n, i, l)


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0 (got n={n})")


def matrix_product_entry(n: int, i: int, j: int) -> UPoly:
    """(A(n) . B)[i, j] computed as the actual finite product-sum: the
    UPoly of ``_product_cell``'s list, made on each call.  Raises
    ValueError for n < 0."""
    cell = _product_cell(n, i, j)
    return _from_list(2 * cell[0], cell[1], 2) if cell else UPoly.zero()


@lru_cache(maxsize=None)
def _product_cell(n: int, i: int, j: int):
    """(A(n) . B)[i, j] as (lowest exponent, list over the whole
    exponents), or None when it is zero; callers never write to the list.

    The sum sum_m A(n)[i, m] B[m, j] over m = i + 2t <= j is taken term
    by term as one integer at X = 256^w: each term is [i+t, n](X)
    [m, t](X) read off the ``_values_at`` rows, times B[m, j](X) = X^e v
    from ``_b_at_x``, and the one integer is read back by
    ``kron_digits`` into the entry's coefficients of u^0, u^1, ..., as
    no term has a negative or a half-integer exponent.
    (``verify_ab_identity`` sums the same terms by Horner's rule for
    every n of a cell at once; this is the one n of an entry.)  w is the
    least width with sum_t C(i+t, n) C(m, t) |B[m, j]|(1) below X/2, so
    every base-X digit of the sum lies in (-X/2, X/2) (see
    verify_ab_identity).  The readout is then exact, and the summed
    integer gives its slot count: with its top nonzero digit at slot s,
    its absolute value is at least X^s/2 and below X^(s+1), so
    abs(acc).bit_length() // bits + 1 slots reach that digit, and at most
    one more reads a zero.  No UPoly is built.  The ``_values_at`` tables
    are taken at sizes that are powers of two from 16; they are
    process-wide, and only ``reset_caches()`` releases them: after
    ``table --n 3 --r 1 --gmax 1000``, 13 of them hold about 43 MiB.

    The matrix route's entry P(n)[k+2r, k+2l] at rank r is its entry
    P(n)[(k+2)+2(r-1), (k+2)+2(l-1)] at rank r - 1, so the ranks of one
    n share their entries through this memo."""
    _check_n(n)
    if i < 0 or j < i or (j - i) % 2:
        return None
    l = (j - i) // 2
    if n > i + l:           # [i+t, n] = 0 for every t
        return None
    width = kron_width(sum([comb(top, n) * w for top, w in _ab_terms(i, j)]))
    bits = 8 * width
    size = max(16, 1 << (j - 1).bit_length())
    _, rows = _values_at(width, size)
    acc = 0
    for t in range(max(n - i, 0), l + 1):   # [i+t, n] = 0 for i + t < n
        m = i + 2 * t
        e, v = _b_at_x(m, j, width, size) if m < j else (0, 1)  # B[j, j] = 1
        acc += (rows[i + t][n] * rows[m][t] * v) << bits * e
    d = kron_digits(acc, 0, 1, width, abs(acc).bit_length() // bits + 1)
    if not d:
        return None
    lo = min(d)
    return lo, [d.get(e, 0) for e in range(lo, max(d) + 1)]


# -- the C-table ---------------------------------------------------------------

def c_table(n: int) -> dict:
    """Triangular table of theta-kernel weights at level n, at rank 0.

    Maps (i, j) with 1 <= i <= n, 0 <= j <= n - i to a nonzero UPoly;
    absent keys are zero.  Built from the single seed C(1, 0) = 1 at
    n = 1 by the two-term shift recursion

        C_{m+1}(i, j) = C_m(i-1, j) + C_m(i+1, j-1)
                        - u^{-m} C_m(i, j-1) - u^m C_m(i, j).

    The same recursion with the shifts u^{r-m} and u^{m-r} gives rank r's
    table, which is this one with the (i, j) entry times u^{r(i+2j-n)}:
    by induction on m, each of the four terms of rank r's step carries
    u^{r(i+2j-m-1)} times its rank-0 term, once the u^r of the third
    shift and the u^{-r} of the fourth are counted.  The kernel route of
    ``partition`` folds that factor into the lattice point it contracts
    at, so it needs rank 0's table alone.
    """
    if n < 1:
        raise ValueError("the table starts at n = 1")
    cur = {(1, 0): UPoly.one()}
    for m in range(1, n):
        # pass from level m to level m+1
        nxt: dict = {}
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
                    acc = acc - e.shift(-2 * m)
                e = cur.get((i, j))
                if e:
                    acc = acc - e.shift(2 * m)
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
    """B[m, j](X) for m < j at X = 256^width, as (e, v) with value X^e v,
    l' = (j - m)/2 and e = l'(l'-1)/2.  The core v is one exact division
    of [j](X) [m+l'-1, l'-1](X) by the short [l'](X): by the absorption
    identity [l'] [m+l', l'] = [m+l'] [m+l'-1, l'-1] it is the displayed
    [j] [m+l', l'] / [m+l'].  Needs size >= j."""
    rep, rows = _values_at(width, size)
    lb = (j - m) // 2
    core, rest = divmod(rep[j] * rows[m + lb - 1][lb - 1], rep[lb])
    if rest:
        raise InternalNonExactDivision(f"B entry ({m},{j})")
    return lb * (lb - 1) // 2, -core if lb % 2 else core


def _p_at_x(n_max: int, i: int, j: int, width: int, size: int) -> list:
    """p[n] = (e, v) with P(n)[i, j](X) = X^e v for n <= n_max, at
    X = 256^width, l = (j - i)/2 and e = l^2 + l(i - n).  P(0) is the
    identity; for n >= 1 the core v is one exact division of
    [j](X) [n+l-1, n-1](X) [i+l-1, n-1](X) by the short [n](X), which by
    [n] [n+l, n] = [n+l] [n+l-1, n-1] is the displayed
    [j] [n+l, n] [i+l-1, n-1] / [n+l].  Needs size >= j and
    size >= n_max + l."""
    rep, rows = _values_at(width, size)
    l = (j - i) // 2
    p = [(0, int(l == 0))]
    for n in range(1, n_max + 1):
        e = l * l + l * (i - n)
        if n > i + l:       # [i+l-1, n-1] = 0
            p.append((e, 0))
            continue
        core, rest = divmod(
            rep[j] * rows[n + l - 1][n - 1] * rows[i + l - 1][n - 1], rep[n])
        if rest:
            raise InternalNonExactDivision(f"P({n}) entry ({i},{j})")
        p.append((e, core))
    return p


def _q_pascal(w: list, bits: int, top: int) -> None:
    """One q-Pascal step M in place at X = 2^bits: w[n] becomes
    w[n-1] + X^n w[n] for 1 <= n <= top, and w[0] stays.  M takes the
    binomial row [N, *](X) to [N+1, *](X).  The entries above top stay,
    which is M only if top is the last index or w[n] = 0 for n >= top."""
    for n in range(top, 0, -1):
        w[n] = w[n - 1] + (w[n] << bits * n)


def _ab_at_x(n_max: int, i: int, j: int, width: int, size: int,
             bcol: dict) -> list:
    """acc[n] = sum_m A(n)[i, m](X) B[m, j](X) for n <= n_max, at
    X = 256^width.  Needs size >= j.

    With m = i + 2t, A(n)[i, m] = [i+t, n] [m, t], and h_t is
    [m, t](X), read off the _values_at rows, times B[m, j](X) = X^e v,
    read off bcol, the column's table keyed by (width, m) and filled by
    _b_at_x on a miss (B[j, j] = 1).  The row [i+t, *](X) is M^(i+t)
    applied to the unit vector e_0, so acc = M^i (h_0 e_0 + M (h_1 e_0 +
    M (h_2 e_0 + ...))): Horner over t from the top down, then i more
    steps, all shifts and adds, and one multiply per t.  After k steps,
    w[n] = 0 for n > k, so step k runs to min(k, n_max).
    """
    _, rows = _values_at(width, size)
    bits = 8 * width
    l = (j - i) // 2
    w = [rows[j][l]] + [0] * n_max          # t = l: m = j
    for t in range(l - 1, -1, -1):
        _q_pascal(w, bits, min(l - t, n_max))
        m = i + 2 * t
        if (width, m) not in bcol:
            bcol[width, m] = _b_at_x(m, j, width, size)
        e, v = bcol[width, m]
        w[0] += (rows[m][t] * v) << bits * e
    for steps in range(l + 1, l + i + 1):
        _q_pascal(w, bits, min(steps, n_max))
    return w


def _ab_terms(i: int, j: int) -> list:
    """(i+t, C(m, t) |B[m, j]|(1)) for each m = i + 2t <= j: the top of
    A's n-dependent factor [i+t, n](1), and the n-free rest
    [m, t](1) |B[m, j]|(1) = C(m, t) (C(m+l', l') + C(m+l'-1, l'-1)),
    l' = (j - m)/2, so that sum_t C(i+t, n) w_t bounds every coefficient
    of sum_m A(n)[i, m] B[m, j]."""
    l = (j - i) // 2
    return [(i + t, comb(i + 2 * t, t) * (comb(i + l + t, l - t) + (
        comb(i + l + t - 1, l - t - 1) if t < l else 0)))
        for t in range(l + 1)]


def _bounds(n_max: int, i: int, j: int) -> list:
    """For each n <= n_max, sum_m A(n)[i, m](1) |B[m, j]|(1) + P(n)[i, j](1),
    a bound on every coefficient of D = sum_m A(n)[i, m] B[m, j] - P(n)[i, j];
    see verify_ab_identity.  The sums over m are taken in one pass over
    _ab_terms, each term's row C(top, 0..n_max) by the exact step
    C(top, n+1) = C(top, n) (top - n)/(n + 1), which reaches 0 past top."""
    l = (j - i) // 2
    out = [int(l == 0)] + [0] * n_max       # P(0) is the identity
    if i + l:                   # else [i+l-1, n-1] = [-1, n-1] = 0
        for n in range(1, n_max + 1):
            out[n] = comb(n + l, n) * comb(i + l - 1, n - 1) \
                + comb(n + l - 1, l) * comb(i + l - 1, n)
    for top, w in _ab_terms(i, j):
        c = w
        for n in range(n_max + 1):
            out[n] += c
            c = c * (top - n) // (n + 1)
    return out


def _width(n_max: int, i: int, j: int) -> int:
    """Smallest byte width w with every bound of _bounds(n_max, i, j)
    below 256^w / 2."""
    return kron_width(max(_bounds(n_max, i, j)))


def verify_ab_identity(n_max: int, index_max: int) -> int:
    """Assert A(n).B == P(n) entrywise for 0 <= n <= n_max on the index
    square [0, index_max]; returns the number of entries checked.

    Each cell (i, j) is checked on integers, one evaluator per side at
    X = 256^w: ``_ab_at_x`` sums A(n)[i, m](X) B[m, j](X) over m for
    every n at once, ``_p_at_x`` gives P(n)[i, j](X), no polynomial is
    built, and the cell passes when both sides agree at every n, times
    the same power of X.  This is exact for two reasons, and the same
    two make the readout of ``_product_cell`` exact.

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
    d | k, and Phi_d divides [k+2l].  Both sides divide shorter
    numerators, by [l] for B and [n] for P: by the absorption identity
    [l] [k+l, l] = [k+l] [k+l-1, l-1], B's displayed quotient is
    [k+2l] [k+l-1, l-1] / [l], and by [n] [n+l, n] = [n+l] [n+l-1, n-1]
    P's is [k+2l] [n+l-1, n-1] [k+l-1, n-1] / [n], so each shorter
    numerator is the core, a polynomial, times [l] or [n].  As [m] is
    monic, num(X) = core(X) [m](X), so each core is one exact
    divmod by [m](X), m = l or n, and a nonzero remainder is a bug
    (InternalNonExactDivision) naming the B or P entry.

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
    are unique: D(X) = 0 only if D = 0.  The matrix route sizes its w by
    the A.B part of the bound alone, so each digit of its sum lies there
    too and kron_digits reads it back.  Both divide one numerator per
    core; the two-term forms only size the digits.

    [k](X) and [N choose k](X) are cached per (w, size), and both sides
    read them; the factor [i+t, n](X) of A(n)[i, m] is never formed, as
    ``_ab_at_x`` takes the sums of a cell by Horner's rule in the
    q-Pascal step, the same integers as term by term.

    Only on a failure is the UPoly difference built, for the Mismatch
    location.  Raises ValueError for negative bounds, and Mismatch at the
    first failing cell in column order with its n, row and column, plus
    the lowest differing doubled u-exponent ``u2`` when the entry that
    ``matrix_product_entry`` reads back differs from ``matrix_entry``'s
    P too (when they agree, the fault is in this check's evaluation and
    there is no such exponent).
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
            accs = _ab_at_x(n_max, i, j, width, size, bcol)
            p = _p_at_x(n_max, i, j, width, size)
            for n, (acc, (e, v)) in enumerate(zip(accs, p)):
                if acc << bits * max(-e, 0) != v << bits * max(e, 0):
                    diff = matrix_product_entry(n, i, j) \
                        - matrix_entry("P", i, j, n)
                    location = {"n": n, "row": i, "col": j}
                    if diff:
                        location["u2"] = min(diff.c)
                    raise Mismatch(f"A({n}).B differs from P({n})", location)
                checked += 1
    return checked
