"""Stable-pair partition functions of a K3 surface, by three routes.

The objects here are generating series whose coefficients count (with
Hodge- or Euler-weights) coherent systems on a K3: a sheaf together with
an n-dimensional space of sections.  Everything is exact; truncations
carry an explicit q-order and y-window and every stored coefficient is
correct as stated (window drops never fold back, because each lattice
term contributes a single y-monomial).

Routes for the normalized series G (= F divided by the Hilbert-scheme
series S):

* ``g_closed``       -- the double-sum closed form over a (p, l) lattice;
* ``g_via_matrices`` -- sums of genuine transfer-matrix product entries;
* ``g_via_kernels``  -- theta-kernel combination, contracted against
                        the weight table one lattice point of Psi at a
                        time, with the headline (u-1)^(2n-1)
                        divisibility check and the division by [n]
                        built in as one exact division chain for every
                        cell, by prod_{m<n} (u^m - 1)^2 (u^n - 1); at
                        r = n the repair of the q^0 column is folded
                        into the numerators before it.

The closed and kernel routes build each cell in one plain list over
whole exponents (every u-key of their terms is even), from its first
term to its quotient, with the cell's u-power as the list's lowest
exponent, and make the one UPoly at the end.  The closed route's cells
are products of the binomial lists of ``ucomb`` times [p+l]/[n] by its
``_ratio``; the kernel route's divide by their chain in ``rings``, and
at r = n its missed p = 0 column is the closed route's cell.

The ranks of one n repeat their cells, so two memos of the process
build each once: ``_closed_cell`` holds the closed route's lists, which
depend on (n, l - r, p + r) alone and which the kernel route's r = n
column reads too, and ``ucomb.matrix_product_entry`` the matrix route's
entries.  They hold cells, not series: the per-run memo of ``verify``,
which builds each rank's ``g_closed`` once, stays, and the kernel
route's contraction and weight table are built anew at every call.

The three must agree coefficient-for-coefficient in the u-Laurent ring
they are computed in; the verification drivers compare them on common
truncations.  ``f_via_matrices`` gives F itself, S times the matrix
route embedded in the (t, tb) ring, and the coherent-system table reads
each of its cells off F: the (g, k) cell is (t tb)^g times F's
q^(g-1) y^k coefficient.

S, the Hodge series of the Hilbert schemes of points, is Göttsche's
product formula, applied in place by ``rings.kron_product`` to cells
packed in the exponents of t and tb.
"""

from functools import lru_cache
from itertools import compress, count
from math import comb
from operator import sub

from .errors import NonExactDivision, NotDivisible, UnsupportedRank
from .rings import TTPoly, UPoly, YPoly, _KronGrid, _dense_quotient, \
    _from_list, _int_conv, kron_product, kron_width
from .series import QSeries
from .theta import _check_ywin, phi_product
from .ucomb import _binomial_list, _ratio, c_table, matrix_product_entry

__all__ = ["s_series", "syst_hodge", "syst_euler", "syst_table", "g_closed",
           "g_via_matrices", "f_via_matrices", "g_via_kernels",
           "euler_g_column", "ky_product", "mirror_series"]


# ---------------------------------------------------------------------------
# Hilbert schemes of points

# (t, tb)-exponent shifts of the monomials a in the factors 1/(1 - a q^m)
# of the Hodge generating series besides the 20-fold a = 1: u^{-1},
# t^2 u^{-1} = t/tb, tb/t and u.  The diagonal variable u = t*tb never
# appears alone.
_HODGE_SHIFTS = ((-1, -1), (1, -1), (-1, 1), (1, 1))

_hilb_cache: dict = {"order": 0, "series": QSeries(0, [])}


def _hilbert_series(qorder: int) -> QSeries:
    """Hodge series of the Hilbert schemes, q^m-coefficient c(m)*(t tb)^{-m}.

    Göttsche's product on one packed grid in the exponents (p, q) of t
    and tb: the cells start as the integer series prod (1 - q^m)^{-20},
    and the four factors 1/(1 - a q^m) are one kron_product.  The entries
    of the q^m cell are positive and sum to its Euler number, the
    coefficient of prod (1 - q^m)^{-24}, so that series sizes the byte
    width.  Cached and grown on demand; callers get a truncation of one
    shared computation so repeated table builds stay cheap.
    """
    if _hilb_cache["order"] < qorder:
        target = max(qorder, 2 * _hilb_cache["order"], 8)
        seed = kron_product([1] + [0] * (target - 1), (), ((1, 0),) * 20)
        width = kron_width(max(kron_product(seed[:], (), ((1, 0),) * 4)))
        grid = _KronGrid(seed, (), _HODGE_SHIFTS, target - 1, width)
        _hilb_cache["order"] = target
        _hilb_cache["series"] = QSeries(0, [
            TTPoly({(p, q): c for p, row in grid.read(v, m, m).items()
                    for q, c in row.items()})
            for m, v in enumerate(grid.cells)])
    return _hilb_cache["series"].truncate(qorder)


def s_series(qorder: int) -> QSeries:
    """The series S: the coefficient of q^(g-1) is (t tb)^{-g} times the
    Hodge polynomial of the Hilbert scheme of g points on a K3."""
    return _hilbert_series(qorder + 1).shift(-1)


# ---------------------------------------------------------------------------
# Coherent-system tables

def _check_rank(n: int, r: int) -> None:
    if n < 1:
        raise ValueError("section rank n must be >= 1")
    if r < 0 or r > n:
        raise UnsupportedRank(
            f"sheaf rank r={r} outside 0..{n}: table undefined there")


def _hodge_cells(n: int, r: int, gmax: int, kmin: int, kmax: int) -> list:
    """(g, k, Hodge polynomial) for 0 <= g <= gmax, kmin <= k <= kmax.

    Each cell is (t tb)^g times the q^(g-1) y^k cell of one F = S*G,
    built through q^(gmax-1) on the y-columns kmin..kmax.
    """
    _check_rank(n, r)
    if gmax < 0:
        raise ValueError("genus must be nonnegative")
    if kmin > kmax:
        raise ValueError(f"k-range constraint kmin <= kmax violated "
                         f"(kmin={kmin}, kmax={kmax})")
    f = _s_times_g(n, r, gmax, kmin, kmax)
    zero = TTPoly.zero()
    return [(g, k, TTPoly.mono(g, g) * f.get(g - 1, {}).get(k, zero))
            for g in range(gmax + 1) for k in range(kmin, kmax + 1)]


def syst_hodge(n: int, r: int, g: int, k: int) -> TTPoly:
    """Hodge polynomial of the coherent-system moduli at the spot (g, k)."""
    return _hodge_cells(n, r, g, k, k)[-1][2]


def syst_euler(n: int, r: int, g: int, k: int) -> int:
    """Euler characteristic of the same moduli (t = tb = 1)."""
    return syst_hodge(n, r, g, k).eval_one()


def syst_table(n: int, r: int, gmax: int, kmin: int, kmax: int,
               hodge: bool = False) -> list:
    """Rows {n, r, g, k, value} for 0 <= g <= gmax, kmin <= k <= kmax.

    ``value`` is the integer Euler characteristic, or the Hodge
    polynomial rendered as a string when ``hodge`` is set.
    """
    return [{"n": n, "r": r, "g": g, "k": k,
             "value": str(h) if hodge else h.eval_one()}
            for g, k, h in _hodge_cells(n, r, gmax, kmin, kmax)]


# ---------------------------------------------------------------------------
# Partition functions

def _cells_to_series(cells: dict, lower: int, qorder: int) -> QSeries:
    cols = {}
    for qe, col in cells.items():
        y = YPoly(col)
        if y:
            cols[qe] = y
    return QSeries.from_dict(cols, lower, qorder)


@lru_cache(maxsize=None)
def _closed_cell(n: int, a: int, b: int) -> list:
    """[n+a-1, n-1] [b-1, n-1] [a+b]/[n] over the whole exponents from u^0
    up, for a >= 0 and b >= n: the closed route's lattice cell without its
    u-power, with a = l - r and b = p + r; callers never write to it.  The
    two u-binomial lists convolved, times (1 - u^{a+b})/(1 - u^n) in one
    ``_ratio`` step, which raises NotDivisible if [n] does not divide."""
    f = _binomial_list(n + a - 1, n - 1)
    g = _binomial_list(b - 1, n - 1)
    return _ratio(_int_conv(f, g, len(f) + len(g) - 1), a + b, n)


def g_closed(n: int, r: int, qorder: int, ywin: int) -> QSeries:
    """Normalized partition function from the closed double sum.

    Lattice terms (p, l) with p >= n-r, l >= r contribute at q^{pl},
    y^{p-l}, a map that is one-to-one, so each term is its own cell:

        u^{r(n-r) - nl - r(p-l)} [n+l-r-1, n-1] [p+r-1, n-1] [p+l] / [n].

    Past its u-power the cell depends only on (n, l - r, p + r), so the
    ranks of one n share it: the list is read from ``_closed_cell``, a
    memo of the process, and each rank adds only the u-power, as the
    list's lowest exponent.  A cell not exactly divisible by [n] raises
    NonExactDivision naming its (q, y) exponents.
    """
    _check_rank(n, r)
    _check_ywin(ywin)
    cells: dict = {}
    hi = qorder + ywin + 1
    for l in range(r, r + hi):
        for p in range(n - r, n - r + hi):
            qe, ye = p * l, p - l
            if qe >= qorder or abs(ye) > ywin:
                continue
            try:
                f = _closed_cell(n, l - r, p + r)
            except NotDivisible as exc:
                raise NonExactDivision(
                    f"closed-form numerator at q^{qe} y^{ye} not divisible "
                    f"by [{n}]") from exc
            cells.setdefault(qe, {})[ye] = _from_list(
                2 * (r * (n - r) - n * l - ye * r), f, 2)
    return _cells_to_series(cells, 0, qorder)


def _g_matrix_cells(n: int, r: int, qorder: int, kmin: int,
                    kmax: int) -> dict:
    """{q-exponent: {k: UPoly}} cells of the matrix route, kmin <= k <= kmax;
    the term l of the y^k column sits at q^{l^2+l|k|}, one entry a cell."""
    cells: dict = {}
    for k in range(kmin, kmax + 1):
        a, l = abs(k), (r if k >= 0 else n - r)
        row = a + 2 * l
        while l * l + l * a < qorder:
            w = matrix_product_entry(n, row, a + 2 * l)
            if w:
                qe = l * l + l * a
                cells.setdefault(qe, {})[k] = w.shift(-2 * qe)
            l += 1
    return cells


def g_via_matrices(n: int, r: int, qorder: int, ywin: int) -> QSeries:
    """Normalized partition function from transfer-matrix entries.

    The y^k (k >= 0) and y^{-k} (k >= 1) halves sum matrix entries
    P[k+2r, k+2l] and P[k+2(n-r), k+2l] over l; entries are taken from
    the genuine matrix product so this route shares no closed form with
    g_closed.
    """
    _check_rank(n, r)
    _check_ywin(ywin)
    return _cells_to_series(_g_matrix_cells(n, r, qorder, -ywin, ywin), 0,
                            qorder)


def _s_times_g(n: int, r: int, qorder: int, kmin: int, kmax: int) -> dict:
    """{q-exponent: {k: TTPoly}} cells of F = S*G below q^qorder on the
    y-columns kmin..kmax: a y-column of F is S times the same column of
    G alone, and S is needed only up to qorder minus G's lowest q-power."""
    g = _g_matrix_cells(n, r, qorder + 1, kmin, kmax)
    if not g:
        return {}
    s = s_series(qorder - min(g))
    cells: dict = {}
    for qe, col in g.items():
        col = [(k, w.to_tt()) for k, w in col.items()]
        for m in range(-1, qorder - qe):
            c = s.coeff(m)
            if not c:
                continue
            dst = cells.setdefault(m + qe, {})
            for k, w in col:
                dst[k] = dst[k] + c * w if k in dst else c * w
    return cells


def f_via_matrices(n: int, r: int, qorder: int, ywin: int) -> QSeries:
    """Raw partition function F: S times the matrix route of G.

    Coefficients live in the (t, tb) ring via u = t*tb; F starts at
    q^{-1}, one order below G, because S does.
    """
    _check_rank(n, r)
    _check_ywin(ywin)
    return _cells_to_series(_s_times_g(n, r, qorder, -ywin, ywin), -1,
                            qorder)


def g_via_kernels(n: int, r: int, qorder: int, ywin: int) -> QSeries:
    """Normalized partition function from the theta-kernel combination.

    The kernels Psi(u^i, u^{j-r} y; q) are summed against the weight
    table w_ij one lattice point at a time.  Psi has a term at (p, 0)
    for 1 <= p <= ywin and at (p, l) for l >= 1, pl < qorder, kept when
    |p - l| <= ywin; the map (p, l) -> (q^{pl}, y^{p-l}) is one-to-one,
    so each cell is the single contraction

        sum_ij w_ij (u^{ip} - u^{-il}) u^{(j-r)(p-l)},

    added as two shifted copies of each weight into one list over whole
    exponents (every key of the table is even).  The list is sized from
    the table's lowest and highest exponent and the extremes of the
    weights' two offsets, and the weights cancel far inside those
    bounds, so its zero ends are cut off before the list is divided in
    the dense divider of ``rings`` by the fused chain

        prod_{m<n} (u^m - 1)^2 (u^n - 1)  =  (u-1)^(2n-1) ([n-1]!)^2 [n],

    one in-place pass per factor: the headline (u-1)^(2n-1) ([n-1]!)^2
    divisibility check and the division by [n] in the same 2n-1 passes.
    Every cell divides by this one chain, and a cell that leaves a
    remainder raises NonExactDivision naming it.  The scale u^{r(n-r)}
    is the list's lowest exponent.

    Two boundary notes, both forced by matching the closed double sum:

    * The kernel's second argument carries u^{j-r}, not u^j: the
      j-index of the weight table tracks powers of u^{p-l} while the
      lattice terms being resummed carry u^{-(p-l)r}, so the two offset
      by exactly r.  (With u^j alone the route reproduces the correct
      series with y scaled to u^r y, which breaks every rank r > 0.)
    * At r = n the resummation needs its q^0 column repaired: the
      kernel starts at p = 1 and so misses the p = 0 lattice column
      (which vanishes for r < n but not at r = n), and its l = 0 row
      evaluates a Gaussian binomial where the Laurent continuation of
      the product formula is nonzero even though the zero-outside-range
      convention of the lattice sum says zero.  The missed column is
      the closed route's cell [l-1, n-1] [l]/[n] at y^{-l}, read from
      its memo ``_closed_cell``.  The row's value
      sgn u^{-np-n(n-1)/2} [p] [p+n-1, n-1] is subtracted from the
      (p, 0) numerator before the division, times the first 2n-1 factors
      of the chain, (u-1)^(2n-1) ([n-1]!)^2: that product is the
      product of u^a - 1 over a = p..p+n-1 and a = 1..n-1, 2n-1 shifted
      subtractions on one list.
    """
    _check_rank(n, r)
    _check_ywin(ywin)
    ctab = c_table(n, r)
    table, keys = [], []
    for (i, j), w in ctab.items():
        table.append((i, j - r, [(e // 2, v) for e, v in w.c.items()]))
        keys += w.c
    # a weight's two offsets i p + j (p-l) and j (p-l) - i l, with j
    # counted from r, lie between their values at the table's extremes
    js = [j - r for _, j in ctab]
    tlo, thi, imax = min(keys) // 2, max(keys) // 2, max(ctab)[0]
    jlo, jhi = min(js), max(js)
    points = [(p, 0) for p in range(1, ywin + 1)] if qorder > 0 else []
    points += [(p, l) for l in range(1, qorder)
               for p in range(1, (qorder - 1) // l + 1) if abs(p - l) <= ywin]
    chain = (*(2 * m for m in range(1, n) for _ in range(2)), 2 * n)
    sgn = 1 if n % 2 else -1
    cells: dict = {}
    for p, l in points:
        qe, ye = p * l, p - l
        lo = tlo + min(jlo * ye, jhi * ye) - imax * l
        hi = thi + imax * p + max(jlo * ye, jhi * ye)
        # at r = n a (p, 0) numerator starts as minus the lattice's l = 0
        # row times (u-1)^(2n-1) ([n-1]!)^2, from u^rlo up; every other
        # numerator starts at zero
        row, rlo = [], lo
        if r == n and not l:
            row, rlo = [-sgn], -n * p - n * (n - 1) // 2
            for a in (*range(p, p + n), *range(1, n)):
                pad = [0] * a
                row = list(map(sub, pad + row, row + pad))
            lo, hi = min(lo, rlo), max(hi, rlo + len(row) - 1)
        f = [0] * (hi - lo + 1)
        f[rlo - lo:rlo - lo + len(row)] = row
        for i, j, terms in table:
            up = i * p + j * ye - lo
            dn = j * ye - i * l - lo
            for e, v in terms:
                f[e + up] += v
                f[e + dn] -= v
        # the weights cancel far inside these bounds: cut the zero ends
        top = next(compress(range(len(f) - 1, -1, -1), reversed(f)), None)
        if top is None:
            continue
        bot = next(compress(count(), f))
        try:
            cells.setdefault(qe, {})[ye] = _dense_quotient(
                2 * (lo + bot + r * (n - r)), f[bot:top + 1], chain)
        except NotDivisible as exc:
            raise NonExactDivision(
                f"kernel-route numerator at q^{qe} y^{ye} not divisible by "
                f"(u-1)^{2 * n - 1} ([{n - 1}]!)^2 [{n}]") from exc
    if r == n and qorder > 0:
        col = cells.setdefault(0, {})
        for l in range(n, ywin + 1):
            col[-l] = _from_list(0, _closed_cell(n, l - n, n), 2)
    return _cells_to_series(cells, 0, qorder)


# ---------------------------------------------------------------------------
# Euler specialization

def euler_g_column(n: int, r: int, m: int) -> dict:
    """Full (unwindowed) q^m coefficient of g_closed at u = 1, m >= 1.

    Finite because p*l = m >= 1 has finitely many factorizations; the
    q^0 column has unbounded y-support and is handled analytically by
    the modular layer instead.  Returns {y-exponent: int}: each integer
    numerator is divided by n exactly, and one that leaves a remainder
    raises NonExactDivision naming the rank and the cell.
    """
    _check_rank(n, r)
    if m < 1:
        raise ValueError("column 0 has unbounded support; see the v-series "
                         "builders for its closed form")
    out: dict = {}
    for l in range(1, m + 1):
        if m % l or l < r:
            continue
        p = m // l
        if p < n - r:
            continue
        w = (p + l) * comb(n + l - r - 1, n - 1) \
            * comb(p + r - 1, n - 1)
        if w:
            # p l = m and p - l fix (p, l): each y-exponent comes once
            v, rest = divmod(w, n)
            if rest:
                raise NonExactDivision(
                    f"Euler numerator of rank ({n}, {r}) at q^{m} y^{p - l} "
                    f"not divisible by {n}")
            out[p - l] = v
    return out


# ---------------------------------------------------------------------------
# Rank-one product identity

def ky_product(qorder: int, ywin: int) -> QSeries:
    """Verify the rank-one partition function against its theta quotient.

    Cross-multiplied to stay polynomial: asserts

        (1 - y)(1 - u^{-1} y^{-1}) * G(n=1, r=0)  ==  -u^{-1} * Phi(u, y; q)

    coefficient-exactly on the stated window (internally both sides are
    built one y-degree wider, since the cross factor consumes one).
    Returns the verified left side; Mismatch carries the first
    differing (q, y, u) exponent triple.
    """
    _check_ywin(ywin)
    wide = ywin + 1
    cross = YPoly({0: UPoly({0: 1, -2: 1}),
                   1: UPoly({0: -1}),
                   -1: UPoly({-2: -1})})
    lhs = g_closed(1, 0, qorder, wide).map_coeffs(
        lambda c: (c * cross).restrict(ywin))
    neg_uinv = UPoly({-2: -1})
    rhs = phi_product(1, 0, qorder, wide).map_coeffs(
        lambda c: (c * neg_uinv).restrict(ywin))
    lhs.assert_agrees(rhs, what="rank-one product identity sides")
    return lhs


# ---------------------------------------------------------------------------
# Comparison helpers

def mirror_series(f: QSeries) -> QSeries:
    """Columnwise y -> 1/y."""
    return f.map_coeffs(lambda col: col.mirror())
