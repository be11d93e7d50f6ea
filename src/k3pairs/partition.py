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

Each route builds its raw cells, {(qe, ye): (lo2, list)}: the cell at
q^qe y^ye is the list's coefficients over whole exponents (every u-key
of every term is even) from the doubled exponent lo2 up, with the
cell's u-power folded into lo2 (``_closed_cells``, ``_kernel_cells``,
``_matrix_cells``).  The public routes are those builders read by the
one ``_cells_to_series``, which makes each UPoly once.  The closed
route's lists are products of the binomial lists of ``ucomb`` times
[p+l]/[n] by its ``_ratio``; the kernel route's divide by their chain
in ``rings``, and at r = n its missed p = 0 column is the closed
route's cell.

Every memo here is an ``lru_cache`` of the process, which
``k3pairs.reset_caches()`` empties, and each holds lists, not series.
The ranks of one n repeat their cells, so three memos build each cell
once: ``_closed_cell`` holds the closed route's lists, which depend on
(n, l - r, p + r) alone and which the kernel route's r = n column reads
too; ``_kernel_cell`` the kernel route's, contracted from rank 0's
weight table (``_kernel_weights``, one per n) at the point
(p + r, l - r); and ``ucomb._product_cell`` the matrix route's, each an
A(n).B entry summed as one integer at X = 256^w and read back once with
``rings.kron_digits``.  ``_closed_cells`` holds a rank's raw closed
cells for one window, which the route and duality checks of ``verify``
both read; they compare raw cells and build series only to locate a
failure.  No route reads another's memo beyond the kernel route's r = n
column.

The three must agree coefficient-for-coefficient in the u-Laurent ring
they are computed in; the verification drivers compare them on common
truncations.  The coherent-system table's (g, k) cell is (t tb)^g times
F's q^(g-1) y^k coefficient, F = S*G, summed by one integer loop over
the matrix route's entries: at t = tb = 1 in Euler mode, on the packed
cells of S in Hodge mode.  ``f_via_matrices`` gives F itself.

S, the Hodge series of the Hilbert schemes of points, is Göttsche's
product formula, applied in place by ``rings.kron_product`` to cells
packed in (p - q)/2 and q for t^p tb^q, so u = t tb is one digit; at 1
it is prod (1 - q^m)^{-24}, prod (1 - q^m)^{-3} squared three times.
"""

from functools import lru_cache
from itertools import compress, count
from math import comb
from operator import sub

from .errors import NonExactDivision, NotDivisible, UnsupportedRank
from .rings import TTPoly, UPoly, YPoly, _KronGrid, _divide_out, \
    _from_list, _int_conv, kron_product, kron_width
from .series import QSeries
from .theta import _check_ywin, phi_product
from .ucomb import _binomial_list, _product_cell, _ratio, c_table

__all__ = ["s_series", "syst_hodge", "syst_euler", "syst_table", "g_closed",
           "g_via_matrices", "f_via_matrices", "g_via_kernels",
           "euler_g_column", "ky_product", "mirror_series"]


# ---------------------------------------------------------------------------
# Hilbert schemes of points

# Shifts of (a, b) = ((p - q)/2, q), for t^p tb^q, by the monomials M of
# the Hodge series' factors 1/(1 - M q^m) besides the 20-fold M = 1:
# u^{-1}, t/tb, tb/t and u.  p - q is even, and u = t*tb is one digit.
_HODGE_SHIFTS = ((0, -1), (1, -1), (-1, 1), (0, 1))


def _euler_s(top: int) -> list:
    """prod (1 - q^m)^{-24} through q^top, S at t = tb = 1: the product
    prod (1 - q^m)^{-3} in three passes, squared three times."""
    s = kron_product([1] + [0] * top, (), ((1, 0),) * 3)
    for _ in range(3):
        s = _int_conv(s, s, top + 1)
    return s


def _hilbert_grid(top: int, bspan: int, width: int) -> _KronGrid:
    """Göttsche's product as the packed cells q^0 .. q^top: the q^m cell
    is c(m) (t tb)^{-m}, c(m) the Hodge polynomial of the Hilbert scheme
    of m points, whose positive entries sum to its Euler number.  The
    seed prod (1 - q^m)^{-20} times the four factors, one kron_product."""
    seed = kron_product([1] + [0] * top, (), ((1, 0),) * 20)
    return _KronGrid(seed, (), _HODGE_SHIFTS, bspan, width)


def _tt(entries: dict, shift: int) -> TTPoly:
    """The TTPoly (t tb)^shift sum c t^{2a+b} tb^b of {a: {b: c}}."""
    return TTPoly._of({(2 * a + b + shift, b + shift): c
                       for a, row in entries.items() for b, c in row.items()})


def s_series(qorder: int) -> QSeries:
    """The series S: the coefficient of q^(g-1) is (t tb)^{-g} times the
    Hodge polynomial of the Hilbert scheme of g points on a K3."""
    if qorder < 0:
        if qorder < -1:
            raise ValueError(f"S starts at q^-1: qorder must be >= -1 "
                             f"(got qorder={qorder})")
        return QSeries(-1, [])
    grid = _hilbert_grid(qorder, qorder, kron_width(max(_euler_s(qorder))))
    return QSeries(-1, [_tt(grid.read(v, m, m), 0)
                        for m, v in enumerate(grid.cells)])


# ---------------------------------------------------------------------------
# Coherent-system tables

def _check_rank(n: int, r: int) -> None:
    if n < 1:
        raise ValueError("section rank n must be >= 1")
    if r < 0 or r > n:
        raise UnsupportedRank(
            f"sheaf rank r={r} outside 0..{n}: table undefined there")


def _table_cells(n: int, r: int, gmax: int, kmin: int, kmax: int,
                 hodge: bool) -> list:
    """(g, k, cell) for 0 <= g <= gmax, kmin <= k <= kmax.

    Each cell is (t tb)^g times the q^(g-1) y^k cell of one F = S*G,
    built through q^(gmax-1) on the y-columns kmin..kmax: the Hodge
    polynomial if ``hodge`` is set, else its value at t = tb = 1, an int.
    """
    _check_rank(n, r)
    if gmax < 0:
        raise ValueError("genus must be nonnegative")
    if kmin > kmax:
        raise ValueError(f"k-range constraint kmin <= kmax violated "
                         f"(kmin={kmin}, kmax={kmax})")
    f = _s_times_g(n, r, gmax, kmin, kmax, hodge)
    zero = TTPoly() if hodge else 0
    return [(g, k, f.get(g, {}).get(k, zero))
            for g in range(gmax + 1) for k in range(kmin, kmax + 1)]


def syst_hodge(n: int, r: int, g: int, k: int) -> TTPoly:
    """Hodge polynomial of the coherent-system moduli at the spot (g, k)."""
    return _table_cells(n, r, g, k, k, True)[-1][2]


def syst_euler(n: int, r: int, g: int, k: int) -> int:
    """Euler characteristic of the same moduli: syst_hodge at t = tb = 1."""
    return _table_cells(n, r, g, k, k, False)[-1][2]


def syst_table(n: int, r: int, gmax: int, kmin: int, kmax: int,
               hodge: bool = False) -> list:
    """Rows {n, r, g, k, value} for 0 <= g <= gmax, kmin <= k <= kmax.

    ``value`` is the integer Euler characteristic, or if ``hodge`` is
    set the Hodge polynomial as a string, both off the same cells of G.
    """
    return [{"n": n, "r": r, "g": g, "k": k,
             "value": str(h) if hodge else h}
            for g, k, h in _table_cells(n, r, gmax, kmin, kmax, hodge)]


# ---------------------------------------------------------------------------
# Partition functions

def _cells_to_series(cells: dict, qorder: int) -> QSeries:
    """The series q^0 .. q^(qorder-1) of a route's raw cells
    {(qe, ye): (lo2, list)}: the y^ye coefficient of q^qe is the UPoly
    sum_k list[k] u^{lo2/2 + k}.  A column with no nonzero cell is 0."""
    cols: dict = {}
    for (qe, ye), (lo2, f) in cells.items():
        cols.setdefault(qe, {})[ye] = _from_list(lo2, f, 2)
    return QSeries.from_dict(
        {qe: y for qe, col in cols.items() if (y := YPoly(col))}, 0, qorder)


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
    return _cells_to_series(_closed_cells(n, r, qorder, ywin), qorder)


@lru_cache(maxsize=None)
def _closed_cells(n: int, r: int, qorder: int, ywin: int) -> dict:
    """``g_closed``'s raw cells {(qe, ye): (lo2, list)}, visiting only the
    lattice points in the window: at l >= 1, |p - l| <= ywin and pl <
    qorder bound p to max(n - r, l - ywin) .. min(l + ywin, (qorder-1)//l);
    at l = 0, p <= ywin, and q^0 is kept only when qorder > 0.  Built
    once per rank and window; callers never write to it."""
    _check_rank(n, r)
    _check_ywin(ywin)
    cells: dict = {}
    for l in range(r, r + qorder + ywin + 1):
        top = min(l + ywin, (qorder - 1) // l) if l else ywin
        for p in range(max(n - r, l - ywin), top + 1):
            qe, ye = p * l, p - l
            if qe >= qorder:
                continue
            try:
                f = _closed_cell(n, l - r, p + r)
            except NotDivisible as exc:
                raise NonExactDivision(
                    f"closed-form numerator at q^{qe} y^{ye} not divisible "
                    f"by [{n}]") from exc
            cells[qe, ye] = 2 * (r * (n - r) - n * l - ye * r), f
    return cells


def _g_matrix_cells(n: int, r: int, qorder: int, kmin: int,
                    kmax: int) -> dict:
    """{q-exponent: {k: (lo, list)}} entries of the matrix route, kmin <= k
    <= kmax, from ``ucomb._product_cell``: the term l of the y^k column sits at
    q^{l^2+l|k|}, one entry a cell, and is that entry unshifted,
    u^{l^2+l|k|} times G's cell."""
    cells: dict = {}
    for k in range(kmin, kmax + 1):
        a, l = abs(k), (r if k >= 0 else n - r)
        row = a + 2 * l
        while l * l + l * a < qorder:
            w = _product_cell(n, row, a + 2 * l)
            if w:
                cells.setdefault(l * l + l * a, {})[k] = w
            l += 1
    return cells


def g_via_matrices(n: int, r: int, qorder: int, ywin: int) -> QSeries:
    """Normalized partition function from transfer-matrix entries.

    The y^k (k >= 0) and y^{-k} (k >= 1) halves sum matrix entries
    P[k+2r, k+2l] and P[k+2(n-r), k+2l] over l; entries are taken from
    the genuine matrix product so this route shares no closed form with
    g_closed.
    """
    return _cells_to_series(_matrix_cells(n, r, qorder, ywin), qorder)


def _matrix_cells(n: int, r: int, qorder: int, ywin: int) -> dict:
    """``g_via_matrices``'s raw cells {(qe, ye): (lo2, list)}: each entry
    shifted down by u^qe."""
    _check_rank(n, r)
    _check_ywin(ywin)
    return {(qe, k): (2 * (lo - qe), f) for qe, col in
            _g_matrix_cells(n, r, qorder, -ywin, ywin).items()
            for k, (lo, f) in col.items()}


def _s_times_g(n: int, r: int, gmax: int, kmin: int, kmax: int,
               hodge: bool) -> dict:
    """{g: {k: cell}}, g <= gmax, of the nonzero table cells on the
    y-columns kmin..kmax: TTPoly if ``hodge`` is set, else ints.

    The cell (g, k), (t tb)^g times F's q^(g-1) y^k cell, is
    sum_l c(g - qe) P_l over the entries P_l of G's y^k column at q^qe,
    unshifted: G's u^{-qe} and S's (t tb)^{qe-g} cancel the (t tb)^g.
    One loop sums it, over ints at t = tb = 1, then, if ``hodge`` is
    set, over the Hilbert grid's cells times P_l(X).  Each grid cell
    q^m first drops its (top - m) row zero rows below a = -m, and each
    term is summed in its destination's frame, the q^j cell with the
    rows below a = -min(j, top) dropped, j = m + qe: shifted by
    row (min(j, top) - m) digits for the rows, and down qe digits from
    u^{-m} to u^{-g}, so by qe (row - 1) digits for j <= top.  S and
    the P_l are nonnegative, so the largest Euler cell bounds every digit
    and sizes the width, and b runs over -g .. g - 2 qe + deg P_l.  Each
    cell is read back once, in its frame.
    """
    g = _g_matrix_cells(n, r, gmax + 1, kmin, kmax)
    if not g:
        return {}
    top = gmax - min(g)

    def sum_terms(s, pack, bits, row):
        cells: dict = {}
        for qe, col in g.items():
            col = [(k, pack(w)) for k, w in col.items()]
            for m, c in enumerate(s[:gmax + 1 - qe]):
                shift = bits * (row * (min(m + qe, top) - m) - qe)
                dst = cells.setdefault(m + qe, {})
                for k, w in col:
                    x = c * w << shift if shift >= 0 else c * w >> -shift
                    dst[k] = dst[k] + x if k in dst else x
        return cells

    cells = sum_terms(_euler_s(top), lambda w: sum(w[1]), 0, 0)
    if not hodge:
        return cells
    width = kron_width(max(max(col.values()) for col in cells.values()))
    bits = 8 * width
    bspan = gmax + max(0, max(lo + len(f) - 1 - 2 * qe
                              for qe, col in g.items()
                              for lo, f in col.values()))
    grid = _hilbert_grid(top, bspan, width)
    s = grid.cells
    for m in range(top):
        s[m] >>= bits * (top - m) * grid.row
    cells = sum_terms(s, lambda w: sum(
        [v << bits * e for e, v in enumerate(w[1], w[0])]), bits, grid.row)
    # rows |a| <= g - qe of a cell lie within the grid's own q^top cell
    return {j: {k: _tt(grid.read_rows(v, min(j, top), j), j)
                for k, v in col.items()} for j, col in cells.items()}


def f_via_matrices(n: int, r: int, qorder: int, ywin: int) -> QSeries:
    """Raw partition function F: S times the matrix route of G.

    Coefficients live in the (t, tb) ring via u = t*tb; F starts at
    q^{-1}, one order below G, because S does.  Its q^(g-1) cells are the
    table's Hodge cells at genus g, times (t tb)^{-g}.
    """
    _check_rank(n, r)
    _check_ywin(ywin)
    cells = _s_times_g(n, r, qorder, -ywin, ywin, True)
    return QSeries.from_dict({g - 1: YPoly({
        k: TTPoly._of({(p - g, q - g): v for (p, q), v in h.c.items()})
        for k, h in col.items()}) for g, col in cells.items()}, -1, qorder)


@lru_cache(maxsize=None)
def _kernel_weights(n: int) -> tuple:
    """Rank 0's weight table ``c_table(n)`` as (i, j, [(e, v)]) over whole
    exponents e (every key of the table is even), with the extremes that
    size a contraction's list: the lowest and highest e of any weight,
    the largest i, and the smallest and largest j.  Built once per n;
    callers never write to it."""
    ctab = c_table(n)
    table = [
        (i, j, [(e // 2, v) for e, v in w.c.items()])
        for (i, j), w in ctab.items()]
    keys = [e for _, _, terms in table for e, _ in terms]
    js = [j for _, j in ctab]
    return table, min(keys), max(keys), max(ctab)[0], min(js), max(js)


@lru_cache(maxsize=None)
def _kernel_cell(n: int, a: int, b: int):
    """Rank 0's kernel-route cell at the lattice point (a, b), a >= 1, as
    (lowest exponent, list over the whole exponents), or None when its
    numerator is zero; callers never write to the list.

    The numerator is the contraction sum_ij w_ij (u^{ia} - u^{-ib})
    u^{j(a-b)} of ``c_table(n)``, two shifted copies of each weight added
    into one list.  The list is sized from the extremes of the weights and
    of their two offsets, and the weights cancel far inside those bounds,
    so its zero ends are cut off before it is divided by the fused chain
    prod_{m<n} (u^m - 1)^2 (u^n - 1), one in-place pass of
    ``rings._divide_out`` per factor.  At b = -n, where rank n's (p, 0)
    row lands, the numerator first gets the repair of that row (see
    ``g_via_kernels``): from u^{n(n+1)/2} up, (-1)^n times the product of
    u^x - 1 over x = a-n..a-1 and x = 1..n-1.  Raises NotDivisible if the
    chain leaves a remainder; ``lru_cache`` keeps no entry for it.
    """
    table, tlo, thi, imax, jlo, jhi = _kernel_weights(n)
    ye = a - b
    # a weight's two offsets i a + j (a-b) and j (a-b) - i b lie between
    # their values at i = 1 or imax and j = jlo or jhi
    lo = tlo + min(jlo * ye, jhi * ye) + min(a, imax * a, -b, -imax * b)
    hi = thi + max(jlo * ye, jhi * ye) + max(a, imax * a, -b, -imax * b)
    # the chain's 2n-1 factors u^d - 1 are each minus the 1 - u^d that
    # _divide_out divides by, so the numerator is built negated
    row, rlo = [], lo
    if b == -n:
        row, rlo = [1 if n % 2 else -1], n * (n + 1) // 2
        for x in (*range(a - n, a), *range(1, n)):
            pad = [0] * x
            row = list(map(sub, pad + row, row + pad))
        lo, hi = min(lo, rlo), max(hi, rlo + len(row) - 1)
    f = [0] * (hi - lo + 1)
    f[rlo - lo:rlo - lo + len(row)] = row
    for i, j, terms in table:
        up = i * a + j * ye - lo
        dn = j * ye - i * b - lo
        for e, v in terms:
            f[e + up] -= v
            f[e + dn] += v
    # the weights cancel far inside these bounds: cut the zero ends
    top = next(compress(range(len(f) - 1, -1, -1), reversed(f)), None)
    if top is None:
        return None
    bot = next(compress(count(), f))
    chain = (*(2 * m for m in range(1, n) for _ in range(2)), 2 * n)
    return lo + bot, _divide_out(f[bot:top + 1], chain, 2)


def g_via_kernels(n: int, r: int, qorder: int, ywin: int) -> QSeries:
    """Normalized partition function from the theta-kernel combination.

    The kernels Psi(u^i, u^{j-r} y; q) are summed against rank r's weight
    table w_ij one lattice point at a time.  Psi has a term at (p, 0)
    for 1 <= p <= ywin and at (p, l) for l >= 1, pl < qorder, kept when
    |p - l| <= ywin; the map (p, l) -> (q^{pl}, y^{p-l}) is one-to-one,
    so each cell is u^{r(n-r)} times the single contraction

        sum_ij w_ij (u^{ip} - u^{-il}) u^{(j-r)(p-l)},

    divided by the fused chain

        prod_{m<n} (u^m - 1)^2 (u^n - 1)  =  (u-1)^(2n-1) ([n-1]!)^2 [n]:

    the headline (u-1)^(2n-1) ([n-1]!)^2 divisibility check and the
    division by [n] in the same 2n-1 passes.  A cell that leaves a
    remainder raises NonExactDivision naming its (q, y) exponents.

    The ranks of one n share these cells.  Rank r's table is rank 0's
    with w_ij = c_ij u^{r(i+2j-n)} (``ucomb.c_table``), and with
    a = p + r, b = l - r, so a - b = p - l + 2r,

        w_ij (u^{ip} - u^{-il}) u^{(j-r)(p-l)}
            = c_ij u^{r(i+2j) - rn} (u^{ip} - u^{-il}) u^{j(p-l) - r(p-l)}
            = u^{-rn - r(p-l)} c_ij (u^{ia} - u^{-ib}) u^{j(a-b)},

    as u^{ri} u^{ip} = u^{ia}, u^{ri} u^{-il} = u^{-ib} and
    u^{2rj} u^{j(p-l)} = u^{j(a-b)}.  So rank r's contraction at (p, l)
    is u^{-rn-r(p-l)} times rank 0's at (a, b); the chain has no
    u-power, and with the scale u^{r(n-r)} the cell is
    u^{-r^2-r(p-l)} times rank 0's cell at (a, b), the closed route's
    index map.  The cells are read from ``_kernel_cell``, a memo of the
    process keyed by (n, a, b), which contracts each one once from rank
    0's table and divides it by the chain; each rank adds only its
    u-power, to the list's lowest exponent.

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
      product of u^x - 1 over x = p..p+n-1 and x = 1..n-1, 2n-1 shifted
      subtractions on one list.  Only rank n reaches b = -n, at l = 0,
      and there rank 0's frame holds the row times u^{n^2+np}, so it
      starts at u^{n(n+1)/2}, with x = a-n..a-1.  The repaired row
      cancels: ``_kernel_cell`` is None there, as it is at every point
      with a < n or b < 0, where the closed sum has no term.
    """
    return _cells_to_series(_kernel_cells(n, r, qorder, ywin), qorder)


def _kernel_cells(n: int, r: int, qorder: int, ywin: int) -> dict:
    """``g_via_kernels``'s raw cells {(qe, ye): (lo2, list)}."""
    _check_rank(n, r)
    _check_ywin(ywin)
    points = [(p, 0) for p in range(1, ywin + 1)] if qorder > 0 else []
    points += [(p, l) for l in range(1, qorder)
               for p in range(1, (qorder - 1) // l + 1) if abs(p - l) <= ywin]
    cells: dict = {}
    for p, l in points:
        qe, ye = p * l, p - l
        try:
            cell = _kernel_cell(n, p + r, l - r)
        except NotDivisible as exc:
            raise NonExactDivision(
                f"kernel-route numerator at q^{qe} y^{ye} not divisible by "
                f"(u-1)^{2 * n - 1} ([{n - 1}]!)^2 [{n}]") from exc
        if cell:
            lo, f = cell
            cells[qe, ye] = 2 * (lo - r * r - r * ye), f
    if r == n and qorder > 0:
        for l in range(n, ywin + 1):
            cells[0, -l] = 0, _closed_cell(n, l - n, n)
    return cells


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
