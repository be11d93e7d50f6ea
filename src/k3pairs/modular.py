"""Eisenstein layer: the v-expansion of the counting series and its
closed form in the ring of quasimodular forms Q[E2, E4, E6].

After substituting y -> e^{iv}, each power of v in v^2 * G(n, r; q, y)
carries a power series in q.  This module builds those series exactly
(the q^0 column from a closed rational form, the rest from the
full-support integer columns of the Euler specialization), provides the
divisor sums and the Eisenstein series, the closed forms for the
v-coefficients of the log-product kernel together with their
u-derivatives at u = 1 (every order up to tmax from one divisor loop on
the closed side and one pass per cell, UPoly.derivs_at_one, on the direct
side), two independent product-side consistency checks,
and each v^s column as a polynomial in E2, E4 and E6, derived from the
paper's theorem at u = 1, G^r_n = (1/n) Q_{n,r}(D_q, D_y) T^-2, and
checked against the series: each column's q-expansion is one integer
combination of the basis's integer lists over the lcm of its
coefficients' denominators.  Every v^s cell is i^s times a rational, and
the cells store that rational (the series in w = iv, see
series.v_substitute_qmajor), so the closed forms fold i^s into real signs.

No floats, no numerics: every comparison is coefficient-exact and goes
through QSeries.assert_agrees, so every verifier raises Mismatch with the
first differing exponent location instead of returning a best effort; a
fit column that disagrees with the series raises ValidationFailure, a
Mismatch, at its {v, q}.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add

from .errors import Mismatch, NoSolution, ValidationFailure
from .partition import _check_rank, euler_g_column
from .rings import UPoly, YPoly, _int_conv
from .scalars import bernoulli, i_power_str
from .series import QSeries, v_substitute_qmajor
from .theta import log_phi_product

__all__ = [
    "EisensteinBasis", "eisenstein_even", "fit_v_coefficient",
    "logphi_sigma_check", "mpt_check", "psi_kls_sym", "sigma_series",
    "v_partition_series", "verify_psi_vs_log",
]

def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# generators

def sigma_series(w: int, qorder: int) -> QSeries:
    """sum_{n >= 1} sigma_w(n) q^n, the w-th-power divisor sums, sieved."""
    if w < 0:
        raise ValueError("divisor-sum weight must be nonnegative")
    acc = [0] * max(qorder, 1)
    for d in range(1, qorder):
        dw = d ** w
        for m in range(d, qorder, d):
            acc[m] += dw
    return QSeries(1, acc[1:qorder], "q")


def eisenstein_even(weight: int, qorder: int) -> QSeries:
    """Level-one Eisenstein series of even weight, constant term 1."""
    if weight < 2 or weight % 2:
        raise ValueError("even Eisenstein weight must be even and >= 2")
    if qorder < 1:
        raise ValueError("qorder must be positive")
    sig = sigma_series(weight - 1, qorder)
    c = Fraction(-2 * weight) / bernoulli(weight)
    return QSeries(0, [Fraction(1)] + [c * sig.coeff(n)
                                       for n in range(1, qorder)], "q")


# ---------------------------------------------------------------------------
# closed forms for the v-coefficients of the log-product kernel

def _psi_terms(k: int, l: int, s: int) -> tuple:
    """The (e, c) pairs of the closed log-product forms: in the q^n cell
    of psi_kls_sym(k, l, s), each divisor r of n adds c w to u^(e r), with
    the weight w = n/r over n at s = 0 and w = r^(s-1) over s! at s >= 1."""
    if s == 0:
        return ((k + l, 1), (-(k + l), 1), (l, 1), (-l, 1), (0, -2),
                (k, -1), (-k, -1))
    sgn = -1 if s % 2 else 1
    return ((k + l, 1), (-(k + l), sgn), (l, 1), (-l, sgn))


def psi_kls_sym(k: int, l: int, s: int, qorder: int) -> QSeries:
    """v^s coefficient of log phi_product(k, l), u kept symbolic.

    A lacunary divisor-type sum: the q^n cell is a Laurent polynomial in
    u supported on exponents (k+l)r, l r (and their negatives) over the
    divisors r of n, with s = 0 picking up the balancing terms that make
    the whole cell vanish at u = 1.  The cell stores the rational c of
    the value i^s c, as v_substitute_qmajor does.  Each cell is summed
    over Z, over the denominator n at s = 0 (the weight 1/r is n/r over
    n) and over s! at s >= 1 (the weight is r^(s-1) over s!); its nonzero
    entries are Fractions, keyed in the order the terms first reach them.
    """
    if s < 0:
        raise ValueError("v-power must be nonnegative")
    terms = _psi_terms(k, l, s)
    cols = []
    for n in range(1, qorder):
        cell: dict = {}
        for r in _divisors(n):
            w = n // r if s == 0 else r ** (s - 1)
            for e, c in terms:
                key = 2 * e * r
                cell[key] = cell.get(key, 0) + c * w
        den = n if s == 0 else factorial(s)
        cols.append(UPoly._of({e: Fraction(c, den)
                               for e, c in cell.items() if c}))
    return QSeries(1, cols, "q")


def _psi_kls_derivatives(k: int, l: int, s: int, tmax: int,
                         qorder: int) -> list:
    """The t-th u-derivatives of psi_kls_sym(k, l, s) at u = 1 for every
    t <= tmax, from one divisor loop.

    Differentiating u^m t times picks up the falling factorial
    m(m-1)...(m-t+1), built up over t as the loop goes, so each q^n cell
    collapses to a signed sum of falling factorials over the divisors of
    n, taken over Z with the weights of _psi_terms.  A nonzero cell is one
    Fraction standing for i^s times itself; a zero cell is the int 0.
    """
    terms = _psi_terms(k, l, s)
    cols: list = [[] for _ in range(tmax + 1)]
    for n in range(1, qorder):
        acc = [0] * (tmax + 1)
        for r in _divisors(n):
            w = n // r if s == 0 else r ** (s - 1)
            for e, c in terms:
                m, x = e * r, c * w
                for t in range(tmax + 1):
                    acc[t] += x
                    x *= m - t
        den = n if s == 0 else factorial(s)
        for col, x in zip(cols, acc):
            col.append(Fraction(x, den) if x else 0)
    return [QSeries(1, col, "q") for col in cols]


def _check_log_qorder(qorder: int) -> None:
    """The q^0 cell of log phi_product is 0 and so is every closed form's:
    a log-product check compares something only from q^1 on."""
    if qorder < 2:
        raise ValueError(
            f"qorder must be >= 2 for a log-product check (got {qorder})")


def _check_vorder(vorder: int) -> None:
    """A v-expansion check below v^vorder compares nothing at vorder < 1."""
    if vorder < 1:
        raise ValueError(
            f"vorder must be >= 1 for a v-expansion check (got {vorder})")


def verify_psi_vs_log(k: int, l: int, qorder: int, vorder: int,
                      tmax: int = 3) -> dict:
    """Cross-check every closed form against the direct log expansion.

    Expands log phi_product(k, l) through the substitution engine and
    makes two comparisons of v-major series over every v-power s < vorder:
    the u-symbolic closed forms cell by cell, then, for tmax >= 0, the t-th
    u-derivatives at u = 1 for t <= tmax, nested v -> du -> q, against
    their closed falling-factorial sums.  Raises Mismatch with the first
    differing location, {v, q, u2} or {v, du, q}; on success the count is
    one check per closed form and per derivative.  Raises ValueError for
    qorder < 2, where only the q^0 cell, zero on both sides, would be
    compared, and for vorder < 1, where no v-power would be.
    """
    _check_log_qorder(qorder)
    _check_vorder(vorder)
    ywin = qorder - 1
    direct = v_substitute_qmajor(log_phi_product(k, l, qorder, ywin), vorder)
    direct.assert_agrees(
        QSeries(0, [psi_kls_sym(k, l, s, qorder) for s in range(vorder)],
                "v"),
        what="direct expansion and closed forms of the log-product "
             "v-coefficients")
    orders = max(tmax + 1, 0)
    if orders:
        _u_derivatives(direct, tmax).assert_agrees(
            QSeries(0, [QSeries(0, _psi_kls_derivatives(k, l, s, tmax,
                                                         qorder), "du")
                        for s in range(vorder)], "v"),
            what="direct expansion and closed u-derivatives of the "
                 "log-product v-coefficients")
    return {"k": k, "l": l, "qorder": qorder, "vorder": vorder,
            "tmax": tmax, "checks": vorder * (1 + orders), "ok": True}


def _u_derivatives(f: QSeries, tmax: int) -> QSeries:
    """The u-derivatives at u = 1 of the cells of a v-major series, every
    order t <= tmax, nested v -> du -> q: a scalar cell is its own value
    at t = 0 and has no u to differentiate."""
    cols = []
    for col in f.coeffs:
        ders = [[0] * len(col.coeffs) for _ in range(tmax + 1)]
        for idx, c in enumerate(col.coeffs):
            if c:
                for t, x in enumerate(c.derivs_at_one(tmax)
                                      if isinstance(c, UPoly) else [c]):
                    ders[t][idx] = x
        cols.append(QSeries(0, [QSeries(col.lower, d, col.var)
                                for d in ders], "du"))
    return QSeries(f.lower, cols, f.var)


# ---------------------------------------------------------------------------
# the v-expansion of the counting series

def _egf(cs: list) -> QSeries:
    """sum_m c_m w^m / m! for the given c_0, c_1, ...: exp(cw) when
    c_m = c^m, w / (e^w - 1) when c_m = B_m."""
    return QSeries(0, [Fraction(c, factorial(m)) if c else 0
                       for m, c in enumerate(cs)], "v")


def _boundary_q0_column(n: int, vorder: int) -> QSeries:
    """q^0 column of v^2 G(n, 0): the expansion of v^2 y^n / (1-y)^{n+1}
    at y = e^{iv}.  In w = iv, where v^2 = -w^2, it is
    (-1)^n w^{1-n} e^{nw} (w/(e^w-1))^{n+1}, so only Bernoulli numbers
    are needed; its w^s coefficients are the stored rational cells."""
    need = max(vorder + n - 1, 0)
    col = (_egf([bernoulli(m) for m in range(need)]) ** (n + 1)
           * _egf([n ** m for m in range(need)]))
    return (col * (-1) ** n).shift(1 - n)


@lru_cache(maxsize=None)
def v_partition_series(n: int, r: int, qorder: int, vorder: int) -> QSeries:
    """v-major expansion of v^2 G(n, r; q, e^{iv}).

    Returns a QSeries in v (lower 1 - n) whose coefficients are QSeries
    in q with rational cells: the v^s cell stores the c of its value
    i^s c.  The q^0 column is nonzero only at the extreme ranks: for
    r = 0 it is the closed rational form expanded through Bernoulli
    numbers, for r = n its mirror y -> 1/y, which is v -> -v and puts
    (-1)^s on the cells; every q^m column with m >= 1 comes from the
    finite integer-support cells of the Euler specialization.  Built once
    per rank and bounds; callers never write to it.
    """
    _check_rank(n, r)
    if qorder < 1:
        raise ValueError("qorder must be positive")
    lo = 1 - n
    if vorder < lo:
        raise ValueError("vorder must reach the polar depth 1 - n")
    cols: list = [dict() for _ in range(vorder - lo)]
    if r == 0 or r == n:
        col0 = _boundary_q0_column(n, vorder)
        for s in range(lo, vorder):
            c = col0.coeff(s)
            if c:
                cols[s - lo][0] = -c if r == n and s % 2 else c
    ycols = {m: YPoly(euler_g_column(n, r, m)) for m in range(1, qorder)}
    rest = v_substitute_qmajor(QSeries.from_dict(ycols, 0, qorder),
                               vorder - 2)
    # the factor v^2 = -w^2 shifts by two and negates the stored cells
    for s in range(2, vorder):
        for m, c in enumerate(rest.coeff(s - 2).coeffs):
            if c:
                cols[s - lo][m] = -c
    return QSeries(lo, [QSeries.from_dict(d, 0, qorder, "q")
                        for d in cols], "v")


# ---------------------------------------------------------------------------
# product-side consistency checks

def mpt_check(qorder: int, vorder: int) -> dict:
    """Rank-one v-expansion against the Eisenstein exponential.

    Verifies -v^2 G(1, 0; q, e^{iv}) == exp(sum_{g >= 1} v^{2g}
    |B_{2g}| / (g (2g)!) E_{2g}(q)) coefficient-exactly; the exponential
    is taken in the ring of q-series.  Both sides are series in w = iv,
    as the cells are stored, so v^{2g} is (-1)^g w^{2g}.  Mismatch
    carries the (v, q) location.  Raises ValueError for vorder < 1.
    """
    _check_vorder(vorder)
    lhs = -v_partition_series(1, 0, qorder, vorder)
    rows: list = [0] * vorder
    for g in range(1, (vorder - 1) // 2 + 1):
        w = (-1) ** g * abs(bernoulli(2 * g)) / (g * factorial(2 * g))
        rows[2 * g] = eisenstein_even(2 * g, qorder) * w
    rhs = QSeries(0, rows, "v").exp(one=QSeries.one(qorder, "q"))
    lhs.assert_agrees(rhs, what="rank-one Eisenstein exponential form")
    return {"qorder": qorder, "vorder": vorder, "ok": True}


def logphi_sigma_check(qorder: int, vorder: int) -> dict:
    """u = 1 shadow of the log-product against pure divisor sums.

    Verifies that substituting y -> e^{iv} into log phi_product(0, 0)
    gives 4 sum_{k >= 1} (-1)^k v^{2k} / (2k)! * sigma_{2k-1}-series,
    with nothing at odd or zero v-powers; the stored v^{2k} cell is that
    value over i^{2k} = (-1)^k.  Mismatch carries (v, q).  Raises
    ValueError for qorder < 2 and vorder < 1, as verify_psi_vs_log does.
    """
    _check_log_qorder(qorder)
    _check_vorder(vorder)
    ywin = qorder - 1
    direct = v_substitute_qmajor(log_phi_product(0, 0, qorder, ywin), vorder)
    rows: list = [0] * vorder
    for k in range(1, (vorder - 1) // 2 + 1):
        rows[2 * k] = sigma_series(2 * k - 1, qorder) * \
            Fraction(4, factorial(2 * k))
    target = QSeries(0, rows, "v")
    direct.assert_agrees(target, what="log-product divisor-sum shadow")
    return {"qorder": qorder, "vorder": vorder, "ok": True}




# ---------------------------------------------------------------------------
# the closed form at u = 1: G^r_n = (1/n) Q_{n,r}(D_q, D_y) T^-2

# each closed column is checked against the series through q^TEST_QORDER
TEST_QORDER = 30


def _weight(m: tuple) -> int:
    return 2 * m[0] + 4 * m[1] + 6 * m[2]


def _monomial_name(m: tuple) -> str:
    """"E2^2*E4" for (2, 1, 0), and "1" for the empty product."""
    return "*".join(f"E{w}^{e}" if e > 1 else f"E{w}"
                    for w, e in zip((2, 4, 6), m) if e) or "1"


def _poly_add(acc: dict, f: dict, scale) -> None:
    """acc += scale * f for polynomials stored as {exponent tuple: Fraction},
    in place; over Q[E2, E4, E6] the tuple (a, b, c) is E2^a E4^b E6^c."""
    for m, c in f.items():
        v = acc.get(m, 0) + scale * c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def _poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m, c in f.items():
        _poly_add(out, {tuple(map(add, m, k)): d for k, d in g.items()}, c)
    return out


def _ramanujan(f: dict) -> dict:
    """D_q = q d/dq on Q[E2, E4, E6]: D E2 = (E2^2 - E4)/12,
    D E4 = (E2 E4 - E6)/3 and D E6 = (E2 E6 - E4^2)/2."""
    out: dict = {}
    for (a, b, c), x in f.items():
        _poly_add(out, {(a + 1, b, c): Fraction(a + 4 * b + 6 * c, 12),
                        (a - 1, b + 1, c): Fraction(-a, 12),
                        (a, b - 1, c + 1): Fraction(-b, 3),
                        (a, b + 2, c - 1): Fraction(-c, 2)}, x)
    return out


def _rank_one_columns(mmax: int) -> list:
    """[g_-2, g_-1, ..., g_mmax], where G^0_1 = 1/T^2 = sum g_m w^m.

    In w = iv, where D_y = d/dw, T = -w - w^3/24 - ... is odd, and the
    heat equation D_q T = D_y^2 T / 2 - E2 T / 8 gives t_{s+2} =
    2 (D_q t_s + E2 t_s / 8) / ((s + 1)(s + 2)) from t_1 = -1.  With
    T = -w U(w^2) and u_k = -t_{2k+1}, V = U^-2 obeys
    k V_k = -sum_{j=1}^k (j + k) u_j V_{k-j}, and 1/T^2 = w^-2 V.
    """
    u = [{(0, 0, 0): Fraction(1)}]
    vs = [{(0, 0, 0): Fraction(1)}]
    for k in range(1, mmax // 2 + 2):
        du = _ramanujan(u[-1])
        _poly_add(du, {(a + 1, b, c): x for (a, b, c), x in u[-1].items()},
                  Fraction(1, 8))
        u.append({m: x / (k * (2 * k + 1)) for m, x in du.items()})
        vk: dict = {}
        for j in range(1, k + 1):
            _poly_add(vk, _poly_mul(u[j], vs[k - j]), Fraction(-(j + k), k))
        vs.append(vk)
    return [{} if m % 2 else vs[m // 2 + 1] for m in range(-2, mmax + 1)]


def _closed_v_columns(n: int, r: int, ss) -> dict:
    """{s: polynomial in E2, E4, E6} for the v^s columns of v^2 G(n, r),
    s in ss, from the paper's theorem at u = 1.

    For r < n the lattice sum of g_closed at u = 1 is
    G^r_n = (1/n) Q_{n,r}(D_q, D_y) G^0_1 with G^0_1 = sum (p + l)
    q^{pl} y^{p-l}: Q_{n,r}(p, l) = C(p + r - 1, n - 1) C(l + n - r - 1,
    n - 1) vanishes on the rank-one lattice points outside p >= n - r,
    l >= r, and D_q multiplies the (p, l) term by pl, D_y by p - l.
    Pairing the factor p + c of the first binomial with l - c of the
    second, for c = r - 1, ..., r - n + 1, gives (p + c)(l - c) =
    pl - c (p - l) - c^2, so Q_{n,r}(D_q, D_y) is (n - 1)!^-2 times the
    product of the D_q - c D_y - c^2.  The stored v^s cell of v^2 G is
    minus the w^{s-2} coefficient of G, since v^2 = -w^2, and r = n is
    the mirror y -> 1/y of r = 0, which puts (-1)^s on the cells.  The
    polynomial is unique: E2, E4 and E6 are algebraically independent
    (Kaneko-Zagier).
    """
    # f[i] is the coefficient of w^(i - n - 1), from the polar depth up
    f = [{}] * (n - 1) + _rank_one_columns(max(ss) + n - 3)
    r0 = 0 if r == n else r
    for c in range(r0 - n + 1, r0):
        nxt = []
        for i in range(len(f) - 1):
            t = _ramanujan(f[i])
            _poly_add(t, f[i + 1], -c * (i - n))
            _poly_add(t, f[i], -c * c)
            nxt.append(t)
        f = nxt
    scale = Fraction(-1, n * factorial(n - 1) ** 2)
    return {
        s: {m: x * (-scale if r == n and s % 2 else scale)
            for m, x in f[s + n - 1].items()}
        for s in ss}


class EisensteinBasis:
    """The q-expansions of the monomials E2^a E4^b E6^c of weight
    <= weight_bound, exact below q^qorder.

    ``elements`` holds one (name, weight, expansion) triple per monomial,
    the empty product "1" included, sorted by (weight, name): weight(E_w)
    = w and weights add over products.  Each generator is
    E_w = 1 + c sum_{n >= 1} sigma_{w-1}(n) q^n with the integer
    c = -2w/B_w (-24, 240, -504), so every expansion is an integer list.
    """

    __slots__ = ("elements",)

    def __init__(self, weight_bound: int, qorder: int):
        if weight_bound < 0:
            raise ValueError("weight bound must be nonnegative")
        if qorder < 1:
            raise ValueError("qorder must be positive")
        e2, e4, e6 = (
            [1] + [c * m for m in sigma_series(w - 1, qorder).coeffs]
            for w, c in ((2, -24), (4, 240), (6, -504)))
        self.elements: list = []
        p6 = [1] + [0] * (qorder - 1)
        for c in range(weight_bound // 6 + 1):
            p6 = _int_conv(p6, e6, qorder) if c else p6
            p4 = p6
            for b in range((weight_bound - 6 * c) // 4 + 1):
                p4 = _int_conv(p4, e4, qorder) if b else p4
                p2 = p4
                for a in range((weight_bound - 6 * c - 4 * b) // 2 + 1):
                    p2 = _int_conv(p2, e2, qorder) if a else p2
                    m = (a, b, c)
                    self.elements.append((_monomial_name(m), _weight(m),
                                          QSeries(0, p2, "q")))
        self.elements.sort(key=lambda e: (e[1], e[0]))

    def __len__(self):
        return len(self.elements)


def _fit_columns(n: int, r: int, ss, test_qorder: int,
                 weight_ceiling: int):
    """Yield the fit_v_coefficient report of each v^s column of
    v^2 G(n, r), s in ss ascending; one expansion and one basis serve
    them all.  A polynomial is unique, so no combination below its top
    weight gives the column."""
    closed = _closed_v_columns(n, r, ss)
    series = v_partition_series(n, r, test_qorder + 1, ss[-1] + 1)
    top = {s: max(map(_weight, col), default=0) for s, col in closed.items()}
    basis = EisensteinBasis(max(top.values()), test_qorder + 1)
    for s in ss:
        named = {_monomial_name(m): c for m, c in closed[s].items()}
        combination = [(nm, named[nm], ser) for nm, _, ser in basis.elements
                       if nm in named]
        d = lcm(*[c.denominator for _, c, _ in combination])
        acc = [0] * (test_qorder + 1)
        for _, c, ser in combination:
            w = c.numerator * (d // c.denominator)
            acc = [a + w * x for a, x in zip(acc, ser.coeffs)]
        expansion = QSeries(0, [Fraction(x, d) if x else 0 for x in acc])
        try:
            QSeries(s, [series.coeff(s)], "v").assert_agrees(
                QSeries(s, [expansion], "v"))
        except Mismatch as ex:
            raise ValidationFailure(
                f"the closed form of the v^{s} column disagrees with the "
                f"series", ex.location) from None
        if top[s] > weight_ceiling:
            raise NoSolution(
                f"no combination of weight <= {weight_ceiling} gives the "
                f"v^{s} column, whose closed form has weight {top[s]}")
        yield {"n": n, "r": r, "s": s,
               "weight_bound": max(min(s + 2, weight_ceiling), top[s]),
               "combination": [{"monomial": nm, "coeff": i_power_str(s, c)}
                               for nm, c, _ in combination],
               "validated_to_qorder": test_qorder}


def fit_v_coefficient(n: int, r: int, s: int,
                      test_qorder: int = TEST_QORDER,
                      weight_ceiling: int = 12) -> dict:
    """The v^s coefficient of v^2 G(n, r) in E2, E4 and E6, as a
    JSON-ready report.

    The closed polynomial is checked against v_partition_series through
    q^test_qorder, and a difference raises ValidationFailure with its
    location {v, q}; a top weight above weight_ceiling raises NoSolution.
    The monomials are listed by (weight, name), each coefficient c of the
    stored column as the string of its value i^s c; weight_bound is
    max(min(s + 2, weight_ceiling), top weight), where a zero column has
    top weight 0.  The v-series starts at the polar depth 1 - n, so s
    below it raises ValueError.
    """
    _check_rank(n, r)
    if s < 1 - n:
        raise ValueError(f"need s >= 1 - n = {1 - n} (got s = {s})")
    return next(_fit_columns(n, r, [s], test_qorder, weight_ceiling))
