"""Eisenstein layer: the v-expansion of the counting series and its
recognition inside a bounded-weight ring of q-series.

After substituting y -> e^{iv}, each power of v in v^2 * G(n, r; q, y)
carries a power series in q.  This module builds those series exactly
(the q^0 column from a closed rational form, the rest from the
full-support integer columns of the Euler specialization), provides the
divisor sums, the Eisenstein series and the ring of quasimodular forms
Q[E2, E4, E6] the coefficients are expected to live in, the closed forms
for the v-coefficients of the log-product kernel together with their
u-derivatives at u = 1, two independent product-side consistency checks,
and an exact linear fitter with a held-out validation window.  Every v^s cell is i^s times a
rational, and the cells store that rational (the series in w = iv, see
series.v_substitute_qmajor), so the closed forms fold i^s into real
signs and the fitter eliminates over Z on one rational right-hand side.

No floats, no numerics: every comparison is coefficient-exact, and every
verifier raises Mismatch with the first differing exponent location
instead of returning a best effort.
"""

from fractions import Fraction
from math import factorial, gcd, lcm

from .errors import Mismatch, NoSolution, ValidationFailure
from .partition import _check_rank, euler_g_column
from .rings import UPoly, YPoly
from .scalars import bernoulli, binomial, i_power_str
from .series import QSeries, locate_mismatch, v_substitute_qmajor
from .theta import log_phi_product

__all__ = [
    "EisensteinBasis", "eisenstein_even", "fit_in_R", "fit_v_coefficient",
    "logphi_sigma_check", "mpt_check", "psi_kls_derivative", "psi_kls_sym",
    "sigma_series", "v_partition_series", "verify_psi_vs_log",
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
    cols = []
    sgn = -1 if s % 2 else 1
    for n in range(1, qorder):
        cell: dict = {}
        for r in _divisors(n):
            if s == 0:
                w = n // r
                terms = ((k + l, w), (-(k + l), w), (l, w), (-l, w),
                         (0, -2 * w), (k, -w), (-k, -w))
            else:
                w = r ** (s - 1)
                terms = ((k + l, w), (-(k + l), sgn * w), (l, w),
                         (-l, sgn * w))
            for e, c in terms:
                key = 2 * e * r
                cell[key] = cell.get(key, 0) + c
        den = n if s == 0 else factorial(s)
        cols.append(UPoly._of({e: Fraction(c, den)
                               for e, c in cell.items() if c}))
    return QSeries(1, cols, "q")


def psi_kls_derivative(k: int, l: int, s: int, t: int,
                       qorder: int) -> QSeries:
    """t-th u-derivative of psi_kls_sym(k, l, s) at u = 1, in closed form.

    Differentiating u^m picks up the falling factorial t! * C(m, t), so
    each q^n cell collapses to a signed binomial sum over the divisors
    of n, taken over Z: over the denominator n at s = 0, where each
    divisor r weighs n/r, and over s! at s >= 1.  A nonzero cell is one
    Fraction standing for i^s times itself; a zero cell is the int 0.
    """
    if s < 0 or t < 0:
        raise ValueError("v-power and derivative order must be nonnegative")
    cols = []
    if s == 0:
        terms = ((k + l, 1), (-(k + l), 1), (l, 1), (-l, 1),
                 (k, -1), (-k, -1))
        tf = factorial(t)
        for n in range(1, qorder):
            acc = 0
            for r in _divisors(n):
                inner = sum(c * binomial(e * r, t) for e, c in terms)
                if t == 0:
                    inner -= 2
                acc += inner * (n // r)
            cols.append(Fraction(tf * acc, n) if acc else 0)
    else:
        sgn = -1 if s % 2 else 1
        tf, sf = factorial(t), factorial(s)
        for n in range(1, qorder):
            acc = 0
            for r in _divisors(n):
                inner = (binomial((k + l) * r, t)
                         + sgn * binomial(-(k + l) * r, t)
                         + binomial(l * r, t) + sgn * binomial(-l * r, t))
                if inner:
                    acc += r ** (s - 1) * inner
            cols.append(Fraction(tf * acc, sf) if acc else 0)
    return QSeries(1, cols, "q")


def _du_at_one(c, t: int):
    if isinstance(c, UPoly):
        return c.deriv_at_one(t)
    return c if t == 0 else 0


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
    compares, for each v-power s < vorder: the u-symbolic closed form
    cell by cell, then the t-th u-derivatives at u = 1 for t <= tmax
    against their closed binomial sums.  Raises Mismatch with the first
    differing (v, q[, du]) location; returns a check count on success.
    Raises ValueError for qorder < 2, where only the q^0 cell, zero on
    both sides, would be compared, and for vorder < 1, where no v-power
    would be.
    """
    _check_log_qorder(qorder)
    _check_vorder(vorder)
    ywin = qorder - 1
    direct = v_substitute_qmajor(log_phi_product(k, l, qorder, ywin), vorder)
    checks = 0
    for s in range(vorder):
        dcol = direct.coeff(s)
        sym = psi_kls_sym(k, l, s, qorder)
        e = dcol.first_mismatch(sym)
        if e is not None:
            loc = {"v": s, "q": e}
            loc.update(locate_mismatch(dcol.coeff(e), sym.coeff(e)))
            raise Mismatch("closed form of the log-product v-coefficient "
                           "disagrees with the direct expansion", loc)
        checks += 1
        for t in range(tmax + 1):
            der = dcol.map_coeffs(lambda c: _du_at_one(c, t))
            closed = psi_kls_derivative(k, l, s, t, qorder)
            e = der.first_mismatch(closed)
            if e is not None:
                raise Mismatch(
                    "closed u-derivative of the log-product v-coefficient "
                    "disagrees with the direct expansion",
                    {"v": s, "q": e, "du": t})
            checks += 1
    return {"k": k, "l": l, "qorder": qorder, "vorder": vorder,
            "tmax": tmax, "checks": checks, "ok": True}


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


def v_partition_series(n: int, r: int, qorder: int, vorder: int) -> QSeries:
    """v-major expansion of v^2 G(n, r; q, e^{iv}).

    Returns a QSeries in v (lower 1 - n) whose coefficients are QSeries
    in q with rational cells: the v^s cell stores the c of its value
    i^s c.  The q^0 column is nonzero only at the extreme ranks: for
    r = 0 it is the closed rational form expanded through Bernoulli
    numbers, for r = n its mirror y -> 1/y, which is v -> -v and puts
    (-1)^s on the cells; every q^m column with m >= 1 comes from the
    finite integer-support cells of the Euler specialization.
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


def _odd_cells(f: QSeries) -> list:
    """The nonzero odd-v cells of a v-expansion, each with its value.

    Every v^s cell has the value i^s c for a rational c, so the cells
    that break the even/real pattern are the nonzero ones at odd
    v-powers, whose values are imaginary; each is listed with its value
    rendered by i_power_str.  On v_partition_series(n, r) the pattern
    holds exactly at n = 1 and at r = n/2.  At every other rank, interior
    ones such as (3, 1) included, the odd cells survive, mirrored between
    r and n - r: the duality G^r_n(q, y) = G^{n-r}_n(q, 1/y) makes the
    v^s cell at r equal (-1)^s times the one at n - r.  The offending
    cells are listed rather than rounded away.
    """
    return [{"v": s, "q": m, "value": i_power_str(s, c)}
            for s in range(f.lower, f.order) if s % 2
            for m, c in enumerate(f.coeff(s).coeffs) if c]


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
# the bounded-weight ring and the exact fitter

# fit and held-out windows: wider than the verify suites' qorder, since a
# fit needs enough held-out coefficients to be trusted
FIT_QORDER = 20
TEST_QORDER = 30


def _int_mul(f: list, g: list) -> list:
    """Product of two integer coefficient lists, truncated to len(f)."""
    n = len(f)
    out = [0] * n
    for i, a in enumerate(f):
        if a:
            out[i:] = [o + a * b for o, b in zip(out[i:], g)]
    return out


class EisensteinBasis:
    """The quasimodular monomials E2^a E4^b E6^c of weight <= weight_bound.

    These span the quasimodular forms of weight <= weight_bound and are
    linearly independent (Kaneko-Zagier): weight(E_w) = w and weights add
    over products.  ``elements`` holds one (name, weight, expansion)
    triple per monomial, the empty product "1" included, sorted by
    (weight, name); expansions are exact below q^qorder.  Each generator
    is E_w = 1 + c sum_{n >= 1} sigma_{w-1}(n) q^n with the integer
    c = -2w/B_w (-24, 240, -504), so every expansion is an integer list.
    """

    __slots__ = ("weight_bound", "qorder", "elements")

    def __init__(self, weight_bound: int, qorder: int):
        if weight_bound < 0:
            raise ValueError("weight bound must be nonnegative")
        if qorder < 1:
            raise ValueError("qorder must be positive")
        self.weight_bound = weight_bound
        self.qorder = qorder
        gens = [(f"E{w}", w,
                 [1] + [c * m for m in sigma_series(w - 1, qorder).coeffs])
                for w, c in ((2, -24), (4, 240), (6, -504))]
        self.elements: list = []
        self._emit(gens, 0, [], [1] + [0] * (qorder - 1))
        self.elements.sort(key=lambda e: (e[1], e[0]))

    def _emit(self, gens: list, weight: int, parts: list, ints: list):
        if not gens:
            name = "*".join(f"{nm}^{e}" if e > 1 else nm
                            for nm, e in parts) or "1"
            self.elements.append((name, weight, QSeries(0, ints, "q")))
            return
        (name, w, gints), rest = gens[0], gens[1:]
        e = 0
        while weight + e * w <= self.weight_bound:
            self._emit(rest, weight + e * w,
                       parts + ([(name, e)] if e else []), ints)
            e += 1
            if weight + e * w <= self.weight_bound:
                ints = _int_mul(ints, gints)

    def __len__(self):
        return len(self.elements)


def _primitive(row: list) -> list:
    """The integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _solve_exact(rows: list, k: int):
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


def fit_in_R(target: QSeries, weight_bound: int, fit_qorder: int,
             test_qorder: int, basis: EisensteinBasis | None = None) -> dict:
    """Express a rational q-series exactly in the bounded-weight monomials.

    Solves the linear system on the coefficients q^0 .. q^fit_qorder by
    exact elimination over Z, and then demands a literally zero residual
    on the held-out window q^{fit_qorder+1} .. q^{test_qorder}.  A v^s
    column of v_partition_series is rational as stored (its values are
    i^s times it), so it is fitted as it is.  Raises NoSolution if the
    window system is inconsistent and ValidationFailure if a window fit
    breaks beyond it; returns the nonzero combination otherwise.

    A given ``basis`` must reach weight_bound and q^test_qorder; its
    elements of weight <= weight_bound, a prefix since they are sorted by
    weight, are the basis built here otherwise, in the same order.
    """
    if not 0 <= fit_qorder < test_qorder:
        raise ValueError("need 0 <= fit_qorder < test_qorder")
    if target.order <= test_qorder:
        raise ValueError("target must be known through the validation order")
    if basis is None:
        basis = EisensteinBasis(weight_bound, test_qorder + 1)
    elif basis.weight_bound < weight_bound or basis.qorder <= test_qorder:
        raise ValueError("the basis must reach the weight bound and the "
                         "validation order")
    elements = [e for e in basis.elements if e[1] <= weight_bound]
    names = [nm for nm, _, _ in elements]
    cols = [ser.coeffs for _, _, ser in elements]
    k = len(cols)
    tgt = [target.coeff(m) for m in range(test_qorder + 1)]
    rows = [[c[m] for c in cols] + [tgt[m]] for m in range(fit_qorder + 1)]
    x = _solve_exact(rows, k)
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
    return {"weight_bound": weight_bound, "fit_qorder": fit_qorder,
            "validated_to_qorder": test_qorder,
            "combination": [(nm, xi) for nm, xi in zip(names, x) if xi]}


def fit_v_coefficient(n: int, r: int, s: int,
                      fit_qorder: int = FIT_QORDER,
                      test_qorder: int = TEST_QORDER,
                      weight_ceiling: int = 12) -> dict:
    """Fit one v-coefficient of v^2 G(n, r) and return a JSON-ready report.

    The expected weight of the v^s coefficient is s + 2, so the search
    starts there (capped by the ceiling) and widens on NoSolution until
    the ceiling is exhausted.  Each coefficient c of the stored v^s
    column is reported as the exact string of its value i^s c.  The
    v-series starts at the polar depth 1 - n, so s below it raises
    ValueError.
    """
    _check_rank(n, r)
    if s < 1 - n:
        raise ValueError(f"need s >= 1 - n = {1 - n} (got s = {s})")
    series = v_partition_series(n, r, test_qorder + 1, s + 1)
    basis = EisensteinBasis(min(s + 2, weight_ceiling), test_qorder + 1)
    return _fit_column(n, r, s, series.coeff(s), fit_qorder, test_qorder,
                       weight_ceiling, basis)[0]


def _fit_column(n: int, r: int, s: int, target: QSeries, fit_qorder: int,
                test_qorder: int, weight_ceiling: int,
                basis: EisensteinBasis) -> tuple:
    """fit_v_coefficient on the v^s column ``target`` of v^2 G(n, r),
    known through q^test_qorder; one expansion can serve every s.

    Each try fits in the prefix of ``basis`` up to its weight bound, and a
    bound past basis.weight_bound builds the wider basis.  Returns the
    report and the widest basis built, so that the columns of one fit
    command share their bases.
    """
    bound = min(s + 2, weight_ceiling)
    while True:
        if bound > basis.weight_bound:
            basis = EisensteinBasis(bound, basis.qorder)
        try:
            res = fit_in_R(target, bound, fit_qorder, test_qorder, basis)
            break
        except NoSolution:
            if bound >= weight_ceiling:
                raise
            bound += 1
    return {"n": n, "r": r, "s": s, "weight_bound": res["weight_bound"],
            "combination": [{"monomial": nm, "coeff": i_power_str(s, c)}
                            for nm, c in res["combination"]],
            "validated_to_qorder": res["validated_to_qorder"]}, basis
