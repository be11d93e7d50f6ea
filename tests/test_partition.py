from fractions import Fraction

import pytest

import k3pairs.partition as partition
from k3pairs.errors import Mismatch, NonExactDivision, UnsupportedRank
from k3pairs.partition import _hilbert_series, euler_g_column, \
    f_via_matrices, g_closed, g_via_kernels, g_via_matrices, ky_product, \
    mirror_series, s_series, syst_euler, syst_hodge, syst_table
from k3pairs.rings import Monomial, TTPoly, UPoly, YPoly
from k3pairs.series import QSeries
from k3pairs.theta import log_phi_product, phi_bilateral, phi_product, psi
from k3pairs.ucomb import c_table, matrix_entry
from k3pairs.verify import run_suite

from ring_helpers import all_nonneg_int, div_u_pow_minus_one, \
    gauss_binomial, inverse_pochhammer_24, palindromic_twist, u_int


# -- Hilbert schemes of points ----------------------------------------------

def hilb_hodge(m):
    """Hodge polynomial of the Hilbert scheme of m points on a K3, read
    off S; negative m counts an empty moduli space and gives 0."""
    if m < 0:
        return TTPoly.zero()
    return s_series(m).coeff(m - 1) * TTPoly.mono(m, m)


def test_hilb_hodge_small():
    assert hilb_hodge(0) == TTPoly.one()
    assert hilb_hodge(-3) == TTPoly.zero()
    # one point: the K3 itself
    assert hilb_hodge(1) == TTPoly({(0, 0): 1, (2, 0): 1, (0, 2): 1,
                                    (1, 1): 20, (2, 2): 1})
    assert hilb_hodge(2).eval_one() == 324


def test_hilb_hodge_euler_oracle():
    # the (t, tb) product and the eta-power oracle must agree at t=tb=1
    es = inverse_pochhammer_24(31)
    assert es[:4] == [1, 24, 324, 3200]
    for m in range(31):
        assert hilb_hodge(m).eval_one() == es[m]


def _hilbert_by_products(qorder):
    """The Hodge series as whole-series products, one factor at a time."""
    def geometric(mono, m):
        cells, acc, j = {}, TTPoly.one(), 0
        while m * j < qorder:
            cells[m * j] = acc
            acc = acc * mono
            j += 1
        return QSeries.from_dict(cells, 0, qorder)

    f = QSeries.from_dict({0: TTPoly.one()}, 0, qorder)
    for m in range(1, qorder):
        for (p, q), mult in (((-1, -1), 1), ((1, -1), 1), ((0, 0), 20),
                             ((-1, 1), 1), ((1, 1), 1)):
            f = f * (geometric(TTPoly.mono(p, q), m) ** mult)
    return f


def _cold_cache(monkeypatch):
    monkeypatch.setitem(partition._hilb_cache, "order", 0)
    monkeypatch.setitem(partition._hilb_cache, "series", QSeries(0, []))


def test_hilbert_series_matches_whole_series_products():
    oracle = _hilbert_by_products(17)
    built = _hilbert_series(17)
    assert built.order == 17
    for m in range(17):
        assert built.coeff(m) == oracle.coeff(m), m


def test_hilbert_series_growth_matches_a_cold_build(monkeypatch):
    _cold_cache(monkeypatch)
    cold = _hilbert_series(20)
    _cold_cache(monkeypatch)
    _hilbert_series(5)
    assert partition._hilb_cache["order"] == 8
    assert _hilbert_series(20) == cold


def test_s_series_below_its_lowest_exponent(monkeypatch):
    for warm in (False, True):
        _cold_cache(monkeypatch)
        if warm:
            s_series(3)
        empty = s_series(-1)
        assert (empty.lower, empty.order) == (-1, -1), warm
        with pytest.raises(ValueError):
            s_series(-5)


def test_hilb_hodge_palindromic():
    for m in range(5):
        assert palindromic_twist(hilb_hodge(m)) == 2 * m
        assert all_nonneg_int(hilb_hodge(m))


def test_s_series_shape():
    s = s_series(5)
    assert s.lower == -1 and s.order == 5
    assert s.coeff(-1) == TTPoly.one()
    for g in range(6):
        assert s.coeff(g - 1) == hilb_hodge(g) * TTPoly.mono(-g, -g)


# -- coherent-system tables --------------------------------------------------

def test_syst_hodge_spot_checks():
    assert syst_hodge(1, 0, 0, 1) == TTPoly.one()
    assert syst_euler(1, 0, 1, 1) == 24


def test_syst_hodge_rank_bounds():
    with pytest.raises(UnsupportedRank):
        syst_hodge(2, 3, 4, 0)
    with pytest.raises(UnsupportedRank):
        syst_hodge(2, -1, 4, 0)
    with pytest.raises(ValueError):
        syst_hodge(2, 1, -1, 0)


def test_syst_hodge_duality_fixed_point():
    for g in range(5):
        assert syst_hodge(1, 1, g, 0) == syst_hodge(1, 0, g, 0)


def test_syst_hodge_negative_k_rewrite():
    assert syst_hodge(2, 0, 4, -2) == syst_hodge(2, 2, 4, 2)
    assert syst_hodge(1, 0, 3, -1) == syst_hodge(1, 1, 3, 1)


def _syst_hodge_by_p_sum(n, r, g, k):
    """The table cell as a finite sum of closed-form P entries against
    Hilbert-scheme Hodge polynomials, negative k folded to (-k, n - r)
    by the dual-system isomorphism."""
    if k < 0:
        k, r = -k, n - r
    total = TTPoly.zero()
    l = r
    while l * l + l * k <= g:
        p = matrix_entry("P", k + 2 * r, k + 2 * l, n)
        if p:
            total = total + p.to_tt() * hilb_hodge(g - l * l - l * k)
        l += 1
    return total


def test_syst_hodge_matches_product_route():
    # the table is read off F = S * G with G's entries from the genuine
    # A.B product; the oracle sums the closed-form P entries cell by cell
    cells = 0
    for n in range(1, 5):
        for r in range(n + 1):
            rows = syst_table(n, r, 10, -4, 4, hodge=True)
            assert len(rows) == 11 * 9, (n, r)
            for row in rows:
                g, k = row["g"], row["k"]
                want = _syst_hodge_by_p_sum(n, r, g, k)
                assert row["value"] == str(want), (n, r, g, k)
                assert syst_hodge(n, r, g, k) == want, (n, r, g, k)
                cells += 1
    assert cells == 1386


def test_syst_hodge_positive_palindromic():
    for n in (1, 2):
        for r in range(n + 1):
            for g in range(5):
                for k in range(-3, 4):
                    h = syst_hodge(n, r, g, k)
                    assert all_nonneg_int(h)
                    assert palindromic_twist(h) is not None


def test_syst_table_rows():
    rows = syst_table(1, 0, 1, 0, 1)
    assert [row["value"] for row in rows] == [
        syst_euler(1, 0, g, k) for g in (0, 1) for k in (0, 1)]
    assert rows[0].keys() == {"n", "r", "g", "k", "value"}
    hodge_rows = syst_table(1, 0, 0, 1, 1, hodge=True)
    assert hodge_rows[0]["value"] == "1"


def test_empty_table_builds_no_hilbert_series(monkeypatch):
    # no G column reaches y^100 below q^45, so F has no cell and S is
    # never needed
    _cold_cache(monkeypatch)
    rows = syst_table(3, 1, 45, 100, 100)
    assert [(row["g"], row["value"]) for row in rows] == \
        [(g, 0) for g in range(46)]
    assert partition._hilb_cache["order"] == 0


@pytest.mark.parametrize("build,match", [
    (lambda: g_closed(1, 0, 5, -1), r"ywin .*\(got -1\)"),
    (lambda: g_via_kernels(1, 0, 5, -1), r"ywin .*\(got -1\)"),
    (lambda: g_via_matrices(1, 0, 5, -1), r"ywin .*\(got -1\)"),
    (lambda: f_via_matrices(1, 0, 5, -1), r"ywin .*\(got -1\)"),
    (lambda: psi(Monomial(2, 0), Monomial(0, 1), 5, -1),
     r"ywin .*\(got -1\)"),
    (lambda: phi_bilateral(Monomial(2, 1), Monomial(0, 1), 5, -2),
     r"ywin .*\(got -2\)"),
    (lambda: phi_product(1, 0, 5, -1), r"ywin .*\(got -1\)"),
    (lambda: log_phi_product(1, 0, 5, -1), r"ywin .*\(got -1\)"),
    (lambda: ky_product(5, -1), r"ywin .*\(got -1\)"),
    (lambda: syst_table(1, 0, 3, 2, 1), r"kmin=2, kmax=1"),
], ids=["g_closed", "g_via_kernels", "g_via_matrices", "f_via_matrices",
        "psi", "phi_bilateral", "phi_product", "log_phi_product",
        "ky_product", "syst_table"])
def test_empty_window_is_refused(build, match):
    # each of these once returned an all-zero series (or no rows), so two
    # routes compared on it agreed after comparing nothing
    with pytest.raises(ValueError, match=match):
        build()


# -- partition-function routes ------------------------------------------------

def test_g_closed_rank_one_columns():
    g = g_closed(1, 0, 6, 5)
    q0 = g.coeff(0)
    assert q0 == YPoly({p: u_int(p) for p in range(1, 6)})
    assert g.coeff(1) == YPoly({0: UPoly({-2: 1, 0: 1})})


def test_g_closed_interior_rank_gap():
    g = g_closed(2, 1, 4, 4)
    col = g.coeff(0)
    assert (not col) or col.coeff(0) == 0


def test_g_closed_integer_u_exponents():
    g = g_closed(3, 1, 6, 5)
    for e in range(6):
        col = g.coeff(e)
        if not col:
            continue
        for v in col.c.values():
            assert all(e2 % 2 == 0 for e2 in v.c)


def test_g_closed_rejects_bad_rank():
    with pytest.raises(UnsupportedRank):
        g_closed(2, 5, 4, 4)
    with pytest.raises(ValueError):
        g_closed(0, 0, 4, 4)


def test_f_via_matrices_bottom_row():
    f = f_via_matrices(1, 0, 5, 4)
    assert f.lower == -1
    # q^{-1} of F equals q^0 of G: S leads with 1.q^{-1}, and the only
    # q^0 lattice entries are the diagonal P[k, k] = [k]
    assert f.coeff(-1) == YPoly(
        {k: u_int(k).to_tt() for k in range(1, 5)})


def test_routes_agree():
    for n in (1, 2, 3):
        for r in range(n + 1):
            gc = g_closed(n, r, 8, 6)
            gk = g_via_kernels(n, r, 8, 6)
            gm = g_via_matrices(n, r, 8, 6)
            assert gc == gk, (n, r)
            assert gc == gm, (n, r)


def _div_u_int(w, m):
    """w / [m] = w (u - 1) / (u^m - 1)."""
    return div_u_pow_minus_one(w * UPoly({2: 1, 0: -1}), 2 * m)


def _kernels_by_psi(n, r, qorder, ywin):
    """The kernel route as whole-series sums: one Psi(u^i, u^{j-r} y; q)
    per weight, added cell by cell, then divided by (u-1)^(2n-1) and
    ([n-1]!)^2, the q^0 column repaired at r = n from the q-Pascal
    oracle, and every cell divided by [n]."""
    cells = {}
    for (i, j), w in c_table(n, r).items():
        part = psi(Monomial(2 * i, 0), Monomial(2 * (j - r), 1),
                   qorder, ywin)
        for qe in range(part.lower, part.order):
            col = part.coeff(qe)
            if not col:
                continue
            dst = cells.setdefault(qe, {})
            for ye, v in col.c.items():
                dst[ye] = dst.get(ye, UPoly.zero()) + v * w
    for col in cells.values():
        for ye, w in col.items():
            for _ in range(2 * n - 1):
                w = div_u_pow_minus_one(w, 2)
            for m in range(2, n):
                w = _div_u_int(_div_u_int(w, m), m)
            col[ye] = w
    if r == n:
        col = cells.setdefault(0, {})
        for l in range(n, ywin + 1):
            col[-l] = col.get(-l, UPoly.zero()) \
                + u_int(l) * gauss_binomial(l - 1, n - 1)
        sgn = 1 if n % 2 else -1
        for p in range(1, ywin + 1):
            w = (u_int(p) * gauss_binomial(p + n - 1, n - 1)).shift(
                -2 * n * p - n * (n - 1))
            col[p] = col.get(p, UPoly.zero()) - sgn * w
    for col in cells.values():
        for ye, w in col.items():
            col[ye] = _div_u_int(w, n).shift(2 * r * (n - r))
    return QSeries.from_dict(
        {qe: YPoly(col) for qe, col in cells.items()}, 0, qorder)


def test_g_via_kernels_matches_psi_sums():
    for n in range(1, 6):
        for r in range(n + 1):
            for qorder in (0, 1, 2, 8, 12):
                for ywin in (0, 1, 8):
                    want = _kernels_by_psi(n, r, qorder, ywin)
                    got = g_via_kernels(n, r, qorder, ywin)
                    key = (n, r, qorder, ywin)
                    assert (got.lower, got.order) == (0, max(qorder, 0)), key
                    for qe in range(qorder):
                        a, b = want.coeff(qe), got.coeff(qe)
                        assert a == b, key + (qe,)
                        for ye, v in (b.c.items() if b else ()):
                            assert a.c[ye].c == v.c, key + (qe, ye)
                            assert [type(x) for x in a.c[ye].c.values()] \
                                == [type(x) for x in v.c.values()], key


def test_g_via_kernels_names_the_cell_that_fails(cold_monkeypatch):
    real = partition.c_table

    def perturbed(n, r):
        table = real(n, r)
        if n == 2:
            key = min(table)
            table[key] = table[key] + UPoly.u()
        return table

    cold_monkeypatch.setattr(partition, "c_table", perturbed)
    with pytest.raises(NonExactDivision) as exc:
        g_via_kernels(2, 0, 8, 6)
    assert "at q^0 y^1 not divisible by (u-1)^3" in str(exc.value)
    out = run_suite("routes", n=2)
    assert not out["ok"]
    bad = out["results"][-1]
    assert bad["check"] == "three-route agreement at rank (2, 0)"
    assert "kernel-route numerator at q^0 y^1" in bad["message"]


def test_g_via_kernels_checks_the_n_factor(cold_monkeypatch):
    # u^k (u-1)^3 is a multiple of (u-1)^3 ([1]!)^2, so the perturbed cells
    # pass that much of the chain; at q^0 y^1 the contraction multiplies
    # it by u - 1 once more, and (u-1)^4 / ((u-1)^2 (u^2-1)) is not a
    # polynomial: only the factor [2] of the chain can catch it.  Every
    # cell divides by the one fused chain, the q^0 column at r = n too,
    # with its repair folded into the numerator, so q^0 y^1 is the first
    # cell to fail at every r and qorder
    real = partition.c_table
    cube = UPoly({6: 1, 4: -3, 2: 3, 0: -1})

    def perturbed(n, r):
        table = real(n, r)
        if n == 2:
            table[(1, 0)] = table[(1, 0)] + cube.shift(2)
        return table

    cold_monkeypatch.setattr(partition, "c_table", perturbed)
    for r, qorder in ((0, 8), (1, 8), (2, 8), (2, 1)):
        with pytest.raises(NonExactDivision) as exc:
            g_via_kernels(2, r, qorder, 6)
        assert str(exc.value) == ("kernel-route numerator at q^0 y^1 not "
                                  "divisible by (u-1)^3 ([1]!)^2 [2]")


def test_g_closed_names_the_cell_that_fails(cold_monkeypatch):
    # [2, 1] + 1 = 2 + u: at (p, l) = (3, 0) of rank (2, 0) the list
    # (2 + u)(1 - u^3) is 2 at u = -1, a root of 1 - u^2, which therefore
    # does not divide it; only partition's name is patched, so the matrix
    # route's entries stay exact
    real = partition._binomial_list

    def perturbed(big, k):
        f = real(big, k)
        return [f[0] + 1] + f[1:] if (big, k) == (2, 1) else f

    cold_monkeypatch.setattr(partition, "_binomial_list", perturbed)
    with pytest.raises(NonExactDivision) as exc:
        g_closed(2, 0, 8, 6)
    assert str(exc.value) == \
        "closed-form numerator at q^0 y^3 not divisible by [2]"
    out = run_suite("routes", n=2)
    assert not out["ok"]
    assert [x["ok"] for x in out["results"]] == [True, True, False]
    bad = out["results"][-1]
    assert bad["check"] == "three-route agreement at rank (2, 0)"
    assert "closed-form numerator at q^0 y^3 not divisible by [2]" \
        in bad["message"]


def to_tt_series(f):
    """Embed a u-Laurent-valued q-series into the (t, tb) ring."""
    return f.map_coeffs(
        lambda col: YPoly({e: v.to_tt() for e, v in col.c.items()}))


def test_f_divided_by_s_is_the_matrix_route():
    # F = S * G exactly: the generic series product of S with the matrix
    # route of G, embedded via u = t*tb, is F on q^-1..q^7
    s = s_series(9)
    for n in (1, 2, 3):
        for r in range(n + 1):
            sg = s * to_tt_series(g_via_matrices(n, r, 9, 6))
            assert sg == f_via_matrices(n, r, 8, 6), (n, r)


def test_duality():
    for n in (1, 2, 3, 4):
        for r in range(n + 1):
            a = g_closed(n, r, 6, 6)
            b = mirror_series(g_closed(n, n - r, 6, 6))
            assert a == b, (n, r)


def test_duality_at_f_level():
    a = f_via_matrices(2, 0, 6, 5)
    b = mirror_series(f_via_matrices(2, 2, 6, 5))
    assert a == b


# -- Euler specialization ------------------------------------------------------

def at_u_one(f):
    """g_closed's series with every u set to 1, cells as Fractions."""
    return f.map_coeffs(lambda col: YPoly(
        {e: Fraction(v.eval_one()) for e, v in col.c.items()}))


def test_euler_g_frozen_examples():
    assert euler_g_column(1, 0, 1) == {0: 2}
    assert at_u_one(g_closed(1, 0, 1, 5)).coeff(0).coeff(1) == 1
    assert euler_g_column(2, 1, 1) == {0: 1}


def test_euler_g_frozen_columns():
    assert euler_g_column(2, 0, 2) == {1: Fraction(3)}
    assert euler_g_column(2, 0, 3) == {2: Fraction(8)}
    assert euler_g_column(2, 0, 4) == {0: Fraction(6), 3: Fraction(15)}
    assert euler_g_column(2, 0, 5) == {4: Fraction(24)}
    assert euler_g_column(2, 1, 2) == {1: Fraction(3), -1: Fraction(3)}
    assert euler_g_column(2, 1, 4) == {3: Fraction(10), 0: Fraction(8),
                                       -3: Fraction(10)}


def test_euler_g_matches_g_closed():
    # below q^6 every column with m >= 1 has |y| < 5, so ywin 5 is full
    for (n, r) in [(1, 0), (2, 0), (2, 1), (3, 2), (3, 3)]:
        a = at_u_one(g_closed(n, r, 6, 5))
        for m in range(1, 6):
            col = a.coeff(m)
            assert (col.c if col else {}) == euler_g_column(n, r, m), \
                (n, r, m)


def test_euler_g_column_full_support():
    assert euler_g_column(2, 0, 4) == {0: Fraction(6), 3: Fraction(15)}
    # the windowed series is the restriction of the full column
    col = euler_g_column(1, 0, 6)
    win = at_u_one(g_closed(1, 0, 7, 3)).coeff(6)
    for e in range(-3, 4):
        assert win.coeff(e) == col.get(e, 0)
    assert any(abs(e) > 3 for e in col)
    with pytest.raises(ValueError):
        euler_g_column(1, 0, 0)


def test_euler_g_column_names_a_cell_that_does_not_divide(monkeypatch):
    # the cells are ints: every numerator is divisible by n
    for n in range(1, 6):
        for r in range(n + 1):
            for m in range(1, 13):
                assert all(type(v) is int
                           for v in euler_g_column(n, r, m).values())
    # a binomial off by one: (p, l) = (4, 1) of rank (3, 1) gives
    # 5 (C(2, 2) + 1)(C(4, 2) + 1) = 70, not divisible by 3
    real = partition.comb
    monkeypatch.setattr(partition, "comb", lambda a, b: real(a, b) + 1)
    with pytest.raises(NonExactDivision) as exc:
        euler_g_column(3, 1, 4)
    assert str(exc.value) == \
        "Euler numerator of rank (3, 1) at q^4 y^3 not divisible by 3"


# -- rank-one product identity ---------------------------------------------------

def test_ky_product_verifies():
    out = ky_product(8, 6)
    assert out.order == 8
    ky_product(6, 0)


def test_ky_product_catches_lies(monkeypatch):
    import k3pairs.partition as mod
    real = mod.phi_product

    def liar(k, l, qorder, ywin):
        f = real(k, l, qorder, ywin)
        bad = f.coeff(2) + YPoly({1: UPoly.one()})
        return QSeries(f.lower,
                       [bad if e == 2 else f.coeff(e)
                        for e in range(f.lower, f.order)], "q")

    monkeypatch.setattr(mod, "phi_product", liar)
    with pytest.raises(Mismatch) as exc:
        ky_product(6, 4)
    assert exc.value.location["q"] == 2
    assert exc.value.location["y"] == 1
