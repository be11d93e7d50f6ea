import hashlib
from fractions import Fraction
from math import comb

import pytest

import k3pairs.partition as partition
import k3pairs.rings as rings
import k3pairs.ucomb as ucomb
import k3pairs.verify as verify
from k3pairs import reset_caches
from k3pairs.errors import Mismatch, NonExactDivision, UnsupportedRank
from k3pairs.partition import euler_g_column, f_via_matrices, g_closed, \
    g_via_kernels, g_via_matrices, ky_product, mirror_series, s_series, \
    syst_euler, syst_hodge, syst_table
from k3pairs.rings import Monomial, TTPoly, UPoly, YPoly, kron_product, \
    kron_width
from k3pairs.series import QSeries
from k3pairs.theta import log_phi_product, phi_bilateral, phi_product, psi
from k3pairs.ucomb import matrix_entry
from k3pairs.verify import run_suite

from ring_helpers import TTRing, all_nonneg_int, div_u_pow_minus_one, \
    gauss_binomial, inverse_pochhammer_24, palindromic_twist, rank_c_table, \
    to_tt, u_int


# -- Hilbert schemes of points ----------------------------------------------

def hilb_hodge(m):
    """Hodge polynomial of the Hilbert scheme of m points on a K3, read
    off S; negative m counts an empty moduli space and gives 0."""
    if m < 0:
        return TTRing.zero()
    return TTRing(s_series(m).coeff(m - 1).c) * TTRing({(m, m): 1})


def test_hilb_hodge_small():
    assert hilb_hodge(0) == TTPoly.one()
    assert hilb_hodge(-3) == TTPoly.zero()
    # one point: the K3 itself
    assert hilb_hodge(1) == TTPoly({(0, 0): 1, (2, 0): 1, (0, 2): 1,
                                    (1, 1): 20, (2, 2): 1})
    assert sum(hilb_hodge(2).c.values()) == 324


def test_hilb_hodge_euler_oracle():
    # the (t, tb) product and the eta-power oracle must agree at t=tb=1
    es = inverse_pochhammer_24(31)
    assert es[:4] == [1, 24, 324, 3200]
    for m in range(31):
        assert sum(hilb_hodge(m).c.values()) == es[m]


def _hilbert_by_products(qorder):
    """The Hodge series as whole-series products, one factor at a time."""
    def geometric(mono, m):
        cells, acc, j = {}, TTRing.one(), 0
        while m * j < qorder:
            cells[m * j] = acc
            acc = acc * mono
            j += 1
        return QSeries.from_dict(cells, 0, qorder)

    f = QSeries.from_dict({0: TTRing.one()}, 0, qorder)
    for m in range(1, qorder):
        for (p, q), mult in (((-1, -1), 1), ((1, -1), 1), ((0, 0), 20),
                             ((-1, 1), 1), ((1, 1), 1)):
            f = f * (geometric(TTRing({(p, q): 1}), m) ** mult)
    return f


def test_hilbert_series_matches_whole_series_products():
    oracle = _hilbert_by_products(17)
    built = s_series(16)
    assert built.order == 16
    for m in range(17):
        assert built.coeff(m - 1) == oracle.coeff(m), m


@pytest.mark.parametrize("target,width", [(15, 5), (16, 6)])
def test_hilbert_series_where_its_byte_width_steps(target, width):
    # S is packed at kron_width of prod (1 - q^m)^-24 below q^target,
    # which steps from 5 to 6 bytes between these two builds
    euler = inverse_pochhammer_24(target)
    assert kron_width(max(euler)) == width
    built = s_series(target - 1)
    assert built.order == target - 1
    oracle = _hilbert_by_products(target)
    for m in range(target):
        cell = built.coeff(m - 1)
        assert cell == oracle.coeff(m), m
        assert all(v > 0 for v in cell.c.values()), m
        assert sum(cell.c.values()) == euler[m], m


def test_s_series_below_its_lowest_exponent():
    empty = s_series(-1)
    assert (empty.lower, empty.order) == (-1, -1)
    assert s_series(0).coeffs == [TTPoly.one()]
    for qorder in (-2, -5):
        with pytest.raises(ValueError, match=rf"qorder.*{qorder}"):
            s_series(qorder)


def test_hilb_hodge_palindromic():
    for m in range(5):
        assert palindromic_twist(hilb_hodge(m)) == 2 * m
        assert all_nonneg_int(hilb_hodge(m))


def test_s_series_shape():
    s = s_series(5)
    assert s.lower == -1 and s.order == 5
    assert s.coeff(-1) == TTPoly.one()
    for g in range(6):
        assert s.coeff(g - 1) == hilb_hodge(g) * TTRing({(-g, -g): 1})


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
    total = TTRing.zero()
    l = r
    while l * l + l * k <= g:
        p = matrix_entry("P", k + 2 * r, k + 2 * l, n)
        if p:
            total = total + to_tt(p) * hilb_hodge(g - l * l - l * k)
        l += 1
    return total


def test_syst_hodge_matches_product_route():
    # the table is read off F = S * G with G's entries from the genuine
    # A.B product; the oracle sums the closed-form P entries cell by cell.
    # The Euler mode runs the same product over Z at t = tb = 1, so each
    # of its rows is the oracle's value at 1, and through gmax 20, g = gmax
    # included, its Hodge cell's value at 1.
    cells = at_one = 0
    for n in range(1, 5):
        for r in range(n + 1):
            rows = syst_table(n, r, 10, -4, 4, hodge=True)
            assert len(rows) == 11 * 9, (n, r)
            euler = {(row["g"], row["k"]): row["value"]
                     for row in syst_table(n, r, 10, -4, 4)}
            for row in rows:
                g, k = row["g"], row["k"]
                want = _syst_hodge_by_p_sum(n, r, g, k)
                assert row["value"] == str(want), (n, r, g, k)
                assert syst_hodge(n, r, g, k) == want, (n, r, g, k)
                assert euler[(g, k)] == sum(want.c.values()), (n, r, g, k)
                assert syst_euler(n, r, g, k) == sum(want.c.values()), \
                    (n, r, g, k)
                cells += 1
            rows = syst_table(n, r, 20, -4, 4)
            hodge = partition._table_cells(n, r, 20, -4, 4, True)
            assert len(rows) == len(hodge) == 21 * 9, (n, r)
            for row, (g, k, h) in zip(rows, hodge):
                assert (row["g"], row["k"]) == (g, k)
                assert type(row["value"]) is int, (n, r, g, k)
                assert row["value"] == sum(h.c.values()), (n, r, g, k)
                at_one += 1
            assert any(row["value"] for row in rows if row["g"] == 20)
    assert (cells, at_one) == (1386, 2646)


def test_syst_hodge_positive_palindromic():
    """Every nonzero Hodge cell E = sum h^{p,q} t^p tb^q of every rank
    with n <= 4, g <= 12 and |k| <= 6 has positive integer entries, is
    symmetric under t <-> tb, has only even p + q and h^{0,0} = 1, and is
    palindromic, h^{p,q} = h^{D-p,D-q}, about
    D = 2g + (n - 2r)k - n^2 + 2r(n - r)."""
    cells = nonzero = 0
    for n in range(1, 5):
        for r in range(n + 1):
            for g, k, h in partition._table_cells(n, r, 12, -6, 6, True):
                cells += 1
                if not h:
                    continue
                key = (n, r, g, k)
                assert all_nonneg_int(h), key
                assert all(h.c.get((q, p)) == v
                           for (p, q), v in h.c.items()), key
                assert all((p + q) % 2 == 0 for p, q in h.c), key
                assert h.c.get((0, 0)) == 1, key
                d = 2 * g + (n - 2 * r) * k - n * n + 2 * r * (n - r)
                assert palindromic_twist(h) == d, key
                nonzero += 1
    assert (cells, nonzero) == (2366, 1151)


def test_syst_table_rows():
    rows = syst_table(1, 0, 1, 0, 1)
    assert [row["value"] for row in rows] == [
        syst_euler(1, 0, g, k) for g in (0, 1) for k in (0, 1)]
    assert rows[0].keys() == {"n", "r", "g", "k", "value"}
    hodge_rows = syst_table(1, 0, 0, 1, 1, hodge=True)
    assert hodge_rows[0]["value"] == "1"


def test_empty_table_builds_no_hilbert_series(monkeypatch):
    # no G column reaches y^100 below q^45, so F has no cell and S is
    # never needed, in either mode
    def refuse(*args):
        raise AssertionError("a table reached a ring it does not need")

    monkeypatch.setattr(partition, "kron_product", refuse)
    for hodge, zero in ((False, 0), (True, "0")):
        rows = syst_table(3, 1, 45, 100, 100, hodge)
        assert [(row["g"], row["value"]) for row in rows] == \
            [(g, zero) for g in range(46)]
    monkeypatch.undo()
    # the Euler mode runs at t = tb = 1: it never builds the Hilbert
    # grid, and makes no TTPoly
    monkeypatch.setattr(partition, "_hilbert_grid", refuse)
    monkeypatch.setattr(partition, "TTPoly", refuse)
    rows = syst_table(3, 1, 20, -2, 2)
    assert sum(1 for row in rows if row["value"]) == 82


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
        {k: to_tt(u_int(k)) for k in range(1, 5)})


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
    per weight of rank r's own table, not rank 0's shifted, added cell by
    cell, then divided by (u-1)^(2n-1) and ([n-1]!)^2, the q^0 column
    repaired at r = n from the q-Pascal oracle, and every cell divided by
    [n]."""
    cells = {}
    for (i, j), w in rank_c_table(n, r).items():
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

    def perturbed(n):
        table = real(n)
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

    def perturbed(n):
        table = real(n)
        if n == 2:
            table[(1, 0)] = table[(1, 0)] + cube.shift(2)
        return table

    cold_monkeypatch.setattr(partition, "c_table", perturbed)
    for r, qorder in ((0, 8), (1, 8), (2, 8), (2, 1)):
        with pytest.raises(NonExactDivision) as exc:
            g_via_kernels(2, r, qorder, 6)
        assert str(exc.value) == ("kernel-route numerator at q^0 y^1 not "
                                  "divisible by (u-1)^3 ([1]!)^2 [2]")
    # each call failed at its first cell, and the memo kept none of them
    assert partition._kernel_cell.cache_info().currsize == 0


def test_kernel_cells_vanish_off_the_closed_lattice():
    """Rank 0's kernel cell at (a, b) = (p + r, l - r) is None exactly
    where the closed sum has no term, a < n or b < 0; at b = -n, rank n's
    (p, 0) row, the repair cancels the contraction.  The route still
    contracts these points, so it checks that they vanish."""
    points = [(p, 0) for p in range(1, 9)]
    points += [(p, l) for l in range(1, 12)
               for p in range(1, 11 // l + 1) if abs(p - l) <= 8]
    zero = set()
    for n in range(1, 7):
        for r in range(n + 1):
            for p, l in points:
                a, b = p + r, l - r
                cell = partition._kernel_cell(n, a, b)
                assert (cell is None) == (a < n or b < 0), (n, r, p, l)
                if cell is None:
                    zero.add((n, b == -n))
    assert {(n, True) for n in range(1, 7)} <= zero


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


def _closed_cells_by_square_scan(n, r, qorder, ywin):
    """The closed route's raw cells as they were first built: every (p, l)
    of the (qorder + ywin + 1)^2 square from (n - r, r), the points
    outside the window skipped."""
    cells = {}
    hi = qorder + ywin + 1
    for l in range(r, r + hi):
        for p in range(n - r, n - r + hi):
            qe, ye = p * l, p - l
            if qe < qorder and abs(ye) <= ywin:
                cells[qe, ye] = (2 * (r * (n - r) - n * l - ye * r),
                                 partition._closed_cell(n, l - r, p + r))
    return cells


def _series_digest(f):
    return (f"{f.lower} {f.order} " + "".join(
        (" ".join(f"{ye}:{u}" for ye, u in c.c.items()) if c else repr(c))
        + ";" for c in f.coeffs)).encode()


def test_closed_route_visits_only_the_window():
    """The closed route's loop over the window's lattice points gives the
    cells of the square scan, in its order, on 2,800 configurations, and
    the printed series of the tree that scanned the square (sha256 over
    every configuration, in order)."""
    digest = hashlib.sha256()
    for n in range(1, 6):
        for r in range(n + 1):
            for qorder in range(14):
                for ywin in range(10):
                    want = _closed_cells_by_square_scan(n, r, qorder, ywin)
                    got = partition._closed_cells(n, r, qorder, ywin)
                    assert list(got.items()) == list(want.items()), \
                        (n, r, qorder, ywin)
                    f = g_closed(n, r, qorder, ywin)
                    digest.update(f"{n} {r} {qorder} {ywin} ".encode()
                                  + _series_digest(f))
    assert digest.hexdigest() == ("a1b3babc545f86390e194528d1aebeb7"
                                  "f3bda3eaa5049ca6c1a938f210fae7ff")


def test_passing_route_and_duality_runs_build_no_series(cold_monkeypatch):
    """Route and duality checks compare raw cells; a series is built only
    to locate a difference.  So a passing run, from cold caches, still
    passes with every module's ``_from_list`` and ``_cells_to_series``
    and the QSeries constructor made to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a series was built")

    for module in (rings, partition, ucomb, verify):
        for name in ("_from_list", "_cells_to_series"):
            if hasattr(module, name):
                cold_monkeypatch.setattr(module, name, refuse)
    cold_monkeypatch.setattr(QSeries, "__init__", refuse)
    with pytest.raises(AssertionError, match="a series was built"):
        g_closed(1, 0, 2, 1)
    for suite in ("routes", "duality"):
        report = run_suite(suite, n=4, qorder=8, ywin=8)
        assert report["ok"] and len(report["results"]) == 14, suite


def _kernel_lie(key, lie):
    real = partition._kernel_cell
    return "_kernel_cell", lambda *args: (lie(real(*args)) if args == key
                                          else real(*args))


def _closed_lie(key, lie):
    real = partition._closed_cell
    return "_closed_cell", lambda *args: (lie(real(*args)) if args == key
                                          else real(*args))


def _one_more(k):
    """A lie adding 1 to entry k of a (lowest exponent, list) cell."""
    def lie(cell):
        lo, f = cell
        return lo, f[:k] + [f[k] + 1] + f[k + 1:]
    return lie


@pytest.mark.parametrize(
    "patch, suite, rank, location",
    [(lambda: _kernel_lie((3, 4, 1), _one_more(1)), "routes",
      "closed and kernel routes at rank (3, 0)", {"q": 4, "y": 3, "u2": -4}),
     (lambda: _kernel_lie((4, 5, 2), _one_more(-1)), "routes",
      "closed and kernel routes at rank (4, 4)", {"q": 6, "y": -5, "u2": 16}),
     (lambda: _kernel_lie((3, 4, 1), lambda cell: None), "routes",
      "closed and kernel routes at rank (3, 0)", {"q": 4, "y": 3, "u2": -6}),
     (lambda: _closed_lie((3, 1, 5), lambda f: [f[0] + 1] + f[1:]), "routes",
      "closed and kernel routes at rank (3, 0)", {"q": 5, "y": 4, "u2": -6}),
     (lambda: _closed_lie((3, 1, 5), lambda f: [f[0] + 1] + f[1:]),
      "duality", "mirror duality at rank (3, 0)", {"q": 5, "y": 4, "u2": -6}),
     (lambda: _kernel_lie((3, 4, 1), lambda cell: (cell[0], cell[1] + [0])),
      "routes", None, None),
     (lambda: _kernel_lie((3, 4, 1), lambda cell: (cell[0] - 1,
                                                   [0] + cell[1])),
      "routes", None, None),
     (lambda: _closed_lie((3, 1, 5), lambda f: f + [0]), "duality",
      None, None)],
    ids=["kernel-plus-one", "kernel-top-plus-one", "kernel-cell-dropped",
         "closed-plus-one-routes", "closed-plus-one-duality",
         "kernel-zero-on-top", "kernel-zero-below", "closed-zero-on-top"])
def test_route_and_duality_lies_are_located_on_the_series(
        cold_monkeypatch, patch, suite, rank, location):
    """A lie in one cell of the closed or the kernel route fails the run
    with the message and the {q, y, u2} location that comparing the whole
    series gives.  A list padded with a zero differs from the other
    route's as a list, not as a polynomial, and passes: the series
    decide.  (3, 1, 5) is the closed cell of rank (3, 0) at (p, l) =
    (5, 1), whose mirror partner at rank (3, 3) is the cell (3, 2, 4).)"""
    cold_monkeypatch.setattr(partition, *patch())
    report = run_suite(suite, n=4, qorder=8, ywin=8)
    last = report["results"][-1]
    if rank is None:
        assert report["ok"] and len(report["results"]) == 14
        return
    assert not report["ok"]
    assert last["message"] == f"{rank} disagree at {location}"
    assert last["location"] == location


def to_tt_series(f):
    """Embed a u-Laurent-valued q-series into the (t, tb) ring."""
    return f.map_coeffs(
        lambda col: YPoly({e: to_tt(v) for e, v in col.c.items()}))


def test_f_divided_by_s_is_the_matrix_route():
    # F = S * G exactly: the generic series product of S with the matrix
    # route of G, embedded via u = t*tb, is F on q^-1..q^7
    s = s_series(9).map_coeffs(lambda h: TTRing(h.c))
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


def _cut(f, qorder, ywin):
    return f.truncate(qorder).map_coeffs(lambda c: c.restrict(ywin))


def test_smaller_windows_restrict_one_wider_build():
    """S, F, Phi and log Phi built at every second (qorder, ywin) below
    one wider build equal its truncation and restriction.  Each S and F
    build packs its own Hilbert grid at the byte width of its own largest
    cell; cold, each also starts from empty module caches.  Phi and log
    Phi are packed at the byte width of qorder."""
    qmax, ymax = 9, 6
    windows = [(q, y) for q in range(1, qmax + 1, 2)
               for y in range(0, ymax + 1, 2)]
    for warm in (False, True):
        def build(fn, *args):
            if not warm:
                reset_caches()
            return fn(*args)

        reset_caches()
        wide = build(s_series, qmax)
        for q in range(-1, qmax + 1, 2):
            assert build(s_series, q) == wide.truncate(q), (warm, q)
        for n in (1, 2, 3):
            for r in range(n + 1):
                wide = build(f_via_matrices, n, r, qmax, ymax)
                for q, y in windows:
                    assert build(f_via_matrices, n, r, q, y) \
                        == _cut(wide, q, y), (warm, n, r, q, y)
    for n in (1, 2, 3):
        for k, l in ((n, 0), (n, n - 1), (-n, n)):
            for kernel in (phi_product, log_phi_product):
                wide = kernel(k, l, qmax, ymax)
                for q, y in windows:
                    assert kernel(k, l, q, y) == _cut(wide, q, y), \
                        (kernel.__name__, k, l, q, y)


# -- Euler specialization ------------------------------------------------------

def at_u_one(f):
    """g_closed's series with every u set to 1, cells as Fractions."""
    return f.map_coeffs(lambda col: YPoly(
        {e: Fraction(sum(v.c.values())) for e, v in col.c.items()}))


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


def _euler_table_by_closed_sum(n, r, gmax, kmin, kmax):
    """{(g, k): sum_{m<=g} s_{g-m} G_m[k]} at u = 1: s from the sigma
    recurrence, G_m from euler_g_column for m >= 1, and the q^0 column
    written out, C(p, n) y^p at r = 0, C(l, n) y^{-l} at r = n and empty
    between; no G entry or S of the table's own build is read."""
    s = inverse_pochhammer_24(gmax + 1)
    cols = [{}] + [euler_g_column(n, r, m) for m in range(1, gmax + 1)]
    if r == 0:
        cols[0] = {p: comb(p, n) for p in range(n, kmax + 1)}
    elif r == n:
        cols[0] = {-l: comb(l, n) for l in range(n, 1 - kmin)}
    out = {(g, k): 0 for g in range(gmax + 1) for k in range(kmin, kmax + 1)}
    for m, col in enumerate(cols):
        for k, v in col.items():
            if kmin <= k <= kmax:
                for g in range(m, gmax + 1):
                    out[(g, k)] += s[g - m] * v
    return out


_EULER_WINDOWS = [(3, 1, 300, -2, 2), (4, 2, 300, -4, 4), (2, 0, 300, -3, 3),
                  (3, 3, 300, -4, 4), (1, 0, 300, -3, 3)]


def _euler_table(n, r, gmax, kmin, kmax):
    return {(row["g"], row["k"]): row["value"]
            for row in syst_table(n, r, gmax, kmin, kmax)}


def test_euler_table_is_the_closed_sum_at_one(monkeypatch):
    """Every Euler cell is sum_{m<=g} s_{g-m} G_m[k], with both factors
    built apart from the table's code; an Euler S of prod (1 - q^m)^-23
    makes the table differ from that sum."""
    cells = 0
    for window in _EULER_WINDOWS:
        want = _euler_table_by_closed_sum(*window)
        assert _euler_table(*window) == want, window
        cells += len(want)
    assert cells == 1505 + 2709 + 2107 + 2709 + 2107
    monkeypatch.setattr(partition, "_euler_s", lambda top: kron_product(
        [1] + [0] * top, (), ((1, 0),) * 23))
    window = _EULER_WINDOWS[0]
    assert _euler_table(*window) != _euler_table_by_closed_sum(*window)


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
