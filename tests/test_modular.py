"""Oracles for the Eisenstein layer and the v-expansion pipeline.

Frozen values below come from independent derivations: divisor sums by
brute enumeration, the Bernoulli kernel against a hand-expanded cosine
series, the rank-one and rank-two boundary columns against elementary
exponential cross-multiplication, and the closed forms for the
log-product coefficients against direct substitution y -> exp(iv).

A v^s cell stores the rational c of its value i^s c: the v-series are
series in w = iv, where v^2 = -w^2.  Expected cells are written as those
rationals, with the value alongside where it helps.
"""

import json
import time
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3pairs.errors import Mismatch, NoSolution, UnsupportedRank, \
    ValidationFailure
from k3pairs.modular import (
    EisensteinBasis, _fit_columns, _psi_kls_derivatives, eisenstein_even,
    fit_v_coefficient, logphi_sigma_check, mpt_check, psi_kls_sym,
    sigma_series, v_partition_series, verify_psi_vs_log)
from k3pairs.partition import euler_g_column, g_closed
from k3pairs.rings import UPoly, YPoly
from k3pairs.scalars import i_power_str
from k3pairs.series import QSeries, v_substitute_qmajor
from k3pairs.theta import log_phi_product

from fit_oracle import fit_in_R, solve_exact


def _exp_w(mult: int, vorder: int) -> QSeries:
    """exp(mult * w) = exp(i * mult * v) straight from the exponential
    series, as a series in w = iv."""
    cells = [Fraction(mult ** m, factorial(m)) for m in range(vorder)]
    return QSeries(0, cells, "v")


# ---------------------------------------------------------------------------
# divisor sums and Eisenstein generators

def test_sigma_series_frozen():
    s1 = sigma_series(1, 7)
    assert [s1.coeff(n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]
    assert sigma_series(0, 7).coeff(6) == 4
    assert sigma_series(9, 2).coeff(1) == 1
    with pytest.raises(ValueError):
        sigma_series(-1, 5)


def test_sigma_series_matches_divisor_enumeration():
    for w in range(4):
        ser = sigma_series(w, 31)
        for n in range(1, 31):
            assert ser.coeff(n) == sum(
                d ** w for d in range(1, n + 1) if n % d == 0)


@given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 3))
def test_sigma_multiplicative_on_coprime_parts(m, n, w):
    assume(gcd(m, n) == 1)
    ser = sigma_series(w, m * n + 1)
    assert ser.coeff(m * n) == ser.coeff(m) * ser.coeff(n)


def test_eisenstein_even_frozen_rows():
    e2 = eisenstein_even(2, 5)
    assert [e2.coeff(n) for n in range(5)] == [1, -24, -72, -96, -168]
    e4 = eisenstein_even(4, 4)
    assert [e4.coeff(n) for n in range(4)] == [1, 240, 2160, 6720]
    assert eisenstein_even(6, 2).coeff(1) == -504
    for w in (2, 4, 6, 8, 10, 12):
        assert eisenstein_even(w, 2).coeff(0) == 1


def test_eisenstein_even_rejects_bad_weight():
    for w in (0, -2, 3):
        with pytest.raises(ValueError):
            eisenstein_even(w, 4)


# ---------------------------------------------------------------------------
# closed forms for the log-product coefficients

def test_psi_u1_s0_and_odd_s_vanish():
    for (k, l) in ((0, 0), (1, 0), (2, 1)):
        for s in (0, 1, 3):
            z = _psi_kls_derivatives(k, l, s, 0, 8)[0]
            assert all(z.coeff(n) == 0 for n in range(1, 8)), (k, l, s)


def test_psi_u1_even_s_frozen():
    p2 = _psi_kls_derivatives(1, 0, 2, 0, 5)[0]     # values -2, -6, ...
    assert [p2.coeff(n) for n in range(1, 5)] == [2, 6, 8, 14]
    p4 = _psi_kls_derivatives(2, 1, 4, 0, 4)[0]
    assert [p4.coeff(n) for n in range(1, 4)] == \
        [Fraction(1, 6), Fraction(3, 2), Fraction(14, 3)]
    # the u = 1 shadow forgets (k, l) entirely
    assert _psi_kls_derivatives(3, 2, 2, 0, 6) == \
        _psi_kls_derivatives(0, 0, 2, 0, 6)


def test_psi_sym_hand_columns():
    s2 = psi_kls_sym(1, 0, 2, 3)                    # values i^2 = -1 times
    assert s2.coeff(1) == UPoly({2: Fraction(1, 2), -2: Fraction(1, 2),
                                 0: 1})
    assert s2.coeff(2) == UPoly({4: 1, -4: 1, 2: Fraction(1, 2),
                                 -2: Fraction(1, 2), 0: 3})
    s0 = psi_kls_sym(1, 1, 0, 3)
    assert s0.coeff(1) == UPoly({4: 1, -4: 1, 0: -2})
    assert s0.coeff(2) == UPoly({8: Fraction(1, 2), -8: Fraction(1, 2),
                                 4: 1, -4: 1, 0: -3})


def test_psi_sym_vanishes_for_l_zero_s_zero():
    z = psi_kls_sym(4, 0, 0, 7)
    assert all(not z.coeff(n) for n in range(1, 7))


def test_psi_derivative_hand_values():
    # d^2/du^2 of u^2 + u^-2 - 2 at u = 1 is 8, and the q^n cell scales
    # like 8 sigma_1(n)
    d = _psi_kls_derivatives(1, 1, 0, 2, 5)[2]
    assert [d.coeff(n) for n in range(1, 5)] == [8, 24, 32, 56]
    z = _psi_kls_derivatives(1, 0, 2, 1, 6)[1]
    assert all(z.coeff(n) == 0 for n in range(1, 6))


@pytest.mark.parametrize("k,l", [(1, 0), (1, 1), (2, 1), (0, 2)])
def test_psi_derivative_matches_symbolic_columns(k, l):
    qorder = 6
    for s in range(5):
        sym = psi_kls_sym(k, l, s, qorder)
        closed = _psi_kls_derivatives(k, l, s, 3, qorder)
        for t in range(4):
            for n in range(1, qorder):
                cell = sym.coeff(n)
                want = cell.derivs_at_one(3)[t] if isinstance(cell, UPoly) \
                    else (cell if t == 0 else 0)
                assert closed[t].coeff(n) == want, (s, t, n)


def test_verify_psi_vs_log_small_grid():
    rep = verify_psi_vs_log(1, 0, 8, 6)
    assert rep["ok"] and rep["checks"] == 6 * 5
    # (0, 0) exercises the scalar-cell path: no u survives anywhere
    assert verify_psi_vs_log(0, 0, 6, 5)["ok"]
    assert verify_psi_vs_log(2, 1, 6, 5, tmax=2)["ok"]


def test_verify_psi_vs_log_reports_location(monkeypatch):
    import k3pairs.modular as modular
    real = modular.psi_kls_sym

    def lying(k, l, s, qorder):
        out = real(k, l, s, qorder)
        if s == 2:
            bump = QSeries(1, [UPoly.one()] + [0] * (qorder - 2), "q")
            out = out + bump
        return out

    monkeypatch.setattr(modular, "psi_kls_sym", lying)
    with pytest.raises(Mismatch) as e:
        modular.verify_psi_vs_log(1, 0, 5, 4)
    assert e.value.location == {"v": 2, "q": 1, "u2": 0}
    monkeypatch.setattr(modular, "psi_kls_sym", real)

    # a closed first u-derivative one too large at v^2 q^3
    real_ders = modular._psi_kls_derivatives

    def lying_ders(k, l, s, tmax, qorder):
        out = real_ders(k, l, s, tmax, qorder)
        if s == 2:
            out[1] = out[1] + QSeries.from_dict({3: 1}, 1, qorder)
        return out

    monkeypatch.setattr(modular, "_psi_kls_derivatives", lying_ders)
    with pytest.raises(Mismatch) as e:
        modular.verify_psi_vs_log(2, 1, 10, 7, 3)
    assert e.value.location == {"v": 2, "du": 1, "q": 3}


def test_log_product_checks_refuse_a_q_order_that_compares_nothing(
        monkeypatch):
    """Closed forms that lie at every q >= 1 pass a q^0-only comparison,
    so below qorder 2 both log-product checks refuse to run."""
    import k3pairs.modular as modular

    def lie(series):
        return series + QSeries(1, [1] * (series.order - 1), "q")

    real_sym, real_der, real_sigma = (modular.psi_kls_sym,
                                      modular._psi_kls_derivatives,
                                      modular.sigma_series)
    monkeypatch.setattr(modular, "psi_kls_sym",
                        lambda *a: lie(real_sym(*a)))
    monkeypatch.setattr(modular, "_psi_kls_derivatives",
                        lambda *a: [lie(d) for d in real_der(*a)])
    monkeypatch.setattr(modular, "sigma_series",
                        lambda *a: lie(real_sigma(*a)))
    for qorder in (0, 1):
        with pytest.raises(ValueError, match="qorder"):
            modular.verify_psi_vs_log(1, 0, qorder, 6, 2)
        with pytest.raises(ValueError, match="qorder"):
            modular.logphi_sigma_check(qorder, 8)
    with pytest.raises(Mismatch) as e:
        modular.verify_psi_vs_log(1, 0, 2, 6, 2)
    assert e.value.location["q"] == 1
    with pytest.raises(Mismatch) as e:
        modular.logphi_sigma_check(2, 8)
    assert e.value.location["q"] == 1


def test_modular_checks_refuse_a_v_order_that_compares_nothing():
    for vorder in (0, -1):
        for check in (lambda: mpt_check(5, vorder),
                      lambda: logphi_sigma_check(5, vorder),
                      lambda: verify_psi_vs_log(1, 0, 5, vorder)):
            with pytest.raises(ValueError, match="vorder"):
                check()
    assert mpt_check(5, 1)["ok"] and logphi_sigma_check(5, 1)["ok"]
    assert verify_psi_vs_log(1, 0, 5, 1)["checks"] == 5


# ---------------------------------------------------------------------------
# the v-expansion pipeline

def test_v_partition_rank_one_q0_column():
    # v^2 y / (1 - y)^2 at y = e^{iv} is -1 - v^2/12 - v^4/240 - ...
    f = v_partition_series(1, 0, 3, 6)
    got = [f.coeff(s).coeff(0) for s in range(6)]
    assert got == [-1, 0, Fraction(1, 12), 0, Fraction(-1, 240), 0]


def test_v_partition_rank_two_boundary_q0_columns():
    f0 = v_partition_series(2, 0, 3, 4)
    got = [f0.coeff(s).coeff(0) for s in range(-1, 4)]
    assert got == [1, Fraction(1, 2), 0, Fraction(-1, 24), Fraction(-1, 240)]
    assert [i_power_str(s, c) for s, c in enumerate(got, -1)] == \
        ["-i", "1/2", "0", "1/24", "1/240i"]
    f2 = v_partition_series(2, 2, 3, 4)
    got = [f2.coeff(s).coeff(0) for s in range(-1, 4)]
    assert got == [-1, Fraction(1, 2), 0, Fraction(-1, 24), Fraction(1, 240)]
    assert [i_power_str(s, c) for s, c in enumerate(got, -1)] == \
        ["i", "1/2", "0", "1/24", "-1/240i"]


def test_v_partition_q0_satisfies_cross_multiplied_form():
    # (q^0 column of v^2 g) * (1 - e^{iv})^{n+1} == v^2 e^{inv}: only
    # elementary exponential series on the right, no Bernoulli numbers.
    # In w = iv the right-hand side is -w^2 e^{nw}.
    vorder = 9
    for n in range(1, 5):
        w = v_partition_series(n, 0, 1, vorder)
        col = QSeries(w.lower, [w.coeff(s).coeff(0)
                                for s in range(w.lower, vorder)], "v")
        cross = QSeries.one(vorder, "v") - _exp_w(1, vorder)
        assert (col * cross ** (n + 1)).first_mismatch(
            -_exp_w(n, vorder).shift(2)) is None, n


def test_v_partition_interior_rank_has_no_q0_column():
    for (n, r) in ((2, 1), (3, 1), (3, 2)):
        f = v_partition_series(n, r, 3, 5)
        assert all(f.coeff(s).coeff(0) == 0 for s in range(f.lower, 5))


def test_v_partition_rank_two_q2_cells():
    # euler column at q^2 for (2, 0) is the single cell 3y: the values
    # 3 v^2 e^{iv} = 3 v^2 + 3i v^3 - 3/2 v^4 are stored over i^s
    f = v_partition_series(2, 0, 3, 5)
    got = [f.coeff(s).coeff(2) for s in range(-1, 5)]
    assert got == [0, 0, 0, -3, -3, Fraction(-3, 2)]


@pytest.mark.parametrize("n,r", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_v_partition_columns_match_direct_substitution(n, r):
    qorder, vorder = 6, 7
    f = v_partition_series(n, r, qorder, vorder)
    # the direct route: g_closed at u = 1, not the euler_g_column cells
    # that v_partition_series reads
    euler = g_closed(n, r, qorder, qorder).map_coeffs(lambda col: YPoly(
        {e: Fraction(sum(v.c.values())) for e, v in col.c.items()}))
    sub = v_substitute_qmajor(euler, vorder - 2)
    for s in range(f.lower, vorder):
        col = f.coeff(s)
        for m in range(1, qorder):
            # v^2 = -w^2 negates the stored cells of the substitution
            want = -sub.coeff(s - 2).coeff(m) if s >= 2 else 0
            assert col.coeff(m) == want, (s, m)


def test_v_partition_validates_input():
    with pytest.raises(UnsupportedRank):
        v_partition_series(2, 3, 4, 4)
    with pytest.raises(ValueError):
        v_partition_series(1, 0, 0, 4)


def test_rank_two_interior_odd_v_powers_vanish():
    f = v_partition_series(2, 1, 8, 6)
    for s in (1, 3, 5):
        col = f.coeff(s)
        assert all(col.coeff(m) == 0 for m in range(8)), s


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 4)
                                 for r in range(n + 1)])
def test_v_expansion_even_and_real_low_rank(n, r):
    # G^r_n(q, y) = G^{n-r}_n(q, 1/y) turns v -> -v into r -> n - r, so the
    # v^s cell at (n, r) is (-1)^s times the one at (n, n - r).  The series
    # is even only where the rank is its own mirror (r = n/2) or where the
    # Euler weight is symmetric anyway (n = 1); elsewhere its odd cells
    # survive, and rational y-coefficients put each v^s cell in i^s Q.
    f = v_partition_series(n, r, 5, 6)
    odd = [(s, m) for s in range(f.lower, f.order) if s % 2
           for m in range(5) if f.coeff(s).coeff(m)]
    if n == 1 or 2 * r == n:
        assert odd == []
        return
    assert odd
    for s, m in odd:
        assert type(f.coeff(s).coeff(m)) is Fraction, (s, m)
    mirror = v_partition_series(n, n - r, 5, 6)
    for s in range(f.lower, f.order):
        for m in range(5):
            cell, dual = f.coeff(s).coeff(m), mirror.coeff(s).coeff(m)
            assert cell == (-dual if s % 2 else dual), (s, m)


# ---------------------------------------------------------------------------
# the two product-side consistency checks

def test_mpt_check_passes_and_v2_column():
    assert mpt_check(8, 6)["ok"]
    lhs = -v_partition_series(1, 0, 8, 4)            # value E2/12 at v^2
    assert lhs.coeff(2) == eisenstein_even(2, 8) * Fraction(-1, 12)


def test_logphi_sigma_check_and_v2_column():
    assert logphi_sigma_check(8, 7)["ok"]
    direct = v_substitute_qmajor(log_phi_product(0, 0, 6, 5), 5)
    col = direct.coeff(2)                            # values -2, -6, ...
    assert [col.coeff(n) for n in range(1, 6)] == [2, 6, 8, 14, 12]
    assert all(not direct.coeff(s).coeff(0) for s in range(5))
    for s in (1, 3):
        assert all(direct.coeff(s).coeff(n) == 0 for n in range(6))


# ---------------------------------------------------------------------------
# the Eisenstein monomial basis and the exact fitter

def test_basis_enumeration_and_names():
    b = EisensteinBasis(6, 8)
    names = [nm for nm, _, _ in b.elements]
    assert names == ["1", "E2", "E2^2", "E4", "E2*E4", "E2^3", "E6"]
    assert len(b) == 7
    weights = {nm: w for nm, w, _ in b.elements}
    assert weights["E2*E4"] == 6 and weights["E2^2"] == 4
    assert len(EisensteinBasis(0, 4).elements) == 1
    # the fitter's real size: the quasimodular monomials of weight <= 12
    qorder = 31
    gens = {f"E{w}": eisenstein_even(w, qorder) for w in (2, 4, 6)}
    big = EisensteinBasis(12, qorder)
    assert len(big) == 23
    assert len({nm for nm, _, _ in big.elements}) == 23
    for nm, weight, ser in big.elements:
        want = QSeries.one(qorder, "q")
        total = 0
        for part in nm.split("*") if nm != "1" else ():
            gen, _, e = part.partition("^")
            want = want * gens[gen] ** int(e or 1)
            total += int(gen[1:]) * int(e or 1)
        assert total == weight, nm
        assert ser == want, nm


def test_fit_writes_higher_eisenstein_in_e4_and_e6():
    e8, e10, e12 = (eisenstein_even(w, 41) for w in (8, 10, 12))
    assert fit_in_R(e8, 8, 30, 40)["combination"] == [("E4^2", 1)]
    assert fit_in_R(e10, 10, 30, 40)["combination"] == [("E4*E6", 1)]
    assert fit_in_R(e12, 12, 30, 40)["combination"] == [
        ("E4^3", Fraction(441, 691)), ("E6^2", Fraction(250, 691))]


def test_solve_exact_pivots_every_weight_12_column():
    # 23 columns over q^0 .. q^30; a target using each column with a
    # distinct nonzero coefficient comes back whole only if no
    # coordinate is free, that is if all 23 columns are pivots
    cols = [ser.coeffs for _, _, ser in EisensteinBasis(12, 31).elements]
    x = list(range(1, len(cols) + 1))
    rows = [[c[m] for c in cols] + [sum(xi * c[m] for xi, c in zip(x, cols))]
            for m in range(31)]
    assert solve_exact(rows, len(cols)) == x


def test_fit_recovers_a_pure_monomial():
    target = eisenstein_even(2, 13) * eisenstein_even(2, 13)
    rep = fit_in_R(target, 4, 8, 12)
    assert rep["combination"] == [("E2^2", 1)]
    assert rep["validated_to_qorder"] == 12


def test_fit_in_a_wider_basis_takes_its_prefix():
    # the monomials of weight <= 4 open the weight-8 basis, in its order
    wide, narrow = EisensteinBasis(8, 13).elements, \
        EisensteinBasis(4, 13).elements
    assert wide[:len(narrow)] == narrow and wide[len(narrow)][1] > 4
    mixed = eisenstein_even(4, 13) * Fraction(1, 3) + \
        eisenstein_even(2, 13) ** 2
    assert fit_in_R(mixed, 4, 8, 12)["combination"] == \
        fit_in_R(mixed, 8, 10, 12)["combination"]
    # E2^2 E4 is in the weight-8 basis but past the bound 4
    with pytest.raises(NoSolution):
        fit_in_R(mixed * eisenstein_even(4, 13), 4, 8, 12)
    # one fit command checks every column in the basis of its widest one;
    # each column's report is the one it gets in its own, narrower basis
    reports = list(_fit_columns(3, 0, list(range(7)), 30, 12))
    assert reports == [fit_v_coefficient(3, 0, s) for s in range(7)]


def test_fit_command_builds_one_basis(monkeypatch, capsys):
    import k3pairs.modular as modular
    from k3pairs.cli import main
    sizes = []
    init = modular.EisensteinBasis.__init__

    def recording_init(basis, *args):
        init(basis, *args)
        sizes.append(len(basis))

    monkeypatch.setattr(modular.EisensteinBasis, "__init__", recording_init)
    # one basis, at the top weight of the widest column: 8 at (2, 1)
    assert main(["fit", "--n", "2", "--r", "1", "--vmax", "6"]) == 0
    assert sizes == [11]
    # (3, 0) reaches weight 10 at s = 6
    sizes.clear()
    assert main(["fit", "--n", "3", "--r", "0", "--vmax", "6"]) == 0
    assert sizes == [16]
    # a single column builds the basis of its own top weight, 6
    sizes.clear()
    fit_v_coefficient(3, 0, 2)
    assert sizes == [7]
    capsys.readouterr()


def test_fit_rank_one_v_coefficients():
    rep0 = fit_v_coefficient(1, 0, 0, test_qorder=10)
    assert rep0["combination"] == [{"monomial": "1", "coeff": "-1"}]
    rep2 = fit_v_coefficient(1, 0, 2, test_qorder=10)
    assert rep2["combination"] == [{"monomial": "E2", "coeff": "-1/12"}]
    rep4 = fit_v_coefficient(1, 0, 4, test_qorder=12)
    assert rep4["combination"] == [
        {"monomial": "E2^2", "coeff": "-1/288"},
        {"monomial": "E4", "coeff": "-1/1440"}]


def test_fit_solution_reevaluates_to_target():
    # a v-coefficient of the counting series, then a sum of two monomials
    mixed = eisenstein_even(4, 13) * Fraction(1, 3) + \
        eisenstein_even(2, 13) ** 2
    basis = {nm: s for nm, _, s in EisensteinBasis(4, 13).elements}
    for target in (v_partition_series(2, 1, 13, 3).coeff(2), mixed):
        rep = fit_in_R(target, 4, 8, 12)
        acc = QSeries.zero(13, "q")
        for nm, c in rep["combination"]:
            acc = acc + basis[nm] * c
        acc.assert_agrees(target, what="refit and target")
    assert rep["combination"] == [("E2^2", 1), ("E4", Fraction(1, 3))]


def test_fit_no_solution_and_validation_failure():
    with pytest.raises(NoSolution):
        fit_in_R(sigma_series(3, 13), 2, 7, 12)
    # E2 fits at weight 2, E2 plus a weight-4 divisor sum does not
    with pytest.raises(NoSolution):
        fit_in_R(eisenstein_even(2, 13) + sigma_series(3, 13), 2, 7, 12)
    bump = QSeries(0, [0] * 9 + [1] + [0] * 3, "q")
    with pytest.raises(ValidationFailure):
        fit_in_R(eisenstein_even(2, 13) + bump, 2, 8, 12)


def test_fit_weight_ceiling_exhaustion():
    with pytest.raises(NoSolution):
        fit_v_coefficient(1, 0, 2, test_qorder=10, weight_ceiling=0)


@pytest.mark.parametrize("r,s", [(0, 2), (1, 3)])
def test_fit_widens_past_the_expected_weight(r, s):
    # the v^2 column at (3, 0) and the v^3 column at (3, 1) need weight 6,
    # past s + 2: the elimination finds nothing from s + 2 up to 5, and at
    # 6 it finds the reported polynomial
    rep = fit_v_coefficient(3, r, s)
    assert rep["weight_bound"] == 6
    target = v_partition_series(3, r, 31, s + 1).coeff(s)
    for bound in range(s + 2, 6):
        with pytest.raises(NoSolution):
            fit_in_R(target, bound, 20, 30)
    oracle = fit_in_R(target, 6, 20, 30)["combination"]
    assert rep["combination"] == [{"monomial": nm, "coeff": i_power_str(s, c)}
                                  for nm, c in oracle]
    if s == 2:
        assert [c["monomial"] for c in rep["combination"]] == [
            "E2", "E2^2", "E4", "E2*E4", "E2^3", "E6"]


def test_fit_widening_stops_at_the_ceiling():
    with pytest.raises(NoSolution):
        fit_v_coefficient(3, 0, 2, weight_ceiling=5)


def test_fit_below_the_polar_depth_names_it():
    for n, r, s in ((2, 1, -2), (1, 0, -1), (2, 1, -3)):
        with pytest.raises(ValueError, match="s >= 1 - n"):
            fit_v_coefficient(n, r, s)
    # s = 1 - n is the polar column itself: a valid, zero column
    rep = fit_v_coefficient(2, 1, -1)
    assert (rep["s"], rep["combination"]) == (-1, [])
    # at n = 4 the polar column s = -3 is a constant, and s + 2 < 0
    polar = {0: [{"monomial": "1", "coeff": "i"}],
             4: [{"monomial": "1", "coeff": "-i"}]}
    for r in range(5):
        rep = fit_v_coefficient(4, r, -3)
        assert (rep["weight_bound"], rep["combination"]) == \
            (0, polar.get(r, [])), r


def test_fit_report_is_json_ready():
    rep = fit_v_coefficient(2, 1, 2, test_qorder=12)
    assert set(rep) == {"n", "r", "s", "weight_bound", "combination",
                        "validated_to_qorder"}
    json.dumps(rep)
    assert rep["validated_to_qorder"] == 12
    assert all(set(item) == {"monomial", "coeff"}
               for item in rep["combination"])


def _weight_of(name: str) -> int:
    """The weight of a monomial named like "E2^2*E4"."""
    total = 0
    for part in name.split("*") if name != "1" else ():
        gen, _, e = part.partition("^")
        total += int(gen[1:]) * int(e or 1)
    return total


def test_the_elimination_fits_every_closed_column():
    """The elimination, on a window of twice as many rows as the basis has
    monomials, finds each closed column with n <= 3 and 0 <= s <= 8, and
    its answer is unique: every monomial of the window is a pivot."""
    full_rank = set()
    for n in range(1, 4):
        for r in range(n + 1):
            ss = list(range(9))
            series = v_partition_series(n, r, 2 * 23 + 11, 9)
            for rep in _fit_columns(n, r, ss, 30, 12):
                s = rep["s"]
                bound = max((_weight_of(c["monomial"])
                             for c in rep["combination"]), default=0)
                cols = [ser.coeffs for _, _, ser in
                        EisensteinBasis(bound, 2 * 23 + 11).elements]
                window = 2 * len(cols)
                if bound not in full_rank:
                    x = list(range(1, len(cols) + 1))
                    rows = [[c[m] for c in cols]
                            + [sum(xi * c[m] for xi, c in zip(x, cols))]
                            for m in range(window)]
                    assert solve_exact(rows, len(cols)) == x, bound
                    full_rank.add(bound)
                oracle = fit_in_R(series.coeff(s), bound, window - 1,
                                  window + 9)
                assert rep["combination"] == [
                    {"monomial": nm, "coeff": i_power_str(s, c)}
                    for nm, c in oracle["combination"]], (n, r, s)


def test_closed_columns_have_the_derived_top_weights():
    """Every column with n <= 5 and 2 <= s <= 8 agrees with the series
    through q^30, has top weight s + 2n - 2 at even s and s + 2n - 3 at
    odd s, and vanishes at odd s exactly at n = 1 and at 2r = n.  The
    n = 5 columns reach weight 16, the ceiling, and the largest
    denominators of the expansion."""
    t0 = time.monotonic()
    for n in range(1, 6):
        for r in range(n + 1):
            for rep in _fit_columns(n, r, list(range(2, 9)), 30, 16):
                s = rep["s"]
                assert rep["validated_to_qorder"] == 30
                if s % 2 and (n == 1 or 2 * r == n):
                    assert rep["combination"] == [], (n, r, s)
                    continue
                top = max(_weight_of(c["monomial"])
                          for c in rep["combination"])
                assert top == s + 2 * n - 2 - s % 2, (n, r, s)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s over the 60s budget"


# ---------------------------------------------------------------------------
# the elimination over Z against Gauss-Jordan over Q

def _solve_over_q(rows: list, k: int):
    """Gauss-Jordan over Q on augmented k+1-column rows: pivots in column
    order from the first nonzero row below, free coordinates pinned to
    zero, None if inconsistent."""
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    rr = 0
    for col in range(k):
        p = next((i for i in range(rr, m) if rows[i][col]), None)
        if p is None:
            continue
        rows[rr], rows[p] = rows[p], rows[rr]
        inv = 1 / rows[rr][col]
        rows[rr] = [v * inv for v in rows[rr]]
        for i in range(m):
            if i != rr and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rr])]
        pivots.append(col)
        rr += 1
        if rr == m:
            break
    if any(rows[i][k] for i in range(rr, m)):
        return None
    x = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        x[col] = rows[i][k]
    return x


_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _rational_systems(draw):
    """A rational matrix of at most 6 x 6 with zero and duplicated (scaled)
    columns, and a right-hand side that is consistent or drawn at
    random."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6))
    cols = []
    for _ in range(k):
        kind = draw(st.sampled_from(("fresh", "zero", "copy")))
        if kind == "zero":
            cols.append([Fraction(0)] * m)
        elif kind == "copy" and cols:
            scale = draw(_SMALL.filter(bool))
            cols.append([scale * c for c in draw(st.sampled_from(cols))])
        else:
            cols.append(draw(st.lists(_SMALL, min_size=m, max_size=m)))
    a = [[col[i] for col in cols] for i in range(m)]
    if draw(st.booleans()):
        x = draw(st.lists(_SMALL, min_size=k, max_size=k))
        b = [sum(c * xi for c, xi in zip(row, x)) for row in a]
    else:
        b = draw(st.lists(_SMALL, min_size=m, max_size=m))
    return a, b


@settings(max_examples=80)
@given(_rational_systems())
def test_solve_exact_matches_gauss_jordan_over_q(system):
    a, b = system
    k = len(a[0])
    rows = [row + [bi] for row, bi in zip(a, b)]
    got = solve_exact(rows, k)
    want = _solve_over_q(rows, k)
    assert (got is None) == (want is None)
    if want is not None:
        assert got == want
        assert all(type(v) is Fraction for v in got)


# ---------------------------------------------------------------------------
# the i^s rule against a direct complex sum

def _pmul(a, b):
    """Product of two (re, im) pairs of Fractions."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ppow(z, e: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = _pmul(out, z)
    return out


@pytest.mark.parametrize("n,r", [(2, 0), (3, 1)])
def test_v_cells_match_a_direct_complex_sum(n, r):
    """At q^m >= 1 the v^s cell of v^2 G(n, r) is the v^{s-2} coefficient
    of sum_k c_k e^{ikv}, that is sum_k c_k (ik)^{s-2} / (s-2)!, with c_k
    the Euler column.  Summed here in (re, im) pairs, it is i^s times the
    stored rational, and purely imaginary at odd s."""
    vorder = 8
    f = v_partition_series(n, r, 4, vorder)
    i_pow = {s: _ppow((0, 1) if s >= 0 else (0, -1), abs(s))
             for s in range(f.lower, vorder)}
    nonzero_odd = 0
    for m in range(1, 4):
        column = euler_g_column(n, r, m)
        for s in range(f.lower, vorder):
            want = (Fraction(0), Fraction(0))
            if s >= 2:
                for k, c in column.items():
                    t = _ppow((0, k), s - 2)
                    want = (want[0] + c * t[0] / factorial(s - 2),
                            want[1] + c * t[1] / factorial(s - 2))
            stored = f.coeff(s).coeff(m)
            assert _pmul(i_pow[s], (Fraction(stored), 0)) == want, (s, m)
            if s % 2:
                assert want[0] == 0, (s, m)
                nonzero_odd += bool(want[1])
    assert nonzero_odd
