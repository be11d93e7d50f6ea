"""The v-expansion's integer sums against the Fraction loops they replace.

v_substitute_qmajor and psi_kls_sym sum over Z and build one
Fraction per output entry; so do the all-t routines of the derivatives,
UPoly.derivs_at_one and modular._psi_kls_derivatives, whose t-th entries
are checked here against the per-t loops.  The oracles below are the
term-by-term Fraction loops they replaced, kept here only to be compared
with.  Agreement is required cell by cell in value and in type: the type
of the cell, and of every coefficient inside a UPoly cell.  So a
Fraction(0) cell may not become the int 0, and a Fraction entry may not
become an int.  The key order of a UPoly is not part of the contract
(no comparison or printer reads it); most tests below compare reprs,
which is stricter, and the mixed scalar-and-UPoly test compares sorted
keys, where the integer loop and a sum in the ring order them apart.
"""

from fractions import Fraction
from math import factorial

import pytest

from k3pairs.modular import _psi_kls_derivatives, psi_kls_sym
from k3pairs.partition import euler_g_column
from k3pairs.rings import UPoly, YPoly
from k3pairs.series import QSeries, v_substitute_qmajor
from k3pairs.theta import log_phi_product


# -- the Fraction loops -------------------------------------------------------

def oracle_v_substitute(f, vorder):
    fact = 1
    cols = [[0] * (f.order - f.lower) for _ in range(vorder)]
    for s in range(vorder):
        if s:
            fact *= s
        pref = Fraction(1, fact)
        for idx, e in enumerate(range(f.lower, f.order)):
            c = f.coeff(e)
            if not c:
                continue
            terms = [v * k ** s for k, v in c.c.items() if k or not s]
            if terms:
                cols[s][idx] = sum(terms[1:], terms[0]) * pref
    return QSeries(0, [QSeries(f.lower, col, f.var) for col in cols], "v")


def oracle_deriv_at_one(p, t):
    if t == 0:
        return sum(p.c.values())
    s = 0
    for e2, v in p.c.items():
        if e2 % 2:
            raise ValueError("derivative at u=1 needs integer exponents")
        n = e2 // 2
        ff = 1
        for j in range(t):
            ff *= n - j
        if ff:
            s = s + v * ff
    return s


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def oracle_psi_kls_sym(k, l, s, qorder):
    cols = []
    if s == 0:
        terms = ((k + l, 1), (-(k + l), 1), (l, 1), (-l, 1),
                 (0, -2), (k, -1), (-k, -1))
        for n in range(1, qorder):
            cell = {}
            for r in _divisors(n):
                w = Fraction(1, r)
                for e, c in terms:
                    key = 2 * e * r
                    cell[key] = cell.get(key, 0) + c * w
            cols.append(UPoly(cell))
    else:
        sgn = -1 if s % 2 else 1
        pref = Fraction(1, factorial(s))
        for n in range(1, qorder):
            cell = {}
            for r in _divisors(n):
                w = pref * r ** (s - 1)
                for e, c in (((k + l) * r, 1), (-(k + l) * r, sgn),
                             (l * r, 1), (-l * r, sgn)):
                    cell[2 * e] = cell.get(2 * e, 0) + c * w
            cols.append(UPoly(cell))
    return QSeries(1, cols, "q")


def oracle_binomial(n, k):
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= n - j
    den = 1
    for j in range(2, k + 1):
        den *= j
    q, r = divmod(num, den)
    assert r == 0
    return q


def oracle_psi_kls_derivative(k, l, s, t, qorder):
    cols = []
    if s == 0:
        terms = ((k + l, 1), (-(k + l), 1), (l, 1), (-l, 1),
                 (k, -1), (-k, -1))
        tf = factorial(t)
        for n in range(1, qorder):
            acc = Fraction(0)
            for r in _divisors(n):
                inner = sum(c * oracle_binomial(e * r, t) for e, c in terms)
                if t == 0:
                    inner -= 2
                if inner:
                    acc += Fraction(inner, r)
            cols.append(tf * acc if acc else 0)
    else:
        sgn = -1 if s % 2 else 1
        pref = Fraction(factorial(t), factorial(s))
        for n in range(1, qorder):
            acc = 0
            for r in _divisors(n):
                inner = (oracle_binomial((k + l) * r, t)
                         + sgn * oracle_binomial(-(k + l) * r, t)
                         + oracle_binomial(l * r, t)
                         + sgn * oracle_binomial(-l * r, t))
                if inner:
                    acc += r ** (s - 1) * inner
            cols.append(pref * acc if acc else 0)
    return QSeries(1, cols, "q")


# -- comparison ---------------------------------------------------------------

def _cells(f):
    """(type, repr) of every cell of a q-series or of a v-series of them."""
    if isinstance(f, QSeries):
        return (f.var, f.lower, [_cells(c) for c in f.coeffs])
    return type(f).__name__, repr(f)


def assert_same_v_expansion(f, vorder):
    assert _cells(v_substitute_qmajor(f, vorder)) == \
        _cells(oracle_v_substitute(f, vorder))


def _typed_values(f):
    """The cells of a v-series of q-series as (type, value), a UPoly's
    value as its (u-key, coefficient type, coefficient) triples by key."""
    if isinstance(f, QSeries):
        return (f.var, f.lower, [_typed_values(c) for c in f.coeffs])
    if isinstance(f, UPoly):
        return "UPoly", sorted((e, type(x).__name__, x)
                               for e, x in f.c.items())
    return type(f).__name__, f


# -- v_substitute_qmajor ------------------------------------------------------

@pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2),
                                 (3, 2)])
def test_v_substitute_matches_fraction_loop_on_log_phi(k, l):
    qorder = 9
    assert_same_v_expansion(log_phi_product(k, l, qorder, qorder - 1), 8)


@pytest.mark.parametrize("n,r", [(1, 0), (2, 1), (3, 0)])
def test_v_substitute_matches_fraction_loop_on_euler_columns(n, r):
    ycols = {m: YPoly(euler_g_column(n, r, m)) for m in range(1, 30)}
    assert_same_v_expansion(QSeries.from_dict(ycols, 0, 30), 12)


def test_v_substitute_mixed_denominators_and_zero_sums():
    cells = [
        YPoly({1: Fraction(1, 2), 2: Fraction(-1, 3), -1: 5}),
        YPoly({1: 1, -1: -1}),                  # cancels at every even s
        YPoly({0: 7}),                          # only y^0: int 0 from s = 1
        YPoly({0: Fraction(1, 2), 3: Fraction(2, 3)}),
        0,
        YPoly({1: UPoly({2: 1}), -1: UPoly({2: -1})}),   # empty UPoly
        YPoly({2: UPoly({0: Fraction(1, 2)}),
               -2: UPoly({0: Fraction(1, 3)})}),
    ]
    assert_same_v_expansion(QSeries(-1, cells), 7)
    v = v_substitute_qmajor(QSeries(0, cells[1:3]), 3)
    assert repr(v.coeff(2).coeff(0)) == repr(Fraction(0))
    assert v.coeff(0).coeff(1) == 7 and type(v.coeff(1).coeff(1)) is int


def test_v_substitute_mixed_scalar_and_upoly_entries_keep_values_and_types():
    # a scalar before the first UPoly, and a u-key that cancels and comes
    # back, leave a ring sum's keys in another order than the integer
    # loop's, so the keys are compared sorted
    cells = [
        YPoly({1: 3, 2: UPoly({2: 1, 0: 1}), 3: Fraction(1, 2)}),
        YPoly({1: UPoly({0: 1, 4: 2}), 2: UPoly({0: Fraction(-1, 2)}),
               3: UPoly({0: 1, 6: 1})}),
        YPoly({0: UPoly({2: 1}), 1: 1, -1: 2}),   # u only at y^0
        YPoly({-1: 2, 1: UPoly({0: 2})}),         # cancels to UPoly({})
    ]
    f = QSeries(0, cells)
    got = _typed_values(v_substitute_qmajor(f, 6))
    assert got == _typed_values(oracle_v_substitute(f, 6))
    # the entry at y^0 is the cell's only UPoly: a Fraction from s = 1 on
    assert [col[2][2][0] for col in got[2]] == ["UPoly"] + ["Fraction"] * 5


# -- UPoly.derivs_at_one ------------------------------------------------------

def _same(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


def assert_all_derivatives(p, tmax):
    """derivs_at_one(tmax) against the oracle at every t <= tmax."""
    got = p.derivs_at_one(tmax)
    assert len(got) == tmax + 1
    for t, x in enumerate(got):
        assert _same(x, oracle_deriv_at_one(p, t)), (tmax, t)


@pytest.mark.parametrize("k,l", [(1, 0), (2, 1), (0, 2)])
def test_deriv_at_one_matches_fraction_loop_on_log_phi(k, l):
    v = v_substitute_qmajor(log_phi_product(k, l, 8, 7), 6)
    for s in range(6):
        for cell in v.coeff(s).coeffs:
            if isinstance(cell, UPoly):
                for t in range(5):
                    assert_all_derivatives(cell, t)


@pytest.mark.parametrize("p", [
    UPoly({}), UPoly({0: 3}), UPoly({2: 1, 4: -2, -6: 5}),
    UPoly({2: Fraction(1, 2), 4: Fraction(-1, 3), 0: 4}),
    UPoly({0: Fraction(1, 2), 2: 1}),       # the Fraction sits at ff = 0
    UPoly({2: Fraction(1, 2), -2: Fraction(1, 2), 0: -1}),   # sums to 0
    UPoly({1: 1, 2: 3}),
    UPoly({-4: Fraction(1, 6), 6: 2, 2: Fraction(-3, 4), 0: 1}),
])
def test_deriv_at_one_matches_fraction_loop(p):
    for t in range(5):
        try:
            oracle_deriv_at_one(p, t)
        except ValueError:
            with pytest.raises(ValueError):
                p.derivs_at_one(t)
            continue
        assert_all_derivatives(p, t)


def test_deriv_at_one_refuses_odd_exponents():
    p = UPoly({1: 1, 2: 3})
    for t in range(1, 5):
        with pytest.raises(ValueError, match="integer exponents"):
            p.derivs_at_one(t)
    assert p.derivs_at_one(0) == [4]


# -- the closed forms ---------------------------------------------------------

@pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2),
                                 (3, 2)])
def test_psi_closed_forms_match_fraction_loops(k, l):
    qorder = 13
    for s in range(7):
        assert _cells(psi_kls_sym(k, l, s, qorder)) == \
            _cells(oracle_psi_kls_sym(k, l, s, qorder)), s
        want = [_cells(oracle_psi_kls_derivative(k, l, s, t, qorder))
                for t in range(5)]
        for t in range(5):
            assert [_cells(d) for d in
                    _psi_kls_derivatives(k, l, s, t, qorder)] == \
                want[:t + 1], (s, t)

