from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import k3pairs.ucomb as ucomb
from k3pairs import reset_caches
from k3pairs.errors import InternalNonExactDivision, Mismatch, NotDivisible
from k3pairs.partition import _matrix_cells, g_via_matrices
from k3pairs.rings import UPoly, _from_list, kron_width
from k3pairs.ucomb import _ab_at_x, _b_at_x, _binomial_list, _bounds, \
    _p_at_x, _product_cell, _values_at, _width, c_table, matrix_entry, \
    matrix_product_entry, verify_ab_identity
from k3pairs.verify import run_suite

from ring_helpers import gauss_binomial, kron_eval, max_abs_int, \
    rank_c_table, u_int


def U(d):
    return UPoly(d)


def binomial_poly(n, k):
    """The library's [n choose k] list as a UPoly."""
    return _from_list(0, _binomial_list(n, k), 2)


def test_u_integer():
    # [n] = [n choose 1]
    assert _binomial_list(0, 1) == []
    assert _binomial_list(1, 1) == [1]
    assert _binomial_list(4, 1) == [1, 1, 1, 1]
    for n in range(12):
        assert binomial_poly(n, 1) == u_int(n) \
            == U({2 * j: 1 for j in range(n)}), n


def test_u_binomial_frozen():
    assert _binomial_list(4, 2) == [1, 1, 2, 1, 1]
    assert gauss_binomial(4, 2) == U({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})
    for args in ((4, 2), (3, 1), (5, 0), (5, 5), (6, 3), (7, 2)):
        assert binomial_poly(*args) == gauss_binomial(*args), args
    for args in ((3, 5), (-2, 1), (4, -1)):
        assert _binomial_list(*args) == [], args
        assert gauss_binomial(*args) == UPoly.zero(), args


@given(st.integers(0, 14), st.integers(0, 14))
@settings(max_examples=60)
def test_u_binomial_pascal(n, k):
    lhs = binomial_poly(n + 1, k)
    rhs = gauss_binomial(n, k) \
        + gauss_binomial(n, k - 1).shift(2 * (n + 1 - k))
    assert lhs == rhs


@given(st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=40)
def test_u_binomial_degree_and_positivity(n, k):
    b = _binomial_list(n, k)
    assert binomial_poly(n, k) == gauss_binomial(n, k)
    if k > n:
        assert not b
        return
    assert len(b) == k * (n - k) + 1
    assert all(type(v) is int and v > 0 for v in b)
    assert b == b[::-1]                     # palindromic
    assert sum(b) == comb(n, k)             # counts all of them at u = 1


def test_matrix_entries_frozen():
    assert matrix_entry("B", 0, 2) == -U({0: 1, 2: 1})          # -(1+u)
    assert matrix_entry("B", 0, 0) == UPoly.one()
    assert matrix_entry("P", 0, 2, 1) == U({0: 1, 2: 1})        # 1+u
    assert matrix_entry("A", 0, 2, 1) == U({0: 1, 2: 1})
    assert matrix_entry("A", 1, 1, 0) == UPoly.one()
    assert matrix_entry("P", 3, 3, 0) == UPoly.one()
    assert matrix_entry("P", 3, 5, 0) == UPoly.zero()
    assert matrix_entry("A", 0, 3, 1) == UPoly.zero()           # odd offset
    assert matrix_entry("P", 0, 0, 2) == UPoly.zero()           # [0] factor


def test_matrix_entries_are_laurent_with_int_coeffs():
    for n in (1, 2, 3):
        for i in range(0, 9):
            for j in range(i, 9, 2):
                p = matrix_entry("P", i, j, n)
                assert all(type(v) is int for v in p.c.values())
                b = matrix_entry("B", i, j)
                assert all(type(v) is int for v in b.c.values())


def _oracle_range():
    """(n, i, j) for n <= 6 and 0 <= i <= j <= 30 with j - i even: 1792
    entries, whose widths cross several byte steps."""
    return [(n, i, j) for n in range(7) for i in range(31)
            for j in range(i, 31, 2)]


def test_product_route_matches_closed_form_small():
    cases = _oracle_range()
    assert len(cases) == 1792
    for n, i, j in cases:
        want = matrix_entry("P", i, j, n)
        got = matrix_product_entry(n, i, j)
        assert got == want, (n, i, j)


def test_matrix_route_builds_no_upoly_entry(cold_monkeypatch):
    """The matrix route reads each A(n).B entry back from one integer at
    X: from cold caches, its raw cells fill the entry memo and build no
    UPoly, neither an A or B entry nor the entry itself."""
    def refuse(*args, **kwargs):
        raise AssertionError("a UPoly was built")

    cold_monkeypatch.setattr(UPoly, "__init__", refuse)
    cold_monkeypatch.setattr(UPoly, "_of", refuse)
    cells = _matrix_cells(4, 2, 12, 8)
    cold_monkeypatch.undo()
    assert cells and _product_cell.cache_info().currsize > 0
    assert matrix_entry.cache_info().currsize == 0
    g_via_matrices(4, 2, 12, 8)
    assert matrix_entry.cache_info().currsize == 0


def test_a_negative_n_is_refused_by_name():
    """A(n), P(n) and the A(n).B product refuse n < 0, whatever the
    indices, and name n; n = 0 stays allowed."""
    for build in (lambda i, j: matrix_product_entry(-1, i, j),
                  lambda i, j: matrix_entry("A", i, j, -1),
                  lambda i, j: matrix_entry("P", i, j, -1)):
        for i, j in ((0, 2), (1, 0), (3, 4)):
            with pytest.raises(ValueError, match="n=-1"):
                build(i, j)
    assert matrix_product_entry(0, 1, 3) == matrix_entry("P", 1, 3, 0) == 0


def _some_entry_is_wrong():
    """Some entry of the oracle range is not the closed-form P entry: it
    reads back other coefficients, or its digits overrun the bytes that
    kron_digits was given, which to_bytes refuses (OverflowError)."""
    for n, i, j in _oracle_range():
        try:
            got = matrix_product_entry(n, i, j)
        except OverflowError:
            return
        if got != matrix_entry("P", i, j, n):
            return
    pytest.fail("every entry read back as the closed form")


def _routes_fail_at_the_matrix_route():
    """Rank (1, 0) reads B[1, 3] in its q^2 y^1 cell, the entry
    shifted by q^2's u^-2, so a u^0 added to B[1, 3] is u^-2 there:
    the doubled exponent u2 = -4."""
    report = run_suite("routes", n=3, qorder=8, ywin=6)
    assert not report["ok"]
    last = report["results"][-1]
    assert last["message"].startswith(
        "closed and matrix routes at rank (1, 0) disagree")
    assert last["location"] == {"q": 2, "y": 1, "u2": -4}


def _plus(sign, d):
    """A lie adding sign * X^d to an (e, v) value X^e * v."""
    def lie(value, width):
        e, v = value
        lo, bits = min(e, d), 8 * width
        return lo, (v << bits * (e - lo)) + (sign << bits * (d - lo))
    return lie


def _b_plus(entry, lie):
    """_b_at_x with ``lie`` applied to the value of B[m, j], for
    entry = (m, j)."""
    def patch(real):
        def b_at_x(m, j, width, size):
            value = real(m, j, width, size)
            return lie(value, width) if (m, j) == entry else value
        return b_at_x
    return patch


def _p_plus(entry, lie):
    """_p_at_x with ``lie`` applied to the value of P(n)[i, j], for
    entry = (i, j, n)."""
    def patch(real):
        def p_at_x(n_max, i, j, width, size):
            return [lie(value, width) if (i, j, n) == entry else value
                    for n, value in enumerate(real(n_max, i, j, width,
                                                   size))]
        return p_at_x
    return patch


def _row_plus(big, k, d):
    """_values_at with X^d added to the binomial [big, k](X) at every
    width."""
    def patch(real):
        def values_at(width, size):
            rep, rows = real(width, size)
            row = list(rows[big])
            row[k] += 1 << 8 * width * d
            return rep, rows[:big] + (tuple(row),) + rows[big + 1:]
        return values_at
    return patch


@pytest.mark.parametrize(
    "name, lie, caught",
    [("kron_width", lambda real: lambda bound: max(real(bound) - 1, 1),
      _some_entry_is_wrong),
     ("kron_digits",
      lambda real: lambda v, lo, step, width, slots:
          real(v, lo, step, width, slots - 1),
      _some_entry_is_wrong),
     ("_b_at_x", _b_plus((1, 3), _plus(1, 0)),
      _routes_fail_at_the_matrix_route)],
    ids=["width-one-byte-narrower", "one-slot-fewer", "b-core-plus-one"],
)
def test_matrix_product_entry_catches_lies(cold_monkeypatch, name, lie,
                                           caught):
    """The readout of matrix_product_entry is no wider than it must be:
    one byte narrower (from width 2 up) or one slot fewer, some entry is
    wrong.  A lie in one B core at X fails the matrix route's check."""
    cold_monkeypatch.setattr(ucomb, name, lie(getattr(ucomb, name)))
    caught()


def test_verify_ab_identity_small():
    checked = verify_ab_identity(2, 14)
    assert checked == 3 * sum(1 for i in range(15) for j in range(i, 15, 2))
    assert verify_ab_identity(0, 0) == 1
    reset_caches()
    assert verify_ab_identity(3, 9) == 4 * 30
    assert matrix_entry.cache_info().currsize == 0   # no UPoly built
    assert _binomial_list.cache_info().currsize == 0  # nor any list
    with pytest.raises(ValueError):
        verify_ab_identity(-1, 4)
    with pytest.raises(ValueError):
        verify_ab_identity(1, -1)


def test_b_and_p_entries_name_the_one_that_leaves_a_remainder(
        cold_monkeypatch):
    # [2, 1] + 1 = 2 + u: the B core of (1, 3) is then (2 + u) [3]/[2] and
    # the P(1) core of (1, 3) is (2 + u) [1, 0] [3]/[2]; both numerators
    # (2 + u)(1 - u^3) are 2 at u = -1, a root of 1 - u^2
    real = ucomb._binomial_list

    def perturbed(big, k):
        f = real(big, k)
        return [f[0] + 1] + f[1:] if (big, k) == (2, 1) else f

    cold_monkeypatch.setattr(ucomb, "_binomial_list", perturbed)
    for args, name in ((("B", 1, 3), "B entry (1,3)"),
                       (("P", 1, 3, 1), "P(1) entry (1,3)")):
        with pytest.raises(InternalNonExactDivision) as exc:
            matrix_entry(*args)
        assert str(exc.value) == name
        assert isinstance(exc.value.__cause__, NotDivisible)
    cold_monkeypatch.undo()
    reset_caches()
    assert matrix_entry("B", 1, 3) == -u_int(3)


def test_b_and_p_cores_are_two_nonnegative_products():
    """The identities the width of verify_ab_identity rests on:
    B core = [k+l, l] + u^{k+l} [k+l-1, l-1] and
    P core = [n+l, n] [k+l-1, n-1] + u^{n+l} [n+l-1, l] [k+l-1, n],
    both with nonnegative coefficients only."""
    for k in range(32):
        for l in range(1, 17):
            core = gauss_binomial(k + l, l) \
                + gauss_binomial(k + l - 1, l - 1).shift(2 * (k + l))
            assert all(v > 0 for v in core.c.values()), (k, l)
            core = core.shift(l * (l - 1))
            assert matrix_entry("B", k, k + 2 * l) \
                == (-core if l % 2 else core), (k, l)
            for n in range(1, 7):
                core = gauss_binomial(n + l, n) \
                    * gauss_binomial(k + l - 1, n - 1) \
                    + (gauss_binomial(n + l - 1, l)
                       * gauss_binomial(k + l - 1, n)).shift(2 * (n + l))
                assert all(v > 0 for v in core.c.values()), (n, k, l)
                assert matrix_entry("P", k, k + 2 * l, n) \
                    == core.shift(2 * (l * l + l * (k - n))), (n, k, l)


@pytest.mark.parametrize(
    "name, lie, location",
    [("_p_at_x", _p_plus((1, 3, 1), _plus(1, 0)),
      {"n": 1, "row": 1, "col": 3}),
     ("_p_at_x", _p_plus((2, 4, 1),
                         _plus(-1, max(matrix_entry("P", 2, 4, 1).c) // 2)),
      {"n": 1, "row": 2, "col": 4}),
     ("_values_at", _row_plus(3, 1, 1),
      {"n": 0, "row": 1, "col": 3, "u2": 2}),
     ("_b_at_x", _b_plus((2, 4), _plus(1, 1)),
      {"n": 0, "row": 0, "col": 4, "u2": 2})],
    ids=["p-constant-plus-one", "p-top-minus-one", "a-plus-u", "b-plus-u"],
)
def test_verify_ab_identity_catches_lies(cold_monkeypatch, name, lie,
                                         location):
    """A lie in one evaluated value fails the first cell that reads it.
    The A lie adds u to [3, 1](X), the factor of A(n)[1, 3] =
    [2, n] [3, 1] that A(0)[1, 3] already reads, and the B lie adds u to
    B[2, 4].  The matrix route reads both values too, so the entry it
    reads back differs from the closed form, by u at (0, 1, 3) and by
    A(0)[0, 2] u = u + u^2 at (0, 0, 4): the location adds the lowest
    differing doubled exponent u2 = 2.  The P lies sit in the check's own
    side, whose closed forms agree, so their locations have no u2."""
    cold_monkeypatch.setattr(ucomb, name, lie(getattr(ucomb, name)))
    with pytest.raises(Mismatch) as err:
        verify_ab_identity(1, 4)
    assert err.value.location == location


@pytest.mark.parametrize("n, row, col", [(1, 1, 1), (2, 2, 2)])
def test_verify_ab_identity_catches_a_lie_in_the_q_pascal_step(
        monkeypatch, n, row, col):
    """A q-Pascal step that adds u to its entry n, whenever it reaches n,
    fails the first cell that takes that step: (1, 1) takes one step, and
    (2, 2) is the first cell whose second step reaches n = 2.  The closed
    forms agree, so the location has no u2."""
    import k3pairs.ucomb as uc
    real = uc._q_pascal

    def lying_step(w, bits, top):
        real(w, bits, top)
        if n <= top:
            w[n] += 1 << bits

    monkeypatch.setattr(uc, "_q_pascal", lying_step)
    with pytest.raises(Mismatch) as err:
        uc.verify_ab_identity(2, 4)
    assert err.value.location == {"n": n, "row": row, "col": col}


def test_verify_ab_identity_locates_a_difference_of_the_closed_forms(
        cold_monkeypatch):
    """When the UPoly product route differs too, the location adds the
    lowest differing doubled u-exponent."""
    entry = ("P", 1, 3, 1)
    cold_monkeypatch.setattr(ucomb, "_p_at_x", _p_plus(
        (1, 3, 1), _plus(1, 1))(ucomb._p_at_x))
    real = ucomb.matrix_entry

    def plus_u(kind, i, j, n=None):
        out = real(kind, i, j, n)
        return out + U({2: 1}) if (kind, i, j, n) == entry else out

    cold_monkeypatch.setattr(ucomb, "matrix_entry", plus_u)
    with pytest.raises(Mismatch) as err:
        verify_ab_identity(1, 4)
    assert err.value.location == {"n": 1, "row": 1, "col": 3, "u2": 2}


def test_each_b_core_is_divided_once_per_width_and_column(monkeypatch):
    """verify_ab_identity divides B[m, j] once per distinct (width, m, j)
    of the run: 359 times at (5, 31), where its cells read a B[m, j] with
    m < j 1,360 times."""
    import k3pairs.ucomb as uc
    real, calls = uc._b_at_x, []

    def spy(m, j, width, size):
        calls.append((width, m, j))
        return real(m, j, width, size)

    monkeypatch.setattr(uc, "_b_at_x", spy)
    assert uc.verify_ab_identity(5, 31) == 1632
    reads = [(_width(5, i, j), m, j) for i in range(32)
             for j in range(i, 32, 2) for m in range(i, j, 2)]
    assert len(reads) == 1360
    assert sorted(calls) == sorted(set(reads))
    assert len(calls) == 359


def test_b_and_p_cores_are_the_displayed_quotients():
    """_b_at_x divides by [l'] and _p_at_x by [n], yet every B and P
    core of (6, 41), at its cell's own width, is the quotient of the
    displayed numerator by [m+l'](X) or [n+l](X), with no remainder;
    so is each B value that _ab_at_x leaves in its column's table."""
    n_max, index_max = 6, 41
    size = max(index_max, n_max + index_max // 2)
    cores = 0
    for j in range(index_max + 1):
        bcol: dict = {}
        for i in range(j % 2, j + 1, 2):
            width = _width(n_max, i, j)
            rep, rows = _values_at(width, size)
            l = (j - i) // 2
            _ab_at_x(n_max, i, j, width, size, bcol)
            for m in range(i, j, 2):
                lb = (j - m) // 2
                core, rest = divmod(rep[j] * rows[m + lb][lb], rep[m + lb])
                want = (lb * (lb - 1) // 2, -core if lb % 2 else core)
                assert not rest and bcol[width, m] == want, (m, j, width)
                assert _b_at_x(m, j, width, size) == want, (m, j, width)
                cores += 1
            p = _p_at_x(n_max, i, j, width, size)
            for n in range(1, n_max + 1):
                core, rest = divmod(
                    rep[j] * rows[n + l][n] * rows[i + l - 1][n - 1],
                    rep[n + l]) if n <= i + l else (0, 0)
                assert not rest and p[n] == (l * l + l * (i - n), core), \
                    (n, i, j, width)
                cores += 1
    assert cores == 5852


def _comb_bounds(n_top, i, j):
    """sum_m A(n)[i, m](1) |B[m, j]|(1) + P(n)[i, j](1) for n <= n_top,
    from math.comb term by term."""
    l = (j - i) // 2
    out = []
    for n in range(n_top + 1):
        total = int(l == 0) if n == 0 else 0 if i + l == 0 else \
            comb(n + l, n) * comb(i + l - 1, n - 1) \
            + comb(n + l - 1, l) * comb(i + l - 1, n)
        for t in range(l + 1):
            m, lb = i + 2 * t, l - t
            b_at_1 = comb(m + lb, lb) + (comb(m + lb - 1, lb - 1) if lb else 0)
            total += comb(i + t, n) * comb(m, t) * b_at_1
        out.append(total)
    return out


def test_width_is_kron_width_of_the_comb_bound():
    """_bounds' one pass by C(top, n+1) = C(top, n) (top - n)/(n + 1)
    gives the bounds of math.comb, and so the same width, at every cell
    with n_max <= 7 and j <= 61."""
    cells = 0
    for j in range(62):
        for i in range(j % 2, j + 1, 2):
            want = _comb_bounds(7, i, j)
            for n_max in range(8):
                assert _bounds(n_max, i, j) == want[:n_max + 1], \
                    (n_max, i, j)
                assert _width(n_max, i, j) \
                    == kron_width(max(want[:n_max + 1])), (n_max, i, j)
                cells += 1
    assert cells == 8 * 992


@pytest.mark.parametrize(
    "check, name",
    [(lambda: verify_ab_identity(2, 7), "B entry (1,7)"),
     (lambda: ucomb.matrix_product_entry(0, 1, 7), "B entry (1,7)"),
     (lambda: verify_ab_identity(3, 4), "P(3) entry (2,4)")],
    ids=["b-in-the-check", "b-in-the-matrix-route", "p-in-the-check"],
)
def test_a_numerator_prime_to_the_short_divisor_is_named(cold_monkeypatch,
                                                         check, name):
    """A numerator value at X that [l'](X) or [n](X) does not divide
    raises InternalNonExactDivision naming its entry, from the check and
    from the matrix route, before any comparison.  The lie adds 1 to
    [3, 2](X) = [3](X), which no A factor [m, t](X) of verify_ab_identity
    reads, as 2t <= m; it is read first by B[1, 7]'s numerator [7] [3, 2] and,
    at n >= 3, by P(3)[2, 4]'s [4] [3, 2] [2, 2], and plus one, neither
    is a multiple of [3](X), as [3] is prime to [7] and to [4]."""
    cold_monkeypatch.setattr(ucomb, "_values_at",
                             _row_plus(3, 2, 0)(ucomb._values_at))
    with pytest.raises(InternalNonExactDivision) as exc:
        check()
    assert str(exc.value) == name


def test_values_at_x_match_the_upoly_oracle():
    """Both sides of each cell of verify_ab_identity equal the UPoly
    entries evaluated by kron_eval at the cell's width: the sum of
    _ab_at_x at every n, each B value it leaves in the column's table,
    and the P value of _p_at_x.  The closed-form bound is
    sum_m A(1) |B|(1) + P(1) read off the built entries, the largest
    coefficient of sum_m A |B| + P, built in UPoly, is at most the bound,
    and the bound stays below X/2.  Cells go in the check's column order,
    sharing each column's B table.  The cells of columns 6, 7, 8, 11 and
    12 mix two widths, and the B tables of 6, 11 and 12 do, so a table
    that ignores the width fails here."""
    n_max, index_max = 3, 12
    mixed, mixed_b = set(), set()
    for j in range(index_max + 1):
        bcol: dict = {}
        widths = [_width(n_max, i, j) for i in range(j % 2, j + 1, 2)]
        if len(set(widths)) > 1:
            mixed.add(j)
        if len(set(widths[:-1])) > 1:     # the cells with m < j
            mixed_b.add(j)
        for i in range(j % 2, j + 1, 2):
            width = _width(n_max, i, j)
            bounds = _bounds(n_max, i, j)
            accs = _ab_at_x(n_max, i, j, width, index_max, bcol)
            p = _p_at_x(n_max, i, j, width, index_max)
            for n in range(n_max + 1):
                total = matrix_entry("P", i, j, n)
                ab = UPoly.zero()
                for m in range(i, j + 1, 2):
                    am = matrix_entry("A", i, m, n)
                    bm = matrix_entry("B", m, j)
                    ab += am * bm
                    total += am * UPoly({k: abs(v) for k, v in bm.c.items()})
                assert sum(total.c.values()) == bounds[n], (n, i, j)
                assert max_abs_int(total) <= bounds[n] \
                    < 1 << 8 * width - 1, (n, i, j)
                assert accs[n] == kron_eval(ab.c, 0, 2, width), (n, i, j)
                values = [(("B", m, j), bcol[width, m])
                          for m in range(i, j, 2)]
                for entry, (e, v) in values + [(("P", i, j, n), p[n])]:
                    poly = matrix_entry(*entry)
                    lo = min([e] + [k // 2 for k in poly.c])
                    assert v << 8 * width * (e - lo) \
                        == kron_eval(poly.c, 2 * lo, 2, width), (entry, width)
    assert mixed == {6, 7, 8, 11, 12}
    assert mixed_b == {6, 11, 12}


def _per_n_sums(n_max, i, j, width, size):
    """The sums of _ab_at_x term by term: for each n, sum_t [i+t, n](X)
    [m, t](X) B[m, j](X) over the t with [i+t, n] != 0, reading the
    binomial rows of _values_at and _b_at_x, with one multiply per
    (t, n)."""
    _, rows = _values_at(width, size)
    bits = 8 * width
    out = []
    for n in range(n_max + 1):
        acc = 0
        for t in range(max(n - i, 0), (j - i) // 2 + 1):
            m = i + 2 * t
            e, v = _b_at_x(m, j, width, size) if m < j else (0, 1)
            acc += (rows[i + t][n] * rows[m][t] * v) << bits * e
        out.append(acc)
    return out


@pytest.mark.parametrize("n_max, index_max", [(3, 12), (5, 31)])
def test_horner_sum_matches_the_per_n_sums(n_max, index_max):
    """_ab_at_x equals the per-n sums at every cell, in the check's column
    order with a shared B table; (3, 12) has the mixed-width columns 6,
    7, 8, 11 and 12."""
    size = max(index_max, n_max + index_max // 2)
    cells = 0
    for j in range(index_max + 1):
        bcol: dict = {}
        for i in range(j % 2, j + 1, 2):
            width = _width(n_max, i, j)
            assert _ab_at_x(n_max, i, j, width, size, bcol) \
                == _per_n_sums(n_max, i, j, width, size), (i, j)
            cells += 1
    assert cells * (n_max + 1) == verify_ab_identity(n_max, index_max)


def test_c_table_frozen_levels():
    for r in (0, 1, 2):
        assert rank_c_table(1, r) == {(1, 0): UPoly.one()}
        t2 = rank_c_table(2, r)
        assert t2[(2, 0)] == UPoly.one()
        assert t2[(1, 0)] == -U({2 * (1 - r): 1})                # -u^{1-r}
        assert t2[(1, 1)] == -U({2 * (r - 1): 1})                # -u^{r-1}
        assert (2, 1) not in t2


def test_c_table_shape():
    t = rank_c_table(3, 1)
    for (i, j) in t:
        assert 1 <= i <= 3 and 0 <= j <= 3 - i
    assert t[(3, 0)] == UPoly.one()


def test_c_table_rejects_bad_level():
    for build in (c_table, lambda n: rank_c_table(n, 0)):
        with pytest.raises(ValueError):
            build(0)
    assert rank_c_table(2, 5)                  # any integer r is allowed


def test_c_table_is_rank_zero_and_every_rank_a_shift_of_it():
    """Rank r's table, built with r in its shifts, is rank 0's with the
    (i, j) entry times u^{r(i+2j-n)}, the identity the kernel route reads
    every rank off; r runs past both ends of 0..n."""
    for n in range(1, 9):
        base = c_table(n)
        assert base == rank_c_table(n, 0), n
        for r in range(-2, n + 3):
            want = rank_c_table(n, r)
            assert set(want) == set(base), (n, r)
            for (i, j), w in base.items():
                assert want[i, j].c == w.shift(2 * r * (i + 2 * j - n)).c, \
                    (n, r, i, j)
