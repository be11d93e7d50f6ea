import pytest
from hypothesis import given, settings, strategies as st

import k3pairs.ucomb as ucomb
from k3pairs import reset_caches
from k3pairs.errors import InternalNonExactDivision, Mismatch, NotDivisible
from k3pairs.rings import UPoly, _from_list
from k3pairs.scalars import binomial
from k3pairs.ucomb import _ab_at_x, _binomial_list, _bounds, _cell_at_x, \
    _q_pascal, _values_at, _width, c_table, matrix_entry, \
    matrix_product_entry, verify_ab_identity

from ring_helpers import gauss_binomial, kron_eval, max_abs_int, u_int


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
    assert sum(b) == binomial(n, k)         # counts all of them at u = 1


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


def test_product_route_matches_closed_form_small():
    for n in (0, 1, 2, 3):
        for i in range(0, 10):
            for j in range(i, 10, 2):
                want = matrix_entry("P", i, j, n)
                got = matrix_product_entry(n, i, j)
                assert got == want, (n, i, j)


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


def _map_cell(real, fn):
    """The per-cell evaluator ``real`` with fn(entry, value, width) applied
    to each value it returns: entry is ("A", i, m) for the factor
    g = [m, t](X) that A(n)[i, m] = [i+t, n](X) g has at every n, with
    t = (m - i)/2, and (kind, i, j, n) as matrix_entry takes it for the
    (e, v) of B and P."""
    def cell(n_max, i, j, width, size, bcol):
        a, b, p = real(n_max, i, j, width, size, bcol)
        ms = range(i, j + 1, 2)
        return ([fn(("A", i, m), v, width) for m, v in zip(ms, a)],
                [fn(("B", m, j, None), v, width) for m, v in zip(ms, b)],
                [fn(("P", i, j, n), v, width) for n, v in enumerate(p)])
    return cell


def _plus(sign, d):
    """A lie adding sign * X^d to an (e, v) value X^e * v."""
    def lie(value, width):
        e, v = value
        lo, bits = min(e, d), 8 * width
        return lo, (v << bits * (e - lo)) + (sign << bits * (d - lo))
    return lie


def _g_plus(sign, d):
    """A lie adding sign * X^d to the factor g = [m, t](X) of A(n)[i, m],
    and so to A(n)[i, m] at every n."""
    def lie(g, width):
        return g + (sign << 8 * width * d)
    return lie


@pytest.mark.parametrize(
    "lie, entry, n, row, col",
    [(_plus(1, 0), ("P", 1, 3, 1), 1, 1, 3),
     (_plus(-1, max(matrix_entry("P", 2, 4, 1).c) // 2), ("P", 2, 4, 1),
      1, 2, 4),
     (_g_plus(1, 1), ("A", 1, 3), 0, 1, 3),
     (_plus(1, 1), ("B", 2, 4, None), 0, 0, 4)],
    ids=["p-constant-plus-one", "p-top-minus-one", "a-plus-u", "b-plus-u"],
)
def test_verify_ab_identity_catches_lies(monkeypatch, lie, entry, n, row,
                                         col):
    """A lie in one evaluated entry fails the first cell that reads it;
    the A lie adds u to the factor g = [3, 1] of A(n)[1, 3], which
    A(0)[1, 3] = g already reads.  The closed forms themselves agree, so
    the location has no u2."""
    import k3pairs.ucomb as uc
    monkeypatch.setattr(uc, "_cell_at_x", _map_cell(
        uc._cell_at_x,
        lambda key, v, width: lie(v, width) if key == entry else v))
    with pytest.raises(Mismatch) as err:
        uc.verify_ab_identity(1, 4)
    assert err.value.location == {"n": n, "row": row, "col": col}


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
    import k3pairs.ucomb as uc
    entry = ("P", 1, 3, 1)
    cold_monkeypatch.setattr(uc, "_cell_at_x", _map_cell(
        uc._cell_at_x,
        lambda key, v, width: _plus(1, 1)(v, width) if key == entry else v))
    real = uc.matrix_entry

    def plus_u(kind, i, j, n=None):
        out = real(kind, i, j, n)
        return out + U({2: 1}) if (kind, i, j, n) == entry else out

    cold_monkeypatch.setattr(uc, "matrix_entry", plus_u)
    with pytest.raises(Mismatch) as err:
        uc.verify_ab_identity(1, 4)
    assert err.value.location == {"n": 1, "row": 1, "col": 3, "u2": 2}


def test_verify_ab_identity_reads_values_not_factors(monkeypatch):
    """The check uses each product's value whatever split the cell
    evaluator returns: A's factor g folded into B's core, so that every
    g reads 1, B with one power of X moved from e into v where e >= 1,
    and P with one power moved everywhere, so with e < 0 where l = 0."""
    import k3pairs.ucomb as uc
    real = uc._cell_at_x

    def refactored(n_max, i, j, width, size, bcol):
        a, b, p = real(n_max, i, j, width, size, bcol)
        bits = 8 * width
        b = [(e - 1, g * v << bits) if e >= 1 else (e, g * v)
             for g, (e, v) in zip(a, b)]
        return [1] * len(a), b, [(e - 1, v << bits) for e, v in p]

    monkeypatch.setattr(uc, "_cell_at_x", refactored)
    assert uc.verify_ab_identity(3, 10) == 4 * 36


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


def _pascal_rows(n_max, top, bits):
    """The binomial rows [N, n](X) for N <= top, n <= n_max, at X = 2^bits,
    each made from the last by one q-Pascal step, from [0, *] = e_0."""
    w = [1] + [0] * n_max
    rows = [tuple(w)]
    for big_n in range(1, top + 1):
        _q_pascal(w, bits, min(big_n, n_max))
        rows.append(tuple(w))
    return rows


def test_values_at_x_match_the_upoly_oracle():
    """Each A, B, P value verify_ab_identity uses equals the UPoly entry
    evaluated by kron_eval at the cell's width, A(n)[i, m] as the
    q-Pascal row [i+t, n](X) times the cell's g; the closed-form bound is
    sum_m A(1) |B|(1) + P(1) read off the built entries, the largest
    coefficient of sum_m A |B| + P, built in UPoly, is at most the bound,
    and the bound stays below X/2.  Cells go in the check's column order,
    sharing each column's B table.  The cells of columns 6, 7, 8, 11 and
    12 mix two widths, and the B tables of 6, 11 and 12 do, so a table
    that ignores the width fails here."""
    n_max, index_max = 3, 12
    oracle = _map_cell(_cell_at_x, lambda entry, v, w: (entry, v))
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
            rows = _pascal_rows(n_max, j, 8 * width)
            a, b, p = oracle(n_max, i, j, width, index_max, bcol)
            for n in range(n_max + 1):
                total = matrix_entry("P", i, j, n)
                for m in range(i, j + 1, 2):
                    bm = matrix_entry("B", m, j)
                    total += matrix_entry("A", i, m, n) \
                        * UPoly({k: abs(v) for k, v in bm.c.items()})
                assert total.eval_one() == bounds[n], (n, i, j)
                assert max_abs_int(total) <= bounds[n] \
                    < 1 << 8 * width - 1, (n, i, j)
                values = [((kind, i, m, n), (0, rows[(i + m) // 2][n] * g))
                          for (kind, i, m), g in a]
                for entry, (e, v) in values + b + [p[n]]:
                    poly = matrix_entry(*entry)
                    lo = min([e] + [k // 2 for k in poly.c])
                    assert v << 8 * width * (e - lo) \
                        == kron_eval(poly.c, 2 * lo, 2, width), (entry, width)
    assert mixed == {6, 7, 8, 11, 12}
    assert mixed_b == {6, 11, 12}


def _per_n_sums(n_max, i, a, b, width, size):
    """The sums of _ab_at_x term by term: for each n, sum_t [i+t, n](X)
    g v X^e over the t with [i+t, n] != 0, reading the binomial rows of
    _values_at, with one multiply per (t, n)."""
    _, rows = _values_at(width, size)
    bits = 8 * width
    out = []
    for n in range(n_max + 1):
        acc = 0
        for t in range(max(n - i, 0), len(a)):
            e, v = b[t]
            acc += (rows[i + t][n] * a[t] * v) << bits * e
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
            a, b, _ = _cell_at_x(n_max, i, j, width, size, bcol)
            assert _ab_at_x(n_max, i, a, b, 8 * width) \
                == _per_n_sums(n_max, i, a, b, width, size), (i, j)
            cells += 1
    assert cells * (n_max + 1) == verify_ab_identity(n_max, index_max)


def test_c_table_frozen_levels():
    for r in (0, 1, 2):
        assert c_table(1, r) == {(1, 0): UPoly.one()}
        t2 = c_table(2, r)
        assert t2[(2, 0)] == UPoly.one()
        assert t2[(1, 0)] == -U({2 * (1 - r): 1})                # -u^{1-r}
        assert t2[(1, 1)] == -U({2 * (r - 1): 1})                # -u^{r-1}
        assert (2, 1) not in t2


def test_c_table_shape():
    t = c_table(3, 1)
    for (i, j) in t:
        assert 1 <= i <= 3 and 0 <= j <= 3 - i
    assert t[(3, 0)] == UPoly.one()


def test_c_table_rejects_bad_level():
    with pytest.raises(ValueError):
        c_table(0, 0)
    assert c_table(2, 5)                       # any integer r is allowed
