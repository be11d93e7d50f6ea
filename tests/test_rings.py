import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from k3pairs.errors import NotDivisible
from k3pairs.rings import Monomial, TTPoly, UPoly, YPoly, _divide_out, \
    _int_conv, kron_digits, kron_product, kron_width

from ring_helpers import div_u_pow_minus_one, inverse_pochhammer_24, \
    kron_eval, palindromic_twist


def U(d):
    return UPoly(d)


def test_upoly_basic_ops():
    p = U({0: 1, 2: 1})           # 1 + u
    q = U({0: -1, 2: 1})          # u - 1
    assert p * q == U({4: 1, 0: -1})          # u^2 - 1
    assert p + q == U({2: 2})
    assert p - p == UPoly.zero()
    assert (p * 0) == UPoly.zero()
    assert 2 * p == U({0: 2, 2: 2})
    assert p.shift(3) == U({3: 1, 5: 1})      # multiply by u^{3/2}


def test_upoly_strings():
    assert str(U({-2: -2, 0: 3, 6: 1})) == "-2u^-1+3+u^3"
    assert str(U({1: 1})) == "u^1/2"
    assert str(U({-3: 1, 1: -1})) == "u^-3/2-u^1/2"
    assert str(UPoly.zero()) == "0"
    assert str(U({2: 1})) == "u"
    assert str(U({0: Fraction(1, 2)})) == "1/2"


def test_int_conv_takes_lists_of_any_lengths():
    rng = random.Random(3)
    for lf, lg, n in ((2, 1, 3), (1, 4, 4), (5, 3, 7), (6, 6, 4), (0, 3, 2),
                      (3, 2, 0)):
        f = [rng.randrange(-9, 9) for _ in range(lf)]
        g = [rng.randrange(-9, 9) for _ in range(lg)]
        want = [sum(f[i] * g[k - i] for i in range(lf) if 0 <= k - i < lg)
                for k in range(n)]
        assert _int_conv(f, g, n) == want, (lf, lg, n)


def test_divide_out_names_the_factor_that_leaves_a_remainder():
    # over whole exponents, 1 - u^3 = (1 - u)(1 + u + u^2), and the
    # quotient is cut to its length
    assert _divide_out([1, 0, 0, -1], (2,), 2) == [1, 1, 1]
    assert _divide_out([1, 0, 0, -1], (6,), 2) == [1]
    with pytest.raises(NotDivisible) as exc:
        _divide_out([1, 1, 1], (4,), 2)
    assert str(exc.value) == "remainder in division by u^2 - 1"
    # the first factor that leaves a remainder is the one named
    with pytest.raises(NotDivisible) as exc:
        _divide_out([1, 0, 0, -1], (2, 6), 2)
    assert str(exc.value) == "remainder in division by u^3 - 1"


def test_div_u_minus_one():
    um1 = U({2: 1, 0: -1})
    f = U({-2: 4, 0: -1, 2: 3, 6: -5})
    g = f * um1 * um1
    assert div_u_pow_minus_one(div_u_pow_minus_one(g, 2), 2) == f
    with pytest.raises(NotDivisible):
        div_u_pow_minus_one(f * um1 + UPoly.one(), 2)


def test_div_u_pow_minus_one_names_the_divisor():
    one = UPoly.one()
    for d2, divisor in ((2, "u - 1"), (6, "u^3 - 1"), (3, "u^3/2 - 1")):
        assert div_u_pow_minus_one(U({d2: 1, 0: -1}), d2) == one
        with pytest.raises(NotDivisible) as exc:
            div_u_pow_minus_one(one, d2)
        assert str(exc.value) == f"remainder in division by {divisor}"


def test_div_u_pow_minus_one_chain_equals_the_single_divisions():
    # odd keys, half-integer divisors (d2 = 3) and mixed parities, and
    # even keys with even divisors, all on the one doubled-key list
    rng = random.Random(11)
    for trial in range(300):
        odd = trial % 3 == 0
        f = U({rng.randrange(-7, 9) * (1 if odd else 2): rng.randrange(-5, 6)
               for _ in range(rng.randrange(1, 6))})
        if not f:
            continue
        d2s = [rng.choice((1, 3, 2, 4, 6) if odd else (2, 4, 6, 8))
               for _ in range(rng.randrange(1, 5))]
        g = f
        for d2 in d2s:
            g = g * U({d2: 1, 0: -1})
        q = g
        for d2 in d2s:
            q = div_u_pow_minus_one(q, d2)
        assert div_u_pow_minus_one(g, *d2s) == q == f, (f, d2s)


def test_div_u_pow_minus_one_with_both_parities_and_an_odd_divisor():
    # (u^3/2 - 1)(1 + u^1/2): the quotient mixes integer and half-integer
    # powers, so the recurrence couples the two parities
    assert div_u_pow_minus_one(U({3: 1, 4: 1, 0: -1, 1: -1}), 3) \
        == U({0: 1, 1: 1})


def test_div_u_pow_minus_one_chain_names_the_failing_factor():
    um1 = U({2: 1, 0: -1})
    # a dividend shorter than the divisor, at the first factor or later
    for f, d2s in ((UPoly.one(), (6, 2)), (um1, (2, 6))):
        with pytest.raises(NotDivisible) as exc:
            div_u_pow_minus_one(f, *d2s)
        assert str(exc.value) == "remainder in division by u^3 - 1"
    # divisible by the first factors but not by the last: a is 1 at u = 1
    a = U({-2: 4, 0: -1, 2: 3, 6: -5})
    f = a * um1 * U({4: 1, 0: -1})
    assert div_u_pow_minus_one(f, 4, 2) == a
    for d2s, divisor in (((4, 2, 2), "u - 1"), ((2, 4, 6), "u^3 - 1")):
        with pytest.raises(NotDivisible) as exc:
            div_u_pow_minus_one(f, *d2s)
        assert str(exc.value) == f"remainder in division by {divisor}"


def test_eval_and_derivative_at_one():
    p = U({6: 1})                              # u^3
    assert sum(p.c.values()) == 1
    assert p.derivs_at_one(2)[1:] == [3, 6]
    q = U({-4: 2, 0: 5, 2: -1})                # 2u^-2 + 5 - u
    assert sum(q.c.values()) == 6
    assert q.derivs_at_one(1)[1] == 2 * (-2) + 0 - 1


_EDGES = (127, -127, 128, -128, 255, -255, 256, -256, 2 ** 63, -2 ** 63)


def test_kron_digits_inverts_kron_eval():
    # signed digits at byte boundaries, on integer and half-integer grids;
    # 9 bytes keep every |v| <= 2^63 within [-X/2, X/2)
    for emin, step in ((0, 1), (-3, 2), (1, 3)):
        c = {emin + step * k: v for k, v in enumerate(_EDGES)}
        packed = kron_eval(c, emin, step, 9)
        assert kron_digits(packed, emin, step, 9, len(_EDGES)) == c
    # one byte holds -128..127; an empty middle slot reads back as absent
    c = {0: 127, 1: -128, 3: -1, 4: 1}
    assert kron_digits(kron_eval(c, 0, 1, 1), 0, 1, 1, 5) == c


def _digits(width):
    half = 1 << (8 * width - 1)
    return st.integers(-half, half - 1).filter(bool)


_SLOTS = 40
# the powers of two fold each digit's bytes in whole doublings; at 3, 5, 6
# and 7 the last fold is shorter, or it would reach the next digit
_WIDTHS = (1, 2, 3, 4, 5, 6, 7)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_WIDTHS).flatmap(lambda w: st.tuples(
           st.just(w),
           st.dictionaries(st.integers(0, _SLOTS - 1), _digits(w),
                           max_size=6))),
       st.integers(-4, 4), st.integers(1, 3))
def test_kron_digits_reads_sparse_digits_back(packed, emin, step):
    width, at = packed
    c = {emin + step * s: v for s, v in at.items()}
    assert kron_digits(kron_eval(c, emin, step, width), emin, step, width,
                       _SLOTS) == c


@pytest.mark.parametrize("width", _WIDTHS)
def test_kron_digits_edge_slots(width):
    half = 1 << (8 * width - 1)
    assert kron_digits(0, 0, 1, width, 1000) == {}
    for v in (1, -1, half - 1, -half):
        for s in (0, _SLOTS - 1):  # bottom and top slot
            assert kron_digits(kron_eval({s: v}, 0, 1, width), 0, 1, width,
                               _SLOTS) == {s: v}
    # adjacent nonzero slots form one run of nonzero digits
    c = {5: 1, 6: -1, 7: half - 1, 8: -half, 9: 2}
    assert kron_digits(kron_eval(c, 0, 1, width), 0, 1, width, _SLOTS) == c


def test_kron_digits_bytes_that_look_like_the_bias():
    # at width 2 the bias is the bytes 00 80 per digit: 128 biases to
    # 80 80, -128 to 80 7f, 256 to 00 81 and -32768 to 00 00, so each has
    # a byte equal to a bias byte, or a zero byte after the XOR
    c = {0: 128, 1: -128, 2: 256, 4: -32768, 5: 32767, 6: -256, 8: 128}
    assert kron_digits(kron_eval(c, 0, 1, 2), 0, 1, 2, 9) == c
    e = {-3 + 2 * s: v for s, v in c.items()}
    assert kron_digits(kron_eval(e, -3, 2, 2), -3, 2, 2, 9) == e


# prod (1 + q^n)^4 (1 - q^n)^-4 through q^20, the majorant whose largest
# entry sizes the packed cells of theta's product kernels
_PHI_MAJORANT_21 = [
    1, 8, 40, 160, 552, 1712, 4896, 13120, 33320, 80872, 188784, 425952,
    932640, 1988080, 4137024, 8422848, 16810536, 32943760, 63482760,
    120440608, 225217904]


def test_kron_product_at_bits_zero_multiplies_integer_series():
    assert kron_product([1] + [0] * 30, (), ((1, 0),) * 24) \
        == inverse_pochhammer_24(31)
    assert kron_product([1] + [0] * 20, ((-1, 0),) * 4, ((1, 0),) * 4) \
        == _PHI_MAJORANT_21
    # Euler's pentagonal numbers 0, 1, 2, 5, 7, 12, 15 carry the signs of
    # prod (1 - q^n)
    euler = kron_product([1] + [0] * 20, ((1, 0),), ())
    assert {j: v for j, v in enumerate(euler) if v} \
        == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    # a factor in both lists cancels; the cells are changed in place
    f = [3, 0, -1, 4, 0, 2]
    assert kron_product(f, ((-1, 0), (1, 0)), ((1, 0), (-1, 0))) is f
    assert f == [3, 0, -1, 4, 0, 2]


def _dict_product(qorder, num, den):
    """{j: {e: coefficient of x^e q^j}} of the product kron_product
    takes, one truncated product of two-variable dicts per factor."""
    def times(f, g):
        out = {}
        for j, row in f.items():
            for (gj, ge), gv in g.items():
                if j + gj < qorder:
                    cell = out.setdefault(j + gj, {})
                    for e, v in row.items():
                        cell[e + ge] = cell.get(e + ge, 0) + v * gv
        return out

    f = {0: {0: 1}}
    for n in range(1, qorder):
        for c, d in num:
            f = times(f, {(0, 0): 1, (n, d): -c})
        for c, d in den:
            f = times(f, {(n * i, d * i): c ** i
                          for i in range((qorder - 1) // n + 1)})
    return {j: {e: v for e, v in row.items() if v} for j, row in f.items()}


def test_kron_product_packed_reads_back_with_negative_shifts():
    # prod (1 - x q^n)(1 - x^-1 q^n) / ((1 - q^n)(1 + x^-2 q^n)) in
    # x = X = 256^w: the q^j cell spans x^-2j .. x^j, so it is packed from
    # digit 2 (qorder - 1) up, and the shifts -1 and -2 divide exactly
    qorder, num, den = 10, ((1, 1), (1, -1)), ((1, 0), (-1, -2))
    bound = max(kron_product([1] + [0] * (qorder - 1), ((-1, 0),) * 2,
                             ((1, 0),) * 2))
    width, origin = kron_width(bound), 2 * (qorder - 1)
    cells = kron_product([1 << (8 * width * origin)] + [0] * (qorder - 1),
                         num, den, 8 * width)
    want = _dict_product(qorder, num, den)
    for j, v in enumerate(cells):
        assert kron_digits(v, -origin, 1, width, 3 * (qorder - 1) + 1) \
            == want[j], j
    assert min(want[qorder - 1]) == -2 * (qorder - 1)


def test_ttpoly():
    h = TTPoly({(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1})
    assert sum(h.c.values()) == 24
    assert palindromic_twist(h) == 2
    asym = TTPoly({(0, 0): 1, (2, 1): 1})
    assert palindromic_twist(asym) is None
    assert str(TTPoly({(1, 1): 20})) == "20*t*tb"
    # a container: the Hodge cells are built from packed digits
    with pytest.raises(TypeError):
        TTPoly({(1, 0): 1}) * TTPoly({(0, 1): 1})


def test_ypoly_window():
    a = YPoly({2: 1, -2: 1})
    b = YPoly({2: 1})
    prod = a * b
    assert prod.c == {0: 1, 4: 1}              # a product keeps every term
    assert prod.restrict(3).c == {0: 1}        # restrict drops |y| > 3
    assert prod.restrict(4) == prod
    assert YPoly({5: 9, -3: 2}).restrict(3).c == {-3: 2}
    assert not hasattr(prod, "window")


def test_ypoly_mirror_and_shift():
    a = YPoly({2: 7, -1: 3})
    assert a.mirror().c == {-2: 7, 1: 3}
    assert a == YPoly({2: 7, -1: 3})
    assert YPoly({}) == 0
    assert YPoly({0: 7}) == 7


def test_monomial():
    m = Monomial(u2=2, y=1)
    assert m * m.inverse() == Monomial()
    assert m ** 3 == Monomial(6, 3)


# One table for the semantics the three rings share: each entry is a
# constructor from {key: value}, the constant key and one non-constant key.
_RINGS = {
    "UPoly": (UPoly, 0, 3),
    "TTPoly": (TTPoly, (0, 0), (2, -1)),
    "YPoly": (YPoly, 0, -2),
}


@pytest.mark.parametrize("make, k0, k1", _RINGS.values(), ids=_RINGS.keys())
def test_shared_ring_semantics(make, k0, k1):
    p = make({k0: 3, k1: -2})
    assert (p.coeff(k0), p.coeff(k1)) == (3, -2)
    assert make({k1: 1}).coeff(k0) == 0
    assert -p == make({k0: -3, k1: 2})
    assert p - p == make({}) and not (p - p) and p
    assert make({}) == 0 and not p == 0
    for s in (0, 5, Fraction(-1, 2)):
        assert (make({k0: s}) == s) is True
        assert (make({k0: s, k1: 1}) == s) is False
        assert p + s == s + p == make({k0: 3 + s, k1: -2})
        assert p - s == make({k0: 3 - s, k1: -2})
        assert s - p == make({k0: s - 3, k1: 2})


def test_rings_do_not_mix():
    assert (UPoly.one() == TTPoly.one()) is False
    with pytest.raises(TypeError):
        UPoly.one() + TTPoly.one()


def test_ypoly_sum_and_difference():
    a = YPoly({0: 1, 3: 2, -4: 5})
    b = YPoly({1: 7, -3: 1})
    assert (a + b).c == (b + a).c == {0: 1, 3: 2, -4: 5, 1: 7, -3: 1}
    assert (a - b).c == {0: 1, 3: 2, -4: 5, 1: -7, -3: -1}
    assert (-a).c == {0: -1, 3: -2, -4: -5}
    assert (a + YPoly({3: -2})).c == {0: 1, -4: 5}     # cancelled terms go
    assert (a - a).c == {}
