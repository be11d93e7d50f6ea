"""Coefficient properties of ring elements, the (t, tb) product and the
embedding u -> t*tb that the oracles of the Hodge series multiply with,
the Kronecker evaluation of an exponent dict at X = 256^w, the exact
division of a UPoly by a chain of factors u^{d/2} - 1, a
Gaussian-binomial oracle built by the q-Pascal rule, the kernel route's
weight table at any rank by its own recursion, and the
Euler-characteristic oracle of S, that only the tests ask about."""

from fractions import Fraction
from functools import lru_cache
from operator import neg

from k3pairs.rings import TTPoly, UPoly, _divide_out, _from_list


class TTRing(TTPoly):
    """A TTPoly with the (t, tb) product, which the library's TTPoly does
    not have: the ring of the tests' Hodge-series oracles.  It equals the
    TTPoly with the same terms."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, TTPoly):
            return NotImplemented
        out: dict = {}
        for (p1, q1), va in self.c.items():
            for (p2, q2), vb in other.c.items():
                e = (p1 + p2, q1 + q2)
                out[e] = out.get(e, 0) + va * vb
        return TTRing(out)

    __rmul__ = __mul__


def to_tt(p) -> TTRing:
    """The UPoly p embedded by u -> t*tb (integer exponents required)."""
    if any(e2 % 2 for e2 in p.c):
        raise ValueError("u -> t*tb embedding needs integer exponents")
    return TTRing({(e2 // 2, e2 // 2): v for e2, v in p.c.items()})


def max_abs_int(p) -> int:
    """Largest absolute coefficient of a UPoly (0 for the zero poly)."""
    return max(map(abs, p.c.values()), default=0)


def all_nonneg_int(h) -> bool:
    """Whether every coefficient of a TTPoly is a nonnegative int."""
    return all(type(v) is int and v >= 0 for v in h.c.values())


def palindromic_twist(h):
    """Return d such that coeff(p,q) == coeff(d-p, d-q) everywhere in the
    TTPoly h.

    The twist is read off the support (d = min+max exponent, equal in
    both variables); returns None if no such d works.
    """
    if not h.c:
        return 0
    ps = [p for p, _ in h.c]
    qs = [q for _, q in h.c]
    d1 = min(ps) + max(ps)
    d2 = min(qs) + max(qs)
    if d1 != d2:
        return None
    for (p, q), v in h.c.items():
        if h.c.get((d1 - p, d1 - q), 0) != v:
            return None
    return d1


def div_u_pow_minus_one(f, *d2s: int):
    """Exact division of the UPoly f by u^{d/2} - 1 for each doubled
    exponent d > 0 of d2s in turn: f as one list over every doubled key
    from its lowest, then one pass of the library's ``_divide_out`` per
    factor; NotDivisible names the first factor that leaves a remainder."""
    if not f:
        return UPoly.zero()
    lo = min(f.c)
    q = [0] * (max(f.c) - lo + 1)
    for e, v in f.c.items():
        q[e - lo] = v
    q = _divide_out(q, d2s, 1)
    # each factor u^{d/2} - 1 is minus the 1 - u^{d/2} divided out
    return _from_list(lo, map(neg, q) if len(d2s) % 2 else q, 1)


@lru_cache(maxsize=None)
def _pascal_row(n: int) -> tuple:
    """The Gaussian binomials [n choose k], 0 <= k <= n, as UPolys, from
    the row above by the q-Pascal rule [n, k] = [n-1, k-1] + u^k [n-1, k]."""
    if n == 0:
        return (UPoly.one(),)
    row = _pascal_row(n - 1)
    return (UPoly.one(), *(row[k - 1] + row[k].shift(2 * k)
                           for k in range(1, n)), UPoly.one())


def gauss_binomial(n: int, k: int) -> UPoly:
    """The Gaussian binomial [n choose k], zero outside 0 <= k <= n: an
    oracle independent of the library's binomial lists and their
    divisions, as it only adds and shifts."""
    if k < 0 or n < 0 or k > n:
        return UPoly.zero()
    return _pascal_row(n)[k]


def u_int(n: int) -> UPoly:
    """The u-integer [n] = 1 + u + ... + u^{n-1} = [n choose 1]."""
    return gauss_binomial(n, 1)


def rank_c_table(n: int, r: int) -> dict:
    """The kernel route's weight table at level n and rank r, built from
    the seed C(1, 0) = 1 by the two-term shift recursion with r baked into
    its shifts u^{r-m} and u^{m-r}: an oracle that does not rest on the
    rank identity by which the library reads every rank off rank 0."""
    if n < 1:
        raise ValueError("the table starts at n = 1")
    cur = {(1, 0): UPoly.one()}
    for m in range(1, n):
        # pass from level m to level m+1
        nxt = {}
        up = 2 * (r - m)   # doubled exponent of u^{r-m}
        dn = 2 * (m - r)
        for i in range(1, m + 2):
            for j in range(0, m + 2 - i):
                acc = UPoly.zero()
                e = cur.get((i - 1, j))
                if e:
                    acc = acc + e
                e = cur.get((i + 1, j - 1))
                if e:
                    acc = acc + e
                e = cur.get((i, j - 1))
                if e:
                    acc = acc - e.shift(up)
                e = cur.get((i, j))
                if e:
                    acc = acc - e.shift(dn)
                if acc:
                    nxt[(i, j)] = acc
        cur = nxt
    return cur


def kron_eval(c: dict, emin: int, step: int, width: int) -> int:
    """The exact signed integer sum v * X^((e - emin) / step) at X = 256^width.

    ``c`` maps exponents on the grid emin + step*k (k >= 0) to int
    coefficients, each of absolute value below 256^width.
    """
    slots = (max(c, default=emin) - emin) // step + 1
    pos, neg = bytearray(slots * width), bytearray(slots * width)
    for e, v in c.items():
        off = (e - emin) // step * width
        if v > 0:
            pos[off:off + width] = v.to_bytes(width, "little")
        else:
            neg[off:off + width] = (-v).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def inverse_pochhammer_24(order: int) -> list:
    """Coefficients a_0..a_{order-1} of prod_{n>=1} (1 - q^n)^-24, by the
    recurrence n a_n = 24 sum_{k=1..n} sigma(k) a_{n-k}."""
    sigma = [sum(d for d in range(1, k + 1) if k % d == 0)
             for k in range(order)]
    a = [1]
    for n in range(1, order):
        a.append(24 * sum(sigma[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a
