"""Coefficient properties of ring elements, the Kronecker evaluation of
an exponent dict at X = 256^w, the exact division of a UPoly by a chain
of factors u^{d/2} - 1, and the Euler-characteristic oracle of S, that
only the tests ask about."""

from k3pairs.rings import UPoly, _dense_quotient


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
    exponent d > 0 of d2s in turn, through the library's dense divider;
    NotDivisible names the first factor that leaves a remainder."""
    if not f:
        return UPoly.zero()
    return _dense_quotient(*f._dense(), d2s)


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
