"""Named verification suites behind the command-line interface.

Each suite is a deterministic, ordered list of checks run at the
caller's truncation orders.  A check either returns quietly or raises a
K3PairsError — identity failures carry the first differing exponent
location, which QSeries.assert_agrees builds for every series
comparison — and the runner stops at the first failure, returning
structured results for the caller to render and turn into an exit code.

One run holds one memo, made with its checks and dropped with them: the
closed form ``g_closed`` and the v-expansion ``v_partition_series`` of
each rank (n, r) are built once at the run's fixed bounds and shared by
the checks that read them (route agreement and duality; the mirror
checks).  The kernel and matrix routes read nothing from it, so the three
routes stay independent.  Below it, the cell memos of ``partition`` and
``ucomb`` are process-wide and outlive the run: a later run rebuilds its
series from cells that are already built.
"""

from .errors import K3PairsError
from .modular import (logphi_sigma_check, mpt_check, v_partition_series,
                      verify_psi_vs_log)
from .partition import (g_closed, g_via_kernels, g_via_matrices, ky_product,
                        mirror_series)
from .rings import Monomial, UPoly, YPoly
from .series import QSeries
from .theta import phi_bilateral, psi
from .ucomb import verify_ab_identity

__all__ = ["SUITES", "check_bounds", "run_suite"]

SUITES = ("ucomb", "theta", "routes", "duality", "modularity", "all")


def _bilateral_unit(mono: Monomial, ywin: int) -> YPoly:
    """sum_k mono^k over the window: the two one-sided q^0 expansions of
    the kernel quotient differ by exactly this unit."""
    if mono.y == 0:
        raise ValueError("bilateral unit needs a genuine y-power")
    out = YPoly()
    k = 0
    while abs(k * mono.y) <= ywin:
        mk = mono ** k
        out = out + YPoly({mk.y: UPoly.u(mk.u2, 1)})
        if k > 0:
            mk = mono ** -k
            out = out + YPoly({mk.y: UPoly.u(mk.u2, 1)})
        k += 1
    return out


def _theta_pair(x: Monomial, ym: Monomial, qorder: int, ywin: int) -> None:
    lhs = psi(x, ym, qorder, ywin)
    rhs = phi_bilateral(x * ym, ym.inverse(), qorder, ywin)
    lhs.assert_agrees(rhs, lo=1, what="theta kernel and bilateral quotient")
    (rhs - lhs).assert_agrees(
        QSeries(0, [_bilateral_unit(ym, ywin)]), hi=1,
        what="theta-kernel q^0 gap and bilateral unit")


def _once(memo: dict, build, n: int, r: int, *bounds):
    """build(n, r, *bounds), made once per builder and rank (n, r) in memo:
    the bounds are fixed for the run that owns the memo."""
    key = (build, n, r)
    if key not in memo:
        memo[key] = build(n, r, *bounds)
    return memo[key]


def _routes_agree(n: int, r: int, qorder: int, ywin: int,
                  memo: dict) -> None:
    gc = _once(memo, g_closed, n, r, qorder, ywin)
    gk = g_via_kernels(n, r, qorder, ywin)
    gm = g_via_matrices(n, r, qorder, ywin)
    gc.assert_agrees(gk, what=f"closed and kernel routes at rank ({n}, {r})")
    gc.assert_agrees(gm, what=f"closed and matrix routes at rank ({n}, {r})")


def _duality(n: int, r: int, qorder: int, ywin: int, memo: dict) -> None:
    a = _once(memo, g_closed, n, r, qorder, ywin)
    b = mirror_series(_once(memo, g_closed, n, n - r, qorder, ywin))
    a.assert_agrees(b, what=f"mirror duality at rank ({n}, {r})")


def _v_mirror(f: QSeries) -> QSeries:
    """The image of a v-expansion under v -> -v.  Each cell is stored as
    the c of its value i^s c, so the image puts (-1)^s on the stored
    cells."""
    return QSeries(f.lower, [-c if s % 2 else c for s, c in
                             enumerate(f.coeffs, f.lower)], "v")


def _mirror_symmetry(n: int, r: int, qorder: int, vorder: int,
                     memo: dict | None = None) -> None:
    """The duality G^r_n(q, y) = G^{n-r}_n(q, 1/y) is v -> -v, so the
    v-expansion at (n, r) is the v -> -v image of the one at (n, n - r).
    At 2r = n that image is of the series itself, and the comparison says
    its odd cells vanish.  At n = 1, where (1, 0) and (1, 1) mirror each
    other, a mirrored pair of odd cells would pass it, so the series is
    also compared with its own image there (the i^s rule: every cell
    there is real)."""
    memo = {} if memo is None else memo
    f = _once(memo, v_partition_series, n, r, qorder, vorder)
    if n == 1:
        f.assert_agrees(_v_mirror(f), what=f"v-expansion at rank ({n}, {r}) "
                        f"and its v -> -v image (the i^s rule)")
    g = _once(memo, v_partition_series, n, n - r, qorder, vorder)
    f.assert_agrees(_v_mirror(g), what=f"v-expansion at rank ({n}, {r}) and "
                    f"the v -> -v image of the one at ({n}, {n - r})")


def _build_checks(suite: str, n: int, qorder: int, ywin: int, vorder: int,
                  cutoff: int) -> list:
    memo: dict = {}  # this run's closed forms and v-expansions by rank
    checks: list = []
    if suite in ("ucomb", "all"):
        checks.append((
            "ucomb", f"transfer-matrix product identity (index <= {cutoff})",
            lambda: verify_ab_identity(n, cutoff)))
    if suite in ("theta", "all"):
        pairs = ((Monomial(2, 0), Monomial(0, 1)),
                 (Monomial(3, 0), Monomial(2, 1)),
                 (Monomial(-2, 2), Monomial(0, -1)))
        for idx, (x, ym) in enumerate(pairs, start=1):
            checks.append((
                "theta", f"kernel vs bilateral quotient, argument pair "
                f"{idx} of {len(pairs)}",
                lambda x=x, ym=ym: _theta_pair(x, ym, qorder, ywin)))
        checks.append(("theta", "rank-one product bridge",
                       lambda: ky_product(qorder, ywin)))
    if suite in ("routes", "all"):
        for nn in range(1, n + 1):
            for rr in range(nn + 1):
                checks.append((
                    "routes", f"three-route agreement at rank ({nn}, {rr})",
                    lambda nn=nn, rr=rr: _routes_agree(
                        nn, rr, qorder, ywin, memo)))
    if suite in ("duality", "all"):
        for nn in range(1, n + 1):
            for rr in range(nn + 1):
                checks.append((
                    "duality", f"mirror duality at rank ({nn}, {rr})",
                    lambda nn=nn, rr=rr: _duality(
                        nn, rr, qorder, ywin, memo)))
    if suite in ("modularity", "all"):
        checks.append(("modularity", "rank-one Eisenstein exponential",
                       lambda: mpt_check(qorder, vorder)))
        checks.append(("modularity", "log-product divisor-sum shadow",
                       lambda: logphi_sigma_check(qorder, vorder)))
        for k, l in ((1, 0), (1, 1), (2, 1)):
            checks.append((
                "modularity",
                f"log-product closed forms at (k, l) = ({k}, {l})",
                lambda k=k, l=l: verify_psi_vs_log(
                    k, l, qorder, min(vorder, 6), tmax=2)))
        for nn in range(1, n + 1):
            for rr in range(nn + 1):
                checks.append((
                    "modularity",
                    f"v-expansion mirror symmetry at rank ({nn}, {rr})",
                    lambda nn=nn, rr=rr: _mirror_symmetry(
                        nn, rr, qorder, vorder, memo)))
    return checks


def check_bounds(suite: str, n: int, qorder: int, ywin: int, vorder: int,
                 cutoff: int) -> None:
    """Raise ValueError naming the first bound under which some check of a
    run of ``suite`` would compare nothing (or fail to start).  The
    log-product checks of the modularity suite compare q^0 cells that are
    zero on both sides, and the kernel checks of the theta suite compare
    the window [1, qorder), so both need qorder >= 2.  Every check of the
    theta, route and duality suites compares the cells with |y| <= ywin,
    so they need ywin >= 0.  The route and duality checks at rank (n, r)
    compare the lattice terms (p, l) with p >= n - r, l >= r, pl < qorder
    and |p - l| <= ywin, so each rank needs one."""
    q_least = 2 if suite in ("theta", "modularity", "all") else 1
    for name, value, least in (("rank n", n, 1),
                               ("qorder", qorder, q_least),
                               ("vorder", vorder, 1), ("cutoff", cutoff, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least} (got {value})")
    if ywin < 0 and suite not in ("ucomb", "modularity"):
        raise ValueError(f"ywin must be >= 0 (got {ywin})")
    if suite not in ("routes", "duality", "all"):
        return
    # the lowest lattice term of each rank: p and l at their least with
    # |p - l| <= ywin
    lowest = {(nn, rr): max(nn - rr, rr - ywin) * max(rr, nn - rr - ywin)
              for nn in range(1, n + 1) for rr in range(nn + 1)}
    empty = [rank for rank, qe in lowest.items() if qe >= qorder]
    if empty:
        raise ValueError(
            f"qorder must be >= {max(lowest.values()) + 1} at ywin {ywin} "
            f"(got {qorder}): rank {empty[0]} has no lattice term below "
            f"q^{qorder}, so its route and duality checks compare nothing")


def run_suite(suite: str, n: int = 2, qorder: int = 10, ywin: int = 8,
              vorder: int = 8, cutoff: int = 12) -> dict:
    """Run one named suite (or "all") and collect structured results.

    Stops at the first failing check; each result row carries the suite,
    the check name, and on failure the message and exact exponent
    location.  Raises ValueError for an unknown suite name or for bounds
    that :func:`check_bounds` rejects.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of "
                         + ", ".join(SUITES))
    check_bounds(suite, n, qorder, ywin, vorder, cutoff)
    results = []
    for group, name, thunk in _build_checks(suite, n, qorder, ywin, vorder,
                                            cutoff):
        try:
            thunk()
        except K3PairsError as ex:
            results.append({
                "suite": group, "check": name, "ok": False,
                "message": str(ex),
                "location": getattr(ex, "location", None)})
            return {"suite": suite, "ok": False, "results": results}
        results.append({"suite": group, "check": name, "ok": True})
    return {"suite": suite, "ok": True, "results": results}
