"""Named verification suites behind the command-line interface.

Each suite is a deterministic, ordered list of checks run at the
caller's truncation orders.  A check either returns quietly or raises a
K3PairsError — identity failures carry the first differing exponent
location, which QSeries.assert_agrees builds for every series
comparison — and the runner stops at the first failure, returning
structured results for the caller to render and turn into an exit code.

The checks keep no memo of their own.  What they read twice, the closed
route's raw cells of each rank (route agreement and duality) and the
v-expansion ``v_partition_series`` of each rank (the mirror checks), is
held by the memos of ``partition`` and ``modular``, beside the cell
memos of ``partition`` and ``ucomb``: every memo of the package is an
``lru_cache`` of the process, which outlives the run and which
``k3pairs.reset_caches()`` empties, so a later run reads what an earlier
one built.  The kernel and matrix routes read nothing of the closed
route's memos beyond the kernel route's r = n column, so the three
routes stay independent.  The route and duality checks build series
only to locate a difference (``_agree``).
"""

from functools import partial

from .errors import K3PairsError
from .modular import (logphi_sigma_check, mpt_check, v_partition_series,
                      verify_psi_vs_log)
from .partition import (_cells_to_series, _closed_cells, _kernel_cells,
                        _matrix_cells, ky_product, mirror_series)
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


def _agree(a: dict, b: dict, qorder: int, what: str,
           mirrored: bool = False) -> None:
    """Compare two routes' raw cells {(qe, ye): (lo2, list)} as plain
    dicts, b's under ye -> -ye if ``mirrored``.  Only when they differ are
    the two series built, b's mirrored by ``mirror_series``, for
    ``QSeries.assert_agrees`` to locate the first difference: the series
    path decides, so cells that differ only in representation (a list
    padded with a zero, say) still pass."""
    if a == ({(qe, -ye): c for (qe, ye), c in b.items()} if mirrored else b):
        return
    sb = _cells_to_series(b, qorder)
    _cells_to_series(a, qorder).assert_agrees(
        mirror_series(sb) if mirrored else sb, what=what)


def _routes_agree(n: int, r: int, qorder: int, ywin: int) -> None:
    """The closed route's raw cells against the kernel route's, then
    against the matrix route's; see ``_agree`` for how a failure is
    located."""
    gc = _closed_cells(n, r, qorder, ywin)
    _agree(gc, _kernel_cells(n, r, qorder, ywin), qorder,
           f"closed and kernel routes at rank ({n}, {r})")
    _agree(gc, _matrix_cells(n, r, qorder, ywin), qorder,
           f"closed and matrix routes at rank ({n}, {r})")


def _duality(n: int, r: int, qorder: int, ywin: int) -> None:
    """Rank r's closed cells against rank n - r's under ye -> -ye; see
    ``_agree`` for how a failure is located."""
    _agree(_closed_cells(n, r, qorder, ywin),
           _closed_cells(n, n - r, qorder, ywin), qorder,
           f"mirror duality at rank ({n}, {r})", mirrored=True)


def _v_mirror(f: QSeries) -> QSeries:
    """The image of a v-expansion under v -> -v.  Each cell is stored as
    the c of its value i^s c, so the image puts (-1)^s on the stored
    cells."""
    return QSeries(f.lower, [-c if s % 2 else c for s, c in
                             enumerate(f.coeffs, f.lower)], "v")


def _mirror_symmetry(n: int, r: int, qorder: int, vorder: int) -> None:
    """The duality G^r_n(q, y) = G^{n-r}_n(q, 1/y) is v -> -v, so the
    v-expansion at (n, r) is the v -> -v image of the one at (n, n - r).
    At 2r = n that image is of the series itself, and the comparison says
    its odd cells vanish.  At n = 1, where (1, 0) and (1, 1) mirror each
    other, a mirrored pair of odd cells would pass it, so the series is
    also compared with its own image there (the i^s rule: every cell
    there is real)."""
    f = v_partition_series(n, r, qorder, vorder)
    if n == 1:
        f.assert_agrees(_v_mirror(f), what=f"v-expansion at rank ({n}, {r}) "
                        f"and its v -> -v image (the i^s rule)")
    g = v_partition_series(n, n - r, qorder, vorder)
    f.assert_agrees(_v_mirror(g), what=f"v-expansion at rank ({n}, {r}) and "
                    f"the v -> -v image of the one at ({n}, {n - r})")


def _build_checks(suite: str, n: int, qorder: int, ywin: int, vorder: int,
                  cutoff: int) -> list:
    checks: list = []

    def per_rank(group: str, name: str, check, *bounds) -> None:
        checks.extend((group, f"{name} at rank ({nn}, {rr})",
                       partial(check, nn, rr, *bounds))
                      for nn in range(1, n + 1) for rr in range(nn + 1))

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
        per_rank("routes", "three-route agreement", _routes_agree, qorder,
                 ywin)
    if suite in ("duality", "all"):
        per_rank("duality", "mirror duality", _duality, qorder, ywin)
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
        per_rank("modularity", "v-expansion mirror symmetry",
                 _mirror_symmetry, qorder, vorder)
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
    and |p - l| <= ywin, so each rank needs one.  The ucomb suite reads
    no qorder, and only the modularity checks read vorder, so a suite
    that does not read them needs each only to be non-negative."""
    q_least = 2 if suite in ("theta", "modularity", "all") else \
        0 if suite == "ucomb" else 1
    v_least = 1 if suite in ("modularity", "all") else 0
    for name, value, least in (("rank n", n, 1),
                               ("qorder", qorder, q_least),
                               ("vorder", vorder, v_least),
                               ("cutoff", cutoff, 0)):
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
