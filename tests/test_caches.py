"""The module caches: ``reset_caches`` empties them all, the routes share
their cells across ranks through them, and a build read from a warm cache
equals the same build made cold."""

import importlib
import pkgutil

import k3pairs
from k3pairs import reset_caches
from k3pairs.partition import _closed_cell, _hilb_cache, g_closed, \
    g_via_kernels, g_via_matrices, s_series
from k3pairs.ucomb import matrix_product_entry, verify_ab_identity
from k3pairs.verify import run_suite

MODULES = [importlib.import_module(f"k3pairs.{info.name}")
           for info in pkgutil.iter_modules(k3pairs.__path__)]
ROUTES = (g_closed, g_via_kernels, g_via_matrices)
RANKS = [(n, r) for n in range(1, 5) for r in range(n + 1)]


def _tables():
    return {f"{m.__name__}.{name}": obj for m in MODULES
            for name, obj in vars(m).items()
            if callable(getattr(obj, "cache_info", None))}


def test_reset_caches_empties_every_table():
    run_suite("all", n=2)
    s_series(6)
    verify_ab_identity(2, 6)
    tables = _tables()
    assert {"k3pairs.partition._closed_cell",
            "k3pairs.ucomb.matrix_product_entry"} <= set(tables)
    assert any(f.cache_info().currsize for f in tables.values())
    assert _hilb_cache["order"] > 0
    reset_caches()
    full = {name: f.cache_info().currsize for name, f in tables.items()
            if f.cache_info().currsize}
    assert not full
    assert _hilb_cache["order"] == 0 and _hilb_cache["series"].order == 0


def test_routes_share_their_cells_across_ranks():
    """At n <= 4, qorder 8, ywin 8 the closed route reads 171 cells, and
    the kernel route's r = n column 8 + 7 + 6 + 5 more, of 81 distinct
    ones; the matrix route reads 205 entries, of 72 distinct ones.  A
    duality run after it reads every closed cell again, and builds none."""
    reset_caches()
    assert run_suite("routes", n=4, qorder=8, ywin=8)["ok"]
    cells = _closed_cell.cache_info()
    assert (cells.misses, cells.hits + cells.misses) == (81, 171 + 26)
    entries = matrix_product_entry.cache_info()
    assert (entries.misses, entries.hits + entries.misses) == (72, 205)
    assert run_suite("duality", n=4, qorder=8, ywin=8)["ok"]
    after = _closed_cell.cache_info()
    assert (after.misses, after.hits) == (81, cells.hits + 171)


def _cells(f):
    """Every (q, y) cell of f with its u-keys and coefficients in order."""
    return f.lower, [sorted((ye, list(u.c.items())) for ye, u in c.c.items())
                     if c else c for c in f.coeffs]


def test_warm_builds_equal_cold_builds():
    reset_caches()
    cold = {(route, n, r): _cells(route(n, r, 8, 8))
            for route in ROUTES for n, r in RANKS}
    reset_caches()
    for route in ROUTES:
        for n, r in RANKS:
            route(n, r, 12, 10)
    for (route, n, r), want in cold.items():
        assert _cells(route(n, r, 8, 8)) == want, (route.__name__, n, r)
