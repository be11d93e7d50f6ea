"""The module caches: ``reset_caches`` empties them all, the routes share
their cells across ranks through them, no caller writes to a value they
hold, and a build read from a warm cache equals the same build made
cold."""

import importlib
import pkgutil

import k3pairs
from k3pairs import reset_caches
from k3pairs.cli import main
from k3pairs.partition import _closed_cell, _closed_cells, _kernel_cell, \
    _kernel_weights, g_closed, g_via_kernels, g_via_matrices, s_series, \
    syst_table
from k3pairs.ucomb import _product_cell, verify_ab_identity
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
            "k3pairs.partition._closed_cells",
            "k3pairs.partition._kernel_cell",
            "k3pairs.partition._kernel_weights",
            "k3pairs.modular.v_partition_series",
            "k3pairs.ucomb._product_cell"} <= set(tables)
    assert any(f.cache_info().currsize for f in tables.values())
    reset_caches()
    full = {name: f.cache_info().currsize for name, f in tables.items()
            if f.cache_info().currsize}
    assert not full


def test_routes_share_their_cells_across_ranks():
    """At n <= 4, qorder 8, ywin 8 the closed route reads 171 cells, and
    the kernel route's r = n column 8 + 7 + 6 + 5 more, of 81 distinct
    ones; the kernel route reads 336 of its own cells, of 205 distinct
    ones, contracted from one rank-0 table per n; the matrix route reads
    205 entries, of 72 distinct ones, each summed once.  A duality run
    after it reads each rank's closed cells twice from their memo, and
    builds no cell of any route."""
    reset_caches()
    assert run_suite("routes", n=4, qorder=8, ywin=8)["ok"]
    cells = _closed_cell.cache_info()
    assert (cells.misses, cells.hits + cells.misses) == (81, 171 + 26)
    kernel = _kernel_cell.cache_info()
    assert (kernel.misses, kernel.hits + kernel.misses) == (205, 336)
    assert _kernel_weights.cache_info().misses == 4
    entries = _product_cell.cache_info()
    assert (entries.misses, entries.hits + entries.misses) == (72, 205)
    ranks = _closed_cells.cache_info()
    assert (ranks.misses, ranks.hits) == (14, 0)
    assert run_suite("duality", n=4, qorder=8, ywin=8)["ok"]
    after = _closed_cells.cache_info()
    assert (after.misses, after.hits) == (14, 28)
    assert _closed_cell.cache_info() == cells
    assert _kernel_cell.cache_info().misses == 205
    assert _product_cell.cache_info() == entries


def test_no_caller_writes_to_a_process_memo(monkeypatch, capsys):
    """Each value that the memos read by the checks, the fits and the
    tables hold after a run of each still equals a fresh build of it.  A
    spy in every module that binds a memo records the keys and hands the
    caller the memo's own value, which a caller that wrote to it would
    have changed."""
    names = ("_closed_cells", "v_partition_series", "_product_cell",
             "_closed_cell", "_kernel_cell")
    keys: dict = {name: set() for name in names}
    memos = {}
    reset_caches()
    for module in MODULES:
        for name in names:
            if name in vars(module):
                memo = memos.setdefault(name, getattr(module, name))

                def spy(*args, memo=memo, name=name):
                    keys[name].add(args)
                    return memo(*args)
                monkeypatch.setattr(module, name, spy)
    assert run_suite("all", n=4)["ok"]
    assert run_suite("modularity", n=6, qorder=16, vorder=12)["ok"]
    assert main(["fit", "--n", "2", "--r", "1"]) == 0
    syst_table(3, 1, 60, -2, 2)
    monkeypatch.undo()
    capsys.readouterr()
    assert set(memos) == set(names)
    for name, memo in memos.items():
        assert keys[name], name
        for args in keys[name]:
            assert memo(*args) == memo.__wrapped__(*args), (name, args)


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
