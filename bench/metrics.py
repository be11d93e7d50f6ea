"""Metric catalogue and the per-module split of a cProfile trace.

``END_TO_END`` are the numbers a user of the package sees; they come from
untraced child interpreters.  ``PER_LAYER`` come from one traced child and
each names the end-to-end metric, on the workload, that it should move.
BENCHMARK.json lists the same names, units and bounds (checked by
test_bench.py).
"""

import inspect

# name, unit, better, bound, what it measures
END_TO_END = (
    ("cold_norm_s", "s", "lower", 0.2,
     "one pass in a fresh interpreter, every module cache empty, in "
     "seconds at the reference host speed (calib.py); median"),
    ("warm_norm_s", "s", "lower", 0.2,
     "the same pass repeated in that interpreter, caches full, at the "
     "reference host speed; median"),
    ("cpu_cold_norm_s", "s", "lower", 0.2,
     "user+system CPU of the cold pass, children included, at the "
     "reference host speed; median"),
    ("setup_s", "s", "lower", 0.25,
     "interpreter start through import k3pairs plus input generation, at "
     "the reference host speed; median"),
    ("peak_rss_mib", "MiB", "lower", 0.05,
     "peak resident set of the child after cold and warm pass; median"),
    ("ok_ratio", "ratio", "higher", 0.01,
     "ops that returned or exited 0 over ops attempted (1 - failed ratio)"),
)

# the package's modules, in layer order; "other" takes the benchmark's own
# frames and the rest of the standard library, so the self times of all
# groups add up to trace.total_s
MODULES = ("scalars", "rings", "series", "ucomb", "theta", "partition",
           "modular", "verify", "cli", "errors")
GROUPS = MODULES + ("stdlib.fractions", "stdlib.builtins", "other")

# per-layer metric -> attribute path in k3pairs of the function it counts
CALLS = {
    "rings.pack_nonneg.calls": "rings.pack_nonneg",
    "rings.kron_mul.calls": "rings._kron_mul",
    "rings.upoly_mul.calls": "rings.UPoly.__mul__",
    "rings.ttpoly_mul.calls": "rings.TTPoly.__mul__",
    "series.mul.calls": "series.QSeries.__mul__",
    "series.invert.calls": "series.QSeries.invert",
    "series.log.calls": "series.QSeries.log",
    "modular.solve_exact.calls": "modular._solve_exact",
}
CUMULATIVE = ("ucomb.verify_ab_identity", "partition.g_closed",
              "partition.g_via_kernels", "partition.f_via_matrices",
              "partition.g_from_f", "verify.run_suite", "cli.main",
              "modular.fit_v_coefficient", "modular.EisensteinBasis",
              "modular.verify_psi_vs_log")

_AB, _RT, _MF = "ab-identity", "three-routes", "modular-fits"


# what a group's self time (and call count) should move
_GROUP_MOVES = {
    "scalars": f"cold_norm_s, ok_ratio on {_MF}",
    "rings": f"cold_norm_s, warm_norm_s on {_AB}",
    "series": f"cold_norm_s on {_RT} and {_MF}",
    "ucomb": f"the cold_norm_s - warm_norm_s gap on {_AB}",
    "theta": f"cold_norm_s on {_MF}",
    "partition": f"cold_norm_s on {_RT}",
    "modular": f"cold_norm_s, ok_ratio on {_MF}",
    "verify": "nothing: should stay near zero on every workload",
    "cli": "nothing: should stay near zero on every workload",
    "errors": "nothing: should stay near zero on every workload",
    "stdlib.fractions": f"cold_norm_s, ok_ratio on {_MF}",
    "stdlib.builtins": "cold_norm_s on every workload",
    "other": "nothing: benchmark frames and the rest of the stdlib",
}


def _per_layer():
    rows = []
    for g in GROUPS:
        rows.append((f"{g}.self_s", "s", _GROUP_MOVES[g]))
        if g in MODULES:
            rows.append((f"{g}.calls", "count", _GROUP_MOVES[g]))
    moves = {
        "rings.pack_nonneg.calls": f"cold_norm_s, warm_norm_s on {_AB}",
        "rings.kron_mul.calls": f"cold_norm_s, warm_norm_s on {_AB}; "
                                f"nothing on {_MF}",
        "rings.upoly_mul.calls": f"cold_norm_s on {_AB}",
        "rings.ttpoly_mul.calls": f"cold_norm_s on {_RT}",
        "series.mul.calls": f"cold_norm_s on {_RT}",
        "series.invert.calls": f"cold_norm_s on {_RT}",
        "series.log.calls": f"cold_norm_s on {_MF}",
        "modular.solve_exact.calls": f"cold_norm_s, ok_ratio on {_MF}",
    }
    rows += [(name, "count", moves[name]) for name in CALLS]
    rows += [
        ("rings.kron_share", "ratio",
         f"kron_mul over UPoly.__mul__ calls; cold_norm_s on {_AB}"),
        ("ucomb.cache.hit_ratio", "ratio",
         f"the cold_norm_s - warm_norm_s gap on {_AB}"),
        ("ucomb.cache.entries", "count", f"peak_rss_mib on {_AB}"),
        ("modular.basis.size", "count",
         f"largest EisensteinBasis built; cold_norm_s, ok_ratio on {_MF}"),
    ]
    rows += [(f"{path}.cum_s", "s", "cold_norm_s of the workload calling it")
             for path in CUMULATIVE]
    rows += [
        ("trace.total_s", "s", "sum of all self times in the traced pass"),
        ("trace.overhead_ratio", "ratio",
         "traced cold pass over the untraced cold pass"),
    ]
    higher = ("rings.kron_share", "ucomb.cache.hit_ratio")
    return tuple((name, unit, "higher" if name in higher else "lower", moves)
                 for name, unit, moves in rows)


# name, unit, better, which end-to-end metric it should move (and where)
PER_LAYER = _per_layer()


def _group(filename):
    """The GROUPS entry a cProfile filename belongs to."""
    if filename == "~":
        return "stdlib.builtins"
    parts = filename.replace("\\", "/").rsplit("/", 2)
    if len(parts) == 3 and parts[1] == "k3pairs" \
            and parts[2][:-3] in MODULES:
        return parts[2][:-3]
    if parts[-1] == "fractions.py":
        return "stdlib.fractions"
    return "other"


def _code_key(package, path):
    """cProfile's (filename, line, name) key of k3pairs.<path>, or None."""
    obj = package
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    if inspect.isclass(obj):
        obj = obj.__init__
    code = getattr(inspect.unwrap(obj), "__code__", None)
    if code is None:
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


def split(stats, package):
    """Aggregate cProfile ``stats`` ({key: (cc, nc, tt, ct, callers)}).

    Returns self seconds and call counts per group, the named call counts
    and the cumulative seconds of the entry functions.
    """
    out = {f"{g}.self_s": 0.0 for g in GROUPS}
    out.update({f"{m}.calls": 0 for m in MODULES})
    for (filename, _, _), (_, nc, tt, _, _) in stats.items():
        g = _group(filename)
        out[f"{g}.self_s"] += tt
        if g in MODULES:
            out[f"{g}.calls"] += nc
    out["trace.total_s"] = sum(out[f"{g}.self_s"] for g in GROUPS)
    for name, path in CALLS.items():
        row = stats.get(_code_key(package, path))
        out[name] = row[1] if row else 0
    for path in CUMULATIVE:
        row = stats.get(_code_key(package, path))
        out[f"{path}.cum_s"] = row[3] if row else 0.0
    mul = out["rings.upoly_mul.calls"]
    out["rings.kron_share"] = out["rings.kron_mul.calls"] / mul if mul else 0.0
    return out
