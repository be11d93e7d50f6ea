"""One child interpreter of the benchmark: run with a JSON spec argument.

Modes:

* ``setup`` -- import k3pairs and build the inputs, then stop;
* ``time``  -- a cold pass (every module cache empty) and, unless the spec
  says ``"warm": false``, a warm pass of the same ops in the same order;
  each op is timed between two calibration loops (calib.py) and its wall
  and CPU time are also reported scaled to the reference host speed;
* ``trace`` -- one cold pass under cProfile, split by module.

The child prints one JSON object as the last line of its standard output.
``setup_s`` runs from ``t_spawn``, the parent's CLOCK_MONOTONIC reading
taken just before it started this interpreter, so interpreter start-up is
included; ``setup_norm_s`` is the same time scaled by a calibration loop
run right after it.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join("tests", "golden", "fit_n2_r1_vmax6.json")


def _caches(package):
    """Every lru_cache table in k3pairs, found through cache_info(), so a
    cache added later is guarded too."""
    found = {}
    for modname in metrics.MODULES:
        for name, obj in vars(getattr(package, modname)).items():
            if callable(getattr(obj, "cache_info", None)):
                found[f"{modname}.{name}"] = obj
    return found


def _entries(caches, prefix=""):
    return sum(f.cache_info().currsize for n, f in caches.items()
               if n.startswith(prefix))


def _cpu():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_pass(ops, ctx, calibrated=False):
    """Run the ops once; with ``calibrated``, time each op between two
    calibration loops and add its raw and scaled wall and CPU seconds."""
    tally = {"attempted": 0, "ok": 0, "failed": 0, "problems": [],
             "wall_s": 0.0, "cpu_s": 0.0, "norm_s": 0.0, "cpu_norm_s": 0.0,
             "loop_s": []}
    if calibrated:
        tally["loop_s"].append(calib.loop_s())
    for op in ops:
        tally["attempted"] += 1
        t0, c0 = time.perf_counter(), _cpu()
        try:
            status, problem = op.run(ctx)
        except Exception:  # an op that raised counts as failed, run goes on
            tally["failed"] += 1
            sys.stderr.write(f"op {op.name} raised:\n"
                             + traceback.format_exc())
            status, problem = None, None
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        tally["wall_s"] += wall
        tally["cpu_s"] += cpu
        if calibrated:
            tally["loop_s"].append(calib.loop_s())
            scale = calib.REF_S / statistics.mean(tally["loop_s"][-2:])
            tally["norm_s"] += wall * scale
            tally["cpu_norm_s"] += cpu * scale
        if status == workloads.OK:
            tally["ok"] += 1
        if problem is not None:
            tally["problems"].append(f"{op.name}: {problem}")
    return tally


def _record_basis_sizes(package, sizes):
    """Append len() of every EisensteinBasis built from now on to sizes."""
    cls = getattr(package.modular, "EisensteinBasis", None)
    if cls is None:
        return
    init = cls.__init__

    def recording_init(basis, *args, **kwargs):
        init(basis, *args, **kwargs)
        sizes.append(len(basis))
    cls.__init__ = recording_init


def _trace(ops, ctx, package, caches):
    import cProfile
    import pstats
    sizes = []
    _record_basis_sizes(package, sizes)
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    tally = run_pass(ops, ctx)
    prof.disable()
    wall = time.perf_counter() - t0
    layers = metrics.split(pstats.Stats(prof).stats, package)
    hits = misses = 0
    for name, f in caches.items():
        if name.startswith("ucomb."):
            info = f.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
    layers["ucomb.cache.hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    layers["ucomb.cache.entries"] = _entries(caches, "ucomb.")
    layers["modular.basis.size"] = max(sizes, default=0)
    return {"traced_s": wall, "layers": layers, "cold": tally}


def main():
    spec = json.loads(sys.argv[1])
    import k3pairs
    import k3pairs.cli  # noqa: F401  (every module the ops reach)
    ops = workloads.build_ops(spec["workload"], spec["seed"], spec["smoke"])
    with open(GOLDEN, encoding="utf-8") as fh:
        ctx = {"golden": fh.read()}
    out = {"setup_s": time.monotonic() - spec["t_spawn"]}
    out["setup_norm_s"] = out["setup_s"] * calib.REF_S / calib.loop_s()
    if spec["mode"] != "setup":
        caches = _caches(k3pairs)
        # cold must mean cold: no table may hold an entry before the pass
        out["guard"] = [] if _entries(caches) == 0 else \
            [f"caches hold {_entries(caches)} entries before the cold pass"]
        if spec["mode"] == "trace":
            out.update(_trace(ops, ctx, k3pairs, caches))
        else:
            out["cold"] = run_pass(ops, ctx, calibrated=True)
            if spec.get("warm", True):
                if _entries(caches) == 0:
                    out["guard"].append("caches are empty before the warm "
                                        "pass")
                out["warm"] = run_pass(ops, ctx, calibrated=True)
            out["peak_rss_mib"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
