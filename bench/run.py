"""Benchmark of k3pairs: end-to-end timings per workload, or a module split.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ab-identity --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload modular-fits --trace 1
    python3 bench/run.py --report [--smoke]   # every metric of every workload
    python3 bench/run.py --list               # the metric catalogue

``--trace 0`` measures for ``--seconds`` seconds: it starts short setup-only
interpreters, then one fresh interpreter after another, each making a cold
and a warm pass, and reports medians of the end-to-end metrics.  Pass times
are scaled to a reference host speed by a calibration loop timed around
every op (calib.py), because the speed of a shared host drifts by up to a
factor of two; the unscaled times are in the record line.  ``--trace 1``
makes one untraced and one cProfile-traced cold pass and reports the
per-layer metrics.  Children run one at a time, single-threaded, with
PYTHONPATH=src, so nothing is installed.  ``--smoke`` shrinks every op so
that a run takes seconds; it is for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full
record (environment, samples, checks).  A wrong output or a failed cache
guard sets correct to false.  ``failed`` counts ops that raised or exited
nonzero against their reference; the documented spurious fit failure of
modular-fits is its reference outcome and lowers ok_ratio instead.  The
default seed is 0.  The exit code is 2 when the checkout lacks
the package, and 3 when a child interpreter crashed or ran out of time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
REQUIRED = (Path("src", "k3pairs", "__init__.py"),
            Path("tests", "golden", "fit_n2_r1_vmax6.json"))
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s, children included


class ChildError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec, deadline):
    """Start one child interpreter, wait for it, return its JSON result."""
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as ex:
        raise ChildError(f"{spec['mode']} child ran past the run limit") \
            from ex
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{spec['mode']} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit():
    """HEAD of the checkout when it is a git repository, else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment():
    return {"commit": _commit(), "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "loadavg_before": os.getloadavg()}


def _tally(children, passes=("cold", "warm")):
    att = ok = failed = 0
    problems = []
    for c in children:
        problems += c.get("guard", [])
        for p in passes:
            if p in c:
                att += c[p]["attempted"]
                ok += c[p]["ok"]
                failed += c[p]["failed"]
                problems += c[p]["problems"]
    return att, ok, failed, problems


def measure(spec, seconds, deadline):
    """Untraced run: setup probes, then cold+warm children for `seconds`."""
    setup_spec = dict(spec, mode="setup")
    run_child(setup_spec, deadline)  # writes bytecode caches; not measured
    setups = [run_child(setup_spec, deadline)
              for _ in range(SETUP_PROBES)]
    children, start, longest = [], time.monotonic(), 0.0
    while not children or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        children.append(run_child(dict(spec, mode="time"), deadline))
        longest = max(longest, time.monotonic() - t0)
    setups += children
    att, ok, failed, problems = _tally(children)
    per_child = {
        "cold_norm_s": [c["cold"]["norm_s"] for c in children],
        "warm_norm_s": [c["warm"]["norm_s"] for c in children],
        "cpu_cold_norm_s": [c["cold"]["cpu_norm_s"] for c in children],
        "peak_rss_mib": [c["peak_rss_mib"] for c in children],
    }
    values = {name: statistics.median(v) for name, v in per_child.items()}
    values["setup_s"] = statistics.median(c["setup_norm_s"] for c in setups)
    values["ok_ratio"] = ok / att
    # the unscaled times and the calibration loops, for the record
    samples = dict(per_child, children=len(children),
                   setup_norm_s=[c["setup_norm_s"] for c in setups],
                   setup_s=[c["setup_s"] for c in setups],
                   wall_cold_s=[c["cold"]["wall_s"] for c in children],
                   wall_warm_s=[c["warm"]["wall_s"] for c in children],
                   cpu_cold_s=[c["cold"]["cpu_s"] for c in children],
                   loop_s=[c["cold"]["loop_s"] + c["warm"]["loop_s"]
                           for c in children])
    return values, (att, failed, problems), samples


def trace(spec, deadline):
    """Traced run: one untraced cold pass, then one cProfile'd cold pass."""
    plain = run_child(dict(spec, mode="time", warm=False), deadline)
    traced = run_child(dict(spec, mode="trace"), deadline)
    values = dict(traced["layers"])
    untraced = plain["cold"]["wall_s"]
    values["trace.overhead_ratio"] = traced["traced_s"] / untraced
    att, _, failed, problems = _tally([plain, traced], ("cold",))
    samples = {"untraced_cold_s": untraced,
               "traced_cold_s": traced["traced_s"]}
    return values, (att, failed, problems), samples


def run(workload, seed, seconds, traced, smoke):
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    spec = {"workload": workload, "seed": seed, "smoke": smoke}
    values, (att, failed, problems), samples = \
        trace(spec, deadline) if traced else measure(spec, seconds, deadline)
    env["loadavg_after"] = os.getloadavg()
    catalogue = metrics.PER_LAYER if traced else metrics.END_TO_END
    values = {row[0]: values[row[0]] for row in catalogue}
    units = {row[0]: row[1] for row in catalogue}
    for p in problems:
        sys.stderr.write(f"wrong output: {p}\n")
    for name, v in values.items():
        print(f"{workload:>13} {name:<40} {v:>14.6g} {units[name]}")
    result = {"correct": not problems, "attempted": att, "failed": failed,
              "metrics": {name: {"value": v, "unit": units[name]}
                          for name, v in values.items()}}
    print(json.dumps({"workload": workload, "seed": seed,
                      "seconds": seconds, "trace": int(traced),
                      "smoke": smoke, "environment": env,
                      "samples": samples, "problems": problems}))
    return result


def list_metrics():
    for name, unit, better, bound, what in metrics.END_TO_END:
        print(f"end_to_end {name:<36} {unit:<6} {better} is better, "
              f"bound {bound}: {what}")
    for name, unit, better, moves in metrics.PER_LAYER:
        print(f"per_layer  {name:<36} {unit:<6} {better} is better, "
              f"moves {moves}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny ops, for the benchmark's own tests")
    ap.add_argument("--report", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--list", action="store_true",
                    help="print the metric catalogue and exit")
    args = ap.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if not (args.report or args.workload):
        ap.error("give --workload, --report or --list")
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write("not a k3pairs checkout, missing: "
                         + ", ".join(missing) + "\n")
        return 2
    jobs = [(w, t) for w in WORKLOADS for t in (False, True)] \
        if args.report else [(args.workload, bool(args.trace))]
    try:
        results = [run(w, args.seed, args.seconds, t, args.smoke)
                   for w, t in jobs]
    except ChildError as ex:
        sys.stderr.write(f"benchmark run failed: {ex}\n")
        return 3
    if not args.report:
        print(json.dumps(results[0]))
        return 0
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
