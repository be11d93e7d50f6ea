"""Batch command-line interface.

Four subcommands: ``table`` writes invariant tables of the coherent-
system moduli, ``verify`` drives the named identity suites, ``fit``
writes each v-expansion coefficient as the polynomial in E2, E4 and E6
that the closed form gives, checked against the series and refused
above the weight ceiling, and ``series`` dumps the coefficients of the
normalized counting series itself.  Output is CSV or JSON,
deterministic byte for byte for a fixed configuration.

Exit codes: 0 success, 1 identity or fit failure, 2 configuration
error (the message names the violated constraint).
"""

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass

from .errors import NoSolution, ValidationFailure
from .modular import TEST_QORDER, _fit_columns
from .partition import g_closed, syst_table
from .verify import SUITES, check_bounds, run_suite

__all__ = ["RunConfig", "build_parser", "main",
           "cmd_table", "cmd_verify", "cmd_fit", "cmd_series"]

# the fit report's "fit_qorder" key: the window of the elimination that fit
# ran before it read the closed form, kept so the report's format stays
FIT_QORDER = 20


@dataclass
class RunConfig:
    """One resolved invocation; validate() names the violated constraint."""

    command: str
    n: int = 1
    r: int = 0
    gmax: int = 2
    kmin: int = -2
    kmax: int = 2
    qorder: int = 10
    ywin: int = 8
    vorder: int = 8
    weight_bound: int = 12
    vmax: int = 6
    cutoff: int = 12
    suite: str = "all"
    hodge: bool = False
    format: str = "csv"
    output: str | None = None

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"rank n must be >= 1 (got {self.n})")
        if not 0 <= self.r <= self.n:
            raise ValueError(
                f"rank constraint 0 <= r <= n violated (n={self.n}, "
                f"r={self.r})")
        if self.qorder < 0:
            raise ValueError(f"qorder must be >= 0 (got {self.qorder})")
        if self.ywin < 0:
            raise ValueError(f"ywin must be >= 0 (got {self.ywin})")
        if self.kmin > self.kmax:
            raise ValueError(
                f"k-range constraint kmin <= kmax violated "
                f"(kmin={self.kmin}, kmax={self.kmax})")
        if self.gmax < 0:
            raise ValueError(f"gmax must be >= 0 (got {self.gmax})")
        if self.vorder < 0:
            raise ValueError(f"vorder must be >= 0 (got {self.vorder})")
        if self.command == "verify":
            check_bounds(self.suite, self.n, self.qorder, self.ywin,
                         self.vorder, self.cutoff)
        if self.vmax < 0:
            raise ValueError(f"vmax must be >= 0 (got {self.vmax})")
        if self.weight_bound < 0:
            raise ValueError(
                f"weight ceiling must be >= 0 (got {self.weight_bound})")
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; pick one of "
                             + ", ".join(SUITES))
        if self.output is not None:
            _check_output_path(self.output)


def _check_output_path(path: str) -> None:
    """Refuse an --out path that cannot be written, before any work."""
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    # abspath drops a trailing separator, so check the name first
    if not os.path.basename(path):
        raise ValueError(f"output path {path!r} names no file")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"output directory {parent!r} does not exist")
    if not os.access(parent, os.W_OK):
        raise ValueError(f"output directory {parent!r} is not writable")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render_rows(rows: list, fields: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": rows}, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(",".join(fields) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(row[f]) for f in fields) + "\n")
    return buf.getvalue()


def _csv_cell(v) -> str:
    s = str(v)
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def cmd_table(cfg: RunConfig) -> int:
    rows = syst_table(cfg.n, cfg.r, cfg.gmax, cfg.kmin, cfg.kmax,
                      hodge=cfg.hodge)
    _emit(_render_rows(rows, ["n", "r", "g", "k", "value"], cfg.format),
          cfg.output)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    rep = run_suite(cfg.suite, n=cfg.n, qorder=cfg.qorder, ywin=cfg.ywin,
                    vorder=cfg.vorder, cutoff=cfg.cutoff)
    lines = []
    for item in rep["results"]:
        if item["ok"]:
            lines.append(f"ok   {item['suite']}: {item['check']}")
        else:
            lines.append(f"FAIL {item['suite']}: {item['check']}")
            lines.append(f"     {item['message']}")
    lines.append(f"{'all passed' if rep['ok'] else 'FAILED'} "
                 f"({len(rep['results'])} checks)")
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0 if rep["ok"] else 1


def cmd_fit(cfg: RunConfig) -> int:
    fits = []
    try:
        for fit in _fit_columns(cfg.n, cfg.r, range(cfg.vmax + 1),
                                TEST_QORDER, cfg.weight_bound):
            fits.append(fit)
    except (NoSolution, ValidationFailure) as ex:
        # the columns run from s = 0, so the one that failed is the next
        sys.stderr.write(
            f"fit failed at v-power s={len(fits)}: "
            f"{type(ex).__name__}: {ex}\n")
        return 1
    out = json.dumps({
        "n": cfg.n, "r": cfg.r, "vmax": cfg.vmax,
        "weight_ceiling": cfg.weight_bound,
        "fit_qorder": FIT_QORDER, "validated_to_qorder": TEST_QORDER,
        "fits": fits}, indent=2) + "\n"
    _emit(out, cfg.output)
    return 0


def cmd_series(cfg: RunConfig) -> int:
    pf = g_closed(cfg.n, cfg.r, cfg.qorder, cfg.ywin)
    cells = []
    for m in range(cfg.qorder):
        col = pf.coeff(m)
        if not col:
            continue
        for ye in range(-cfg.ywin, cfg.ywin + 1):
            c = col.coeff(ye)
            if c:
                cells.append({"n": cfg.n, "r": cfg.r, "q": m, "y": ye,
                              "value": str(c)})
    if cfg.format == "json":
        out = json.dumps({"n": cfg.n, "r": cfg.r, "qorder": cfg.qorder,
                          "ywin": cfg.ywin, "cells": cells},
                         indent=2) + "\n"
    else:
        out = _render_rows(cells, ["n", "r", "q", "y", "value"], "csv")
    _emit(out, cfg.output)
    return 0


def _add_rank_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=1, help="rank (default 1)")
    p.add_argument("--r", type=int, default=0,
                   help="sub-rank, 0 <= r <= n (default 0)")


def _add_order_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qorder", type=int, default=10,
                   help="q-truncation order, exclusive (default 10)")
    p.add_argument("--ywin", type=int, default=8,
                   help="symmetric y-window (default 8)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", dest="output", default=None,
                   help="output path (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="k3pairs",
        description="Exact tables, verification suites, and Eisenstein "
                    "fits for the higher-rank counting series.")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="invariant table of the coherent-"
                                     "system moduli")
    _add_rank_flags(t)
    t.add_argument("--gmax", type=int, default=2,
                   help="largest genus row (default 2)")
    t.add_argument("--kmin", type=int, default=-2,
                   help="smallest k column (default -2)")
    t.add_argument("--kmax", type=int, default=2,
                   help="largest k column (default 2)")
    grp = t.add_mutually_exclusive_group()
    grp.add_argument("--euler", dest="hodge", action="store_false",
                     help="Euler characteristics (default)")
    grp.add_argument("--hodge", dest="hodge", action="store_true",
                     help="Hodge polynomials as strings")
    t.set_defaults(hodge=False)
    _add_output_flags(t)

    v = sub.add_parser("verify", help="run a named identity suite")
    v.add_argument("--suite", choices=SUITES, default="all",
                   help="suite name (default all)")
    v.add_argument("--n", type=int, default=2,
                   help="largest rank exercised (default 2)")
    _add_order_flags(v)
    v.add_argument("--vorder", type=int, default=8,
                   help="v-truncation order, exclusive (default 8)")
    v.add_argument("--cutoff", type=int, default=12,
                   help="index cutoff for the transfer-matrix suite "
                        "(default 12)")
    v.add_argument("--out", dest="output", default=None,
                   help="output path (default: standard output)")

    f = sub.add_parser("fit", help="v-expansion coefficients as "
                                   "polynomials in E2, E4 and E6")
    _add_rank_flags(f)
    f.add_argument("--vmax", type=int, default=6,
                   help="largest v-power fitted (default 6)")
    f.add_argument("--weight", dest="weight_bound", type=int, default=12,
                   help="weight ceiling (default 12)")
    f.add_argument("--out", dest="output", default=None,
                   help="output path (default: standard output)")

    s = sub.add_parser("series", help="dump the coefficients of the "
                                      "normalized counting series")
    _add_rank_flags(s)
    _add_order_flags(s)
    _add_output_flags(s)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kwargs = {k: v for k, v in vars(args).items() if v is not None}
    cfg = RunConfig(**kwargs)
    try:
        cfg.validate()
    except ValueError as ex:
        sys.stderr.write(f"config error: {ex}\n")
        return 2
    return {"table": cmd_table, "verify": cmd_verify,
            "fit": cmd_fit, "series": cmd_series}[cfg.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
