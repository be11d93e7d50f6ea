"""End-to-end tests for the command-line interface.

Every test drives ``k3pairs.cli.main`` with an argv list and checks the
exit code plus whatever landed on stdout/stderr or in ``--out`` files.
Golden-file comparisons are byte-exact: the CLI promises deterministic
output for identical arguments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from k3pairs import reset_caches
from k3pairs.cli import FIT_QORDER, TEST_QORDER, build_parser, main
from k3pairs.errors import Mismatch
from k3pairs.verify import SUITES, check_bounds, run_suite

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# table


def test_table_rank_one_euler_cells(capsys):
    code, out, _ = _run(
        capsys, ["table", "--n", "1", "--r", "0", "--gmax", "1", "--kmin", "0", "--kmax", "1"]
    )
    assert code == 0
    rows = {(r["g"], r["k"]): r["value"] for r in _csv_rows(out)}
    assert rows[("0", "1")] == "1"
    assert rows[("1", "1")] == "24"


def test_table_header_and_row_count(capsys):
    code, out, _ = _run(
        capsys, ["table", "--n", "2", "--r", "1", "--gmax", "2", "--kmin", "-1", "--kmax", "2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,r,g,k,value"
    # three genera times four twists
    assert len(lines) == 1 + 3 * 4


def test_table_hodge_switch(capsys):
    code, out, _ = _run(
        capsys,
        ["table", "--n", "1", "--r", "0", "--gmax", "1", "--kmin", "1", "--kmax", "1", "--hodge"],
    )
    assert code == 0
    rows = {r["g"]: r["value"] for r in _csv_rows(out)}
    assert rows["0"] == "1"
    assert rows["1"] == "1+tb^2+20*t*tb+t^2+t^2*tb^2"


def test_table_rank_out_of_range_is_config_error(capsys):
    code, _, err = _run(capsys, ["table", "--n", "2", "--r", "3"])
    assert code == 2
    assert "config error" in err
    assert "0 <= r <= n" in err


def test_table_euler_hodge_mutually_exclusive():
    with pytest.raises(SystemExit) as e:
        main(["table", "--n", "1", "--r", "0", "--euler", "--hodge"])
    assert e.value.code == 2


def test_table_json_format(capsys):
    code, out, _ = _run(
        capsys,
        ["table", "--n", "1", "--r", "1", "--gmax", "1", "--kmin", "1", "--kmax", "1",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert {row["g"] for row in doc["rows"]} == {0, 1}
    assert all(row["n"] == 1 and row["r"] == 1 for row in doc["rows"])


@pytest.mark.parametrize(
    "argv", [["table"], ["series"], ["fit"], ["verify", "--suite", "routes"]],
    ids=["table", "series", "fit", "verify"],
)
def test_rank_zero_is_config_error(capsys, argv):
    code, _, err = _run(capsys, argv + ["--n", "0"])
    assert code == 2
    assert "n must be >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [(["--suite", "ucomb", "--cutoff", "-1"], "cutoff"),
     (["--suite", "theta", "--qorder", "0"], "qorder"),
     (["--suite", "theta", "--qorder", "1"], "qorder"),
     (["--suite", "modularity", "--vorder", "0"], "vorder"),
     (["--suite", "modularity", "--qorder", "0"], "qorder"),
     (["--suite", "modularity", "--qorder", "1"], "qorder"),
     (["--suite", "all", "--qorder", "1"], "qorder"),
     (["--suite", "routes", "--ywin", "-1"], "ywin"),
     (["--suite", "theta", "--ywin", "-1"], "ywin")],
    ids=["ucomb-cutoff", "theta-qorder", "theta-qorder-1",
         "modularity-vorder", "modularity-qorder", "modularity-qorder-1",
         "all-qorder-1", "routes-ywin-negative", "theta-ywin-negative"],
)
def test_verify_bound_that_compares_nothing_is_config_error(capsys, argv,
                                                            flag):
    code, out, err = _run(capsys, ["verify"] + argv)
    assert code == 2
    assert out == ""
    assert f"{flag} must be >=" in err
    assert "Traceback" not in err
    with pytest.raises(ValueError, match=flag):
        run_suite(argv[1], **{flag: int(argv[3])})
    # refused up front, before any check runs
    bounds = dict(n=2, qorder=10, ywin=8, vorder=8, cutoff=12)
    bounds[flag] = int(argv[3])
    with pytest.raises(ValueError, match=f"{flag} must be >="):
        check_bounds(argv[1], **bounds)


@pytest.mark.parametrize(
    "argv, last",
    [(["--suite", "ucomb", "--qorder", "0"], "all passed (1 checks)"),
     (["--suite", "routes", "--n", "2", "--vorder", "0"],
      "all passed (5 checks)")],
    ids=["ucomb-qorder-0", "routes-vorder-0"],
)
def test_verify_bound_of_a_flag_the_suite_never_reads_is_accepted(
        capsys, argv, last):
    """The ucomb suite reads no qorder and the routes suite no vorder, so
    a value that would compare nothing elsewhere runs them unchanged."""
    code, out, err = _run(capsys, ["verify"] + argv)
    assert code == 0, err
    assert out.rstrip().splitlines()[-1] == last


@pytest.mark.parametrize(
    "argv, rank, need",
    [(["--suite", "routes", "--n", "4", "--qorder", "4"], (4, 2), 5),
     (["--suite", "duality", "--n", "4", "--qorder", "4"], (4, 2), 5),
     (["--suite", "all", "--n", "4", "--qorder", "4"], (4, 2), 5),
     (["--suite", "routes", "--n", "1", "--qorder", "1", "--ywin", "0"],
      (1, 0), 2),
     (["--suite", "routes", "--n", "4", "--qorder", "4", "--ywin", "1"],
      (3, 0), 13)],
    ids=["routes-n4-qorder-4", "duality-n4-qorder-4", "all-n4-qorder-4",
         "routes-n1-qorder-1-ywin-0", "routes-n4-qorder-4-ywin-1"],
)
def test_verify_rank_whose_routes_are_empty_is_config_error(capsys, argv,
                                                            rank, need):
    """A rank with no lattice term p >= n - r, l >= r, pl < qorder,
    |p - l| <= ywin leaves all three routes empty, so its route and
    duality checks would compare nothing: the run exits 2 naming the
    first such rank and the least qorder that gives every rank a term
    (at ywin 1, rank (4, 0) needs more than the first empty one)."""
    from k3pairs.partition import g_closed, g_via_kernels, g_via_matrices

    opts = dict(zip(argv[::2], argv[1::2]))
    suite, n = opts["--suite"], int(opts["--n"])
    qorder, ywin = int(opts["--qorder"]), int(opts.get("--ywin", 8))
    code, out, err = _run(capsys, ["verify"] + argv)
    assert code == 2
    assert out == ""
    assert f"qorder must be >= {need} at ywin {ywin} (got {qorder})" in err
    assert f"rank {rank} has no lattice term" in err
    assert "Traceback" not in err
    for route in (g_closed, g_via_kernels, g_via_matrices):
        assert not any(route(*rank, qorder, ywin).coeffs), route.__name__
    with pytest.raises(ValueError, match=re.escape(f"rank {rank}")):
        run_suite(suite, n=n, qorder=qorder, ywin=ywin)
    assert run_suite(suite, n=n, qorder=need, ywin=ywin)["ok"]


@pytest.mark.parametrize(
    "argv, out, message",
    [(["fit", "--n", "1", "--vmax", "1"], "{tmp}/missing/x.json",
      "does not exist"),
     (["table", "--n", "1"], "{tmp}/missing/x.csv", "does not exist"),
     (["table", "--n", "1"], "{tmp}/.", "is a directory"),
     (["table", "--n", "1"], "", "'' names no file"),
     (["table", "--n", "1"], "{tmp}/newdir/", "/newdir/' names no file")],
    ids=["fit", "table", "table-directory", "table-empty",
         "table-trailing-separator"],
)
def test_out_path_that_cannot_be_written_is_config_error(capsys, tmp_path,
                                                         argv, out, message):
    out = out.format(tmp=tmp_path)
    code, stdout, err = _run(capsys, argv + ["--out", out])
    assert code == 2
    assert stdout == ""
    assert err.startswith("config error: output ")
    assert message in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_table_negative_gmax_is_config_error(capsys):
    code, _, err = _run(capsys, ["table", "--n", "1", "--r", "0", "--gmax", "-1"])
    assert code == 2
    assert "gmax" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_ucomb_suite_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "ucomb", "--cutoff", "40"])
    assert code == 0
    assert "ok   ucomb" in out
    assert out.rstrip().endswith("checks)")


def test_verify_negative_qorder_is_config_error(capsys):
    code, _, err = _run(capsys, ["verify", "--suite", "theta", "--qorder", "-1"])
    assert code == 2
    assert "qorder" in err


def test_verify_routes_small(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--suite", "routes", "--n", "2", "--qorder", "6", "--ywin", "5"]
    )
    assert code == 0
    # ranks (1,0), (1,1), (2,0), (2,1), (2,2)
    assert out.count("ok   routes") == 5


def test_verify_duality_small(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--suite", "duality", "--n", "2", "--qorder", "6", "--ywin", "5"]
    )
    assert code == 0
    assert "all passed" in out


def test_verify_theta_small(capsys):
    # --ywin 0 leaves psi's q^0 column empty (stored as a bare 0)
    for ywin in ("6", "0"):
        code, out, err = _run(
            capsys, ["verify", "--suite", "theta", "--qorder", "6", "--ywin", ywin]
        )
        assert code == 0, ywin
        assert "rank-one product bridge" in out
        assert "all passed" in out
        assert "Traceback" not in out + err


def test_verify_theta_catches_a_broken_bilateral_unit(capsys, monkeypatch):
    import k3pairs.verify
    from k3pairs.rings import UPoly, YPoly

    real = k3pairs.verify._bilateral_unit

    def broken(mono, ywin):
        return real(mono, ywin) + YPoly({1: UPoly.u(2)})  # plus u*y

    monkeypatch.setattr(k3pairs.verify, "_bilateral_unit", broken)
    code, out, _ = _run(
        capsys, ["verify", "--suite", "theta", "--qorder", "6", "--ywin", "6"]
    )
    assert code == 1
    assert "FAIL theta: kernel vs bilateral quotient, argument pair 1" in out
    report = run_suite("theta", qorder=6, ywin=6)
    assert report["results"][-1]["location"] == {"q": 0, "y": 1, "u2": 2}


def test_verify_modularity_rank_one_passes(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--suite", "modularity", "--n", "1", "--qorder", "6", "--vorder", "5"],
    )
    assert code == 0
    assert "all passed" in out


def test_verify_modularity_rank_two_passes(capsys):
    # Odd v-cells survive at the boundary ranks (2, 0) and (2, 2), purely
    # imaginary and mirrored by the rank-reversal duality; that is the
    # rule the suite checks, so correct mathematics passes.
    code, out, _ = _run(
        capsys,
        ["verify", "--suite", "modularity", "--n", "2", "--qorder", "6", "--vorder", "5"],
    )
    assert code == 0
    assert "ok   modularity: v-expansion mirror symmetry at rank (2, 0)" in out
    assert "all passed" in out


def test_verify_modularity_checks_every_rank_up_to_n(capsys):
    # the mirror checks run for every rank up to --n, n = 4 included:
    # five checks more than the fourteen of --n 3
    code, out, _ = _run(capsys, ["verify", "--suite", "modularity", "--n", "4"])
    assert code == 0
    for r in range(5):
        assert f"ok   modularity: v-expansion mirror symmetry at rank (4, {r})\n" in out
    assert out.endswith("all passed (19 checks)\n")


@pytest.mark.parametrize(
    "perturb", [lambda c: c * 2, lambda c: c + 1], ids=["mirror", "i-power"]
)
def test_verify_modularity_catches_a_broken_odd_cell(capsys, monkeypatch, perturb):
    # v^3 q^2 at (2, 0) is 3i, stored as -3 (i^3 = -i): doubling it, or
    # adding 1 to the stored rational (-i to the value), breaks the mirror
    # with (2, 2)
    import k3pairs.modular
    import k3pairs.verify

    real = k3pairs.modular.v_partition_series.__wrapped__  # not the memo's

    def broken(n, r, qorder, vorder):
        f = real(n, r, qorder, vorder)
        if (n, r) == (2, 0):
            col = f.coeff(3)
            col.coeffs[2] = perturb(col.coeff(2))
        return f

    monkeypatch.setattr(k3pairs.modular, "v_partition_series", broken)
    monkeypatch.setattr(k3pairs.verify, "v_partition_series", broken)
    code, out, _ = _run(
        capsys,
        ["verify", "--suite", "modularity", "--n", "2", "--qorder", "6", "--vorder", "5"],
    )
    assert code == 1
    assert "FAIL modularity: v-expansion mirror symmetry at rank (2, 0)" in out
    assert "'v': 3" in out and "'q': 2" in out
    assert "FAILED" in out


def test_mirror_check_catches_a_mirrored_odd_cell_at_rank_one(monkeypatch):
    # a v^3 q^2 cell put at (1, 0) and its mirror image at (1, 1) passes
    # the mirror comparison; only the evenness of rank one catches it.  At
    # (2, 1) the mirror rank is the rank itself, so the mirror comparison
    # is the evenness check and catches the odd cell there
    import k3pairs.modular
    import k3pairs.verify

    real = k3pairs.modular.v_partition_series.__wrapped__  # not the memo's

    def broken(n, r, qorder, vorder):
        f = real(n, r, qorder, vorder)
        f.coeff(3).coeffs[2] += 1 if r == 0 else -1
        return f

    monkeypatch.setattr(k3pairs.modular, "v_partition_series", broken)
    monkeypatch.setattr(k3pairs.verify, "v_partition_series", broken)
    for r in (0, 1):
        with pytest.raises(Mismatch, match="i\\^s rule") as e:
            k3pairs.verify._mirror_symmetry(1, r, 6, 5)
        assert e.value.location == {"v": 3, "q": 2}
    with pytest.raises(Mismatch) as e:
        k3pairs.verify._mirror_symmetry(2, 1, 6, 5)
    assert e.value.location == {"v": 3, "q": 2}


def test_modularity_suite_expands_each_v_series_once():
    # nine ranks (n, r) with n <= 3, each expanded once whether its check
    # or its mirror's asks first; the Eisenstein exponential reads rank
    # (1, 0)'s at the same bounds
    from k3pairs.modular import v_partition_series

    reset_caches()
    assert run_suite("modularity", n=3)["ok"]
    assert v_partition_series.cache_info().misses == 9


def test_a_run_builds_each_closed_form_and_v_series_once():
    # fourteen ranks (n, r) with n <= 4: route agreement and duality read
    # one set of closed-route cells per rank, and the rank-one product
    # bridge one more at ywin + 1; the mirror checks one v-expansion per
    # rank, which the rank-one Eisenstein check shares.  A second run at
    # the same bounds builds nothing new, one at other bounds its own
    from k3pairs.modular import v_partition_series
    from k3pairs.partition import _closed_cells

    reset_caches()
    report = run_suite("all", n=4)
    assert report["ok"] and len(report["results"]) == 52
    assert all(row["ok"] for row in report["results"])
    assert _closed_cells.cache_info().misses == 14 + 1
    assert v_partition_series.cache_info().misses == 14
    assert run_suite("duality", n=4)["ok"]
    assert _closed_cells.cache_info().misses == 14 + 1
    assert run_suite("duality", n=4, qorder=8)["ok"]
    assert _closed_cells.cache_info().misses == 28 + 1


def test_verify_unknown_suite_rejected_by_parser():
    with pytest.raises(SystemExit) as e:
        main(["verify", "--suite", "bogus"])
    assert e.value.code == 2


def test_verify_writes_report_to_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = _run(
        capsys,
        ["verify", "--suite", "ucomb", "--cutoff", "12", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert "ok   ucomb" in target.read_text()


# ---------------------------------------------------------------------------
# fit


def test_fit_rank_one_combinations(capsys):
    code, out, _ = _run(capsys, ["fit", "--n", "1", "--r", "0", "--vmax", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["fit_qorder"] == FIT_QORDER
    assert doc["validated_to_qorder"] == TEST_QORDER
    by_s = {fit["s"]: fit["combination"] for fit in doc["fits"]}
    assert by_s[0] == [{"monomial": "1", "coeff": "-1"}]
    assert by_s[1] == [] and by_s[3] == []
    assert by_s[2] == [{"monomial": "E2", "coeff": "-1/12"}]
    assert {c["monomial"]: c["coeff"] for c in by_s[4]} == {
        "E2^2": "-1/288",
        "E4": "-1/1440",
    }


def test_fit_weight_ceiling_zero_fails(capsys):
    code, _, err = _run(
        capsys, ["fit", "--n", "1", "--r", "0", "--vmax", "2", "--weight", "0"]
    )
    assert code == 1
    assert "s=2" in err
    assert "NoSolution" in err


def test_fit_validation_failure_names_its_location(capsys, monkeypatch):
    # a closed v^2 column one too large in its constant term disagrees
    # with the series at q^0
    import k3pairs.modular as modular
    from k3pairs.errors import ValidationFailure

    real = modular._closed_v_columns

    def lying(n, r, ss):
        out = real(n, r, ss)
        if 2 in out:
            out[2][(0, 0, 0)] = out[2].get((0, 0, 0), 0) + 1
        return out

    monkeypatch.setattr(modular, "_closed_v_columns", lying)
    code, out, err = _run(capsys, ["fit", "--n", "2", "--r", "1", "--vmax", "4"])
    assert (code, out) == (1, "")
    assert "s=2: ValidationFailure" in err
    assert "{'v': 2, 'q': 0}" in err
    with pytest.raises(ValidationFailure) as e:
        modular.fit_v_coefficient(2, 1, 2)
    assert e.value.location == {"v": 2, "q": 0}


def test_fit_matches_golden_file(capsys, tmp_path):
    target = tmp_path / "fit.json"
    code, out, _ = _run(
        capsys, ["fit", "--n", "2", "--r", "1", "--vmax", "6", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    golden = (GOLDEN / "fit_n2_r1_vmax6.json").read_bytes()
    assert target.read_bytes() == golden


def test_fit_past_the_expected_weight_matches_golden_file(capsys):
    # from s = 2 on, the columns at (n, r) have weight s + 2n - 2 at even s
    # and s + 2n - 3 at odd s, past s + 2 for n >= 3; the (4, 1) file has
    # fractional coefficients in 49 lines
    for n, r in ((3, 0), (4, 1)):
        code, out, err = _run(
            capsys, ["fit", "--n", str(n), "--r", str(r), "--vmax", "6"])
        assert (code, err) == (0, ""), (n, r)
        golden = GOLDEN / f"fit_n{n}_r{r}_vmax6.json"
        assert out.encode() == golden.read_bytes(), (n, r)


@pytest.mark.parametrize("argv, name", [
    (["table", "--n", "3", "--r", "1", "--gmax", "8", "--hodge"],
     "table_n3_r1_g8_hodge.csv"),
    (["series", "--n", "3", "--r", "3", "--qorder", "10", "--ywin", "8"],
     "series_n3_r3_q10_y8.csv"),
    (["table", "--n", "4", "--r", "1", "--gmax", "12", "--kmin", "-4",
      "--kmax", "1", "--hodge"], "table_n4_r1_g12_km4_1_hodge.csv"),
    (["table", "--n", "3", "--r", "1", "--gmax", "20", "--kmin", "-6",
      "--kmax", "6"], "table_n3_r1_g20_km6_6_euler.csv"),
], ids=["table", "series", "table-negative-k", "table-euler"])
def test_printed_rings_match_golden_files(capsys, argv, name):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_fit_repeat_runs_byte_identical(capsys, tmp_path):
    argv = ["fit", "--n", "1", "--r", "1", "--vmax", "3"]
    first = _run(capsys, argv)
    second = _run(capsys, argv)
    assert first == second == (0, first[1], "")


def test_fit_negative_vmax_is_config_error(capsys):
    code, _, err = _run(capsys, ["fit", "--n", "1", "--r", "0", "--vmax", "-2"])
    assert code == 2
    assert "vmax" in err


# ---------------------------------------------------------------------------
# series


def test_series_csv_shape(capsys):
    code, out, _ = _run(
        capsys, ["series", "--n", "2", "--r", "1", "--qorder", "4", "--ywin", "3"]
    )
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == {"n": "2", "r": "1", "q": "1", "y": "0", "value": "u^-1"}
    assert all(int(r["q"]) < 4 and abs(int(r["y"])) <= 3 for r in rows)


def test_series_truncation_stability(capsys):
    _, coarse, _ = _run(
        capsys, ["series", "--n", "2", "--r", "0", "--qorder", "6", "--ywin", "5"]
    )
    _, fine, _ = _run(
        capsys, ["series", "--n", "2", "--r", "0", "--qorder", "9", "--ywin", "5"]
    )
    keep = lambda text: [r for r in _csv_rows(text) if int(r["q"]) < 6]  # noqa: E731
    assert keep(coarse) == keep(fine)
    assert len(_csv_rows(fine)) > len(_csv_rows(coarse))


def test_series_json_round_trip(capsys):
    code, out, _ = _run(
        capsys,
        ["series", "--n", "1", "--r", "0", "--qorder", "3", "--ywin", "2",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["qorder"] == 3 and doc["ywin"] == 2
    assert all(cell["value"] for cell in doc["cells"])


# ---------------------------------------------------------------------------
# parser plumbing


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_parser_defaults_match_documented_values():
    args = build_parser().parse_args(["verify"])
    assert args.suite == "all"
    assert args.qorder == 10 and args.ywin == 8 and args.vorder == 8
    args = build_parser().parse_args(["fit", "--n", "1", "--r", "0"])
    assert args.vmax == 6 and args.weight_bound == 12


# Every integer flag of each subcommand; the fuzz below passes all of them.
_INT_FLAGS = {
    "table": ("--n", "--r", "--gmax", "--kmin", "--kmax"),
    "verify": ("--n", "--qorder", "--ywin", "--vorder", "--cutoff"),
    "fit": ("--n", "--r", "--vmax", "--weight"),
    "series": ("--n", "--r", "--qorder", "--ywin"),
}


@st.composite
def _small_argv(draw):
    command = draw(st.sampled_from(sorted(_INT_FLAGS)))
    argv = [command]
    for flag in _INT_FLAGS[command]:
        argv += [flag, str(draw(st.integers(-2, 3)))]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(SUITES))]
    if command == "table" and draw(st.booleans()):
        argv.append("--hodge")
    return argv


@settings(max_examples=200, deadline=None)
@given(_small_argv())
def test_main_fuzz_exits_cleanly(argv):
    """Small, often invalid flag values end in exit code 0, 1 or 2 and
    never in an escaped exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:  # argparse refusing the command line
            code = ex.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
