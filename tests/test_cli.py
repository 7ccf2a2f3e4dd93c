"""Tests for the command line front end."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import prodgeom
from conftest import GOLDEN, INVOCATIONS, ROOT, VERIFY_SEEDS, golden_invocations
from prodgeom import cli, fd_jet, gauss_kronecker
from prodgeom.cli import BLOCK_ROWS, _parse_grid, run
from prodgeom.jets import _jet_columns, norm_rel_gaps
from prodgeom.verify import run_checks

DATA = Path(__file__).parent / "data"


def _run(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _grid_points(grid: str) -> list:
    # a grid's points, as its row-major product of axis values
    axes, _ = _parse_grid(grid)
    return list(itertools.product(*(values.tolist() for values in axes)))


def test_grid_descriptor_row_major():
    axes, texts = _parse_grid("grid:0.0..1.0x10.0..11.0:2")
    assert [values.tolist() for values in axes] == [[0.0, 1.0], [10.0, 11.0]]
    assert _grid_points("grid:0.0..1.0x10.0..11.0:2") == [(0.0, 10.0), (0.0, 11.0),
                                                          (1.0, 10.0), (1.0, 11.0)]
    # each axis value formatted once, as its repr
    assert texts == [["0.0", "1.0"], ["10.0", "11.0"]]
    axes, texts = _parse_grid("grid:1.0..2.0:1")
    assert [values.tolist() for values in axes] == [[1.0]] and texts == [["1.0"]]


def test_grid_descriptor_errors():
    from prodgeom import ValidationError
    with pytest.raises(ValidationError):
        _parse_grid("grid:0..1")
    with pytest.raises(ValidationError):
        _parse_grid("grid:0..1x2:0")
    with pytest.raises(ValidationError):
        _parse_grid("grid:zero..1:3")
    with pytest.raises(ValidationError, match="'two' is not an integer"):
        _parse_grid("grid:0..1x0..1:two")
    with pytest.raises(ValidationError, match="grid axis '1' must look like"):
        _parse_grid("grid:0..1x1:2")


def test_eval_csv(capsys):
    code, out, err = _run(capsys, "eval", "--spec", DATA / "cobb_douglas_crs.json",
                          "--points", DATA / "pts.csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,value,status"
    assert lines[1] == "1.0,1.0,1.0,ok"
    assert len(lines) == 5


def test_curvature_grid_flat_cobb_douglas(capsys):
    code, out, err = _run(capsys, "curvature", "--spec", DATA / "cobb_douglas_crs.json",
                          "--points", "grid:0.5..2.0x0.5..2.0:5")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 25
    for row in rows:
        cells = row.split(",")
        assert cells[-1] == "ok"
        assert abs(float(cells[5])) <= 1e-9  # gk column


def test_elasticity_acms(capsys):
    code, out, err = _run(capsys, "elasticity", "--spec", DATA / "acms_rho_half.json",
                          "--points", DATA / "pts.csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "x1,x2,value,hicks_1_2,allen_1_2,bordered_det,status"
    for row in rows[1:]:
        cells = row.split(",")
        assert abs(float(cells[3]) - 2.0) <= 1e-8
        assert cells[-1] == "ok"


def test_elasticity_pairs_flag(capsys):
    code, out, _ = _run(capsys, "elasticity", "--spec", DATA / "thm31a.json",
                        "--points", "grid:0.5..1.5x0.5..1.5x0.5..1.5:2",
                        "--pairs", "1,3;2,3")
    assert code == 0
    header = out.splitlines()[0]
    assert "hicks_1_3" in header and "hicks_2_3" in header
    assert "hicks_1_2" not in header


def test_bad_pairs_exit_2(capsys):
    for pairs, message in [("1,7", "(1,7)"), ("1-2", "pair '1-2' must look like i,j"),
                           ("a,b", "pair 'a,b' has non-integer indices"),
                           ("", "pair '' must look like i,j")]:
        code, _, err = _run(capsys, "elasticity", "--spec", DATA / "acms_rho_half.json",
                            "--points", DATA / "pts.csv", "--pairs", pairs)
        assert code == 2
        assert message in err


def test_repeated_pair_exit_2(capsys):
    code, out, err = _run(capsys, "elasticity", "--spec", DATA / "acms_rho_half.json",
                          "--points", DATA / "pts.csv", "--pairs", "1,2;1,2")
    assert code == 2 and out == ""
    assert "(1,2) given twice" in err


def test_reversed_pair_is_a_distinct_pair(capsys):
    args = ("elasticity", "--spec", DATA / "acms_rho_half.json", "--points", DATA / "pts.csv",
            "--pairs", "1,2;2,1")
    code, csv_out, _ = _run(capsys, *args)
    assert code == 0
    header = csv_out.splitlines()[0].split(",")
    assert len(set(header)) == len(header) == 9
    assert {"hicks_1_2", "allen_1_2", "hicks_2_1", "allen_2_1"} <= set(header)
    _, jsonl_out, _ = _run(capsys, *args, "--format", "jsonl")
    assert all(list(json.loads(line)) == header for line in jsonl_out.splitlines())


def test_validation_error_names_component(capsys):
    code, _, err = _run(capsys, "classify", "--spec", DATA / "bad_gamma.json")
    assert code == 2
    assert "components[0]" in err


def test_missing_spec_file(capsys):
    code, _, err = _run(capsys, "classify", "--spec", DATA / "no_such.json")
    assert code == 2
    assert "no_such.json" in err


@pytest.mark.parametrize("which", ["spec", "points"])
def test_file_not_utf8_exits_2(capsys, tmp_path, which):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff1.0,2.0\n")
    files = {"spec": DATA / "cobb_douglas_crs.json", "points": DATA / "pts.csv", which: bad}
    code, out, err = _run(capsys, "eval", "--spec", files["spec"], "--points", files["points"])
    assert code == 2 and out == ""
    assert f"error: cannot read {which} file {bad}: 'utf-8' codec can't decode" in err


def test_non_finite_spec_number_exits_2(capsys, tmp_path):
    spec = tmp_path / "nan_alpha.json"
    spec.write_text('{"kind":"homothetical","components":['
                    '{"type":"pow","gamma":1,"beta":0,"alpha":NaN},'
                    '{"type":"pow","gamma":1,"beta":0,"alpha":0.5}]}')
    code, out, err = _run(capsys, "classify", "--spec", spec)
    assert code == 2 and out == ""
    assert err == "error: components[0].alpha: expected a finite number, got nan\n"


def test_points_file_blank_lines_skipped(capsys, tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("\n1.0,2.0\n\n  \n0.5,0.5\n")
    code, out, _ = _run(capsys, "eval", "--spec", DATA / "cobb_douglas_crs.json",
                        "--points", points)
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["1.0", "2.0"],
                                                                      ["0.5", "0.5"]]


@pytest.mark.parametrize("contents, message", [
    (None, "cannot read points file"),  # the path is a directory
    ("", "produced no points"),
    ("\n \n", "produced no points"),
], ids=["unreadable", "empty", "blank"])
def test_points_file_without_points_exits_2(capsys, tmp_path, contents, message):
    points = tmp_path
    if contents is not None:
        points = tmp_path / "pts.csv"
        points.write_text(contents)
    code, out, err = _run(capsys, "eval", "--spec", DATA / "cobb_douglas_crs.json",
                          "--points", points)
    assert code == 2 and out == ""
    assert message in err


def test_elasticity_needs_two_variables(capsys, tmp_path):
    spec = tmp_path / "one.json"
    spec.write_text('{"kind":"homothetical","components":['
                    '{"type":"pow","gamma":1,"beta":0,"alpha":1}]}')
    code, out, err = _run(capsys, "elasticity", "--spec", spec, "--points", "grid:1..2:2")
    assert code == 2 and out == ""
    assert "needs a spec with >= 2 variables" in err


def test_wrong_point_arity(capsys):
    code, _, err = _run(capsys, "eval", "--spec", DATA / "thm31a.json",
                        "--points", DATA / "pts.csv")
    assert code == 2
    assert "3 variables" in err


def test_domain_errors_reported_per_row(capsys):
    code, out, _ = _run(capsys, "eval", "--spec", DATA / "log_hole.json",
                        "--points", DATA / "pts.csv")
    assert code == 0
    statuses = [row.split(",")[-1] for row in out.splitlines()[1:]]
    assert statuses == ["domain_error", "domain_error", "ok", "ok"]


def test_singular_rows_do_not_fail_run(capsys):
    code, out, _ = _run(capsys, "elasticity", "--spec", DATA / "ratio.json",
                        "--points", DATA / "pts.csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert all(row.split(",")[-1] == "hicks_undefined" for row in rows)
    # hicks/allen cells are empty, coordinates and determinant stay populated
    assert rows[0].split(",")[3] == ""


def _check_numerical_error_rows(capsys, tmp_path, argv, fmt, out, points, failing):
    """``out``, the stdout of ``argv`` over ``points`` as ``fmt``, has one row
    per point. The rows at the indices in ``failing`` read numerical_error
    after their coordinates, with every other cell missing; every other row
    has the bytes that a run over the points without the failing ones gives it."""
    lines = out.splitlines()
    if fmt == "csv":
        header, lines = lines[0], lines[1:]
        rows = [dict(zip(header.split(","), row)) for row in csv.reader(lines)]
    else:
        rows = [json.loads(line) for line in lines]
    assert len(rows) == len(points)
    for k in failing:
        row = rows[k]
        coords = [row.pop(f"x{i + 1}") for i in range(len(points[k]))]
        assert coords == ([repr(x) for x in points[k]] if fmt == "csv" else list(points[k]))
        assert row.pop("status") == "numerical_error"
        assert set(row.values()) == {"" if fmt == "csv" else None}
    kept = [p for k, p in enumerate(points) if k not in failing]
    if kept:
        path = tmp_path / "kept.csv"
        path.write_text("".join(",".join(map(repr, p)) + "\n" for p in kept))
        code, reference, err = _run(capsys, *argv, "--points", path, "--format", fmt)
        assert (code, err) == (0, "")
        reference = reference.splitlines()
        if fmt == "csv":
            assert reference.pop(0) == header
        assert [line for k, line in enumerate(lines) if k not in failing] == reference


def test_curvature_overflow_exits_3(capsys, tmp_path):
    # x1^0.3 x2^0.7: f'' of the first factor, 1e-300^-1.7, overflows
    points = tmp_path / "tiny.csv"
    points.write_text("1e-300,1.0\n")
    argv = ("curvature", "--spec", DATA / "cobb_douglas_crs.json")
    code, out, err = _run(capsys, *argv, "--points", points)
    assert code == 3
    assert err.startswith("error: ") and "overflowed" in err and err.count("\n") == 1
    _check_numerical_error_rows(capsys, tmp_path, argv, "csv", out, [(1e-300, 1.0)], [0])


def _reject_constant(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


@pytest.mark.parametrize("spec, points", [
    ("cobb_douglas_crs.json", "grid:0.5..2.0x0.5..2.0:5"),
    ("acms_rho_half.json", DATA / "pts.csv"),
    ("log_hole.json", DATA / "pts.csv"),
], ids=["golden-grid", "acms", "log-hole"])
@pytest.mark.parametrize("command", ["eval", "curvature", "elasticity"])
def test_csv_jsonl_numeric_equivalence(capsys, command, spec, points):
    # every JSONL line is strict JSON (no NaN or Infinity constant) whose keys
    # are the CSV header, in order, and whose values are the CSV cells
    args = (command, "--spec", DATA / spec, "--points", points, "--fd-check")
    _, csv_out, _ = _run(capsys, *args)
    _, jsonl_out, _ = _run(capsys, *args, "--format", "jsonl")
    header, *csv_rows = list(csv.reader(io.StringIO(csv_out)))
    json_rows = [json.loads(line, parse_constant=_reject_constant)
                 for line in jsonl_out.splitlines()]
    assert csv_rows and len(json_rows) == len(csv_rows)
    for cells, obj in zip(csv_rows, json_rows):
        assert list(obj) == header
        for name, cell in zip(header, cells):
            if obj[name] is None:
                assert cell == ""
            elif name == "status":
                assert obj[name] == cell
            else:
                assert repr(obj[name]) == cell


def test_byte_identical_reruns(capsys):
    args = ("curvature", "--spec", DATA / "cobb_douglas_crs.json",
            "--points", "grid:0.5..2.0x0.5..2.0:5")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_fd_check_column(capsys):
    code, out, _ = _run(capsys, "eval", "--spec", DATA / "cobb_douglas_crs.json",
                        "--points", DATA / "pts.csv", "--fd-check")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,value,fd_gap,status"
    for row in lines[1:]:
        assert float(row.split(",")[3]) <= 1e-4


def test_relax_rho_flag(capsys, tmp_path):
    spec = tmp_path / "linear.json"
    spec.write_text('{"kind":"acms","gamma":1.0,"betas":[1.0,2.0],"rho":1.0,"d":1.0,'
                    '"outer":{"type":"identity"}}')
    code, _, err = _run(capsys, "eval", "--spec", spec, "--points", DATA / "pts.csv")
    assert code == 2 and "rho" in err
    code, out, _ = _run(capsys, "eval", "--spec", spec, "--points", DATA / "pts.csv",
                        "--relax-rho")
    assert code == 0
    assert out.splitlines()[1] == "1.0,1.0,3.0,ok"


def test_classify_composite_spec(capsys):
    code, out, _ = _run(capsys, "classify", "--spec", DATA / "ratio.json")
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()] == [
        ["classifier", "family"], ["allen_singular", "thm41_b"], ["ces", "thm51_a"]]


def test_classify_outputs_one_row_per_classifier(capsys):
    code, out, _ = _run(capsys, "classify", "--spec", DATA / "thm31a.json")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "classifier,family,certificate,notes"
    assert rows[1].startswith("developable,thm31_a")
    assert rows[2].startswith("ces,none_ces")


def test_verify_passes_with_default_tolerance(capsys):
    code, out, _ = _run(capsys, "verify", "--seed", "42")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("10/10 checks passed")


def test_verify_fails_below_float_noise(capsys):
    code, out, err = _run(capsys, "verify", "--tol", "1e-15")
    assert code == 3
    assert "developable_certificates" in err
    assert any(line.startswith("FAIL  developable_certificates") for line in out.splitlines())


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_rejects_tol_not_positive_and_finite(capsys, tol):
    code, out, err = _run(capsys, "verify", "--tol", tol)
    assert code == 2 and out == ""
    assert "--tol must be positive and finite" in err


# number text that Python's float() or int() reads but the CLI rejects, one
# row per site: a digit-group underscore (PEP 515) or a non-ASCII digit; then
# two argument errors of other kinds. An argument error's last stderr line
# follows argparse's usage text and names the parser that failed
@pytest.mark.parametrize("argv, message", [
    (["eval", "--points", "{points}"], "error: {points}:1: non-numeric coordinate in '1_5,1.0'"),
    (["eval", "--points", "grid:0_5..2x1..2:2"],
     "error: grid axis '0_5..2' has non-numeric bounds"),
    (["eval", "--points", "grid:0.5..2x1..2:\u0661"],
     "error: grid sample count '\u0661' is not an integer"),
    (["elasticity", "--points", "{points_ok}", "--pairs", "\u0661,2"],
     "error: pair '\u0661,2' has non-integer indices"),
    (["verify", "--tol", "1_0e-9"], "prodgeom verify: error: argument --tol: invalid float value: "
                                    "'1_0e-9'"),
    (["verify", "--seed", "4_2"], "prodgeom verify: error: argument --seed: invalid int value: "
                                  "'4_2'"),
    (["verify", "--seed", "x"], "prodgeom verify: error: argument --seed: invalid int value: 'x'"),
    (["eval", "--points", "{points_ok}", "--bogus"],
     "prodgeom: error: unrecognized arguments: --bogus"),
], ids=["points-cell", "grid-bound", "grid-count", "pairs", "tol", "seed", "seed-not-a-number",
        "unknown-flag"])
def test_number_text_that_is_not_plain_ascii_exits_2(capsys, tmp_path, argv, message):
    points = tmp_path / "pts.csv"
    points.write_text("1_5,1.0\n")
    paths = {"points": points, "points_ok": DATA / "pts.csv"}
    argv = [a.format(**paths) for a in argv]
    if argv[0] != "verify":
        argv += ["--spec", DATA / "cobb_douglas_crs.json"]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: prodgeom") == message.startswith("prodgeom")
    assert err.splitlines()[-1] == message.format(**paths)


def test_verify_seed_changes_samples_not_outcomes():
    passes_42 = [r.passed for r in run_checks(seed=42)]
    passes_7 = [r.passed for r in run_checks(seed=7)]
    assert passes_42 == passes_7 == [True] * 10


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("command", ["eval", "curvature", "elasticity", "classify"])
@pytest.mark.parametrize("flag", ["--seed", "--tol"])
def test_dead_flags_rejected(capsys, command, flag):
    # only verify reads --seed and --tol
    args = ["--points", DATA / "pts.csv"] if command != "classify" else []
    code, out, err = _run(capsys, command, "--spec", DATA / "cobb_douglas_crs.json", *args,
                          flag, "7")
    assert code == 2
    assert out == "" and flag in err


@pytest.mark.parametrize("command", ["eval", "curvature"])
def test_non_finite_coordinates_exit_2(capsys, tmp_path, command):
    points = tmp_path / "pts.csv"
    points.write_text("1.0,1.0\nnan,1.0\n")
    code, out, err = _run(capsys, command, "--spec", DATA / "cobb_douglas_crs.json",
                          "--points", points)
    assert code == 2 and out == ""
    assert f"{points}:2: non-finite coordinate" in err
    points.write_text("1.0,1e400\n")
    code, _, err = _run(capsys, command, "--spec", DATA / "cobb_douglas_crs.json",
                        "--points", points)
    assert code == 2 and f"{points}:1:" in err
    points.write_text("1.0,1.0\n\n1.0,x\n")
    code, out, err = _run(capsys, command, "--spec", DATA / "cobb_douglas_crs.json",
                          "--points", points)
    assert code == 2 and out == "" and f"{points}:3: non-numeric coordinate in '1.0,x'" in err
    # a non-finite bound, and finite bounds whose step overflows
    for grid in ("grid:0.5..infx0.5..2.0:3", "grid:-1e308..1e308x0.5..2.0:3"):
        code, out, err = _run(capsys, command, "--spec", DATA / "cobb_douglas_crs.json",
                              "--points", grid)
        assert code == 2 and out == "" and "non-finite" in err


def test_eval_non_finite_value_exits_3(capsys, tmp_path):
    spec = tmp_path / "exp2.json"
    spec.write_text('{"kind":"homothetical","components":[{"type":"exp","gamma":1,"lambda":400},'
                    '{"type":"exp","gamma":1,"lambda":400}]}')
    for fmt in ("csv", "jsonl"):
        code, out, err = _run(capsys, "eval", "--spec", spec, "--points", "grid:1..1x1..1:1",
                              "--format", fmt)
        assert code == 3
        assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1
        _check_numerical_error_rows(capsys, tmp_path, ("eval", "--spec", spec), fmt, out,
                                    [(1.0, 1.0)], [0])


_XY = ('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":0,"alpha":1},'
       '{"type":"pow","gamma":1,"beta":0,"alpha":1}]}')
_CES_RHO_MINUS_1 = ('{"kind":"acms","gamma":1,"betas":[0.4,1],"rho":-1,"d":1,'
                    '"outer":{"type":"identity"}}')
_SHIFTED_SQRT = ('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":1,'
                 '"alpha":0.5},{"type":"pow","gamma":1,"beta":1,"alpha":0.5}]}')
_SHIFTED_X = ('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":1,'
              '"alpha":1},{"type":"pow","gamma":1,"beta":1,"alpha":1}]}')
_EXP = '{"kind":"homothetical","components":[{"type":"exp","gamma":1.0,"lambda":1.0}]}'
_EXP_X = ('{"kind":"composite","outer":{"type":"identity"},"components":[{"type":"exp",'
          '"gamma":1.0,"lambda":1.0},{"type":"pow","gamma":1.0,"beta":0.0,"alpha":1.0}]}')
_HUGE_X = '{"kind":"homothetical","components":[{"type":"pow","gamma":1e300,"beta":0,"alpha":1}]}'


# a numpy warning on the way would be a second stderr line
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, spec_text, point", [
    # x1 * x2: the jet and the determinant are finite, omega^4 is not
    ("curvature", _XY, "1e77,1e77"),
    # 0.4 * 5e-324 underflows to 0, and rho = -1 divides by it
    ("eval", _CES_RHO_MINUS_1, "5e-324,1"),
    ("curvature", _CES_RHO_MINUS_1, "5e-324,1"),
    ("elasticity", _CES_RHO_MINUS_1, "5e-324,1"),
    # 1 / (x1 f_1) overflows at a subnormal x1, so H_12 is infinite
    ("elasticity", _SHIFTED_SQRT, "5e-324,0.4"),
    # (x1 + 1)(x2 + 1): x1 * x2 underflows to 0 in the Allen entry W / (x1 x2)
    ("elasticity", _SHIFTED_X, "1e-170,1e-170"),
    # e^x: f'^2 overflows in omega
    ("curvature", _EXP, "360"),
    # e^x1 * x2: omega and the LU determinant overflow, so gk would be nan
    ("curvature", _EXP_X, "360,1e-5"),
    # ... and so does the bordered determinant
    ("elasticity", _EXP_X, "360,1e-5"),
    # 1e300 * x: every FD stencil value is finite, but the diagonal stencil's
    # 2 f0 overflows, so fd_gap would be inf
    ("eval --fd-check", _HUGE_X, "1.5e8"),
], ids=["curvature-omega", "eval-ces", "curvature-ces", "elasticity-ces", "elasticity-weight",
        "elasticity-pair-product", "curvature-omega-inf", "curvature-det-inf",
        "elasticity-bordered-inf", "eval-fd-gap-inf"])
def test_extreme_point_exits_3(capsys, tmp_path, command, spec_text, point):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    points = tmp_path / "pts.csv"
    points.write_text(point + "\n")
    argv = (*command.split(), "--spec", spec)
    for fmt in ("csv", "jsonl"):
        code, out, err = _run(capsys, *argv, "--points", points, "--format", fmt)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        _check_numerical_error_rows(capsys, tmp_path, argv, fmt, out,
                                    [tuple(map(float, point.split(",")))], [0])


def test_zero_gradient_interior_point_keeps_value(capsys, tmp_path):
    # (x1 - 1)^2 * x2 at (1, 1): in the domain, f = 0 and both partials vanish
    spec = tmp_path / "square.json"
    spec.write_text('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":-1,'
                    '"alpha":2},{"type":"pow","gamma":1,"beta":0,"alpha":1}]}')
    code, out, _ = _run(capsys, "elasticity", "--spec", spec, "--points", "grid:1..1x1..1:1")
    assert code == 0
    assert out.splitlines()[1] == "1.0,1.0,0.0,,,0.0,hicks_undefined"


def test_singular_bordered_matrix_leaves_only_allen_cells_missing(capsys, tmp_path):
    # (x1^2 / (x2 x3))^2: exponents summing to 0 make the bordered matrix
    # singular everywhere (Thm 4.1 b), while every Hicks pair is defined
    spec = tmp_path / "singular.json"
    spec.write_text(prodgeom.serialize_spec(prodgeom.make_thm41_family(
        "b", outer=prodgeom.Power(2.0), alphas=(2.0, -1.0, -1.0))))
    for fmt, missing in (("csv", ""), ("jsonl", None)):
        code, out, _ = _run(capsys, "elasticity", "--spec", spec, "--points",
                            "grid:0.5..2.0x0.5..2.0x0.5..2.0:2", "--format", fmt)
        assert code == 0
        rows = ([json.loads(line) for line in out.splitlines()] if fmt == "jsonl"
                else list(csv.DictReader(io.StringIO(out))))
        assert len(rows) == 8 and {row["status"] for row in rows} == {"allen_undefined"}
        assert all((row[key] == missing) == key.startswith("allen_")
                   for row in rows for key in row if key != "status")


@pytest.mark.parametrize("argv", [["eval"], ["eval", "--fd-check"], ["curvature"],
                                  ["curvature", "--fd-check"], ["elasticity"]])
def test_domain_error_outranks_overflow(capsys, tmp_path, argv):
    # component 1's f'' overflows at x1 = 0.0965; component 2 is out of domain
    spec = tmp_path / "overflow.json"
    spec.write_text('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":0,'
                    '"alpha":-300},{"type":"logpow","a":1,"b":1,"m":1}]}')
    points = tmp_path / "pts.csv"
    points.write_text("0.0965,-1.0\n")
    code, out, err = _run(capsys, *argv, "--spec", spec, "--points", points)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].endswith(",domain_error")


def _count_calls(monkeypatch, fn) -> list:
    """Record each call of a package function through every module binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("prodgeom") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def _count_method_calls(monkeypatch, classes, name) -> list:
    """Record the instance of each call of a method defined on these classes."""
    calls = []
    for cls in classes:
        def counted(self, *args, _fn=getattr(cls, name)):
            calls.append(self)
            return _fn(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("argv, jets, jet1ds, evaluates", [
    # curvature rows come from the block kernel, which forms the jets as
    # columns (no jet_multivariate call) and runs the closed-form determinant
    # on its own factor jets; the value slot is the jet's. elasticity and
    # eval --fd-check read the same column jets
    (["curvature", "--spec", DATA / "cobb_douglas_crs.json"], 0, 0, 0),
    (["elasticity", "--spec", DATA / "acms_rho_half.json"], 0, 0, 0),
    # the FD stencil evaluates the spec; the exact side is the row's own jet
    (["curvature", "--fd-check", "--spec", DATA / "acms_rho_half.json"], 0, 0, None),
    (["eval", "--fd-check", "--spec", DATA / "cobb_douglas_crs.json"], 0, 0, None),
])
def test_one_jet_per_row(capsys, monkeypatch, argv, jets, jet1ds, evaluates):
    counts = [_count_calls(monkeypatch, fn) for fn in
              (prodgeom.jet_multivariate, prodgeom.jet1d, prodgeom.evaluate,
               prodgeom.gauss_kronecker, prodgeom.gauss_kronecker_batch)]
    kinds = (prodgeom.PowFn, prodgeom.ExpFn, prodgeom.LogPowFn)
    values = _count_method_calls(monkeypatch, kinds, "value")
    derivs = _count_method_calls(monkeypatch, kinds, "derivs")
    code, out, _ = _run(capsys, *argv, "--points", "grid:1.5..1.5x0.5..0.5:1")
    assert code == 0 and out.splitlines()[1].endswith(",ok")
    assert len(counts[0]) == jets and len(counts[1]) == jet1ds
    # one kernel call for the one block, and no per-point fallback
    assert len(counts[4]) == (argv[0] == "curvature") and counts[3] == []
    if evaluates is not None:
        assert len(counts[2]) == evaluates
        # each component's value and derivatives run once per row
        spec = prodgeom.parse_spec(Path(argv[argv.index("--spec") + 1]).read_text())
        components = list(getattr(spec, "components", ()))
        assert values == components and derivs == components


def test_curvature_kernel_runs_once_per_block(capsys, monkeypatch):
    blocks = _count_calls(monkeypatch, prodgeom.gauss_kronecker_batch)
    values = _count_method_calls(monkeypatch, (prodgeom.PowFn,), "value")
    derivs = _count_method_calls(monkeypatch, (prodgeom.PowFn,), "derivs")
    # 46 x 46 = 2,116 rows: one full block and a short one
    code, out, _ = _run(capsys, "curvature", "--spec", DATA / "cobb_douglas_crs.json",
                        "--points", "grid:0.5..2.0x0.5..2.0:46")
    assert code == 0 and len(out.splitlines()) == 1 + 2116
    assert [len(args[1]) for args in blocks] == [BLOCK_ROWS, 2116 - BLOCK_ROWS]
    # each component's value and derivatives run once per distinct coordinate
    # of its axis per block: the first block holds x1's first 45 values and
    # all 46 of x2's, the second block x1's last 2 and again all of x2's
    spec = prodgeom.parse_spec((DATA / "cobb_douglas_crs.json").read_text())
    indices = list(itertools.product(range(46), repeat=2))
    distinct = [sum(len({row[k] for row in block})
                    for block in (indices[:BLOCK_ROWS], indices[BLOCK_ROWS:])) for k in (0, 1)]
    assert distinct == [45 + 2, 46 + 46]
    assert Counter(values) == Counter(derivs) == dict(zip(spec.components, distinct))


def test_distinct_file_points_run_once_per_row(capsys, monkeypatch, tmp_path):
    # no two rows share a coordinate, so each row makes its own calls
    values = _count_method_calls(monkeypatch, (prodgeom.PowFn,), "value")
    derivs = _count_method_calls(monkeypatch, (prodgeom.PowFn,), "derivs")
    rng = random.Random(3)
    points = [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for _ in range(2116)]
    assert all(len(set(axis)) == 2116 for axis in zip(*points))
    path = tmp_path / "pts.csv"
    path.write_text("".join(f"{x1!r},{x2!r}\n" for x1, x2 in points))
    code, out, _ = _run(capsys, "curvature", "--spec", DATA / "cobb_douglas_crs.json",
                        "--points", path)
    assert code == 0 and len(out.splitlines()) == 1 + 2116
    spec = prodgeom.parse_spec((DATA / "cobb_douglas_crs.json").read_text())
    assert Counter(values) == Counter(derivs) == {c: 2116 for c in spec.components}


def test_plain_eval_evaluates_only_flagged_rows(capsys, monkeypatch):
    # one value pass on columns per block; only the rows it flags (here x1 <= 1,
    # outside log_hole's domain) go through evaluate, for their errors
    calls = _count_calls(monkeypatch, prodgeom.evaluate)
    grid = "grid:0.5..2.0x0.5..2.0:46"  # 2,116 rows: one full block and a short one
    code, out, err = _run(capsys, "eval", "--spec", DATA / "log_hole.json", "--points", grid)
    assert (code, err) == (0, "")
    points = list(itertools.product(np.linspace(0.5, 2.0, 46).tolist(), repeat=2))
    outside = [p for p in points if p[0] <= 1.0]
    assert 0 < len(outside) < len(points)
    assert [tuple(args[1]) for args in calls] == outside
    statuses = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert [p for p, status in zip(points, statuses) if status == "domain_error"] == outside


@pytest.mark.parametrize("command", [["elasticity"], ["eval", "--fd-check"]])
def test_jet_columns_run_once_per_block(capsys, monkeypatch, tmp_path, command):
    blocks = _count_calls(monkeypatch, _jet_columns)
    kernels = _count_calls(monkeypatch, prodgeom.elasticity_report_batch)
    reports = _count_calls(monkeypatch, prodgeom.elasticity_report)
    jet_calls = _count_calls(monkeypatch, prodgeom.jet_multivariate)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_BLOCK_SPECS["homothetical"])
    # 2,116 rows: one full block and a short one. x2 < 0 is outside the jet's
    # domain; x1 <= 0 only outside elasticity's positive orthant, and at
    # x1 = -1e200 the value overflows too, which the orthant guard outranks
    points = _block_points()[:2116]
    points[100], points[2100] = (0.0, 1.5), (-0.5, 1.0)
    if command == ["elasticity"]:
        points[2110] = (-1e200, 1.0)
    points_path = tmp_path / "pts.csv"
    points_path.write_text("".join(f"{x1!r},{x2!r}\n" for x1, x2 in points))
    code, out, err = _run(capsys, *command, "--spec", spec_path, "--points", points_path,
                          "--fd-check", "--format", "jsonl")
    assert (code, err) == (0, "")
    assert [len(args[1]) for args in blocks] == [BLOCK_ROWS, 2116 - BLOCK_ROWS]
    # only the rows the columns flag go through the per-point function
    outside = [p for p in points if min(p) <= 0.0]
    jet_outside = [p for p in points if p[1] <= 0.0]
    if command == ["elasticity"]:
        # one kernel call per block, which forms that block's jets
        assert [len(args[1]) for args in kernels] == [BLOCK_ROWS, 2116 - BLOCK_ROWS]
        assert [tuple(args[1]) for args in reports] == outside and jet_calls == []
    else:
        assert reports == [] and [tuple(args[1]) for args in jet_calls] == jet_outside
    statuses = [json.loads(line)["status"] for line in out.splitlines()]
    assert [p for p, status in zip(points, statuses) if status == "domain_error"] == (
        outside if command == ["elasticity"] else jet_outside)


_BLOCK_SPECS = {
    # (x1 - 1)^2 * sqrt(x2): the first factor vanishes on x1 = 1 (the LU
    # route), and x2 < 0 is out of the domain
    "homothetical": '{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":-1,'
                    '"alpha":2},{"type":"pow","gamma":1,"beta":0,"alpha":0.5}]}',
    # ((x1 - 1)^2 * (1 + ln x2))^2
    "composite": '{"kind":"composite","outer":{"type":"power","d":2},"components":[{"type":'
                 '"pow","gamma":1,"beta":-1,"alpha":2},{"type":"logpow","a":1,"b":1,"m":1}]}',
    "acms": '{"kind":"acms","gamma":1,"betas":[0.5,2],"rho":0.5,"d":1,'
            '"outer":{"type":"power","d":2}}',
}


def _block_points(block_rows=BLOCK_ROWS):
    # two full blocks and a short third one; around each block boundary sit
    # an out-of-domain row, a vanishing factor (x1 = 1) and a regular row
    rng = random.Random(5)
    points = [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for _ in range(2 * block_rows + 50)]
    for edge in (block_rows, 2 * block_rows):
        points[edge - 2] = (1.0, 1.5)
        points[edge - 1] = (1.25, -1.0)
        points[edge] = (1.0, 0.75)
        points[edge + 1] = (0.5, -0.5)
    return points


def _reference(spec, points, fd_check) -> dict:
    """Expected stdout per format, from gauss_kronecker point by point."""
    header = ["x1", "x2", "value", "omega", "det_hessian", "gk"]
    header += ["fd_gap", "status"] if fd_check else ["status"]
    rows = []
    for p in points:
        try:
            rec = gauss_kronecker(spec, p)
        except prodgeom.DomainError:
            rows.append([*p] + [None] * (len(header) - 3) + ["domain_error"])
            continue
        cells = [rec.value, rec.omega, rec.hessian_det, rec.gk_curvature]
        if fd_check:
            cells.append(max(norm_rel_gaps(fd_jet(lambda q: prodgeom.evaluate(spec, q), p),
                                           rec.jet)))
        rows.append([*p, *cells, "ok"])
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header] + rows)
    return {"csv": text.getvalue(),
            "jsonl": "".join(json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n"
                             for row in rows)}


@pytest.mark.parametrize("kind", sorted(_BLOCK_SPECS))
@pytest.mark.parametrize("fd_check", [False, True])
def test_curvature_blocks_match_per_point_reference(capsys, tmp_path, kind, fd_check):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_BLOCK_SPECS[kind])
    points = _block_points()
    points_path = tmp_path / "pts.csv"
    points_path.write_text("".join(f"{x1!r},{x2!r}\n" for x1, x2 in points))
    expected = _reference(prodgeom.parse_spec(_BLOCK_SPECS[kind]), points, fd_check)
    for fmt in ("csv", "jsonl"):
        code, out, err = _run(capsys, "curvature", "--spec", spec_path, "--points", points_path,
                              "--format", fmt, *(["--fd-check"] if fd_check else []))
        assert (code, err) == (0, "")
        assert out == expected[fmt]
    statuses = [json.loads(line)["status"] for line in expected["jsonl"].splitlines()]
    for edge in (BLOCK_ROWS, 2 * BLOCK_ROWS):
        assert statuses[edge - 2:edge + 2] == ["ok", "domain_error", "ok", "domain_error"]


def test_curvature_error_past_first_block_exits_3(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_BLOCK_SPECS["homothetical"])
    spec = prodgeom.parse_spec(_BLOCK_SPECS["homothetical"])
    points = _block_points()[:BLOCK_ROWS + 50]
    # (1e200 - 1)^2 overflows in the value; so does the later 1e300 row
    points[BLOCK_ROWS + 10] = (1e200, 1.0)
    points[BLOCK_ROWS + 20] = (1e300, 1.0)
    points_path = tmp_path / "pts.csv"
    points_path.write_text("".join(f"{x1!r},{x2!r}\n" for x1, x2 in points))
    with pytest.raises(prodgeom.NumericalError) as first:
        gauss_kronecker(spec, points[BLOCK_ROWS + 10])
    for extra, fmt in (([], "csv"), (["--fd-check"], "csv"), ([], "jsonl")):
        argv = ("curvature", "--spec", spec_path, *extra)
        code, out, err = _run(capsys, *argv, "--points", points_path, "--format", fmt)
        assert code == 3
        assert err == f"error: {first.value}\n"
        _check_numerical_error_rows(capsys, tmp_path, argv, fmt, out, points,
                                    [BLOCK_ROWS + 10, BLOCK_ROWS + 20])


def _fd_gap_reference(spec, points, out: str, fmt: str) -> str:
    """``out``, a run without --fd-check, with the fd_gap column a per-row
    fd_jet reference gives, before the status column."""
    def gap(p):
        return max(norm_rel_gaps(fd_jet(lambda q: prodgeom.evaluate(spec, q), p),
                                 prodgeom.jet_multivariate(spec, p)))

    text = io.StringIO()
    if fmt == "jsonl":
        for p, line in zip(points, out.splitlines()):
            row = json.loads(line)
            status = row.pop("status")
            row["fd_gap"] = None if status == "domain_error" else gap(p)
            row["status"] = status
            text.write(json.dumps(row, separators=(",", ":")) + "\n")
        return text.getvalue()
    lines = list(csv.reader(io.StringIO(out)))
    rows = [lines[0][:-1] + ["fd_gap", "status"]]
    for p, cells in zip(points, lines[1:]):
        rows.append(cells[:-1] + ["" if cells[-1] == "domain_error" else gap(p), cells[-1]])
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


#: Rows per block in the --fd-check block tests: small blocks keep the
#: per-row references cheap and still put rows on each side of a boundary.
_SMALL_BLOCK = 64


@pytest.mark.parametrize("kind", sorted(_BLOCK_SPECS))
@pytest.mark.parametrize("command", ["eval", "elasticity"])
def test_fd_check_blocks_match_per_row_reference(capsys, monkeypatch, tmp_path, command, kind):
    monkeypatch.setattr(cli, "BLOCK_ROWS", _SMALL_BLOCK)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_BLOCK_SPECS[kind])
    spec = prodgeom.parse_spec(_BLOCK_SPECS[kind])
    points = _block_points(_SMALL_BLOCK)
    points_path = tmp_path / "pts.csv"
    points_path.write_text("".join(f"{x1!r},{x2!r}\n" for x1, x2 in points))
    for fmt in ("csv", "jsonl"):
        args = (command, "--spec", spec_path, "--points", points_path, "--format", fmt)
        code, plain, _ = _run(capsys, *args)
        assert code == 0
        code, out, err = _run(capsys, *args, "--fd-check")
        assert (code, err) == (0, "")
        assert out == _fd_gap_reference(spec, points, plain, fmt)


@pytest.mark.parametrize("command", ["eval", "curvature", "elasticity"])
@pytest.mark.parametrize("fd_first", [True, False])
def test_fd_check_error_past_first_block_exits_3(capsys, monkeypatch, tmp_path, command,
                                                 fd_first):
    # the first failing row decides the error, whether its oracle or its
    # own measure fails, and both rows read numerical_error
    monkeypatch.setattr(cli, "BLOCK_ROWS", _SMALL_BLOCK)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_BLOCK_SPECS["homothetical"])
    spec = prodgeom.parse_spec(_BLOCK_SPECS["homothetical"])
    # at x2 = 1e-5 the row is inside the domain, but its stencil's
    # x2 - 2e-4 is not; (1e200 - 1)^2 overflows in the value
    near_edge, overflow = (1.5, 1e-5), (1e200, 1.0)
    points = _block_points(_SMALL_BLOCK)
    points[_SMALL_BLOCK + 10], points[_SMALL_BLOCK + 20] = ((near_edge, overflow) if fd_first
                                                            else (overflow, near_edge))
    points_path = tmp_path / "pts.csv"
    points_path.write_text("".join(f"{x1!r},{x2!r}\n" for x1, x2 in points))
    with pytest.raises(prodgeom.NumericalError) as first:
        if fd_first:
            fd_jet(lambda q: prodgeom.evaluate(spec, q), near_edge)
        else:
            prodgeom.evaluate(spec, overflow)
    argv = (command, "--spec", spec_path, "--fd-check")
    for fmt in ("csv", "jsonl"):
        code, out, err = _run(capsys, *argv, "--points", points_path, "--format", fmt)
        assert code == 3
        assert err == f"error: {first.value}\n"
        _check_numerical_error_rows(capsys, tmp_path, argv, fmt, out, points,
                                    [_SMALL_BLOCK + 10, _SMALL_BLOCK + 20])


def test_jsonl_writer_bytes_equal_json_dumps():
    # the line template over column-encoded cells gives each row the bytes
    # json.dumps gives it; a nan in a float column is null, and ±inf is
    # json's Infinity and -Infinity
    header = ["x1", "value", "fd_gap", "status"]
    rows = [[1.0, None, -0.0, "ok"],
            [math.inf, -math.inf, None, "domain_error"],
            [1e300, 5e-324, -1e300, "hicks_undefined"],
            [0.1, 2.0000000000000004, None, "allen_undefined"]]
    *floats, status = zip(*rows)
    columns = [np.array([math.nan if c is None else c for c in col]) for col in floats]
    text = io.StringIO()
    write = cli._writer(header, "jsonl", text)
    write([*columns, status])
    write([*(col[::-1] for col in columns), status[::-1]])
    assert text.getvalue() == "".join(
        json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n"
        for row in rows + rows[::-1])


# signed zeros, nan, infinities, the smallest subnormal, and the floats
# whose repr switches to or from exponent notation
_CSV_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-5, 1e16, 1e22]
_NON_FINITE = [math.nan, math.inf, -math.inf]
_csv_float = st.one_of(st.sampled_from(_CSV_FLOATS), st.floats())
_csv_text = st.text(st.sampled_from(list('ab1. ,"\n\r')), max_size=6)


def _block_columns(text, min_width):
    # min_width to 12 columns of one row count: each a float array, an
    # all-non-finite float array or text, in any order (an elasticity block
    # mixes 102 float columns with one of text)
    def columns(count):
        def cells(cell):
            return st.lists(cell, min_size=count, max_size=count)
        return st.lists(st.one_of(cells(_csv_float).map(np.array),
                                  cells(st.sampled_from(_NON_FINITE)).map(np.array),
                                  cells(text)), min_size=min_width, max_size=12)
    return st.integers(0, 4).flatmap(columns)


def _rows(columns):
    # the block's rows as json.dumps and csv.writer take them, a nan as None
    return [[(None if math.isnan(col[i]) else col[i].item()) if isinstance(col, np.ndarray)
             else col[i] for col in columns] for i in range(len(columns[0]))]


@pytest.mark.fuzz
@example(header=["x1", "status"], coords=[1.5],
         columns=[np.array([math.nan, math.inf, -math.inf]), ["ok", "a,b", ""]])
@given(header=st.lists(_csv_text, min_size=2, max_size=12), columns=_block_columns(_csv_text, 2),
       coords=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3))
def test_csv_writer_bytes_equal_csv_writer(header, columns, coords):
    # the writer's cell rule is csv.writer's QUOTE_MINIMAL at lineterminator
    # "\n", with a nan in a float column (an array; a block's are encoded at
    # once) as a missing cell: a column of floats or of text, and a row's
    # leading cells as text already encoded. Rows have 2+ cells, as the CLI's
    # do (csv.writer quotes a lone empty cell)
    rows = _rows(columns)
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(
        [header] + rows + [[*coords, *row] for row in rows])
    text = io.StringIO()
    write = cli._writer(header, "csv", text)
    write(columns)
    write(columns, [",".join(map(repr, coords))] * len(rows))
    assert text.getvalue() == expected.getvalue()


# quotes, backslashes, control characters, a printf %, non-ASCII (a line
# separator and an astral character, each escaped by json's ASCII rule)
_json_text = st.text(st.sampled_from(list('a1 ,"\\\n\r\t\x00\x1f\x7f%é\u2028\U0001F600')),
                     max_size=6)


@pytest.mark.fuzz
@example(keys=[f"k{k}" for k in range(12)],
         columns=[["ok", '"'], np.array([math.inf, math.nan]), np.array([1.0, -0.0])])
@given(keys=st.lists(_json_text, min_size=12, max_size=12, unique=True),
       columns=_block_columns(_json_text, 1))
def test_jsonl_writer_bytes_equal_json_dumps_of_each_row(keys, columns):
    # every JSONL line has the bytes of json.dumps over the row keyed by the
    # header, with a nan in a float column (an array; a block's are encoded
    # at once) as None
    header = keys[:len(columns)]
    text = io.StringIO()
    write = cli._writer(header, "jsonl", text)
    write(columns)
    write(columns)
    assert text.getvalue() == 2 * "".join(
        json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n"
        for row in _rows(columns))


def _column_cells(col, fmt):
    # the reference rule, one column at a time: a float column as repr over
    # tolist() with its non-finite cells fixed per format, text through the
    # format's own rule
    if not isinstance(col, np.ndarray):
        return list(map(cli._csv_cell if fmt == "csv" else json.encoder.encode_basestring_ascii,
                        col))
    special = ({"nan": "", "inf": "inf", "-inf": "-inf"} if fmt == "csv"
               else {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"})
    return [repr(v) if math.isfinite(v) else special[repr(v)] for v in col.tolist()]


def test_writer_gives_an_elasticity_block_its_per_column_bytes():
    # an n = 10 elasticity block: 10 coordinates, value, 45 Hicks and 45
    # Allen pairs and the bordered det (102 float columns) and the status,
    # 12 rows; Allen-singular rows have nan Allen cells, a domain_error row
    # is nan from the value on, and one Allen column is nan in every row
    rng = random.Random(25)
    status = rng.choices(["ok", "allen_undefined", "hicks_undefined"], k=12)
    status[5] = "domain_error"
    block = np.array([[rng.choice([0.5, -0.0, 5e-324, 1e16, math.inf, -math.inf,
                                   rng.uniform(-1e3, 1e3)]) for _ in range(102)]
                      for _ in range(12)])
    block[:, 10:56][[s == "hicks_undefined" for s in status], ::7] = math.nan
    block[:, 56:101][[s != "ok" for s in status]] = math.nan
    block[5, 10:] = block[:, 60] = math.nan
    columns = [*block.T, status]
    header = ([f"x{k + 1}" for k in range(10)] + ["value"] + [f"hicks_{k}" for k in range(45)]
              + [f"allen_{k}" for k in range(45)] + ["bordered_det", "status"])
    for fmt in ("csv", "jsonl"):
        text = io.StringIO()
        cli._writer(header, fmt, text)(columns)
        cells = list(zip(*(_column_cells(col, fmt) for col in columns)))
        if fmt == "csv":
            expected = [",".join(header)] + [",".join(row) for row in cells]
        else:
            expected = ["{" + ",".join(f'"{h}":{c}' for h, c in zip(header, row)) + "}"
                        for row in cells]
        assert text.getvalue() == "".join(line + "\n" for line in expected)


def test_one_parser_serves_every_run(capsys, monkeypatch):
    # the parser is built on the first run and reused: a run that exits 2
    # leaves the next one as it would be alone, and help prints the same
    # text each time
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    golden = ("curvature", "--spec", DATA / "cobb_douglas_crs.json",
              "--points", "grid:0.5..2.0x0.5..2.0:5")
    assert _run(capsys, *golden)[0] == 0
    for argv in [(*golden, "--bogus"), ("verify", "--tol", "nan"),
                 ("curvature", "--points", "grid:0.5..2.0x0.5..2.0:5")]:
        assert _run(capsys, *argv)[0] == 2
    expected = (GOLDEN / "curvature_cobb_douglas_grid.csv").read_text()
    assert _run(capsys, *golden) == (0, expected, "")
    first = _run(capsys, "--help")
    assert first[0] == 0 and first[1].startswith("usage: prodgeom")
    assert _run(capsys, "--help") == first
    assert built.count("prodgeom") == 1


@pytest.mark.parametrize("spec, grid", [
    ("cobb_douglas_crs.json", "grid:0.3..2.2x0.7..1.9:5"),
    ("log_hole.json", "grid:0.5..2.0x0.3..1.1:4"),  # x1 <= 1 is a domain_error row
    ("acms_rho_half.json", "grid:0.5..2.0x0.1..3.3:4"),
], ids=["golden-spec", "log-hole", "acms"])
@pytest.mark.parametrize("command", ["eval", "curvature", "elasticity"])
def test_grid_prints_the_bytes_of_its_points_file(capsys, monkeypatch, tmp_path, command,
                                                   spec, grid):
    # a grid's coordinate text, formatted once per axis value, crosses block
    # edges as the per-row text of the same points in a file does
    monkeypatch.setattr(cli, "BLOCK_ROWS", 3)
    points = _grid_points(grid)
    path = tmp_path / "pts.csv"
    path.write_text("".join(",".join(map(repr, p)) + "\n" for p in points))
    statuses = []
    for fmt in ("csv", "jsonl"):
        for extra in ([], ["--fd-check"]):
            args = (command, "--spec", DATA / spec, "--format", fmt, *extra)
            code, out, err = _run(capsys, *args, "--points", grid)
            assert (code, err) == (0, "") and len(out.splitlines()) == len(points) + (fmt == "csv")
            assert (code, out, err) == _run(capsys, *args, "--points", path)
            if fmt == "jsonl":
                statuses += [json.loads(line)["status"] for line in out.splitlines()]
    assert ("domain_error" in statuses) == (spec == "log_hole.json")


@pytest.mark.parametrize("command", ["eval", "curvature", "elasticity"])
def test_grid_error_past_first_block_exits_3(capsys, monkeypatch, tmp_path, command):
    # (x1 - 1)^2 overflows from the fourth row on, x1 = 5e199 and 1e200, in
    # the second and third blocks
    monkeypatch.setattr(cli, "BLOCK_ROWS", 3)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_BLOCK_SPECS["homothetical"])
    grid = "grid:0.5..1e200x0.5..2.0:3"
    points = _grid_points(grid)
    path = tmp_path / "pts.csv"
    path.write_text("".join(",".join(map(repr, p)) + "\n" for p in points))
    for fmt in ("csv", "jsonl"):
        for extra in ([], ["--fd-check"]):
            argv = (command, "--spec", spec_path, *extra)
            code, out, err = _run(capsys, *argv, "--points", grid, "--format", fmt)
            assert code == 3 and "overflowed" in err and err.count("\n") == 1
            assert (code, out, err) == _run(capsys, *argv, "--points", path, "--format", fmt)
            _check_numerical_error_rows(capsys, tmp_path, argv, fmt, out, points,
                                        [k for k, p in enumerate(points) if p[0] > 1.0])


@pytest.mark.parametrize("golden, argv", [pytest.param(golden, argv, id=golden)
                                           for golden, argv in golden_invocations()])
def test_golden_invocation(capsys, monkeypatch, golden, argv):
    # each row of tests/golden/invocations.txt, run from the repo root,
    # prints its golden file's bytes
    monkeypatch.chdir(ROOT)
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_golden_table_names_each_golden_once():
    # an orphan golden file or a row naming a missing file fails here (the
    # verify seed record is read by its own test); every
    # argument is one shell word without quoting, so a plain shell loop
    # splits a row as golden_invocations does
    assert INVOCATIONS.read_text().endswith("\n")  # read's last line needs its newline
    rows = golden_invocations()
    named = Counter(golden for golden, _ in rows)
    on_disk = {p.name for p in GOLDEN.iterdir()} - {INVOCATIONS.name, VERIFY_SEEDS.name}
    assert named == Counter(on_disk)
    for golden, argv in rows:
        assert all(re.fullmatch(r"[\w.:/=+-]+", arg) for arg in argv), golden
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--spec", "--points") and not value.startswith("grid:"):
                assert (ROOT / value).is_file(), (golden, value)


def test_ces_point_outside_the_domain_is_a_domain_error_row_where_d_over_rho_underflows(
        capsys, tmp_path):
    # d / rho = 5e-324 / 2.5 is 0.0: the row at x1 = -1 read "ok" with value
    # 1.0 in eval, and curvature raised a bare TypeError from a complex power
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind":"acms","gamma":1,"betas":[1.0],"rho":2.5,"d":5e-324,'
                    '"outer":{"type":"identity"}}')
    points = tmp_path / "pts.csv"
    points.write_text("-1.0\n2.0\n")
    for command in ("eval", "curvature"):
        code, out, err = _run(capsys, command, "--spec", spec, "--points", points,
                              "--relax-rho", "--fd-check", "--format", "jsonl")
        rows = [json.loads(line) for line in out.splitlines()]
        assert (code, err) == (0, "")
        assert [(r["status"], r["value"]) for r in rows] == [("domain_error", None), ("ok", 1.0)]


def test_grid_with_the_wrong_axis_count_exits_2(capsys):
    # a one-axis grid for a two-variable spec fails before any block is formed
    code, out, err = _run(capsys, "eval", "--spec", DATA / "cobb_douglas_crs.json",
                          "--points", "grid:0.5..2.0:3")
    assert (code, out) == (2, "")
    assert err == "error: point 1 has 1 coordinates but the spec has 2 variables\n"


@pytest.mark.parametrize("count", [10**15, 10**19])
def test_huge_grid_exits_2(capsys, count):
    # 10**15 samples per axis is more memory than any allocator grants, and
    # 10**19 is past numpy's index range: neither allocates anything
    code, out, err = _run(capsys, "eval", "--spec", DATA / "cobb_douglas_crs.json",
                          "--points", f"grid:0.5..2.0x0.5..2.0:{count}")
    assert (code, out) == (2, "")
    assert err == f"error: grid sample count {count} is too large\n"


def test_grid_rows_past_the_index_range_exit_2_in_process(capsys):
    # seven axes of 1,000 samples are 10**21 rows: each axis is formed, the
    # row count is refused before any row exists
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "curvature", "--spec", DATA / "cobb_douglas_crs.json",
                              "--points", "grid:" + "x".join(["0..1"] * 7) + ":1000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: grid sample count 1000 is too large\n"
    assert peak < 1_000_000


def test_grid_rows_past_the_index_range_exit_2():
    # 10**5 samples on each of 4 axes is 10**20 rows, more than numpy indexes.
    # A build that expands the grid up front would fill memory, so the run
    # is a child process with its address space capped at 2 GB. One BLAS
    # thread keeps numpy's import well inside the cap on a many-core host
    cap = 2 << 30
    run_ = subprocess.run(
        [sys.executable, "-m", "prodgeom", "eval", "--spec", str(DATA / "thm31a.json"),
         "--points", "grid:0..1x0..1x0..1x0..1:100000"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(prodgeom.__file__).parent.parent),
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (run_.returncode, run_.stdout) == (2, "")
    assert run_.stderr == "error: grid sample count 100000 is too large\n"


def test_failed_allocation_exits_4(tmp_path):
    # an n = 300 product of square roots at 2,048 points: one block's dense
    # Hessians take 1.4 GiB, more than a child capped at 1 GB can allocate.
    # The run exits 4 with one stderr line and no stdout, where a spec that
    # fits under the same cap gives its golden bytes (one BLAS thread, as above)
    n = 300
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"kind": "homothetical", "components": [
        {"type": "pow", "gamma": 1, "beta": 0, "alpha": 0.5}] * n}))
    points = tmp_path / "wide.csv"  # one point repeated, so the jets are cheap
    points.write_text((",".join(["1.5"] * n) + "\n") * 2048)
    cap = 1 << 30

    def capped(*argv):
        return subprocess.run(
            [sys.executable, "-m", "prodgeom", *map(str, argv)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(prodgeom.__file__).parent.parent),
                 "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))

    wide = capped("curvature", "--spec", spec, "--points", points)
    assert (wide.returncode, wide.stdout) == (4, "")
    assert wide.stderr.startswith("error: out of memory: ") and wide.stderr.count("\n") == 1
    fits = capped("curvature", "--spec", DATA / "cobb_douglas_crs.json",
                  "--points", "grid:0.5..2.0x0.5..2.0:5")
    golden = (GOLDEN / "curvature_cobb_douglas_grid.csv").read_text()
    assert (fits.returncode, fits.stdout, fits.stderr) == (0, golden, "")


def test_grid_points_memory_does_not_grow_with_the_rows():
    # a grid block is gathered from the axes when it is formed, so the traced
    # peak of loading and blocking a grid grows with its axes (each value and
    # its text, under 200 bytes), not with its rows: :600 has 270,000 rows
    # more than :300, which would take 4.3 MB as one float each
    def peak(k):
        tracemalloc.start()
        try:
            count, rows, _ = cli._load_points(f"grid:0.5..2.0x0.5..2.0:{k}", 2)
            for start in range(0, count, BLOCK_ROWS):
                assert rows(start, min(start + BLOCK_ROWS, count)).shape[1] == 2
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(300), peak(600)
    assert small < 512_000
    assert large - small < 200 * 2 * (600 - 300)


def test_output_memory_does_not_grow_with_the_rows():
    # each block is written before the next one is formed, so the traced peak
    # of a curvature run grows with a block, not with its output: :200 has
    # 30,000 rows more than :100, which print 3.4 MB more text
    class Sink:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    def peak(k):
        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = run(["curvature", "--spec", str(DATA / "cobb_douglas_crs.json"),
                            "--points", f"grid:0.5..2.0x0.5..2.0:{k}"])
            return code, tracemalloc.get_traced_memory()[1], sink.chars
        finally:
            tracemalloc.stop()

    peak(2)  # the parser, the spec's caches and numpy's first calls
    (code_small, small, chars_small), (code_large, large, chars_large) = peak(100), peak(200)
    assert code_small == code_large == 0
    assert chars_large - chars_small > 3_000_000
    assert large - small < (chars_large - chars_small) / 10
