"""Tests for the command line front end."""

import csv
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import prodgeom
from prodgeom import cli, fd_jet, gauss_kronecker
from prodgeom.cli import BLOCK_ROWS, _parse_grid, run
from prodgeom.jets import norm_rel_gaps
from prodgeom.verify import run_checks

DATA = Path(__file__).parent / "data"


def _run(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grid_descriptor_row_major():
    points = _parse_grid("grid:0.0..1.0x10.0..11.0:2")
    assert points == [(0.0, 10.0), (0.0, 11.0), (1.0, 10.0), (1.0, 11.0)]
    assert _parse_grid("grid:1.0..2.0:1") == [(1.0,)]


def test_grid_descriptor_errors():
    from prodgeom import ValidationError
    with pytest.raises(ValidationError):
        _parse_grid("grid:0..1")
    with pytest.raises(ValidationError):
        _parse_grid("grid:0..1x2:0")
    with pytest.raises(ValidationError):
        _parse_grid("grid:zero..1:3")


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
    code, _, err = _run(capsys, "elasticity", "--spec", DATA / "acms_rho_half.json",
                        "--points", DATA / "pts.csv", "--pairs", "1,7")
    assert code == 2
    assert "(1,7)" in err


def test_validation_error_names_component(capsys):
    code, _, err = _run(capsys, "classify", "--spec", DATA / "bad_gamma.json")
    assert code == 2
    assert "components[0]" in err


def test_missing_spec_file(capsys):
    code, _, err = _run(capsys, "classify", "--spec", DATA / "no_such.json")
    assert code == 2
    assert "no_such.json" in err


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


def test_curvature_overflow_exits_3(capsys, tmp_path):
    # x1^0.3 x2^0.7: f'' of the first factor, 1e-300^-1.7, overflows
    points = tmp_path / "tiny.csv"
    points.write_text("1e-300,1.0\n")
    code, out, err = _run(capsys, "curvature", "--spec", DATA / "cobb_douglas_crs.json",
                          "--points", points)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "overflowed" in err


def test_csv_jsonl_numeric_equivalence(capsys):
    _, csv_out, _ = _run(capsys, "curvature", "--spec", DATA / "acms_rho_half.json",
                         "--points", DATA / "pts.csv")
    _, jsonl_out, _ = _run(capsys, "curvature", "--spec", DATA / "acms_rho_half.json",
                           "--points", DATA / "pts.csv", "--format", "jsonl")
    header = csv_out.splitlines()[0].split(",")
    for csv_row, json_row in zip(csv_out.splitlines()[1:], jsonl_out.splitlines()):
        obj = json.loads(json_row)
        cells = csv_row.split(",")
        for name, cell in zip(header, cells):
            if name == "status":
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
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "non-finite" in err


_XY = ('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":0,"alpha":1},'
       '{"type":"pow","gamma":1,"beta":0,"alpha":1}]}')
_CES_RHO_MINUS_1 = ('{"kind":"acms","gamma":1,"betas":[0.4,1],"rho":-1,"d":1,'
                    '"outer":{"type":"identity"}}')
_SHIFTED_SQRT = ('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":1,'
                 '"alpha":0.5},{"type":"pow","gamma":1,"beta":1,"alpha":0.5}]}')
_EXP = '{"kind":"homothetical","components":[{"type":"exp","gamma":1.0,"lambda":1.0}]}'
_EXP_X = ('{"kind":"composite","outer":{"type":"identity"},"components":[{"type":"exp",'
          '"gamma":1.0,"lambda":1.0},{"type":"pow","gamma":1.0,"beta":0.0,"alpha":1.0}]}')


# a numpy warning on the way would be a second stderr line
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, spec_text, point", [
    # x1 * x2: the jet and the determinant are finite, omega^4 is not
    ("curvature", _XY, "1e77,1e77"),
    # 0.4 * 5e-324 underflows to 0, and rho = -1 divides by it
    ("eval", _CES_RHO_MINUS_1, "5e-324,1"),
    ("curvature", _CES_RHO_MINUS_1, "5e-324,1"),
    ("elasticity", _CES_RHO_MINUS_1, "5e-324,1"),
    # x1 * x2 underflows to 0 in the Allen weight sum_k x_k f_k / (x1 x2)
    ("elasticity", _SHIFTED_SQRT, "5e-324,0.4"),
    # e^x: f'^2 overflows in omega
    ("curvature", _EXP, "360"),
    # e^x1 * x2: omega and the LU determinant overflow, so gk would be nan
    ("curvature", _EXP_X, "360,1e-5"),
    # ... and so does the bordered determinant
    ("elasticity", _EXP_X, "360,1e-5"),
], ids=["curvature-omega", "eval-ces", "curvature-ces", "elasticity-ces", "elasticity-weight",
        "curvature-omega-inf", "curvature-det-inf", "elasticity-bordered-inf"])
def test_extreme_point_exits_3(capsys, tmp_path, command, spec_text, point):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    points = tmp_path / "pts.csv"
    points.write_text(point + "\n")
    for fmt in ("csv", "jsonl"):
        code, out, err = _run(capsys, command, "--spec", spec, "--points", points,
                              "--format", fmt)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_zero_gradient_interior_point_keeps_value(capsys, tmp_path):
    # (x1 - 1)^2 * x2 at (1, 1): in the domain, f = 0 and both partials vanish
    spec = tmp_path / "square.json"
    spec.write_text('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":-1,'
                    '"alpha":2},{"type":"pow","gamma":1,"beta":0,"alpha":1}]}')
    code, out, _ = _run(capsys, "elasticity", "--spec", spec, "--points", "grid:1..1x1..1:1")
    assert code == 0
    assert out.splitlines()[1] == "1.0,1.0,0.0,,,0.0,hicks_undefined"


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
    # on its own factor jets; the value slot is the jet's
    (["curvature", "--spec", DATA / "cobb_douglas_crs.json"], 0, 0, 0),
    (["elasticity", "--spec", DATA / "acms_rho_half.json"], 1, 0, 0),
    # the FD stencil evaluates the spec; the exact side is the row's own jet
    (["curvature", "--fd-check", "--spec", DATA / "acms_rho_half.json"], 0, 0, None),
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
    # each component's value and derivatives run once per row
    spec = prodgeom.parse_spec((DATA / "cobb_douglas_crs.json").read_text())
    assert Counter(values) == Counter(derivs) == {c: 2116 for c in spec.components}


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
    for extra in ([], ["--fd-check"], ["--format", "jsonl"]):
        code, out, err = _run(capsys, "curvature", "--spec", spec_path, "--points", points_path,
                              *extra)
        assert (code, out) == (3, "")
        assert err == f"error: {first.value}\n"


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
    # own measure fails
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
    for fmt in ("csv", "jsonl"):
        code, out, err = _run(capsys, command, "--spec", spec_path, "--points", points_path,
                              "--format", fmt, "--fd-check")
        assert (code, out) == (3, "")
        assert err == f"error: {first.value}\n"
