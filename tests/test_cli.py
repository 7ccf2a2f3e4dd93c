"""Tests for the command line front end."""

import json
import sys
from pathlib import Path

import pytest

import prodgeom
from prodgeom.cli import _parse_grid, run
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
    points = tmp_path / "huge.csv"
    points.write_text("1e200,1e200\n")
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


@pytest.mark.parametrize("command, spec_text, point", [
    # x1 * x2: the jet and the determinant are finite, omega^4 is not
    ("curvature", _XY, "1e77,1e77"),
    # 0.4 * 5e-324 underflows to 0, and rho = -1 divides by it
    ("eval", _CES_RHO_MINUS_1, "5e-324,1"),
    ("curvature", _CES_RHO_MINUS_1, "5e-324,1"),
    ("elasticity", _CES_RHO_MINUS_1, "5e-324,1"),
    # x1 * x2 underflows to 0 in the Allen weight sum_k x_k f_k / (x1 x2)
    ("elasticity", _SHIFTED_SQRT, "5e-324,0.4"),
], ids=["curvature-omega", "eval-ces", "curvature-ces", "elasticity-ces", "elasticity-weight"])
def test_extreme_point_exits_3(capsys, tmp_path, command, spec_text, point):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    points = tmp_path / "pts.csv"
    points.write_text(point + "\n")
    code, out, err = _run(capsys, command, "--spec", spec, "--points", points)
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
    # n = 2 product spec: the closed-form determinant reads the jet's own
    # factor jets, and the value slot is the jet's
    (["curvature", "--spec", DATA / "cobb_douglas_crs.json"], 1, 0, 0),
    (["elasticity", "--spec", DATA / "acms_rho_half.json"], 1, 0, 0),
    # the FD stencil evaluates the spec; the exact side is the row's own jet
    (["curvature", "--fd-check", "--spec", DATA / "acms_rho_half.json"], 1, 0, None),
])
def test_one_jet_per_row(capsys, monkeypatch, argv, jets, jet1ds, evaluates):
    counts = [_count_calls(monkeypatch, fn) for fn in
              (prodgeom.jet_multivariate, prodgeom.jet1d, prodgeom.evaluate)]
    kinds = (prodgeom.PowFn, prodgeom.ExpFn, prodgeom.LogPowFn)
    values = _count_method_calls(monkeypatch, kinds, "value")
    derivs = _count_method_calls(monkeypatch, kinds, "derivs")
    code, out, _ = _run(capsys, *argv, "--points", "grid:1.5..1.5x0.5..0.5:1")
    assert code == 0 and out.splitlines()[1].endswith(",ok")
    assert len(counts[0]) == jets and len(counts[1]) == jet1ds
    if evaluates is not None:
        assert len(counts[2]) == evaluates
        # each component's value and derivatives run once per row
        spec = prodgeom.parse_spec(Path(argv[argv.index("--spec") + 1]).read_text())
        components = list(getattr(spec, "components", ()))
        assert values == components and derivs == components
