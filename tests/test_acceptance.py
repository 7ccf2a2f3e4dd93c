"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-10 run the named verification checks at their pinned seeds and
tolerances; criterion 11 exercises this checkout's CLI end to end against the
committed golden files. Run with ``pytest tests/test_acceptance.py -v``.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from prodgeom.verify import (
    check_allen_singular_certificates,
    check_ces_constant_sigma,
    check_cobb_douglas_curvature_control,
    check_curvature_allen_equivalence,
    check_det_closed_vs_lu,
    check_developable_certificates,
    check_hicks_allen_two_var,
    check_hicks_outer_invariance,
    check_jets_vs_finite_difference,
    check_log_component_ces,
)

SEED = 42
TOL = 1e-8
ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _report(criterion, result):
    line = f"{'PASS' if result.passed else 'FAIL'} criterion {criterion}: {result.name} ({result.detail})"
    print(line)
    assert result.passed, line


def test_criterion_1_determinant_oracle_equivalence():
    start = time.monotonic()
    result = check_det_closed_vs_lu(seed=SEED, tol=TOL, cases=200)
    elapsed = time.monotonic() - start
    _report(1, result)
    print(f"PASS criterion 1 runtime: {elapsed:.2f}s (< 5s)")
    assert elapsed < 5.0


def test_criterion_2_developable_certificates():
    # 10 constructed specs per case, 50 points each, |G| <= 1e-9, plus the
    # worked control det = -24, omega^2 = 14, G = -24/196 at 1e-12 relative
    _report(2, check_developable_certificates(seed=SEED, tol=TOL))


def test_criterion_3_unit_returns_control():
    _report(3, check_cobb_douglas_curvature_control(seed=SEED, tol=TOL))


def test_criterion_4_constant_elasticities():
    _report(4, check_ces_constant_sigma(seed=SEED, tol=TOL))


def test_criterion_5_outer_invariance():
    _report(5, check_hicks_outer_invariance(seed=SEED, tol=TOL, cases=50))


def test_criterion_6_two_variable_coincidence():
    _report(6, check_hicks_allen_two_var(seed=SEED, tol=TOL, cases=100))


def test_criterion_7_allen_singular_certificates():
    _report(7, check_allen_singular_certificates(seed=SEED, tol=TOL))


def test_criterion_8_curvature_allen_equivalence():
    _report(8, check_curvature_allen_equivalence(seed=SEED, tol=TOL, cases=100))


def test_criterion_9_log_component_family():
    _report(9, check_log_component_ces(seed=SEED, tol=TOL))


def test_criterion_10_differentiation_cross_check():
    _report(10, check_jets_vs_finite_difference(seed=SEED, cases=200))


def _cli(*argv):
    # the child runs this checkout's package whether or not one is installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "prodgeom", *argv],
                          capture_output=True, text=True, cwd=ROOT, env=env)
    return proc.returncode, proc.stdout


DOCUMENTED_INVOCATIONS = (
    (("curvature", "--spec", str(DATA / "cobb_douglas_crs.json"),
      "--points", "grid:0.5..2.0x0.5..2.0:5"),
     GOLDEN / "curvature_cobb_douglas_grid.csv"),
    (("elasticity", "--spec", str(DATA / "acms_rho_half.json"),
      "--points", str(DATA / "pts.csv")),
     GOLDEN / "elasticity_acms_pts.csv"),
    (("classify", "--spec", str(DATA / "thm31a.json"), "--format", "jsonl"),
     GOLDEN / "classify_thm31a.jsonl"),
)


def test_criterion_11_cli_determinism_and_golden_files():
    for argv, golden in DOCUMENTED_INVOCATIONS:
        code_1, out_1 = _cli(*argv)
        code_2, out_2 = _cli(*argv)
        assert code_1 == code_2 == 0, f"{argv} exited {code_1}/{code_2}"
        assert out_1 == out_2, f"{argv} is not deterministic"
        expected = golden.read_text()
        assert out_1 == expected, f"{argv} deviates from {golden.name}"
    start = time.monotonic()
    code, out = _cli("verify", "--seed", "42")
    elapsed = time.monotonic() - start
    assert code == 0, out
    assert elapsed < 30.0
    print(f"PASS criterion 11: CLI golden files byte-identical; "
          f"verify --seed 42 exit 0 in {elapsed:.2f}s (< 30s)")
