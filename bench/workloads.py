"""Seeded workload inputs, the timed batches and the correctness gate.

Every workload is a batch of ``prodgeom`` CLI invocations (what a CLI user
runs) plus a sweep of the library call a library user makes per point.
Inputs are generated from the benchmark seed only; the generated spec and
point files are all that prodgeom sees.

Why each workload exists (each fills a layer the others leave almost idle):

* ``curvature_grid_n2``: the golden Cobb-Douglas spec on a 150 x 150 grid.
  Per-row Python overhead (1-D jets, evaluate, closed-form determinant, CSV
  encoding) dominates; LU and elasticities never run.
* ``elasticity_n10``: all 45 pairs on one n = 10 spec of each kind. The
  O(n^5) LU cofactors dominate; emission is negligible.
* ``fdcheck_mixed_n5``: ``curvature --fd-check --format jsonl`` on n = 5
  composite and CES specs, one per outer map, with every tenth point outside
  the domain. The value path (61 evaluations per row in the FD oracle), the
  LU route, JSONL encoding and the ``domain_error`` status dominate.
* ``verify_contract``: ``prodgeom verify --seed 42``, the contract check;
  the only workload that runs classify, sampling, ces_probe, is_developable
  and the closed-form-vs-LU comparison.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import prodgeom
from prodgeom import cli, sampling, verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_SPEC = os.path.join(ROOT, "tests", "data", "cobb_douglas_crs.json")

#: Seed of the verify contract, and the seed at which the stdout of the
#: seeded workloads is pinned by a recorded digest.
DEFAULT_SEED = 42
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Oracle limits: det_hessian uses the tolerance of verify's
#: check_det_closed_vs_lu; jets use the limits of check_jets_vs_finite_difference.
DET_TOL = 1e-8
FD_GRAD_TOL = 1e-6
FD_HESS_TOL = 1e-4

IN_DOMAIN_STATUSES = {"ok", "hicks_undefined", "allen_undefined"}


@dataclass
class Invocation:
    """One ``prodgeom`` CLI call and what its rows must look like."""

    argv: list
    spec: object = None          # parsed spec, None for verify
    spec_json: str = ""
    points: list = field(default_factory=list)
    out_of_domain: frozenset = frozenset()   # row indices that must be domain_error

    def expected_status(self, row: int):
        return {"domain_error"} if row in self.out_of_domain else IN_DOMAIN_STATUSES

    @property
    def rows(self) -> int:
        """Result rows: one per point, or one per check for verify."""
        return len(self.points) if self.spec is not None else 10


@dataclass
class Workload:
    name: str
    seed: int
    batch: list                  # Invocations timed for wall_s
    trace_batch: list            # Invocations run under the tracer
    probe: Callable              # library call timed per sweep item: probe(spec, point)
    sweep: list                  # (spec, point, must_raise_domain_error); for verify
                                 # (check function, seed, False)
    oracle_rows: int = 0         # seeded subsample size for the oracle checks
    fixed_input: bool = False    # inputs do not depend on the seed
    full_size: bool = True
    setup_files: dict = field(default_factory=lambda: {"specs": [], "points": []})

    def describe(self) -> dict:
        """The generated inputs, for reproducibility checks across reruns."""
        h = hashlib.sha256()
        invs = []
        for inv in self.batch:
            argv = [os.path.basename(a) if os.path.isabs(a) else a for a in inv.argv]
            h.update(json.dumps(argv).encode())
            entry = {"argv": argv}
            if inv.spec is not None:
                h.update(inv.spec_json.encode())
                h.update(repr(inv.points).encode())
                entry.update(spec=json.loads(inv.spec_json), points=len(inv.points),
                             expected_status={
                                 "in_domain": len(inv.points) - len(inv.out_of_domain),
                                 "domain_error": len(inv.out_of_domain)})
            invs.append(entry)
        return {"workload": self.name, "seed": self.seed, "inputs_sha256": h.hexdigest(),
                "invocations": invs}


# ---------------------------------------------------------------------------
# Input generation


def _grid(lo: float, hi: float, k: int, n: int = 2) -> list:
    """The CLI's grid expansion: k samples per axis, row-major."""
    axis = [float(v) for v in np.linspace(lo, hi, k)]
    points = [()]
    for _ in range(n):
        points = [p + (v,) for p in points for v in axis]
    return points


def _outers(rng: random.Random) -> list:
    """One outer map of each type, with seeded parameters."""
    return [prodgeom.Identity(), prodgeom.Power(d=rng.uniform(0.4, 2.0)),
            prodgeom.Scale(gamma=rng.uniform(0.5, 2.0)), prodgeom.Log()]


def _random_acms(rng: random.Random, n: int, outer):
    rho = rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75)) + rng.uniform(-0.05, 0.05)
    return prodgeom.make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                              rho, rng.uniform(0.5, 2.0), outer)


def _write_invocation(workdir: str, tag: str, subcommand: list, spec, points,
                      out_of_domain=frozenset()) -> Invocation:
    spec_json = prodgeom.serialize_spec(spec)
    spec_path = os.path.join(workdir, f"{tag}.json")
    pts_path = os.path.join(workdir, f"{tag}.csv")
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write(spec_json)
    with open(pts_path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(x) for x in p) + "\n" for p in points)
    return Invocation(argv=subcommand + ["--spec", spec_path, "--points", pts_path],
                      spec=prodgeom.parse_spec(spec_json), spec_json=spec_json,
                      points=list(points), out_of_domain=frozenset(out_of_domain))


def _files(batch) -> dict:
    return {"specs": [inv.argv[inv.argv.index("--spec") + 1] for inv in batch],
            "points": [inv.argv[inv.argv.index("--points") + 1] for inv in batch]}


def _curvature_grid_n2(seed, workdir, tiny):
    with open(GOLDEN_SPEC, encoding="utf-8") as fh:
        spec_json = fh.read().strip()
    spec = prodgeom.parse_spec(spec_json)

    def inv(k):
        return Invocation(argv=["curvature", "--spec", GOLDEN_SPEC,
                                "--points", f"grid:0.5..2.0x0.5..2.0:{k}"],
                          spec=spec, spec_json=spec_json, points=_grid(0.5, 2.0, k))

    batch = [inv(12 if tiny else 150)]
    # the sweep samples the grid: timing all 22,500 points would double the run
    sample = random.Random(seed).sample(batch[0].points, min(2000, len(batch[0].points)))
    return Workload("curvature_grid_n2", seed, batch, [inv(6 if tiny else 100)],
                    probe=prodgeom.gauss_kronecker, sweep=[(spec, p, False) for p in sample],
                    oracle_rows=200, fixed_input=True,
                    setup_files={"specs": [GOLDEN_SPEC], "points": []})


#: Component kinds of the n = 10 product and composite specs: fixed, so the
#: per-row cost does not swing with the seed. Three exp components, as a
#: random pick of ten averages, give ``hicks_undefined`` or
#: ``allen_undefined`` rows.
ELA_KINDS = ("pow", "exp", "logpow", "pow", "exp", "logpow", "pow", "exp", "logpow", "pow")


def _elasticity_n10(seed, workdir, tiny):
    rng = random.Random(seed)
    specs = [prodgeom.Homothetical([sampling.random_component(rng, kind=k) for k in ELA_KINDS]),
             prodgeom.Composite(sampling.random_outer(rng),
                                [sampling.random_component(rng, kind=k, positive=True)
                                 for k in ELA_KINDS]),
             _random_acms(rng, 10, sampling.random_outer(rng))]
    per_spec = 1 if tiny else 12
    batch = [_write_invocation(workdir, f"ela{k}", ["elasticity"], spec,
                               sampling.points_loguniform(10, per_spec, rng))
             for k, spec in enumerate(specs)]
    return Workload("elasticity_n10", seed, batch, batch, probe=prodgeom.elasticity_report,
                    sweep=[(inv.spec, p, False) for inv in batch for p in inv.points],
                    oracle_rows=9, setup_files=_files(batch))


#: Component kinds of the n = 5 composite specs. A fixed pattern keeps the
#: per-row cost from swinging with the seed. Setting a logpow coordinate to
#: -1.5 leaves the domain; every CES coordinate does.
FD_KINDS = ("pow", "logpow", "exp", "pow", "logpow")
FD_UNDEFINED_SLOTS = {"composite": (1, 4), "acms": (0, 1, 2, 3, 4)}


def _jet_and_fd(spec, point):
    prodgeom.jet_multivariate(spec, point)
    return prodgeom.fd_jet(lambda q: prodgeom.evaluate(spec, q), point)


def _fdcheck_mixed_n5(seed, workdir, tiny):
    rng = random.Random(seed)
    specs = [prodgeom.Composite(outer, [sampling.random_component(rng, kind=k, positive=True)
                                        for k in FD_KINDS])
             for outer in _outers(rng)]
    specs += [_random_acms(rng, 5, outer) for outer in _outers(rng)]
    per_spec = 10 if tiny else 75
    bad = frozenset(range(9, per_spec, 10))  # every tenth point
    batch = []
    for k, spec in enumerate(specs):
        points = sampling.points_loguniform(5, per_spec, rng)
        for i in sorted(bad):
            moved = list(points[i])
            moved[rng.choice(FD_UNDEFINED_SLOTS[spec.kind])] = -1.5
            points[i] = tuple(moved)
        batch.append(_write_invocation(workdir, f"fd{k}",
                                       ["curvature", "--fd-check", "--format", "jsonl"],
                                       spec, points, bad))
    return Workload("fdcheck_mixed_n5", seed, batch, batch, probe=_jet_and_fd,
                    sweep=[(inv.spec, p, i in bad) for inv in batch
                           for i, p in enumerate(inv.points)],
                    oracle_rows=64, setup_files=_files(batch))


def _run_check(check, seed):
    result = check(seed=seed)
    if not result.passed:
        raise AssertionError(f"{result.name} failed at seed {seed}: {result.detail}")


def _verify_contract(seed, workdir, tiny):
    # the sweep calls each named check, as run_checks does, one call per sample
    batch = [Invocation(argv=["verify", "--seed", str(DEFAULT_SEED)])]
    return Workload("verify_contract", seed, batch, batch, probe=_run_check,
                    sweep=[(check, DEFAULT_SEED, False) for check in verify.ALL_CHECKS],
                    fixed_input=True)


GENERATORS = {"curvature_grid_n2": _curvature_grid_n2, "elasticity_n10": _elasticity_n10,
            "fdcheck_mixed_n5": _fdcheck_mixed_n5, "verify_contract": _verify_contract}


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Generate the workload's inputs from `seed` into `workdir`."""
    workload = GENERATORS[name](seed, workdir, tiny)
    workload.full_size = not tiny
    return workload


# ---------------------------------------------------------------------------
# Running


def run_invocation(inv: Invocation):
    """(exit code or None on an exception, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(inv.argv)
        except Exception as e:  # a traceback is an undocumented outcome, counted as failed
            print(f"{type(e).__name__}: {e}", file=err)
            rc = None
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Correctness gate


@dataclass
class Tally:
    """Checks attempted and failed, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, note: str, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digests(workload: Workload):
    """Digests pinned for this workload's inputs, or None when none apply."""
    if not workload.full_size or not (workload.fixed_input or workload.seed == DEFAULT_SEED):
        return None
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["stdout_sha256"][workload.name]


def _rows(inv: Invocation, text: str) -> list:
    """Rows of one CLI output as dicts keyed by column name."""
    if "jsonl" in inv.argv:
        return [json.loads(line) for line in text.splitlines()]
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [{k: v if k == "status" else float(v) if v else None
             for k, v in zip(header, cells)} for cells in reader]


def _norm_rel_gap(approx, exact) -> float:
    return float(np.max(np.abs(approx - exact))) / max(1.0, float(np.max(np.abs(exact))))


def _oracle(tally: Tally, inv: Invocation, i: int, row: dict) -> None:
    spec, p = inv.spec, inv.points[i]
    where = f"{inv.argv[0]} row {i} at {p!r}"
    exact = prodgeom.jet_multivariate(spec, p)
    approx = prodgeom.fd_jet(lambda q: prodgeom.evaluate(spec, q), p)
    g_gap = _norm_rel_gap(approx.gradient, exact.gradient)
    h_gap = _norm_rel_gap(approx.hessian, exact.hessian)
    tally.check(g_gap <= FD_GRAD_TOL and h_gap <= FD_HESS_TOL,
                f"{where}: jet vs FD gaps {g_gap:.3e} / {h_gap:.3e}")
    tally.check(row["value"] == prodgeom.evaluate(spec, p),
                f"{where}: value {row['value']!r} != evaluate")
    if "det_hessian" in row:
        direct = prodgeom.hessian_det_direct(spec, p)
        gap = abs(row["det_hessian"] - direct) / max(1.0, abs(direct))
        tally.check(gap <= DET_TOL, f"{where}: det_hessian gap {gap:.3e} vs LU")


def check_batch(workload: Workload, invocations: list, results: list, tally: Tally) -> None:
    """Check one batch's outputs: exit codes, row counts, echoed coordinates,
    statuses, and a seeded subsample of rows against the LU and FD oracles."""
    rng = random.Random(workload.seed)
    for inv, (rc, out, err) in zip(invocations, results):
        label = " ".join(inv.argv[:2])
        if inv.spec is None:  # verify: all ten checks must pass
            lines = out.splitlines()
            ok = rc == 0 and len(lines) == 11 and lines[-1].startswith("10/10 checks passed")
            tally.check(ok, f"{label}: exit {rc}, {lines[-1:] or err!r}", weight=inv.rows)
            continue
        rows = _rows(inv, out) if rc == 0 else []
        if rc != 0 or len(rows) != len(inv.points):
            # the whole invocation failed: every row it owed counts as failed
            tally.check(False, f"{label}: exit {rc}, {len(rows)} rows for "
                               f"{len(inv.points)} points: {err.strip()[:200]}",
                        weight=inv.rows)
            continue
        n = inv.spec.n
        for i, (row, p) in enumerate(zip(rows, inv.points)):
            tally.check(tuple(row[f"x{k + 1}"] for k in range(n)) == tuple(p)
                        and row["status"] in inv.expected_status(i),
                        f"{label} row {i}: status {row['status']!r} or coordinates differ")
        defined = [i for i, row in enumerate(rows) if row["status"] != "domain_error"]
        take = min(max(1, workload.oracle_rows // len(invocations)), len(defined))
        for i in sorted(rng.sample(defined, take)):
            _oracle(tally, inv, i, rows[i])


def status_mix(invocations: list, results: list) -> dict:
    mix = {}
    for inv, (rc, out, _) in zip(invocations, results):
        if inv.spec is None or rc != 0:
            continue
        for row in _rows(inv, out):
            mix[row["status"]] = mix.get(row["status"], 0) + 1
    return dict(sorted(mix.items()))


def record_digests(seed: int = DEFAULT_SEED) -> None:
    """Rewrite digests.json from the current program's stdout at `seed`.

    Run only when a change to the outputs is intended and allowed (see the
    golden-file rule in ROADMAP.md):
    ``PYTHONPATH=src:bench python3 -c "import workloads; workloads.record_digests()"``
    """
    record = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for name in GENERATORS:
            workload = build(name, seed, workdir)
            record[name] = [sha256(run_invocation(inv)[1]) for inv in workload.batch]
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "stdout_sha256": record}, fh, indent=1)
        fh.write("\n")
