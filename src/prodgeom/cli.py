"""Command line front end: batch evaluation, classification and verification.

Subcommands: ``eval``, ``curvature``, ``elasticity``, ``classify``,
``verify``. Point batches come from a headerless CSV file or an inline grid
descriptor ``grid:<lo>..<hi>x<lo>..<hi>[x...]:<k>`` (k equally spaced samples
per axis, inclusive endpoints, row-major order). Rows are emitted in input
order, CSV or JSONL, with identical numeric values in both encodings; stdout
is written once, after the last row.

Exit codes: 0 success, 1 domain error, 2 parse/validation error, 3 numerical
failure. Singular points in a batch never fail the run; they are reported in
the per-row ``status`` column (``ok``, ``hicks_undefined``,
``allen_undefined``, ``domain_error``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from .classify import classify_allen_singular, classify_ces, classify_developable
from .elasticity import elasticity_report
from .errors import DomainError, ParseError, ProdgeomError, SpecError, ValidationError
from .funcspec import Composite, FunctionSpec, Homothetical, evaluate, parse_spec
from .geometry import gauss_kronecker_batch
from .jets import Jet2N, _fd_gaps, jet_multivariate
from .verify import run_checks


def _parse_grid(desc: str) -> list:
    body = desc[len("grid:"):]
    axes_part, sep, count_part = body.rpartition(":")
    if not sep:
        raise ValidationError(f"grid descriptor {desc!r} is missing the sample count")
    try:
        k = int(count_part)
    except ValueError:
        raise ValidationError(f"grid sample count {count_part!r} is not an integer") from None
    if k < 1:
        raise ValidationError(f"grid sample count must be >= 1, got {k}")
    axes = []
    for axis in axes_part.split("x"):
        lo_s, sep, hi_s = axis.partition("..")
        if not sep:
            raise ValidationError(f"grid axis {axis!r} must look like <lo>..<hi>")
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise ValidationError(f"grid axis {axis!r} has non-numeric bounds") from None
        with np.errstate(over="ignore", invalid="ignore"):
            values = [lo] if k == 1 else [float(v) for v in np.linspace(lo, hi, k)]
        # finite bounds far apart can still step to inf or nan
        if not all(map(math.isfinite, [lo, hi, *values])):
            raise ValidationError(f"grid axis {axis!r} gives non-finite coordinates")
        axes.append(values)
    points = [()]
    for axis in axes:
        points = [p + (v,) for p in points for v in axis]
    return points


def _load_points(source: str, n: int) -> list:
    if source.startswith("grid:"):
        points = _parse_grid(source)
    else:
        points = []
        try:
            with open(source, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    cells = line.split(",")
                    try:
                        point = tuple(float(c) for c in cells)
                    except ValueError:
                        raise ValidationError(
                            f"{source}:{lineno}: non-numeric coordinate in {line!r}"
                        ) from None
                    if not all(map(math.isfinite, point)):
                        raise ValidationError(
                            f"{source}:{lineno}: non-finite coordinate in {line!r}")
                    points.append(point)
        except OSError as e:
            raise ValidationError(f"cannot read points file {source}: {e}") from None
    if not points:
        raise ValidationError(f"points source {source!r} produced no points")
    for idx, p in enumerate(points):
        if len(p) != n:
            raise ValidationError(
                f"point {idx + 1} has {len(p)} coordinates but the spec has {n} variables")
    return points


def _load_spec(path: str, relax_rho: bool) -> FunctionSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read spec file {path}: {e}") from None
    return parse_spec(text, relax_rho=relax_rho)


def _parse_pairs(text: str, n: int) -> list:
    pairs = []
    for chunk in text.split(";"):
        i_s, sep, j_s = chunk.partition(",")
        if not sep:
            raise ValidationError(f"pair {chunk!r} must look like i,j")
        try:
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise ValidationError(f"pair {chunk!r} has non-integer indices") from None
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValidationError(f"pair ({i},{j}) invalid for {n} variables")
        pairs.append((i, j))
    return pairs


def _writer(header: list, fmt: str, out):
    """A function writing rows to ``out`` as CSV (after a header line, written
    now) or JSONL. Floats print as their repr in both (``str`` is ``repr`` for
    a float) and None as an empty CSV cell or JSON null."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        return writer.writerows
    return lambda rows: out.writelines(
        json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n" for row in rows)


#: Rows per block of ``curvature``: the block kernel's columns stay small,
#: and each block is encoded to text before the next one is computed.
BLOCK_ROWS = 2048


def _per_row(measure):
    """Block measure from a one-point ``measure(p)`` (see ``_run_points``)."""
    def measure_block(block):
        for p in block:
            try:
                yield measure(p)
            except DomainError:
                yield None, None, "domain_error"

    return measure_block


def _run_points(args, spec: FunctionSpec, points, out) -> int:
    """One row per point: coordinates, value, the subcommand's columns, fd_gap, status.

    Points go in blocks of ``BLOCK_ROWS`` to the subcommand's
    ``measure_block(block)``, which yields per point the row's exact jet
    (None where the row needs none), its cells from ``value`` on and its
    status; a DomainError row has no cells and status ``domain_error``, and
    any other error ends the run. ``curvature`` computes a block at once
    with ``gauss_kronecker_batch``; ``eval`` and ``elasticity`` go point by
    point. The fd_gap column compares the finite-difference oracle with the
    row's jet, for a whole block at once (``jets._fd_gaps``); the first row,
    in input order, whose measure or oracle fails decides the error. Stdout
    is written once, after the last block.
    """
    columns = []
    if args.command == "eval":
        def measure(p):
            jet = jet_multivariate(spec, p) if args.fd_check else None
            return jet, [evaluate(spec, p) if jet is None else jet.value], "ok"

        measure_block = _per_row(measure)
    elif args.command == "curvature":
        columns = ["omega", "det_hessian", "gk"]

        def measure_block(block):
            blk = gauss_kronecker_batch(spec, block)
            cells = np.stack([blk.value, blk.omega, blk.hessian_det, blk.gk_curvature],
                             axis=1).tolist()
            for i, error in enumerate(blk.errors):
                if isinstance(error, DomainError):
                    yield None, None, "domain_error"
                elif error is not None:
                    raise error
                else:
                    jet = (Jet2N(cells[i][0], blk.gradient[i], blk.hessian[i])
                           if args.fd_check else None)
                    yield jet, cells[i], "ok"
    else:
        pairs = _parse_pairs(args.pairs, spec.n) if args.pairs else None
        if spec.n < 2:
            raise ValidationError("the elasticity subcommand needs a spec with >= 2 variables")
        if pairs is None:
            pairs = [(i, j) for i in range(1, spec.n + 1) for j in range(i + 1, spec.n + 1)]
        columns = ([f"hicks_{i}_{j}" for i, j in pairs] + [f"allen_{i}_{j}" for i, j in pairs]
                   + ["bordered_det"])

        def measure(p):
            report = elasticity_report(spec, p)
            hicks = [float(report.hicks[i - 1, j - 1]) for i, j in pairs]
            # nan marks an undefined pair
            status = ("hicks_undefined" if any(h != h for h in hicks)
                      else "allen_undefined" if report.allen is None else "ok")
            allen = ([None] * len(pairs) if report.allen is None
                     else [float(report.allen[i - 1, j - 1]) for i, j in pairs])
            return report.jet, [report.value, *(None if h != h else h for h in hicks),
                                *allen, report.bordered_det], status

        measure_block = _per_row(measure)
    header = [f"x{k + 1}" for k in range(spec.n)] + ["value"] + columns
    if args.fd_check:
        header.append("fd_gap")
    header.append("status")
    empty = [None] * (len(header) - spec.n - 1)
    text = io.StringIO()
    write = _writer(header, args.format, text)
    with np.errstate(all="ignore"):  # a non-finite result raises NumericalError instead
        for start in range(0, len(points), BLOCK_ROWS):
            block = points[start:start + BLOCK_ROWS]
            results, error = [], None
            try:
                for result in measure_block(block):
                    results.append(result)
            except ProdgeomError as e:
                error = e  # raised once the rows before it have had their fd_gap
            checked = [i for i, (_, cells, _) in enumerate(results) if cells is not None]
            if args.fd_check and checked:
                jets = [results[i][0] for i in checked]
                gaps = _fd_gaps(spec, np.array([block[i] for i in checked], dtype=float),
                                np.array([jet.gradient for jet in jets]),
                                np.array([jet.hessian for jet in jets]))
                for i, gap in zip(checked, gaps.tolist()):
                    results[i][1].append(gap)
            if error is not None:
                raise error
            write([[*p, *(empty if cells is None else cells), status]
                   for p, (_, cells, status) in zip(block, results)])
    out.write(text.getvalue())
    return 0


def _run_classify(spec: FunctionSpec, fmt: str, out) -> int:
    verdicts = []
    if isinstance(spec, Homothetical):
        verdicts.append(("developable", classify_developable(spec)))
    elif isinstance(spec, Composite):
        verdicts.append(("allen_singular", classify_allen_singular(spec)))
    # the CES form is an outer-composed product only after rewriting, so for
    # acms specs only the constant-elasticity family applies symbolically
    verdicts.append(("ces", classify_ces(spec)))
    header = ["classifier", "family", "certificate", "notes"]
    rows = [[name, v.family, json.dumps(v.certificate, separators=(",", ":")), v.notes]
            for name, v in verdicts]
    _writer(header, fmt, out)(rows)
    return 0


def _run_verify(seed: int, tol: float, out) -> int:
    results = run_checks(seed=seed, tol=tol)
    width = max(len(r.name) for r in results)
    for r in results:
        out.write(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}\n")
    failed = [r.name for r in results if not r.passed]
    out.write(f"{len(results) - len(failed)}/{len(results)} checks passed "
              f"(seed {seed}, tol {tol!r})\n")
    if failed:
        print(f"error: failing checks: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodgeom",
        description="Curvature, substitution elasticities and family "
                    "classification for product-form function specs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_points: bool):
        sp.add_argument("--spec", required=True, help="path to a JSON spec file")
        if needs_points:
            sp.add_argument("--points", required=True,
                            help="points CSV file or grid:<lo>..<hi>x...:<k>")
            sp.add_argument("--fd-check", action="store_true",
                            help="add a finite-difference cross-check column")
        sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        sp.add_argument("--relax-rho", action="store_true",
                        help="permit CES specs with rho >= 1")

    add_common(sub.add_parser("eval", help="evaluate the spec on a point batch"),
               needs_points=True)
    add_common(sub.add_parser("curvature",
                              help="omega, Hessian determinant and curvature per point"),
               needs_points=True)
    ela = sub.add_parser("elasticity",
                         help="Hicks/Allen elasticities and bordered determinant")
    add_common(ela, needs_points=True)
    ela.add_argument("--pairs", help="variable pairs i,j[;i,j...] (default: all)")
    add_common(sub.add_parser("classify", help="symbolic family classification"),
               needs_points=False)
    ver = sub.add_parser("verify", help="run the named verification checks")
    ver.add_argument("--tol", type=float, default=1e-8)
    ver.add_argument("--seed", type=int, default=42)
    return parser


def run(argv: Sequence[str]) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    out = sys.stdout
    try:
        if args.command == "verify":
            if args.tol <= 0.0:
                raise ValidationError(f"--tol must be positive, got {args.tol!r}")
            return _run_verify(args.seed, args.tol, out)
        spec = _load_spec(args.spec, args.relax_rho)
        if args.command == "classify":
            return _run_classify(spec, args.format, out)
        points = _load_points(args.points, spec.n)
        return _run_points(args, spec, points, out)
    except ProdgeomError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (ParseError, ValidationError, SpecError)):
            return 2
        return 1 if isinstance(e, DomainError) else 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
