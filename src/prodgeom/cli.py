"""Command line front end: batch evaluation, classification and verification.

Subcommands: ``eval``, ``curvature``, ``elasticity``, ``classify``,
``verify``. Point batches come from a headerless CSV file or an inline grid
descriptor ``grid:<lo>..<hi>x<lo>..<hi>[x...]:<k>`` (k equally spaced samples
per axis, inclusive endpoints, row-major order). Number text (points cells,
grid bounds and count, ``--pairs``, ``--tol``, ``--seed``) must be ASCII
without ``_`` (``_ascii_number``). Rows are emitted in input order, CSV or
JSONL, with identical numeric values in both encodings; stdout is written
one block (``BLOCK_ROWS``) at a time. Both formats encode a block's floats
in one pass (``_writer``), and grid coordinates once per axis value. A CSV
cell follows ``csv.writer``'s QUOTE_MINIMAL rule (``_csv_cell``); a JSONL
line fills a template of the header's keys, built once, with the encoded
cells, giving the bytes of ``json.dumps`` with ASCII-escaped text. A nan
float is a missing cell: empty in CSV, null in JSONL. The argument parser
is built on the first ``run`` and reused by later ones.

Exit codes: 0 success, 1 domain error, 2 parse/validation error, 3 numerical
failure, 4 out of memory. Singular points in a batch never fail the run; they
are reported in the per-row ``status`` column (``ok``, ``hicks_undefined``,
``allen_undefined``, ``domain_error``). A row whose numbers fail reads
``numerical_error``, every row is still written, and the run then exits 3
with the first such row's error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .classify import classify_allen_singular, classify_ces, classify_developable
from .elasticity import elasticity_report_batch
from .errors import DomainError, ParseError, ProdgeomError, SpecError, ValidationError
from .funcspec import (Composite, FunctionSpec, Homothetical, _per_point, _value_pass, evaluate,
                       parse_spec)
from .geometry import gauss_kronecker_batch
from .jets import _fd_gaps, _jet_columns, jet_multivariate
from .verify import run_checks


def _ascii_number(kind):
    """``kind`` (float or int) on number text, raising ValueError on text
    that is not ASCII or holds ``_``, which ``kind`` alone reads as Unicode
    digits or PEP 515 digit-group underscores. The parser keeps ``kind``'s
    name, which argparse quotes in its messages."""
    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"invalid {kind.__name__} text {text!r}")
        return kind(text)
    parse.__name__ = kind.__name__
    return parse


_float, _int = _ascii_number(float), _ascii_number(int)


def _parse_grid(desc: str) -> tuple:
    """The axes of a ``grid:`` descriptor: each axis's values as a float
    array, and as CSV text (each value formatted once). The grid's points
    are the product of the axes in row-major order (``_load_points``)."""
    body = desc[len("grid:"):]
    axes_part, sep, count_part = body.rpartition(":")
    if not sep:
        raise ValidationError(f"grid descriptor {desc!r} is missing the sample count")
    try:
        k = _int(count_part)
    except ValueError:
        raise ValidationError(f"grid sample count {count_part!r} is not an integer") from None
    if k < 1:
        raise ValidationError(f"grid sample count must be >= 1, got {k}")
    too_large = f"grid sample count {k} is too large"
    axes = []
    for axis in axes_part.split("x"):
        lo_s, sep, hi_s = axis.partition("..")
        if not sep:
            raise ValidationError(f"grid axis {axis!r} must look like <lo>..<hi>")
        try:
            lo, hi = _float(lo_s), _float(hi_s)
        except ValueError:
            raise ValidationError(f"grid axis {axis!r} has non-numeric bounds") from None
        try:  # an axis no allocator can grant, or beyond numpy's index range
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.array([lo]) if k == 1 else np.linspace(lo, hi, k)
        except (MemoryError, ValueError):
            raise ValidationError(too_large) from None
        # finite bounds far apart can still step to inf or nan
        if not (math.isfinite(lo) and math.isfinite(hi) and np.isfinite(values).all()):
            raise ValidationError(f"grid axis {axis!r} gives non-finite coordinates")
        axes.append(values)
    if k ** len(axes) > np.iinfo(np.intp).max:  # rows numpy cannot index
        raise ValidationError(too_large)
    return axes, [list(map(repr, values.tolist())) for values in axes]


def _load_points(source: str, n: int) -> tuple:
    """A grid descriptor or a points file as ``(count, rows, texts)``: the
    number of points, ``rows(start, stop)`` giving points start to stop - 1
    as a float array, and for a grid its axes' text (``_parse_grid``; None
    for a file). A grid block is gathered from the axes by the row-major
    indices of its row range, so no point exists before its block is
    formed; a file is read once into an (m, n) array."""
    if source.startswith("grid:"):
        axes, texts = _parse_grid(source)
        if len(axes) != n:
            raise ValidationError(
                f"point 1 has {len(axes)} coordinates but the spec has {n} variables")
        shape = [len(values) for values in axes]

        def grid_rows(start, stop):
            index = np.unravel_index(np.arange(start, stop), shape)
            return np.stack([values[i] for values, i in zip(axes, index)], axis=1)
        return math.prod(shape), grid_rows, texts
    points = []
    try:
        with open(source, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                try:
                    point = tuple(map(_float, cells))
                except ValueError:
                    raise ValidationError(
                        f"{source}:{lineno}: non-numeric coordinate in {line!r}") from None
                if not all(map(math.isfinite, point)):
                    raise ValidationError(
                        f"{source}:{lineno}: non-finite coordinate in {line!r}")
                points.append(point)
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read points file {source}: {e}") from None
    if not points:
        raise ValidationError(f"points source {source!r} produced no points")
    for idx, p in enumerate(points):
        if len(p) != n:
            raise ValidationError(
                f"point {idx + 1} has {len(p)} coordinates but the spec has {n} variables")
    array = np.array(points, dtype=float)
    return len(array), lambda start, stop: array[start:stop], None


def _load_spec(path: str, relax_rho: bool) -> FunctionSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read spec file {path}: {e}") from None
    return parse_spec(text, relax_rho=relax_rho)


def _parse_pairs(text: str, n: int) -> list:
    pairs = []
    for chunk in text.split(";"):
        i_s, sep, j_s = chunk.partition(",")
        if not sep:
            raise ValidationError(f"pair {chunk!r} must look like i,j")
        try:
            i, j = _int(i_s), _int(j_s)
        except ValueError:
            raise ValidationError(f"pair {chunk!r} has non-integer indices") from None
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValidationError(f"pair ({i},{j}) invalid for {n} variables")
        if (i, j) in pairs:  # its column names would repeat, which JSONL keys cannot
            raise ValidationError(f"pair ({i},{j}) given twice")
        pairs.append((i, j))
    return pairs


def _csv_cell(text: str) -> str:
    """Text as csv.writer(lineterminator="\\n") writes it (its QUOTE_MINIMAL
    rule): as itself, or quoted with each ``"`` doubled if it holds ``,``,
    ``"`` or a newline (a ``\\r`` is not quoted)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _writer(header: list, fmt: str, out):
    """A function writing a block of rows to ``out`` as CSV or JSONL, with
    one ``out.write`` per block, the CSV header line going out with the
    first block: ``write(columns, lead=None)``.

    ``columns`` holds the cells by column: a float array, or a sequence of
    text. Both formats encode a block by one rule: its float columns are
    stacked, ``repr`` runs over one ``tolist()``, and each column that one
    ``isfinite`` scan finds holding a non-finite cell is then re-mapped per
    format, cell by repr, since no finite repr reads ``nan``, ``inf`` or
    ``-inf`` (a nan is a missing cell, empty in CSV and ``null`` in JSONL;
    ±inf keeps its repr in CSV and is ``Infinity``/``-Infinity`` in JSONL);
    text goes through ``_csv_cell``
    in CSV and ``encode_basestring_ascii`` in JSONL. ``lead`` holds each
    CSV row's leading text, already encoded (a grid's coordinates). A CSV
    line joins its cells with commas, the bytes of
    ``csv.writer(out, lineterminator="\\n")``; a JSONL line fills one
    template of the header's keys, built once, with the bytes of
    ``json.dumps(row, separators=(",", ":"))``."""
    csv_out = fmt == "csv"
    # the CSV header line, which goes out with the first block
    head = [",".join(map(_csv_cell, header)) + "\n"] if csv_out else []
    if csv_out:
        text, special = _csv_cell, {"nan": "", "inf": "inf", "-inf": "-inf"}
    else:
        text, special = encode_basestring_ascii, {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
        template = "{" + ",".join(encode_basestring_ascii(h).replace("%", "%%") + ":%s"
                                  for h in header) + "}\n"

    def cells(columns):  # the encoded cells of each column, in order
        floats = [col for col in columns if isinstance(col, np.ndarray)]
        if floats:
            stacked = np.stack(floats)
            encoded = [list(map(repr, col)) for col in stacked.tolist()]
            for k in np.flatnonzero(~np.isfinite(stacked).all(axis=1)).tolist():
                encoded[k] = [special.get(c, c) for c in encoded[k]]
            floats = iter(encoded)
        return [next(floats) if isinstance(col, np.ndarray) else list(map(text, col))
                for col in columns]

    def write(columns, lead=None):
        rows = zip(*cells(columns))
        if lead is not None:
            rows = zip(lead, map(",".join, rows))
        lines = [",".join(row) + "\n" for row in rows] if csv_out else map(template.__mod__, rows)
        out.write("".join([*head, *lines]))
        head.clear()
    return write


#: Rows per block of ``eval``, ``curvature`` and ``elasticity``: the block
#: kernel's columns stay small, and each block is written to stdout before
#: the next one is computed, so output memory does not grow with the rows.
BLOCK_ROWS = 2048


def _run_points(args, spec: FunctionSpec, count: int, rows, texts, out) -> int:
    """One row per point: coordinates, value, the subcommand's columns, fd_gap, status.

    Points go in blocks of ``BLOCK_ROWS`` (``rows(start, stop)``) to
    ``measure(block)``, which returns the float columns from ``value`` on,
    each row's status and error (None, or the ProdgeomError its per-point
    function raises), and the exact gradient and Hessian columns. The
    columns come from ``gauss_kronecker_batch`` (``curvature``),
    ``elasticity_report_batch`` (``elasticity``), one ``jets._jet_columns``
    call (``eval --fd-check``, whose errors come from ``jet_multivariate``)
    or one value pass (plain ``eval``, ``funcspec._value_pass``, whose
    errors come from ``evaluate``). nan is the one mark of a missing cell
    (``_writer``): an undefined Hicks or Allen pair is nan. The fd_gap
    column compares the finite-difference oracle with the exact columns at
    the rows without an error (``jets._fd_gaps``), and a row whose oracle
    fails takes its NumericalError. Every float cell of a row with an error
    is nan, and its status is ``domain_error`` for a DomainError and
    ``numerical_error`` for any other. Coordinates lead each row as float
    columns, or for a CSV grid as text joined from each axis value's text.
    Each block is written to ``out`` before the next one is formed; after
    the last, the first error other than a DomainError, in input order, is
    raised.
    """
    columns = []
    if args.command == "curvature":
        columns = ["omega", "det_hessian", "gk"]

        def measure(block):
            blk = gauss_kronecker_batch(spec, block)
            return ([blk.value, blk.omega, blk.hessian_det, blk.gk_curvature],
                    ["ok"] * len(block), blk.errors, blk.gradient, blk.hessian)
    elif args.command == "eval":
        def measure(block):
            if args.fd_check:
                value, gradient, hessian, _, ok = _jet_columns(spec, block)
                return ([value], ["ok"] * len(block),
                        _per_point(jet_multivariate, spec, block, ~ok)[1], gradient, hessian)
            value = _value_pass(spec, block)[-1]
            return ([value], ["ok"] * len(block),
                    _per_point(evaluate, spec, block, ~np.isfinite(value))[1], None, None)
    else:
        pairs = _parse_pairs(args.pairs, spec.n) if args.pairs is not None else None
        if spec.n < 2:
            raise ValidationError("the elasticity subcommand needs a spec with >= 2 variables")
        if pairs is None:
            pairs = [(i, j) for i in range(1, spec.n + 1) for j in range(i + 1, spec.n + 1)]
        columns = ([f"hicks_{i}_{j}" for i, j in pairs] + [f"allen_{i}_{j}" for i, j in pairs]
                   + ["bordered_det"])
        a, b = np.array(pairs).T - 1

        def measure(block):
            # allen is nan at every pair where singular
            blk = elasticity_report_batch(spec, block)
            hicks, allen = blk.hicks[:, a, b], blk.allen[:, a, b]
            status = np.where(np.isnan(hicks).any(axis=1), "hicks_undefined",
                              np.where(blk.singular, "allen_undefined", "ok")).tolist()
            return ([blk.value, *hicks.T, *allen.T, blk.bordered_det], status, blk.errors,
                    blk.gradient, blk.hessian)
    header = [f"x{k + 1}" for k in range(spec.n)] + ["value"] + columns
    if args.fd_check:
        header.append("fd_gap")
    header.append("status")
    grid_text = (map(",".join, itertools.product(*texts))
                 if texts is not None and args.format == "csv" else None)
    write = _writer(header, args.format, out)
    first = None  # the first row error other than a DomainError, in input order
    with np.errstate(all="ignore"):  # a non-finite result raises NumericalError instead
        for start in range(0, count, BLOCK_ROWS):
            block = rows(start, min(start + BLOCK_ROWS, count))
            cells, status, errors, gradient, hessian = measure(block)
            if args.fd_check:  # a row whose oracle fails takes its error
                errors = np.array(errors, dtype=object)
                checked = np.flatnonzero([error is None for error in errors])
                gaps = np.full(len(block), math.nan)
                if checked.size:
                    gaps[checked], errors[checked] = _fd_gaps(spec, block[checked],
                                                              gradient[checked], hessian[checked])
                cells.append(gaps)
            failed = [i for i, error in enumerate(errors) if error is not None]
            if failed:  # an error-free block skips numpy's index setup
                for col in cells:
                    col[failed] = math.nan
                for i in failed:
                    domain = isinstance(errors[i], DomainError)
                    status[i] = "domain_error" if domain else "numerical_error"
                    if first is None and not domain:
                        first = errors[i]
            if grid_text is None:
                write([*block.T, *cells, status])
            else:
                write([*cells, status], itertools.islice(grid_text, len(block)))
    if first is not None:
        raise first
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
    _writer(header, fmt, out)(list(zip(*rows)))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first run and shared by every later one: a parse keeps
    # no state on the parser, and help is formatted when it is asked for
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
    ver.add_argument("--tol", type=_float, default=1e-8)
    ver.add_argument("--seed", type=_int, default=42)
    return parser


def run(argv: Sequence[str]) -> int:
    """Entry point returning the exit code. An error prints one stderr line,
    ``error: ...``, except an argument error (exit 2), for which argparse
    prints its usage text and then ``prodgeom[ <command>]: error: ...``."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    out = sys.stdout
    try:
        if args.command == "verify":
            if not 0.0 < args.tol < math.inf:
                raise ValidationError(f"--tol must be positive and finite, got {args.tol!r}")
            return _run_verify(args.seed, args.tol, out)
        spec = _load_spec(args.spec, args.relax_rho)
        if args.command == "classify":
            return _run_classify(spec, args.format, out)
        return _run_points(args, spec, *_load_points(args.points, spec.n), out)
    except ProdgeomError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (ParseError, ValidationError, SpecError)):
            return 2
        return 1 if isinstance(e, DomainError) else 3
    except MemoryError as e:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
