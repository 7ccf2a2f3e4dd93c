"""Fuzz ``cli.run``: generated specs, malformed spec files and extreme points.

Every run must end in a documented exit code with its output well formed:
no exception escapes, stdout is empty unless the exit code is 0 or 3 (a
numerical failure, which a point command gives exactly when some row reads
``numerical_error``), a failure prints one ``error:`` line, every JSONL
line is strict JSON, no CSV cell is an infinite float, and a cell is
missing exactly where its row's status says a quantity is undefined
(``_check_missing_cells``). Tier-1 runs
hypothesis's default number of examples; the ``fuzz`` profile
(``tests/conftest.py``) runs 10,000, as CI's fuzz step does for every test
marked ``fuzz``, this module among them:

    PYTHONPATH=src python -m pytest -q -m fuzz --hypothesis-profile=fuzz
"""

import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from prodgeom.cli import run

pytestmark = pytest.mark.fuzz

# the domain edges, signed zero, subnormal and tiny values, huge values, and
# the non-finite ones
_EDGES = [0.0, -0.0, -1.0, -0.5, 5e-324, 1e-300, 1e200, -1e200]
_NON_FINITE = [math.nan, math.inf, -math.inf]
# parameters of a regular spec, or extreme ones (most of those specs are rejected)
_PLAIN = st.one_of(st.floats(0.1, 0.9), st.floats(0.1, 3.0),
                   st.sampled_from([1.0, 2.0, 0.5, 1.5, -1.0]))
_EXTREME = st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3),
                     st.sampled_from(_EDGES + _NON_FINITE + [400.0, 1e300]))
# coordinates of a regular points file, and of one that may hold nan or inf
_COORDS = st.one_of(st.floats(0.1, 3.0), st.sampled_from(_EDGES))
_ANY_COORDS = st.one_of(_COORDS, st.sampled_from(_NON_FINITE))


def _kind(tag, wire, numbers):
    return st.fixed_dictionaries({"type": st.just(tag), **{w: numbers for w in wire}})


def _specs(numbers):
    components = st.lists(st.one_of(_kind("pow", ("gamma", "beta", "alpha"), numbers),
                                    _kind("exp", ("gamma", "lambda"), numbers),
                                    _kind("logpow", ("a", "b", "m"), numbers)),
                          min_size=1, max_size=4)
    outers = st.one_of(st.just({"type": "identity"}), _kind("power", ("d",), numbers),
                       _kind("scale", ("gamma",), numbers), st.just({"type": "log"}))
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("homothetical"), "components": components}),
        st.fixed_dictionaries({"kind": st.just("composite"), "outer": outers,
                               "components": components}),
        st.fixed_dictionaries({"kind": st.just("acms"), "gamma": numbers,
                               "betas": st.lists(numbers, min_size=1, max_size=4),
                               "rho": numbers, "d": numbers, "outer": outers}),
    )


_SPECS = {"plain": _specs(_PLAIN), "extreme": _specs(_EXTREME)}
_MALFORMED = st.one_of(
    st.text(max_size=40),
    _SPECS["extreme"].map(json.dumps).flatmap(  # truncated JSON
        lambda t: st.integers(0, len(t) - 1).map(lambda k: t[:k])),
    st.sampled_from([
        "[]", "null", '{"kind":"acms"}', '{"kind":"homothetical","components":[]}',
        '{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":0,"alpha":true}]}',
        '{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":0,"alpha":1,'
        '"extra":2}]}',
        '{"kind":"composite","outer":{"type":"power","d":"2"},"components":[{"type":"exp",'
        '"gamma":1,"lambda":1}]}',
        '{"kind":"acms","gamma":1,"betas":[1],"rho":0.5,"d":1,"outer":{"type":"identity"}}'
        + "x",
        "[" * 5000 + "]" * 5000,
        '{"kind":"homothetical","components":[{"type":"pow","gamma":1' + "0" * 5000
        + ',"beta":0,"alpha":1}]}',
    ]),
)


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def _check_missing_cells(row: dict):
    # a cell other than a coordinate or the status is missing (empty in CSV,
    # null in JSONL) exactly where the row's status says it is undefined
    cells = {key for key in row if key != "status" and not re.fullmatch(r"x\d+", key)}
    missing = {key for key in cells if row[key] is None or row[key] == ""}
    hicks = {key for key in cells if key.startswith("hicks_")}
    allen = {key for key in cells if key.startswith("allen_")}
    status = row["status"]
    if status == "ok":
        assert not missing
    elif status in ("domain_error", "numerical_error"):
        assert missing == cells
    elif status == "allen_undefined":
        assert missing == allen
    else:
        assert status == "hicks_undefined"
        assert missing & hicks and missing <= hicks | allen
        assert missing & allen in (set(), allen)


def _arity(obj) -> int:
    return len(obj.get("components") or obj.get("betas") or [None])


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                HealthCheck.too_slow])
@given(data=st.data())
def test_cli_run_ends_in_a_documented_outcome(tmp_path, data):
    spec_path, points_path = tmp_path / "spec.json", tmp_path / "pts.csv"
    source = data.draw(st.sampled_from(["plain"] * 4 + ["extreme", "malformed", "bytes"]))
    n = 1
    if source in _SPECS:
        obj = data.draw(_SPECS[source])
        n = _arity(obj)
        spec_path.write_text(json.dumps(obj), encoding="utf-8")
    elif source == "malformed":
        spec_path.write_text(data.draw(_MALFORMED), encoding="utf-8")
    else:
        spec_path.write_bytes(data.draw(st.binary(max_size=20)))
    command = data.draw(st.sampled_from(["eval", "curvature", "elasticity", "classify"]))
    fmt = data.draw(st.sampled_from(["csv", "jsonl"]))
    argv = [command, "--spec", str(spec_path), "--format", fmt]
    if data.draw(st.booleans()):
        argv.append("--relax-rho")
    if command != "classify":
        if data.draw(st.booleans()):
            argv.append("--fd-check")
        arity = data.draw(st.sampled_from([n] * 7 + [n + 1]))
        coords = data.draw(st.sampled_from([_COORDS] * 3 + [_ANY_COORDS]))
        if data.draw(st.integers(0, 4)) == 0:  # at most 64 grid points
            k = data.draw(st.integers(1, max(1, math.floor(64 ** (1 / arity) + 1e-9))))
            axes = [f"{data.draw(coords)!r}..{data.draw(coords)!r}" for _ in range(arity)]
            argv += ["--points", f"grid:{'x'.join(axes)}:{k}"]
        else:
            rows = data.draw(st.lists(st.lists(coords, min_size=arity, max_size=arity),
                                      min_size=data.draw(st.sampled_from([0, 1, 1, 1])),
                                      max_size=8))
            points_path.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows))
            argv += ["--points", str(points_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{command} exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if code not in (0, 3):
        assert out == ""
    if fmt == "jsonl":
        rows = [json.loads(line, parse_constant=_reject) for line in out.splitlines()]
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert not {cell.lower() for row in rows for cell in row} & {"inf", "-inf"}
        rows = [dict(zip(rows[0], row)) for row in rows[1:]]
    for row in rows:
        if command == "classify":
            json.loads(row["certificate"], parse_constant=_reject)
        else:
            _check_missing_cells(row)
    if command != "classify":
        assert (code == 3) == any(row["status"] == "numerical_error" for row in rows)


# a non-ASCII decimal digit, which float() and int() read as its digit value
_UNICODE_DIGITS = st.characters(categories=["Nd"]).filter(lambda c: not c.isascii())


@st.composite
def _not_plain_ascii(draw, text):
    # ``text`` with a digit-group underscore or a non-ASCII digit put in, or
    # one of its digits turned into a non-ASCII one
    digits = [k for k, c in enumerate(text) if c.isdigit()]
    if digits and draw(st.booleans()):
        k = draw(st.sampled_from(digits))
        return text[:k] + draw(_UNICODE_DIGITS) + text[k + 1:]
    k = draw(st.integers(0, len(text)))
    return text[:k] + draw(st.one_of(st.just("_"), _UNICODE_DIGITS)) + text[k:]


_NUMBER_TEXT = st.one_of(st.floats(0.1, 3.0).map(repr), st.integers(1, 9).map(str))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_number_text_that_is_not_plain_ascii_exits_2(tmp_path, data):
    # a points cell, grid bound or count, or pair index with an underscore or a
    # non-ASCII digit is rejected, though Python's float() or int() reads it
    spec = str(Path(__file__).parent / "data" / "cobb_douglas_crs.json")
    site = data.draw(st.sampled_from(["cell", "bound", "count", "pair"]))
    text = data.draw(_NUMBER_TEXT.flatmap(_not_plain_ascii))
    points = tmp_path / "pts.csv"
    points.write_text("1.0,1.0\n", encoding="utf-8")
    argv = ["eval", "--spec", spec, "--points", str(points)]
    if site == "cell":
        cells = data.draw(st.permutations([text, "1.0"]))
        points.write_text(f"1.0,1.0\n{','.join(cells)}\n", encoding="utf-8")
    elif site == "bound":
        axes = data.draw(st.permutations([f"{text}..2.0", "0.5..2.0"]))
        argv[-1] = f"grid:{'x'.join(axes)}:2"
    elif site == "count":
        argv[-1] = f"grid:0.5..2.0x0.5..2.0:{text}"
    else:
        pair = data.draw(st.permutations([text, "2"]))
        argv = ["elasticity", "--spec", spec, "--points", str(points), "--pairs", ",".join(pair)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code == 2 and out.getvalue() == ""
    err = err.getvalue()
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
