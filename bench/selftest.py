"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout with either of

    python3 bench/selftest.py
    PYTHONPATH=src python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402  (path set above)
from tracer import Tracer  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_every_workload_prints_every_metric_with_its_unit_at_tiny_size():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.GENERATORS) == list(run.WORKLOADS)
    for trace, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        want = {m["name"]: m["unit"] for m in listed}
        for name in run.WORKLOADS:
            result, _ = run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True,
                                         setup_reps=1)
            assert result["correct"], (name, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace)
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, k)


def test_result_is_the_last_stdout_line():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "verify_contract", "--seed", "1", "--seconds", "0",
                         "--trace", "1"])
    assert code == 0
    last = json.loads(out.getvalue().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]


def test_tracer_counts_a_hand_checked_cli_call():
    # Per row of `curvature` on a homothetical n = 2 spec the CLI calls
    # gauss_kronecker and evaluate once each. gauss_kronecker calls
    # jet_multivariate (one evaluate, one jet1d per component) and
    # hessian_det_closed (one jet1d per component again). A 2 x 2 grid
    # therefore gives 4 gauss_kronecker, 4 jet_multivariate, 4
    # hessian_det_closed, 8 evaluate, 16 jet1d and no LU.
    import prodgeom
    from prodgeom import cli

    spec = os.path.join(os.path.dirname(HERE), "tests", "data", "cobb_douglas_crs.json")
    tracer = Tracer(run.layer_targets())
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["curvature", "--spec", spec, "--points",
                        "grid:0.5..2.0x0.5..2.0:2"]) == 0
    calls = {k: v["calls"] for k, v in tracer.summary().items() if v["calls"]}
    assert calls == {"cli.run": 1, "funcspec.parse_spec": 1, "geometry.gauss_kronecker": 4,
                     "jets.jet_multivariate": 4, "geometry.hessian_det_closed": 4,
                     "funcspec.evaluate": 8, "jets.jet1d": 16}
    assert tracer.roots() == [0]
    # uninstall restored every binding, including the re-exports
    assert prodgeom.geometry.jet1d is prodgeom.jets.jet1d is prodgeom.jet1d
    assert not hasattr(prodgeom.jets.jet1d, "__wrapped__")


def test_tracer_self_time_and_rebound_names():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    exec("def inner():\n    return sum(range(1000))\n"
         "def outer():\n    return inner() + inner()\n", core.__dict__)
    core.inner.__module__ = core.outer.__module__ = "fakepkg.core"
    # like `from .core import inner` in another module
    exec("def calls_inner():\n    return inner()\n", user.__dict__)
    user.inner = core.inner
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user})
    try:
        tracer = Tracer([("core.inner", core.inner), ("core.outer", core.outer)],
                        package="fakepkg")
        with tracer:
            core.outer()
            user.calls_inner()
        s = tracer.summary()
        assert s["core.outer"]["calls"] == 1 and s["core.inner"]["calls"] == 3
        assert tracer.roots() == [0, 3]
        inner_in_outer = tracer.summary(0, 3)["core.inner"]["total_s"]
        assert abs(s["core.outer"]["self_s"]
                   - (s["core.outer"]["total_s"] - inner_in_outer)) < 1e-12
        assert s["core.inner"]["self_s"] == s["core.inner"]["total_s"]
        assert user.inner is core.inner and not hasattr(core.inner, "__wrapped__")
    finally:
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            sys.modules.pop(name, None)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
