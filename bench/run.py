"""prodgeom benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything runs in this one process on one thread, as a closed loop with a
single client: each CLI invocation or library call starts after the previous
one returned. prodgeom is imported from the checkout's ``src/``.

Every timing is taken per window (one batch, one sweep pass, one fresh
interpreter), scaled to reference machine speed with the kernel in
``speed.py`` timed next to the window, and reported as the median over the
run's windows.

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload's trace batch alternately with and without spans around
every public function of prodgeom's layers and reports the per-layer
metrics. Both modes check the outputs (see ``workloads.check_batch``). The
human-readable report comes first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is single-threaded by design and the target
# machine has two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

from speed import REF_SECONDS, Window  # noqa: E402  (sibling module; no prodgeom import)

WORKLOADS = ("curvature_grid_n2", "elasticity_n10", "fdcheck_mixed_n5", "verify_contract")

#: Fresh interpreters started per run to measure set-up time.
SETUP_REPS = 7
#: Time spent on library-call sweeps after each batch, as a share of the batch.
SWEEP_SHARE = 0.3
#: Fewest batches a run measures, however short ``--seconds`` is.
MIN_ITERS = 2
LAYER_MODULES = ("cli", "funcspec", "jets", "geometry", "elasticity", "classify", "verify",
                 "sampling")

END_TO_END = (("wall_s", "s"), ("point_p50_us", "us"), ("point_p90_us", "us"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit, how it is derived, span label or module)
#   per_row: calls / rows    calls: call count    self: self time
#   total: inclusive time    module_self: self time summed over a module
PER_LAYER = (
    ("jets.jet1d.calls_per_row", "calls/row", "per_row", "jets.jet1d"),
    ("jets.jet1d.self_s", "s", "self", "jets.jet1d"),
    ("funcspec.evaluate.calls_per_row", "calls/row", "per_row", "funcspec.evaluate"),
    ("funcspec.evaluate.self_s", "s", "self", "funcspec.evaluate"),
    ("jets.jet_multivariate.calls_per_row", "calls/row", "per_row", "jets.jet_multivariate"),
    ("jets.jet_multivariate.self_s", "s", "self", "jets.jet_multivariate"),
    ("geometry.plu_det.calls_per_row", "calls/row", "per_row", "geometry.plu_det"),
    ("geometry.plu_det.self_s", "s", "self", "geometry.plu_det"),
    ("geometry.hessian_det_closed.self_s", "s", "self", "geometry.hessian_det_closed"),
    ("geometry.gauss_kronecker.self_s", "s", "self", "geometry.gauss_kronecker"),
    ("elasticity.elasticity_report.self_s", "s", "self", "elasticity.elasticity_report"),
    ("elasticity.bordered_hessian.calls_per_row", "calls/row", "per_row",
     "elasticity.bordered_hessian"),
    ("jets.fd_jet.self_s", "s", "self", "jets.fd_jet"),
    ("jets.fd_jet.calls", "count", "calls", "jets.fd_jet"),
    ("cli.self_s", "s", "self", "cli.run"),
    ("funcspec.parse_spec.s", "s", "total", "funcspec.parse_spec"),
    ("classify.self_s", "s", "module_self", "classify"),
    ("sampling.self_s", "s", "module_self", "sampling"),
    ("verify.run_checks.self_s", "s", "self", "verify.run_checks"),
)


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default) of a sample."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _setup_seconds(files: dict) -> float:
    """Set-up time of one fresh interpreter, at reference speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                           json.dumps(files)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout)
    return probe["seconds"] * REF_SECONDS / probe["kernel_seconds"]


def _run_batch(wl, invocations):
    """(Window, [(rc, stdout, stderr)]) of one batch."""
    with Window() as window:
        results = [wl.run_invocation(inv) for inv in invocations]
    return window, results


def _stdouts(results):
    return [out for _, out, _ in results]


def _row_count(invocations) -> int:
    return sum(inv.rows for inv in invocations)


def _stop(iters: int, t_iter: float, deadline: float) -> bool:
    """Stop once the minimum is met and another iteration would overrun."""
    now = time.perf_counter()
    return iters >= MIN_ITERS and now + (now - t_iter) > deadline


def _sweep(workload, tally) -> list:
    """Nanoseconds per library call over one pass of the sweep, in a closed loop."""
    from prodgeom.errors import DomainError

    probe = workload.probe
    clock = time.perf_counter_ns
    latencies = []
    for spec, p, must_raise in workload.sweep:
        t = clock()
        try:
            probe(spec, p)
            outcome = "ok"
        except DomainError:
            outcome = "domain_error"
        except Exception as e:  # undocumented outcome, counted as failed
            outcome = type(e).__name__
        latencies.append(clock() - t)
        tally.check(outcome == ("domain_error" if must_raise else "ok"),
                    f"library call at {p!r}: {outcome}")
    return latencies


def _measure(wl, workload, seconds, tally, report, setup_reps):
    setup = [_setup_seconds(workload.setup_files) for _ in range(setup_reps)]
    _run_batch(wl, workload.trace_batch)  # warm-up, untimed
    walls, raw_walls, scales, p50s, p90s, first = [], [], [], [], [], None
    deadline = time.perf_counter() + seconds
    iters = 0
    while True:
        t_iter = time.perf_counter()
        gc.collect()
        window, results = _run_batch(wl, workload.batch)
        walls.append(window.seconds * window.scale)
        raw_walls.append(window.seconds)
        scales.append(window.scale)
        if first is None:
            first = results
        else:
            for inv, a, b in zip(workload.batch, _stdouts(first), _stdouts(results)):
                tally.check(a == b, f"{' '.join(inv.argv[:2])}: stdout differs between batches")
        # sweep passes take about SWEEP_SHARE of the batch time, so that
        # batches and passes sample the same stretches of the run
        sweep_until = time.perf_counter() + SWEEP_SHARE * window.seconds
        while True:
            gc.collect()
            with Window() as pass_window:
                latencies = _sweep(workload, tally)
            p50s.append(_percentile(latencies, 0.5) * pass_window.scale)
            p90s.append(_percentile(latencies, 0.9) * pass_window.scale)
            if time.perf_counter() >= sweep_until:
                break
        iters += 1
        if _stop(iters, t_iter, deadline):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    wl.check_batch(workload, workload.batch, first, tally)
    digests = wl.recorded_digests(workload)
    if digests is not None:
        for inv, out, want in zip(workload.batch, _stdouts(first), digests):
            tally.check(wl.sha256(out) == want,
                        f"{' '.join(inv.argv[:2])}: stdout sha256 differs from the record")
    report.update(status_mix=wl.status_mix(workload.batch, first), batches=len(walls),
                  sweep_passes=len(p50s), calls_per_pass=len(workload.sweep),
                  setup_runs=len(setup), digest_checked=digests is not None,
                  raw_wall_s=statistics.median(raw_walls),
                  speed_scale=statistics.median(scales))
    return {
        "wall_s": statistics.median(walls),
        "point_p50_us": statistics.median(p50s) * 1e-3,
        "point_p90_us": statistics.median(p90s) * 1e-3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(summary: dict, rows: int, scale: float) -> dict:
    """Per-layer metrics of one traced batch from the tracer's summary;
    times are multiplied by the batch window's `scale`."""
    out = {}
    for name, _, kind, key in PER_LAYER:
        if kind == "module_self":
            out[name] = scale * sum(v["self_s"] for label, v in summary.items()
                                    if label.startswith(key + "."))
        elif kind == "per_row":
            out[name] = summary[key]["calls"] / rows
        elif kind == "calls":
            out[name] = summary[key]["calls"]
        else:
            out[name] = scale * summary[key]["self_s" if kind == "self" else "total_s"]
    return out


#: Call counts broken down per invocation in the traced run's report.
COUNTED = ("jets.jet1d", "funcspec.evaluate", "jets.jet_multivariate", "geometry.plu_det")


def _counts_by_invocation(tracer, batch) -> dict:
    """Calls per row of the COUNTED functions for each invocation; each
    invocation is one root span (its cli.run call)."""
    bounds = tracer.roots() + [tracer.span_count]
    out = {}
    for k, (inv, lo, hi) in enumerate(zip(batch, bounds, bounds[1:])):
        summary = tracer.summary(lo, hi)
        label = " ".join([str(k), inv.argv[0], inv.spec.kind] if inv.spec is not None
                         else [str(k)] + inv.argv)
        out[label] = {name: summary[name]["calls"] / inv.rows for name in COUNTED}
    return out


def layer_targets() -> list:
    """(label, function) for every public function of the traced layers."""
    import importlib

    from tracer import public_functions

    return [t for m in LAYER_MODULES
            for t in public_functions(importlib.import_module(f"prodgeom.{m}"))]


def _measure_traced(wl, workload, seconds, tally, report):
    from tracer import Tracer

    tracer = Tracer(layer_targets())
    batch = workload.trace_batch
    _run_batch(wl, batch)  # warm-up, untimed
    plain_walls, traced_walls, per_batch, reference = [], [], [], None
    deadline = time.perf_counter() + seconds
    iters = 0
    while True:
        t_iter = time.perf_counter()
        gc.collect()
        plain_window, plain = _run_batch(wl, batch)
        gc.collect()
        tracer.reset()
        with tracer:
            traced_window, traced = _run_batch(wl, batch)
        plain_walls.append(plain_window.seconds * plain_window.scale)
        traced_walls.append(traced_window.seconds * traced_window.scale)
        per_batch.append(layer_metrics(tracer.summary(), _row_count(batch), traced_window.scale))
        reference = reference or plain
        for inv, a, b, c in zip(batch, _stdouts(reference), _stdouts(plain), _stdouts(traced)):
            tally.check(a == b == c, f"{' '.join(inv.argv[:2])}: traced or repeated stdout differs")
        iters += 1
        if _stop(iters, t_iter, deadline):
            break
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{workload.seed}.tsv")
    tracer.write(spans_path)
    wl.check_batch(workload, batch, traced, tally)
    report.update(status_mix=wl.status_mix(batch, traced), batches=len(traced_walls),
                  calls_per_row_by_invocation=_counts_by_invocation(tracer, batch),
                  spans_per_batch=tracer.span_count,
                  spans_file=os.path.relpath(spans_path, ROOT))
    metrics = {name: statistics.median(m[name] for m in per_batch) for name in per_batch[0]}
    metrics["cli.rows"] = _row_count(batch)
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(plain_walls) - 1.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_reps: int = SETUP_REPS):
    """(result object, report dict) for one run of one workload.

    `tiny` shrinks every input to a few rows; it exists for the self-tests.
    """
    import workloads as wl

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        workload = wl.build(name, seed, workdir, tiny=tiny)
        report = {"inputs": workload.describe()}
        tally = wl.Tally()
        if trace:
            values = _measure_traced(wl, workload, seconds, tally, report)
        else:
            values = _measure(wl, workload, seconds, tally, report, setup_reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(END_TO_END) if not trace else {**{m[0]: m[1] for m in PER_LAYER},
                                                "cli.rows": "count",
                                                "trace.overhead_frac": "ratio"}
    report["failures"] = tally.notes
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prodgeom", "__init__.py")):
        print(f"error: no prodgeom sources under {SRC}", file=sys.stderr)
        return 2
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("inputs " + json.dumps(report.pop("inputs"), separators=(",", ":")))
    for key, value in report.items():
        print(f"{key} {json.dumps(value)}")
    print(f"fail_frac {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']}/{result['attempted']} checks failed)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
