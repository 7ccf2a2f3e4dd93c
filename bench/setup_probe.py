"""Set-up time of a fresh interpreter: import prodgeom, parse specs, load points.

Usage: python3 bench/setup_probe.py '{"specs": [...], "points": [...]}'

``bench/run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src/`` and reads the JSON object it prints: ``seconds`` spent importing
prodgeom, parsing every spec file with ``prodgeom.parse_spec`` and reading
every headerless points CSV (everything before the first row), and
``kernel_seconds``, the median of three runs of the reference kernel in
``speed.py`` timed afterwards.
"""

import json
import sys
import time


def main() -> None:
    files = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import prodgeom

    for path in files["specs"]:
        with open(path, encoding="utf-8") as fh:
            prodgeom.parse_spec(fh.read())
    for path in files["points"]:
        with open(path, encoding="utf-8") as fh:
            points = [tuple(float(c) for c in line.split(",")) for line in fh if line.strip()]
        if not points:
            raise SystemExit(f"no points in {path}")
    seconds = time.perf_counter() - t0
    # the machine's speed right after, for scaling to reference speed
    from speed import kernel_seconds

    kernel = sorted(kernel_seconds() for _ in range(3))[1]
    print(json.dumps({"seconds": seconds, "kernel_seconds": kernel}))


if __name__ == "__main__":
    main()
