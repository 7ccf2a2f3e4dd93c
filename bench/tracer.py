"""In-memory span recorder that wraps the public functions of prodgeom's layers.

prodgeom's modules bind each other's functions with ``from .x import y``, so a
call such as ``gauss_kronecker -> jet1d`` goes through the name ``jet1d`` in
``prodgeom.geometry``, not through ``prodgeom.jets``. Patching only the
defining module would miss those calls without any error. ``Tracer.install``
therefore replaces every module attribute that *is* one of the traced
function objects, in every loaded module of the package, and ``uninstall``
puts the originals back.

A span is (name id, parent span index, start ns, end ns). Calls nest on the
single benchmark thread, so a span's children never overlap and its self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np


def public_functions(module) -> list:
    """(label, function) for each public function defined in `module`."""
    short = module.__name__.rsplit(".", 1)[-1]
    return [(f"{short}.{name}", fn)
            for name, fn in sorted(vars(module).items())
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__]


class Tracer:
    """Records one span per call of the given functions while installed.

    `targets` is a list of (label, function); `package` is the name prefix
    of the modules whose bindings are patched.
    """

    def __init__(self, targets, package: str = "prodgeom"):
        self.labels = [label for label, _ in targets]
        self._targets = [fn for _, fn in targets]
        self._package = package
        self._names = array("i")
        self._parents = array("q")
        self._starts = array("q")
        self._ends = array("q")
        self._stack = [-1]
        self._patched = []

    def _wrap(self, name_id: int, fn):
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self._wrap(k, fn) for k, fn in enumerate(self._targets)}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self._package
                                      or mod_name.startswith(self._package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Drop recorded spans; the arrays are cleared in place because the
        installed wrappers hold references to them."""
        for arr in (self._names, self._parents, self._starts, self._ends):
            del arr[:]
        del self._stack[1:]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def span_count(self) -> int:
        return len(self._starts)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """label -> {"calls", "self_s", "total_s"} over spans lo..hi.

        A slice must hold whole call trees, e.g. one root span and the spans
        after it up to the next root (see `roots`).
        """
        hi = len(self._starts) if hi is None else hi
        names = np.frombuffer(self._names, dtype=np.int32)[lo:hi].astype(np.int64)
        parents = np.frombuffer(self._parents, dtype=np.int64)[lo:hi] - lo
        dur = (np.frombuffer(self._ends, dtype=np.int64)[lo:hi]
               - np.frombuffer(self._starts, dtype=np.int64)[lo:hi]).astype(float)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.labels)
        calls = np.bincount(names, minlength=k)
        self_ns = np.bincount(names, weights=dur - child, minlength=k)
        total_ns = np.bincount(names, weights=dur, minlength=k)
        return {label: {"calls": int(calls[i]), "self_s": float(self_ns[i]) * 1e-9,
                        "total_s": float(total_ns[i]) * 1e-9}
                for i, label in enumerate(self.labels)}

    def roots(self) -> list:
        """Indices of the spans that have no traced parent."""
        return [i for i, p in enumerate(self._parents) if p < 0]

    def write(self, path: str) -> None:
        """Write the spans as tab-separated id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            labels = self.labels
            fh.writelines(f"{i}\t{p}\t{labels[n]}\t{s}\t{e}\n"
                          for i, (n, p, s, e) in enumerate(
                              zip(self._names, self._parents, self._starts, self._ends)))
