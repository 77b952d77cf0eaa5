"""Span tracing for the benchmark's traced run.

Used as a launcher in place of ``python -m eivreg``::

    python3 bench/tracer.py SPANS experiment --config c.json

It imports the package, wraps the functions at each module boundary (the
public functions of every layer module, a few named private boundaries,
and every alias another module binds by name, such as ``inference.fsum``),
runs ``eivreg.cli.main`` and, when the command ends, writes the spans it
kept in memory to SPANS.  A span is (name, start, end, parent).
Nothing under the package's source tree changes.

``Profile`` reads span files back and derives per-name call counts,
inclusive times and self times (a span's duration minus the part its
child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("samplers", "moments", "estimators", "inference", "diagnostics",
          "montecarlo", "cli", "config", "jsonout")

# Private functions that are layer boundaries in their own right.
PRIVATE_BOUNDARIES = {
    "montecarlo": ("_replicate", "_aggregate_coverage", "_aggregate_normality",
                   "_aggregate_rate", "_aggregate_naive", "_aggregate_degeneracy"),
    "cli": ("_read_xy", "_read_column", "_cmd_estimate", "_cmd_ci", "_cmd_simulate",
            "_cmd_experiment", "_cmd_diagnose"),
}

ROOT_SPAN = "launcher.main"
IMPORT_SPAN = "setup.import"


class Recorder:
    """Spans kept in parallel arrays; ``stack`` holds the open span indices."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.missing = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        """One JSON header line, then the four span arrays as raw bytes."""
        header = {"names": self.names, "missing": self.missing, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def instrument(rec: Recorder) -> None:
    """Wrap every boundary function and rebind each alias to its wrapper."""
    package = sys.modules["eivreg"]
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"eivreg.{layer}")
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and isinstance(v, types.FunctionType)
                 and v.__module__ == mod.__name__]
        for name in PRIVATE_BOUNDARIES.get(layer, ()):
            if isinstance(getattr(mod, name, None), types.FunctionType):
                names.append(name)
            else:
                rec.missing.append(f"{layer}.{name}")
        for name in names:
            fn = getattr(mod, name)
            wrapped[fn] = rec.wrap(f"{layer}.{name}", fn)
    modules = [package] + [m for n, m in sys.modules.items() if n.startswith("eivreg.")]
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                setattr(mod, name, wrapped[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, types.FunctionType) and item in wrapped:
                        value[key] = wrapped[item]


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    idx = rec.open(IMPORT_SPAN)
    import eivreg.cli
    rec.close(idx)
    instrument(rec)
    idx = rec.open(ROOT_SPAN)
    try:
        code = eivreg.cli.main(cli_args)
    finally:
        while len(rec.stack) > 1:
            rec.close(rec.stack[-1])
        rec.dump(spans_path)
    return code


class Profile:
    """Per-name totals summed over any number of span files."""

    def __init__(self):
        self.count = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.missing = set()
        self.total_self = 0.0

    def add_file(self, path) -> None:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            arrays = [array(code) for code in "iidd"]
            for arr in arrays:
                arr.fromfile(fh, header["spans"])
        names = header["names"]
        name_id, parent, start, end = arrays
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        for i, nid in enumerate(name_id):
            name = names[nid]
            self.count[name] += 1
            self.inclusive[name] += dur[i]
            self.self_time[name] += dur[i] - child[i]
            self.total_self += dur[i] - child[i]
        self.missing.update(header["missing"])

    def sum_self(self, predicate) -> float:
        return sum(t for name, t in self.self_time.items() if predicate(name))

    def sum_inclusive(self, predicate) -> float:
        return sum(t for name, t in self.inclusive.items() if predicate(name))

    def sum_count(self, predicate) -> int:
        return sum(c for name, c in self.count.items() if predicate(name))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
