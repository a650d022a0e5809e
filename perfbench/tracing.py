"""Spans around the public calls of each tllcd layer, recorded from outside
the program by replacing module attributes while a traced call runs.

A span is (name, start, end, parent, run): `parent` indexes the enclosing
span and `run` numbers the traced command call.  Spans stay in memory and
are written out once, when the benchmark ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  Each call site the command reaches is
# patched: cli imported stability_margin by name, dynamics imported
# integrate_pair by name, and run_simulation imports stability_margin from
# protocol at call time.  Path.write_text catches the sweep's CSV, which
# cmd_sweep writes itself.  integrate_pair reaches the compiled kernel
# through its module's globals, so a backend.kernel span marks each mode
# that the dispatch sent there.
TARGETS = (
    ("tllcd.cli", "parse_config", "cli.parse"),
    ("tllcd.cli", "write_outputs", "cli.write"),
    ("tllcd.cli", "write_manifest", "cli.write"),
    ("pathlib", "Path.write_text", "cli.write"),
    ("tllcd.cli", "stability_margin", "protocol.stability"),
    ("tllcd.protocol", "stability_margin", "protocol.stability"),
    ("tllcd.protocol", "DriveProtocol.validate", "protocol.validate"),
    ("tllcd.dynamics", "run_simulation", "dynamics.simulate"),
    ("tllcd.dynamics", "sweep_tf", "dynamics.sweep"),
    ("tllcd.dynamics", "evolve_pair", "dynamics.evolve"),
    ("tllcd.dynamics", "integrate_pair", "backend.integrate"),
    ("tllcd._backend", "_integrate_kernel", "backend.kernel"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.integrations = []  # (run, t_f, p, u, v)
        self.missing = []  # targets the program no longer has
        self.run = None
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def traced(self, run: int):
        """Patch every target for the duration of one command call."""
        self.run = run
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.run = None

    def _install(self):
        for module_name, attr, name in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            if owner is None or not hasattr(owner, leaf):
                if (module_name, attr) not in self.missing:
                    self.missing.append((module_name, attr))
                continue
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def _uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name):
        tracer = self
        keep = name == "backend.integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if keep:
                protocol, p = args[0], args[1]
                tracer.integrations.append((tracer.run, protocol.t_f, p, out[0], out[1]))
            return out

        return wrapper

    def layer_times(self, run: int) -> tuple:
        """({span name: summed duration}, {span name: summed self time})
        over the spans of one traced call."""
        total, own = defaultdict(float), defaultdict(float)
        for rec in self.spans:
            if rec["run"] != run:
                continue
            d = rec["end"] - rec["start"]
            total[rec["name"]] += d
            own[rec["name"]] += d
            if rec["parent"] is not None:
                own[self.spans[rec["parent"]]["name"]] -= d
        return total, own

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _resolve(module_name, attr):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, leaf = attr.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, leaf


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to the call it wraps, measured on an
    empty function in a tight loop, apart from every timed command call."""

    def empty():
        return None

    tracer = Tracer()
    tracer.run = -1
    wrapped = tracer._wrap(empty, "empty")
    took = []
    for fn in (empty, wrapped) * 3:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        took.append(time.perf_counter() - t0)
    return max(0.0, min(took[1::2]) - min(took[0::2])) / calls


def backend_name(tracer, run: int) -> str:
    """Which integrator the program's dispatch ran in one traced call, read
    from its spans."""
    names = [rec["name"] for rec in tracer.spans if rec["run"] == run]
    modes, kernel = names.count("backend.integrate"), names.count("backend.kernel")
    if modes == 0:
        return "unknown (no integration traced)"
    if kernel == modes:
        return "compiled kernel"
    try:
        from tllcd import _backend
    except ImportError:
        _backend = None
    why = "" if getattr(_backend, "HAVE_KERNEL", True) else " (compiled kernel not built)"
    if kernel == 0:
        return "scipy DOP853 fallback" + why
    return f"compiled kernel on {kernel} of {modes} modes, scipy DOP853 on the rest{why}"
