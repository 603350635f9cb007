"""Spans around the public functions of vqr's layers, installed from outside.

`install` wraps each listed function wherever it is looked up: callers bind
some names at import (`from .realism import realism` in sweeps), so every
attribute of every vqr module that holds the original is replaced, and
`uninstall` puts the originals back.  A wrapper keeps a per-name count, the
inclusive time and the self time (its span minus its child spans), and,
while `recording` is set, the span itself (id, parent id, name, start, end).
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

# Calls and self time are reported for each of these spans.
TIMED = (
    "linalg.hermitian_eig",
    "linalg.matrix_function",
    "linalg.schatten_norm",
    "linalg.partial_trace",
    "numpy.linalg.eigh",
    "numpy.linalg.eigvalsh",
    "numpy.linalg.svd",
    "numpy.linalg.qr",
    "states.DensityMatrix",
    "states.Observable",
    "states.random_density",
    "channels.phi_map",
    "channels.build_dilation",
    "channels.evolve",
    "metrics.lp_distance",
    "metrics.fidelity",
    "metrics.hellinger_distance_sq",
    "metrics.von_neumann_entropy",
    "metrics.relative_entropy",
    "metrics.renyi_divergence",
    "metrics.sandwiched_renyi_divergence",
    "realism.realism",
    "realism.realism_max",
    "realism.delta_conditional_information",
    "realism.delta_conditional_information_dilated",
)
# The inclusive time of each of these runners is reported.
RUNNERS = (
    "sweeps.run_werner_sweep",
    "sweeps.run_mu_sweep",
    "sweeps.run_rmax_sweep",
    "sweeps.write_table",
    "audit.run_axiom_cell",
    "audit.run_property_table",
    "verify.run_verify",
)
# Constructions are spans around the validating __post_init__.
CONSTRUCTORS = ("states.DensityMatrix", "states.Observable")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in TIMED:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [
        ("numpy.linalg.calls", "count", "lower"),
        ("numpy.linalg.n3", "n3_computed", "lower"),
        ("states.full_projectors.builds", "count", "lower"),
        ("realism.realism_max.useful_ratio", "ratio", "higher"),
    ]
    spec += [(f"{name}.s", "s", "lower") for name in RUNNERS]
    spec.append(("trace.overhead_s", "s", "lower"))
    return spec


def _n3(args, kwargs) -> int:
    """m * n * min(m, n) summed over the stack: n**3 for a square matrix.
    Computed from the argument's shape, not measured."""
    a = args[0] if args else kwargs["a"]
    shape = np.shape(a)
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.exclusive: list[float] = []
        self.n3 = 0
        self.rmax_pairs: set = set()
        self.recording = False
        self._stack: list[list] = []  # [child time, span id] per open span
        self._next_id = 0
        self._spans = (array("q"), array("q"), array("i"), array("d"), array("d"))
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.exclusive.append(0.0)
        return self._index[name]

    def wrap(self, name: str, fn, note=None):
        idx = self._intern(name)
        stack = self._stack
        clock = time.perf_counter
        spans = self._spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[idx] += 1
                self.inclusive[idx] += duration
                self.exclusive[idx] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if self.recording:
                    for column, value in zip(spans, (span_id, parent, idx, start, end)):
                        column.append(value)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "vqr" or n.startswith("vqr.")]
        for name in TIMED + RUNNERS:
            layer, fname = name.rsplit(".", 1)
            if name in CONSTRUCTORS:
                cls = getattr(sys.modules["vqr.states"], fname)
                self._replace(cls, "__post_init__", self.wrap(name, cls.__post_init__))
            elif layer == "numpy.linalg":
                module = sys.modules[layer]
                self._replace(module, fname, self.wrap(name, getattr(module, fname), self._note_n3))
            else:
                original = getattr(sys.modules[f"vqr.{layer}"], fname)
                note = self._note_rmax if name == "realism.realism_max" else None
                wrapped = self.wrap(name, original, note)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attr, wrapped)
        observable = sys.modules["vqr.states"].Observable
        cached = observable.__dict__["full_projectors"]
        rebuilt = functools.cached_property(self.wrap("states.full_projectors", cached.func))
        rebuilt.__set_name__(observable, "full_projectors")
        self._replace(observable, "full_projectors", rebuilt)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _note_n3(self, args, kwargs) -> None:
        self.n3 += _n3(args, kwargs)

    def _note_rmax(self, args, kwargs) -> None:
        kind, d_e = args
        self.rmax_pairs.add((kind.token(), int(d_e)))

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of the per-layer metrics, from counters
        accumulated over `passes` identical traced passes."""
        def stat(name, column):
            return column[self._index[name]] / passes

        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = stat(name, self.calls)
            out[f"{name}.self_s"] = stat(name, self.exclusive)
        out["numpy.linalg.calls"] = sum(
            out[f"{name}.calls"] for name in TIMED if name.startswith("numpy.linalg.")
        )
        out["numpy.linalg.n3"] = self.n3 / passes
        out["states.full_projectors.builds"] = stat("states.full_projectors", self.calls)
        rmax_calls = out["realism.realism_max.calls"]
        # Distinct (kind, d_E) pairs over calls; 1 when nothing was computed.
        out["realism.realism_max.useful_ratio"] = (
            len(self.rmax_pairs) / rmax_calls if rmax_calls else 1.0
        )
        for name in RUNNERS:
            out[f"{name}.s"] = stat(name, self.inclusive)
        return out

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as gzipped CSV; return their count."""
        ids, parents, names, starts, ends = self._spans
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for row in zip(ids, parents, names, starts, ends):
                fh.write(f"{row[0]},{row[1]},{self.names[row[2]]},{row[3]:.9f},{row[4]:.9f}\n")
        return len(ids)
