"""Per-layer spans around einselect's public functions, installed from outside.

`Tracer.install()` wraps each function listed in LAYERS and rebinds every
reference to it in the loaded einselect modules, so calls made from any
module (including the CLI) pass through the wrapper. Nothing under src/
changes; `uninstall()` puts the original functions back.

A span is (op, id, parent, layer, start, end) in seconds from the tracer's
creation. `op` is the index of the CLI call the span belongs to. A span's
self time is its duration minus its children's, so on one thread the self
times of all spans add up to the root spans' durations.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> (module, attribute) pairs; "Class.method" wraps a method.
LAYERS = {
    "correlations.maximize": [("einselect.correlations", "maximize_classical_correlation")],
    "correlations.basis_j": [
        ("einselect.correlations", "classical_correlation"),
        ("einselect.correlations", "conditional_state"),
    ],
    "correlations.mutual_information": [("einselect.correlations", "mutual_information")],
    "qstate.density_matrix": [("einselect.qstate", "DensityMatrix.__init__")],
    "qstate.entropy": [
        ("einselect.qstate", "von_neumann_entropy"),
        ("einselect.qstate", "partial_trace"),
    ],
    "channels.build": [
        ("einselect.channels", "phase_damping"),
        ("einselect.channels", "amplitude_damping"),
        ("einselect.channels", "pointer_decoherence"),
    ],
    "channels.apply": [("einselect.channels", "apply_to_apparatus")],
    "dynamics.sweep": [("einselect.dynamics", "sweep")],
    "dynamics.detect_transition": [("einselect.dynamics", "detect_transition")],
    "verify.suite": [
        ("einselect.verify", "verify_theorem1"),
        ("einselect.verify", "verify_theorem2"),
        ("einselect.verify", "verify_lemma1"),
        ("einselect.verify", "verify_remark"),
    ],
    "verify.draw": [
        ("einselect.verify", "random_density_matrix"),
        ("einselect.verify", "random_basis"),
        ("einselect.verify", "random_x_state_params"),
        ("einselect.verify", "random_cq_state"),
    ],
    "montecarlo.bands": [("einselect.montecarlo", "monte_carlo_bands")],
    "matrixio.parse": [("einselect.matrixio", "parse_matrix_file")],
    "matrixio.project": [("einselect.matrixio", "project_to_physical")],
    "matrixio.emit": [
        ("einselect.matrixio", "emit_report"),
        ("einselect.matrixio", "trajectory_payload"),
        ("einselect.matrixio", "outcome_payload"),
        ("einselect.matrixio", "emergence_payload"),
    ],
}
ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._next_id = 0
        self._origin = time.perf_counter()
        self._restore = []

    def _enter(self, layer: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, parent, layer, time.perf_counter()))

    def _exit(self):
        end = time.perf_counter()
        sid, parent, layer, start = self._stack.pop()
        self.spans.append((self.op, sid, parent, layer, start - self._origin, end - self._origin))

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def call(self, op: int, fn, *args):
        """Run one CLI call as a root span of its own."""
        self.op = op
        return self.wrap(ROOT, fn)(*args)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("einselect") and m]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner_name, _, method = attr.partition(".")
                if method:
                    cls = getattr(sys.modules[module_name], owner_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self.wrap(layer, original))
                    self._restore.append((cls, method, original))
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapped = self.wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)
                            self._restore.append((module, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def layer_totals(self) -> dict:
        """{layer: [calls, self seconds]} over all recorded spans."""
        child = {}
        for _, _, parent, _, start, end in self.spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        totals = {}
        for _, sid, _, layer, start, end in self.spans:
            entry = totals.setdefault(layer, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child.get(sid, 0.0)
        return totals

    def count_children(self, parent_layer: str, child_layer: str) -> int:
        parents = {sid for _, sid, _, layer, _, _ in self.spans if layer == parent_layer}
        return sum(1 for s in self.spans if s[3] == child_layer and s[2] in parents)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,layer,start_s,end_s\n")
            for op, sid, parent, layer, start, end in self.spans:
                fh.write(f"{op},{sid},{parent},{layer},{start:.9f},{end:.9f}\n")
