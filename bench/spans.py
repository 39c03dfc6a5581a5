"""Spans around webfol's public functions, installed from outside the package.

``install`` replaces every binding a call can go through -- the defining
module, every webfol module that imported the name, the package's
re-exports, and class attributes such as ``Polynomial.__rmul__`` that alias
the wrapped method -- so no call escapes the trace.  Spans (name, start, end,
parent) stay in memory in flat arrays and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter_ns

# (metric name, module, class or None, attribute)
TARGETS = (
    ("poly.mul", "webfol.poly", "Polynomial", "__mul__"),
    ("poly.compose", "webfol.poly", "Polynomial", "compose"),
    ("poly.try_divide", "webfol.poly", "Polynomial", "try_divide"),
    ("poly.gcd", "webfol.poly", None, "poly_gcd"),
    ("poly.gcd_many", "webfol.poly", None, "poly_gcd_many"),
    ("forms.validate", "webfol.forms", "SymForm", "__init__"),
    ("forms.lie_derivative", "webfol.forms", None, "lie_derivative"),
    ("forms.proportionality_constant", "webfol.forms", None, "proportionality_constant"),
    ("forms.restrict_to_line", "webfol.forms", None, "restrict_to_line"),
    ("forms.is_squarefree_at", "webfol.forms", None, "is_squarefree_at"),
    ("forms.is_integrable", "webfol.forms", None, "is_integrable"),
    ("projective.pullback_tensor", "webfol.projective", None, "pullback_tensor"),
    ("projective.preserves", "webfol.projective", None, "preserves"),
    ("projective.matmul", "webfol.projective", "ProjMap", "__matmul__"),
    ("projective.invariance_system", "webfol.projective", None, "invariance_system"),
    ("projective.group_closure", "webfol.projective", None, "group_closure"),
    ("blowup.local_foliation", "webfol.blowup", "LocalFoliation", "__init__"),
    ("blowup.blowup_point", "webfol.blowup", None, "blowup_point"),
    ("blowup.reduced_check", "webfol.blowup", None, "reduced_check"),
    ("bounds.foliation_aut_bound", "webfol.bounds", None, "foliation_aut_bound"),
    ("bounds.web_aut_bound", "webfol.bounds", None, "web_aut_bound"),
    ("bounds.decimal_digit_count", "webfol.bounds", None, "decimal_digit_count"),
    ("bounds.int_to_decimal", "webfol.bounds", None, "int_to_decimal"),
    ("cli.main", "webfol.cli", None, "main"),
)

# Spans the benchmark opens itself, outside the program.
ITEM = "item"
PROCESS = "cli.process"


class Tracer:
    """In-memory span store plus the outcome counters of the traced layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.preserves_true = 0
        self.validate_refused = 0
        self.digits_rendered = 0
        self.import_ns = 0
        # Wall time of traced child processes, as the parent saw it.
        self.process_ns = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def add_span(self, name: str, start: int, end: int, parent: int) -> int:
        idx = len(self.start)
        self.name_of.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return idx

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        name_of, start, end, parent, stack = (
            self.name_of, self.start, self.end, self.parent, self.stack,
        )
        tracer = self
        validation_error = sys.modules["webfol.errors"].ValidationError
        counts_refusals = name == "forms.validate"
        counts_true = name == "projective.preserves"
        counts_digits = name == "bounds.int_to_decimal"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except validation_error:
                if counts_refusals:
                    tracer.validate_refused += 1
                raise
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if counts_true and result:
                tracer.preserves_true += 1
            elif counts_digits:
                tracer.digits_rendered += len(result.lstrip("-"))
            return result

        return wrapper

    # -- merging spans recorded by a child process ---------------------------------

    def child_payload(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(t) for t in zip(self.name_of, self.start, self.end, self.parent)],
            "import_ns": self.import_ns,
            "preserves_true": self.preserves_true,
            "validate_refused": self.validate_refused,
            "digits_rendered": self.digits_rendered,
        }

    def merge_child(self, payload: dict, under: int) -> None:
        """Adopt a child's spans; its root spans become children of ``under``."""
        offset = len(self.start)
        for nid, s, e, p in payload["spans"]:
            self.add_span(payload["names"][nid], s, e, under if p < 0 else p + offset)
        self.import_ns += payload["import_ns"]
        self.preserves_true += payload["preserves_true"]
        self.validate_refused += payload["validate_refused"]
        self.digits_rendered += payload["digits_rendered"]

    # -- results ----------------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self time in ns).

        Self time is a span's duration minus the durations of its direct
        child spans, so nested wrapped calls are not counted twice.
        """
        n = len(self.start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.name_of[i]
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated rows: name, start_ns, end_ns, parent row."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for nid, s, e, p in zip(self.name_of, self.start, self.end, self.parent):
                out.write(f"{names[nid]}\t{s}\t{e}\t{p}\n")


def install(tracer: Tracer) -> None:
    """Wrap every target, rebinding each name everywhere webfol refers to it."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "webfol"]
    for metric, module_name, class_name, attr in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if class_name is not None:
            cls = getattr(module, class_name)
            original = cls.__dict__[attr]
            wrapper = tracer.wrap(metric, original)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, wrapper)
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(metric, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def dump_child(tracer: Tracer, path: str) -> None:
    with open(path, "w") as out:
        json.dump(tracer.child_payload(), out)
