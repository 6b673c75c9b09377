"""Outside-in tracing of twinobs' public functions.

The tracer replaces module attributes of the imported package with timing
wrappers, so nothing under src/ changes.  A target that a later version of
the package no longer has is recorded as missing and counts zero calls; the
run goes on.  Spans stay in memory and are written out once, at the end.

A span is [name id, start, end, parent span, op index, returned-not-None, size].
A span's self time is its duration minus the durations of its direct
children; calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

import numpy as np


def _matrix_elems(args, kwargs) -> int:
    M = args[0] if args else kwargs.get("M")
    return int(np.prod(np.shape(M)))


# (span name, module, attribute path, size probe).  Span names prefix the
# per-layer metrics; the range/null helpers have no metric of their own but are
# traced so that their time is not counted as their callers' self time.
TARGETS = [
    ("linops.kernel_basis", "twinobs.linops", "kernel_basis", _matrix_elems),
    ("linops.eigh", "twinobs.linops", "eigh", None),
    ("linops.kron", "twinobs.linops", "kron", None),
    ("linops.hermitize", "twinobs.linops", "hermitize", None),
    ("linops.hermitian_basis", "twinobs.linops", "hermitian_basis", None),
    ("linops.range_basis", "twinobs.linops", "range_basis", None),
    ("linops.null_basis", "twinobs.linops", "null_basis", None),
    ("linops.range_null_projectors", "twinobs.linops", "range_null_projectors", None),
    ("states.BipartiteState.init", "twinobs.states", "BipartiteState.__init__", None),
    ("states.reduce", "twinobs.states", "BipartiteState.reduce", None),
    ("twins.solve_twin_space", "twinobs.twins", "solve_twin_space", None),
    ("spectral.find_complete_twins", "twinobs.spectral", "find_complete_twins", None),
    ("spectral.split_detectable", "twinobs.spectral", "split_detectable", None),
    ("schmidt.simplified_matrix", "twinobs.schmidt", "simplified_matrix", None),
    ("schmidt.pure_schmidt", "twinobs.schmidt", "pure_schmidt", None),
    ("measurement.distant_measurement_report", "twinobs.measurement",
     "distant_measurement_report", None),
    ("measurement.luders_collapse", "twinobs.measurement", "luders_collapse", None),
    ("serialize.load_json", "twinobs.serialize", "load_json", None),
    ("serialize.state_from_document", "twinobs.serialize", "state_from_document", None),
    ("serialize.dump_json", "twinobs.serialize", "dump_json", None),
    ("cli.main", "twinobs.cli", "main", None),
]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [t[0] for t in targets]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name_id: int, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = probe(args, kwargs) if probe else 0
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, size]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = result is not None
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target and every alias of it in the package's modules."""
        for name_id, (name, module, path, probe) in enumerate(self.targets):
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name_id, original, probe)
            if outer:  # a method: replace it on its class only
                self._set(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "twinobs" or mod_name.startswith("twinobs."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._restore.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, had, original in reversed(self._restore):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self, scales=None) -> dict:
        """name -> {calls, total_s, self_s, not_none, size}, zero for names never called.

        With scales, the times of spans in op i are multiplied by scales[i].
        """
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: dict(calls=0, total_s=0.0, self_s=0.0, not_none=0, size=0)
               for name in self.names}
        for i, (name_id, start, end, _, op, not_none, size) in enumerate(self.spans):
            scale = 1.0 if scales is None else scales[op]
            t = out[self.names[name_id]]
            t["calls"] += 1
            t["total_s"] += (end - start) * scale
            t["self_s"] += (end - start - child[i]) * scale
            t["not_none"] += not_none
            t["size"] += size
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "missing": self.missing,
                                 "fields": ["name", "start", "end", "parent", "op",
                                            "not_none", "size"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
