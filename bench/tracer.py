"""Span tracing of vqreg's layers from outside the package.

``Tracer.install`` wraps every public function defined in each layer module,
found by introspection, and rebinds the wrapper wherever a ``vqreg`` module
holds the original (its own module, the package namespace, and every
``from .x import f`` in a sibling), so calls between layers are caught too.
Spans are recorded only inside ``Tracer.operation``; elsewhere (set-up and
the oracles) a wrapper calls straight through.  Nothing is wrapped unless
``install`` is called, so an untraced run executes the original code.

A span is ``(name, layer, start, end, parent, op)``, kept in memory and
written out by ``Tracer.write``.  A span's self time is its duration minus
the time its child spans cover.
"""
from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("data", "encoders", "circuit", "measurement", "trainer", "statevector", "cli")
ROOT_LAYER = "bench"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.op = None
        self._stack = [-1]
        self._layer_stack = [ROOT_LAYER]
        self._originals = {}  # id(original) -> (original, wrapper)
        self._rebound = []    # (module, attribute, original)

    def install(self) -> None:
        from vqreg.measurement import CostEstimate
        from vqreg.statevector import StateVector
        from vqreg.trainer import FitResult

        self._types = (CostEstimate, StateVector, FitResult)
        for layer in LAYERS:
            module = sys.modules[f"vqreg.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "vqreg" and not mod_name.startswith("vqreg."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._rebound:
            setattr(module, attr, original)
        self._rebound.clear()
        self._originals.clear()

    def _wrap(self, fn, name: str, layer: str):
        spans = self.spans
        stack = self._stack
        layer_stack = self._layer_stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            entry = layer_stack[-1] != layer
            if entry and layer == "statevector":
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            layer_stack.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layer_stack.pop()
                spans[sid] = (name, layer, start, end, parent, op)
            if entry and layer == "statevector":
                tracer.counters["statevector.minflt"] += (
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            tracer._count(layer, entry, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count(self, layer: str, entry: bool, args: tuple, result) -> None:
        cost_estimate, state_vector, fit_result = self._types
        if layer == "statevector":
            state = next((a for a in args if isinstance(a, state_vector)), None)
            if state is None:
                state = result if isinstance(result, state_vector) else None
            if state is not None:
                self.counters["statevector.amp_bytes"] += 16 << state.num_qubits
        elif layer == "measurement" and entry and isinstance(result, cost_estimate):
            self.counters["measurement.shots"] += result.shots
        elif isinstance(result, fit_result):
            self.counters["trainer.fits"] += 1
            self.counters["trainer.cost_evals"] += result.evaluations
            self.counters["trainer.restarts"] += result.restarts_used - 1
            self.counters["trainer.nonconverged"] += not result.converged

    @contextmanager
    def operation(self, op_id: int):
        """Record the root span of operation ``op_id`` and every layer span
        inside it."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.op = None
            self._stack.pop()
            self.spans[sid] = ("op", ROOT_LAYER, start, end, -1, op_id)

    def summary(self) -> dict:
        """Per-operation self time and calls by layer and by function, the
        counters, and the share of operation time the layers account for."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layer_self = defaultdict(float)
        fn_self = defaultdict(float)
        calls = Counter()
        op_time = 0.0
        ops = 0
        for sid, (name, layer, start, end, _, _) in enumerate(self.spans):
            if layer == ROOT_LAYER:
                ops += 1
                op_time += end - start
                continue
            own = end - start - covered[sid]
            layer_self[layer] += own
            fn_self[name] += own
            calls[layer] += 1
        per_op = 1.0 / max(ops, 1)
        fits = self.counters["trainer.fits"]
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = 1e3 * layer_self[layer] * per_op
            metrics[f"{layer}.calls"] = calls[layer] * per_op
        for key in ("trainer.fits", "trainer.cost_evals", "trainer.restarts",
                    "measurement.shots", "statevector.amp_bytes", "statevector.minflt"):
            metrics[key] = self.counters[key] * per_op
        metrics["trainer.nonconverged_frac"] = (
            self.counters["trainer.nonconverged"] / fits if fits else 0.0)
        return {
            "ops": ops,
            "op_ms": 1e3 * op_time * per_op,
            "layer_share": sum(layer_self.values()) / op_time if op_time else 0.0,
            "metrics": metrics,
            "functions_self_ms": {k: 1e3 * v * per_op for k, v in sorted(fn_self.items())},
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, layer, start, end, parent, op]) + "\n")
