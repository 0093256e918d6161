"""Per-layer spans recorded from outside the program.

The layers are the clifford3 modules in LAYERS.  ``Tracer.install`` wraps
every public function and class constructor a layer defines, and replaces
each function in every clifford3 namespace that refers to it, so that
``clifford3.bounds.delta_vanishes`` and ``clifford3.cli.suite`` are traced
where their callers look them up.  ``uninstall`` restores the originals.
No file of the program changes.

A span's self time is its duration minus the time of its child spans.
Since one thread runs the spans and they nest, the self times of all spans
add up to the time of the outermost spans.  An exception counts as an
error once, in the layer whose span it leaves first.
"""
from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("krawtchouk", "invariants", "bounds", "elmtrans", "families", "cli")
# Rank3Query is the validated rank-3 input record; its construction is
# invariant validation, like BundleInvariants and validate.
LAYER_OF = {"Rank3Query": "invariants"}
KRAWTCHOUK_TOKENS = ("krawtchouk-refinement", "krawtchouk-nonzero")
MAX_SPANS = 10000  # spans kept in memory for write_spans; later ones are only counted


class OpStats:
    """Counts and self times for the spans of one operation."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.terms = 0  # sum of min(n, r) + 1 over krawtchouk() calls
        self.attempts = 0  # outermost bound calls that evaluated a coefficient
        self.hits = 0  # ... whose result carries a Krawtchouk assumption
        self.root_s = 0.0  # time covered by outermost spans


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = OpStats()
        self.op_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._last_error: BaseException | None = None
        self._bounds_depth = 0
        self._patches = self._collect()

    def _collect(self) -> list[tuple]:
        """(target, attribute, original, wrapper) for every traced name."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "clifford3" or name.startswith("clifford3.")
        }
        patches = []
        for layer in LAYERS:
            mod = mods[f"clifford3.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                owner = LAYER_OF.get(name, layer)
                if inspect.isclass(obj):
                    init = obj.__dict__.get("__init__")
                    if init is not None:
                        wrapped = self._wrap(owner, f"{name}.__init__", init)
                        patches.append((obj, "__init__", init, wrapped))
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(owner, name, obj)
                    for other in mods.values():
                        for attr, val in vars(other).items():
                            if val is obj:
                                patches.append((other, attr, obj, wrapped))
        return patches

    def install(self) -> None:
        for target, attr, _, wrapped in self._patches:
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    def begin_op(self, op_id: int) -> None:
        self.op = OpStats()
        self.op_id = op_id
        self._last_error = None

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        clock = time.perf_counter
        is_krawtchouk = layer == "krawtchouk" and name == "krawtchouk"
        is_bound = layer == "bounds" and not name.endswith("__init__")

        def wrapper(*args, **kwargs):
            op = tracer.op
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            if is_krawtchouk:
                q = args[0]
                op.terms += min(q.n, q.r) + 1
            if is_bound:
                outermost = tracer._bounds_depth == 0
                tracer._bounds_depth += 1
                kraw_before = op.calls["krawtchouk"]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    op.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                else:
                    op.root_s += dur
                op.calls[layer] += 1
                op.self_s[layer] += dur - frame[0]
                if is_bound:
                    tracer._bounds_depth -= 1
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, tracer.op_id, layer, name, t0, t1))
            if is_bound and outermost and op.calls["krawtchouk"] > kraw_before:
                op.attempts += 1
                if any(a in KRAWTCHOUK_TOKENS for a in getattr(result, "assumptions", ())):
                    op.hits += 1
            return result

        return wrapper

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, times in microseconds from
        the start of the first."""
        t_origin = self.spans[0][5] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, layer, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op_id,
                            "layer": layer,
                            "fn": name,
                            "start_us": round((t0 - t_origin) * 1e6, 3),
                            "end_us": round((t1 - t_origin) * 1e6, 3),
                        }
                    )
                    + "\n"
                )
