"""Per-layer tracing for the benchmark's traced run.

A layer is one module of the ``loramesh`` package. ``Tracer.install``
replaces, from outside the package, every public function and method
with a wrapper that counts calls and records a span whenever control
crosses from one layer into another. Calls that stay inside a layer are
counted but make no span. Spans live in memory as parallel arrays with
a parent link; ``layer_metrics`` turns them into the per-layer numbers
after the run, and ``write_spans`` saves them.

A binding is replaced where callers look it up: ``simulation`` holds its
own ``from``-imported names (``airtime``, ``plan``, ``emit_chunks``,
...) and ``energy`` holds ``quantize_battery``, so patching only the
defining module would miss those calls. Methods are replaced on their
class. ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "loramesh"
NO_PARENT = -1


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", None) or ""
    if not module.startswith(PACKAGE + "."):
        return None
    return module.rsplit(".", 1)[1]


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def patch_targets() -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for every binding the tracer replaces.

    Owners are package modules (for functions, wherever they are bound)
    and package classes (for their public methods and ``__init__``).
    """
    targets = []
    classes = []
    for mod in _package_modules():
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and _layer_of(obj):
                targets.append((mod, name, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                classes.append(obj)
    for cls in classes:
        for name, obj in sorted(vars(cls).items()):
            if inspect.isfunction(obj) and (name == "__init__" or not name.startswith("_")):
                targets.append((cls, name, obj))
    return targets


class Tracer:
    """Counts and spans for one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []  # function index -> qualified name
        self.layer_index: list[int] = []  # function index -> layer index
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.truthy: list[int] = []  # calls whose result was true
        self.span_fn = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [NO_PARENT]
        self._layer_stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def fn_index(self, qualname: str) -> int:
        return self.names.index(qualname)

    def _register(self, fn) -> int:
        layer = _layer_of(fn)
        if layer not in self.layers:
            self.layers.append(layer)
        self.names.append(f"{layer}.{fn.__qualname__}")
        self.layer_index.append(self.layers.index(layer))
        self.calls.append(0)
        self.truthy.append(0)
        return len(self.names) - 1

    def _wrap(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        fid = self._register(fn)
        layer = self.layer_index[fid]
        calls, truthy = self.calls, self.truthy
        stack, layers = self._stack, self._layer_stack
        add_fn, add_parent = self.span_fn.append, self.span_parent.append
        add_start, add_end, ends = self.span_start.append, self.span_end.append, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            if layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(ends)
                add_fn(fid)
                add_parent(stack[-1])
                add_end(0.0)
                stack.append(idx)
                layers.append(layer)
                add_start(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                    layers.pop()
            if result:
                truthy[fid] += 1
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, name, original in patch_targets():
            setattr(owner, name, self._wrap(original))
            self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # reading the record

    def spans(self):
        """(function index, parent span index, start, end) per span."""
        return zip(self.span_fn, self.span_parent, self.span_start, self.span_end)

    def self_seconds(self) -> dict[str, float]:
        return self_seconds(self.spans(), self.layer_index, self.layers)

    def calls_of(self, *qualnames: str) -> int:
        return sum(self.calls[self.fn_index(q)] for q in qualnames if q in self.names)

    def truthy_of(self, qualname: str) -> int:
        return self.truthy[self.fn_index(qualname)] if qualname in self.names else 0

    def layer_entries(self) -> dict[str, int]:
        """Spans per layer: calls that entered the layer from outside it."""
        out = {layer: 0 for layer in self.layers}
        for fid in self.span_fn:
            out[self.layers[self.layer_index[fid]]] += 1
        return out

    def spans_under(self, qualnames: tuple[str, ...], parent_layer: str) -> int:
        """Spans of the given functions whose caller is in ``parent_layer``."""
        wanted = {self.fn_index(q) for q in qualnames if q in self.names}
        if parent_layer not in self.layers:
            return 0
        target = self.layers.index(parent_layer)
        fns, parents, layer_index = self.span_fn, self.span_parent, self.layer_index
        return sum(
            1
            for fid, parent in zip(fns, parents)
            if fid in wanted and parent != NO_PARENT and layer_index[fns[parent]] == target
        )

    def heap_peak(self, run_name: str, push_name: str, pop_name: str) -> int:
        """Largest event-queue length, replayed from push and pop spans.

        Each run owns a fresh queue, so the count restarts at every span
        of ``run_name``.
        """
        run_id, push_id, pop_id = (
            self.fn_index(n) if n in self.names else -1 for n in (run_name, push_name, pop_name)
        )
        size = peak = 0
        for fid in self.span_fn:
            if fid == run_id:
                size = 0
            elif fid == push_id:
                size += 1
                peak = max(peak, size)
            elif fid == pop_id:
                size -= 1
        return peak

    def write_spans(self, stem: str) -> None:
        """Save spans as ``stem.bin`` (raw arrays) plus a ``stem.json`` header."""
        header = {
            "layers": self.layers,
            "functions": [[name, self.layer_index[i]] for i, name in enumerate(self.names)],
            "count": len(self.span_end),
            "arrays": [
                ["function", self.span_fn.typecode, self.span_fn.itemsize],
                ["parent", self.span_parent.typecode, self.span_parent.itemsize],
                ["start_s", self.span_start.typecode, self.span_start.itemsize],
                ["end_s", self.span_end.typecode, self.span_end.itemsize],
            ],
            "byteorder": sys.byteorder,
        }
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.span_fn, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")


def self_seconds(spans, layer_index, layers) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.

    ``spans`` yields (function index, parent span index, start, end),
    indexed in the order the spans were opened.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for fid, parent, start, end in spans:
        if parent != NO_PARENT:
            child[parent] += end - start
    out = {layer: 0.0 for layer in layers}
    for i, (fid, _parent, start, end) in enumerate(spans):
        out[layers[layer_index[fid]]] += (end - start) - child[i]
    return out


# ----------------------------------------------------------------------
# per-layer metrics

_CHARGES = ("energy.EnergyLedger.charge_tx", "energy.EnergyLedger.charge_rx")


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0.0 when nothing was attempted (the base is reported too)."""
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, counts: dict[str, int], trace_bytes: int) -> dict[str, float]:
    """Every per-layer metric except ``tracing_overhead``, from one traced iteration.

    ``counts`` sums the ``counts`` block of the metrics of every run in
    the iteration; ``trace_bytes`` is the size of the trace files written.
    """
    self_s = tracer.self_seconds()
    entries = tracer.layer_entries()
    counts = Counter(counts)  # a failed run may leave some keys out
    events = sum(counts.values())
    rx_attempts = sum(
        counts[k] for k in ("rx_ok", "rx_collided", "rx_below_sensitivity", "dropped_busy_tx")
    )
    lookups = tracer.calls_of("mac.DedupCache.seen")
    encodes = tracer.calls_of("trace.encode_event")
    out = {
        "engine.pushes": tracer.calls_of("engine.EventQueue.push"),
        "engine.pops": tracer.calls_of("engine.EventQueue.pop"),
        "engine.heap_peak": tracer.heap_peak(
            "simulation.Simulation.run", "engine.EventQueue.push", "engine.EventQueue.pop"
        ),
        "simulation.tx_starts": counts["tx_start"],
        "simulation.rx_attempts": rx_attempts,
        "simulation.rx_ok_ratio": _ratio(counts["rx_ok"], rx_attempts),
        "mac.dedup_lookups": lookups,
        "mac.dedup_hit_ratio": _ratio(tracer.truthy_of("mac.DedupCache.seen"), lookups),
        "mac.queue_pushes": tracer.calls_of("mac.TxQueue.push"),
        "mac.queue_evictions": tracer.truthy_of("mac.TxQueue.push"),
        "routing.standby_armed": counts["standby_armed"],
        "routing.standby_fired_ratio": _ratio(counts["standby_fired"], counts["standby_armed"]),
        "routing.route_switches": counts["route_switched"],
        "energy.charges": tracer.calls_of(*_CHARGES),
        "energy.charges_in_metrics": tracer.spans_under(_CHARGES, "metrics"),
        "model.airtime_calls": tracer.calls_of("model.airtime"),
        "model.rehops": tracer.calls_of("model.Packet.rehop"),
        "metrics.feed_calls": tracer.calls_of("metrics.MetricsBuilder.feed"),
        "trace.events": events,
        "trace.encode_calls": encodes,
        "trace.encodes_per_event": _ratio(encodes, events),
        "trace.bytes_written": trace_bytes,
        "cli.sim_runs": tracer.spans_under(("simulation.Simulation.run",), "cli"),
    }
    for layer in ("channel", "routing", "learning", "planner"):
        out[f"{layer}.calls"] = entries.get(layer, 0)
    for layer in ("engine", "simulation", "channel", "mac", "routing", "learning", "planner",
                  "energy", "model", "metrics", "trace", "scenario", "cli"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
