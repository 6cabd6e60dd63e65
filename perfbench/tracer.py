"""Spans around the public functions of each molstore layer.

``Tracer.install`` replaces each listed function, in every molstore module
that binds it, with a wrapper that records a span (name, start, end,
parent).  Modules resolve globals through their own dict, so calls inside
a module, such as ``simulate`` calling ``pore_events``, are traced too.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

# (module, function) pairs; the metric names are ``<module>.<function>``.
LAYERS = (
    ("traceio", "write_trace_text"),
    ("traceio", "read_trace_text"),
    ("traceio", "write_trace_binary"),
    ("traceio", "read_trace_binary"),
    ("poresim", "simulate"),
    ("poresim", "pore_events"),
    ("poresim", "sample_event"),
    ("reader", "detect_events"),
    ("reader", "classify_event"),
    ("reader", "infer_orientation"),
    ("reader", "decode_event"),
    ("reader", "to_translocation_event"),
    ("codec", "decode_runlength"),
    ("reader", "trace_stats"),
    ("reader", "census_series"),
    ("reader", "census_current_means"),
    ("reader", "census_rates"),
    ("cli", "main"),
)
LAYER_NAMES = tuple(f"{module}.{function}" for module, function in LAYERS)

# Counts taken at the layer boundaries, with their units.
COUNTS = {
    "traceio.trace_bytes": "bytes",
    "poresim.simulate.events": "count",
    "reader.detect_events.events": "count",
    "reader.decode_event.decoded": "count",
    "reader.decode_event.failed": "count",
}


class Tracer:
    def __init__(self) -> None:
        # One span per wrapped call, stored by column: the arrays hold no
        # Python objects, so ~10^5 spans add no work for the garbage collector.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _result_hook(self, name: str):
        """The count a successful call of ``name`` adds to, if any."""
        counts = self.counts
        if name in ("traceio.write_trace_text", "traceio.write_trace_binary"):
            def hook(args, result):
                counts["traceio.trace_bytes"] += os.path.getsize(args[1])
        elif name == "poresim.simulate":
            def hook(args, result):
                counts["poresim.simulate.events"] += len(result.events)
        elif name == "reader.detect_events":
            def hook(args, result):
                counts["reader.detect_events.events"] += len(result)
        elif name == "reader.decode_event":
            def hook(args, result):
                counts["reader.decode_event.decoded"] += 1
                if list(result) == [0, 1]:
                    counts["reader.decode_event.ok"] += 1
        else:
            hook = None
        return hook

    def _wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        on_result = self._result_hook(name)
        count_failures = name == "reader.decode_event"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if count_failures:
                    counts["reader.decode_event.failed"] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "molstore" or key.startswith("molstore."))
        ]
        for module_name, function in LAYERS:
            original = getattr(sys.modules[f"molstore.{module_name}"], function)
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` of every layer, plus counts.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        self_s = list(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                self_s[parent] -= duration
        calls: Counter = Counter(self.names)
        busy: Counter = Counter()
        for name, own in zip(self.names, self_s):
            busy[name] += own
        out: dict[str, float] = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = busy[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        attempts = calls["reader.decode_event"]
        out["reader.decode_event.ok_ratio"] = (
            self.counts["reader.decode_event.ok"] / attempts if attempts else 0.0
        )
        return out

    def write_spans(self, path, run_index: int) -> None:
        """Write the spans as CSV rows; run 0 starts the file, later runs append."""
        with open(path, "a" if run_index else "w", encoding="utf-8") as fh:
            if not run_index:
                fh.write("run,index,name,start_s,end_s,parent\n")
            spans = zip(self.names, self.starts, self.ends, self.parents)
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{run_index},{i},{name},{start:.9f},{end:.9f},{parent}\n")
