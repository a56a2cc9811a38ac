"""Layer tracer for the benchmark's traced run.

The benchmark measures end-to-end metrics with this tracer off.  For the
per-layer numbers it runs the same operations again with the tracer
installed: :meth:`LayerTracer.install` replaces the public entry points of
the ``repro`` layers (listed in :data:`LAYER_POINTS`) with timing shims,
and :meth:`LayerTracer.restore` puts the originals back.  Nothing in the
program changes and the program's own ``repro.obs`` tracer stays off.

Each shim is a span at a layer boundary.  A layer's *self time* is the
span's duration minus the time of the spans it encloses, so the self times
of all layers partition the time spent inside traced calls.  Spans nest on
a per-thread stack and are timed on the thread's CPU clock, like the
benchmark's end-to-end timings (see ``run.py``); the service workload runs
the whole stack on its one admission thread, the closed-loop workloads on
the main thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LAYER_POINTS", "LayerTracer"]

#: Layers in report order.
LAYERS: Tuple[str, ...] = (
    "service",
    "core",
    "core.plan",
    "device",
    "server.proxy",
    "server.eval",
    "network.meter",
    "network.resilience",
    "network.replay",
    "index.build",
    "index.query",
    "index.join_kernel",
)

_PROXY_ENDPOINTS = (
    "window",
    "count",
    "window_batch",
    "window_batch_flat",
    "count_batch",
    "count_batch_prefetched",
    "range",
    "range_batch",
    "range_batch_flat",
    "bucket_range",
    "average_mbr_area",
    "level_mbrs",
    "upload_windows_and_collect",
    "upload_windows_and_collect_flat",
    "upload_objects_and_join",
)
_SERVER_ENDPOINTS = (
    "window",
    "window_batch",
    "window_batch_flat",
    "count",
    "count_batch",
    "range",
    "range_batch",
    "range_batch_flat",
    "bucket_range",
    "average_mbr_area",
    "evaluate_count_batch",
)

#: ``(module, class or None, attribute names, layer, role)``.  A class entry
#: is patched on that class and on every loaded subclass that defines the
#: attribute itself; a function entry is patched on every ``repro`` module
#: that imported it by name.  ``role`` selects extra bookkeeping: ``fleet``
#: and ``proxy`` count per-shard calls, ``gen`` times each advance of a
#: generator, ``count`` records a call count without opening a span.
LAYER_POINTS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], Optional[str], str], ...] = (
    ("repro.service.broker", "QueryBroker", ("run_batch",), "service", "batch"),
    ("repro.core.base", "MobileJoinAlgorithm", ("run",), "core", ""),
    ("repro.core.base", "MobileJoinAlgorithm", ("run_cooperative",), "core", "gen"),
    ("repro.core.base", "MobileJoinAlgorithm", ("cheaper_nlsj_side",), None, "count"),
    ("repro.core.costmodel", "CalibratedCostModel", ("predict",), "core.plan", ""),
    (
        "repro.device.pda",
        "MobileDevice",
        ("hbsj", "hbsj_batch", "nlsj", "nlsj_batch"),
        "device",
        "",
    ),
    (
        "repro.device.pda",
        "MobileDevice",
        ("count_windows", "count_windows_prefetched"),
        None,
        "windows",
    ),
    ("repro.device.pda", "MobileDevice", ("estimated_response_time",), "network.replay", ""),
    ("repro.server.remote", "ShardedRemoteServer", _PROXY_ENDPOINTS, "server.proxy", "fleet"),
    ("repro.server.remote", "RemoteServer", _PROXY_ENDPOINTS, "server.proxy", "proxy"),
    ("repro.server.server", "SpatialServer", _SERVER_ENDPOINTS, "server.eval", ""),
    ("repro.server.sharded", "ShardedSpatialServer", ("evaluate_count_batch",), "server.eval", ""),
    (
        "repro.network.channel",
        "Channel",
        ("send_query", "send_response", "send_uniform_batch", "send_payload_batch"),
        "network.meter",
        "",
    ),
    ("repro.server.remote", "ResilienceController", ("exchange",), "network.resilience", ""),
    ("repro.server.server", "SpatialServer", ("__init__",), "index.build", ""),
    ("repro.index.flat", "FlatRTree", ("__init__",), "index.build", ""),
    (
        "repro.index.flat",
        "FlatRTree",
        ("count_batch", "window_batch_flat", "range_batch_flat"),
        "index.query",
        "descent",
    ),
    (
        "repro.index.aggregate_rtree",
        "AggregateRTree",
        ("count", "window_query", "range_query", "total_mbr_area", "average_mbr_area"),
        "index.query",
        "",
    ),
    (
        "repro.index.hash_join",
        None,
        ("grid_hash_join", "grid_hash_join_batch"),
        "index.join_kernel",
        "",
    ),
    (
        "repro.index.plane_sweep",
        None,
        ("plane_sweep_pair_arrays", "plane_sweep_pair_arrays_segmented"),
        "index.join_kernel",
        "",
    ),
)


class _Frame:
    __slots__ = ("role", "child")

    def __init__(self, role: str) -> None:
        self.role = role
        self.child = 0.0


class LayerTracer:
    """Self time, call counts and per-layer counters, gathered by shims.

    ``counters`` holds: ``fleet_calls`` / ``shard_calls`` (fleet-level
    proxy calls and the per-shard proxy calls they fan out to),
    ``descents`` / ``descent_windows`` (``FlatRTree`` batch calls and the
    windows or probes they carried), ``count_calls`` / ``count_windows``
    (device COUNT batches) and ``costmodel_calls``.  ``batch_starts``
    lists ``(perf_counter, [id(query), ...])`` per broker batch.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.batch_starts: List[Tuple[float, List[int]]] = []
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Patch every entry point of :data:`LAYER_POINTS`."""
        if self._patched:
            raise RuntimeError("layer tracer already installed")
        importlib.import_module("repro.api")  # every algorithm subclass loaded
        for module_name, class_name, attrs, layer, role in LAYER_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in attrs:
                    self._patch_function(module, attr, layer, role)
            else:
                for cls in _class_and_subclasses(getattr(module, class_name)):
                    for attr in attrs:
                        original = cls.__dict__.get(attr)
                        if inspect.isfunction(original):
                            self._set(cls, attr, self._shim(original, layer, role))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------ #

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, layer: str, role: str) -> None:
        original = getattr(module, attr)
        shim = self._shim(original, layer, role)
        for name, mod in sorted(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                mod, attr, None
            ) is original:
                self._set(mod, attr, shim)

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _shim(self, fn: Callable, layer: Optional[str], role: str) -> Callable:
        if role == "gen":
            return self._generator_shim(fn, layer)
        counters = self.counters
        if layer is None:
            key = "costmodel_calls" if role == "count" else "count_calls"

            def counting(*args, **kwargs):
                counters[key] += 1
                if role == "windows":
                    counters["count_windows"] += len(args[2])
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counting)
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1].role if stack else ""
            if role == "proxy" and parent == "fleet":
                counters["shard_calls"] += 1
            elif role == "fleet" and parent != "fleet":
                counters["fleet_calls"] += 1
            elif role == "descent":
                counters["descents"] += 1
                counters["descent_windows"] += len(args[1])
            elif role == "batch":
                tracer.batch_starts.append((time.perf_counter(), [id(q) for q in args[1]]))
            return tracer._timed(layer, role, fn, *args, **kwargs)

        return functools.wraps(fn)(span)

    def _generator_shim(self, fn: Callable, layer: str) -> Callable:
        tracer = self

        def wrapped(*args, **kwargs):
            return _TimedGenerator(tracer, layer, fn(*args, **kwargs))

        return functools.wraps(fn)(wrapped)

    def _timed(self, layer: str, role: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``, charging its self time."""
        stack = self._stack()
        frame = _Frame(role)
        stack.append(frame)
        start = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.thread_time() - start
            stack.pop()
            self.self_s[layer] += elapsed - frame.child
            if stack:
                stack[-1].child += elapsed

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class _TimedGenerator:
    """Generator proxy that times every advance as one span."""

    def __init__(self, tracer: LayerTracer, layer: str, gen) -> None:
        self._tracer = tracer
        self._layer = layer
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer._timed(self._layer, "", self._gen.__next__)

    def send(self, value):
        return self._tracer._timed(self._layer, "", self._gen.send, value)

    def throw(self, *args):
        return self._tracer._timed(self._layer, "", self._gen.throw, *args)

    def close(self):
        return self._gen.close()


def _class_and_subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found
