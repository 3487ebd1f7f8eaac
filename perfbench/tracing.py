"""Spans around the public functions of each layer, for the traced run.

``Tracer.install()`` replaces the functions named in ``install`` with
wrappers that record one span per call: name, start, end, parent span and
request id, plus a few per-call attributes.  Spans stay in memory and are
written out as JSON when the run ends.  Nothing inside the program is
changed; node processes forked after installation inherit the wrappers but
record nothing, since spans inside the nodes need support in the program.

The untraced run never imports this module, so its end-to-end numbers carry
no tracing cost.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import pickle
import threading
import time
from statistics import fmean
from typing import Dict, List, Optional

from common import percentile

# The innermost open span of the current thread or asyncio task.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int], request) -> None:
        self.id = span_id
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.request = request
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._restore: List[tuple] = []
        self._region_requests: Dict[int, int] = {}
        self._next_request = 0
        self._rpc = threading.local()
        #: Off outside the measured part of a run (output checks).
        self.recording = True

    # ------------------------------------------------------------ recording
    def _open(self, name: str) -> Optional[Span]:
        if not self.recording or os.getpid() != self._pid:
            return None  # checks, or a forked node process: record nothing
        parent = _CURRENT.get()
        with self._lock:
            span = Span(len(self.spans), name, parent.id if parent else None, _REQUEST.get())
            self.spans.append(span)
        return span

    def _wrap(self, function, name: str, before=None, after=None):
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                span = self._open(name)
                if span is None:
                    return await function(*args, **kwargs)
                token = _CURRENT.set(span)
                try:
                    if before is not None:
                        before(self, span, args)
                    return await function(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    _CURRENT.reset(token)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if span is None:
                return function(*args, **kwargs)
            token = _CURRENT.set(span)
            try:
                if before is not None:
                    before(self, span, args)
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _CURRENT.reset(token)
            if after is not None:
                after(self, span, result)
            return result

        return wrapper

    def _wrap_loader(self, function):
        """``GraphDataLoader.__iter__``: one ``nn.loader`` span per batch."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                span = tracer._open("nn.loader")
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        span.end = time.perf_counter()
                yield item

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def patch(self, owner, attribute: str, name: str, before=None, after=None) -> None:
        self._patch(owner, attribute, self._wrap(getattr(owner, attribute), name, before, after))

    # ----------------------------------------------------------- attributes
    def _gateway_entry(self, span: Span, args) -> None:
        with self._lock:
            request = self._next_request
            self._next_request += 1
        span.request = request
        _REQUEST.set(request)
        self._region_requests[id(args[1])] = request

    def _sweep_node(self, span: Span, args) -> None:
        regions = args[2]
        span.attrs["regions"] = len(regions)
        span.attrs["requests"] = [self._region_requests.get(id(r)) for r in regions]

    def _sweep_many(self, span: Span, args) -> None:
        span.attrs["regions"] = len(args[1])

    def _encode(self, span: Span, args) -> None:
        span.attrs["rows"] = int(args[1].num_graphs)

    def _send(self, span: Span, args) -> None:
        payload = args[1]
        self._rpc.sweep = isinstance(payload, tuple) and bool(payload) and payload[0] == "sweep"
        if self._rpc.sweep:
            span.attrs["bytes"] = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def _recv(self, span: Span, result) -> None:
        if getattr(self._rpc, "sweep", False):
            span.attrs["bytes"] = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        self._rpc.sweep = False

    # ------------------------------------------------------------- install
    def install(self) -> None:
        from repro.core import dataset, tuner
        from repro.core.model import PnPModel
        from repro.nn import optim
        from repro.nn.data import GraphDataLoader
        from repro.nn.inference import InferenceProgram
        from repro.nn.tensor import Tensor
        from repro.openmp.execution import ExecutionEngine
        from repro.serve import rpc
        from repro.serve.fleet import FleetClient
        from repro.serve.gateway import Gateway

        self.patch(ExecutionEngine, "run", "measurements.run")
        self.patch(dataset.DatasetBuilder, "inference_sample", "graphs.inference_sample")
        self.patch(dataset, "build_flow_graph", "graphs.build")
        self.patch(PnPModel, "forward", "nn.forward")
        self.patch(Tensor, "backward", "nn.backward")
        for optimizer in (optim.Adam, optim.AdamW, optim.SGD):
            self.patch(optimizer, "step", "nn.optim")
        self._patch(GraphDataLoader, "__iter__", self._wrap_loader(GraphDataLoader.__iter__))
        self.patch(tuner, "collate_graphs", "tuner.collate")
        self.patch(InferenceProgram, "encode_pooled", "tuner.encode", before=Tracer._encode)
        self.patch(tuner.PnPTuner, "predict_sweep_many", "tuner.predict_sweep_many",
                   before=Tracer._sweep_many)
        self.patch(Gateway, "predict_sweep", "gateway.request", before=Tracer._gateway_entry)
        self.patch(FleetClient, "sweep_node", "fleet.sweep_node", before=Tracer._sweep_node)
        self.patch(rpc, "send_message", "rpc.send", before=Tracer._send)
        self.patch(rpc, "recv_message", "rpc.recv", after=Tracer._recv)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # -------------------------------------------------------------- output
    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def _mean(values, default: float = 0.0) -> float:
    values = list(values)
    return fmean(values) if values else default


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics derived from the spans of one run."""
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def total_s(name: str) -> float:
        return sum(span.duration for span in named(name))

    misses = {span.parent for span in named("graphs.build")}
    missed = [span for span in named("graphs.inference_sample") if span.id in misses]

    sweeps = named("tuner.predict_sweep_many")
    sweep_ids = {span.id for span in sweeps}
    encoded = sum(
        span.attrs["rows"] for span in named("tuner.encode") if span.parent in sweep_ids
    )
    queried = sum(span.attrs["regions"] for span in sweeps)

    entries = {span.request: span.start for span in named("gateway.request")}
    dispatched: Dict[int, float] = {}
    for span in named("fleet.sweep_node"):
        for request in span.attrs["requests"]:
            if request is not None and request not in dispatched:
                dispatched[request] = span.start
    queue_ms = [(dispatched[r] - entries[r]) * 1e3 for r in dispatched if r in entries]
    round_trips = [span.duration * 1e3 for span in named("fleet.sweep_node")]

    return {
        "measurements.executions": float(len(named("measurements.run"))),
        "measurements.run_s": total_s("measurements.run"),
        "graphs.built": float(len(missed)),
        "graphs.build_ms": _mean(span.duration * 1e3 for span in missed),
        "nn.forward_s": total_s("nn.forward"),
        "nn.backward_s": total_s("nn.backward"),
        "nn.optim_s": total_s("nn.optim"),
        "nn.loader_s": total_s("nn.loader"),
        "tuner.collate_ms": _mean(span.duration * 1e3 for span in named("tuner.collate")),
        "tuner.encode_ms": _mean(span.duration * 1e3 for span in named("tuner.encode")),
        "tuner.cache_hit_ratio": 1.0 - encoded / queried if queried else 0.0,
        "gateway.queue_ms_p50": percentile(queue_ms, 50) if queue_ms else 0.0,
        "gateway.batch_regions_mean": _mean(
            span.attrs["regions"] for span in named("fleet.sweep_node")
        ),
        "fleet.round_trip_ms_p50": percentile(round_trips, 50) if round_trips else 0.0,
        "rpc.request_bytes": _mean(
            span.attrs["bytes"] for span in named("rpc.send") if "bytes" in span.attrs
        ),
        "rpc.reply_bytes": _mean(
            span.attrs["bytes"] for span in named("rpc.recv") if "bytes" in span.attrs
        ),
    }
