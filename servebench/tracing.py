"""Span tracing for the benchmark's traced run.

The program has no request-wide span tree of its own yet, so the
benchmark records spans from the outside: :func:`install_daemon` and
:func:`install_client` wrap the public functions at each layer boundary
(the source factory, ``Engine.run``/``run_streaming``,
``Executor.execute``, ``StreamRunner.run``, the sensor reads, the
``HiRISEPipeline`` phase methods, ``classify_crops``, each classifier
layer's ``forward``, and the wire codec).  Wrappers are installed only
in the traced run, and only after its untraced half, so end-to-end
numbers never carry tracing cost.

A span is ``(name, start, end, parent, request, count)``: ``parent`` is
the index of the innermost span open on the same thread (``-1`` at the
top), ``request`` the id of the request being served, ``count`` an
optional work count (frames, crops, bytes).  Spans stay in memory and
are written out when the process ends.  The load generator keeps one
connection in a closed loop, so exactly one request is in flight at a
time and "the last request id seen on the wire" attributes every span
correctly, even across the daemon's handler and worker threads.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str, int]] = []
        self.request = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable | None = None,
        on_call: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``count(args, result) -> int`` gives the span's work count;
        ``on_call(args)`` runs before the span opens (request-id capture).
        """
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append((name, 0.0, 0.0, parent, tracer.request, 0))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n = count(args, result) if count is not None else 0
            tracer.spans[index] = (name, start, end, parent, tracer.request, n)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None, on_call=None) -> None:
        """Replace ``owner.attr`` with its traced form (class or module)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, count, on_call)))
        else:
            setattr(owner, attr, self.wrap(name, raw, count, on_call))

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _note_request(tracer: Tracer, frame) -> None:
    frame_id = getattr(frame, "id", None)
    if isinstance(frame_id, str) and frame_id:
        tracer.request = frame_id


def install_client(tracer: Tracer) -> None:
    """Trace the load generator's side of the wire."""
    from repro.server import client

    def on_encode(args):
        # Every outgoing request frame starts a new request.
        _note_request(tracer, args[0])

    tracer.patch(client, "encode_frame", "client.encode_frame", on_call=on_encode)
    tracer.patch(client, "parse_frame", "client.parse_frame")


def install_daemon(tracer: Tracer) -> None:
    """Trace every layer boundary inside the serving daemon."""
    from repro.core import pipeline
    from repro.ml import layers
    from repro.ml.classifier import crop
    from repro.sensor import readout
    from repro.server import daemon
    from repro.service import components, engine, executor
    from repro.stream import runner

    def frames_of(result):
        return len(result.frames)

    def parse_result(args, result):
        _note_request(tracer, result)
        return 0

    last_encoded = [None]

    def encoded_bytes(args, result):
        # The daemon encodes a whole reply twice (a size check, then the
        # send); both encodes cost time, but the reply is one line.
        if args[0] is last_encoded[0]:
            return 0
        last_encoded[0] = args[0]
        return len(result)

    # Wire codec.  A parsed request frame names the request every later
    # span belongs to; an encoded frame counts its bytes.
    tracer.patch(daemon, "parse_frame", "protocol.parse_frame", count=parse_result)
    tracer.patch(daemon, "encode_frame", "protocol.encode_frame", count=encoded_bytes)
    # Service: cache tiers, executor dispatch, clip render.
    tracer.patch(engine.Engine, "run", "engine.run")
    tracer.patch(engine.Engine, "run_streaming", "engine.run_streaming")
    tracer.patch(executor.ThreadExecutor, "execute", "executor.execute")
    for source in ("pedestrian_clip", "drone_traffic_clip"):
        tracer.patch(
            components, source, "render.clip",
            count=lambda args, result: frames_of(result),
        )
    # Stream runner.
    tracer.patch(
        runner.StreamRunner, "run", "runner.run",
        count=lambda args, result: result.n_frames,
    )
    # Sensor reads.
    tracer.patch(
        readout.BatchSensorReadout, "from_images", "sensor.expose",
        count=lambda args, result: len(result),
    )
    tracer.patch(
        readout.BatchSensorReadout, "read_compressed", "sensor.stage1_read",
        count=lambda args, result: len(result),
    )
    tracer.patch(
        readout.SensorReadout, "read_compressed", "sensor.stage1_read",
        count=lambda args, result: 1,
    )
    tracer.patch(readout.SensorReadout, "read_rois", "sensor.stage2_read")
    # Pipeline phases.
    tracer.patch(pipeline.HiRISEPipeline, "build_readout", "sensor.expose")
    for phase in (
        "read_stage1", "detect", "condition_rois", "run_stage2",
        "complete_from_stage1", "run", "run_stage2_only",
    ):
        tracer.patch(pipeline.HiRISEPipeline, phase, f"pipeline.{phase}")
    # Stage-2 classifier: crop batching, resize, each layer's forward.
    tracer.patch(
        pipeline, "classify_crops", "classify.crops",
        count=lambda args, result: len(result),
    )
    tracer.patch(crop.CropClassifier, "preprocess", "classify.resize")
    for layer in LAYERS:
        tracer.patch(
            getattr(layers, layer), "forward", f"classify.{layer}",
            count=lambda args, result: int(args[1].shape[0]),
        )


#: Classifier layers whose ``forward`` is traced (the ``tiny-cnn`` stack).
LAYERS = ("Conv2D", "BatchNorm", "ReLU", "MaxPool2D", "GlobalAvgPool", "Dense")


def load_spans(path) -> list[tuple[str, float, float, int, str, int]]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _request, _n in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        max(0.0, (end - start) - covered[i])
        for i, (_name, start, end, _parent, _request, _n) in enumerate(spans)
    ]
