"""The serving wire protocol: newline-delimited JSON frames.

One TCP connection carries any number of requests (keep-alive); every
message — request, response, streamed ledger row, or error — is a single
line of JSON, a *frame*, with a ``"type"`` discriminator.  Frames follow
the spec conventions of :mod:`repro.service.spec`: frozen dataclasses,
**exact** ``to_dict``/``from_dict``/JSON round-trips, and validation
errors that name the offending field (``run.timeout_s: ...``).

Client -> server frames:

* :class:`RunRequest` (``"run"``) — serve one
  :class:`~repro.service.ScenarioSpec` against the daemon's system, whole
  result (``stream=False``) or per-frame streaming (``stream=True``);
* :class:`PingRequest` (``"ping"``) — liveness probe;
* :class:`StatsRequest` (``"stats"``) — server/cache observability;
* :class:`ShutdownRequest` (``"shutdown"``) — ask the daemon to stop
  (gracefully draining in-flight work by default).

Server -> client frames:

* :class:`ResultResponse` (``"result"``) — the whole
  :class:`~repro.stream.StreamOutcome` ledger of one request;
* :class:`FrameChunk` (``"frame"``) — one streamed
  :class:`~repro.stream.FrameStats` row;
* :class:`StreamEnd` (``"end"``) — closes a stream; carries what the
  client needs to reassemble the :class:`StreamOutcome`;
* :class:`PongResponse` (``"pong"``), :class:`StatsResponse`
  (``"server-stats"``), :class:`OkResponse` (``"ok"``);
* :class:`ErrorResponse` (``"error"``) — typed failure, one of
  :data:`ERROR_CODES`; the connection stays usable afterwards.

Wire format: UTF-8 JSON, one frame per ``\\n``-terminated line, at most
:data:`MAX_FRAME_BYTES` per line.  Oversized or malformed input raises
:class:`ProtocolError` locally / earns an ``"error"`` frame from the
daemon **without** killing the connection — :func:`read_frame` drains a
too-long line to the next newline so the stream stays in sync.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..service.spec import ScenarioSpec, SpecError
from ..stream.ledger import FrameStats

#: Hard per-line ceiling.  Generous: a 10k-frame ledger response is ~2 MB.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Every error code a daemon can answer with.
ERROR_CODES = (
    "bad-frame",      # malformed JSON / unknown type / frame-level validation
    "bad-request",    # the scenario spec itself is invalid
    "oversized",      # frame exceeded the byte ceiling
    "queue-full",     # admission control: the bounded request queue is full
    "timeout",        # the per-request deadline fired
    "shutting-down",  # the daemon is draining and accepts no new work
    "internal",       # unexpected server-side failure
)


class ProtocolError(ValueError):
    """A frame failed to parse or validate.

    Attributes:
        code: the :data:`ERROR_CODES` entry a daemon should answer with
            ("bad-frame" for malformed frames, "bad-request" when the
            frame was well-formed but its scenario spec was not,
            "oversized" for over-limit lines).
    """

    def __init__(self, message: str, code: str = "bad-frame"):
        super().__init__(message)
        self.code = code


class TruncatedFrameError(ProtocolError):
    """The connection died mid-frame (no trailing newline before EOF).

    Unlike every other :class:`ProtocolError`, this one means the peer is
    *gone* — a daemon drops the connection instead of answering an error
    frame on it.
    """


def _require(value: object, fieldname: str, kind: type, type_name: str):
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ProtocolError(f"{fieldname}: expected {type_name}, got {value!r}")
    return value


def _reject_unknown(data: dict, known: set[str], fieldname: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ProtocolError(
            f"{fieldname}: unknown field(s) {unknown}; "
            f"known fields: {sorted(known)}"
        )


def _require_id(data: dict, fieldname: str) -> str:
    if "id" not in data:
        raise ProtocolError(f"{fieldname}.id: required field is missing")
    return _require(data["id"], f"{fieldname}.id", str, "str")


# -- client -> server request frames ------------------------------------------


@dataclass(frozen=True)
class RunRequest:
    """Serve one scenario against the daemon's system.

    Attributes:
        id: client-chosen correlation id, echoed on every reply frame.
        scenario: the request (``keep_outcomes`` must be off — full
            per-frame outcomes hold live images and never cross the wire).
        stream: per-frame streaming (:class:`FrameChunk` rows then a
            :class:`StreamEnd`) instead of one :class:`ResultResponse`.
        timeout_s: per-request deadline; ``None`` uses the daemon's
            default.  On expiry the daemon answers a ``"timeout"`` error
            and abandons the request.
    """

    id: str
    scenario: ScenarioSpec
    stream: bool = False
    timeout_s: float | None = None

    type = "run"

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "id": self.id,
            "scenario": self.scenario.to_dict(),
            "stream": self.stream,
            "timeout_s": self.timeout_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRequest":
        _reject_unknown(data, {"type", "id", "scenario", "stream", "timeout_s"}, "run")
        request_id = _require_id(data, "run")
        if "scenario" not in data:
            raise ProtocolError("run.scenario: required field is missing")
        try:
            scenario = ScenarioSpec.from_dict(data["scenario"])
        except SpecError as exc:
            raise ProtocolError(f"run.scenario: {exc}", code="bad-request") from None
        if scenario.keep_outcomes:
            raise ProtocolError(
                "run.scenario.keep_outcomes: full per-frame outcomes are not "
                "serializable; the per-frame ledger is what streams",
                code="bad-request",
            )
        stream = _require(data.get("stream", False), "run.stream", bool, "bool")
        timeout_s = data.get("timeout_s")
        if timeout_s is not None:
            timeout_s = float(
                _require(timeout_s, "run.timeout_s", float, "a number or null")
            )
            if timeout_s <= 0:
                raise ProtocolError(
                    f"run.timeout_s: must be > 0, got {timeout_s}"
                )
        return cls(id=request_id, scenario=scenario, stream=stream, timeout_s=timeout_s)


@dataclass(frozen=True)
class PingRequest:
    """Liveness probe; answered with :class:`PongResponse`."""

    id: str

    type = "ping"

    def to_dict(self) -> dict:
        return {"type": self.type, "id": self.id}

    @classmethod
    def from_dict(cls, data: dict) -> "PingRequest":
        _reject_unknown(data, {"type", "id"}, "ping")
        return cls(id=_require_id(data, "ping"))


@dataclass(frozen=True)
class StatsRequest:
    """Observability probe; answered with :class:`StatsResponse`."""

    id: str

    type = "stats"

    def to_dict(self) -> dict:
        return {"type": self.type, "id": self.id}

    @classmethod
    def from_dict(cls, data: dict) -> "StatsRequest":
        _reject_unknown(data, {"type", "id"}, "stats")
        return cls(id=_require_id(data, "stats"))


@dataclass(frozen=True)
class ShutdownRequest:
    """Stop the daemon.

    Attributes:
        drain: finish queued + in-flight requests first (the default);
            ``False`` abandons queued work with ``"shutting-down"`` errors.
    """

    id: str
    drain: bool = True

    type = "shutdown"

    def to_dict(self) -> dict:
        return {"type": self.type, "id": self.id, "drain": self.drain}

    @classmethod
    def from_dict(cls, data: dict) -> "ShutdownRequest":
        _reject_unknown(data, {"type", "id", "drain"}, "shutdown")
        request_id = _require_id(data, "shutdown")
        drain = _require(data.get("drain", True), "shutdown.drain", bool, "bool")
        return cls(id=request_id, drain=drain)


# -- server -> client response frames -----------------------------------------


@dataclass(frozen=True)
class ResultResponse:
    """One served request's whole ledger.

    Attributes:
        id: the request's correlation id.
        scenario: the scenario as the daemon parsed it (round-trip audit).
        outcome: the :class:`~repro.stream.StreamOutcome`, bit-identical
            to what a local :meth:`Engine.run <repro.service.Engine.run>`
            returns for the same specs.
    """

    id: str
    scenario: ScenarioSpec
    outcome: "object"  # StreamOutcome; typed loosely to keep imports light

    type = "result"

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "id": self.id,
            "scenario": self.scenario.to_dict(),
            "outcome": self.outcome.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResultResponse":
        from ..stream.ledger import StreamOutcome

        _reject_unknown(data, {"type", "id", "scenario", "outcome"}, "result")
        request_id = _require_id(data, "result")
        for fieldname in ("scenario", "outcome"):
            if fieldname not in data:
                raise ProtocolError(f"result.{fieldname}: required field is missing")
        try:
            scenario = ScenarioSpec.from_dict(data["scenario"])
        except SpecError as exc:
            raise ProtocolError(f"result.scenario: {exc}") from None
        try:
            outcome = StreamOutcome.from_dict(data["outcome"])
        except ValueError as exc:
            raise ProtocolError(f"result.outcome: {exc}") from None
        return cls(id=request_id, scenario=scenario, outcome=outcome)


@dataclass(frozen=True)
class FrameChunk:
    """One streamed per-frame ledger row."""

    id: str
    stats: FrameStats

    type = "frame"

    def to_dict(self) -> dict:
        return {"type": self.type, "id": self.id, "stats": self.stats.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "FrameChunk":
        _reject_unknown(data, {"type", "id", "stats"}, "frame")
        request_id = _require_id(data, "frame")
        if "stats" not in data:
            raise ProtocolError("frame.stats: required field is missing")
        try:
            stats = FrameStats.from_dict(data["stats"])
        except ValueError as exc:
            raise ProtocolError(f"frame.stats: {exc}") from None
        return cls(id=request_id, stats=stats)


@dataclass(frozen=True)
class StreamEnd:
    """Closes a streamed request.

    Attributes:
        id: the request's correlation id.
        system: ``StreamOutcome.system`` of the run ("hirise"/"conventional").
        n_frames: how many :class:`FrameChunk` rows the daemon sent — the
            client's reassembly check.
        wall_time_s: the run's measured wall-clock (server-side).
    """

    id: str
    system: str
    n_frames: int
    wall_time_s: float

    type = "end"

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "id": self.id,
            "system": self.system,
            "n_frames": self.n_frames,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamEnd":
        _reject_unknown(
            data, {"type", "id", "system", "n_frames", "wall_time_s"}, "end"
        )
        request_id = _require_id(data, "end")
        for fieldname in ("system", "n_frames", "wall_time_s"):
            if fieldname not in data:
                raise ProtocolError(f"end.{fieldname}: required field is missing")
        system = _require(data["system"], "end.system", str, "str")
        n_frames = _require(data["n_frames"], "end.n_frames", int, "int")
        if n_frames < 0:
            raise ProtocolError(f"end.n_frames: must be >= 0, got {n_frames}")
        wall = _require(data["wall_time_s"], "end.wall_time_s", float, "float")
        return cls(
            id=request_id, system=system, n_frames=n_frames, wall_time_s=float(wall)
        )


@dataclass(frozen=True)
class PongResponse:
    """Liveness reply; carries the server's package version."""

    id: str
    version: str

    type = "pong"

    def to_dict(self) -> dict:
        return {"type": self.type, "id": self.id, "version": self.version}

    @classmethod
    def from_dict(cls, data: dict) -> "PongResponse":
        _reject_unknown(data, {"type", "id", "version"}, "pong")
        request_id = _require_id(data, "pong")
        if "version" not in data:
            raise ProtocolError("pong.version: required field is missing")
        version = _require(data["version"], "pong.version", str, "str")
        return cls(id=request_id, version=version)


@dataclass(frozen=True)
class StatsResponse:
    """Server observability snapshot.

    Attributes:
        id: the request's correlation id.
        requests_served: run requests completed since start.
        queue_depth: requests admitted but not yet picked up by a worker.
        draining: whether the daemon has begun shutting down.
        cache: per-tier counters —
            ``{"clips"|"results": {"hits", "misses", "evictions"}}``.
        resilience: two-level counters mirroring ``cache``'s shape —
            ``{"executor": {"respawns", "redispatched_units"},
            "faults": {"<site>:<kind>": fires}}``.  Empty when no fault
            plan is active and the executor has never self-healed;
            optional on the wire so newer clients read older daemons.
    """

    id: str
    requests_served: int
    queue_depth: int
    draining: bool
    cache: dict = field(default_factory=dict)
    resilience: dict = field(default_factory=dict)

    def __hash__(self):
        return hash((self.id, self.requests_served, self.queue_depth, self.draining))

    type = "server-stats"

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "id": self.id,
            "requests_served": self.requests_served,
            "queue_depth": self.queue_depth,
            "draining": self.draining,
            "cache": {
                tier: dict(counters) for tier, counters in self.cache.items()
            },
            "resilience": {
                group: dict(counters)
                for group, counters in self.resilience.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StatsResponse":
        known = {
            "type",
            "id",
            "requests_served",
            "queue_depth",
            "draining",
            "cache",
            "resilience",
        }
        _reject_unknown(data, known, "server-stats")
        request_id = _require_id(data, "server-stats")
        for fieldname in ("requests_served", "queue_depth", "draining", "cache"):
            if fieldname not in data:
                raise ProtocolError(
                    f"server-stats.{fieldname}: required field is missing"
                )
        served = _require(
            data["requests_served"], "server-stats.requests_served", int, "int"
        )
        depth = _require(data["queue_depth"], "server-stats.queue_depth", int, "int")
        draining = _require(data["draining"], "server-stats.draining", bool, "bool")
        cache = _require(data["cache"], "server-stats.cache", dict, "dict")
        for tier, counters in cache.items():
            _require(counters, f"server-stats.cache.{tier}", dict, "dict")
            for counter, value in counters.items():
                _require(
                    value, f"server-stats.cache.{tier}.{counter}", int, "int"
                )
        # Optional: absent in frames from pre-resilience daemons.
        resilience = _require(
            data.get("resilience", {}), "server-stats.resilience", dict, "dict"
        )
        for group, counters in resilience.items():
            _require(counters, f"server-stats.resilience.{group}", dict, "dict")
            for counter, value in counters.items():
                _require(
                    value, f"server-stats.resilience.{group}.{counter}", int, "int"
                )
        return cls(
            id=request_id,
            requests_served=served,
            queue_depth=depth,
            draining=draining,
            cache={tier: dict(counters) for tier, counters in cache.items()},
            resilience={
                group: dict(counters) for group, counters in resilience.items()
            },
        )


@dataclass(frozen=True)
class OkResponse:
    """Generic acknowledgement (shutdown accepted, ...)."""

    id: str
    detail: str = ""

    type = "ok"

    def to_dict(self) -> dict:
        return {"type": self.type, "id": self.id, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "OkResponse":
        _reject_unknown(data, {"type", "id", "detail"}, "ok")
        request_id = _require_id(data, "ok")
        detail = _require(data.get("detail", ""), "ok.detail", str, "str")
        return cls(id=request_id, detail=detail)


@dataclass(frozen=True)
class ErrorResponse:
    """A typed failure; the connection remains usable.

    Attributes:
        id: the offending request's id ("" when it never parsed far
            enough to have one).
        code: one of :data:`ERROR_CODES`.
        message: human-readable detail.
    """

    id: str
    code: str
    message: str = ""

    type = "error"

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ProtocolError(
                f"error.code: unknown code {self.code!r}; "
                f"known codes: {list(ERROR_CODES)}"
            )

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "id": self.id,
            "code": self.code,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ErrorResponse":
        _reject_unknown(data, {"type", "id", "code", "message"}, "error")
        request_id = _require_id(data, "error")
        if "code" not in data:
            raise ProtocolError("error.code: required field is missing")
        code = _require(data["code"], "error.code", str, "str")
        message = _require(data.get("message", ""), "error.message", str, "str")
        return cls(id=request_id, code=code, message=message)


#: Discriminator -> frame class, the :func:`parse_frame` dispatch table.
FRAME_TYPES = {
    cls.type: cls
    for cls in (
        RunRequest,
        PingRequest,
        StatsRequest,
        ShutdownRequest,
        ResultResponse,
        FrameChunk,
        StreamEnd,
        PongResponse,
        StatsResponse,
        OkResponse,
        ErrorResponse,
    )
}


def parse_frame(data: dict):
    """Dispatch a decoded frame dict to its typed form.

    Raises:
        ProtocolError: missing/unknown ``type``, or the frame's own
            validation failed (the message names the field).
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"frame: expected a JSON object, got {data!r}")
    frame_type = data.get("type")
    if frame_type is None:
        raise ProtocolError("frame.type: required field is missing")
    if frame_type not in FRAME_TYPES:
        raise ProtocolError(
            f"frame.type: unknown frame type {frame_type!r}; "
            f"known types: {sorted(FRAME_TYPES)}"
        )
    return FRAME_TYPES[frame_type].from_dict(data)


# -- wire IO ------------------------------------------------------------------


#: The wire's compact JSON encoder.  ``json.dumps`` with these arguments
#: builds one per call; sharing it gives the same bytes (``encode`` keeps
#: no state between calls, so threads may share it too).
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_frame(frame) -> bytes:
    """One frame as its wire line: compact JSON + ``\\n``.

    Accepts a typed frame (anything with ``to_dict``) or a plain dict.
    JSON string escaping guarantees the payload itself contains no raw
    newline, so frame boundaries are unambiguous.
    """
    payload = frame.to_dict() if hasattr(frame, "to_dict") else frame
    return _ENCODER.encode(payload).encode("utf-8") + b"\n"


def read_frame(reader, max_bytes: int = MAX_FRAME_BYTES):
    """Read one frame line from a binary file-like reader.

    Returns:
        The decoded (but not yet type-dispatched) dict, or ``None`` on a
        clean EOF between frames.

    Raises:
        ProtocolError: the line was not valid UTF-8 JSON, not an object,
            or the connection died mid-frame (truncated line).  With
            ``code="oversized"``: the line exceeded ``max_bytes`` — the
            rest of the line is *drained* first, so the caller can answer
            an error frame and keep reading subsequent frames.
    """
    line = reader.readline(max_bytes + 1)
    if not line:
        return None
    if len(line) > max_bytes:
        # Too long — consume the remainder (bounded reads) to resync on
        # the next newline, then report.  The connection stays usable.
        while not line.endswith(b"\n"):
            line = reader.readline(64 * 1024)
            if not line:
                break
        raise ProtocolError(
            f"frame exceeds the {max_bytes}-byte limit", code="oversized"
        )
    if not line.endswith(b"\n"):
        raise TruncatedFrameError("connection closed mid-frame (truncated line)")
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(f"frame: expected a JSON object, got {data!r}")
    return data
