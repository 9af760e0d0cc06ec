"""The daemon's write path: unbuffered sockets and one encode per reply.

Per-frame streaming sends each ledger row the moment the runner records
it.  With Nagle's algorithm on, those small writes wait for the peer's
delayed ACK, so both ends of a connection must set ``TCP_NODELAY``.
"""

import json
import socket

import pytest

from repro.server import ReproServer, ServerClient, ServerError
from repro.server import daemon as daemon_module
from repro.server.protocol import (
    ResultResponse,
    StreamEnd,
    encode_frame,
    parse_frame,
    read_frame,
)
from repro.service import Engine, EngineCache, ScenarioSpec

SYSTEM = {"system": {"system": "hirise"}}


def tiny_scenario(seed=0, n_frames=3):
    return ScenarioSpec.from_dict(
        {
            "source": {"name": "pedestrian", "params": {"resolution": [48, 36]}},
            "n_frames": n_frames,
            "seed": seed,
            "name": f"socket-{seed}",
        }
    )


def nodelay(sock: socket.socket) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_both_ends_set_tcp_nodelay():
    with ReproServer(SYSTEM, workers=1, executor="serial") as server:
        with ServerClient(*server.address) as client:
            client.ping()  # the daemon has accepted and registered the socket
            assert nodelay(client._sock)
            (connection,) = server._connections
            assert nodelay(connection.sock)


def test_whole_reply_is_encoded_once(monkeypatch):
    calls = []
    real = daemon_module.encode_frame

    def counting(frame):
        calls.append(type(frame).__name__)
        return real(frame)

    monkeypatch.setattr(daemon_module, "encode_frame", counting)
    with ReproServer(SYSTEM, workers=1, executor="serial") as server:
        with ServerClient(*server.address) as client:
            client.run(tiny_scenario(seed=2))
    assert calls.count("ResultResponse") == 1


def test_whole_reply_bytes_equal_a_local_encoding():
    scenario = tiny_scenario(seed=6)
    with ReproServer(SYSTEM, workers=1, executor="serial") as server:
        sock = socket.create_connection(server.address, timeout=10)
        reader = sock.makefile("rb")
        try:
            request = {"type": "run", "id": "w1", "scenario": scenario.to_dict()}
            sock.sendall(encode_frame(request))
            line = reader.readline()
        finally:
            reader.close()
            sock.close()
    reply = parse_frame(json.loads(line))
    local = Engine(cache=EngineCache.disabled()).run(scenario).outcome
    local.wall_time_s = reply.outcome.wall_time_s
    expected = ResultResponse(id="w1", scenario=scenario, outcome=local)
    assert line == encode_frame(expected)


@pytest.mark.parametrize("stream", [False, True])
def test_oversized_whole_reply_is_still_a_typed_error(stream):
    # The size check reads the same bytes the write would send: a whole
    # reply over the limit is refused with "oversized", while the streamed
    # rows of the same run each fit and go through.
    scenario = tiny_scenario(seed=5, n_frames=8)
    with ReproServer(
        SYSTEM, workers=1, executor="serial", max_frame_bytes=700
    ) as server:
        with ServerClient(*server.address, max_frame_bytes=8 * 1024 * 1024) as client:
            if stream:
                assert client.run_streaming(scenario).outcome.n_frames == 8
            else:
                with pytest.raises(ServerError) as exc:
                    client.run(scenario)
                assert exc.value.code == "oversized"
                assert "limit 700" in str(exc.value)
            # The connection stays usable after the refusal.
            assert client.ping()


def test_end_frame_dropped_for_an_abandoned_request():
    with ReproServer(SYSTEM, workers=1, executor="serial") as server:
        with ServerClient(*server.address) as client:
            client.ping()
            (connection,) = server._connections
            connection.abandon("gone")
            for request_id, sent in (("gone", False), ("live", True)):
                end = StreamEnd(
                    id=request_id, system="hirise", n_frames=0, wall_time_s=0.0
                )
                assert connection.send_stream_frame(request_id, end) is sent
            frame = parse_frame(read_frame(client._reader))
            assert frame.id == "live"


def test_daemon_names_the_bad_row_of_a_result_frame():
    # A client that sends a server-to-client frame with a broken ledger row
    # gets a typed error whose message points at the row.
    scenario = tiny_scenario(seed=1)
    outcome = Engine(cache=EngineCache.disabled()).run(scenario).outcome
    data = json.loads(
        encode_frame(ResultResponse(id="bad", scenario=scenario, outcome=outcome))
    )
    data["outcome"]["frames"][1]["reason"] = 3
    with ReproServer(SYSTEM, workers=1, executor="serial") as server:
        sock = socket.create_connection(server.address, timeout=10)
        reader = sock.makefile("rb")
        try:
            sock.sendall(encode_frame(data))
            error = parse_frame(read_frame(reader))
        finally:
            reader.close()
            sock.close()
    assert error.type == "error" and error.code == "bad-frame"
    assert error.message == (
        "result.outcome: stream_outcome.frames[1]: "
        "frame_stats.reason: expected str, got 3"
    )
