"""Serving benchmark: sustained RPS and latency through the daemon.

The serving layer's promise is that a long-lived daemon with ONE warm
:class:`~repro.service.Engine` turns repeat scenario requests into pure
cache lookups — same bits as a fresh serial run, a fraction of the cost.
This bench drives a live :class:`~repro.server.ReproServer` over its real
socket with concurrent keep-alive clients and enforces:

1. every daemon response — cold or warm, whole or streamed — is
   **bit-identical** to a fresh, cache-free serial ``Engine.run``;
2. the warm sustained phase is **pure cache hits**: the daemon's result
   tier reports exactly one hit per request and zero new misses;
3. a streamed request reassembles to the same outcome the whole-result
   mode returns — every request of the warm *streamed* phase, too;
4. (full size only) a warm streamed reply costs what its bytes cost:
   streamed p50 under :data:`STREAM_P50_BOUND_MS`.  Behind Nagle's
   algorithm a streamed reply waits ~40 ms for the client's delayed ACK,
   which is why both ends set ``TCP_NODELAY``.

What it *reports*: sustained requests-per-second and p50/p99 request
latency for the warm phase, whole and streamed side by side, cold-phase
latency for contrast, all written to ``BENCH_serving.json`` at the repo
root.  The tiny CI smoke never gates on timings.

Env knobs (CI smoke uses the first):
  ``REPRO_SERVING_TINY``      tiny workload, correctness asserts only
  ``REPRO_SERVING_CLIENTS``   concurrent load-generator connections
  ``REPRO_SERVING_REQUESTS``  total warm-phase requests
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np

from conftest import env_flag, env_int

from repro.bench import Table
from repro.server import ReproServer, ServerClient
from repro.service import Engine, EngineCache, ScenarioSpec
from repro.service.spec import coerce_service_spec

TINY = env_flag("REPRO_SERVING_TINY")
RESOLUTION = (64, 48) if TINY else (160, 120)
N_FRAMES = 3 if TINY else 12
N_SCENARIOS = 3 if TINY else 6
CLIENTS = env_int("REPRO_SERVING_CLIENTS", 2 if TINY else 4)
REQUESTS = env_int("REPRO_SERVING_REQUESTS", 12 if TINY else 120)
WORKERS = 2 if TINY else 4
#: Full-size gate on the warm streamed p50 (ms); far below the ~40 ms
#: delayed-ACK floor a streamed reply sat on without ``TCP_NODELAY``.
STREAM_P50_BOUND_MS = 20.0

SYSTEM = {"system": {"system": "hirise"}}
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def workload() -> list[ScenarioSpec]:
    """Distinct scenarios across both clip sources and two policies."""
    scenarios = []
    for index in range(N_SCENARIOS):
        source = ("pedestrian", "drone")[index % 2]
        spec = {
            "source": {"name": source, "params": {"resolution": list(RESOLUTION)}},
            "n_frames": N_FRAMES,
            "seed": 100 + index,
            "name": f"serving-{source}-{index}",
        }
        if index % 3 == 2:
            spec["policy"] = {"name": "temporal-reuse", "params": {"max_reuse": 2}}
        scenarios.append(ScenarioSpec.from_dict(spec))
    return scenarios


def drive(address, scenarios, n_requests, n_clients, streaming=False):
    """Concurrent keep-alive clients; returns (latencies_s, wall_s, results).

    Each client owns one connection and walks the workload round-robin
    from its own offset, so every scenario stays in rotation and the
    daemon sees interleaved, overlapping requests — serving conditions,
    not a lockstep sweep.  ``streaming`` sends every request in
    per-frame streaming mode instead of whole-result mode.
    """
    latencies = [[] for _ in range(n_clients)]
    results = [[] for _ in range(n_clients)]
    per_client = n_requests // n_clients
    errors = []

    def client_loop(client_index):
        try:
            with ServerClient(*address, timeout_s=120.0) as client:
                for step in range(per_client):
                    spec = scenarios[(client_index + step) % len(scenarios)]
                    start = time.perf_counter()
                    if streaming:
                        result = client.run_streaming(spec)
                    else:
                        result = client.run(spec)
                    latencies[client_index].append(time.perf_counter() - start)
                    results[client_index].append(result)
        except Exception as exc:  # noqa: BLE001 - collected and re-raised in the main thread after join
            errors.append((client_index, exc))

    threads = [
        threading.Thread(target=client_loop, args=(i,)) for i in range(n_clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    wall = time.perf_counter() - start
    assert not errors, f"client failures: {errors}"
    return [lat for per in latencies for lat in per], wall, results


def percentiles(latencies_s):
    lat_ms = np.asarray(latencies_s) * 1e3
    return float(np.percentile(lat_ms, 50)), float(np.percentile(lat_ms, 99))


def test_serving_sustained_rps(emit):
    scenarios = workload()
    reference = Engine(
        coerce_service_spec(SYSTEM).system, cache=EngineCache.disabled()
    )
    expected = {spec.label: reference.run(spec) for spec in scenarios}

    with ReproServer(
        SYSTEM, workers=WORKERS, executor="thread", queue_size=max(16, REQUESTS)
    ) as server:
        with ServerClient(*server.address) as probe:
            # -- cold phase: every distinct scenario once, serially -------
            cold_latencies = []
            for spec in scenarios:
                start = time.perf_counter()
                result = probe.run(spec)
                cold_latencies.append(time.perf_counter() - start)
                assert result.outcome.frames == expected[spec.label].outcome.frames
            cold_stats = probe.stats()

            # -- warm sustained phase: concurrent keep-alive clients ------
            latencies, wall, results = drive(
                server.address, scenarios, REQUESTS, CLIENTS
            )
            warm_stats = probe.stats()

            # -- warm streamed phase: the same load, per-frame replies ----
            s_latencies, s_wall, s_results = drive(
                server.address, scenarios, REQUESTS, CLIENTS, streaming=True
            )
            streamed_stats = probe.stats()

    n_warm = CLIENTS * (REQUESTS // CLIENTS)
    rps = n_warm / wall
    p50, p99 = percentiles(latencies)
    s_rps = n_warm / s_wall
    s_p50, s_p99 = percentiles(s_latencies)
    cold_p50, cold_p99 = percentiles(cold_latencies)
    # The cold phase runs serially on one connection, so its wall clock is
    # the sum of its latencies.
    cold_wall = sum(cold_latencies)
    cold_rps = len(scenarios) / cold_wall if cold_wall > 0 else 0.0

    table = Table(
        f"serving: {n_warm} warm requests over {CLIENTS} connection(s), "
        f"{N_SCENARIOS} scenarios x {N_FRAMES} frames at "
        f"{RESOLUTION[0]}x{RESOLUTION[1]}, {WORKERS} worker(s)",
        ["phase", "requests", "RPS", "p50 ms", "p99 ms"],
        aligns=["l", "r", "r", "r", "r"],
    )
    table.add_row(
        "cold (miss)", str(len(scenarios)), f"{cold_rps:.1f}",
        f"{cold_p50:.1f}", f"{cold_p99:.1f}"
    )
    table.add_row(
        "warm (hits)", str(n_warm), f"{rps:.0f}", f"{p50:.2f}", f"{p99:.2f}"
    )
    table.add_row(
        "warm streamed", str(n_warm), f"{s_rps:.0f}", f"{s_p50:.2f}", f"{s_p99:.2f}"
    )
    emit("\n" + table.render())

    # 1. Every warm response is bit-identical to the fresh serial run.
    checked = 0
    for per_client in results:
        for result in per_client:
            want = expected[result.scenario.label]
            assert result.scenario == want.scenario
            assert result.outcome.frames == want.outcome.frames
            checked += 1
    assert checked == n_warm
    emit(f"check 1: {checked} warm responses bit-identical to serial run()")

    # 2. The sustained phase never computed: one result-tier hit per
    # request, not a single new miss.
    cold = cold_stats.cache["results"]
    warm = warm_stats.cache["results"]
    assert cold["misses"] == len(scenarios)
    assert warm["misses"] == cold["misses"]
    assert warm["hits"] == cold["hits"] + n_warm
    streamed_tier = streamed_stats.cache["results"]
    assert streamed_tier["misses"] == cold["misses"]
    assert streamed_tier["hits"] == warm["hits"] + n_warm
    emit(
        f"check 2: warm phases are pure cache hits "
        f"(+{n_warm} whole and +{n_warm} streamed hits, +0 misses on the "
        "daemon's result tier)"
    )

    # 3. Streaming mode replays the same memoized outcome (frame rows and
    # totals; wall time legitimately differs from the reference run).
    streamed_checked = 0
    for per_client in s_results:
        for result in per_client:
            want = expected[result.scenario.label].outcome
            assert result.outcome.frames == want.frames
            assert result.outcome.system == want.system
            assert result.outcome.total_bytes == want.total_bytes
            streamed_checked += 1
    assert streamed_checked == n_warm
    emit(f"check 3: {streamed_checked} streamed replies reassemble bit-identical frames")

    # 4. A streamed warm reply is not held back by the socket.
    if not TINY:
        assert s_p50 < STREAM_P50_BOUND_MS, (
            f"warm streamed p50 {s_p50:.1f} ms >= {STREAM_P50_BOUND_MS} ms: "
            "are the sockets still batching small writes (TCP_NODELAY)?"
        )
        emit(f"check 4: warm streamed p50 {s_p50:.2f} ms < {STREAM_P50_BOUND_MS} ms")

    payload = {
        "experiment": "serving",
        "tiny": TINY,
        "config": {
            "n_scenarios": N_SCENARIOS,
            "n_frames": N_FRAMES,
            "resolution": list(RESOLUTION),
            "clients": CLIENTS,
            "warm_requests": n_warm,
            "workers": WORKERS,
        },
        "cold": {
            "requests": len(scenarios),
            "wall_s": cold_wall,
            "rps": cold_rps,
            "p50_ms": cold_p50,
            "p99_ms": cold_p99,
        },
        "warm": {
            "requests": n_warm,
            "wall_s": wall,
            "rps": rps,
            "p50_ms": p50,
            "p99_ms": p99,
            "pure_cache_hits": True,
            "bit_identical": True,
        },
        "warm_streamed": {
            "requests": n_warm,
            "wall_s": s_wall,
            "rps": s_rps,
            "p50_ms": s_p50,
            "p99_ms": s_p99,
            "p50_bound_ms": None if TINY else STREAM_P50_BOUND_MS,
            "pure_cache_hits": True,
            "bit_identical": True,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    emit(f"wrote {OUTPUT.name}")
