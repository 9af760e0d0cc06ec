"""Serving benchmark: a live ``repro serve`` daemon under closed-loop load.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload cold-classify --seed 1 --seconds 25 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 25 --trace 0

One load-generator process spawns the daemon (thread executor, one
serving worker, one BLAS thread), times its set-up, pre-warms it, then
sends requests over one keep-alive connection in a closed loop for
``--seconds`` seconds, alternating whole and streamed requests.  Every
reply is digested; replies of one scenario must agree, and a fixed
sample is re-run in process with a cache-free ``Engine`` and compared
bit-for-bit.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; every timing among them is
normalized to a reference host speed by the calibration probe in
``probe.py`` (see :func:`host_scale`).  ``--trace 1`` reports the per-layer metrics instead: it
runs half the time untraced, then switches span tracing on in the daemon
and the client for the second half (see ``tracing.py``).
"""

from __future__ import annotations

import os
import sys

# Before NumPy loads anywhere: one BLAS/OpenMP thread in this process and
# in the daemon, so the two processes never ask for more than two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import hashlib
import json
import selectors
import shutil
import signal
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "servebench"

#: Daemon spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 3
#: Longest gap between two calibration probes in the timed phase.
PROBE_INTERVAL_S = 0.5
#: Probes whose median normalizes one request: about 2.5 s of host speed.
#: Wider windows miss drift a cold request feels (they doubled its p90
#: spread across runs); a single probe is too noisy.
PROBES_NEAR = 5
#: Timed requests (from the first) whose replies give the exact
#: transfer/energy metrics, so those depend on the seed alone.
EXACT_REQUESTS = 32
READY_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "frames_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "stream_first_frame_p50_ms": "ms",
    "stream_total_p50_ms": "ms",
    "setup_s": "s",
    "daemon_peak_rss_mb": "MiB",
    "transfer_kb_per_frame": "kB",
    "energy_uj_per_frame": "uJ",
}


class BenchError(RuntimeError):
    """The benchmark could not run (no program, daemon failed to start)."""


# -- the daemon process --------------------------------------------------------


def _die_with_parent() -> None:
    """In the forked child: get SIGKILL if the load generator dies."""
    import ctypes

    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGKILL)


class Daemon:
    """One ``repro serve`` process started through ``daemon.py``."""

    def __init__(self, spec_path: Path, trace_dir: Path, log):
        env = dict(os.environ)
        env.pop("REPRO_FAULT_PLAN", None)
        self.trace_dir = trace_dir
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "daemon.py"), str(spec_path),
             "--trace-dir", str(trace_dir)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
            preexec_fn=_die_with_parent,
        )

    def wait_ready(self) -> tuple[str, int]:
        """Block until the readiness line; returns the bound address."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline().decode()
                if not line:
                    raise BenchError(f"daemon exited with {self.proc.wait()}")
                if line.startswith("serving "):
                    host, port = line.split()[1].rsplit(":", 1)
                    return host, int(port)
        raise BenchError("daemon did not become ready")

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """CPU time the daemon's live threads have run, in seconds."""
        total = 0
        for task in os.scandir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"{task.path}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:
                pass  # the thread ended between listing and reading
        return total / 1e9

    def start_tracing(self) -> None:
        """Switch span tracing on; returns once the wrappers are in."""
        marker = self.trace_dir / "traced"
        marker.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not marker.exists():
            if time.monotonic() > deadline:
                raise BenchError("daemon did not switch tracing on")
            time.sleep(0.005)

    def stop(self, client) -> None:
        """Drain-shutdown over the wire; kill if it does not exit."""
        try:
            client.shutdown(drain=True)
        except (OSError, RuntimeError, ValueError):
            pass
        client.close()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- the timed loop --------------------------------------------------------------


@dataclasses.dataclass
class Sample:
    """One answered request: its timings and a summary of its reply."""

    index: int
    streamed: bool
    request_id: str
    sent: float
    latency_s: float
    first_frame_s: float | None
    cpu_s: float
    first_frame_cpu_s: float | None
    digest: str
    frames: int
    stage1_frames: int
    reused_frames: int
    conversions: int
    total_bytes: int
    energy_j: float

    @classmethod
    def of(cls, reply, **timing) -> "Sample":
        outcome = reply.outcome
        return cls(
            digest=digest(outcome),
            frames=outcome.n_frames,
            stage1_frames=outcome.stage1_frames,
            reused_frames=outcome.reused_frames,
            conversions=outcome.total_conversions,
            total_bytes=outcome.total_bytes,
            energy_j=outcome.total_energy_j,
            **timing,
        )


def digest(outcome) -> str:
    """Bit-exact fingerprint of a reply's ledger (float reprs are exact)."""
    return hashlib.sha256(repr((outcome.system, outcome.frames)).encode()).hexdigest()


class LoadGenerator:
    """One connection, one request at a time, probe between requests."""

    def __init__(self, client, probe, specs, cpu_clock):
        self.client = client
        self.probe = probe
        self.cpu_clock = cpu_clock
        self.specs = specs
        self.next_index = 0
        self.failures: dict[int, str] = {}
        self.request_id = lambda: ""

    def run(self, seconds: float) -> list[Sample]:
        from repro.server import ServerError
        from repro.server.protocol import ProtocolError

        samples: list[Sample] = []
        probe = self.probe
        probe.run()
        last_probe = time.perf_counter()
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                index = self.next_index
                self.next_index += 1
                spec = self.specs(index)
                streamed = index % 2 == 1
                first: list[tuple[float, float]] = []
                cpu_before = self.cpu_clock()
                sent = time.perf_counter()
                try:
                    if streamed:
                        reply = self.client.run_streaming(
                            spec,
                            on_stats=lambda _row: first or first.append(
                                (time.perf_counter(), self.cpu_clock())
                            ),
                        )
                    else:
                        reply = self.client.run(spec)
                    done = time.perf_counter()
                except (ServerError, ProtocolError, OSError) as exc:
                    self.failures[index] = repr(exc)
                    self.client.close()
                else:
                    samples.append(Sample.of(
                        reply,
                        index=index,
                        streamed=streamed,
                        request_id=self.request_id(),
                        sent=sent,
                        latency_s=done - sent,
                        first_frame_s=(first[0][0] - sent) if first else None,
                        cpu_s=self.cpu_clock() - cpu_before,
                        first_frame_cpu_s=(
                            (first[0][1] - cpu_before) if first else None
                        ),
                    ))
                if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
                    probe.run()
                    last_probe = time.perf_counter()
            probe.run()
        finally:
            gc.enable()
            gc.unfreeze()
        return samples


def cache_counts(client) -> dict:
    cache = client.stats().cache
    return {
        "clip_hits": cache["clips"]["hits"],
        "clip_misses": cache["clips"]["misses"],
        "result_hits": cache["results"]["hits"],
        "result_misses": cache["results"]["misses"],
    }


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


# -- metrics ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-th percentile.

    A Beta-weighted mean of all order statistics: with the few dozen
    samples a cold-classify run yields, it varies less from run to run
    than a single interpolated order statistic does.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    p = q / 100.0
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def host_scale(wall_s: float, cpu_s: float, factor: float) -> float:
    """Maps a raw time to the reference host speed.

    Host speed scales the time spent computing, not the time spent
    waiting (a streamed reply, for one, waits on TCP's delayed
    acknowledgements).  So only the CPU share -- daemon plus
    load-generator CPU time over wall time, at most 1 -- is scaled by
    the probe ``factor``; for compute-bound work this is exactly
    ``raw * REFERENCE_PROBE_MS / median(nearest probes)``.
    """
    share = min(1.0, cpu_s / wall_s)
    return 1.0 - share + share * factor


def normalized_e2e(samples: list[Sample], probe) -> dict:
    """Timing metrics at the reference host speed (see ``probe.py``).

    ``frames_per_s`` divides by the time a request was in flight, which
    leaves out the probes and the benchmark's own bookkeeping between
    requests.
    """
    def normalized_s(s: Sample) -> float:
        factor = probe.factor_near(s.sent + s.latency_s / 2, k=PROBES_NEAR)
        return s.latency_s * host_scale(s.latency_s, s.cpu_s, factor)

    def first_frame_ms(s: Sample) -> float:
        factor = probe.factor_near(s.sent + s.first_frame_s / 2, k=PROBES_NEAR)
        scale = host_scale(s.first_frame_s, s.first_frame_cpu_s, factor)
        return s.first_frame_s * 1e3 * scale

    whole_ms = [normalized_s(s) * 1e3 for s in samples if not s.streamed]
    streamed = [s for s in samples if s.streamed]
    return {
        "frames_per_s": sum(s.frames for s in samples)
        / sum(normalized_s(s) for s in samples),
        "latency_p50_ms": percentile(whole_ms, 50),
        "latency_p90_ms": percentile(whole_ms, 90),
        "stream_total_p50_ms": percentile(
            [normalized_s(s) * 1e3 for s in streamed], 50
        ),
        "stream_first_frame_p50_ms": percentile(
            [first_frame_ms(s) for s in streamed], 50
        ),
    }


def raw_e2e(samples: list[Sample]) -> tuple[float, float]:
    """Un-normalized ``(frames_per_s, whole-reply p50 ms)``."""
    fps = sum(s.frames for s in samples) / sum(s.latency_s for s in samples)
    p50 = percentile([s.latency_s * 1e3 for s in samples if not s.streamed], 50)
    return fps, p50


def exact_costs(samples: list[Sample]) -> dict:
    """Modelled link bytes and sensor energy per frame (paper Figs. 7-8)."""
    first = sorted(samples, key=lambda s: s.index)[:EXACT_REQUESTS]
    frames = sum(s.frames for s in first)
    return {
        "transfer_kb_per_frame": sum(s.total_bytes for s in first) / frames / 1024.0,
        "energy_uj_per_frame": sum(s.energy_j for s in first) / frames * 1e6,
    }


def per_layer(samples, daemon_spans, client_spans, stats_delta) -> dict:
    """Per-layer metrics of the traced phase (see ``tracing.py``).

    A ``*_ms`` time is self time per request (``executor.dispatch_ms`` and
    ``cache.lookup_ms`` per whole request), a ``*_ms_per_frame`` time is
    self time per frame the runner computed (``runner.ms_per_frame`` is
    the runner's whole span), ``cache.*`` counts are daemon deltas over the
    phase.  A layer that did no work on a workload reports 0.
    """
    from tracing import LAYERS, self_times

    by_request: dict[str, list[tuple[str, float, float, int]]] = {}
    intervals: dict[str, list[tuple[float, float]]] = {}
    for spans in (daemon_spans, client_spans):
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _parent, request, n = span
            by_request.setdefault(request, []).append((name, end - start, own, n))
            intervals.setdefault(request, []).append((start, end))

    ids = {s.request_id for s in samples}
    rows = [row for rid in ids for row in by_request.get(rid, [])]

    def total(name: str, field: int) -> float:
        return sum(row[field] for row in rows if row[0] == name)

    def own_ms(name: str) -> float:
        return total(name, 2) * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    n_requests = len(samples)
    n_whole = sum(1 for s in samples if not s.streamed)
    computed = total("runner.run", 3)  # frames that went through the runner
    crops = total("classify.crops", 3)
    frames = sum(s.frames for s in samples)
    computed_ids = {
        rid for rid in ids
        if any(row[0] == "runner.run" for row in by_request.get(rid, []))
    }
    stage1_used = sum(s.stage1_frames for s in samples if s.request_id in computed_ids)
    pooled = total("sensor.stage1_read", 3)

    overheads = []
    for s in samples:
        top = "engine.run_streaming" if s.streamed else "engine.run"
        inside = sum(row[1] for row in by_request.get(s.request_id, []) if row[0] == top)
        overheads.append(s.latency_s - inside)
    # Client and daemon spans overlap while a stream is in flight, so
    # the time spans account for is the union of their intervals (both
    # processes read the same system-wide monotonic clock).
    accounted = sum(
        covered(intervals.get(s.request_id, []), s.sent, s.sent + s.latency_s)
        for s in samples
    )
    latency = sum(s.latency_s for s in samples)

    metrics = {
        "server.overhead_ms": ratio(sum(overheads) * 1e3, n_requests),
        "protocol.encode_ms": ratio(own_ms("protocol.encode_frame"), n_requests),
        "protocol.client_parse_ms": ratio(own_ms("client.parse_frame"), n_requests),
        "protocol.reply_bytes": ratio(total("protocol.encode_frame", 3), n_requests),
        "protocol.reply_lines": ratio(
            sum(1 for row in rows if row[0] == "protocol.encode_frame" and row[3]),
            n_requests,
        ),
        "executor.dispatch_ms": ratio(own_ms("executor.execute"), n_whole),
        "cache.lookup_ms": ratio(own_ms("engine.run"), n_whole),
        "cache.result_hits": stats_delta["result_hits"],
        "cache.result_misses": stats_delta["result_misses"],
        "cache.clip_hits": stats_delta["clip_hits"],
        "cache.clip_misses": stats_delta["clip_misses"],
        "render.ms_per_frame": ratio(own_ms("render.clip"), total("render.clip", 3)),
        "render.clips": sum(1 for row in rows if row[0] == "render.clip"),
        "runner.ms_per_frame": ratio(total("runner.run", 1) * 1e3, computed),
        "runner.reused_share": ratio(sum(s.reused_frames for s in samples), frames),
        "sensor.expose_ms_per_frame": ratio(own_ms("sensor.expose"), computed),
        "sensor.stage1_read_ms_per_frame": ratio(
            own_ms("sensor.stage1_read"), computed
        ),
        "sensor.stage1_pooled_frames": ratio(pooled, n_requests),
        "sensor.stage1_useful_ratio": ratio(stage1_used, pooled),
        "sensor.stage2_read_ms_per_frame": ratio(
            own_ms("sensor.stage2_read"), computed
        ),
        "sensor.adc_conversions_per_frame": ratio(
            sum(s.conversions for s in samples), frames
        ),
        "pipeline.detect_ms_per_frame": ratio(own_ms("pipeline.detect"), computed),
        "pipeline.condition_ms_per_frame": ratio(
            own_ms("pipeline.condition_rois"), computed
        ),
        "classify.crops_per_frame": ratio(crops, computed),
        "classify.ms_per_crop": ratio(total("classify.crops", 1) * 1e3, crops),
        "classify.resize_ms": ratio(own_ms("classify.resize"), n_requests),
    }
    for layer in LAYERS:
        metrics[f"classify.{layer}_ms"] = ratio(own_ms(f"classify.{layer}"), n_requests)
    metrics["trace.unaccounted_pct"] = 100.0 * (1.0 - ratio(accounted, latency))
    return metrics


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


PER_LAYER_UNITS = {
    "server.overhead_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.client_parse_ms": "ms",
    "protocol.reply_bytes": "bytes",
    "protocol.reply_lines": "count",
    "executor.dispatch_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.result_hits": "count",
    "cache.result_misses": "count",
    "cache.clip_hits": "count",
    "cache.clip_misses": "count",
    "render.ms_per_frame": "ms",
    "render.clips": "count",
    "runner.ms_per_frame": "ms",
    "runner.reused_share": "ratio",
    "sensor.expose_ms_per_frame": "ms",
    "sensor.stage1_read_ms_per_frame": "ms",
    "sensor.stage1_pooled_frames": "count",
    "sensor.stage1_useful_ratio": "ratio",
    "sensor.stage2_read_ms_per_frame": "ms",
    "sensor.adc_conversions_per_frame": "count",
    "pipeline.detect_ms_per_frame": "ms",
    "pipeline.condition_ms_per_frame": "ms",
    "classify.crops_per_frame": "count",
    "classify.ms_per_crop": "ms",
    "classify.resize_ms": "ms",
    **{f"classify.{layer}_ms": "ms" for layer in (
        "Conv2D", "BatchNorm", "ReLU", "MaxPool2D", "GlobalAvgPool", "Dense",
    )},
    "host.probe_ms": "ms",
    "host.raw_frames_per_s": "1/s",
    "host.raw_latency_p50_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unaccounted_pct": "%",
}


# -- correctness -----------------------------------------------------------------------


def check_replies(workload, samples, prewarm) -> dict[str, str]:
    """Replies of one scenario agree; the oracle sample matches a fresh run.

    Returns ``{what: problem}``; ``what`` is ``"request <i>"`` for a timed
    request whose reply failed, ``"pre-warm <i>"`` for a set-up reply.
    """
    from repro.service import Engine, EngineCache, ScenarioSpec
    from repro.service.spec import coerce_service_spec

    problems: dict[str, str] = {}
    first_seen: dict[str, tuple[str, str]] = {}
    replies = [(f"pre-warm {i}", spec, value) for i, (spec, value) in enumerate(prewarm)]
    replies += [(f"request {s.index}", workload.request(s.index), s.digest) for s in samples]
    for what, spec, value in replies:
        key = json.dumps(spec, sort_keys=True)
        seen = first_seen.setdefault(key, (what, value))
        if seen[1] != value:
            problems[what] = f"reply differs from {seen[0]} of the same scenario"

    engine = Engine(
        coerce_service_spec(workload.service).system, cache=EngineCache.disabled()
    )
    by_index = {s.index: s for s in samples}
    expected: dict[str, str] = {}
    for index in workload.oracle:
        sample = by_index.get(index)
        if sample is None:
            problems[f"oracle {index}"] = "request was not answered"
            continue
        spec = workload.request(index)
        key = json.dumps(spec, sort_keys=True)
        if key not in expected:
            fresh = engine.run(ScenarioSpec.from_dict(spec))
            expected[key] = digest(fresh.outcome)
        if expected[key] != sample.digest:
            problems[f"request {index}"] = "reply differs from a fresh in-process run"
    return problems


# -- one workload -------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from probe import HostProbe
    from repro.server import ServerClient
    from repro.service import ScenarioSpec
    from tracing import Tracer, install_client, load_spans
    import workloads

    workload = workloads.build(name, seed)
    run_dir = WORKDIR / f"{name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spec_path = run_dir / "service.json"
    spec_path.write_text(json.dumps(workload.service))
    specs_cache: dict[int, ScenarioSpec] = {}

    def spec_of(index: int) -> ScenarioSpec:
        if index not in specs_cache:
            specs_cache[index] = ScenarioSpec.from_dict(workload.request(index))
        return specs_cache[index]

    probe = HostProbe()
    for _ in range(3):
        probe.run()  # first calls pay allocation and BLAS start-up
    probe.samples.clear()

    # -- set-up: spawn the daemon several times, keep the last -------------------
    setups = []
    daemon = client = None
    with open(run_dir / "daemon.log", "wb") as log:
        try:
            probe.run()
            for attempt in range(SETUP_SPAWNS):
                start = time.perf_counter()
                daemon = Daemon(spec_path, run_dir, log)
                host, port = daemon.wait_ready()
                client = ServerClient(host, port, timeout_s=120.0)
                client.ping()
                elapsed = time.perf_counter() - start
                setups.append((elapsed, daemon.cpu_s()))
                probe.run()
                probe.run()
                if attempt < SETUP_SPAWNS - 1:
                    # Never served a request: kill, so no teardown runs
                    # alongside the next spawn's timing.
                    client.close()
                    daemon.kill()
            # Set-up takes a few seconds, so all of its probes rate it.
            setup_factor = probe.factor_near(start, k=len(probe.samples))
            # Pre-warm: untimed, counted in no metric.
            prewarm = [
                (spec, digest(client.run(ScenarioSpec.from_dict(spec)).outcome))
                for spec in workload.prewarm
            ]
            generator = LoadGenerator(
                client, probe, spec_of,
                cpu_clock=lambda: daemon.cpu_s() + time.thread_time(),
            )
            phases = []
            halves = [seconds / 2, seconds / 2] if trace else [seconds]
            client_tracer = None
            for half, duration in enumerate(halves):
                if trace and half == 1:
                    daemon.start_tracing()
                    client_tracer = Tracer()
                    install_client(client_tracer)
                    generator.request_id = lambda: client_tracer.request
                before = cache_counts(client)
                samples = generator.run(duration)
                after = cache_counts(client)
                phases.append((samples, delta(after, before)))
            peak_rss = daemon.peak_rss_mb()
            daemon.stop(client)
        finally:
            if daemon is not None:
                daemon.kill()

    # -- correctness: shape guards, agreement, oracle --------------------------------------
    problems = {f"request {i}": error for i, error in generator.failures.items()}
    for phase, (samples, stats) in enumerate(phases):
        reused = sum(s.reused_frames for s in samples)
        for number, problem in enumerate(workload.guard(stats, len(samples), reused)):
            problems[f"shape guard {phase}.{number}"] = problem
    all_samples = [s for samples, _ in phases for s in samples]
    problems.update(check_replies(workload, all_samples, prewarm))
    attempted = generator.next_index
    failed = sum(1 for what in problems if what.startswith("request "))

    if trace:
        untraced, traced = phases[0][0], phases[1][0]
        raw_fps, raw_p50 = raw_e2e(untraced)
        # Both halves at the reference host speed, so host drift between
        # them does not read as tracing cost.
        untraced_fps = normalized_e2e(untraced, probe)["frames_per_s"]
        traced_fps = normalized_e2e(traced, probe)["frames_per_s"]
        metrics = per_layer(
            traced,
            load_spans(run_dir / "daemon_spans.json"),
            client_tracer.spans,
            phases[1][1],
        )
        metrics["host.probe_ms"] = probe.median_ms()
        metrics["host.raw_frames_per_s"] = raw_fps
        metrics["host.raw_latency_p50_ms"] = raw_p50
        metrics["trace.overhead_pct"] = 100.0 * (untraced_fps / traced_fps - 1.0)
        units = PER_LAYER_UNITS
    else:
        samples = phases[0][0]
        metrics = normalized_e2e(samples, probe)
        metrics["setup_s"] = statistics.median(
            wall * host_scale(wall, cpu, setup_factor) for wall, cpu in setups
        )
        metrics["daemon_peak_rss_mb"] = peak_rss
        metrics.update(exact_costs(samples))
        units = END_TO_END_UNITS
    if not problems:
        shutil.rmtree(run_dir)  # kept on failure, with the daemon's log
    whole = sum(1 for s in all_samples if not s.streamed)
    print(
        f"[{name}] seed {seed}: {attempted} request(s), {whole} whole / "
        f"{len(all_samples) - whole} streamed, {failed} failed; "
        f"{len(probe.samples)} probes, median {probe.median_ms():.3f} ms"
    )
    for what, problem in problems.items():
        print(f"[{name}] FAILED CHECK {what}: {problem}")
    for key in units:
        print(f"[{name}] {key:34s} {metrics[key]:14.4f} {units[key]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["cold-classify", "window-reuse", "warm-replay", "all"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    names = (
        ["cold-classify", "window-reuse", "warm-replay"]
        if args.workload == "all" else [args.workload]
    )
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
