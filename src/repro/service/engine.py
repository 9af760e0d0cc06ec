"""The Engine: one config-driven front door for every scenario.

:class:`Engine` replaces hand-wiring pipelines, runners, sources, and
policies in Python: it holds one :class:`~repro.service.SystemSpec` and
serves any number of :class:`~repro.service.ScenarioSpec` requests against
it — one at a time (:meth:`Engine.run`) or as a batch
(:meth:`Engine.run_batch`) driven by a pluggable
:class:`~repro.service.Executor` (serial, thread pool, or spawn-safe
process pool).

Determinism is the contract that makes all of it safe: every request
builds its *own* source, detector, pipeline, and policy from the
registries, all seeded by the spec, so ``run_batch`` under any executor is
bit-identical to a sequential loop of ``run`` — asserted in tests and in
the ``service`` benchmark.  On top of that contract sits the
content-addressed :class:`~repro.service.EngineCache`: requests whose
``(source, n_frames, seed)`` coincide share one rendered clip, and a
request whose entire ``(system, scenario)`` spec was served before is
answered from the result tier without re-running anything.  Cached results
are shared objects — treat them (like all results) as read-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..core.pipeline import ConventionalPipeline, HiRISEPipeline
from ..core.profiling import PhaseProfile, PhaseProfiler
from ..faults.runtime import as_injector, default_injector
from ..stream.ledger import StreamOutcome
from ..stream.runner import StreamRunner
from . import components as _components  # noqa: F401  (populates registries)
from .cache import (
    CacheStats,
    EngineCache,
    clip_key,
    result_key,
    spec_fingerprint,
)
from .executor import EXECUTOR_NAMES, Executor, make_executor
from .registry import CLASSIFIERS, DETECTORS, POLICIES, SOURCES, registry_epoch
from .spec import (
    ScenarioSpec,
    SpecError,
    SystemSpec,
    coerce_service_spec,
    load_spec,
)


@dataclass(frozen=True)
class RunResult:
    """One served request: the scenario that asked and the ledger it got.

    Attributes:
        scenario: the request.
        outcome: its stream ledger.
        profile: per-phase wall-clock breakdown, present only when the
            engine ran with ``profile=True`` (profiled requests always
            recompute — a memoized result has no phases to measure).
    """

    scenario: ScenarioSpec
    outcome: StreamOutcome
    profile: PhaseProfile | None = None

    @property
    def label(self) -> str:
        return self.scenario.label

    def report(self) -> str:
        text = f"--- {self.label} ---\n{self.outcome.report()}"
        if self.profile is not None:
            text += f"\n  phase breakdown:\n{self.profile.report()}"
        return text


@dataclass
class BatchResult:
    """A batch of results plus cross-request aggregates.

    The per-request :class:`~repro.stream.StreamOutcome` ledgers stay
    intact (order matches the submitted requests); the properties roll
    them up into whole-batch quantities.

    Attributes:
        results: per-request results, in request order.
        workers: worker count the executor ran with.
        executor: name of the executor that served the batch.
        wall_time_s: measured wall-clock time of the whole batch.
        cache: the engine cache's hit/miss/eviction *delta* over this
            batch (clip and result tiers), including work done inside
            process-executor workers.  Counted per batch — concurrent
            batches sharing one cache (e.g. daemon connections) each
            report only their own traffic.
        profile: the merged per-phase breakdown of every profiled result
            (``None`` unless the engine ran with ``profile=True``).
    """

    results: list[RunResult] = field(default_factory=list)
    workers: int = 1
    executor: str = "serial"
    wall_time_s: float = 0.0
    cache: CacheStats | None = None
    profile: PhaseProfile | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def outcomes(self) -> list[StreamOutcome]:
        return [r.outcome for r in self.results]

    @property
    def total_frames(self) -> int:
        return sum(o.n_frames for o in self.outcomes)

    @property
    def total_bytes(self) -> int:
        return sum(o.total_bytes for o in self.outcomes)

    @property
    def total_energy_j(self) -> float:
        return sum(o.total_energy_j for o in self.outcomes)

    @property
    def total_conversions(self) -> int:
        return sum(o.total_conversions for o in self.outcomes)

    @property
    def stage1_frames(self) -> int:
        return sum(o.stage1_frames for o in self.outcomes)

    @property
    def reused_frames(self) -> int:
        return sum(o.reused_frames for o in self.outcomes)

    @property
    def peak_image_memory_bytes(self) -> int:
        return max((o.peak_image_memory_bytes for o in self.outcomes), default=0)

    @property
    def frames_per_second(self) -> float:
        """Aggregate served throughput (0 when untimed)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.total_frames / self.wall_time_s

    def report(self) -> str:
        """Human-readable whole-batch rollup."""
        lines = [
            f"[batch] {len(self.results)} scenario(s), "
            f"{self.executor} executor x {self.workers} worker(s): "
            f"{self.total_frames} frames "
            f"({self.stage1_frames} stage-1, {self.reused_frames} reused)",
            f"  transfer: {self.total_bytes / 1024:.1f} kB",
            f"  energy: {self.total_energy_j * 1e3:.4f} mJ",
            f"  ADC conversions: {self.total_conversions:,}",
            f"  peak image memory: {self.peak_image_memory_bytes / 1024:.1f} kB",
        ]
        if self.cache is not None:
            lines.append(f"  cache: {self.cache.describe()}")
        if self.profile is not None:
            lines.append("  phase breakdown (all requests):")
            lines.append(self.profile.report())
        if self.wall_time_s > 0:
            lines.append(
                f"  throughput: {self.frames_per_second:.1f} frames/s "
                f"({self.wall_time_s * 1e3:.0f} ms wall)"
            )
        return "\n".join(lines)


class Engine:
    """Stateless façade serving scenario requests against one system spec.

    "Stateless" means no request *changes* what another observes: all
    per-request state (pipelines, trackers, detector frame counters) is
    constructed fresh inside :meth:`run`, so one engine can serve
    concurrent requests and repeated requests always return identical
    results.  The engine's only cross-request state is its
    :class:`~repro.service.EngineCache` — a pure memo over that
    determinism, observable only through wall-clock time and the cache
    stats on :class:`BatchResult`.

    Attributes:
        spec: the system served.
        scenarios: default workload (from the spec file's ``scenarios``
            list); used when :meth:`run_batch` gets no requests.
        workers: default worker count for :meth:`run_batch`.
        executor: default executor name for :meth:`run_batch`
            (one of ``EXECUTOR_NAMES``).
        cache: the clip/result cache (pass
            :meth:`EngineCache.disabled() <repro.service.EngineCache.disabled>`
            for measurement runs that must recompute everything).
        store: optional :class:`~repro.store.ArtifactStore` backing the
            cache's persistent third tier — shorthand for constructing
            ``EngineCache(store=...)`` yourself (ignored when an explicit
            ``cache`` is passed, which keeps its own store setting).
        profile: when true, every served request carries a
            :class:`~repro.core.PhaseProfile` on ``RunResult.profile``
            (and the merged breakdown on ``BatchResult.profile``).
            Profiled requests bypass the result-memo tier — profiling
            measures real work, and a cache hit has no phases.
        faults: optional fault injection — a
            :class:`~repro.faults.FaultPlan` (or injector/dict/JSON
            path); defaults to the ambient ``REPRO_FAULT_PLAN`` plan
            when unset.  The engine itself has no injection sites; it
            carries the injector so the process executor can ship the
            plan to its workers (``worker.run`` faults fire there).
    """

    def __init__(
        self,
        spec: SystemSpec | None = None,
        scenarios: Iterable[ScenarioSpec] = (),
        workers: int = 1,
        executor: str = "thread",
        cache: EngineCache | None = None,
        profile: bool = False,
        store=None,
        faults=None,
    ):
        self.spec = spec if spec is not None else SystemSpec()
        self.scenarios = tuple(scenarios)
        self.workers = workers
        if executor not in EXECUTOR_NAMES:
            raise SpecError(
                f"service.executor: unknown executor {executor!r}; "
                f"known executors: {list(EXECUTOR_NAMES)}"
            )
        self.executor = executor
        self.cache = cache if cache is not None else EngineCache(store=store)
        self.profile = profile
        self.faults = (
            as_injector(faults) if faults is not None else default_injector()
        )
        # The system never changes over the engine's lifetime: hash it once
        # so per-request keys only hash the scenario.
        self._system_key = spec_fingerprint(self.spec.to_dict())
        # Fail at construction, not mid-batch: both model slots must exist.
        self.spec.detector.resolve(DETECTORS, "system.detector")
        self.spec.classifier.resolve(CLASSIFIERS, "system.classifier")

    @classmethod
    def from_spec(cls, spec, faults=None) -> "Engine":
        """Build an engine from a spec in any serialized form.

        Args:
            spec: a JSON file path (``str`` or :class:`~pathlib.Path`), a
                dict (full service layout or a bare system spec), a
                :class:`SystemSpec`, or a :class:`ServiceSpec`.
            faults: optional fault plan/injector (see :meth:`__init__`).
        """
        if isinstance(spec, (str, Path)):
            service = load_spec(spec)
        else:
            service = coerce_service_spec(spec)
        return cls(
            service.system,
            service.scenarios,
            service.workers,
            service.executor,
            faults=faults,
        )

    # -- request construction ----------------------------------------------------

    @staticmethod
    def _as_scenario(request) -> ScenarioSpec:
        if isinstance(request, ScenarioSpec):
            return request
        if isinstance(request, dict):
            return ScenarioSpec.from_dict(request)
        raise SpecError(
            f"request: expected a ScenarioSpec or dict, got {request!r}"
        )

    def _build_clip(self, scenario: ScenarioSpec):
        factory = scenario.source.resolve(SOURCES, "scenario.source")
        try:
            return factory(
                scenario.n_frames, scenario.seed, **dict(scenario.source.params)
            )
        except SpecError:
            raise  # already names its scenario.source.params field
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"scenario.source {scenario.source.name!r}: {exc}"
            ) from exc

    def _build_runner(self, scenario: ScenarioSpec, clip):
        """Fresh pipeline + runner + callbacks for one request."""
        spec = self.spec
        detector_factory = spec.detector.resolve(DETECTORS, "system.detector")
        try:
            detector, on_frame = detector_factory(clip, **dict(spec.detector.params))
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"system.detector {spec.detector.name!r}: {exc}"
            ) from exc
        classifier_factory = spec.classifier.resolve(CLASSIFIERS, "system.classifier")
        try:
            classifier = classifier_factory(**dict(spec.classifier.params))
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"system.classifier {spec.classifier.name!r}: {exc}"
            ) from exc
        # The spec's compute dtype is a *system* property: thread it into
        # any classifier that understands dtype casting (float64 is the
        # default, so plain callables are always float64-exact).
        if classifier is not None and hasattr(classifier, "set_compute_dtype"):
            classifier.set_compute_dtype(spec.compute_dtype)

        if spec.system == "conventional":
            pipeline = ConventionalPipeline(
                detector=detector,
                classifier=classifier,
                adc_bits=spec.config.adc_bits,
                noise=spec.noise,
            )
        else:
            pipeline = HiRISEPipeline(
                detector=detector,
                classifier=classifier,
                config=spec.config,
                noise=spec.noise,
            )

        policy_factory = scenario.policy.resolve(POLICIES, "scenario.policy")
        try:
            policy = policy_factory(**dict(scenario.policy.params))
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"scenario.policy {scenario.policy.name!r}: {exc}"
            ) from exc

        try:
            runner = StreamRunner(
                pipeline,
                reuse=policy,
                batch_size=scenario.batch_size,
                keep_outcomes=scenario.keep_outcomes,
                window=scenario.window,
                label=scenario.label,
            )
        except ValueError as exc:
            raise SpecError(f"scenario {scenario.label!r}: {exc}") from exc
        return runner, on_frame

    # -- serving -----------------------------------------------------------------

    @staticmethod
    def _epoch_key(key: str | None) -> str | None:
        # Spec content plus the registry override epoch: deleting a
        # registered name (the documented override hatch) is the one event
        # that can retarget an existing spec, so it must cold-start the
        # caches — stale-epoch entries simply age out of the LRU.
        return None if key is None else f"{key}:{registry_epoch()}"

    def result_key_for(self, scenario: ScenarioSpec) -> str | None:
        """This request's result-tier content address (``None`` = uncacheable)."""
        return self._epoch_key(result_key(self.spec, scenario, self._system_key))

    def _serve(
        self,
        scenario: ScenarioSpec,
        clip=None,
        cache_delta: CacheStats | None = None,
        on_stats=None,
    ) -> RunResult:
        """Run one scenario for real (no result memoization)."""
        if clip is None:
            clip = self.cache.clips.get_or_build(
                self._epoch_key(clip_key(scenario)),
                lambda: self._build_clip(scenario),
                delta=None if cache_delta is None else cache_delta.clips,
            )
        runner, on_frame = self._build_runner(scenario, clip)
        runner.on_stats = on_stats
        profiler = None
        if self.profile:
            profiler = PhaseProfiler()
            runner.pipeline.profiler = profiler
        outcome = runner.run(
            clip.frames, frame_seeds=scenario.frame_seeds, on_frame=on_frame
        )
        return RunResult(
            scenario=scenario,
            outcome=outcome,
            profile=None if profiler is None else profiler.snapshot(),
        )

    def run(self, request, clip=None, cache_delta: CacheStats | None = None) -> RunResult:
        """Serve one request, through the result cache.

        Args:
            request: a :class:`ScenarioSpec` or its dict form.
            clip: pre-built source clip (bypasses both cache tiers; must
                be the clip the request's source spec would build).
            cache_delta: optional per-caller :class:`CacheStats`
                accumulator; every cache lookup this request makes is
                counted into it as well as the global stats, which is how
                concurrent batches sharing one cache each report exactly
                their own traffic.

        Returns:
            :class:`RunResult` with the request's stream ledger.  A
            repeat of an already-served ``(system, scenario)`` spec is
            answered from the cache, bit-identical to a fresh run —
            unless the engine is profiling, which always recomputes (a
            memoized result has no phases to measure) and leaves the
            result tier untouched.
        """
        scenario = self._as_scenario(request)
        if clip is not None:
            return self._serve(scenario, clip, cache_delta=cache_delta)
        if self.profile:
            return self._serve(scenario, cache_delta=cache_delta)
        return self.cache.results.get_or_build(
            self.result_key_for(scenario),
            lambda: self._serve(scenario, cache_delta=cache_delta),
            delta=None if cache_delta is None else cache_delta.results,
        )

    def run_streaming(
        self,
        request,
        on_stats=None,
        cache_delta: CacheStats | None = None,
    ) -> RunResult:
        """Serve one request, streaming each frame's ledger as it lands.

        ``on_stats`` is invoked with every :class:`~repro.stream.FrameStats`
        in stream order — live, while later frames are still computing, when
        the request misses the result cache; as an instant replay of the
        memoized ledger when it hits.  Either way the callback sees exactly
        the rows the returned result carries, so a client reassembling the
        stream gets a ledger bit-identical to the non-streaming response.

        Unlike :meth:`run`, concurrent *misses* of one key do not
        single-flight (each caller must observe its own live stream); the
        winner's result still lands in the cache for later requests.
        """
        scenario = self._as_scenario(request)
        if on_stats is None:
            return self.run(scenario, cache_delta=cache_delta)
        if self.profile:
            return self._serve(scenario, cache_delta=cache_delta, on_stats=on_stats)
        key = self.result_key_for(scenario)
        delta = None if cache_delta is None else cache_delta.results
        hit, value = self.cache.results.peek(key, delta=delta)
        if hit:
            for stats in value.outcome.frames:
                on_stats(stats)
            return value
        result = self._serve(scenario, cache_delta=cache_delta, on_stats=on_stats)
        self.cache.results.put(key, result, delta=delta)
        return result

    def run_batch(
        self,
        requests: Sequence | None = None,
        workers: int | None = None,
        executor: str | Executor | None = None,
    ) -> BatchResult:
        """Serve many requests through an executor; results keep order.

        Executors and caches are purely wall-clock optimizations:
        per-request results are bit-identical to sequential :meth:`run`
        calls whichever executor serves them.

        Args:
            requests: scenario specs (or dicts); defaults to the engine's
                spec-file scenarios.
            workers: pool size (defaults to the engine's ``workers``).
            executor: executor name from ``EXECUTOR_NAMES`` (defaults to
                the engine's ``executor``), or a constructed
                :class:`Executor` instance to reuse a warm pool across
                batches — instance pools are left open for the caller to
                :meth:`~repro.service.Executor.close`, and their own
                worker count wins over ``workers``.

        Returns:
            :class:`BatchResult`; a failed request re-raises its error.
        """
        if requests is None:
            requests = self.scenarios
        scenarios = [self._as_scenario(r) for r in requests]
        if workers is None:
            workers = self.workers
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")

        if isinstance(executor, Executor):
            pool, owned = executor, False
        else:
            name = executor if executor is not None else self.executor
            pool, owned = make_executor(name, workers), True

        # Per-batch collector, not a global before/after snapshot: the
        # cache may be shared with other concurrently-running batches (a
        # serving daemon's whole point), and this batch must report only
        # its own hits/misses/evictions.
        delta = CacheStats.zero()
        start = time.perf_counter()
        try:
            results = pool.execute(self, scenarios, cache_delta=delta)
        finally:
            if owned:
                pool.close()
        wall = time.perf_counter() - start
        profiles = [r.profile for r in results if r.profile is not None]
        return BatchResult(
            results=results,
            workers=pool.workers,
            executor=pool.name,
            wall_time_s=wall,
            cache=delta,
            profile=PhaseProfile.merge(profiles) if profiles else None,
        )
