"""Serializable scenario specs: the declarative surface of the service API.

Three frozen dataclasses describe a complete workload with plain data —
strings, numbers, dicts — so it can live in JSON files, travel over RPC,
and be diffed in review:

* :class:`SystemSpec` — *what system*: sensor/pipeline configuration
  (:class:`~repro.core.HiRISEConfig`) plus the detector and classifier
  slots, by registered name;
* :class:`ScenarioSpec` — *one request*: the stream source, frame count,
  seeds, reuse policy, and execution knobs;
* :class:`ServiceSpec` — a whole spec file: one system plus a list of
  scenarios and a default worker count.

Every spec round-trips exactly (``from_dict(to_dict(s)) == s``) and every
validation error names the offending field (``scenario.n_frames: ...``),
so a broken spec file is a one-glance fix.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..core.config import HiRISEConfig
from ..sensor.noise import NoiseModel
from .executor import EXECUTOR_NAMES
from .registry import CLASSIFIERS, DETECTORS, POLICIES, SOURCES, Registry


class SpecError(ValueError):
    """A spec failed validation; the message names the bad field."""


def _require(data: object, fieldname: str, kind: type, type_name: str):
    if not isinstance(data, kind) or (kind is int and isinstance(data, bool)):
        raise SpecError(
            f"{fieldname}: expected {type_name}, got {data!r}"
        )
    return data


def _reject_unknown(data: dict, known: set[str], fieldname: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"{fieldname}: unknown field(s) {unknown}; known fields: {sorted(known)}"
        )


@dataclass(frozen=True)
class ComponentRef:
    """A registered component, by name, plus its construction params.

    Attributes:
        name: the registry key (e.g. "pedestrian", "temporal-reuse").
        params: keyword arguments handed to the factory.
    """

    name: str
    params: dict = field(default_factory=dict)

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the params
        # dict; canonicalize it instead so every spec type stays hashable
        # (consistent with __eq__: equal dicts canonicalize identically).
        try:
            params = json.dumps(self.params, sort_keys=True, default=repr)
        except (TypeError, ValueError):
            params = repr(sorted(self.params))
        return hash((self.name, params))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data, fieldname: str = "component") -> "ComponentRef":
        """Parse ``{"name": ..., "params": {...}}`` (or a bare name string)."""
        if isinstance(data, str):
            return cls(data)
        _require(data, fieldname, dict, "a dict or component-name string")
        _reject_unknown(data, {"name", "params"}, fieldname)
        if "name" not in data:
            raise SpecError(f"{fieldname}.name: required field is missing")
        name = _require(data["name"], f"{fieldname}.name", str, "str")
        params = _require(
            data.get("params", {}), f"{fieldname}.params", dict, "dict"
        )
        return cls(name, dict(params))

    def resolve(self, registry: Registry, fieldname: str):
        """Look the factory up, re-raising with the spec field named."""
        try:
            return registry.get(self.name)
        except KeyError as exc:
            raise SpecError(f"{fieldname}.name: {exc}") from None


def _component_field(name: str):
    return field(default_factory=lambda: ComponentRef(name))


@dataclass(frozen=True)
class SystemSpec:
    """What system serves the requests (shared across a batch).

    Attributes:
        system: "hirise" (two-stage, in-sensor pooling + selective ROI) or
            "conventional" (full-frame baseline; ``config.adc_bits`` is the
            only config knob it reads).
        config: the :class:`~repro.core.HiRISEConfig` knobs.
        detector: stage-1 model slot (``DETECTORS`` registry).
        classifier: stage-2 model slot (``CLASSIFIERS`` registry).
        noise: sensor noise model; ``None`` = ideal sensor.  With noise
            enabled, per-frame temporal noise is drawn from the scenario's
            frame seeds — the knob that makes seeds observable.
        compute_dtype: stage-2 inference dtype, "float64" (default, the
            bit-exact reference) or "float32" (faster/smaller; logits
            track float64 within documented tolerances, argmax parity on
            seeded clips).  Applied by the engine to classifiers exposing
            ``set_compute_dtype``; stage-1 detection always runs float64
            so ROI selection is identical across modes.
    """

    system: str = "hirise"
    config: HiRISEConfig = field(default_factory=HiRISEConfig)
    detector: ComponentRef = _component_field("ground-truth")
    classifier: ComponentRef = _component_field("none")
    noise: NoiseModel | None = None
    compute_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.system not in ("hirise", "conventional"):
            raise SpecError(
                f"system.system: expected 'hirise' or 'conventional', "
                f"got {self.system!r}"
            )
        if self.compute_dtype not in ("float32", "float64"):
            raise SpecError(
                f"system.compute_dtype: expected 'float32' or 'float64', "
                f"got {self.compute_dtype!r}"
            )

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "config": self.config.to_dict(),
            "detector": self.detector.to_dict(),
            "classifier": self.classifier.to_dict(),
            "noise": None if self.noise is None else dataclasses.asdict(self.noise),
            "compute_dtype": self.compute_dtype,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SystemSpec":
        _require(data, "system", dict, "dict")
        _reject_unknown(
            data,
            {"system", "config", "detector", "classifier", "noise", "compute_dtype"},
            "system",
        )
        kwargs = {}
        if "system" in data:
            kwargs["system"] = _require(data["system"], "system.system", str, "str")
        if "compute_dtype" in data:
            kwargs["compute_dtype"] = _require(
                data["compute_dtype"], "system.compute_dtype", str, "str"
            )
        if "config" in data:
            config = data["config"]
            _require(config, "system.config", dict, "dict")
            try:
                kwargs["config"] = HiRISEConfig.from_dict(config)
            except ValueError as exc:
                raise SpecError(f"system.config: {exc}") from None
        if "detector" in data:
            kwargs["detector"] = ComponentRef.from_dict(
                data["detector"], "system.detector"
            )
        if "classifier" in data:
            kwargs["classifier"] = ComponentRef.from_dict(
                data["classifier"], "system.classifier"
            )
        if data.get("noise") is not None:
            noise = _require(data["noise"], "system.noise", dict, "dict")
            valid = {f.name for f in dataclasses.fields(NoiseModel)}
            _reject_unknown(noise, valid, "system.noise")
            kwargs["noise"] = NoiseModel(**noise)
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class ScenarioSpec:
    """One request: a stream to run and how to run it.

    Attributes:
        name: free-form label for reports ("" = unnamed).
        source: stream source slot (``SOURCES`` registry).
        n_frames: clip length handed to the source factory.
        seed: master scenario seed (clip layout/appearance/texture).
        frame_seeds: explicit per-frame temporal-noise seeds; ``None``
            defaults to the frame index (the stream runner's contract).
        policy: reuse policy slot (``POLICIES`` registry); "none" runs
            stage 1 on every frame.
        batch_size: legacy alias for ``window`` (HiRISE only; mutually
            exclusive with a reuse policy and with ``window > 1``).
        keep_outcomes: retain full per-frame outcomes on the result
            (costs memory; needed for bit-identity audits).
        window: stage-1 frames vectorized per NumPy pass (HiRISE only).
            ``window=1`` is the per-frame reference loop; any window is
            bit-identical to it.  Composes with a reuse policy.
    """

    name: str = ""
    source: ComponentRef = _component_field("pedestrian")
    n_frames: int = 32
    seed: int = 0
    frame_seeds: tuple[int, ...] | None = None
    policy: ComponentRef = _component_field("none")
    batch_size: int = 1
    keep_outcomes: bool = False
    window: int = 1

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise SpecError(f"scenario.n_frames: must be >= 1, got {self.n_frames}")
        if self.batch_size < 1:
            raise SpecError(
                f"scenario.batch_size: must be >= 1, got {self.batch_size}"
            )
        if self.window < 1:
            raise SpecError(f"scenario.window: must be >= 1, got {self.window}")
        if self.window > 1 and self.batch_size > 1:
            raise SpecError(
                "scenario.window: mutually exclusive with batch_size (its "
                "legacy alias); set only window"
            )
        # Seeds key NumPy's default_rng, which takes non-negative ints only.
        if self.seed < 0:
            raise SpecError(f"scenario.seed: must be >= 0, got {self.seed}")
        if self.frame_seeds is not None:
            if len(self.frame_seeds) != self.n_frames:
                raise SpecError(
                    f"scenario.frame_seeds: {len(self.frame_seeds)} seeds for "
                    f"{self.n_frames} frames"
                )
            for i, seed in enumerate(self.frame_seeds):
                if seed < 0:
                    raise SpecError(
                        f"scenario.frame_seeds[{i}]: must be >= 0, got {seed}"
                    )

    @property
    def label(self) -> str:
        return self.name or f"{self.source.name}/{self.policy.name}"

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "source": self.source.to_dict(),
            "n_frames": self.n_frames,
            "seed": self.seed,
            "frame_seeds": (
                None if self.frame_seeds is None else list(self.frame_seeds)
            ),
            "policy": self.policy.to_dict(),
            "batch_size": self.batch_size,
            "keep_outcomes": self.keep_outcomes,
            "window": self.window,
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        _require(data, "scenario", dict, "dict")
        known = {f.name for f in dataclasses.fields(cls)}
        _reject_unknown(data, known, "scenario")
        kwargs = {}
        if "name" in data:
            kwargs["name"] = _require(data["name"], "scenario.name", str, "str")
        if "source" in data:
            kwargs["source"] = ComponentRef.from_dict(data["source"], "scenario.source")
        if "policy" in data:
            kwargs["policy"] = ComponentRef.from_dict(data["policy"], "scenario.policy")
        for intfield in ("n_frames", "seed", "batch_size", "window"):
            if intfield in data:
                kwargs[intfield] = _require(
                    data[intfield], f"scenario.{intfield}", int, "int"
                )
        if data.get("frame_seeds") is not None:
            seeds = _require(
                data["frame_seeds"], "scenario.frame_seeds", list, "a list of ints"
            )
            kwargs["frame_seeds"] = tuple(
                _require(s, f"scenario.frame_seeds[{i}]", int, "int")
                for i, s in enumerate(seeds)
            )
        if "keep_outcomes" in data:
            kwargs["keep_outcomes"] = _require(
                data["keep_outcomes"], "scenario.keep_outcomes", bool, "bool"
            )
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def validate_components(self) -> None:
        """Resolve both component slots, raising :class:`SpecError` on typos."""
        self.source.resolve(SOURCES, "scenario.source")
        self.policy.resolve(POLICIES, "scenario.policy")


@dataclass(frozen=True)
class ServiceSpec:
    """A complete spec file: one system, scenarios, and execution knobs.

    Attributes:
        system: the served :class:`SystemSpec`.
        scenarios: default workload.
        workers: default pool size for batch serving.
        executor: default batch executor — "serial", "thread", or
            "process" (see :mod:`repro.service.executor`).
    """

    system: SystemSpec = field(default_factory=SystemSpec)
    scenarios: tuple[ScenarioSpec, ...] = ()
    workers: int = 1
    executor: str = "thread"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise SpecError(f"workers: must be >= 1, got {self.workers}")
        if self.executor not in EXECUTOR_NAMES:
            raise SpecError(
                f"spec.executor: unknown executor {self.executor!r}; "
                f"known executors: {list(EXECUTOR_NAMES)}"
            )

    def to_dict(self) -> dict:
        return {
            "system": self.system.to_dict(),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "workers": self.workers,
            "executor": self.executor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceSpec":
        _require(data, "spec", dict, "dict")
        _reject_unknown(data, {"system", "scenarios", "workers", "executor"}, "spec")
        kwargs = {}
        if "system" in data:
            system = data["system"]
            # Accept the bare-string shorthand ({"system": "hirise"}) here
            # too, so adding a "scenarios" list to a bare system spec — the
            # CLI's own fix-it advice — never changes how "system" parses.
            if isinstance(system, str):
                system = {"system": system}
            kwargs["system"] = SystemSpec.from_dict(system)
        if "scenarios" in data:
            scenarios = _require(
                data["scenarios"], "spec.scenarios", list, "a list of scenario dicts"
            )
            kwargs["scenarios"] = tuple(
                ScenarioSpec.from_dict(s) for s in scenarios
            )
        if "workers" in data:
            kwargs["workers"] = _require(data["workers"], "spec.workers", int, "int")
        if "executor" in data:
            kwargs["executor"] = _require(
                data["executor"], "spec.executor", str, "str"
            )
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ServiceSpec":
        return cls.from_dict(json.loads(text))


def load_spec(path: str | Path) -> ServiceSpec:
    """Read a JSON spec file into a :class:`ServiceSpec`.

    Accepts both the full layout (``{"system": {...}, "scenarios": [...]}``)
    and a bare system spec (``{"system": "hirise", "config": {...}}``, i.e.
    ``system`` is a *string*), which loads as a service with no scenarios.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not valid UTF-8 ({exc})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from None
    return coerce_service_spec(data)


def coerce_service_spec(data) -> "ServiceSpec":
    """Interpret a dict/spec object as a :class:`ServiceSpec`."""
    if isinstance(data, ServiceSpec):
        return data
    if isinstance(data, SystemSpec):
        return ServiceSpec(system=data)
    _require(data, "spec", dict, "dict")
    if (
        "scenarios" in data
        or "workers" in data
        or "executor" in data
        or isinstance(data.get("system"), dict)
    ):
        return ServiceSpec.from_dict(data)
    return ServiceSpec(system=SystemSpec.from_dict(data))
