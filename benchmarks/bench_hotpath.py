"""Hot-path benchmark: phase breakdown + batched stage-2 vs per-crop loop.

PR 3 made *batches of requests* fast; this bench measures the single
request itself.  It enforces the hot-path contract introduced with
batched stage-2 inference:

1. **bit-identity** — in float64 compute mode, batched classification
   (``classify_crops``: bucket by post-resize shape, one forward per
   bucket) is bit-identical to the per-crop loop, on raw crops and
   through a full served scenario;
2. **parity** — float32 compute mode produces identical argmax and
   logits within the documented tolerances
   (``repro.ml.classifier.crop.FLOAT32_LOGIT_ATOL/RTOL``);
3. **speed** — with >= 8 ROIs per frame, the batched path is strictly
   faster than the per-crop loop (skipped in tiny smoke mode, where
   only the correctness gates run);
4. **observability** — a profiled engine run yields the per-phase
   wall-clock breakdown (expose / stage1.read / detect / condition /
   stage2.read / stage2.classify);
5. **golden digests** — rendered clips and scenes, batched float64
   and float32 logits, and encoded wire replies hash to the digests pinned in
   :mod:`repro.bench.golden` (a speedup must not move one output bit);
6. **layer table** — clip-render ms per frame for the serving
   benchmark's cold-classify clip (10 walkers, 256x192), the render of
   one single-frame 640x480 CrowdHuman-like scene (the same drawing
   primitives on a one-frame block), and the tiny-CNN forward split per
   layer (plus the per-crop resize), the layer figures that sit beside
   the end-to-end numbers.

Everything measured lands in ``BENCH_hotpath.json`` at the repo root —
the first entry of the ROADMAP's perf trajectory.

Env knobs:
  ``REPRO_HOTPATH_TINY``  tiny workload, correctness asserts only
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from conftest import env_flag

from repro.bench import Table
from repro.bench.golden import CASES as GOLDEN_CASES, GOLDEN_DIGESTS
from repro.core import HiRISEConfig, classify_crops
from repro.datasets import CROWDHUMAN_LIKE, SceneGenerator
from repro.ml import CropClassifier, tiny_cnn
from repro.ml.classifier.crop import FLOAT32_LOGIT_ATOL, FLOAT32_LOGIT_RTOL
from repro.service import ComponentRef, Engine, EngineCache, ScenarioSpec, SystemSpec
from repro.stream import pedestrian_clip

TINY = env_flag("REPRO_HOTPATH_TINY")
N_CROPS = 8 if TINY else 24          # ROIs per "frame" for the speed claim
INPUT_SIZE = 16 if TINY else 32      # classifier input side
ROUNDS = 2 if TINY else 5            # best-of for wall-clock numbers
N_FRAMES = 3 if TINY else 8
RESOLUTION = (128, 96) if TINY else (256, 192)
RENDER_FRAMES = 4 if TINY else 24    # the cold-classify clip's length

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

CLASSES = ("pedestrian", "cyclist", "vehicle", "background")


def make_classifier(dtype: str = "float64") -> CropClassifier:
    clf = CropClassifier(
        tiny_cnn(INPUT_SIZE, len(CLASSES), width=8, seed=0),
        (INPUT_SIZE, INPUT_SIZE),
        CLASSES,
    )
    return clf.set_compute_dtype(dtype)


def make_crops(n: int) -> list[np.ndarray]:
    """Deterministic variable-size RGB crops (what stage 2 hands over)."""
    rng = np.random.default_rng(7)
    sizes = [(int(rng.integers(12, 64)), int(rng.integers(12, 64))) for _ in range(n)]
    return [rng.random((h, w, 3)) for h, w in sizes]


def best_of(fn, rounds: int = ROUNDS) -> float:
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def render_ms_per_frame() -> float:
    """Best-of wall time to render the cold-classify clip, per frame."""
    seconds = best_of(
        lambda: pedestrian_clip(
            n_frames=RENDER_FRAMES, resolution=(256, 192), n_walkers=10, seed=1
        )
    )
    return seconds * 1e3 / RENDER_FRAMES


def scene_render_ms() -> float:
    """Best-of wall time to render one 640x480 CrowdHuman-like scene."""
    generator = SceneGenerator(CROWDHUMAN_LIKE, (640, 480), seed=0)
    return best_of(lambda: generator.scene(0)) * 1e3


def layer_ms(classifier: CropClassifier, crops: list[np.ndarray]) -> list[tuple[str, float]]:
    """Best-of ms of the per-crop resize and of each layer's batched forward."""
    rows = [("resize", best_of(lambda: [classifier.preprocess(c) for c in crops]) * 1e3)]
    x = np.stack([classifier.preprocess(c) for c in crops])
    for i, layer in enumerate(classifier.net.layers):
        rows.append(
            (f"{i}:{type(layer).__name__}", best_of(lambda: layer.forward(x)) * 1e3)
        )
        x = layer.forward(x)
    return rows


def profiled_scenario() -> tuple[SystemSpec, ScenarioSpec]:
    system = SystemSpec(
        config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
        detector=ComponentRef("ground-truth"),
        classifier=ComponentRef(
            "tiny-cnn", {"input_size": INPUT_SIZE, "classes": list(CLASSES)}
        ),
    )
    scenario = ScenarioSpec(
        name="hotpath",
        source=ComponentRef(
            "pedestrian", {"resolution": list(RESOLUTION), "n_walkers": 10}
        ),
        n_frames=N_FRAMES,
        seed=4,
        keep_outcomes=True,
    )
    return system, scenario


def test_hotpath(benchmark, emit):
    classifier = make_classifier()
    crops = make_crops(N_CROPS)
    assert len(crops) >= 8, "the speed claim is defined at >= 8 ROIs/frame"

    # -- 1. bit-identity on raw crops (always gated, tiny mode included) -----
    batched = benchmark.pedantic(
        classify_crops, args=(classifier, crops), rounds=1, iterations=1
    )
    looped = [classifier(crop) for crop in crops]
    for a, b in zip(batched, looped):
        assert a.label == b.label and a.index == b.index
        assert np.array_equal(a.logits, b.logits), "float64 batched != per-crop"
    emit(f"\ncheck 1: batched == per-crop bit-identical ({len(crops)} crops)")

    # -- 2. float32 parity within the documented tolerances ------------------
    f32 = classify_crops(make_classifier("float32"), crops)
    max_diff = 0.0
    for a, b in zip(batched, f32):
        assert b.logits.dtype == np.float32
        assert a.index == b.index, "float32 argmax must match float64"
        assert np.allclose(
            b.logits, a.logits, atol=FLOAT32_LOGIT_ATOL, rtol=FLOAT32_LOGIT_RTOL
        )
        max_diff = max(max_diff, float(np.abs(b.logits - a.logits).max()))
    emit(
        f"check 2: float32 parity — identical argmax, max |dlogit| "
        f"{max_diff:.2e} (atol {FLOAT32_LOGIT_ATOL:g})"
    )

    # -- 3. wall-clock: batched must beat the loop (skipped in tiny mode) ----
    looped_s = best_of(lambda: [classifier(crop) for crop in crops])
    batched_s = best_of(lambda: classify_crops(classifier, crops))
    f32_clf = make_classifier("float32")
    batched_f32_s = best_of(lambda: classify_crops(f32_clf, crops))
    speedup = looped_s / batched_s if batched_s > 0 else float("inf")
    table = Table(
        f"stage-2 classification of {len(crops)} crops "
        f"(resize to {INPUT_SIZE}x{INPUT_SIZE}, best of {ROUNDS})",
        ["path", "best ms", "speedup"],
        aligns=["l", "r", "r"],
    )
    table.add_row("per-crop loop (f64)", f"{looped_s * 1e3:.2f}", "1.00x")
    table.add_row("batched (f64)", f"{batched_s * 1e3:.2f}", f"{speedup:.2f}x")
    table.add_row(
        "batched (f32)",
        f"{batched_f32_s * 1e3:.2f}",
        f"{looped_s / batched_f32_s:.2f}x",
    )
    emit("\n" + table.render())
    if TINY:
        emit("check 3: skipped (tiny smoke mode gates on bit-identity only)")
    else:
        assert batched_s < looped_s, (
            f"batched stage-2 ({batched_s * 1e3:.2f} ms) must beat the "
            f"per-crop loop ({looped_s * 1e3:.2f} ms) at {len(crops)} ROIs/frame"
        )
        emit(f"check 3: batched beats per-crop loop ({speedup:.2f}x)")

    # -- 4. served scenario: phase breakdown + end-to-end bit-identity -------
    system, scenario = profiled_scenario()
    engine = Engine(system, cache=EngineCache.disabled(), profile=True)
    result = engine.run(scenario)
    profile = result.profile
    assert profile is not None
    for path in ("expose", "stage1.read", "detect", "condition",
                 "stage2.read", "stage2.classify"):
        assert profile.get(path) is not None, f"missing phase {path}"
    emit("\nphase breakdown (one served request):")
    emit(profile.report())

    # The served predictions equal a per-crop loop over the served crops:
    # batching changed execution, not results.
    served = [
        (outcome.roi_crops, outcome.predictions)
        for outcome in result.outcome.outcomes
    ]
    reference = make_classifier()
    n_rois = 0
    for roi_crops, predictions in served:
        n_rois += len(roi_crops)
        for crop, prediction in zip(roi_crops, predictions):
            expected = reference(crop)
            assert prediction.label == expected.label
            assert np.array_equal(prediction.logits, expected.logits)
    emit(
        f"check 4: served scenario bit-identical to per-crop reference "
        f"({n_rois} ROIs over {N_FRAMES} frames)"
    )

    # -- 5. golden digests: pixels, logits and wire bytes, bit for bit -------
    for name, want in GOLDEN_DIGESTS.items():
        assert GOLDEN_CASES[name]() == want, f"golden digest {name} drifted"
    emit(f"check 5: {len(GOLDEN_DIGESTS)} golden digests match (render, logits, wire)")

    # -- 6. layer table: clip render + tiny-CNN forward per layer ------------
    render_ms = render_ms_per_frame()
    scene_ms = scene_render_ms()
    layers = layer_ms(classifier, crops)
    by_kind: dict[str, float] = {}
    for name, ms in layers:
        kind = name.split(":")[-1]
        by_kind[kind] = by_kind.get(kind, 0.0) + ms
    table = Table(
        f"layer table (best of {ROUNDS}; forward over {len(crops)} crops, f64)",
        ["layer", "best ms"],
        aligns=["l", "r"],
    )
    table.add_row("render (10 walkers, 256x192), per frame", f"{render_ms:.3f}")
    table.add_row("scene render (crowdhuman-like, 640x480)", f"{scene_ms:.3f}")
    for name, ms in layers:
        table.add_row(name, f"{ms:.3f}")
    emit("\n" + table.render())

    payload = {
        "experiment": "hotpath",
        "tiny": TINY,
        "config": {
            "n_crops": len(crops),
            "input_size": INPUT_SIZE,
            "rounds": ROUNDS,
            "n_frames": N_FRAMES,
            "resolution": list(RESOLUTION),
        },
        "batched_vs_looped": {
            "looped_ms": looped_s * 1e3,
            "batched_ms": batched_s * 1e3,
            "batched_float32_ms": batched_f32_s * 1e3,
            "speedup": speedup,
            "bit_identical_float64": True,
        },
        "float32_parity": {
            "argmax_identical": True,
            "max_abs_logit_diff": max_diff,
            "atol": FLOAT32_LOGIT_ATOL,
            "rtol": FLOAT32_LOGIT_RTOL,
        },
        "phases": profile.to_dict(),
        "golden_digests_match": sorted(GOLDEN_DIGESTS),
        "layers": {
            "render_ms_per_frame": render_ms,
            "render_clip": {
                "resolution": [256, 192], "n_walkers": 10, "n_frames": RENDER_FRAMES,
            },
            "scene_render_ms": scene_ms,
            "scene": {"profile": "crowdhuman-like", "resolution": [640, 480]},
            "forward_ms": dict(layers),
            "forward_ms_by_kind": by_kind,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    emit(f"wrote {OUTPUT.name}")
