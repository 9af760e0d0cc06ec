"""Golden digests: SHA-256 pins of rendered pixels and stage-2 logits.

The serving benchmark's reply oracle digests ``(system, frames)`` ledgers,
which carry neither pixels nor predictions, so a last-bit drift in clip
rendering or in the classifier kernels would pass it unseen.  This module
pins both layers instead: each case renders or classifies a fixed, seeded
input and hashes every output byte.  :data:`GOLDEN_DIGESTS` holds the
expected values; the regression test and ``benchmarks/bench_hotpath.py``
compare each case's current digest (``CASES[name]()``) against them.

Cases:

* ``pedestrian/*`` and ``drone/*`` — animated clips with and without
  position jitter (frames plus ground-truth boxes), including the edges a
  frame-block renderer must keep: walkers leaving the canvas
  (``pedestrian/edges``), people small enough to take the plain-rectangle
  torso (``pedestrian/tiny``), a static clip, a 40-frame clip with jitter
  2.5 and a fast drone clip;
* ``scene/*`` — three :class:`~repro.datasets.scene.SceneGenerator` scenes
  per profile, whose actors share one generator (images plus labelled
  boxes);
* ``faces/*`` — RAF-DB-like face crops, one per expression;
* ``logits/*`` — tiny-CNN logits over a fixed crop set (odd sizes, 1xN,
  up- and downscales) with seeded batch-norm running statistics, through
  the per-crop resize and one batched forward, in float64 and float32;
* ``wire/*`` — the serving protocol's bytes for two served scenarios: the
  whole ``result`` frame, every streamed ``frame`` row and the ``end``
  frame, as :func:`~repro.server.protocol.encode_frame` writes them.

The wire digests pin the JSON codec of the ledger types.  Cache keys and
fingerprints hash canonical ``to_dict`` JSON, so a codec change that moves
one byte would silently invalidate every persisted store; these cases
catch it.  ``wall_time_s`` is measured wall-clock, so it is pinned to
:data:`PINNED_WALL_TIME_S` before encoding.

The logit digests also pin the BLAS build behind ``Conv2D``'s matmul: a
NumPy or BLAS upgrade that changes its accumulation order shows up here,
as it would in every cached result digest.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from ..datasets.profiles import CROWDHUMAN_LIKE, DHDCAMPUS_LIKE, VISDRONE_LIKE
from ..datasets.rafdb import EXPRESSIONS, render_face
from ..datasets.scene import SceneGenerator
from ..ml import CropClassifier, tiny_cnn
from ..ml.layers import BatchNorm
from ..server.protocol import FrameChunk, ResultResponse, StreamEnd, encode_frame
from ..service import Engine, EngineCache, ScenarioSpec
from ..stream.source import SyntheticClip, drone_traffic_clip, pedestrian_clip

#: The tiny-CNN logit cases' classes (four, like the hot-path bench).
LOGIT_CLASSES = ("pedestrian", "cyclist", "vehicle", "background")


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _array_bytes(array: np.ndarray):
    """Shape, dtype and raw bytes: two arrays hash equal only if identical."""
    array = np.ascontiguousarray(array)
    yield repr((array.shape, array.dtype.str)).encode()
    yield array.tobytes()


def clip_digest(clip: SyntheticClip) -> str:
    """SHA-256 over every frame's bytes and every ground-truth box."""

    def chunks():
        for frame, boxes in zip(clip.frames, clip.ground_truth, strict=True):
            yield from _array_bytes(frame)
            yield from _array_bytes(np.asarray(boxes, dtype=np.float64).reshape(-1, 4))

    return _sha256(chunks())


def scene_digest(generator: SceneGenerator, n_scenes: int = 3) -> str:
    """SHA-256 over the first scenes' images, boxes and box labels."""

    def chunks():
        for scene in generator.generate(n_scenes):
            yield from _array_bytes(scene.image)
            yield repr([box.label for box in scene.boxes]).encode()
            boxes = [(box.x, box.y, box.w, box.h) for box in scene.boxes]
            yield from _array_bytes(np.asarray(boxes, dtype=np.float64).reshape(-1, 4))

    return _sha256(chunks())


def faces_digest(seed: int = 6) -> str:
    """SHA-256 over one RAF-DB-like face per expression."""
    rng = np.random.default_rng(seed)
    return _sha256(
        chunk
        for expression in EXPRESSIONS
        for chunk in _array_bytes(render_face(expression, rng, size=48))
    )


def golden_crops() -> list[np.ndarray]:
    """Fixed RGB crops: random sizes plus 1x1, 1xN, Nx1 and identity sides."""
    rng = np.random.default_rng(2024)
    sizes = [(int(rng.integers(2, 80)), int(rng.integers(2, 80))) for _ in range(12)]
    sizes += [(1, 1), (1, 37), (41, 1), (32, 32), (20, 20), (96, 64)]
    return [rng.random((h, w, 3)) for h, w in sizes]


def golden_classifier(input_size: int, dtype: str = "float64") -> CropClassifier:
    """A seeded tiny CNN whose batch-norm layers carry random running stats.

    Default running statistics (mean 0, var 1, gamma 1, beta 0) would make
    every batch norm a near-identity; seeded values exercise its arithmetic.
    """
    net = tiny_cnn(input_size, len(LOGIT_CLASSES), width=8, seed=3)
    rng = np.random.default_rng(input_size)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            c = layer.gamma.value.shape[0]
            layer.running_mean = rng.normal(0.0, 0.5, c)
            layer.running_var = rng.uniform(0.2, 2.0, c)
            layer.gamma.value = rng.uniform(0.5, 1.5, c)
            layer.beta.value = rng.normal(0.0, 0.3, c)
    classifier = CropClassifier(net, (input_size, input_size), LOGIT_CLASSES)
    return classifier.set_compute_dtype(dtype)


def logits_digest(input_size: int, dtype: str) -> str:
    """SHA-256 over the batched logits of :func:`golden_crops`."""
    classifier = golden_classifier(input_size, dtype)
    stack = np.stack([classifier.preprocess(crop) for crop in golden_crops()])
    logits = classifier.net.predict_batch(stack)
    return _sha256(_array_bytes(logits))


#: The served scenarios of the ``wire/*`` cases: one plain pedestrian
#: clip, and a drone clip under temporal ROI reuse (so rows carry every
#: ``reason`` label and both ``ran_stage1`` values).
WIRE_SCENARIOS: dict[str, dict] = {
    "pedestrian": {
        "source": {"name": "pedestrian", "params": {"resolution": [96, 72]}},
        "n_frames": 8,
        "seed": 21,
        "window": 4,
        "name": "golden-pedestrian",
    },
    "drone-reuse": {
        "source": {"name": "drone", "params": {"resolution": [96, 72]}},
        "n_frames": 12,
        "seed": 8,
        "window": 4,
        "policy": {"name": "temporal-reuse", "params": {"max_reuse": 3}},
        "name": "golden-drone-reuse",
    },
}

#: Stand-in for the measured ``wall_time_s`` in the wire cases.
PINNED_WALL_TIME_S = 0.125


def _served(name: str):
    """The wire case's reply, from a cache-free engine."""
    scenario = ScenarioSpec.from_dict(WIRE_SCENARIOS[name])
    result = Engine(cache=EngineCache.disabled()).run(scenario)
    result.outcome.wall_time_s = PINNED_WALL_TIME_S
    return result


def wire_digest(name: str, part: str) -> str:
    """SHA-256 over one part (``result``/``frames``/``end``) of a reply."""
    result = _served(name)
    request_id = f"golden-{name}"
    outcome = result.outcome
    if part == "result":
        frames = [ResultResponse(id=request_id, scenario=result.scenario, outcome=outcome)]
    elif part == "frames":
        frames = [FrameChunk(id=request_id, stats=row) for row in outcome.frames]
    else:
        frames = [
            StreamEnd(
                id=request_id,
                system=outcome.system,
                n_frames=outcome.n_frames,
                wall_time_s=outcome.wall_time_s,
            )
        ]
    return _sha256(encode_frame(frame) for frame in frames)


#: Case name -> a zero-argument function computing its digest.
CASES: dict[str, Callable[[], str]] = {
    "pedestrian/linear": lambda: clip_digest(
        pedestrian_clip(n_frames=24, resolution=(128, 96), n_walkers=7, seed=4, speed=4.0)
    ),
    "pedestrian/jitter": lambda: clip_digest(
        pedestrian_clip(
            n_frames=12, resolution=(96, 80), n_walkers=5, seed=9, jitter=1.5
        )
    ),
    "pedestrian/cold-classify": lambda: clip_digest(
        pedestrian_clip(n_frames=4, resolution=(256, 192), n_walkers=10, seed=1)
    ),
    "drone/linear": lambda: clip_digest(
        drone_traffic_clip(n_frames=16, resolution=(128, 96), n_vehicles=6, seed=11)
    ),
    "drone/jitter": lambda: clip_digest(
        drone_traffic_clip(
            n_frames=10, resolution=(96, 72), n_vehicles=4, seed=5, jitter=1.0
        )
    ),
    "pedestrian/edges": lambda: clip_digest(
        pedestrian_clip(n_frames=30, resolution=(96, 72), n_walkers=6, seed=2, speed=9.0)
    ),
    "pedestrian/tiny": lambda: clip_digest(
        pedestrian_clip(n_frames=8, resolution=(24, 16), n_walkers=6, seed=3, speed=1.5)
    ),
    "pedestrian/static": lambda: clip_digest(
        pedestrian_clip(n_frames=6, resolution=(96, 72), n_walkers=4, seed=7, speed=0.0)
    ),
    "pedestrian/jitter-long": lambda: clip_digest(
        pedestrian_clip(
            n_frames=40, resolution=(96, 72), n_walkers=4, seed=13, jitter=2.5
        )
    ),
    "drone/fast": lambda: clip_digest(
        drone_traffic_clip(
            n_frames=12, resolution=(128, 96), n_vehicles=5, seed=17, speed=12.0
        )
    ),
    "scene/crowdhuman-like": lambda: scene_digest(
        SceneGenerator(CROWDHUMAN_LIKE, resolution=(160, 120), seed=3)
    ),
    "scene/dhdcampus-like": lambda: scene_digest(
        SceneGenerator(DHDCAMPUS_LIKE, resolution=(160, 120), seed=3)
    ),
    "scene/visdrone-like": lambda: scene_digest(
        SceneGenerator(VISDRONE_LIKE, resolution=(160, 120), seed=3)
    ),
    "faces/rafdb-like": faces_digest,
    "logits/float64": lambda: logits_digest(32, "float64"),
    "logits/float64-odd": lambda: logits_digest(20, "float64"),
    "logits/float32": lambda: logits_digest(32, "float32"),
    **{
        f"wire/{name}/{part}": (lambda name=name, part=part: wire_digest(name, part))
        for name in WIRE_SCENARIOS
        for part in ("result", "frames", "end")
    },
}


#: Expected digests.  The pixel and logit digests were captured before the
#: style-once renderer and the exact stage-2 kernels landed, the wire
#: digests before the table-driven ``FrameStats`` codec and the
#: encode-once reply path, and the edge clips (``pedestrian/edges``,
#: ``/tiny``, ``/static``, ``/jitter-long``, ``drone/fast``) with the
#: per-frame renderer, before clips were drawn as frame blocks; each must
#: reproduce them bit for bit.
GOLDEN_DIGESTS: dict[str, str] = {
    "pedestrian/linear": "c2cf6fc7eff190113791d4a32a6305f7d61f78ac7a82a7fcbc637b76ef97cd62",
    "pedestrian/jitter": "97e45cdc76c46154107887a0156b6a06a6252aa1ddb1583b513acfb5eb3dc967",
    "pedestrian/cold-classify": "99a081b75ac2582896d2ccbab08d7ef2957c8b0c56d706c3018e95fd410003b9",
    "drone/linear": "a36b70e70ac4499a35fa081b3589576120d045785bf33fc81004969f8c691165",
    "drone/jitter": "06022c59ef0575f094c40e54be3dc3990fc66a9311fd5c32a611bc964ba228db",
    "pedestrian/edges": "edbc15ef0bcc758c4d7daff145bf32e310f2854c25f968179cffa61e38e1b788",
    "pedestrian/tiny": "553b1c4375cac52301b3e992921177c0e15b4569aaef6576cfaaa885c51d1410",
    "pedestrian/static": "ccfa186acf9e66d8e0179f6146dea23c49ef97f32a8a824215b466ffdc2a69f9",
    "pedestrian/jitter-long": "a8fda9cc4a8ca3fda904a83286c86db9d1e58373e05255c0bc36d9f6bfd1422c",
    "drone/fast": "996459803c70d4befec363a12c28fc08ade39877f539fb8243cdc7ec2cb4d7ca",
    "scene/crowdhuman-like": "3f00ab49573a99b71273bdaf7852ab7d0649c37163dd059b3bd32fb87a5674f6",
    "scene/dhdcampus-like": "dc28172e46e602bceb48f58a70a868e77e14e627856dc6ba20bf84e1f1d7d730",
    "scene/visdrone-like": "824afe550481a6c617e74b1f82c8818e38dc5302e597fc069e6c9334d0849dd3",
    "faces/rafdb-like": "7e0b6ff969840407a93ea5dbe1d071adbc1fa13dc5b7fafc8f16abf90f941263",
    "logits/float64": "bbb2e3a1c5035ae4069b63089e3114931fbb0fb07d86bd59d7b5f9446cc935d5",
    "logits/float64-odd": "4cd9a00bf26a4685bb924276dfbf5039e6a4e16c19f8fb0ba9122a95e7c3112d",
    "logits/float32": "30709c35ef620558b13c8dcdae5fca501fd1b12be0c64b564d73cd1bf071bd83",
    "wire/pedestrian/result": "4b2cfb013d8ef9bbed5dfa3c1354b3882320b760d47572684f3a1a8afd482a5e",
    "wire/pedestrian/frames": "a3ac104ce27d9e30afdee460b1205d4db8bce5c981ae33d00df4a83494414f17",
    "wire/pedestrian/end": "593ce3d76c7874ad26e15b76b511d5052d73636efdaf95884d87c4a78c1d6161",
    "wire/drone-reuse/result": "47ffa5f48dd92ce18614376fb2adab5ddb4e26d5ae58c847c6cde51de6c54197",
    "wire/drone-reuse/frames": "805125596bc35e68590503b23f9c1f7dacd72d044cb067ad679ad8407113a68b",
    "wire/drone-reuse/end": "d678a32904e823ba55324f171808006ef72f4385e9e75d89cfce2fe34b3b9d77",
}
