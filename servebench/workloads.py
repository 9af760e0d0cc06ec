"""The benchmark's three workloads, generated from the ``--seed``.

Every workload drives one daemon from one closed-loop connection and
alternates whole (even request index) and streamed (odd index)
requests, because the two take different paths through the daemon
(``executor.execute`` against in-daemon ``run_streaming``) and are
measured as separate populations.  Every seed the benchmark generates
-- clip seeds and ``frame_seeds`` alike -- is non-negative.

Each workload below records why it was chosen and which layers it loads
or leaves idle.  The ``guard`` of each one checks input properties only
(cache-tier traffic the workload is built to cause), never a ratio a
valid optimisation may move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

#: Stage-1 window for every workload: a window of frames is exposed and
#: pooled in one vectorized pass before its first row ships.
WINDOW = 12

_GROUND_TRUTH = {"name": "ground-truth"}


def _system(classifier: dict) -> dict:
    """A service spec for the daemon: float64 HiRISE, oracle detector."""
    return {
        "system": {
            "system": "hirise",
            "detector": _GROUND_TRUTH,
            "classifier": classifier,
            "compute_dtype": "float64",
        },
        "executor": "thread",
        "workers": 1,
    }


@dataclass
class Workload:
    """One traffic mix.

    Attributes:
        service: the daemon's service spec (dict form).
        prewarm: scenario dicts served once during set-up, untimed.
        request: ``i -> scenario dict`` of the i-th timed request.
        guard: ``(cache_delta, requests, reused_frames) -> [problems]``
            run over the timed phase's daemon-side cache deltas.
        oracle: timed request indices re-run in process, cache-free,
            and compared bit-for-bit after the timed phase.
    """

    service: dict
    prewarm: list[dict]
    request: Callable[[int], dict]
    guard: Callable[[dict, int, int], list[str]]
    oracle: list[int] = field(default_factory=lambda: [0, 1])


def _cold_classify(rng: random.Random) -> Workload:
    # Why: the cost a new request pays -- render a clip, run stage 1 and
    # classify every ROI with a float64 CNN.  Every request takes a new
    # clip seed, so both the clip and the result tier miss.  Loads clip
    # render (about half a request), the sensor path and the tiny-cnn
    # stage 2; reuse is off and the codec is idle (24 ledger rows).
    base = rng.randrange(0, 2**30)

    def scenario(seed: int) -> dict:
        return {
            "source": {
                "name": "pedestrian",
                "params": {"resolution": [256, 192], "n_walkers": 10},
            },
            "n_frames": 24,
            "seed": seed,
            "window": WINDOW,
        }

    def guard(delta: dict, requests: int, reused: int) -> list[str]:
        problems = []
        if delta["clip_hits"] != 0:
            problems.append(f"clip tier hit {delta['clip_hits']} time(s)")
        if delta["result_hits"] != 0:
            problems.append(f"result tier hit {delta['result_hits']} time(s)")
        return problems

    return Workload(
        service=_system({"name": "tiny-cnn"}),
        # One request on a seed the timed phase never uses: first-call
        # costs (imports, BLAS set-up) stay out of the timed phase.
        prewarm=[scenario(base + 1_000_000_000)],
        request=lambda i: scenario(base + i),
        guard=guard,
    )


def _window_reuse(rng: random.Random) -> Workload:
    # Why: the sensor-side cost of windowed streaming under temporal ROI
    # reuse.  Four clips (two pedestrian, two drone) are rendered during
    # set-up, so the clip tier always hits; fresh frame_seeds make every
    # result-tier lookup miss.  Loads expose + stage-1 read (most of a
    # request, including the pooled frames reuse then throws away); the
    # mean-luma stage 2 is cheap, so a classifier speedup should not
    # move this workload, and clip render is idle.
    #
    # The four scenes are fixed and the seed draws only the frame_seeds:
    # a request's cost depends on its clip's actors (a random set of four
    # clips moves the median request by ~10% from seed to seed), so
    # fixed scenes keep every seed on the same sensor work.
    clips = [("pedestrian", 101), ("drone", 202), ("pedestrian", 303), ("drone", 404)]
    seed_base = rng.randrange(0, 2**30)
    n_frames = 24

    def scenario(slot: int) -> dict:
        source, seed = clips[slot % len(clips)]
        first = seed_base + slot * n_frames
        return {
            "source": {"name": source, "params": {"resolution": [256, 192]}},
            "n_frames": n_frames,
            "seed": seed,
            "frame_seeds": list(range(first, first + n_frames)),
            "policy": {"name": "temporal-reuse", "params": {"max_reuse": 3}},
            "window": WINDOW,
        }

    def guard(delta: dict, requests: int, reused: int) -> list[str]:
        problems = []
        if delta["clip_hits"] != requests:
            problems.append(
                f"clip tier hit {delta['clip_hits']} of {requests} request(s)"
            )
        if delta["result_hits"] != 0:
            problems.append(f"result tier hit {delta['result_hits']} time(s)")
        if reused <= 0:
            problems.append("no frame reused its ROIs")
        return problems

    return Workload(
        service=_system({"name": "mean-luma"}),
        # Slots 0-3 render the four clips; timed requests start at slot 4,
        # so their frame_seeds never repeat a pre-warm request's.
        prewarm=[scenario(slot) for slot in range(len(clips))],
        request=lambda i: scenario(i + len(clips)),
        guard=guard,
    )


def _warm_replay(rng: random.Random) -> Workload:
    # Why: the serving overhead around a cached answer.  Four 240-frame
    # scenarios are served once in set-up and then replayed, so every
    # request is a result-tier memory hit: the cost is cache lookup,
    # executor dispatch, the JSON codec and the socket (a whole reply is
    # one ~66 kB line, a streamed one 241 lines).  Every compute layer
    # (render, runner, sensor, classifier) is idle.  Clips are 128x96:
    # replies do not depend on resolution, and smaller clips keep the
    # four cached clips and the set-up cost small.  The scenes are fixed
    # (a random set of four moves the modelled bytes per frame by ~8%
    # from seed to seed); the seed draws the order they are replayed in.
    scenarios = []
    for slot, seed in enumerate((11, 22, 33, 44)):
        spec = {
            "source": {
                "name": ("pedestrian", "drone")[slot % 2],
                "params": {"resolution": [128, 96]},
            },
            "n_frames": 240,
            "seed": seed,
            "window": WINDOW,
        }
        if slot >= 2:
            spec["policy"] = {"name": "temporal-reuse", "params": {"max_reuse": 3}}
        scenarios.append(spec)
    rng.shuffle(scenarios)

    def guard(delta: dict, requests: int, reused: int) -> list[str]:
        if delta["result_misses"] != 0:
            return [f"result tier missed {delta['result_misses']} time(s)"]
        return []

    return Workload(
        service=_system({"name": "mean-luma"}),
        prewarm=list(scenarios),
        # Requests 2j (whole) and 2j+1 (streamed) replay the same
        # scenario, so each scenario is served both ways.
        request=lambda i: scenarios[(i // 2) % len(scenarios)],
        guard=guard,
        # Every scenario, whole and streamed.
        oracle=list(range(2 * len(scenarios))),
    )


WORKLOADS = {
    "cold-classify": _cold_classify,
    "window-reuse": _window_reuse,
    "warm-replay": _warm_replay,
}


def build(name: str, seed: int) -> Workload:
    """The named workload with every input drawn from ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))
