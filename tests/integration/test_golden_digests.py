"""Rendered pixels, stage-2 logits and wire bytes match pinned digests.

The pixel and logit digests were pinned before the render and classifier
fast paths landed, the wire digests before the table-driven ``FrameStats``
codec and the encode-once reply path, and the edge clips (actors leaving
the canvas, tiny people, a static clip, long jitter, a fast drone) with
the per-frame renderer, before clips were drawn as frame blocks.

The serving benchmark's reply oracle compares ``(system, frames)`` ledgers,
which carry no pixels and no predictions, so a drift in clip rendering or
in the tiny-CNN kernels would pass it unseen.  It also decodes replies
before comparing, so a codec change that moved bytes but kept values (key
order, float formatting) would pass it too, while silently re-keying every
persisted cache entry.  These digests close both gaps: each case hashes
every output byte of a fixed, seeded render, forward pass or encoded reply
(see :mod:`repro.bench.golden`).  A mismatch means an output changed;
re-pinning is only legitimate for an intended behavior change, never to
absorb a speedup.
"""

import pytest

from repro.bench.golden import CASES, GOLDEN_DIGESTS


def test_every_case_is_pinned():
    assert set(CASES) == set(GOLDEN_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_digest_matches_golden(name):
    assert CASES[name]() == GOLDEN_DIGESTS[name]
