"""Rendered pixels and stage-2 logits match digests pinned before the
render and classifier fast paths landed.

The serving benchmark's reply oracle compares ``(system, frames)`` ledgers,
which carry no pixels and no predictions, so a drift in clip rendering or
in the tiny-CNN kernels would pass it unseen.  These digests close that
gap: each case hashes every output byte of a fixed, seeded render or
forward pass (see :mod:`repro.bench.golden`).  A mismatch means an output
changed; re-pinning is only legitimate for an intended behavior change,
never to absorb a speedup.
"""

import pytest

from repro.bench.golden import CASES, GOLDEN_DIGESTS


def test_every_case_is_pinned():
    assert set(CASES) == set(GOLDEN_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_digest_matches_golden(name):
    assert CASES[name]() == GOLDEN_DIGESTS[name]
