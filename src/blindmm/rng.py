"""Keyed pseudorandom streams for reproducible Monte Carlo.

Every draw comes from one path: ``numpy.random.Philox`` seeded by
``numpy.random.SeedSequence(seed, spawn_key=labels)``. A stream is a pure
function of its integer key, so any block can be regenerated on its own,
independent of execution order or worker count. The labels go in the spawn
key rather than the entropy list because ``SeedSequence`` zero-pads short
entropy: ``[s]`` and ``[s, 0]`` would seed the same stream, and so would a
seed above 2**32 and a small seed followed by a label.

Monte Carlo noise is cut into fixed chunks of consecutive trials; a chunk's
block is keyed by ``(seed, first trial id)``.

Bit-reproducibility is promised per build (same numpy), not across
platforms.
"""

from __future__ import annotations

import numpy as np


def generator(seed, *labels) -> np.random.Generator:
    """The Philox stream keyed by the non-negative integers ``(seed, *labels)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=labels)))


def derive_seed(seed, *labels) -> int:
    """A 64-bit sub-seed for ``(seed, *labels)``, hashed by ``SeedSequence``."""
    return int(np.random.SeedSequence(seed, spawn_key=labels).generate_state(1, np.uint64)[0])


def normal_block(seed, trial_ids, count: int) -> np.ndarray:
    """Standard normals for a chunk of trials, one row of ``count`` per trial.

    ``trial_ids`` must be a contiguous ascending range; the block is the
    stream keyed by ``(seed, trial_ids[0])``, filled row by row, so a shorter
    chunk with the same first id is a row prefix of a longer one.
    """
    ids = np.asarray(trial_ids)
    if ids.ndim != 1:
        raise ValueError(f"trial_ids: expected a 1-D range, got shape {ids.shape}")
    if ids.size == 0:
        return np.empty((0, count))
    if np.any(np.diff(ids) != 1):
        raise ValueError("trial_ids: expected a contiguous ascending range")
    return generator(seed, int(ids[0])).standard_normal((ids.size, count))
