"""Keyed pseudorandom streams for reproducible Monte Carlo.

Every draw comes from one path: ``numpy.random.Philox`` seeded by
``numpy.random.SeedSequence(seed, spawn_key=labels)``. A stream is a pure
function of its integer key, so any block can be regenerated on its own,
independent of execution order or worker count. The labels go in the spawn
key rather than the entropy list because ``SeedSequence`` zero-pads short
entropy: ``[s]`` and ``[s, 0]`` would seed the same stream, and so would a
seed above 2**32 and a small seed followed by a label.

Monte Carlo noise is cut into fixed chunks of consecutive trials; a chunk's
block is keyed by ``(seed, first trial id)``. ``normal_fill`` keys a block,
which needs the interpreter, and returns its fill, which does not and may
run on another thread (``sim._map_chunks``).

Bit-reproducibility is promised per build (same numpy), not across
platforms.
"""

from __future__ import annotations

import functools

import numpy as np


def generator(seed, *labels) -> np.random.Generator:
    """The Philox stream keyed by the non-negative integers ``(seed, *labels)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=labels)))


def derive_seed(seed, *labels) -> int:
    """A 64-bit sub-seed for ``(seed, *labels)``, hashed by ``SeedSequence``."""
    return int(np.random.SeedSequence(seed, spawn_key=labels).generate_state(1, np.uint64)[0])


def normal_block(seed, trial_ids, count: int, out=None) -> np.ndarray:
    """Standard normals for a chunk of trials, one row of ``count`` per trial.

    ``trial_ids`` must be a contiguous ascending range of integers (not
    ``bool``) from 0 up; the block is the stream keyed by ``(seed,
    trial_ids[0])``, filled row by row, so a shorter chunk with the same
    first id is a row prefix of a longer one. ``out``, a C-contiguous
    float64 array of shape ``(len(trial_ids), count)``, receives the block
    in place of a new array, with the same values. Empty ids draw nothing.
    """
    ids = np.asarray(trial_ids)
    if ids.ndim != 1:
        raise ValueError(f"trial_ids: expected a 1-D range, got shape {ids.shape}")
    if ids.dtype.kind not in "iu" or ids.size and ids[0] < 0:
        raise ValueError(f"trial_ids: expected integers >= 0, got {ids[:3].tolist()} ({ids.dtype})")
    if np.any(np.diff(ids) != 1):
        raise ValueError("trial_ids: expected a contiguous ascending range")
    block = np.empty((ids.size, count)) if out is None else out
    if block.shape != (ids.size, count):
        raise ValueError(f"out: expected shape {(ids.size, count)}, got {block.shape}")
    if ids.size:
        normal_fill(seed, int(ids[0]), block)()
    return block


def normal_fill(seed, first: int, out):
    """The call that fills ``out`` with the stream keyed by ``(seed, first)``,
    as ``normal_block`` does for the rows ``first, first + 1, ...``, unchecked.
    It keys on the calling thread; numpy's fill releases the GIL, so another
    thread may run the call."""
    return functools.partial(generator(seed, first).standard_normal, out=out)
