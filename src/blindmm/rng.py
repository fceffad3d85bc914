"""Keyed pseudorandom streams for reproducible Monte Carlo.

Every draw comes from one path: ``numpy.random.Philox`` seeded by
``numpy.random.SeedSequence(seed, spawn_key=labels)``. A stream is a pure
function of its integer key, so any block can be regenerated on its own,
independent of execution order or worker count. The labels go in the spawn
key rather than the entropy list because ``SeedSequence`` zero-pads short
entropy: ``[s]`` and ``[s, 0]`` would seed the same stream, and so would a
seed above 2**32 and a small seed followed by a label.

Monte Carlo noise is cut into fixed chunks of consecutive trials; a chunk's
block is keyed by ``(seed, first trial id)``. ``normal_fill`` splits a
block into its keying, which needs the interpreter, and its fill, which
does not and may run on a ``FillThread``.

Bit-reproducibility is promised per build (same numpy), not across
platforms.
"""

from __future__ import annotations

import functools
import threading

import numpy as np


def generator(seed, *labels) -> np.random.Generator:
    """The Philox stream keyed by the non-negative integers ``(seed, *labels)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=labels)))


def derive_seed(seed, *labels) -> int:
    """A 64-bit sub-seed for ``(seed, *labels)``, hashed by ``SeedSequence``."""
    return int(np.random.SeedSequence(seed, spawn_key=labels).generate_state(1, np.uint64)[0])


def normal_block(seed, trial_ids, count: int, out=None) -> np.ndarray:
    """Standard normals for a chunk of trials, one row of ``count`` per trial.

    ``trial_ids`` must be a contiguous ascending range; the block is the
    stream keyed by ``(seed, trial_ids[0])``, filled row by row, so a shorter
    chunk with the same first id is a row prefix of a longer one. ``out``, a
    C-contiguous float64 array of shape ``(len(trial_ids), count)``, receives
    the block in place of a new array, with the same values.
    """
    block, fill = normal_fill(seed, trial_ids, count, out)
    fill()
    return block


def normal_fill(seed, trial_ids, count: int, out=None):
    """``normal_block(seed, trial_ids, count, out)`` split in two: the block,
    not yet drawn, and the call ``fill()`` that draws it.

    Everything that needs the interpreter (the id check, keying the stream,
    the output array) happens here; ``fill()`` is numpy's fill, which
    releases the GIL, so another thread may run it.
    """
    ids = np.asarray(trial_ids)
    if ids.ndim != 1:
        raise ValueError(f"trial_ids: expected a 1-D range, got shape {ids.shape}")
    if np.any(np.diff(ids) != 1):
        raise ValueError("trial_ids: expected a contiguous ascending range")
    block = np.empty((ids.size, count)) if out is None else out
    if block.shape != (ids.size, count):
        raise ValueError(f"out: expected shape {(ids.size, count)}, got {block.shape}")
    if ids.size == 0:
        return block, lambda: None
    return block, functools.partial(generator(seed, int(ids[0])).standard_normal, out=block)


class FillThread:
    """One helper thread that runs posted fills (``normal_fill``'s second
    half) one at a time, while the posting thread works on.

    ``post(fill)`` hands it a fill and ``wait()`` returns once that fill
    is done, re-raising any exception it raised. Leaving the ``with`` block
    waits for a posted fill and joins the thread, on error too.

    Written by hand: ``concurrent.futures.ThreadPoolExecutor(1)`` in its
    place, with the same fills and slots, lost 6 of 6 alternating 10 s
    stein-narrow benchmark pairs (median 10.78M -> 8.86M trials/s, 2 vCPU),
    and its import of ``logging`` raised median setup from 0.134 to 0.162 s.
    """

    def __init__(self):
        self._todo, self._done = threading.Lock(), threading.Lock()
        self._todo.acquire()
        self._done.acquire()
        self._fill = self._error = None
        self._pending = False
        self._thread = threading.Thread(target=self._run, name="blindmm-fill", daemon=True)

    def _run(self):
        while True:
            self._todo.acquire()
            if self._fill is None:
                return
            try:
                self._fill()
            except BaseException as exc:  # re-raised by wait() on the posting thread
                self._error = exc
            self._done.release()

    def post(self, fill) -> None:
        self._fill, self._pending = fill, True
        self._todo.release()

    def wait(self) -> None:
        self._done.acquire()
        self._pending = False
        if self._error is not None:
            raise self._error

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        if self._pending:
            self._done.acquire()
        self._fill = None
        self._todo.release()
        self._thread.join()
