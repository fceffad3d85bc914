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

import collections
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


class _Job:
    """A posted fill. ``done`` is held until a thread has run it; ``error`` keeps what it raised."""

    def __init__(self, fill):
        self.fill, self.done, self.error = fill, threading.Lock(), None
        self.done.acquire()


class FillThread:
    """A queue of fills (``normal_fill``'s second half) that one helper
    thread runs back to back, oldest first, while the posting thread works on.

    ``post(fill)`` queues a fill and returns its job. ``wait(job)`` returns
    once that fill is done, re-raising any exception it raised; until then
    the posting thread itself runs the oldest queued fills that no thread
    has started. ``deque.popleft`` hands each fill to exactly one thread.
    Only the thread that entered the ``with`` block may post and wait.
    Leaving it drops the fills no thread has started and joins the helper.

    Written by hand: ``concurrent.futures.ThreadPoolExecutor(1)`` in its
    place, with the same fills and slots, lost 6 of 6 alternating 10 s
    stein-narrow benchmark pairs (median 10.78M -> 8.86M trials/s, 2 vCPU),
    and its import of ``logging`` raised median setup from 0.134 to 0.162 s
    (numpy imports neither ``logging`` nor ``queue``).
    """

    def __init__(self):
        self._jobs = collections.deque()
        self._wake = threading.Lock()  # free while a post may be unseen by the helper
        self._wake.acquire()
        self._stop = False
        self._thread = threading.Thread(target=self._run, name="blindmm-fill", daemon=True)

    def _run_oldest(self) -> bool:
        """Run the oldest fill that no thread has started; False if there is none."""
        try:
            job = self._jobs.popleft()
        except IndexError:
            return False
        try:
            job.fill()
        except BaseException as exc:  # re-raised by wait() on the posting thread
            job.error = exc
        job.done.release()
        return True

    def _run(self):
        while self._jobs or not self._stop:
            if not self._run_oldest():
                self._wake.acquire()

    def _signal(self):
        # Only the posting thread releases, and only the helper acquires.
        if self._wake.locked():
            self._wake.release()

    def post(self, fill) -> _Job:
        self._jobs.append(job := _Job(fill))
        self._signal()
        return job

    def wait(self, job: _Job) -> None:
        while job.done.locked() and self._run_oldest():
            pass
        job.done.acquire()
        if job.error is not None:
            raise job.error

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._jobs.clear()
        self._stop = True
        self._signal()
        self._thread.join()
