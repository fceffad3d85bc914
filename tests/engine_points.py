"""Per-trial results of the Monte Carlo engine at one grid point, for tests
that check them against the public rules or against the moment fold.

Built on the engine's own pieces (``_chunk_kernel`` and ``_map_chunks``),
with the identity as the per-chunk reduction, so the errors are the ones
``run_experiment`` folds into its rows.
"""

from collections import namedtuple

import numpy as np

from blindmm import sim
from blindmm.estimators import RULES

Point = namedtuple("Point", "squared_errors gain_sums")


def point_squared_errors(model, x, specs, trials: int, seed) -> Point:
    """Per-trial squared errors and gain-profile sums for every estimator at
    one grid point: a ``(squared_errors, gain_sums)`` pair of label dicts."""
    plans = [RULES[spec.kind].plan(model, spec) for spec in specs]
    kernel = sim._chunk_kernel(model, [x], plans, lambda se: se)
    chunks = sim._map_chunks(kernel, seed, trials, model.n)  # one pair per plan
    # A scalar rule's gain sum covers every component.
    squared_errors, gain_sums = {}, {}
    for spec, parts in zip(specs, zip(*chunks)):
        squared_errors[spec.label] = np.concatenate([se for se, _ in parts])
        gain_sums[spec.label] = np.broadcast_to(sum(g for _, g in parts), (model.m,))
    return Point(squared_errors, gain_sums)
