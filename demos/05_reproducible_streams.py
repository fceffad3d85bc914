"""Reproducibility: keyed Philox chunks and byte-identical reruns.

Monte Carlo trials are cut into fixed chunks of ``CHUNK_TRIALS``. Each
chunk's noise is one block from numpy's counter-based Philox generator,
keyed through ``SeedSequence`` by (seed, first trial of the chunk). A chunk
can therefore be regenerated in isolation, and a rerun of the same
experiment with the same seed gives a byte-identical CSV.
Bit-reproducibility is promised for a given numpy build, not across
platforms.

There is one stream per direction, not per grid point: the SNR points of a
direction differ only in the true parameter, so they share each chunk's
noise block (common random numbers along the SNR axis).
"""

import numpy as np

from blindmm import ExperimentConfig, run_experiment
from blindmm.estimators import EstimatorSpec
from blindmm.rng import generator, normal_block
from blindmm.sim import CHUNK_TRIALS, format_results_csv

# 1. Same key -> same block, and a block is just its keyed Philox stream
#    filled row by row.
block = normal_block(seed=42, trial_ids=np.arange(100, 110), count=8)
again = normal_block(seed=42, trial_ids=np.arange(100, 110), count=8)
print("same (seed, first trial) identical:  ", np.array_equal(block, again))
stream = generator(42, 100).standard_normal((10, 8))
print("block equals its keyed stream:       ", np.array_equal(block, stream))

# 2. A shorter chunk with the same first trial is a row prefix; a chunk
#    starting elsewhere is a different, independent block.
prefix = normal_block(seed=42, trial_ids=np.arange(100, 103), count=8)
print("3-trial chunk is a row prefix:       ", np.array_equal(prefix, block[:3]))
other = normal_block(seed=42, trial_ids=np.arange(101, 111), count=8)
print("chunk keyed at trial 101 differs:    ", not np.array_equal(other[:-1], block[1:]))

# 3. A rerun with the same seed changes nothing: the chunks (of CHUNK_TRIALS
#    trials) are fixed, so each chunk's noise and the reduction order, and
#    hence every output bit, repeat. Both SNR points of a direction read the
#    same blocks.
config = ExperimentConfig(
    scenario="fig5b-range",
    estimators=[EstimatorSpec("ls"), EstimatorSpec("sbme")],
    snr_grid_db=[0.0, 10.0],
    directions=[{"random-sphere": 2}],
    trials=2 * CHUNK_TRIALS + 1000,
    seed=5,
)
first = format_results_csv(run_experiment(config))
rerun = format_results_csv(run_experiment(config))
print(f"same-seed rerun, identical CSV: {first == rerun} "
      f"({config.trials} trials, 3 chunks per direction, shared by its 2 SNR points)")

print("\nresults preview:")
print("\n".join(first.strip().split("\n")[:4]))
