"""Keyed Philox streams: determinism, key independence, and distributional
sanity of the chunk blocks."""

import numpy as np
import pytest

from blindmm.rng import derive_seed, generator, normal_block, normal_fill


def _corr(a, b):
    return np.corrcoef(a.ravel(), b.ravel())[0, 1]


class TestDeterminism:
    def test_repeat_call_sequence_identical(self):
        a = normal_block(123, np.arange(5, 45), 7)
        b = normal_block(123, np.arange(5, 45), 7)
        assert np.array_equal(a, b)

    def test_consumption_pattern_irrelevant(self):
        # A shorter chunk is a row prefix of a longer one with the same key.
        short = normal_block(9, np.arange(3, 6), 13)
        long = normal_block(9, np.arange(3, 40), 13)
        assert np.array_equal(short, long[:3])

    def test_streams_differ(self):
        # Different chunk keys (first trial ids) give uncorrelated blocks.
        a = normal_block(7, np.arange(0, 400), 50)
        b = normal_block(7, np.arange(1, 401), 50)
        assert not np.array_equal(a[1:], b[:-1])
        assert abs(_corr(a, b)) < 5.0 / np.sqrt(a.size)

    def test_seeds_differ(self):
        a = normal_block(7, np.arange(400), 50)
        b = normal_block(8, np.arange(400), 50)
        assert not np.array_equal(a, b)
        assert abs(_corr(a, b)) < 5.0 / np.sqrt(a.size)

    def test_block_rows_match_streams(self):
        # A block is the stream keyed by (seed, first id), filled row by row.
        blk = normal_block(42, np.arange(100, 150), 23)
        assert np.array_equal(blk, generator(42, 100).standard_normal((50, 23)))

    def test_block_count_odd_even(self):
        even = normal_block(3, [4], 8)[0]
        odd = normal_block(3, [4], 7)[0]
        assert np.array_equal(odd, even[:7])

    def test_derive_seed_sensitivity(self):
        seeds = {derive_seed(1), derive_seed(2), derive_seed(1, 0), derive_seed(1, 1), derive_seed(1, 0, 0)}
        assert len(seeds) == 5
        assert derive_seed(1, 0) == derive_seed(1, 0)

    @pytest.mark.parametrize("ids", [np.arange(5, 45), np.arange(4096, 8192), np.arange(0)])
    def test_out_equals_allocated_block(self, ids):
        out = np.full((ids.size, 7), np.nan)
        assert normal_block(123, ids, 7, out=out) is out
        assert np.array_equal(out, normal_block(123, ids, 7))

    def test_fill_draws_only_when_called(self):
        out = np.full((40, 7), np.nan)
        fill = normal_fill(123, 5, out)
        assert np.isnan(out).all()
        fill()
        assert np.array_equal(out, normal_block(123, np.arange(5, 45), 7))

    def test_out_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="out: expected shape"):
            normal_block(1, np.arange(3), 4, out=np.empty((3, 5)))

    def test_zero_count(self):
        assert normal_block(1, [0, 1], 0).shape == (2, 0)

    @pytest.mark.parametrize("ids", [[0, 2], [3, 2], [5, 5], [0, 1, 3],
                                     [0.5, 1.5], [True, False], [-1, 0]])
    def test_non_contiguous_ids_rejected(self, ids):
        # Float, bool and negative ids are refused, not read as other ids.
        with pytest.raises(ValueError, match="trial_ids"):
            normal_block(0, ids, 4)

    def test_unsigned_ids_accepted(self):
        ids = np.arange(5, 45)
        assert np.array_equal(normal_block(9, ids.astype(np.uint64), 3), normal_block(9, ids, 3))


class TestDistribution:
    def test_moments(self):
        z = normal_block(2024, np.arange(2000), 100).ravel()
        n = z.size
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)

    def test_no_correlation_between_consecutive(self):
        z = normal_block(55, np.arange(500), 200)
        x, y = z[:, :-1].ravel(), z[:, 1:].ravel()
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 5.0 / np.sqrt(x.size)

    def test_no_correlation_between_streams(self):
        z = normal_block(56, np.arange(400), 250)
        corr = np.corrcoef(z[:-1].ravel(), z[1:].ravel())[0, 1]
        assert abs(corr) < 5.0 / np.sqrt(z[:-1].size)

    def test_tail_mass(self):
        # P(|Z| > 2) = 4.55%; loose band around it.
        z = normal_block(77, np.arange(1000), 200).ravel()
        frac = np.mean(np.abs(z) > 2.0)
        assert 0.040 < frac < 0.051

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            normal_block(0, [0], -1)
