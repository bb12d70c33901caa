"""Medians, quartiles and the shape-derived conv counts."""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


class TestSummaries(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_exclusive_method(self):
        # exclusive method: positions (n+1)p -> 2.75, 5.5, 8.25 for n = 10
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_iqr_share(self):
        values = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(stats.iqr_share(values), 5.5 / 5.5)
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)
        with self.assertRaises(ValueError):
            stats.iqr_share([0.0, 0.0, 0.0])


class TestConvCounts(unittest.TestCase):
    def test_out_size(self):
        self.assertEqual(stats.conv_out_size(64, 3, 1, 1), 64)
        self.assertEqual(stats.conv_out_size(64, 3, 2, 1), 32)
        self.assertEqual(stats.conv_out_size(5, 3, 2, 1), 3)
        self.assertEqual(stats.conv_out_size(8, 3, 1, 0), 6)

    def test_flops_by_hand(self):
        # [4,32,64,64] * [32,32,3,3], stride 1, pad 1: 2*4*32*32*9*64*64
        self.assertEqual(stats.conv2d_flops((4, 32, 64, 64), (32, 32, 3, 3), 1, 1),
                         2 * 4 * 32 * 32 * 9 * 4096)
        # stride 2 quarters the output positions
        self.assertEqual(stats.conv2d_flops((1, 2, 32, 32), (16, 2, 3, 3), 2, 1),
                         2 * 16 * 2 * 9 * 16 * 16)
        self.assertEqual(stats.conv2d_backward_flops((1, 2, 32, 32), (16, 2, 3, 3), 2, 1),
                         2 * stats.conv2d_flops((1, 2, 32, 32), (16, 2, 3, 3), 2, 1))

    def test_flops_reject_channel_mismatch(self):
        with self.assertRaises(ValueError):
            stats.conv2d_flops((1, 3, 8, 8), (4, 2, 3, 3), 1, 1)

    def test_im2col_bytes(self):
        # float64 patches of [4,2,64,64] with a 3x3 kernel: 4 * 18 * 4096 * 8
        self.assertEqual(stats.im2col_bytes((4, 2, 64, 64), (16, 2, 3, 3), 1, 1, 8),
                         4 * 18 * 4096 * 8)
        self.assertEqual(stats.im2col_bytes((2, 16, 32, 32), (32, 16, 3, 3), 2, 1, 4),
                         2 * 144 * 256 * 4)


if __name__ == "__main__":
    unittest.main()
