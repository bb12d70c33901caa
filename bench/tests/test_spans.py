"""Span bookkeeping and self time, on a scripted clock."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import NullTracer, Tracer, covered, nearest, self_times  # noqa: E402


def scripted(times):
    it = iter(times)
    return lambda: next(it)


class TestCovered(unittest.TestCase):
    def test_disjoint_overlapping_and_clipped(self):
        self.assertEqual(covered(0, 10, []), 0)
        self.assertEqual(covered(0, 10, [(1, 3), (5, 6)]), 3)
        self.assertEqual(covered(0, 10, [(1, 4), (2, 6)]), 5)
        self.assertEqual(covered(0, 10, [(-5, 2), (9, 20)]), 3)
        self.assertEqual(covered(0, 10, [(11, 12)]), 0)
        self.assertEqual(covered(0, 10, [(3, 4), (1, 2), (3.5, 5)]), 3)


class TestTracer(unittest.TestCase):
    def nested(self):
        # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
        t = Tracer(clock=scripted([0, 1, 2, 3, 4, 5, 9, 10]))
        root = t.open("root")
        a = t.open("a")
        a1 = t.open("a1")
        t.close(a1)
        t.close(a)
        b = t.open("b")
        t.close(b)
        t.close(root)
        return t

    def test_parents_follow_nesting(self):
        t = self.nested()
        self.assertEqual([s.parent for s in t.spans], [-1, 0, 1, 0])
        self.assertEqual([s.duration for s in t.spans], [10, 3, 1, 4])

    def test_self_time_subtracts_children_only(self):
        self.assertEqual(self_times(self.nested().spans), [3, 2, 1, 4])

    def test_self_times_sum_to_root_duration(self):
        t = self.nested()
        self.assertEqual(sum(self_times(t.spans)), t.spans[0].duration)

    def test_close_out_of_order_raises(self):
        t = Tracer(clock=scripted([0, 1, 2]))
        outer = t.open("outer")
        t.open("inner")
        with self.assertRaises(RuntimeError):
            t.close(outer)

    def test_count_goes_to_innermost_open_span(self):
        t = Tracer(clock=scripted([0, 1, 2, 3]))
        root = t.open("root")
        t.count("nodes")
        inner = t.open("inner")
        t.count("nodes", 2)
        t.count("nodes")
        t.close(inner)
        t.close(root)
        self.assertEqual([s.attrs for s in t.spans], [{"nodes": 1}, {"nodes": 3}])

    def test_nearest_enclosing_match(self):
        t = self.nested()
        self.assertEqual(nearest(t.spans, lambda s: s.name == "a"), [-1, 1, 1, -1])
        self.assertEqual(nearest(t.spans, lambda s: s.name == "root"), [0, 0, 0, 0])

    def test_null_tracer_records_nothing(self):
        t = NullTracer()
        idx = t.open("x")
        t.close(idx)
        self.assertFalse(hasattr(t, "spans"))


if __name__ == "__main__":
    unittest.main()
