"""The benchmark's own unit tests (``bench/tests``) pass.

They check the benchmark's iteration clock, spans, statistics and output
checks without the library, and are written for ``unittest``; this runs
them with the rest of the suite, with the bench directory on ``sys.path``
as they expect.
"""

import io
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_unit_tests_pass():
    path = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        suite = unittest.defaultTestLoader.discover(str(BENCH / "tests"))
        out = io.StringIO()
        result = unittest.TextTestRunner(stream=out, verbosity=2).run(suite)
    finally:
        sys.path[:] = path
    assert result.testsRun > 0 and result.wasSuccessful(), out.getvalue()
