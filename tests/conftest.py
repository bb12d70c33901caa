"""Shared oracle helpers for the test suite.

numpy.fft appears here and only here (plus the per-module test files); the
package itself never imports it.  The centered orthonormal convention is
realized with explicit index shifts.
"""

import numpy as np
from hypothesis import settings

# Every property test in the suite: derandomized, with no example database,
# and no per-example deadline.  A test that needs more examples says so in its
# own @settings.
settings.register_profile("dualrec", max_examples=60, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("dualrec")


def oracle_fft2(z):
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(z, axes=(-2, -1)),
                                       norm="ortho"), axes=(-2, -1))


def oracle_ifft2(z):
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(z, axes=(-2, -1)),
                                        norm="ortho"), axes=(-2, -1))


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
