"""Summary statistics and shape-derived operation counts for the benchmark.

Everything here is plain arithmetic over Python numbers, kept apart from the
timing code so the tests in ``bench/tests`` can check it exactly.
"""

import statistics

MIB = 1024.0 * 1024.0


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them
    (the default 'exclusive' method).  Needs at least two values."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median: the run-to-run spread the benchmark is judged by."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of values whose median is 0")
    return (q3 - q1) / abs(q2)


def conv_out_size(n, k, stride, padding):
    """Output length of a convolution along one axis (floor division)."""
    return (n + 2 * padding - k) // stride + 1


def conv2d_flops(x_shape, w_shape, stride, padding):
    """Multiply-adds of one conv2d forward, counted as 2 FLOPs each:
    2 * B * F * C * kh * kw * Ho * Wo."""
    b, c, h, w = x_shape
    f, c_w, kh, kw = w_shape
    if c != c_w:
        raise ValueError(f"input has {c} channels, weight expects {c_w}")
    ho = conv_out_size(h, kh, stride, padding)
    wo = conv_out_size(w, kw, stride, padding)
    return 2 * b * f * c * kh * kw * ho * wo


def conv2d_backward_flops(x_shape, w_shape, stride, padding):
    """The weight gradient and the input gradient are each one GEMM of the
    forward's size, so the backward costs twice the forward."""
    return 2 * conv2d_flops(x_shape, w_shape, stride, padding)


def im2col_bytes(x_shape, w_shape, stride, padding, itemsize):
    """Bytes of the [B, C*kh*kw, Ho*Wo] patch matrix a conv2d forward builds
    and keeps for its backward pass."""
    b, c, h, w = x_shape
    _, _, kh, kw = w_shape
    ho = conv_out_size(h, kh, stride, padding)
    wo = conv_out_size(w, kw, stride, padding)
    return b * c * kh * kw * ho * wo * itemsize
