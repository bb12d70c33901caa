"""Engine tests: loop-nest oracles for the spatial ops, finite differences
for every backward rule, and closed-form optimizer checks."""

import contextlib
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import closure_arrays, graph_of, held_bytes, held_owners, op_name, owner
from dualrec import autodiff as ad
from dualrec import cascade as cas
from dualrec.autodiff import (Adam, OptimizerState, Parameter, Tensor,
                              adam_step, grad_check)
from dualrec.errors import DimensionError, ParameterError, StateError
from dualrec.fidelity import cmul_const, df_single_t, vs_x_update_t, wab_t
from dualrec.fourier import fft2_t, ifft2c, ifft2_t
from dualrec.layers import mse_loss
from dualrec.masks import make_mask
from dualrec.networks import DoubleConv, PrnBlock, RsnBlock, UNet
from dualrec.phantoms import gen_coil_maps, load_dataset, make_dataset

SEEDS = list(range(20))


# --------------------------------------------------------------------------
# independent oracles: plain quadruple loops, no vectorization, no sharing
# with the implementation under test
# --------------------------------------------------------------------------

def conv2d_loops(x, w, b, stride, padding):
    bs, ci, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.zeros((bs, ci, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((bs, f, ho, wo))
    for n in range(bs):
        for o in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, c, i * stride + u, j * stride + v] * w[o, c, u, v]
                    out[n, o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def upconv2x2_loops(x, w, b):
    bs, ci, h, wd = x.shape
    f = w.shape[0]
    out = np.zeros((bs, f, 2 * h, 2 * wd))
    for n in range(bs):
        for o in range(f):
            for c in range(ci):
                for i in range(h):
                    for j in range(wd):
                        for u in range(2):
                            for v in range(2):
                                out[n, o, 2 * i + u, 2 * j + v] += x[n, c, i, j] * w[o, c, u, v]
            if b is not None:
                out[n, o] += b[o]
    return out


def maxpool2x2_loops(x):
    bs, ci, h, wd = x.shape
    out = np.zeros((bs, ci, h // 2, wd // 2))
    for n in range(bs):
        for c in range(ci):
            for i in range(h // 2):
                for j in range(wd // 2):
                    out[n, c, i, j] = max(x[n, c, 2 * i, 2 * j], x[n, c, 2 * i, 2 * j + 1],
                                          x[n, c, 2 * i + 1, 2 * j], x[n, c, 2 * i + 1, 2 * j + 1])
    return out


# --------------------------------------------------------------------------
# forward oracle equivalence
# --------------------------------------------------------------------------

class TestForwardOracles:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d_matches_loops(self, seed, stride, padding):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        want = conv2d_loops(x, w, b, stride, padding)
        assert np.max(np.abs(got.data - want)) < 1e-12

    @pytest.mark.parametrize("seed", SEEDS)
    def test_upconv2x2_matches_loops(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(2, 3, 2, 2))
        b = rng.normal(size=2)
        got = ad.upconv2x2(Tensor(x), Tensor(w), Tensor(b))
        want = upconv2x2_loops(x, w, b)
        assert np.max(np.abs(got.data - want)) < 1e-12

    @pytest.mark.parametrize("seed", SEEDS)
    def test_maxpool_matches_loops(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 8, 6))
        got = ad.maxpool2x2(Tensor(x))
        assert np.max(np.abs(got.data - maxpool2x2_loops(x))) < 1e-12

    def test_maxpool_tie_routes_to_first(self):
        x = np.zeros((1, 1, 2, 2))
        t = Tensor(x, requires_grad=True)
        out = ad.maxpool2x2(t)
        out.backward(np.ones((1, 1, 1, 1)))
        expect = np.zeros((1, 1, 2, 2))
        expect[0, 0, 0, 0] = 1.0  # all equal: first element in row-major order wins
        assert np.array_equal(t.grad, expect)

    def test_conv2d_rejects_even_kernel(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            ad.conv2d(Tensor(rng.normal(size=(1, 1, 4, 4))),
                      Tensor(rng.normal(size=(1, 1, 2, 2))))

    def test_conv2d_rejects_channel_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(rng.normal(size=(1, 2, 4, 4))),
                      Tensor(rng.normal(size=(1, 3, 3, 3))))

    def test_maxpool_rejects_odd_dims(self):
        with pytest.raises(DimensionError):
            ad.maxpool2x2(Tensor(np.zeros((1, 1, 5, 4))))


class TestAdjointIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_upconv_is_adjoint_of_stride2_conv(self, seed):
        # <conv(x), y> == <x, upconv(y)> with shared weights and zero bias;
        # conv maps F channels down to C with the transposed weight layout.
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(2, 3, 2, 2))  # [F,C,2,2]
        x = rng.normal(size=(1, 2, 8, 8))  # F channels
        y = rng.normal(size=(1, 3, 4, 4))  # C channels

        # stride-2 2x2 conv done by hand (conv2d rejects even kernels)
        conv_x = np.zeros((1, 3, 4, 4))
        for c in range(3):
            for o in range(2):
                for i in range(4):
                    for j in range(4):
                        for u in range(2):
                            for v in range(2):
                                conv_x[0, c, i, j] += x[0, o, 2 * i + u, 2 * j + v] * w[o, c, u, v]
        up_y = ad.upconv2x2(Tensor(y), Tensor(w)).data
        lhs = float(np.sum(conv_x * y))
        rhs = float(np.sum(x * up_y))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# --------------------------------------------------------------------------
# backward rules vs central differences
# --------------------------------------------------------------------------

def _fd_check(make_loss, tensors, tol=1e-6):
    report = grad_check(make_loss, tensors, tolerance=tol)
    assert report.passed, report


class TestBackward:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        _fd_check(lambda: ad.mean_all(ad.square(ad.conv2d(x, w, b, stride=2, padding=1))),
                  {"x": x, "w": w, "b": b})

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_transpose_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        _fd_check(lambda: ad.mean_all(ad.square(ad.upconv2x2(x, w, b))),
                  {"x": x, "w": w, "b": b})

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_maxpool_relu_chain_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)) + 0.05, requires_grad=True)
        _fd_check(lambda: ad.mean_all(ad.relu(ad.maxpool2x2(x))), {"x": x})

    @pytest.mark.parametrize("seed", SEEDS[:10])
    @pytest.mark.parametrize("op", [ad.exp, ad.sqrt, ad.square,
                                    lambda t: ad.log(t), lambda t: ad.leaky_relu(t, 0.2)])
    def test_unary_grads(self, seed, op):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(0.2, 2.0, size=(4, 5)), requires_grad=True)
        _fd_check(lambda: ad.mean_all(op(x)), {"x": x})

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_matmul_grads(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        _fd_check(lambda: ad.mean_all(ad.square(ad.matmul(c, ad.matmul(a, b)))),
                  {"a": a, "b": b, "c": c})

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_shape_op_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def loss():
            cat = ad.concat([x, y], axis=1)
            t = ad.transpose(cat, (1, 0, 2))
            sl = t[1:4, :, 2:]
            return ad.mean_all(ad.square(sl.reshape(-1, 2)))

        _fd_check(loss, {"x": x, "y": y})

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_reduction_and_scalar_broadcast_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        s = Tensor(np.asarray(rng.uniform(0.5, 1.5)), requires_grad=True)

        def loss():
            scaled = ad.mul(x, s)
            m = ad.mean_axes(ad.square(scaled), (1,))
            return ad.add(ad.sum_all(m), ad.mul(s, s))

        _fd_check(loss, {"x": x, "s": s})


# --------------------------------------------------------------------------
# stride-1 conv2d: shifted GEMMs over the padded input, no patch matrix
# --------------------------------------------------------------------------

@st.composite
def conv_cases(draw, strides=(1,)):
    """(x, w, b, stride, padding) with odd kernels up to 5 and any H x W the
    kernel fits in."""
    kh, kw = draw(st.sampled_from((1, 3, 5))), draw(st.sampled_from((1, 3, 5)))
    padding = draw(st.integers(0, 3))
    h = draw(st.integers(max(1, kh - 2 * padding), 9))
    w = draw(st.integers(max(1, kw - 2 * padding), 9))
    bs, c, f = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (rng.normal(size=(bs, c, h, w)), rng.normal(size=(f, c, kh, kw)),
            rng.normal(size=f), draw(st.sampled_from(strides)), padding)


class TestStride1Conv:
    @pytest.mark.parametrize("hw", [(5, 7), (6, 5)])
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1), (5, 0), (5, 1), (5, 2)])
    def test_grads(self, k, padding, hw):
        rng = np.random.default_rng(10 * k + padding)
        x = Tensor(rng.normal(size=(2, 2) + hw), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, k, k)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        # a random cotangent keeps every entry of dx well above the FD noise,
        # border pixels that only one tap reaches included
        r = Tensor(rng.normal(size=ad.conv2d(x, w, b, padding=padding).shape))
        _fd_check(lambda: ad.sum_all(ad.mul(ad.conv2d(x, w, b, padding=padding), r)),
                  {"x": x, "w": w, "b": b})

    @given(conv_cases())
    def test_forward_matches_loops(self, case):
        x, w, b, stride, padding = case
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        assert np.max(np.abs(got.data - conv2d_loops(x, w, b, stride, padding))) < 1e-12

    @given(conv_cases(strides=(1, 2)))
    def test_adjoint_of_conv_transpose(self, case):
        # <conv2d(x, w), y> == <x, conv_transpose2d(y, w)>, the transposed conv
        # mapping the F output channels back to the C input channels
        x, w, _, stride, padding = case
        cx = ad.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        y = np.random.default_rng(0).normal(size=cx.shape)
        ty = ad.conv_transpose2d(Tensor(y), Tensor(w.transpose(1, 0, 2, 3)), stride=stride,
                                 padding=padding, output_size=x.shape[2:]).data
        lhs, rhs = float(np.sum(cx * y)), float(np.sum(x * ty))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_upconv2x2_adjoint(self, bs, c, f, h, w, seed):
        # <upconv2x2(x), y> == <x, A^T y>, A^T the stride-2 2x2 correlation
        # of y with the same weights, written out on the 2x2 blocks of y
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(bs, c, h, w))
        wt = rng.normal(size=(f, c, 2, 2))
        y = rng.normal(size=(bs, f, 2 * h, 2 * w))
        blocks = y.reshape(bs, f, h, 2, w, 2)
        aty = np.einsum("bfiujv,fcuv->bcij", blocks, wt)
        lhs = float(np.sum(ad.upconv2x2(Tensor(x), Tensor(wt)).data * y))
        rhs = float(np.sum(x * aty))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_backward_keeps_no_patch_matrix(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 32, 64, 64)), requires_grad=True)
        w = Parameter(rng.normal(size=(32, 32, 3, 3)))
        b = Parameter(rng.normal(size=32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ad.conv2d(x, w, b, padding=1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y._backward is not None
        # the output plus small buffers; a kept im2col matrix would add 9x x
        assert kept < 2 * (x.data.nbytes + y.data.nbytes), kept


# --------------------------------------------------------------------------
# conv2d with a fused ReLU/LeakyReLU epilogue
# --------------------------------------------------------------------------

_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0)


@st.composite
def fused_cases(draw):
    """A conv case in float32 or float64 whose input, bias and one zeroed
    filter plant NaN, +-inf and exact +-0 pre-activations, and a slope."""
    x, w, b, stride, padding = draw(conv_cases(strides=(1, 2)))
    for _ in range(draw(st.integers(0, 3))):
        x.flat[draw(st.integers(0, x.size - 1))] = draw(st.sampled_from(_SPECIALS))
    if draw(st.booleans()):
        w[0] = draw(st.sampled_from((0.0, -0.0)))
        b[0] = draw(st.sampled_from(_SPECIALS))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return ([a.astype(dtype) for a in (x, w, b)], stride, padding,
            draw(st.sampled_from((0, 0.2))), r)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFusedActivation:
    @given(fused_cases())
    def test_matches_unfused_chain_bitwise(self, case):
        (x, w, b), stride, padding, slope, rng = case
        act = ad.relu if slope == 0 else (lambda t: ad.leaky_relu(t, slope))
        seed = None
        runs = []
        for fused in (True, False):
            xt, wt, bt = Parameter(x.copy()), Parameter(w.copy()), Parameter(b.copy())
            with np.errstate(invalid="ignore", over="ignore"):
                if fused:
                    y = ad.conv2d(xt, wt, bt, stride=stride, padding=padding, slope=slope)
                else:
                    y = act(ad.conv2d(xt, wt, bt, stride=stride, padding=padding))
                if seed is None:
                    seed = rng.normal(size=y.shape).astype(y.dtype)
                y.backward(seed)
            runs.append((y.data, xt.grad, wt.grad, bt.grad))
        for got, want in zip(*runs):
            assert _same_bits(got, want)
        # and the activation and its derivative as written out, NaN -> 0 for
        # ReLU: the linear conv seeded with g * (1 where pre > 0, else slope)
        xt, wt, bt = Parameter(x.copy()), Parameter(w.copy()), Parameter(b.copy())
        with np.errstate(invalid="ignore", over="ignore"):
            pre = ad.conv2d(xt, wt, bt, stride=stride, padding=padding)
            scale = np.where(pre.data > 0, 1.0, slope).astype(pre.dtype)
            formula = (np.where(pre.data > 0, pre.data, 0.0) if slope == 0 else
                       pre.data * scale)
            pre.backward(seed * scale)
        for got, want in zip(runs[0], (formula, xt.grad, wt.grad, bt.grad)):
            assert _same_bits(got, want)

    def test_two_backward_calls_double_grads(self):
        # a graph is walked once, so the second pass builds it again from the
        # same leaves; their gradients accumulate across the two walks
        rng = np.random.default_rng(2)
        x = Parameter(rng.normal(size=(2, 3, 6, 6)))
        w = Parameter(rng.normal(size=(4, 3, 3, 3)))
        b = Parameter(rng.normal(size=4))
        seed = rng.normal(size=(2, 4, 6, 6))
        ad.conv2d(x, w, b, padding=1, slope=0).backward(seed)
        first = [p.grad.copy() for p in (x, w, b)]
        ad.conv2d(x, w, b, padding=1, slope=0).backward(seed)
        for p, g in zip((x, w, b), first):
            assert np.array_equal(p.grad, 2.0 * g)

    def test_double_conv_keeps_no_pre_activation(self):
        rng = np.random.default_rng(5)
        block = DoubleConv(4, 8, rng).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 4, 16, 16)).astype(np.float32))
        target = np.zeros((2, 8, 16, 16), np.float32)
        c1, c2 = block.c1, block.c2
        a1 = c1(x)
        a2 = c2(a1)
        fused = mse_loss(a2, target)
        ops = {op_name(n) for n in graph_of(fused)}
        assert "conv2d" in ops and not {"relu", "leaky_relu"} & ops
        # each conv keeps its input, its weight and its activated output
        for out, inp, conv in ((a1, x, c1), (a2, a1, c2)):
            assert {id(owner(a)) for a in closure_arrays(out)} == {
                id(owner(inp.data)), id(conv.w.data), id(owner(out.data))}
        # the whole graph: those, the loss's difference and the parameters
        held = held_owners(fused)
        diff = [a for a in held.values() if a.shape == a2.shape
                and a is not owner(a1.data) and a is not owner(a2.data)]
        assert len(diff) == 1
        assert set(held) == {id(owner(a)) for a in [x.data, a1.data, a2.data, diff[0]]
                             + [p.data for p in block.parameters()]}
        pre = ad.conv2d(x, c1.w, c1.b, padding=1)
        unfused = mse_loss(ad.relu(ad.conv2d(ad.relu(pre), c2.w, c2.b, padding=1)), target)
        assert id(owner(pre.data)) not in held_owners(unfused)
        assert held_bytes(fused) <= held_bytes(unfused)
        fused.backward()
        want = [p.grad.copy() for p in block.parameters()]
        block.zero_grad()
        unfused.backward()
        assert all(_same_bits(p.grad, g) for p, g in zip(block.parameters(), want))

    def test_maxpool_keeps_nothing_input_sized(self):
        x = Parameter(np.random.default_rng(6).normal(size=(2, 3, 8, 8)))
        y = ad.maxpool2x2(x)
        held = closure_arrays(y)
        assert held and all(a.dtype == np.uint8 for a in held)
        assert sum(a.nbytes for a in held) < x.data.nbytes // 8


# --------------------------------------------------------------------------
# stride-1 conv2d one sample at a time, against the whole-batch formula
# --------------------------------------------------------------------------

def _pad_batch(x, padding, kw):
    bsz, c, h, wd = x.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    xf = np.zeros((bsz, c, hp * wp + kw - 1), dtype=x.dtype)
    xf[:, :, :hp * wp].reshape(bsz, c, hp, wp)[:, :, padding:padding + h,
                                                padding:padding + wd] = x
    return xf, hp, wp


def whole_batch_conv(x, w, b, padding, slope):
    """A stride-1 conv2d on the whole batch at once: batched shifted GEMMs over
    the padded batch, then the bias and the activation."""
    f, _, kh, kw = w.shape
    xf, hp, wp = _pad_batch(x, padding, kw)
    n = (hp - kh + 1) * wp
    taps = [(w[:, :, u, v], u * wp + v) for u, v in np.ndindex(kh, kw)]
    y = np.matmul(taps[0][0], xf[:, :, :n])
    for w_uv, s in taps[1:]:
        y += np.matmul(w_uv, xf[:, :, s:s + n])
    y = y.reshape(x.shape[0], f, hp - kh + 1, wp)[..., :wp - kw + 1]
    y = y + b.reshape(1, f, 1, 1) if b is not None else np.ascontiguousarray(y)
    if slope is None:
        return y
    return np.where(y > 0, y, 0.0) if slope == 0 else \
        y * np.where(y > 0, 1.0, slope).astype(y.dtype)


def whole_batch_grads(x, w, y, padding, slope, g):
    """(dx, dw, db) of that conv on the whole batch at once: the activation
    derivative applied to all of g, batched shifted GEMMs with dw summed over
    the batch, and the bias gradient summed over (0, 2, 3).  The per-sample
    kernels must reproduce these bits."""
    bsz, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    if slope is not None:
        g = g * ad.act_derivative(y, slope)
    xf, hp, wp = _pad_batch(x, padding, kw)
    ho, wo = g.shape[2:]
    n = ho * wp
    g_pad = np.zeros((bsz, f, ho, wp), dtype=g.dtype)
    g_pad[..., :wo] = g
    g_pad = g_pad.reshape(bsz, f, n)
    dw = np.empty(w.shape, dtype=g.dtype)
    dxf = np.zeros_like(xf)
    for u, v in np.ndindex(kh, kw):
        s = u * wp + v
        dw[:, :, u, v] = np.matmul(g_pad, xf[:, :, s:s + n].transpose(0, 2, 1)).sum(axis=0)
        dxf[:, :, s:s + n] += np.matmul(w[:, :, u, v].T, g_pad)
    dx = dxf[:, :, :hp * wp].reshape(bsz, c, hp, wp)[:, :, padding:padding + h,
                                                      padding:padding + wd]
    return dx, dw, g.sum(axis=(0, 2, 3))


@st.composite
def per_sample_cases(draw):
    """Batch 1-4, float32/float64, slope None/0/0.2, kernel 1/3/5 with
    padding 0..k//2, with or without a bias."""
    k = draw(st.sampled_from((1, 3, 5)))
    padding = draw(st.integers(0, k // 2))
    h, w = draw(st.integers(k - 2 * padding, 9)), draw(st.integers(k - 2 * padding, 9))
    bs, c, f = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, wt = rng.normal(size=(bs, c, h, w)), rng.normal(size=(f, c, k, k))
    b = rng.normal(size=f).astype(dtype) if draw(st.booleans()) else None
    g = rng.normal(size=(bs, f, h + 2 * padding - k + 1, w + 2 * padding - k + 1))
    return (x.astype(dtype), wt.astype(dtype), b, padding,
            draw(st.sampled_from((None, 0, 0.2))), g.astype(dtype))


def _peak(fn):
    """Bytes fn allocates at its peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _backward_peak(node, g):
    """Bytes the node's backward closure allocates at its peak, and the flow
    it leaves."""
    flow = {}
    return _peak(lambda: node._backward(g, flow)), flow


def _check_whole_batch_bits(x, w, b, padding, slope, g):
    xt, wt = Parameter(x.copy()), Parameter(w.copy())
    bt = None if b is None else Parameter(b.copy())
    y = ad.conv2d(xt, wt, bt, padding=padding, slope=slope)
    y.backward(g)
    want = whole_batch_conv(x, w, b, padding, slope)
    assert _same_bits(y.data, want)
    for p, ref in zip((xt, wt, bt), whole_batch_grads(x, w, want, padding, slope, g)):
        if p is not None:   # a leaf's grad is zeros + the routed gradient
            assert _same_bits(p.grad, np.zeros_like(ref) + ref)


class TestPerSampleConv:
    @given(per_sample_cases())
    def test_matches_whole_batch_bitwise(self, case):
        _check_whole_batch_bits(*case)

    # over 8192 pixels an image's bias-gradient sum depends on the layout it
    # is read from; a batch of 8 or more one-channel, one-filter samples
    # reduces its per-tap weight gradients pairwise, not one after another
    @pytest.mark.parametrize("slope", [None, 0, 0.2])
    @pytest.mark.parametrize("bs,c,f,hw", [(2, 2, 3, 100), (10, 1, 1, 6)])
    def test_edge_shapes_match_whole_batch_bitwise(self, bs, c, f, hw, slope):
        rng = np.random.default_rng(7)
        x, w = rng.normal(size=(bs, c, hw, hw)), rng.normal(size=(f, c, 3, 3))
        b, g = rng.normal(size=f), rng.normal(size=(bs, f, hw, hw))
        _check_whole_batch_bits(x, w, b, 1, slope, g)

    def test_backward_scratch_is_per_sample(self):
        rng = np.random.default_rng(8)
        x = Parameter(rng.normal(size=(4, 32, 64, 64)).astype(np.float32))
        w = Parameter(rng.normal(size=(32, 32, 3, 3)).astype(np.float32))
        b = Parameter(rng.normal(size=32).astype(np.float32))
        y = ad.conv2d(x, w, b, padding=1, slope=0)
        peak, flow = _backward_peak(y, rng.normal(size=y.shape).astype(np.float32))
        # dx plus one sample's padded input, gradient, dx and GEMM scratch;
        # the whole-batch kernels peaked at about 5x the input
        assert peak < 3 * x.data.nbytes, peak / x.data.nbytes
        assert flow[id(x)].shape == x.shape

    def test_batch1_peak_below_whole_batch(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 32, 64, 64)).astype(np.float32)
        w = rng.normal(size=(32, 32, 3, 3)).astype(np.float32)
        b = rng.normal(size=32).astype(np.float32)
        xt = Parameter(x)
        y = ad.conv2d(xt, Parameter(w), Parameter(b), padding=1, slope=0)
        g = rng.normal(size=y.shape).astype(np.float32)
        peak, flow = _backward_peak(y, g)
        # dx is a view of the padded dx buffer, as in the whole-batch kernels
        assert flow[id(xt)].base is not None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            whole_batch_grads(x, w, y.data, 1, 0, g)
            ref_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the masked gradient is freed before dx's buffers exist
        assert peak < ref_peak - g.nbytes // 2, (peak, ref_peak)

    @pytest.mark.parametrize("stride,slope", [(1, 0), (1, None), (2, 0.2)])
    def test_constant_input_gets_no_dx(self, stride, slope):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 16, 64, 64))
        w = rng.normal(size=(16, 16, 3, 3))
        b = rng.normal(size=16)
        grads = []
        for xt in (Tensor(x), Parameter(x.copy())):
            wt, bt = Parameter(w.copy()), Parameter(b.copy())
            y = ad.conv2d(xt, wt, bt, stride=stride, padding=1, slope=slope)
            peak, flow = _backward_peak(y, np.ones_like(y.data))
            grads.append((flow[id(wt)], flow[id(bt)]))
            if not xt.requires_grad:
                assert id(xt) not in flow
                # nothing the size of the input was allocated
                assert peak < x.nbytes, peak / x.nbytes
        for got, want in zip(*grads):
            assert _same_bits(got, want)


@st.composite
def stack_cases(draw):
    """1-3 channel-stacked parts of a stride-1 conv's input, each trainable
    or constant, with the conv's weight, optional bias, padding, slope and
    output seed, in float32 or float64."""
    chans = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    trainable = [draw(st.booleans()) for _ in chans]
    bs, f = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    k, padding = draw(st.sampled_from((1, 3))), draw(st.sampled_from((0, 1)))
    h, w = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    slope = draw(st.sampled_from((None, 0, 0.2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [rng.normal(size=(bs, c, h, w)).astype(dtype) for c in chans]
    wt = rng.normal(size=(f, sum(chans), k, k)).astype(dtype)
    b = rng.normal(size=f).astype(dtype) if draw(st.booleans()) else None
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    seed = rng.normal(size=(bs, f, ho, wo)).astype(dtype)
    return parts, trainable, wt, b, padding, slope, seed


class TestChannelStack:
    @given(stack_cases())
    def test_conv_matches_conv_of_concat_bitwise(self, case):
        parts, trainable, w, b, padding, slope, seed = case
        runs = []
        for stacked in (True, False):
            xs = [Parameter(p.copy()) if t else Tensor(p.copy())
                  for p, t in zip(parts, trainable)]
            wt = Parameter(w.copy())
            bt = None if b is None else Parameter(b.copy())
            x = ad.ChannelStack(xs) if stacked else ad.concat(xs, axis=1)
            y = ad.conv2d(x, wt, bt, padding=padding, slope=slope)
            routed = []
            flow_add = ad._flow_add

            def spy(flow, node, g):
                routed.append(node)
                flow_add(flow, node, g)

            ad._flow_add = spy
            try:
                y.backward(seed)
            finally:
                ad._flow_add = flow_add
            if stacked:     # a constant part gets no dx
                constants = [p for p, t in zip(xs, trainable) if not t]
                assert not any(n is p for n in routed for p in constants)
            runs.append([y.data, wt.grad, None if bt is None else bt.grad]
                        + [p.grad for p in xs])
        for got, want in zip(*runs):
            assert (got is None and want is None) or _same_bits(got, want)

    def test_shape_dtype_and_ndim_are_the_whole_stack(self):
        a = Tensor(np.zeros((2, 3, 4, 5), np.float32))
        b = Tensor(np.zeros((2, 1, 4, 5), np.float64))
        s = ad.ChannelStack([a, b])
        assert (s.shape, s.dtype, s.ndim) == ((2, 4, 4, 5), np.float64, 4)
        assert s.dtype == ad.concat([a, b], axis=1).dtype

    def test_bad_stacks_rejected(self):
        x = Tensor(np.zeros((2, 3, 4, 4)))
        with pytest.raises(ParameterError):
            ad.ChannelStack([])
        with pytest.raises(DimensionError):
            ad.ChannelStack([x, Tensor(np.zeros((2, 3, 4)))])
        for other in (np.zeros((1, 3, 4, 4)), np.zeros((2, 3, 4, 2))):
            with pytest.raises(DimensionError):
                ad.ChannelStack([x, Tensor(other)])
        with pytest.raises(DimensionError):
            ad.conv2d(ad.ChannelStack([x, x]), np.zeros((1, 3, 3, 3)))

    def test_strided_conv_rejects_a_stack(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        with pytest.raises(ParameterError, match="stride 1"):
            ad.conv2d(ad.ChannelStack([x, x]), np.zeros((1, 4, 3, 3)), stride=2, padding=1)


# --------------------------------------------------------------------------
# gradients only the backward walk holds, overwritten by the stride-1 conv
# --------------------------------------------------------------------------

@st.composite
def owned_chain_cases(draw):
    """1-3 trainable parts, one conv over them (a ChannelStack when there are
    several), then a second conv on its output: its dx is a gradient the walk
    alone holds, handed to the first conv.  Filters equal to the input
    channels with same-size padding let the first conv write dx into it."""
    chans = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    c = sum(chans)
    f = draw(st.sampled_from((c, c + 1)))
    bs, k = draw(st.integers(1, 4)), draw(st.sampled_from((1, 3)))
    padding = draw(st.sampled_from((k // 2, 0)))
    h, w = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    slopes = draw(st.sampled_from((None, 0, 0.2))), draw(st.sampled_from((None, 0, 0.2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [rng.normal(size=(bs, ci, h, w)).astype(dtype) for ci in chans]
    w1, w2 = (rng.normal(size=s).astype(dtype) for s in ((f, c, k, k), (2, f, 3, 3)))
    b1 = rng.normal(size=f).astype(dtype) if draw(st.booleans()) else None
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    seed = rng.normal(size=(bs, 2, ho, wo)).astype(dtype)
    return parts, w1, b1, padding, w2, slopes, seed


def _plain_walk(root, seed):
    """Walk root's graph in a topological order, handing each closure a
    plain dict flow of its own, which owns nothing, and summing what it
    routes as ``_flow_add`` does.  Returns each leaf's gradient, by id."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack += [(node, True)] + [(p, False) for p in node._parents]
    flow, leaves = {id(root): seed}, {}
    for node in reversed(order):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            leaves[id(node)] = g
            continue
        routed = {}
        node._backward(g, routed)
        for key, v in routed.items():
            flow[key] = flow[key] + v if key in flow else v
    return leaves


def _check_walks_agree(build, seed):
    """The walk of build()'s graph leaves, on every leaf, the bits the plain
    walk of a second build routes to it."""
    root, leaves = build()
    ref_root, ref_leaves = build()
    root.backward(seed)
    want = _plain_walk(ref_root, seed.copy())
    assert _same_bits(root.data, ref_root.data)
    for p, ref in zip(leaves, ref_leaves):
        g = want[id(ref)]
        assert _same_bits(p.grad, np.zeros_like(g) + g)


def _owned_chain(parts, w1, b1, padding, w2, slopes):
    """Root and leaves of the chain a case of owned_chain_cases describes."""
    xs = [Parameter(p.copy()) for p in parts]
    x = ad.ChannelStack(xs) if len(xs) > 1 else xs[0]
    wt1, wt2 = Parameter(w1.copy()), Parameter(w2.copy())
    bt1 = None if b1 is None else Parameter(b1.copy())
    y = ad.conv2d(ad.conv2d(x, wt1, bt1, padding=padding, slope=slopes[0]),
                  wt2, padding=1, slope=slopes[1])
    return y, [p for p in xs + [wt1, wt2, bt1] if p is not None]


def _relu_chain(rng, n, bsz, c, hw):
    """n stride-1 c->c ReLU convs on a trainable [bsz,c,hw,hw] float32 input."""
    y = Parameter(rng.normal(size=(bsz, c, hw, hw)).astype(np.float32))
    for _ in range(n):
        w = Parameter(0.1 * rng.normal(size=(c, c, 3, 3)).astype(np.float32))
        b = Parameter(rng.normal(size=c).astype(np.float32))
        y = ad.conv2d(y, w, b, padding=1, slope=0)
    return y


class TestOwnedGradients:
    @given(owned_chain_cases())
    def test_matches_a_walk_that_reuses_nothing_bitwise(self, case):
        *chain, seed = case
        _check_walks_agree(lambda: _owned_chain(*chain), seed)

    @pytest.mark.parametrize("slope", [0, 0.2])
    def test_gradient_shared_by_two_convs_is_not_overwritten(self, slope):
        # the last conv's dx is owned, and add hands it to both first convs
        rng = np.random.default_rng(11)
        xs, ws = rng.normal(size=(2, 4, 3, 6, 6)), rng.normal(size=(3, 3, 3, 3, 3))

        def build():
            leaves = [Parameter(a.copy()) for a in list(xs) + list(ws)]
            y = ad.add(ad.conv2d(leaves[0], leaves[2], padding=1, slope=slope),
                       ad.conv2d(leaves[1], leaves[3], padding=1, slope=slope))
            return ad.conv2d(y, leaves[4], padding=1, slope=slope), leaves

        _check_walks_agree(build, rng.normal(size=(4, 3, 6, 6)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_caller_seed_is_not_written(self, n):
        rng = np.random.default_rng(12)
        y = _relu_chain(rng, n, 4, 4, 8)
        seed = rng.normal(size=y.shape).astype(np.float32)
        kept = seed.copy()
        y.backward(seed)
        assert _same_bits(seed, kept)

    def test_conv_chain_walks_a_batch_gradient_below_plain_dicts(self):
        y = _relu_chain(np.random.default_rng(13), 3, 4, 32, 32)
        ref = _relu_chain(np.random.default_rng(13), 3, 4, 32, 32)
        seed = np.random.default_rng(14).normal(size=y.shape).astype(np.float32)
        peak = _peak(lambda: y.backward(seed))
        plain = _peak(lambda: _plain_walk(ref, seed))
        # the second and third convs write dx into the gradient they were
        # handed, with no masked copy of a sample
        assert peak <= plain - seed.nbytes, (peak, plain)


# --------------------------------------------------------------------------
# thin convs: the activated output is recomputed in backward, not kept
# --------------------------------------------------------------------------

@contextlib.contextmanager
def _counted_forwards():
    """A list that grows by one per stride-1 conv forward in the block."""
    calls, forward = [], ad._conv_s1_forward

    def spy(*args):
        calls.append(args[1].shape)
        return forward(*args)

    ad._conv_s1_forward = spy
    try:
        yield calls
    finally:
        ad._conv_s1_forward = forward


@st.composite
def thin_cases(draw):
    """A thin conv (a slope, 4*C <= F) over 1-2 input parts, a stride-1 conv
    reading its output alone or as a ChannelStack part beside a trainable
    side input, and a seed, at batch 1-4 in float32 or float64."""
    chans = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    c = sum(chans)
    f, f2 = draw(st.integers(4 * c, 4 * c + 2)), draw(st.integers(1, 3))
    bs, h, w = draw(st.integers(1, 4)), draw(st.integers(3, 6)), draw(st.integers(3, 6))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    slopes = draw(st.sampled_from((0, 0.2))), draw(st.sampled_from((None, 0, 0.2)))
    stacked = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def normal(*shape):
        return rng.normal(size=shape).astype(dtype)

    parts = [normal(bs, ck, h, w) for ck in chans]
    side = normal(bs, 1, h, w) if stacked else None
    return (parts, normal(f, c, 3, 3), normal(f), side,
            normal(f2, f + stacked, 3, 3), normal(f2), slopes, normal(bs, f2, h, w))


def _thin_walk(case, keep):
    """Values and gradients of a thin_cases graph after one walk, and the
    stride-1 conv forwards the walk ran; with ``keep`` the caller holds the
    thin conv's output through the walk."""
    parts, w1, b1, side, w2, b2, (s1, s2), seed = case
    leaves = [Parameter(a.copy()) for a in parts + [w1, b1, w2, b2]
              + ([] if side is None else [side])]
    xs, (p1, q1, p2, q2) = leaves[:len(parts)], leaves[len(parts):len(parts) + 4]
    y = ad.conv2d(xs[0] if len(xs) == 1 else ad.ChannelStack(xs), p1, q1,
                  padding=1, slope=s1)
    value = y.data.copy()
    z = ad.conv2d(y if side is None else ad.ChannelStack([y, leaves[-1]]), p2, q2,
                  padding=1, slope=s2)
    held = y if keep else None
    del y
    with _counted_forwards() as calls:
        z.backward(seed)
    del held
    return [value, z.data] + [t.grad for t in leaves], len(calls)


def _thin_pair(rng, dtype=np.float64):
    """A thin conv's leaves (x [2,2,8,8], w1 [16,2,3,3], b1) and the weight
    w2 [2,16,3,3] of a conv that reads its output."""
    return [Parameter(rng.normal(size=s).astype(dtype))
            for s in ((2, 2, 8, 8), (16, 2, 3, 3), (16,), (2, 16, 3, 3))]


class TestThinConv:
    @given(thin_cases())
    def test_recompute_matches_a_kept_output_bitwise(self, case):
        got, recomputed = _thin_walk(case, keep=False)
        want, reread = _thin_walk(case, keep=True)
        assert (recomputed, reread) == (1, 0)
        for a, b in zip(got, want):
            assert _same_bits(a, b)

    @pytest.mark.parametrize("c, f, slope, stride, thin", [
        (2, 8, 0, 1, True), (1, 4, 0.2, 1, True), (2, 7, 0, 1, False),
        (2, 8, None, 1, False), (2, 8, 0.2, 2, False)])
    def test_rule_reads_channel_counts_slope_and_stride(self, c, f, slope, stride, thin):
        rng = np.random.default_rng(30)
        x, w = Parameter(rng.normal(size=(1, c, 6, 6))), Parameter(rng.normal(size=(f, c, 3, 3)))
        y = ad.conv2d(x, w, stride=stride, padding=1, slope=slope)
        assert isinstance(y._node.remat, ad._Remat) == thin
        assert (y._node.remat is ad._KEPT) == (slope is not None and not thin)
        assert (id(owner(y.data)) in {id(owner(a)) for a in closure_arrays(y._node)}) == (
            slope is not None and not thin)

    def test_graph_holds_input_and_weights_but_no_output(self):
        x, w1, b1, w2 = _thin_pair(np.random.default_rng(31), np.float32)
        y = ad.conv2d(x, w1, b1, padding=1, slope=0)
        out = weakref.ref(y.data)
        z = ad.conv2d(y, w2, padding=1)
        del y
        assert out() is None
        leaves = (x.data, w1.data, b1.data, w2.data)
        assert set(held_owners(z)) == {id(a) for a in leaves}
        assert held_bytes(z) == sum(a.nbytes for a in leaves)

    def test_one_recompute_for_two_readers_and_none_after_the_walk(self):
        x, w1, b1, w2 = _thin_pair(np.random.default_rng(32))
        y = ad.conv2d(x, w1, b1, padding=1, slope=0)
        node = y._node
        z = ad.add(ad.conv2d(y, w2, padding=1), ad.conv2d(ad.ChannelStack([y]), w2, padding=1))
        del y
        with _counted_forwards() as calls:
            z.backward(np.ones(z.shape))
        assert calls == [w1.shape]
        assert node.remat is None and node._backward is ad._spent

    def test_no_recompute_while_the_caller_or_another_op_holds_the_output(self):
        leaves = _thin_pair(np.random.default_rng(33))
        runs = []
        for keep in (False, True):
            x, w1, b1, w2 = (Parameter(p.data.copy()) for p in leaves)
            y = ad.conv2d(x, w1, b1, padding=1, slope=0)
            z = ad.conv2d(y, w2, padding=1)
            held = y if keep else None
            del y
            with _counted_forwards() as calls:
                z.backward(np.ones(z.shape))
            del held
            runs.append((len(calls), [p.grad for p in (x, w1, b1, w2)]))
        assert [n for n, _ in runs] == [1, 0]
        assert all(_same_bits(a, b) for a, b in zip(runs[0][1], runs[1][1]))
        # square keeps the output until its closure has run, after the conv's
        x, w1, b1, _ = leaves
        y = ad.conv2d(x, w1, b1, padding=1, slope=0)
        w3 = Parameter(np.random.default_rng(37).normal(size=(2, 32, 3, 3)))
        z = ad.conv2d(ad.ChannelStack([y, ad.square(y)]), w3, padding=1)
        del y
        with _counted_forwards() as calls:
            z.backward(np.ones(z.shape))
        assert calls == []

    def test_no_remat_state_under_no_grad(self, monkeypatch):
        made = []

        class Counted(ad._Remat):
            __slots__ = ()

            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(ad, "_Remat", Counted)
        x, w1, b1, w2 = _thin_pair(np.random.default_rng(34))
        with ad.no_grad():
            y = ad.conv2d(x, w1, b1, padding=1, slope=0)
            z = ad.conv2d(y, w2, padding=1)
        consts = [Tensor(p.data) for p in (x, w1, b1)]
        c = ad.conv2d(*consts, padding=1, slope=0)
        assert y._node is None and z._node is None and c._node is None and not made
        y = ad.conv2d(x, w1, b1, padding=1, slope=0)
        assert len(made) == 1 and isinstance(y._node.remat, Counted)

    def test_each_sub_network_recomputes_its_thin_conv_once(self):
        # KI refinement head 2->8, II UNet first conv 2->8, Fu first conv 6->24;
        # the UNet's max-pool and up-conv outputs are rebuilt too
        block = RsnBlock(16, "fu_with_us", ki_hidden=8, ii_base=8, ii_depth=1,
                         fu_hidden=24, rng=np.random.default_rng(35))
        rng = np.random.default_rng(36)
        img, k = (Tensor(rng.normal(size=(2, 2, 16, 16))) for _ in range(2))
        loss = ad.sum_all(ad.square(block(img, k)))
        thin = [(8, 2, 3, 3), (8, 2, 3, 3), (24, 6, 3, 3)]
        notes = _noted(loss)
        assert sorted(op_name(n) for n in notes) == _OPS
        # a conv node's parents are its input, weight and bias
        assert sorted(n._parents[-2].shape for n in notes if op_name(n) == "conv2d") == thin
        rebuilt = _counted_rebuilds(notes)
        with _counted_forwards() as calls:
            loss.backward()
        assert sorted(calls) == thin and sorted(rebuilt) == _OPS


# --------------------------------------------------------------------------
# max-pool and up-conv outputs: rebuilt in backward, not kept
# --------------------------------------------------------------------------

_OPS = ["conv2d"] * 3 + ["conv_transpose2d", "maxpool2x2"]


def _noted(root):
    """The nodes of root's graph that carry a _Remat."""
    return [n for n in graph_of(root) if isinstance(getattr(n, "remat", None), ad._Remat)]


def _counted_rebuilds(nodes):
    """A list that grows by the op name of each node whose _Remat rebuilds
    its output."""
    rebuilt = []
    for n in nodes:
        def rebuild(name=op_name(n), inner=n.remat.rebuild):
            rebuilt.append(name)
            return inner()
        n.remat.rebuild = rebuild
    return rebuilt


def _argmax_pool(x):
    """The argmax reference of maxpool2x2: (value, uint8 index) of each
    window's first max, a NaN counting as the max."""
    b, c, h, w = x.shape
    flat = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = flat.reshape(b, c, h // 2, w // 2, 4)
    idx = flat.argmax(axis=-1)[..., None]
    return np.take_along_axis(flat, idx, axis=-1)[..., 0], idx[..., 0].astype(np.uint8)


def _nans(dtype):
    """NaNs of several signs and payloads."""
    bits = ([0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800001] if dtype == np.float32 else
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001])
    return np.array(bits, np.uint32 if dtype == np.float32 else np.uint64).view(dtype)


@st.composite
def pool_inputs(draw):
    """[B,C,2H,2W] arrays in float32 or float64 drawn from a few values, so
    windows tie, mix -0 and +0, and hold NaNs of several payloads."""
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 2)),
             2 * draw(st.integers(1, 3)), 2 * draw(st.integers(1, 3)))
    pool = np.concatenate([np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf], dtype),
                           _nans(dtype)])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    return pool[picks].reshape(shape)


@contextlib.contextmanager
def _holding(held):
    """Within the block, every max-pool and up-conv output is appended to
    the list ``held``, which holds it, unless held is None."""
    pool, upconv = ad.maxpool2x2, ad.upconv2x2
    if held is not None:
        ad.maxpool2x2 = lambda *a: held.append(pool(*a)) or held[-1]
        ad.upconv2x2 = lambda *a: held.append(upconv(*a)) or held[-1]
    try:
        yield
    finally:
        ad.maxpool2x2, ad.upconv2x2 = pool, upconv


def _unet_step(dtype, bs, seed, hold=False):
    """The loss and gradients of one training step of a depth-2 UNet (base
    4) on a [bs,2,8,8] input, the node of each max-pool and up-conv output,
    and the op names of the rebuilds.  With ``hold`` the caller holds those
    outputs through the walk, so none is rebuilt."""
    rng = np.random.default_rng(seed)
    net = UNet(2, 2, base=4, depth=2, rng=np.random.default_rng(seed)).astype(dtype)
    x = Parameter(rng.normal(size=(bs, 2, 8, 8)).astype(dtype))
    held = []
    with _holding(held if hold else None):
        loss = ad.sum_all(ad.square(net(x)))
    nodes = [n for n in graph_of(loss) if op_name(n) in ("maxpool2x2", "conv_transpose2d")]
    rebuilt = _counted_rebuilds(nodes)
    loss.backward()
    del held
    return [loss.data, x.grad] + [p.grad for p in net.parameters()], nodes, rebuilt


class TestRebuiltOutputs:
    @given(pool_inputs())
    def test_maxpool_value_and_index_match_the_argmax_reference(self, x):
        out, idx = ad._maxpool_forward(x)
        want, want_idx = _argmax_pool(x)
        assert _same_bits(out, want) and _same_bits(idx, want_idx)
        assert _same_bits(np.choose(idx, ad._pool_views(x)), want)

    def test_outputs_are_dead_before_backward(self):
        net = UNet(2, 2, base=4, depth=2, rng=np.random.default_rng(40))
        loss = ad.sum_all(ad.square(net(Tensor(np.random.default_rng(41).normal(
            size=(2, 2, 8, 8))))))
        notes = [n.remat for n in _noted(loss) if op_name(n) != "conv2d"]
        assert len(notes) == 4 and all(r.ref() is None and r.value is None for r in notes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bs", [1, 3])
    def test_gradients_match_a_walk_that_rebuilds_nothing_bitwise(self, dtype, bs):
        got, nodes, rebuilt = _unet_step(dtype, bs, 42 + bs)
        want, _, kept = _unet_step(dtype, bs, 42 + bs, hold=True)
        assert kept == [] and all(_same_bits(a, b) for a, b in zip(got, want))
        # each output is rebuilt once, and no note outlives the walk
        assert sorted(rebuilt) == ["conv_transpose2d"] * 2 + ["maxpool2x2"] * 2
        assert all(n.remat is None for n in nodes)

    def test_one_rebuild_for_two_readers(self):
        rng = np.random.default_rng(43)
        x, x2, w1, wu, w2 = (Parameter(rng.normal(size=s)) for s in
                             ((2, 4, 8, 8), (2, 4, 4, 4), (4, 4, 3, 3), (4, 4, 2, 2), (3, 4, 3, 3)))
        p = ad.maxpool2x2(ad.conv2d(x, w1, padding=1, slope=0))
        u = ad.upconv2x2(x2, wu)

        def two_readers(t):
            return ad.add(ad.conv2d(t, w2, padding=1),
                          ad.conv2d(ad.ChannelStack([t]), w2, padding=1))

        z = ad.add(two_readers(p), ad.maxpool2x2(two_readers(u)))
        del p, u
        nodes = _noted(z)
        rebuilt = _counted_rebuilds(nodes)
        z.backward(np.ones(z.shape))
        assert sorted(rebuilt) == ["conv_transpose2d", "maxpool2x2"]
        assert all(n.remat is None for n in nodes)

    def test_pool_of_a_thin_conv_output_rebuilds_both(self):
        runs = []
        for hold in (False, True):
            rng = np.random.default_rng(44)
            x, w1, b1, w2 = (Parameter(rng.normal(size=s)) for s in
                             ((2, 2, 8, 8), (8, 2, 3, 3), (8,), (3, 8, 3, 3)))
            y = ad.conv2d(x, w1, b1, padding=1, slope=0)
            p = ad.maxpool2x2(y)
            assert isinstance(p._node.remat, ad._Remat)
            z = ad.conv2d(p, w2, padding=1, slope=0.2)
            held = (y, p) if hold else None
            del y, p
            rebuilt = _counted_rebuilds(_noted(z))
            with _counted_forwards() as calls:
                z.backward(np.ones(z.shape))
            del held
            runs.append(([p.grad for p in (x, w1, b1, w2)], sorted(rebuilt), calls))
        assert runs[0][1:] == (["conv2d", "maxpool2x2"], [w1.shape])
        assert runs[1][1:] == ([], [])
        assert all(_same_bits(a, b) for a, b in zip(runs[0][0], runs[1][0]))

    def test_outputs_kept_where_the_graph_keeps_no_input(self):
        rng = np.random.default_rng(45)
        x, w1, w2 = (Parameter(rng.normal(size=s)) for s in
                     ((2, 4, 8, 8), (4, 4, 3, 3), (3, 4, 3, 3)))
        wc = Tensor(rng.normal(size=(4, 4, 2, 2)))
        # a pool over a leaf, a pool over a linear conv's output, and an
        # up-conv with constant weights: no note, and the graph holds what it
        # held before notes: the leaves, the output in its reader, the pool's
        # index or the up-conv's weights for dx, but not the input
        for make, extra in ((lambda t: ad.maxpool2x2(x), []),
                            (lambda t: ad.maxpool2x2(t), [w1.data]),
                            (lambda t: ad.upconv2x2(t, wc), [w1.data, wc.data])):
            y = ad.conv2d(x, w1, padding=1)
            dead = weakref.ref(y.data)
            out = make(y)
            z = ad.conv2d(out, w2, padding=1)
            del y
            assert out._node.remat is None and dead() is None
            producer = [a for a in closure_arrays(out._node) if a.dtype == np.uint8]
            want = {id(owner(a)) for a in [x.data, w2.data, out.data] + extra + producer}
            assert set(held_owners(z)) == want

    def test_no_note_under_no_grad(self, monkeypatch):
        made = []

        class Counted(ad._Remat):
            __slots__ = ()

            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(ad, "_Remat", Counted)
        net = UNet(2, 2, base=8, depth=2, rng=np.random.default_rng(46))
        x = Parameter(np.random.default_rng(47).normal(size=(1, 2, 8, 8)))
        with ad.no_grad():
            out = net(x)
        assert out._node is None and not made
        net(x)
        assert len(made) == 1 + 2 + 2     # the thin first conv, two pools, two up-convs

    def test_unet_step_peak_falls_by_its_pool_and_upconv_outputs(self):
        rng = np.random.default_rng(48)
        net = UNet(2, 2, base=16, depth=2, rng=np.random.default_rng(49)).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 2, 32, 32)).astype(np.float32))
        held = []

        def step(hold):
            with _holding(held if hold else None):
                loss = ad.sum_all(ad.square(net(x)))
            loss.backward()

        step(False)     # the first step warms the allocator
        plain = _peak(lambda: step(False))
        holding = _peak(lambda: step(True))
        outputs = sum(t.data.nbytes for t in held)
        assert outputs > 0 and plain < holding - outputs // 2


class TestGraphSemantics:
    def test_diamond_graph_accumulates(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
        y.backward()
        assert abs(float(x.grad) - 7.0) < 1e-12

    def test_two_backward_passes_sum(self):
        # one graph per walk, built twice from the same leaf
        x = Tensor(np.asarray(2.0), requires_grad=True)
        ad.mul(x, x).backward()
        first = float(x.grad)
        ad.mul(x, x).backward()
        assert abs(float(x.grad) - 2.0 * first) < 1e-12

    def test_second_walk_of_a_graph_raises(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        y = ad.mul(x, x)
        z = ad.add(y, x)
        z.backward()
        for node in (z, y):
            with pytest.raises(StateError, match="already walked"):
                node.backward()
        assert float(x.grad) == 5.0

    def test_walked_node_is_a_constant_to_a_new_graph(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        y = ad.mul(x, x)
        y.backward()
        x.zero_grad()
        ad.mul(y, x).backward()     # y is 9 now, with nothing behind it
        assert float(x.grad) == 9.0

    def test_walk_frees_each_interior_node(self):
        """After backward on a tiny DC-RSN training step, every interior
        node is gone while the loss itself is still held; no collector pass
        is needed, as the walk drops the references itself."""
        spec = cas.CascadeSpec(n_b=2, mode="fu_with_us", size=32, ki_hidden=2,
                               ii_base=2, ii_depth=1, fu_hidden=2)
        model = cas.build_model(spec)
        rng = np.random.default_rng(0)
        mask = make_mask("cartesian", 32, 32, 4, seed=0)
        us_k = np.where(mask.bits, rng.normal(size=(2, 32, 32))
                        + 1j * rng.normal(size=(2, 32, 32)), 0)
        us_image = Tensor(np.stack([ifft2c(us_k).real, ifft2c(us_k).imag], axis=1))
        gc.disable()
        try:
            loss = mse_loss(model(us_image, us_k, mask), np.zeros((2, 2, 32, 32)))
            refs = [weakref.ref(n) for n in graph_of(loss) if n._parents and n is not loss]
            assert len(refs) > 50
            loss.backward()
            assert [r for r in refs if r() is not None] == []
            assert loss.data.shape == () and not loss._parents
        finally:
            gc.enable()
        assert all(p.grad is not None for p in model.parameters())

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "matmul", "concat"])
    @pytest.mark.parametrize("const_first", [False, True])
    def test_no_gradient_is_routed_to_a_constant(self, op, const_first, monkeypatch):
        rng = np.random.default_rng(15)
        x = Parameter(rng.normal(size=(3, 3)))
        c = Tensor(rng.uniform(1.0, 2.0, size=(3, 3)))
        fn = (lambda a, b: ad.concat([a, b], axis=0)) if op == "concat" else getattr(ad, op)
        out = fn(*((c, x) if const_first else (x, c)))
        assert out._parents == (x,)
        routed, flow_add = [], ad._flow_add
        monkeypatch.setattr(ad, "_flow_add", lambda flow, node, g:
                            routed.append(node) or flow_add(flow, node, g))
        ad.sum_all(out).backward()
        assert any(n is x for n in routed) and not any(n is c for n in routed)
        assert x.grad is not None and c.grad is None

    def test_each_closure_keeps_what_its_gradient_reads(self):
        rng = np.random.default_rng(16)
        x = Parameter(rng.uniform(1.0, 2.0, size=(2, 2, 4, 4)))
        y = Parameter(rng.uniform(1.0, 2.0, size=(2, 2, 4, 4)))
        c = Tensor(rng.uniform(1.0, 2.0, size=(2, 2, 4, 4)))
        m, w = Parameter(rng.normal(size=(4, 4))), Parameter(rng.normal(size=(3, 2, 2, 2)))
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

        def own(*arrays):
            return {id(owner(a)) for a in arrays}

        cases = [
            (ad.mul(x, c), lambda o: own(c.data)), (ad.mul(c, x), lambda o: own(c.data)),
            (ad.mul(x, y), lambda o: own(x.data, y.data)),
            (ad.div(x, c), lambda o: own(c.data)), (ad.div(c, x), lambda o: own(c.data, x.data)),
            (ad.matmul(m, m), lambda o: own(m.data)),
            (ad.matmul(x, c[0, 0]), lambda o: own(c.data)),
            (ad.square(x), lambda o: own(x.data)), (ad.log(x), lambda o: own(x.data)),
            (ad.exp(x), lambda o: own(o.data)), (ad.sqrt(x), lambda o: own(o.data)),
            (ad.leaky_relu(x), lambda o: own(o.data)),
            (ad.conv_transpose2d(x, w), lambda o: own(x.data, w.data)),
            (ad.add(x, c), lambda o: set()), (ad.sub(c, x), lambda o: set()),
            (ad.neg(x), lambda o: set()), (ad.reshape(x, (4, 16)), lambda o: set()),
            (ad.transpose(x, (1, 0, 2, 3)), lambda o: set()), (x[0], lambda o: set()),
            (ad.concat([x, c], axis=1), lambda o: set()),
            (ad.repeat_axis(x[:, :1], 2, axis=1), lambda o: set()),
            (ad.sum_all(x), lambda o: set()), (ad.mean_all(x), lambda o: set()),
            (ad.sum_axes(x, (1,)), lambda o: set()), (ad.mean_axes(x, (2, 3)), lambda o: set()),
            (fft2_t(x), lambda o: set()), (ifft2_t(x), lambda o: set()),
        ]
        for out, want in cases:
            assert own(*closure_arrays(out)) == want(out), op_name(out)
        # the constant's real and imaginary parts, and no coil-sized value
        held = closure_arrays(cmul_const(x, z))
        assert held and all(a.shape == z.shape for a in held)

    def test_unread_value_is_freed_while_its_graph_lives(self):
        rng = np.random.default_rng(17)
        x = Parameter(rng.normal(size=(4, 4)))
        y = ad.add(x, x)
        unread = weakref.ref(y.data)
        loss = ad.sum_all(ad.mul(y, Tensor(np.full((4, 4), 3.0))))
        del y
        assert unread() is None and loss._parents
        y = ad.add(x, x)
        read = weakref.ref(y.data)
        loss2 = ad.sum_all(ad.square(y))
        del y
        assert read() is not None       # square's backward reads it
        loss2.backward()
        assert read() is None
        loss.backward()
        assert np.array_equal(x.grad, np.full((4, 4), 6.0) + 8.0 * x.data)

    def test_relu_backward_matches_fd_away_from_kink(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=200)
        data = data[np.abs(data) > 1e-6][:128]
        x = Tensor(data, requires_grad=True)
        y = ad.sum_all(ad.relu(x))
        y.backward()
        step = 1e-7
        for i in range(0, data.size, 17):
            orig = data[i]
            num = (max(orig + step, 0.0) - max(orig - step, 0.0)) / (2 * step)
            assert abs(x.grad[i] - num) < 1e-4

    def test_elementwise_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_detach_cuts_graph(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        y = ad.mul(x, x).detach()
        z = ad.mul(y, Tensor(np.asarray(3.0), requires_grad=False))
        z.backward()
        assert x.grad is None


class TestOptimizers:
    def test_adam_first_step_closed_form(self):
        # unit gradient from zero state: bias correction cancels and the
        # update is exactly lr / (1 + eps)
        lr, eps = 0.1, 1e-8
        p = Parameter(np.asarray(0.5))
        p.grad = np.asarray(1.0)
        st = OptimizerState(p.shape, p.dtype)
        adam_step(p, st, lr=lr, eps=eps)
        assert abs((0.5 - float(p.data)) - lr / (1.0 + eps)) < 1e-9

    def test_adam_descends_quadratic(self):
        p = Parameter(np.asarray([4.0, -3.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            loss = ad.sum_all(ad.square(p))
            loss.backward()
            opt.step()
        assert np.all(np.abs(p.data) < 1e-2)

    def test_adam_rejects_bad_lr(self):
        p = Parameter(np.asarray(0.0))
        p.grad = np.asarray(1.0)
        with pytest.raises(ParameterError):
            adam_step(p, OptimizerState(p.shape, p.dtype), lr=0.0)

    def test_sgd_step(self):
        p = Parameter(np.asarray(1.0))
        p.grad = np.asarray(0.5)
        ad.sgd_step(p, lr=0.1)
        assert abs(float(p.data) - 0.95) < 1e-12


# --------------------------------------------------------------------------
# graph-free inference
# --------------------------------------------------------------------------

def _tiny_spec(**kw):
    base = dict(family="dc_rsn", n_b=2, mode="fu_with_us", size=32,
                ki_hidden=4, ii_base=4, ii_depth=2, fu_hidden=8,
                seed=5, epochs=1, batch=2, lr=1e-3)
    base.update(kw)
    return cas.CascadeSpec(**base)


@pytest.fixture(scope="module")
def tiny_single(tmp_path_factory):
    root = tmp_path_factory.mktemp("nograd") / "ds"
    make_dataset("single", 5, 32, 4, "cartesian", seed=2, out_dir=root)
    ds = load_dataset(root)
    return ds, ds.staged


@pytest.fixture(scope="module")
def tiny_multi(tmp_path_factory):
    root = tmp_path_factory.mktemp("nograd_mc") / "ds"
    make_dataset("multi", 3, 32, 4, "cartesian", seed=4, n_coils=2, out_dir=root)
    ds = load_dataset(root)
    return ds, ds.staged


def _graph_ops(rng, dtype=np.float64):
    """Every op family once, on Parameters of ``dtype`` so each would record
    a node.  The complex constants (maps, spectra) stay complex128."""
    x = Parameter(rng.normal(size=(2, 2, 8, 8)).astype(dtype))
    w = Parameter(rng.normal(size=(3, 2, 3, 3)).astype(dtype))
    b = Parameter(rng.normal(size=(3,)).astype(dtype))
    wt = Parameter(rng.normal(size=(3, 2, 2, 2)).astype(dtype))
    s = Parameter(np.asarray(0.7, dtype=dtype))
    m = Parameter(rng.normal(size=(4, 4)).astype(dtype))
    mask = make_mask("cartesian", 8, 8, 2, seed=1)
    sens = gen_coil_maps(8, 8, 2, seed=1).stacked()
    us_k = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    y = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    xs = vs_x_update_t(x, sens, mask, y, 3.0, s)
    return {
        "add": ad.add(x, x), "sub": ad.sub(x, x), "mul": ad.mul(x, s),
        "div": ad.div(x, ad.add(s, s)), "neg": ad.neg(x), "exp": ad.exp(x),
        "log": ad.log(ad.square(x)), "sqrt": ad.sqrt(ad.square(x)),
        "relu": ad.relu(x), "leaky_relu": ad.leaky_relu(x),
        "reshape": ad.reshape(x, (2, 128)), "transpose": ad.transpose(x, (1, 0, 2, 3)),
        "getitem": x[0], "concat": ad.concat([x, x], axis=1),
        "repeat_axis": ad.repeat_axis(x[:, :1], 2, axis=1), "sum_all": ad.sum_all(x),
        "mean_all": ad.mean_all(x), "sum_axes": ad.sum_axes(x, (1,)),
        "mean_axes": ad.mean_axes(x, (2, 3)), "matmul": ad.matmul(m, m),
        "conv2d": ad.conv2d(x, w, b, padding=1),
        "conv2d_stride2": ad.conv2d(x, w, b, stride=2, padding=1),
        "conv2d_relu": ad.conv2d(x, w, b, padding=1, slope=0),
        "conv2d_leaky_stride2": ad.conv2d(x, w, b, stride=2, padding=1, slope=0.2),
        "conv_transpose2d": ad.conv_transpose2d(x, w, b),
        "upconv2x2": ad.upconv2x2(x, wt, b),
        "maxpool2x2": ad.maxpool2x2(x),
        "fft2_t": fft2_t(x), "ifft2_t": ifft2_t(x),
        "cmul_const": cmul_const(x, sens[0]),
        "df_single_t": df_single_t(x, us_k, mask),
        "df_single_t_soft": df_single_t(x, us_k, mask, lam=2.0),
        "vs_x_update_t": xs,
        "wab_t": wab_t(x, xs, sens, s, s),
    }


@pytest.fixture
def graph_nodes(monkeypatch):
    """Count of graph nodes (outputs with parents) built since the fixture
    was set up; read it with graph_nodes[0]."""
    count = [0]
    orig = ad._make

    def make(data, parents, backward):
        out = orig(data, parents, backward)
        count[0] += bool(out._parents)
        return out

    monkeypatch.setattr(ad, "_make", make)
    return count


class TestFloat32:
    """Every op on float32 inputs builds float32 nodes, routes float32
    gradients and leaves float32 ``.grad``: no op promotes to float64."""

    @pytest.mark.parametrize("name", sorted(_graph_ops(np.random.default_rng(0))))
    def test_op_stays_float32(self, name, monkeypatch):
        built, make = {}, ad._make

        def spy(data, parents, backward):   # the dtype each op node was built with
            out = make(data, parents, backward)
            built[id(out._node)] = out.dtype
            return out

        monkeypatch.setattr(ad, "_make", spy)
        out = _graph_ops(np.random.default_rng(0), np.float32)[name]
        nodes = {id(n): n for n in graph_of(out)}
        assert all((n.dtype if isinstance(n, Tensor) else built[i]) == np.float32
                   for i, n in nodes.items())
        held = [a for n in nodes.values() for a in closure_arrays(n)]
        assert all(a.dtype == np.float32 for a in held if a.dtype.kind in "fc")
        routed = []
        flow_add = ad._flow_add
        monkeypatch.setattr(ad, "_flow_add", lambda flow, node, g:
                            routed.append(g.dtype) or flow_add(flow, node, g))
        out.backward()
        assert routed and set(routed) == {np.dtype(np.float32)}
        params = [n for n in nodes.values() if isinstance(n, Parameter)]
        assert params and all(p.grad.dtype == np.float32 for p in params)


class TestNoGrad:
    def test_ops_record_no_graph(self):
        with_graph = _graph_ops(np.random.default_rng(0))
        assert all(t._parents and t._backward is not None
                   for t in with_graph.values())
        with ad.no_grad():
            bare = _graph_ops(np.random.default_rng(0))
        assert set(bare) == set(with_graph)
        for name, t in bare.items():
            assert t._parents == () and t._backward is None, name
            assert not t.requires_grad, name
            assert np.array_equal(t.data, with_graph[name].data), name

    def test_nesting_restores_outer_state(self):
        assert ad._grad_enabled
        with ad.no_grad():
            assert not ad._grad_enabled
            with ad.no_grad():
                assert not ad._grad_enabled
            assert not ad._grad_enabled
        assert ad._grad_enabled

    def test_exception_restores_state(self):
        with pytest.raises(DimensionError):
            with ad.no_grad():
                with ad.no_grad():
                    ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        assert ad._grad_enabled
        x = Parameter(np.asarray(2.0))
        ad.mul(x, x).backward()
        assert float(x.grad) == 4.0

    def test_training_step_after_inference_fills_grads(self, tiny_single):
        ds, staged = tiny_single
        spec = _tiny_spec()
        model = cas.build_model(spec, np.random.default_rng(spec.seed))
        cas.Reconstructor(spec, model).reconstruct(staged[0], ds.mask)
        assert all(p.grad is None for p in model.parameters())
        loss = cas._loss_for(cas.Reconstructor(spec, model), staged, [0, 1], ds.mask)
        assert loss._parents
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())
        assert any(np.any(p.grad != 0) for p in model.parameters())

    def test_reconstruct_matches_graph_forward_bitwise(self, tiny_single,
                                                       graph_nodes):
        ds, staged = tiny_single
        spec = _tiny_spec()
        model = cas.build_model(spec, np.random.default_rng(spec.seed))
        prn = PrnBlock(hidden=4, critic_base=4, rng=np.random.default_rng(1))
        # perturb the zero-initialized last conv so the refiner is not a no-op
        prn.c5.w.data[...] = np.random.default_rng(2).normal(
            scale=0.1, size=prn.c5.w.shape)
        rec = cas.Reconstructor(spec, model, prn=prn)
        for s in staged:
            out = model(Tensor(s["us_image"][None]), s["us_k"][None], ds.mask)
            out = prn.refine(out, s["us_k"][None], ds.mask)
            assert out._parents
            want = out.data[0, 0] + 1j * out.data[0, 1]
            before = graph_nodes[0]
            assert np.array_equal(rec.reconstruct(s, ds.mask), want)
            assert graph_nodes[0] == before

    def test_vs_rsn_reconstruct_matches_graph_forward_bitwise(self, tiny_multi,
                                                              graph_nodes):
        ds, staged = tiny_multi
        spec = _tiny_spec(family="vs_rsn", n_b=2, mode="ki_then_ii")
        model = cas.build_model(spec, np.random.default_rng(spec.seed))
        rec = cas.Reconstructor(spec, model)
        for s in staged:
            out = model(s["y"], s["sens"], ds.mask)
            assert out._parents
            want = out.data[0, 0] + 1j * out.data[0, 1]
            before = graph_nodes[0]
            assert np.array_equal(rec.reconstruct(s, ds.mask), want)
            assert graph_nodes[0] == before

    def test_val_loss_matches_graph_forward_bitwise(self, tiny_single, graph_nodes):
        ds, staged = tiny_single
        spec = _tiny_spec()
        rec = cas.Reconstructor(spec, cas.build_model(spec, np.random.default_rng(spec.seed)))
        ids = list(range(len(staged)))
        total = 0.0
        for batch in cas._batched(ids, 2):
            loss = cas._loss_for(rec, staged, batch, ds.mask)
            assert loss._parents
            total += float(loss.data) * len(batch)
        before = graph_nodes[0]
        assert cas._val_loss(rec, staged, ids, ds.mask, 2) == total / len(ids)
        assert graph_nodes[0] == before
