"""Reconstruction networks and their composition.

The block vocabulary:

* KI: a DTLayer, mapping undersampled k-space straight to an image (exactly
  the inverse FFT at init, see ``fourier.DTLayer``).
* II: a UNet operating in the image domain, residual by default so the
  network learns the aliasing correction.
* Fu: a five-layer convolutional fusion net that merges KI/II outputs (and
  optionally the zero-filled input and a registered T1 image).  A constructed
  initialization makes it the exact channel-group average, so fusion starts
  no worse than the plain mean.
* RsnBlock: the seven composition modes over KI/II/Fu.
* GolfModule: a UNet trained to regress the gradient-of-log map of the clean
  image; its decoder features, resized and projected by one fixed convolution,
  form a guidance stack other networks consume through zero-initialized
  injection convs (a no-op until training moves them).
* PrnBlock: a small residual refiner whose output always passes through hard
  spectrum replacement, plus the critic used to train it adversarially.

Complex images travel as 2-channel (re, im) tensors of shape [B,2,H,W].
The inputs of the Fu net and of each UNet decoder stage are channel stacks
(``autodiff.ChannelStack``) that their first convolution reads in place, so
no concatenated copy enters a graph.
Every convolution followed by an activation is one ``Conv2d`` built with a
``slope`` (ReLU, or LeakyReLU 0.2 in the critic), so a training graph keeps
the activated outputs only.
"""

import math

import numpy as np

from . import autodiff as ad
from ._filters import bilinear_resize
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, DomainError, ParameterError, StateError
from .fidelity import df_single_t
from .fourier import DTLayer, fft2_t
from .layers import Conv2d, Module, UpConv2x2

RSN_MODES = ("ki_only", "ii_only", "ki_then_ii", "ii_then_ki",
             "mean", "fu", "fu_with_us")


def gol(image, eps=1e-6):
    """Gradient-of-log map of a nonnegative image.

    Forward differences of log(image + eps); the far edge (last column for
    the x channel, last row for the y channel) is zero-padded.  Returns
    [2,H,W]: channel 0 differentiates along the width axis, channel 1 along
    the height axis.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3 and img.shape[0] == 1:
        img = img[0]
    if img.ndim != 2:
        raise DimensionError(f"gol expects [H,W] or [1,H,W], got {img.shape}")
    if eps <= 0:
        raise ParameterError("gol eps must be positive")
    if np.any(img < 0):
        raise DomainError("gol input must be nonnegative")
    lg = np.log(img + eps)
    out = np.zeros((2,) + img.shape)
    out[0, :, :-1] = lg[:, 1:] - lg[:, :-1]
    out[1, :-1, :] = lg[1:, :] - lg[:-1, :]
    return out


class DoubleConv(Module):
    """Two 3x3 convolutions, each with a fused ReLU."""

    def __init__(self, in_ch, out_ch, rng):
        super().__init__()
        self.c1 = Conv2d(in_ch, out_ch, 3, padding=1, rng=rng, slope=0)
        self.c2 = Conv2d(out_ch, out_ch, 3, padding=1, rng=rng, slope=0)

    def forward(self, x):
        return self.c2(self.c1(x))


class UNet(Module):
    """Encoder-decoder with skip connections.

    ``residual`` adds the input to the output and zero-initializes the final
    convolution, so the net starts as the identity.  ``golf_channels`` adds a
    zero-initialized bias-free injection conv whose output joins the final
    convolution's (equivalent to widening that conv with zero-initialized
    extra-input weights).
    """

    def __init__(self, in_ch, out_ch, base=32, depth=3, residual=False,
                 golf_channels=0, rng=None):
        super().__init__()
        if depth < 1:
            raise ParameterError("unet depth must be >= 1")
        if residual and in_ch != out_ch:
            raise ParameterError("residual unet needs in_ch == out_ch")
        if rng is None:
            rng = np.random.default_rng(0)
        self.depth = depth
        self.residual = residual
        self._enc, self._dec, self._ups = [], [], []
        ch = in_ch
        for i in range(depth):
            width = base * (2 ** i)
            block = DoubleConv(ch, width, rng)
            setattr(self, f"enc{i}", block)
            self._enc.append(block)
            ch = width
        self.mid = DoubleConv(ch, 2 * ch, rng)
        ch *= 2
        for i in range(depth - 1, -1, -1):
            width = base * (2 ** i)
            up = UpConv2x2(ch, width, rng)
            block = DoubleConv(2 * width, width, rng)
            setattr(self, f"up{i}", up)
            setattr(self, f"dec{i}", block)
            self._ups.append(up)
            self._dec.append(block)
            ch = width
        self.final = Conv2d(ch, out_ch, 3, padding=1,
                            zero_init=residual, rng=rng)
        self.inject = None
        if golf_channels:
            self.inject = Conv2d(golf_channels, out_ch, 3, padding=1,
                                 zero_init=True, bias=False)

    def forward(self, x, golf=None, return_features=False):
        if x.ndim != 4:
            raise DimensionError(f"unet expects [B,C,H,W], got {x.shape}")
        h, w = x.shape[2], x.shape[3]
        step = 2 ** self.depth
        if h % step or w % step:
            raise DimensionError(
                f"unet depth {self.depth} needs dims divisible by {step}, got {h}x{w}")
        skips = []
        t = x
        for enc in self._enc:
            t = enc(t)
            skips.append(t)
            t = ad.maxpool2x2(t)
        t = self.mid(t)
        features = []
        for up, dec, skip in zip(self._ups, self._dec, reversed(skips)):
            t = dec(ad.ChannelStack([skip, up(t)]))
            if return_features:
                features.append(t)
        out = self.final(t)
        if golf is not None:
            if self.inject is None:
                raise ConfigError("unet was built without guidance channels")
            out = ad.add(out, self.inject(golf))
        elif self.inject is not None:
            raise ConfigError("unet expects guidance features")
        if self.residual:
            out = ad.add(out, x)
        if return_features:
            return out, features
        return out


class FuNet(Module):
    """Five 3x3 convolutions, hidden width ``hidden``, ReLU on the first
    four, linear final layer."""

    def __init__(self, in_ch, out_ch, hidden=32, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.c1 = Conv2d(in_ch, hidden, 3, padding=1, rng=rng, slope=0)
        self.c2 = Conv2d(hidden, hidden, 3, padding=1, rng=rng, slope=0)
        self.c3 = Conv2d(hidden, hidden, 3, padding=1, rng=rng, slope=0)
        self.c4 = Conv2d(hidden, hidden, 3, padding=1, rng=rng, slope=0)
        self.c5 = Conv2d(hidden, out_ch, 3, padding=1, rng=rng)

    def forward(self, x):
        return self.c5(self.c4(self.c3(self.c2(self.c1(x)))))

    @classmethod
    def averaging(cls, n_groups, out_ch, hidden=32, rng=None):
        """Construct weights so the output equals the mean of the first two
        of ``n_groups`` input channel groups (each ``out_ch`` wide), the
        KI and II outputs of an ``RsnBlock``.

        Every input channel j is split into a positive and a negative lane
        (2j, 2j+1) by the first layer; relu(x) - relu(-x) = x recovers it.
        Middle layers pass those lanes through unchanged (their values are
        nonnegative, so ReLU is transparent); lanes beyond 2*in_ch keep
        random weights so training has live capacity from the start.  The
        final layer averages the lanes of the first two groups and is zero
        elsewhere.
        """
        in_ch = n_groups * out_ch
        if n_groups < 2:
            raise ParameterError(f"n_groups must be at least 2, got {n_groups}")
        if hidden < 2 * in_ch:
            raise ParameterError(
                f"averaging init needs hidden >= {2 * in_ch}, got {hidden}")
        net = cls(in_ch, out_ch, hidden=hidden, rng=rng)
        w1 = np.zeros_like(net.c1.w.data)
        for j in range(in_ch):
            w1[2 * j, j, 1, 1] = 1.0
            w1[2 * j + 1, j, 1, 1] = -1.0
        w1[2 * in_ch:] = net.c1.w.data[2 * in_ch:]
        net.c1.w.data = w1
        net.c1.b.data[:] = 0.0
        for conv in (net.c2, net.c3, net.c4):
            w = conv.w.data.copy()
            w[:2 * in_ch] = 0.0
            for c in range(2 * in_ch):
                w[c, c, 1, 1] = 1.0
            conv.w.data = w
            conv.b.data[:] = 0.0
        w5 = np.zeros_like(net.c5.w.data)
        for j in range(2 * out_ch):     # channel j % out_ch of the first two groups
            w5[j % out_ch, 2 * j, 1, 1] = 0.5
            w5[j % out_ch, 2 * j + 1, 1, 1] = -0.5
        net.c5.w.data = w5
        net.c5.b.data[:] = 0.0
        return net


class RsnBlock(Module):
    """One reconstruction block: KI and/or II, optionally merged by Fu.

    mode selects the composition; fu modes stack channel groups in the order
    (KI, II[, zero-filled input][, T1]) and initialize Fu to average the
    first two groups.  Guidance features (``golf_inject``) enter both the KI
    refinement head and the II decoder through zero-initialized convs.
    """

    def __init__(self, size, mode, ki_hidden=16, ii_base=16, ii_depth=2,
                 fu_hidden=32, t1_assist=False, golf_inject=False,
                 golf_channels=8, rng=None):
        super().__init__()
        if mode not in RSN_MODES:
            raise ConfigError(f"unknown rsn mode {mode!r}; pick from {RSN_MODES}")
        if t1_assist and mode not in ("fu", "fu_with_us"):
            raise ConfigError("t1_assist requires a fu mode (T1 joins the Fu stack)")
        if rng is None:
            rng = np.random.default_rng(0)
        self.mode = mode
        self.t1_assist = t1_assist
        self.golf_inject = golf_inject
        gch = golf_channels if golf_inject else 0
        self.ki = None
        self.ii = None
        self.fu = None
        if mode != "ii_only":
            self.ki = DTLayer(size, hidden=ki_hidden, golf_channels=gch, rng=rng)
        if mode != "ki_only":
            self.ii = UNet(2, 2, base=ii_base, depth=ii_depth, residual=True,
                           golf_channels=gch, rng=rng)
        if mode in ("fu", "fu_with_us"):
            groups = 2 + (1 if mode == "fu_with_us" else 0) + (1 if t1_assist else 0)
            self.fu = FuNet.averaging(groups, 2, hidden=max(fu_hidden, 4 * groups),
                                      rng=rng)

    def _require(self, t1, golf):
        if self.t1_assist and t1 is None:
            raise ConfigError("block was built with t1_assist; pass t1")
        if not self.t1_assist and t1 is not None:
            raise ConfigError("block was built without t1_assist")
        if self.golf_inject and golf is None:
            raise ConfigError("block was built with golf_inject; pass golf features")
        if not self.golf_inject and golf is not None:
            raise ConfigError("block was built without golf_inject")

    def forward(self, us_image, us_kspace, t1=None, golf=None):
        """us_image/us_kspace: [B,2,H,W] tensors (image and its spectrum);
        t1: [B,2,H,W] (imaginary channel zero); golf: [B,G,H,W]."""
        self._require(t1, golf)
        mode = self.mode
        if mode == "ki_only":
            return self.ki(us_kspace, golf=golf)
        if mode == "ii_only":
            return self.ii(us_image, golf=golf)
        if mode == "ki_then_ii":
            return self.ii(self.ki(us_kspace, golf=golf), golf=golf)
        if mode == "ii_then_ki":
            return self.ki(fft2_t(self.ii(us_image, golf=golf)), golf=golf)
        a = self.ki(us_kspace, golf=golf)
        b = self.ii(us_image, golf=golf)
        if mode == "mean":
            return ad.mul(ad.add(a, b), 0.5)
        stack = [a, b]
        if mode == "fu_with_us":
            stack.append(us_image)
        if self.t1_assist:
            stack.append(t1)
        return self.fu(ad.ChannelStack(stack))


class GolfModule(Module):
    """Guidance-feature extractor.

    The UNet is trained to regress gol(target) from a magnitude image; after
    training, decoder feature maps are bilinearly resized to the input size,
    concatenated, and projected to ``feature_depth`` channels by a single
    fixed 1x1 convolution followed by ReLU.  The reducer is a frozen random
    projection: no loss ever touches it, it only mixes trained features.
    """

    def __init__(self, feature_depth=8, base=16, depth=3, eps=1e-6, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.feature_depth = feature_depth
        self.eps = eps
        self.unet = UNet(1, 2, base=base, depth=depth, residual=False, rng=rng)
        total = sum(base * (2 ** i) for i in range(depth))
        self.reducer = Conv2d(total, feature_depth, 1, rng=rng, slope=0)
        self.trained = False

    def predict_gol(self, x):
        """x: [B,1,H,W] magnitude in [0,1] -> predicted [B,2,H,W] gol map."""
        return self.unet(x)

    def features(self, x):
        if not self.trained:
            raise StateError("guidance module is untrained; train it or load weights")
        if x.ndim != 4 or x.shape[1] != 1:
            raise DimensionError(f"features expect [B,1,H,W], got {x.shape}")
        h, w = x.shape[2], x.shape[3]
        _, level_maps = self.unet(x, return_features=True)
        parts = [bilinear_resize(f.data, h, w) for f in level_maps]
        stacked = Tensor(np.concatenate(parts, axis=1))
        return self.reducer(stacked)


class PrnBlock(Module):
    """Residual five-layer refiner followed by hard spectrum replacement.

    The final conv starts at zero, so at init refine() is df_single of its
    input.  w_adv/w_dist weight the adversarial and MSE terms of the
    generator loss during adversarial training.
    """

    def __init__(self, channels=2, hidden=32, w_adv=1.0, w_dist=0.1,
                 critic_base=16, rng=None):
        super().__init__()
        if not (math.inf > w_adv > w_dist > 0):
            raise ParameterError(
                f"need finite w_adv > w_dist > 0, got {w_adv}, {w_dist}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.w_adv = w_adv
        self.w_dist = w_dist
        self.c1 = Conv2d(channels, hidden, 3, padding=1, rng=rng, slope=0)
        self.c2 = Conv2d(hidden, hidden, 3, padding=1, rng=rng, slope=0)
        self.c3 = Conv2d(hidden, hidden, 3, padding=1, rng=rng, slope=0)
        self.c4 = Conv2d(hidden, hidden, 3, padding=1, rng=rng, slope=0)
        self.c5 = Conv2d(hidden, channels, 3, padding=1, zero_init=True)
        self.critic = Critic(in_ch=channels, base=critic_base, rng=rng)

    def re_net(self, x):
        return ad.add(x, self.c5(self.c4(self.c3(self.c2(self.c1(x))))))

    def re_parameters(self):
        return [p for name, p in self.named_parameters()
                if not name.startswith("critic.")]

    def refine(self, recon, us_kspace, mask):
        """recon [B,2,H,W] -> refined [B,2,H,W]; measured frequencies of the
        output equal us_kspace on the mask exactly."""
        if recon.ndim != 4 or recon.shape[1] != 2:
            raise DimensionError(f"refine expects [B,2,H,W], got {recon.shape}")
        return df_single_t(self.re_net(recon), us_kspace, mask)


class Critic(Module):
    """Four stride-2 convolutions (LeakyReLU 0.2 between) and a global
    average: image -> unbounded scalar score per batch item."""

    def __init__(self, in_ch=2, base=16, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        widths = (base, 2 * base, 4 * base)
        conv = dict(stride=2, padding=1, rng=rng)
        self.c1 = Conv2d(in_ch, widths[0], 3, slope=0.2, **conv)
        self.c2 = Conv2d(widths[0], widths[1], 3, slope=0.2, **conv)
        self.c3 = Conv2d(widths[1], widths[2], 3, slope=0.2, **conv)
        self.c4 = Conv2d(widths[2], 1, 3, **conv)

    def forward(self, x):
        """x [B,C,H,W] -> scores [B]."""
        return ad.mean_axes(self.c4(self.c3(self.c2(self.c1(x)))), (1, 2, 3))

    def input_gradient(self, x):
        """Gradient of the summed scores with respect to x, built as a graph
        over the critic weights so a penalty on it can train them.

        The chain applies each convolution's exact adjoint (transposed conv
        with matching output_size) and multiplies by the LeakyReLU slope
        pattern recorded during the forward pass.  Those patterns are locally
        constant in the weights, so treating them as constants yields the
        true derivative away from activation kinks.
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        convs = (self.c1, self.c2, self.c3, self.c4)
        masks, sizes = [], []
        t = x.data
        for conv in convs:
            sizes.append(t.shape[2:])
            t = ad.conv2d(Tensor(t), conv.w.data, conv.b.data, stride=conv.stride,
                          padding=conv.padding, slope=conv.slope).data
            if conv.slope is not None:
                masks.append(ad.act_derivative(t, conv.slope))
        n_avg = t.shape[1] * t.shape[2] * t.shape[3]
        g = Tensor(np.full(t.shape, 1.0 / n_avg, dtype=t.dtype))
        for i, conv in reversed(list(enumerate(convs))):
            wt = ad.transpose(conv.w, (1, 0, 2, 3))
            g = ad.conv_transpose2d(g, wt, stride=conv.stride, padding=conv.padding,
                                    output_size=sizes[i])
            if i > 0:
                g = ad.mul(g, Tensor(masks[i - 1]))
        return g


def gradient_penalty(critic, interpolates):
    """Mean (||grad_x critic(x)|| - 1)^2 over the batch, as a graph node."""
    g = critic.input_gradient(interpolates)
    norms = ad.sqrt(ad.sum_axes(ad.square(g), (1, 2, 3)))
    one = Tensor(np.ones_like(norms.data))
    return ad.mean_all(ad.square(ad.sub(norms, one)))
