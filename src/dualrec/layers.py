"""Small neural-network building blocks over the autodiff engine.

Modules register Parameters and sub-Modules through attribute assignment and
expose named_parameters / state_dict for checkpointing.  Weight init is
Kaiming-uniform with an explicit numpy Generator so every network is
reproducible from a seed; fan-in counts input channels times kernel area.
Every module builds its parameters in float64; ``Module.astype`` casts them
in place, which is how ``cascade`` trains in float32.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DimensionError, StateError


def kaiming_uniform(rng, shape, fan_in):
    """U(-b, b) with b = sqrt(6 / fan_in), the ReLU-gain variant, in float64."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base class: tracks Parameters and child Modules by attribute name."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            full = f"{prefix}{name}"
            p.name = full
            yield full, p
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def modules(self):
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self):
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state):
        """Copy ``state`` into the parameters, which it must name exactly."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise StateError(f"state dict mismatch: missing={missing} extra={extra}")
        for name, arr in state.items():
            if own[name].shape != arr.shape:
                raise DimensionError(
                    f"param {name}: checkpoint shape {arr.shape} != model {own[name].shape}")
            own[name].data = np.array(arr, dtype=own[name].dtype)

    def astype(self, dtype):
        """Cast every parameter to ``dtype`` in place, dropping its
        gradient; returns the module."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        return self

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Conv2d(Module):
    """Convolution with an optional fused activation: ``slope`` None is
    linear, 0 is ReLU, 0 < slope < 1 is LeakyReLU (see ``autodiff.conv2d``).
    The activation holds no parameter, so state dicts do not see it."""

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0,
                 bias=True, zero_init=False, rng=None, slope=None):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.slope = slope
        shape = (out_ch, in_ch, kernel, kernel)
        if zero_init:
            w = np.zeros(shape)
        else:
            if rng is None:
                raise StateError("Conv2d needs an rng unless zero_init")
            w = kaiming_uniform(rng, shape, in_ch * kernel * kernel)
        self.w = Parameter(w)
        self.b = Parameter(np.zeros(out_ch)) if bias else None

    def forward(self, x):
        return ad.conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding,
                         slope=self.slope)


class UpConv2x2(Module):
    """Learnable 2x upsampling via stride-2 transposed convolution."""

    def __init__(self, in_ch, out_ch, rng):
        super().__init__()
        self.w = Parameter(kaiming_uniform(rng, (out_ch, in_ch, 2, 2), in_ch * 4))
        self.b = Parameter(np.zeros(out_ch))

    def forward(self, x):
        return ad.upconv2x2(x, self.w, self.b)


def mse_loss(pred, target):
    """Mean squared error; target may be a Tensor or ndarray constant."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=pred.dtype))
    if pred.shape != target.shape:
        raise DimensionError(f"mse_loss shapes {pred.shape} vs {target.shape}")
    d = ad.sub(pred, target)
    return ad.mean_all(ad.square(d))


def global_grad_norm(params):
    total = 0.0
    with np.errstate(over="ignore"):    # inf is a valid (diverged) answer
        for p in params:
            if p.grad is not None:
                total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))
