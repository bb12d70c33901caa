"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray plus an optional gradient accumulator.  The graph
is kept apart from the values.  An op's output Tensor holds its data and
points to a ``_Node``, which holds its parents' nodes and a closure that
routes the incoming gradient to them, and no data.  A leaf (a Parameter, or
any tensor with requires_grad) is its own node.  A constant input (no grad,
no graph) gets no node, and no closure routes a gradient to it.  Each
closure captures exactly the arrays its gradient formula reads, so an
intermediate value is freed as soon as the caller drops its Tensor, unless
a backward needs it.  ``Tensor.backward`` walks the graph once, in reverse
topological order, and frees it as it goes: each node drops its parents and
closure once its closure has run, so an array a closure kept is released as
soon as that closure is done.  A second backward from the same root raises
StateError; a walked node used in a new graph is a constant.  Gradients
written into ``.grad`` accumulate additively across walks of separate
graphs, so building a loss twice from the same leaves and walking each sums
their gradients.

The walk's flow table knows which gradients it alone holds.  A closure
routes an array with ``_flow_add``, or with ``_flow_give`` when it is fresh:
nothing else holds it, nor any view overlapping it.  ``_flow_give`` marks
the parent's gradient owned, and it stays owned when ``_flow_add`` later sums
into it, because a sum is fresh too.  When the walk reaches an owned node it
hands the node's closure that gradient as ``flow.spare``, which the closure
may overwrite.  ``conv2d`` gives its dx, and the stride-1 ``conv2d`` masks
an owned gradient in place and writes its dx into it, so a chain of convs
walks on one gradient buffer.  The root's seed may be the caller's array
and is never owned; a plain dict passed as the flow, as tests do, owns
nothing.

Elementwise binary ops require operands of identical shape, except that a
0-d tensor may scale/shift an array of any shape (needed for trainable
scalar weights).  Other implicit broadcasts: the conv bias add and the coil
expand of ``fidelity.cmul_const``.  Anything fancier must be spelled out with
reshape, repeat_axis, or concat, which keeps gradient routing easy to audit.
A ``ChannelStack`` is the channel concatenation of [B,C_k,H,W] tensors that
is never built as one array: a stride-1 ``conv2d`` takes it as input and
reads each part in place, so a concatenated copy never enters a graph.

All ops work in float64 or float32: an op on float32 inputs returns float32
and routes float32 gradients (tests/test_autodiff.py checks every op).  A
constant that enters a graph must carry its tensor's dtype, or be a Python
scalar, because under NumPy 2 a float64 array, even a 0-d one, promotes the
whole graph to float64.  Modules always build float64 parameters and
``phantoms.Dataset.staged`` holds data in float64, so inference, checkpoints,
metrics and the gradient checks run in float64.  Training runs in float32:
the one epoch loop of ``cascade`` casts the module with ``Module.astype``,
and every batch, to float32 for the duration of the loop and back to
float64 afterwards.

What each closure keeps:

* ``mul``, ``div``, ``matmul``: the other operand's array, and only when
  this operand needs a gradient (``div`` also keeps its denominator);
* ``conv2d``: its input's arrays (each ``ChannelStack`` part) and, with a
  slope, its activated output; a strided one (the critic) keeps its im2col
  patch matrix, kh*kw times its input, instead of the input;
* ``conv_transpose2d``/``upconv2x2``: its input;
* ``square``, ``log``: their input; ``exp``, ``sqrt``, ``leaky_relu``: their
  output; ``maxpool2x2``: its uint8 argmax indices;
* ``add``, ``sub``, ``neg``, ``reshape``, ``transpose``, ``concat``,
  ``getitem``, ``repeat_axis``, the sums and means, ``fourier.fft2_t``/
  ``ifft2_t`` and ``fidelity.cmul_const``: shapes and constants only.

A stride-1 ``conv2d`` (every convolution of the reconstruction networks)
works one sample at a time in forward and both gradients: kh*kw shifted
GEMMs over one zero-padded copy of the sample (each stacked part written
into its own rows), rebuilt in backward, so their scratch is one sample's
size.  Backward applies the activation derivative and sums the bias
gradient inside that per-sample loop, and hands each stacked part that
needs a gradient its channel slice of dx.  Neither kind of ``conv2d``
computes dx for a constant input.  ``conv2d(..., slope=s)`` applies ReLU
(s = 0) or LeakyReLU (0 < s < 1) in place on its output, so an activated
conv keeps its activated output only: backward reads the derivative from
the output's sign, and no pre-activation or mask lives in the graph.
``conv_transpose2d`` builds a patch matrix of the incoming gradient during
backward.

Inference that never calls ``backward`` should run under ``no_grad()``.
Inside that context every op returns a bare Tensor with no parents and no
backward closure, so intermediate buffers are freed as soon as the op
returns.  The values computed are identical either way; only the graph is
skipped.  The switch is process-wide, nests, and is restored on exit even
when an exception escapes the block.
"""

import contextlib

import numpy as np

from .errors import DimensionError, ParameterError, StateError


class Tensor:
    """An array in the computation.

    data            ndarray payload
    requires_grad   whether backward should accumulate into .grad (a leaf)
    grad            ndarray accumulator, allocated lazily, never reset implicitly

    An op output points to its graph node; ``_parents`` and ``_backward`` are
    that node's, or () and None for a tensor no op made.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------

    def zero_grad(self):
        self.grad = None

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def backward(self, seed=None):
        """Accumulate d(self)/d(leaf) into every reachable leaf with requires_grad.

        ``seed`` defaults to ones, so calling backward on a 0-d loss seeds 1.0.
        Flow gradients live in a private table during the walk and are added
        into ``.grad``, so walks of separate graphs sum there.  The walk pops
        each node off the topological order; once the node's closure has run,
        or when it got no gradient, its parents and closure are dropped, so an
        array a closure kept is freed as soon as that closure is done.
        A walked graph is spent: a second backward from its root raises
        StateError, and a walked node used again counts as a constant.
        A gradient routed with ``_flow_give`` is owned: the walk alone holds
        it, so the closure of its node gets it as ``flow.spare`` and may
        overwrite it.  The seed is never owned, so backward never writes it.
        """
        if self._backward is _spent:
            raise StateError("backward already walked this graph; build it again")
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise DimensionError(
                    f"backward seed shape {seed.shape} != tensor shape {self.data.shape}")
        root = _node_of(self)
        if root is None:    # a constant: nothing to route to
            return

        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        del seen, stack

        flow = _Flow({id(root): seed})     # the seed may be the caller's: never owned
        while order:
            node = order.pop()
            g = flow.pop(id(node), None)
            if id(node) in flow.owned:
                flow.owned.discard(id(node))
                flow.spare = g
            if g is not None and node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._backward is not None:
                if g is not None:
                    node._backward(g, flow)
                node._parents, node._backward = (), _spent
            flow.spare = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)


class Parameter(Tensor):
    """A trainable tensor; gets a dotted name when registered on a Module."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(np.array(data), requires_grad=True)
        self.name = name


class _Node:
    """The graph identity of an op output: its parents' nodes and the closure
    that routes its gradient to them.  It holds no data; the closure holds
    the arrays its gradient formula reads, and nothing else."""

    __slots__ = ("_parents", "_backward", "__weakref__")
    requires_grad = False

    def __init__(self, parents, backward):
        self._parents = parents
        self._backward = backward


def _node_of(t):
    """Where t's gradient goes: the node of the op that made t while it is
    unwalked, t itself for a leaf with requires_grad, else None (a constant,
    which no closure routes to)."""
    node = t._node
    if node is not None and node._parents:
        return node
    return t if t.requires_grad else None


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _spent(g, flow):
    """The closure left on a node once a backward walk has passed it: it
    routes nothing, so the node is a constant to any later graph."""


class _Flow(dict):
    """A backward walk's flow table, node id -> gradient.  ``owned`` holds
    the ids whose array nothing but the walk holds; ``spare`` is the
    gradient the running closure may overwrite, else None."""

    __slots__ = ("owned", "spare")

    def __init__(self, *args):
        super().__init__(*args)
        self.owned = set()
        self.spare = None


def _flow_add(flow, node, g):
    key = id(node)
    if key in flow:
        flow[key] = flow[key] + g
    else:
        flow[key] = g


def _flow_give(flow, node, g):
    """Route g, an array that nothing else holds nor any view overlapping
    it, to node, and mark the node's gradient owned: it is g itself or a sum
    ``_flow_add`` made.  A plain dict flow owns nothing."""
    _flow_add(flow, node, g)
    if isinstance(flow, _Flow):
        flow.owned.add(id(node))


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block; restores the previous state on exit."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, backward):
    """The op output Tensor of ``data``.  With grad enabled and a parent
    tensor that is not a constant, it points to a new node over its
    parents' nodes and the closure ``backward(g, flow)``."""
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(n for n in map(_node_of, parents) if n is not None)
        if nodes:
            out._node = _Node(nodes, backward)
    return out


def _check_elementwise(a, b):
    # identical shapes, or one side 0-d (trainable scalar broadcast)
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise DimensionError(f"elementwise op on shapes {a.shape} and {b.shape}")


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    # sum g over the axes broadcasting added (leading) or stretched (size 1)
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return np.sum(g, axis=axes).reshape(shape)


# -- elementwise arithmetic ---------------------------------------------

def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b)
    na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.shape, b.shape

    def backward(g, flow):
        if na is not None:
            _flow_add(flow, na, _reduce_to(g, a_shape))
        if nb is not None:
            _flow_add(flow, nb, _reduce_to(g, b_shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b)
    na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.shape, b.shape

    def backward(g, flow):
        if na is not None:
            _flow_add(flow, na, _reduce_to(g, a_shape))
        if nb is not None:
            _flow_add(flow, nb, _reduce_to(-g, b_shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b)
    na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.shape, b.shape
    # each operand's gradient reads the other operand
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def backward(g, flow):
        if na is not None:
            _flow_add(flow, na, _reduce_to(g * b_data, a_shape))
        if nb is not None:
            _flow_add(flow, nb, _reduce_to(g * a_data, b_shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b)
    na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.shape, b.shape
    a_data, b_data = a.data if nb is not None else None, b.data

    def backward(g, flow):
        if na is not None:
            _flow_add(flow, na, _reduce_to(g / b_data, a_shape))
        if nb is not None:
            _flow_add(flow, nb, _reduce_to(-g * a_data / (b_data * b_data), b_shape))

    return _make(a.data / b.data, (a, b), backward)


def neg(a):
    a = _as_tensor(a)
    na = _node_of(a)

    def backward(g, flow):
        _flow_add(flow, na, -g)

    return _make(-a.data, (a,), backward)


def exp(a):
    a = _as_tensor(a)
    na = _node_of(a)
    out_data = np.exp(a.data)

    def backward(g, flow):
        _flow_add(flow, na, g * out_data)

    return _make(out_data, (a,), backward)


def log(a):
    a = _as_tensor(a)
    na, a_data = _node_of(a), a.data

    def backward(g, flow):
        _flow_add(flow, na, g / a_data)

    return _make(np.log(a_data), (a,), backward)


def sqrt(a):
    a = _as_tensor(a)
    na = _node_of(a)
    out_data = np.sqrt(a.data)

    def backward(g, flow):
        _flow_add(flow, na, g * (0.5 / out_data))

    return _make(out_data, (a,), backward)


def square(a):
    a = _as_tensor(a)
    na, a_data = _node_of(a), a.data

    def backward(g, flow):
        _flow_add(flow, na, g * (2.0 * a_data))

    return _make(a_data * a_data, (a,), backward)


def _activate(y, slope):
    """where(y > 0, y, slope*y) written into y; ReLU (slope 0) maps NaN to 0."""
    if not 0 <= slope < 1:
        raise ParameterError(f"activation slope must be in [0, 1), got {slope}")
    if slope == 0:
        np.fmax(y, 0, out=y)
    else:
        np.multiply(y, y.dtype.type(slope), out=y, where=~(y > 0))
    return y


def act_derivative(out, slope):
    """d act/d pre as a factor for g, read from the activated output:
    out > 0 exactly where pre > 0."""
    if slope == 0:
        return out > 0
    return np.where(out > 0, 1.0, slope).astype(out.dtype)


def relu(a):
    return leaky_relu(a, 0)


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    na = _node_of(a)
    out = _activate(a.data.copy(), slope)

    def backward(g, flow):
        _flow_add(flow, na, g * act_derivative(out, slope))

    return _make(out, (a,), backward)


# -- shape ops ----------------------------------------------------------

def reshape(a, shape):
    a = _as_tensor(a)
    na, in_shape = _node_of(a), a.shape

    def backward(g, flow):
        _flow_add(flow, na, g.reshape(in_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes):
    a = _as_tensor(a)
    na = _node_of(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g, flow):
        _flow_add(flow, na, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), backward)


def getitem(a, idx):
    a = _as_tensor(a)
    na, in_shape = _node_of(a), a.shape

    def backward(g, flow):
        full = np.zeros(in_shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        _flow_add(flow, na, full)

    return _make(a.data[idx], (a,), backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ParameterError("concat of an empty sequence")
    nodes = [_node_of(t) for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors]).tolist()

    def backward(g, flow):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _flow_add(flow, n, g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


class ChannelStack:
    """The channel concatenation of [B,C_k,H,W] tensors, never built as one
    array.  A stride-1 ``conv2d`` takes it as its input: it writes each
    part's sample into its padded per-sample buffer and routes channel
    slices of dx only to the parts that need a gradient.  ``shape``,
    ``dtype`` and ``ndim`` are those of the whole stack."""

    __slots__ = ("parts", "shape", "dtype")

    def __init__(self, parts):
        parts = tuple(_as_tensor(p) for p in parts)
        if not parts:
            raise ParameterError("ChannelStack of an empty sequence")
        if any(p.ndim != 4 for p in parts):
            raise DimensionError(f"ChannelStack needs [B,C,H,W] parts, got "
                                 f"{[p.shape for p in parts]}")
        bsz, _, h, w = parts[0].shape
        if any(p.shape[0] != bsz or p.shape[2:] != (h, w) for p in parts):
            raise DimensionError(f"ChannelStack parts differ off the channel axis: "
                                 f"{[p.shape for p in parts]}")
        self.parts = parts
        self.shape = (bsz, sum(p.shape[1] for p in parts), h, w)
        self.dtype = np.result_type(*(p.dtype for p in parts))

    @property
    def ndim(self):
        return 4


def repeat_axis(a, reps, axis):
    """Tile a length-1 axis ``reps`` times (explicit broadcast)."""
    a = _as_tensor(a)
    if a.shape[axis] != 1:
        raise DimensionError(f"repeat_axis needs length-1 axis, got {a.shape[axis]}")
    na = _node_of(a)

    def backward(g, flow):
        _flow_add(flow, na, g.sum(axis=axis, keepdims=True))

    return _make(np.repeat(a.data, reps, axis=axis), (a,), backward)


# -- reductions ---------------------------------------------------------

def sum_all(a):
    a = _as_tensor(a)
    na, shape, dtype = _node_of(a), a.shape, a.dtype

    def backward(g, flow):
        _flow_add(flow, na, np.full(shape, g, dtype=dtype))

    return _make(np.asarray(a.data.sum()), (a,), backward)


def mean_all(a):
    a = _as_tensor(a)
    na, shape, dtype, n = _node_of(a), a.shape, a.dtype, a.size

    def backward(g, flow):
        _flow_add(flow, na, np.full(shape, g / n, dtype=dtype))

    return _make(np.asarray(a.data.mean()), (a,), backward)


def sum_axes(a, axes):
    a = _as_tensor(a)
    na, shape = _node_of(a), a.shape
    axes = tuple(sorted(axes))

    def backward(g, flow):
        expanded = np.expand_dims(g, axes)
        _flow_add(flow, na, np.broadcast_to(expanded, shape).copy())

    return _make(a.data.sum(axis=axes), (a,), backward)


def mean_axes(a, axes):
    a = _as_tensor(a)
    na, shape = _node_of(a), a.shape
    axes = tuple(sorted(axes))
    n = int(np.prod([a.shape[ax] for ax in axes]))

    def backward(g, flow):
        expanded = np.expand_dims(g / n, axes)
        _flow_add(flow, na, np.broadcast_to(expanded, shape).copy())

    return _make(a.data.mean(axis=axes), (a,), backward)


# -- linear algebra -----------------------------------------------------

def matmul(a, b):
    """Matrix product.  One operand may carry leading batch axes; the other
    must be a plain 2-d matrix."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands need ndim >= 2")
    if a.ndim > 2 and b.ndim > 2:
        raise DimensionError("at most one matmul operand may be batched")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims {a.shape[-1]} != {b.shape[-2]}")
    na, nb, a_shape, b_shape = _node_of(a), _node_of(b), a.shape, b.shape
    # each operand's gradient reads the other operand
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def backward(g, flow):
        if na is not None:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            if ga.shape != a_shape and ga.ndim > len(a_shape):
                ga = ga.reshape((-1,) + a_shape).sum(axis=0)
            _flow_add(flow, na, ga)
        if nb is not None:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            if gb.shape != b_shape and gb.ndim > len(b_shape):
                gb = gb.reshape((-1,) + b_shape).sum(axis=0)
            _flow_add(flow, nb, gb)

    return _make(np.matmul(a.data, b.data), (a, b), backward)


# -- spatial ops ----------------------------------------------------------
# A stride-1 conv2d keeps its input's arrays for backward and works one
# sample at a time, as kh*kw shifted GEMMs over one reused copy of the
# sample, zero-padded into a flat [C, Hp*Wp + kw-1] buffer: tap (u,v) reads
# the window [s, s + Ho*Wp) with s = u*Wp + v, and the last Wp-Wo columns of
# each window row are junk.  Its backward multiplies each sample's gradient by the
# activation derivative and adds that sample's bias-gradient sum inside the
# same loop, so no batch-sized scratch exists besides the returned dx.  When
# the walk alone holds the incoming gradient, the backward masks it in place
# and, if it has dx's shape, writes dx into it: no batch-sized scratch at all.
# Strided conv2d keeps its im2col ``cols``; the transposed convs build theirs
# from the incoming gradient in backward.

def _window(flat, hp, wp, top, h, w):
    """View of the h x w block at row and column ``top`` of a flat
    [C, Hp*Wp + ...] buffer."""
    return flat[:, :hp * wp].reshape(-1, hp, wp)[:, top:top + h, top:top + w]


def _pad_sample(xf, xs, i, hp, wp, padding):
    """Write sample i of the channel-stacked arrays xs into the padded flat
    buffer xf, each array into its own rows."""
    lo = 0
    for x in xs:
        c, h, wd = x.shape[1:]
        _window(xf[lo:lo + c], hp, wp, padding, h, wd)[...] = x[i]
        lo += c


def _stack_dims(xs):
    """(B, total C, H, W, dtype) of the channel-stacked arrays xs."""
    bsz, _, h, wd = xs[0].shape
    return bsz, sum(x.shape[1] for x in xs), h, wd, np.result_type(*xs)


def _conv_s1_forward(xs, w, padding):
    """Stride-1 conv2d of the channel-stacked arrays xs, one sample at a
    time, as a [B,F,Ho,Wo] view of a [B,F,Ho*Wp] accumulator whose last
    Wp-Wo columns per row are junk."""
    bsz, c, h, wd, dtype = _stack_dims(xs)
    f, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho = hp - kh + 1
    n = ho * wp
    taps = [(w[:, :, u, v], u * wp + v) for u, v in np.ndindex(kh, kw)]
    xf = np.zeros((c, hp * wp + kw - 1), dtype=dtype)
    y = np.empty((bsz, f, n), dtype=np.result_type(w, dtype))
    tmp = np.empty((f, n), dtype=y.dtype)
    for i in range(bsz):
        _pad_sample(xf, xs, i, hp, wp, padding)
        np.matmul(taps[0][0], xf[:, :n], out=y[i])
        for w_uv, s in taps[1:]:
            y[i] += np.matmul(w_uv, xf[:, s:s + n], out=tmp)
    return y.reshape(bsz, f, ho, wp)[..., :wp - kw + 1]


def _conv_s1_backward(g, xs, w, padding, y, slope, need_dx, need_db, spare):
    """(dx, dw, db) of the stride-1 conv2d, from the channel-stacked inputs
    xs rather than a patch matrix, one sample at a time.  With a slope, each
    sample's gradient is first multiplied by the activation derivative read
    from the output y, and if need_db its sum over the image is added to the
    bias gradient db.  dx, over the whole stack, is None unless need_dx; db
    is None unless slope and need_db.  Each sample's dx is summed in one
    padded buffer dxf, laid out like xf and zeroed per sample.  It and its
    GEMM scratch are made once per call, after the first sample's masked
    gradient is freed.  With a batch of one, dx is a view of dxf.

    ``spare`` says the backward walk alone holds g.  Then, with a slope and a
    C-contiguous g, each sample is masked in place in g rather than copied,
    and db is summed over that contiguous masked sample as over the copy.
    If the batch is above one and g has dx's shape and dtype, dx is g: the
    sample i of dx is written into g[i] once g[i] has been read."""
    bsz, c, h, wd, dtype = _stack_dims(xs)
    f, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho, wo = g.shape[2:]
    n = ho * wp
    xf = np.zeros((c, hp * wp + kw - 1), dtype=dtype)
    gf = np.zeros((f, n), dtype=g.dtype)
    dw_taps = np.empty((kh, kw, bsz, f, c), dtype=np.result_type(g, dtype))
    db = np.zeros(f, dtype=g.dtype) if slope is not None and need_db else None
    in_place = spare and slope is not None and g.flags.c_contiguous
    dx = None
    if need_dx and bsz > 1:
        reuse = in_place and g.shape == (bsz, c, h, wd) and g.dtype == dtype
        dx = g if reuse else np.empty((bsz, c, h, wd), dtype=dtype)
    dxf = tmp = None
    for i in range(bsz):
        _pad_sample(xf, xs, i, hp, wp, padding)
        gi = g[i]
        if slope is not None:
            gi = np.multiply(gi, act_derivative(y[i], slope), out=gi if in_place else None)
            if db is not None:
                db += gi.sum(axis=(1, 2))
        _window(gf, ho, wp, 0, ho, wo)[...] = gi
        del gi      # the first masked copy is freed before dxf is made
        for u, v in np.ndindex(kh, kw):
            s = u * wp + v
            np.matmul(gf, xf[:, s:s + n].T, out=dw_taps[u, v, i])
        if need_dx:
            if dxf is None:
                dxf, tmp = np.empty_like(xf), np.empty((c, n), dtype=g.dtype)
            dxf[...] = 0
            for u, v in np.ndindex(kh, kw):
                s = u * wp + v
                dxf[:, s:s + n] += np.matmul(w[:, :, u, v].T, gf, out=tmp)
            dxi = _window(dxf, hp, wp, padding, h, wd)
            if bsz == 1:    # a view of the padded buffer, as no copy is needed
                dx = dxi[None]
            else:       # g[i], when dx is g, has been read by now
                dx[i] = dxi
    dw = np.empty(w.shape, dtype=g.dtype)
    for u, v in np.ndindex(kh, kw):     # each tap summed over the batch at once
        dw[:, :, u, v] = dw_taps[u, v].sum(axis=0)
    return dx, dw, db


def _im2col(x, kh, kw, stride, padding):
    """[B,C,H,W] -> [B, C*kh*kw, Ho*Wo] patch matrix."""
    b, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, shape=(b, c, ho, wo, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3))
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, ho * wo)
    return np.ascontiguousarray(cols), ho, wo


def _col2im(cols, x_shape, kh, kw, stride, padding, ho, wo):
    """Adjoint of _im2col: scatter-add patches back into an image."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(b, c, kh, kw, ho, wo)
    for u in range(kh):
        for v in range(kw):
            out[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += cols[:, :, u, v]
    if padding:
        out = out[:, :, padding:hp - padding, padding:wp - padding]
    return out


def _conv_dx_raw(g, w, x_shape, stride, padding, ho, wo):
    b = g.shape[0]
    f, c, kh, kw = w.shape
    gm = g.reshape(b, f, ho * wo)
    cols = np.matmul(w.reshape(f, c * kh * kw).T, gm)
    return _col2im(cols, x_shape, kh, kw, stride, padding, ho, wo)


def _conv_dw_raw(g, cols, w_shape, ho, wo):
    b = g.shape[0]
    f, c, kh, kw = w_shape
    gm = g.reshape(b, f, ho * wo)
    dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(f, c, kh, kw)


def conv2d(x, w, b=None, stride=1, padding=0, slope=None):
    """2-d cross-correlation.  x:[B,C,H,W], or for stride 1 a ChannelStack,
    w:[F,C,kh,kw] with odd kh,kw, b:[F] or None.  Output [B,F,Ho,Wo].
    ``slope`` is the activation after the bias add: None is linear, 0 is
    ReLU, 0 < slope < 1 is LeakyReLU."""
    if isinstance(x, ChannelStack):
        if stride != 1:
            raise ParameterError(f"a ChannelStack input needs stride 1, got {stride}")
        parts = x.parts
    else:
        x = _as_tensor(x)
        parts = (x,)
    w = _as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError("conv2d expects x[B,C,H,W] and w[F,C,kh,kw]")
    f, c, kh, kw = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ParameterError(f"conv2d kernel dims must be odd, got {kh}x{kw}")
    if padding < 0:
        raise ParameterError("conv2d padding must be >= 0")
    if x.shape[1] != c:
        raise DimensionError(f"conv2d input has {x.shape[1]} channels, weight expects {c}")
    if b is not None:
        b = _as_tensor(b)
        if b.shape != (f,):
            raise DimensionError(f"conv2d bias shape {b.shape} != ({f},)")

    wd = w.data
    if stride == 1:
        xs = [p.data for p in parts]
        y = _conv_s1_forward(xs, wd, padding)

        def grads(g, s, need_dx, spare):
            return _conv_s1_backward(g, xs, wd, padding, kept, s, need_dx,
                                     nb is not None, spare)
    else:
        x_shape = x.shape
        cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
        y = np.matmul(wd.reshape(f, -1), cols).reshape(x_shape[0], f, ho, wo)

        def grads(g, s, need_dx, spare):
            dx = _conv_dx_raw(g, wd, x_shape, stride, padding, ho, wo) if need_dx else None
            return dx, _conv_dw_raw(g, cols, wd.shape, ho, wo), None
    y = y + b.data.reshape(1, f, 1, 1) if b is not None else np.ascontiguousarray(y)
    kept = None
    if slope is not None:   # backward reads the derivative from the output
        kept = _activate(y, slope)
    routes = [(_node_of(p), p.shape[1]) for p in parts]
    nw = _node_of(w)
    nb = None if b is None else _node_of(b)

    def backward(g, flow):
        s = slope
        if s is not None and (stride != 1 or f == 1):
            # the whole masked gradient: numpy sums a one-filter bias gradient
            # in one pairwise pass over the batch, unlike a per-sample total
            g, s = g * act_derivative(kept, s), None
        need_dx = any(n is not None for n, _ in routes)
        dx, dw, db = grads(g, s, need_dx, getattr(flow, "spare", None) is g)
        if nw is not None:
            _flow_add(flow, nw, dw)
        if dx is not None:
            lo = 0
            for n, c in routes:
                if n is not None:
                    _flow_give(flow, n, dx[:, lo:lo + c])
                lo += c
        if nb is not None:
            _flow_add(flow, nb, g.sum(axis=(0, 2, 3)) if db is None else db)

    parents = parts + ((w,) if b is None else (w, b))
    return _make(y, parents, backward)


def conv_transpose2d(x, w, b=None, stride=1, padding=0, output_size=None):
    """Transposed convolution (adjoint of conv2d in the spatial map).

    x:[B,C,H,W], w:[F,C,kh,kw]; out[b,f,si+u-p,sj+v-p] += x[b,c,i,j] w[f,c,u,v].
    ``output_size`` (Ho,Wo) overrides the default (H-1)*s + k - 2p, which is
    needed to invert convolutions whose floor division dropped rows.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError("conv_transpose2d expects x[B,C,H,W] and w[F,C,kh,kw]")
    f, c, kh, kw = w.shape
    if x.shape[1] != c:
        raise DimensionError(
            f"conv_transpose2d input has {x.shape[1]} channels, weight expects {c}")
    bsz, _, h, wdt = x.shape
    if output_size is None:
        ho = (h - 1) * stride + kh - 2 * padding
        wo = (wdt - 1) * stride + kw - 2 * padding
    else:
        ho, wo = output_size
    if b is not None:
        b = _as_tensor(b)
        if b.shape != (f,):
            raise DimensionError(f"conv_transpose2d bias shape {b.shape} != ({f},)")

    nx, nw = _node_of(x), _node_of(w)
    nb = None if b is None else _node_of(b)
    x_shape = x.shape
    x_data = x.data if nw is not None else None     # dw reads the input
    w_sw = w.data.transpose(1, 0, 2, 3)  # [C,F,kh,kw]
    y = _conv_dx_raw(x.data, w_sw, (bsz, f, ho, wo), stride, padding, h, wdt)
    if b is not None:
        y = y + b.data.reshape(1, f, 1, 1)

    def backward(g, flow):
        cols, gho, gwo = _im2col(g, kh, kw, stride, padding)
        if (gho, gwo) != (h, wdt):
            raise DimensionError("conv_transpose2d gradient shape mismatch")
        if nx is not None:
            _flow_add(flow, nx, np.matmul(w_sw.reshape(c, f * kh * kw), cols).reshape(x_shape))
        if nw is not None:
            dw_sw = _conv_dw_raw(x_data, cols, (c, f, kh, kw), h, wdt)
            _flow_add(flow, nw, dw_sw.transpose(1, 0, 2, 3))
        if nb is not None:
            _flow_add(flow, nb, g.sum(axis=(0, 2, 3)))

    parents = (x, w) if b is None else (x, w, b)
    return _make(y, parents, backward)


def upconv2x2(x, w, b=None):
    """Stride-2 transposed convolution with a 2x2 kernel: [B,C,H,W] -> [B,F,2H,2W].

    w has dims [F,C,2,2].  With shared weights and zero bias it is the adjoint
    of the stride-2 2x2 convolution.
    """
    w_t = _as_tensor(w)
    if w_t.shape[2:] != (2, 2):
        raise ParameterError(f"upconv2x2 kernel must be 2x2, got {w_t.shape[2:]}")
    return conv_transpose2d(x, w_t, b, stride=2, padding=0)


def maxpool2x2(x):
    """Non-overlapping 2x2 max pooling; ties resolved to the first element in
    row-major order.  H and W must be even."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise DimensionError("maxpool2x2 expects x[B,C,H,W]")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    win = x.data.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = win.reshape(b, c, h // 2, w // 2, 4)
    # argmax returns the first max: row-major tie rule
    idx = flat.argmax(axis=-1)[..., None].astype(np.uint8)
    out = np.take_along_axis(flat, idx, axis=-1)[..., 0]
    nx, dtype = _node_of(x), x.dtype

    def backward(g, flow):
        gf = np.zeros((b, c, h // 2, w // 2, 4), dtype=dtype)
        np.put_along_axis(gf, idx, g[..., None], axis=-1)
        gx = gf.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)
        _flow_add(flow, nx, gx)

    return _make(out, (x,), backward)


# -- optimizers ---------------------------------------------------------

class OptimizerState:
    """Per-parameter Adam state: first/second moment and step count."""

    __slots__ = ("m", "v", "t")

    def __init__(self, shape, dtype):
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.t = 0


def adam_step(param, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update in place.  Uses bias-corrected moment estimates:

        m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
        p <- p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)

    A parameter whose grad is None is skipped.
    """
    if lr <= 0:
        raise ParameterError(f"adam_step lr must be positive, got {lr}")
    g = param.grad
    if g is None:
        return
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * (g * g)
    m_hat = state.m / (1.0 - beta1 ** state.t)
    v_hat = state.v / (1.0 - beta2 ** state.t)
    param.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def sgd_step(param, lr):
    if lr <= 0:
        raise ParameterError(f"sgd_step lr must be positive, got {lr}")
    if param.grad is None:
        return
    param.data -= lr * param.grad


class Adam:
    """Convenience wrapper bundling OptimizerState per parameter; it steps
    at adam_step's eps."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.state = [OptimizerState(p.shape, p.dtype) for p in self.params]

    def step(self):
        for p, s in zip(self.params, self.state):
            adam_step(p, s, self.lr, self.beta1, self.beta2)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


class Sgd:
    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr

    def step(self):
        for p in self.params:
            sgd_step(p, self.lr)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


# -- finite difference checking -----------------------------------------

class GradCheckReport:
    """Result of comparing analytic gradients with central differences."""

    def __init__(self, max_rel_err, per_tensor, tolerance):
        self.max_rel_err = max_rel_err
        self.per_tensor = per_tensor
        self.tolerance = tolerance

    @property
    def passed(self):
        return self.max_rel_err < self.tolerance

    def __repr__(self):
        worst = max(self.per_tensor, key=self.per_tensor.get) if self.per_tensor else "-"
        return (f"GradCheckReport(max_rel_err={self.max_rel_err:.3e}, "
                f"tolerance={self.tolerance:.1e}, worst={worst}, passed={self.passed})")


def grad_check(fn, tensors, tolerance=1e-4, step=1e-5):
    """Compare analytic grads of scalar-valued ``fn`` against central differences.

    ``fn`` takes no arguments and returns a 0-d Tensor built from the given
    tensors; every element of every tensor in ``tensors`` (a dict name->Tensor
    with requires_grad) is perturbed by +-step.  Relative error per element is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    for t in tensors.values():
        t.zero_grad()
    loss = fn()
    if loss.ndim != 0:
        raise DimensionError("grad_check needs a scalar loss")
    loss.backward()

    per_tensor = {}
    worst = 0.0
    for name, t in tensors.items():
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(fn().data)
            flat[i] = orig - step
            fm = float(fn().data)
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        # treat both-tiny entries as exact; FD noise on a true zero is meaningless
        rel = np.where(np.maximum(np.abs(analytic), np.abs(numeric)) < 1e-7, 0.0, rel)
        err = float(np.max(rel)) if rel.size else 0.0
        per_tensor[name] = err
        worst = max(worst, err)
    return GradCheckReport(worst, per_tensor, tolerance)
