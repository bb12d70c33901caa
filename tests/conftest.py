"""Shared oracle helpers, spec strategies and autodiff graph introspection
for the test suite.

numpy.fft appears here and only here (plus the per-module test files); the
package itself never imports it.  The centered orthonormal convention is
realized with explicit index shifts.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from dualrec.autodiff import Tensor

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


# -- spec dicts over types and edge values --------------------------------
# Each field draws, with even odds, a value that is valid on its own (edges
# such as 1e-300, 1e308 or 2**70 included) or one that is not: a wrong JSON
# type, 0, -1, nan or inf.  Only fields whose cost does not grow with their
# value draw a huge one: a huge width, cascade depth or epoch count is a
# valid spec that would not train in a tiny epoch.  The size stays 32 or
# invalid, so a valid spec always matches the 32x32 datasets it trains on.

_NAN, _INF, _HUGE_F, _HUGE_I = float("nan"), float("inf"), 1e308, 10 ** 18
_TYPES = (None, True, "1", [1])


def _edges(valid, invalid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


_COUNT = _edges((1,), (0, -1, 1.0) + _TYPES)
_WIDTH = _edges((1, 2), (0, -1, 2.5) + _TYPES)
_DEPTH = _edges((1, 2), (0, -1, 6, _HUGE_I, 1.0) + _TYPES)
_RATE = _edges((1e-3, 1e-300, _HUGE_F), (0, -1.0, _NAN, _INF) + _TYPES)
_WEIGHT = _edges((1.0, 0.5, 0.1, 1e-300, _HUGE_F), (0.0, -1.0, _NAN, _INF, "1", None))

TINY_SPEC = dict(family="dc_rsn", n_b=1, mode="ki_then_ii", size=32, ki_hidden=2,
                 ii_base=2, ii_depth=1, fu_hidden=2, golf_feature_depth=2,
                 golf_base=2, golf_depth=1, seed=0, epochs=1, batch=4, lr=1e-3)
SPEC_EDGES = {
    "family": _edges(("dc_rsn", "vs_rsn"), ("resnet", 1, None)),
    "mode": _edges(("ki_then_ii", "fu", "fu_with_us"), ("bogus", 3)),
    "assists": _edges(("none", "golf", "t1", "t1_golf"), ("x", None)),
    "size": _edges((32,), (31, 0, -1, 32.0, "32", None)),
    "n_b": _COUNT, "epochs": _COUNT,
    "ki_hidden": _WIDTH, "ii_base": _WIDTH, "fu_hidden": _WIDTH,
    "golf_feature_depth": _WIDTH, "golf_base": _WIDTH,
    "ii_depth": _DEPTH, "golf_depth": _DEPTH,
    "batch": _edges((1, 4, _HUGE_I), (0, -1, 2.0) + _TYPES),
    "seed": _edges((0, 7, 2 ** 70), (-1, 0.5) + _TYPES),
    "t1_shift": _edges((0, 1, 8), (9, -1, _HUGE_I, 1.0) + _TYPES),
    "lam": _edges(("inf", 3.0, 1e-300, _HUGE_F, _INF), ("huge", 0, -1.0, _NAN, None)),
    "alpha": _WEIGHT, "beta": _WEIGHT, "lr": _RATE,
}
PRN_EDGES = {
    "hidden": _WIDTH, "critic_base": _WIDTH, "epochs": _COUNT,
    "critic_steps": _edges((1, 2), (0, -1, 1.0) + _TYPES),
    "w_adv": _WEIGHT, "w_dist": _WEIGHT, "lr_critic": _RATE, "lr_re": _RATE,
    "gp_coeff": _edges((10.0, 0, _HUGE_F), (-1.0, _NAN, _INF) + _TYPES),
}


@st.composite
def spec_dicts(draw):
    """The tiny spec of a drawn valid family, assists and mode, with up to
    three fields, and maybe a prn object of up to three keys, replaced by
    values drawn from the tables above."""
    d = dict(TINY_SPEC, family=draw(st.sampled_from(("dc_rsn", "vs_rsn"))))
    if d["family"] == "dc_rsn":
        d["assists"] = draw(st.sampled_from(("none", "golf", "t1", "t1_golf")))
    modes = ("fu", "fu_with_us") if d.get("assists") in ("t1", "t1_golf") else \
        ("ki_then_ii", "ii_then_ki", "mean", "ki_only", "ii_only", "fu", "fu_with_us")
    d["mode"] = draw(st.sampled_from(modes))
    for name in draw(st.sets(st.sampled_from(sorted(SPEC_EDGES)), max_size=3)):
        d[name] = draw(SPEC_EDGES[name])
    if draw(st.booleans()):
        keys = draw(st.sets(st.sampled_from(sorted(PRN_EDGES)), max_size=3))
        d["prn"] = {k: draw(PRN_EDGES[k]) for k in sorted(keys)}
    return d


def dataset_kind(d):
    """The dataset kind a spec dict trains on (any kind if it is invalid)."""
    if d.get("family") == "vs_rsn":
        return "multi"
    return "paired" if d.get("assists") in ("t1", "t1_golf") else "single"


# -- autodiff graph introspection -----------------------------------------

def owner(a):
    """The array whose buffer a views (a itself if it owns its buffer)."""
    while a.base is not None:
        a = a.base
    return a


def graph_of(root):
    """root, then every node of its graph: op nodes and leaf tensors."""
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack.extend(node._parents)
    return list(found.values())


def op_name(node):
    return node._backward.__qualname__.split(".")[0] if node._backward else None


def closure_arrays(node):
    """The arrays a node's backward closure holds, also inside lists and
    tuples, and those of the closures it holds (conv2d's ``grads``)."""
    found, stack = [], [node._backward]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(c.cell_contents for c in v.__closure__)
    return found


def held_owners(root):
    """{id: buffer} of every distinct buffer a graph keeps alive: the data
    of its leaves plus the arrays its backward closures hold.  The root's
    own data is the caller's."""
    arrays = [a for node in graph_of(root) for a in closure_arrays(node)]
    arrays += [n.data for n in graph_of(root) if isinstance(n, Tensor) and n is not root]
    return {id(owner(a)): owner(a) for a in arrays}


def held_bytes(root):
    return sum(a.nbytes for a in held_owners(root).values())
