"""Cascaded reconstruction models and their training loops.

Two families:

* DcRsn: n_b blocks, each followed by hard/soft spectrum blending against
  the measured data; after every blend the next block sees both the image
  and its re-computed spectrum.  The final output is the last blend, so with
  lam=inf it agrees with the measurement on the sampled set exactly.
* VsRsn: the variable-splitting form for multi-coil data; each cascade runs
  the block as a denoiser, a per-coil least-squares spectrum update, and a
  sensitivity-weighted average with trainable positive weights.

Every entry point reads a dataset through ``Dataset.staged``, so each
dataset is staged once, and ``Reconstructor.forward`` is the one place that
turns staged samples into model inputs: training, validation, scoring and
the guidance features all go through it.

Training is plain MSE + Adam, deterministic given the spec seed.  Every
stage (each cascade fit, the guidance module, the refiner) trains in one
epoch loop, ``_run_epochs``: forward pass, backward pass and optimizer step
run in TRAIN_DTYPE (float32), the module cast in place by ``Module.astype``
for the run and back to float64 however it ends, and a non-finite loss,
gradient norm or validation loss aborts any stage alike.  Modules always
build in float64; this loop is the one place that changes their precision.
``forward`` casts each batch to the parameters' precision.  Staged data,
inference, checkpoints and metrics are float64.  ``train`` runs every stage
a spec asks for.  Assisted variants: ``golf`` trains in two stages (base
model, then a guidance-feature module, then a fresh injected model fed
frozen features, computed by the same ``Reconstructor._features`` that
inference calls); ``t1`` stacks a registered companion contrast into the
fusion input, with random circular shifts of up to ``t1_shift`` pixels for
robustness; ``t1_golf`` combines both.  A ``prn`` spec then trains a refiner
adversarially on the cascade.

Checkpoints are RTC containers holding every parameter plus a JSON meta
entry, bundling whatever pieces inference needs (stage-1 model, guidance
module, refiner) so a checkpoint is always self-sufficient.
"""

import inspect
import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (ConfigError, DimensionError, ParameterError, StateError,
                     TrainAbortError)
from .fidelity import (FidelityWeights, SensitivitySet, coil_arrays, df_single_t,
                       vs_x_update_t, wab_t)
from .fourier import complex_to_channels_array, fft2_t, ifft2c
from .layers import Module, global_grad_norm, mse_loss
from .metrics import MetricReport, compare
from .networks import (RSN_MODES, GolfModule, PrnBlock, RsnBlock, gol,
                       gradient_penalty)
from .phantoms import RtcContainer

TRAIN_DTYPE = np.float32
FAMILIES = ("dc_rsn", "vs_rsn")
ASSISTS = ("none", "golf", "t1", "t1_golf")

_PRN_TYPES = {"hidden": int, "critic_base": int, "epochs": int,
              "critic_steps": int, "w_adv": float, "w_dist": float,
              "lr_critic": float, "lr_re": float, "gp_coeff": float}
# lowest allowed value of a numeric field, and whether it is itself excluded;
# a float with a range must also be finite
_RANGES = {name: (1, False) for name in (
    "n_b", "ki_hidden", "ii_base", "ii_depth", "fu_hidden", "golf_feature_depth",
    "golf_base", "golf_depth", "epochs", "batch", "prn.hidden", "prn.critic_base",
    "prn.epochs", "prn.critic_steps")}
_RANGES.update({name: (0, True) for name in (
    "lr", "alpha", "beta", "prn.lr_critic", "prn.lr_re", "prn.w_adv", "prn.w_dist")})
_RANGES.update({"seed": (0, False), "prn.gp_coeff": (0, False)})
_GOLF_META = ("feature_depth", "base", "depth", "eps")
_PRN_BLOCK = ("hidden", "w_adv", "w_dist", "critic_base")   # PrnBlock's own keys
_PRN_META = ("channels",) + _PRN_BLOCK


def _check_type(name, v, typ):
    """ConfigError unless v is a JSON value of type typ: ints take no bool,
    float or str; floats take ints but no bool; a dict field may be None.
    A field listed in _RANGES must also lie in its range."""
    if typ is int:
        ok = isinstance(v, numbers.Integral)
    elif typ is float:
        ok = isinstance(v, numbers.Real)
    elif typ is dict:
        ok = v is None or isinstance(v, dict)
    else:
        ok = isinstance(v, typ)
    if not ok or isinstance(v, (bool, np.bool_)):
        raise ConfigError(f"{name} must be of type {typ.__name__}, got {v!r}")
    if name in _RANGES:
        lo, strict = _RANGES[name]
        if not (v > lo if strict else v >= lo) or (typ is float and not math.isfinite(v)):
            raise ConfigError(f"{name} must be {'>' if strict else '>='} {lo}"
                              f"{' and finite' if typ is float else ''}, got {v!r}")


@dataclass
class CascadeSpec:
    """Everything needed to build and train one model, JSON-serializable."""

    family: str = "dc_rsn"
    n_b: int = 3
    mode: str = "fu_with_us"
    size: int = 64
    ki_hidden: int = 16
    ii_base: int = 16
    ii_depth: int = 2
    fu_hidden: int = 32
    assists: str = "none"
    golf_feature_depth: int = 8
    golf_base: int = 16
    golf_depth: int = 3
    lam: float = math.inf
    alpha: float = 1.0
    beta: float = 1.0
    t1_shift: int = 0
    prn: dict = None
    seed: int = 0
    epochs: int = 10
    batch: int = 4
    lr: float = 1e-3

    def validate(self):
        for name, f in self.__dataclass_fields__.items():
            _check_type(name, getattr(self, name), f.type)
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.assists not in ASSISTS:
            raise ConfigError(f"assists must be one of {ASSISTS}, got {self.assists!r}")
        if self.mode not in RSN_MODES:
            raise ConfigError(f"mode must be one of {RSN_MODES}, got {self.mode!r}")
        if self.size < 32:
            raise ConfigError("size must be >= 32 (metric windows need it)")
        # a 2^depth above size cannot divide it, so huge depths build no 2^depth
        bits = int(self.size).bit_length()
        if self.size % (2 ** min(self.ii_depth, bits)):
            raise ConfigError(f"size {self.size} not divisible by 2^{self.ii_depth}")
        if self.assists in ("golf", "t1_golf") and self.size % (2 ** min(self.golf_depth, bits)):
            raise ConfigError(f"size {self.size} not divisible by 2^{self.golf_depth}")
        if self.assists != "none" and self.family != "dc_rsn":
            raise ConfigError("assisted variants are defined for the dc_rsn family")
        if self.assists in ("t1", "t1_golf") and self.mode not in ("fu", "fu_with_us"):
            raise ConfigError("t1 assistance needs a fu mode")
        if not self.lam > 0:
            raise ConfigError("lam must be positive or inf")
        if self.t1_shift < 0 or self.t1_shift > self.size // 4:
            raise ConfigError(f"t1_shift must be in [0, {self.size // 4}]")
        if self.t1_shift and self.assists not in ("t1", "t1_golf"):
            raise ConfigError("t1_shift needs t1 or t1_golf assists")
        if self.prn is not None:
            if self.family != "dc_rsn":
                raise ConfigError("the prn refiner trains on single-coil dc_rsn models")
            unknown = set(self.prn) - set(_PRN_TYPES)
            if unknown:
                raise ConfigError(f"unknown prn keys {sorted(unknown)}")
            for name, v in self.prn.items():
                _check_type(f"prn.{name}", v, _PRN_TYPES[name])
            block = inspect.signature(PrnBlock).parameters
            w_adv, w_dist = (self.prn.get(k, block[k].default) for k in ("w_adv", "w_dist"))
            if not w_adv > w_dist:
                raise ConfigError(f"prn needs w_adv > w_dist, got {w_adv}, {w_dist}")
        return self

    def to_dict(self):
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["lam"] = "inf" if math.isinf(self.lam) else self.lam
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"spec must be a JSON object, got {d!r:.200}")
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown spec keys {sorted(unknown)}")
        d = dict(d)
        if isinstance(d.get("lam"), str):
            if d["lam"] != "inf":
                raise ConfigError(f"lam must be a number or 'inf', got {d['lam']!r}")
            d["lam"] = math.inf
        spec = cls(**d)
        spec.validate()
        return spec


class DcRsn(Module):
    """n_b independent blocks alternated with spectrum blending."""

    def __init__(self, spec, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(spec.seed)
        self.n_b = spec.n_b
        self.lam = spec.lam
        t1_assist = spec.assists in ("t1", "t1_golf")
        golf_inject = spec.assists in ("golf", "t1_golf")
        self._blocks = []
        for i in range(spec.n_b):
            block = RsnBlock(spec.size, spec.mode, ki_hidden=spec.ki_hidden,
                             ii_base=spec.ii_base, ii_depth=spec.ii_depth,
                             fu_hidden=spec.fu_hidden, t1_assist=t1_assist,
                             golf_inject=golf_inject,
                             golf_channels=spec.golf_feature_depth, rng=rng)
            setattr(self, f"block{i}", block)
            self._blocks.append(block)

    def forward(self, us_image, us_k, mask, t1=None, golf=None):
        """us_image: [B,2,H,W] tensor; us_k: complex array [B,H,W] of the
        measured spectrum; returns the final blended image [B,2,H,W]."""
        m = us_image if isinstance(us_image, Tensor) else Tensor(np.asarray(us_image))
        us_k = np.asarray(us_k)
        if us_k.ndim == 2:
            us_k = us_k[None]
        k_t = Tensor(complex_to_channels_array(us_k))
        for block in self._blocks:
            if k_t is None:     # the spectrum of the last block's output
                k_t = fft2_t(m)
            r = block(m, k_t, t1=t1, golf=golf)
            m = df_single_t(r, us_k, mask, self.lam)
            k_t = None      # made only when another block follows
        return m


class VsRsn(Module):
    """Variable-splitting cascade for coil data, with per-cascade weights."""

    def __init__(self, spec, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(spec.seed)
        self.lam = spec.lam
        self._blocks, self._weights = [], []
        for i in range(spec.n_b):
            block = RsnBlock(spec.size, spec.mode, ki_hidden=spec.ki_hidden,
                             ii_base=spec.ii_base, ii_depth=spec.ii_depth,
                             fu_hidden=spec.fu_hidden, rng=rng)
            setattr(self, f"block{i}", block)
            self._blocks.append(block)
            fw = FidelityWeights(spec.lam, spec.alpha, spec.beta)
            setattr(self, f"w{i}_log_alpha", fw.log_alpha)
            setattr(self, f"w{i}_log_beta", fw.log_beta)
            self._weights.append(fw)

    def forward(self, y, sens, mask, with_parts=False):
        """y: complex [n_c,H,W] or [B,n_c,H,W]; sens: a SensitivitySet shared by
        the batch, or maps [n_c,H,W] or [B,n_c,H,W].  Returns the combined image
        (and, with ``with_parts``, the last coil images: a list of [B,2,H,W])."""
        y = np.asarray(y)
        s = sens.stacked() if isinstance(sens, SensitivitySet) else sens
        y, s = coil_arrays(len(y) if y.ndim == 4 else 1, mask.bits.shape, y, s)
        m0 = np.sum(np.conj(s) * ifft2c(np.where(mask.bits, y, 0.0)), axis=1)
        m = Tensor(complex_to_channels_array(m0).astype(y.real.dtype, copy=False))
        for block, fw in zip(self._blocks, self._weights):
            x = None    # the last block's coil images are read: free them
            u = block(m, fft2_t(m))
            a_t, b_t = fw.alpha_t(), fw.beta_t()
            x = vs_x_update_t(m, s, mask, y, self.lam, a_t)
            m = wab_t(u, x, s, a_t, b_t)
        if with_parts:
            return m, [x[:, i] for i in range(x.shape[1])]
        return m


def _check_dataset(spec, dataset):
    kind = dataset.kind
    if spec.family == "vs_rsn" and kind != "multi":
        raise ConfigError(f"vs_rsn needs a multi-coil dataset, got kind {kind!r}")
    if spec.family == "dc_rsn" and kind == "multi":
        raise ConfigError("dc_rsn trains on single-coil data; use vs_rsn for multi")
    if spec.assists in ("t1", "t1_golf") and kind != "paired":
        raise ConfigError(f"t1 assistance needs a paired dataset, got kind {kind!r}")
    if dataset.size != spec.size:
        raise DimensionError(f"dataset size {dataset.size} != spec size {spec.size}")


def _normalize_mag(mag):
    scale = float(mag.max())
    if scale <= 0:
        return np.zeros_like(mag)
    return np.clip(mag / scale, 0.0, 1.0)


def _complex_of(real):
    """The complex dtype of a real precision: complex64 for float32."""
    return np.result_type(real, np.complex64)


def _batch(arrays, dtype):
    """The arrays stacked on a new first axis, in dtype.  A batch of one is
    a view, and so is the result when the dtype already matches."""
    out = arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
    return out.astype(dtype, copy=False)


# -- reconstructor bundle ------------------------------------------------

class Reconstructor:
    """A trained pipeline: the cascade model plus whatever it needs at test
    time (stage-1 model for guidance features, guidance module, refiner)."""

    def __init__(self, spec, model, stage1=None, golf=None, prn=None):
        self.spec = spec
        self.model = model
        self.stage1 = stage1
        self.golf = golf
        self.prn = prn

    def _features(self, staged, ids, mask):
        """Guidance features [B,C,H,W] of samples ``ids``: the guidance
        module on the normalized magnitude of the frozen stage-1 model's
        output.  Training precomputes them here, one sample at a time, as
        inference computes them, so both see the same numbers."""
        if self.stage1 is None or self.golf is None:
            raise StateError("model wants guidance features but the "
                             "checkpoint has no stage-1 model or guidance module")
        with ad.no_grad():
            s1 = Reconstructor(_base_spec(self.spec), self.stage1).forward(
                staged, ids, mask).data
            mags = np.stack([_normalize_mag(np.hypot(a[0], a[1])) for a in s1])
            return self.golf.features(Tensor(mags[:, None])).data

    def forward(self, staged, ids, mask, feats=None, shifts=None):
        """Cascade output (before any refiner) as a [B,2,H,W] tensor for the
        samples ``staged[i]``, i in ids.  The inputs are cast to the precision
        of the model's parameters (spectra and coil maps to its complex
        counterpart).  t1 goes in when the spec asks for it, each row rolled
        by its (dy, dx) in ``shifts``; guidance features come from ``feats``
        ({i: [C,H,W]}) or else from ``_features``."""
        real = self.model.parameters()[0].dtype
        cplx = _complex_of(real)
        rows = [staged[i] for i in ids]
        if self.spec.family == "vs_rsn":
            return self.model(_batch([s["y"] for s in rows], cplx),
                              _batch([s["sens"].stacked() for s in rows], cplx), mask)
        t1 = golf = None
        if self.spec.assists in ("t1", "t1_golf") and "t1" in rows[0]:
            t1s = [s["t1"] for s in rows]
            if shifts is not None:
                t1s = [np.roll(a, tuple(d), axis=(-2, -1)) for a, d in zip(t1s, shifts)]
            t1 = Tensor(_batch(t1s, real))
        if self.spec.assists in ("golf", "t1_golf"):
            golf = Tensor(_batch([feats[i] for i in ids], real) if feats is not None
                          else self._features(staged, ids, mask).astype(real, copy=False))
        return self.model(Tensor(_batch([s["us_image"] for s in rows], real)),
                          _batch([s["us_k"] for s in rows], cplx), mask, t1=t1, golf=golf)

    def reconstruct(self, sample, mask):
        """One staged sample -> complex [H,W] reconstruction (refiner
        applied when present).  Builds no autodiff graph."""
        with ad.no_grad():
            out = self.forward([sample], [0], mask)
            if self.prn is not None:
                out = self.prn.refine(out, sample["us_k"][None], mask)
        arr = out.data[0]
        return arr[0] + 1j * arr[1]


# -- reports -------------------------------------------------------------

@dataclass
class TrainReport:
    family: str
    assists: str
    epochs_run: int
    train_loss: list
    val_loss: list
    best_epoch: int
    best_val_loss: float
    final_psnr: float
    final_ssim: float
    final_vif: float
    wall_seconds: float
    lr_used: float
    retried: bool
    checkpoint: str = None
    extra: dict = field(default_factory=dict)
    model: object = None    # Reconstructor; not serialized
    stage1: object = None   # stage-1 TrainReport when two-stage; not serialized

    def to_dict(self):
        return {"schema": 1, **{k: getattr(self, k) for k in _REPORT_KEYS[1:]}}


_REPORT_KEYS = ("schema",) + tuple(k for k in TrainReport.__dataclass_fields__
                                   if k not in ("model", "stage1"))


def validate_train_report(d):
    """Raise ConfigError unless d is a well-formed report dict."""
    if not isinstance(d, dict):
        raise ConfigError("report must be a dict")
    if d.get("schema") != 1:
        raise ConfigError(f"unsupported report schema {d.get('schema')!r}")
    missing = [k for k in _REPORT_KEYS if k not in d]
    extra = [k for k in d if k not in _REPORT_KEYS]
    if missing or extra:
        raise ConfigError(f"report keys wrong: missing={missing} extra={extra}")
    if len(d["train_loss"]) != d["epochs_run"] or len(d["val_loss"]) != d["epochs_run"]:
        raise ConfigError("loss curves must have one entry per epoch")
    for k in ("best_val_loss", "final_psnr", "final_ssim", "final_vif",
              "wall_seconds", "lr_used"):
        if not isinstance(d[k], (int, float)):
            raise ConfigError(f"report field {k} must be a number")
    try:
        json.dumps(d, allow_nan=False)
    except (TypeError, ValueError) as exc:    # a non-finite or non-JSON value
        raise ConfigError(f"report is not strict JSON: {exc}") from None
    return d


# -- checkpoints ---------------------------------------------------------

def save_checkpoint(path, rec, meta=None):
    """Write a Reconstructor to one RTC file (weights + JSON meta), making
    its directory if need be."""
    box = RtcContainer()
    groups = {"model": rec.model, "stage1": rec.stage1, "golf": rec.golf, "prn": rec.prn}
    info = {"format": 1, "spec": rec.spec.to_dict(),
            **{f"has_{g}": groups[g] is not None for g in ("stage1", "golf", "prn")}}
    if rec.golf is not None:
        info["golf"] = {"feature_depth": rec.golf.feature_depth,
                        "base": rec.spec.golf_base, "depth": rec.spec.golf_depth,
                        "eps": rec.golf.eps, "trained": rec.golf.trained}
    if rec.prn is not None:
        info["prn"] = {"channels": rec.prn.c1.w.shape[1],
                       "hidden": rec.prn.c1.w.shape[0],
                       "w_adv": rec.prn.w_adv, "w_dist": rec.prn.w_dist,
                       "critic_base": rec.prn.critic.c1.w.shape[0]}
    if meta:
        info["meta"] = meta
    box.add_json("meta", info)
    for g, part in groups.items():
        if part is not None:
            for name, p in part.named_parameters():
                box.add(f"{g}/{name}", p.data)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    box.write(path)
    return str(path)


def _load_group(box, prefix, module):
    state = {name[len(prefix):]: arr for name, arr in box.entries.items()
             if name.startswith(prefix)}
    for name, arr in state.items():
        if not np.isfinite(arr).all():
            raise StateError(f"checkpoint entry {prefix}{name} is not finite")
    module.load_state_dict(state)
    return module


def _meta(d, keys, what="meta"):
    """{key: d[key] for key in keys}, or StateError if d is no such object."""
    if not isinstance(d, dict) or not set(keys) <= set(d):
        raise StateError(f"checkpoint {what} {d!r:.200} lacks one of {keys}")
    return {k: d[k] for k in keys}


def _check_widths(d, keys, what):
    """StateError unless each d[key] is a positive int."""
    for k in keys:
        v = d[k]
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
            raise StateError(f"checkpoint {what} {k} must be a positive int, got {v!r}")


def _real_in(v, lo, hi):
    """Whether v is a real, not a bool, with lo < v < hi."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and lo < v < hi


def _check_golf_meta(g):
    """StateError unless the golf meta's widths are positive ints, its eps a
    positive finite real and its trained flag a bool."""
    _check_widths(g, ("feature_depth", "base", "depth"), "golf meta")
    if not _real_in(g["eps"], 0, math.inf):
        raise StateError(f"checkpoint golf meta eps must be a positive finite real, "
                         f"got {g['eps']!r}")
    if not isinstance(g["trained"], bool):
        raise StateError(f"checkpoint golf meta trained must be a bool, got {g['trained']!r}")


def _check_prn_meta(p):
    """StateError unless the prn meta's widths are positive ints and its loss
    weights reals with finite w_adv > w_dist > 0, as PrnBlock needs."""
    _check_widths(p, ("channels", "hidden", "critic_base"), "prn meta")
    if not _real_in(p["w_dist"], 0, math.inf):
        raise StateError(f"checkpoint prn meta w_dist must be a positive finite real, "
                         f"got {p['w_dist']!r}")
    if not _real_in(p["w_adv"], p["w_dist"], math.inf):
        raise StateError(f"checkpoint prn meta w_adv must be a finite real above "
                         f"w_dist {p['w_dist']!r}, got {p['w_adv']!r}")


def load_checkpoint(path):
    """Rebuild the full Reconstructor saved by save_checkpoint.  A missing
    checkpoint, a non-finite weight in it, or golf or prn meta of the wrong
    type or range raises StateError."""
    path = Path(path)
    if not path.exists():
        raise StateError(f"checkpoint {path} does not exist")
    box = RtcContainer.read(path)
    info = box.get_json("meta")
    if _meta(info, ("format",))["format"] != 1:
        raise StateError(f"unsupported checkpoint format {info['format']!r}")
    _meta(info, ("spec", "has_stage1", "has_golf", "has_prn"))
    spec = CascadeSpec.from_dict(info["spec"])
    model = _load_group(box, "model/", build_model(spec))
    stage1 = golf = prn = None
    if info["has_stage1"]:
        stage1 = _load_group(box, "stage1/", build_model(_base_spec(spec)))
    if info["has_golf"]:
        g = _meta(info.get("golf"), _GOLF_META + ("trained",), "golf meta")
        _check_golf_meta(g)
        trained = g.pop("trained")
        golf = _build("guidance module",
                      lambda: GolfModule(**g, rng=np.random.default_rng(spec.seed)))
        _load_group(box, "golf/", golf)
        golf.trained = trained
    if info["has_prn"]:
        kw = _meta(info.get("prn"), _PRN_META, "prn meta")
        _check_prn_meta(kw)
        prn = _build("refiner", lambda: PrnBlock(
            **kw, rng=np.random.default_rng(spec.seed)))
        _load_group(box, "prn/", prn)
    return Reconstructor(spec, model, stage1=stage1, golf=golf, prn=prn)


def _build(what, make):
    """make(), with a MemoryError (a width too large to allocate) raised as
    a ConfigError."""
    try:
        return make()
    except MemoryError as exc:
        raise ConfigError(f"cannot build the {what}: {exc}") from None


def build_model(spec, rng=None):
    spec.validate()
    family = DcRsn if spec.family == "dc_rsn" else VsRsn
    return _build("model", lambda: family(spec, rng=rng))


def _golf_module(spec):
    """The untrained guidance module of a golf spec, on its own rng."""
    return _build("guidance module", lambda: GolfModule(
        feature_depth=spec.golf_feature_depth, base=spec.golf_base,
        depth=spec.golf_depth, rng=np.random.default_rng(spec.seed + 1)))


def _base_spec(spec):
    """The stage-1 spec matching an assisted spec: guidance stripped."""
    base_assists = {"golf": "none", "t1_golf": "t1"}.get(spec.assists, spec.assists)
    return replace(spec, assists=base_assists)


# -- core training loop --------------------------------------------------

def _batched(order, batch):
    for i in range(0, len(order), batch):
        yield list(order[i:i + batch])


def _run_epochs(module, optimizers, epochs, batch, order, step, validate=None):
    """The epoch loop of every training stage: the cascade fits, the
    guidance module and the refiner.  Returns the "train", "val" and "init"
    losses.  ``module`` is TRAIN_DTYPE for the run and float64 again however
    it ends; ``optimizers()`` builds the stage's optimizers inside that cast.
    ``step(ids, descend, opts)`` trains on a batch of ``order(epoch)`` and
    returns its loss and that loss's weight in the epoch's mean, making each
    update through ``descend(stage, opt, loss_of, zero_grad=opt.zero_grad)``:
    zero_grad, ``loss_of()``, backward, ``opt.step()``.  ``validate``, a
    (stage, fn(epoch)) pair, runs without a graph before the first epoch
    (epoch None) and after each.  A non-finite loss, gradient norm of opt's
    parameters or validation loss raises TrainAbortError, whose diagnostics
    hold the last finite update's gradient norm and its [epoch, batch], and
    null for a non-finite number.
    """
    at = {"epoch": None, "batch": None}
    last = {"grad_norm": None, "grad_step": None}

    def abort(stage, what, value, loss):
        norm = float(np.sqrt(sum(float(np.sum(p.data ** 2)) for p in module.parameters())))
        diag = {"stage": stage, "last_loss": loss, **last, "param_norm": norm}
        diag = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in diag.items()}
        raise TrainAbortError(f"non-finite {what} in {stage}: {value}", at["epoch"],
                              at["batch"], diag)

    def descend(stage, opt, loss_of, zero_grad=None):
        (zero_grad or opt.zero_grad)()
        loss = loss_of()
        lval = float(loss.data)
        if not math.isfinite(lval):
            abort(stage, "loss", lval, lval)
        loss.backward()
        norm = float(global_grad_norm(opt.params))
        if not math.isfinite(norm):
            abort(stage, "gradient norm", norm, lval)
        opt.step()
        last.update(grad_norm=norm, grad_step=[at["epoch"], at["batch"]])
        return lval

    def validated(epoch):
        stage, val_loss = validate
        at.update(epoch=epoch, batch=None)
        with ad.no_grad():
            vloss = val_loss(epoch)
        if not math.isfinite(vloss):
            abort(stage, "validation loss", vloss, vloss)
        return vloss

    module.astype(TRAIN_DTYPE)
    try:
        opts = optimizers()
        curves = {"train": [], "val": [],
                  "init": None if validate is None else validated(None)}
        for epoch in range(epochs):
            total, count = 0.0, 0
            for batch_no, ids in enumerate(_batched(order(epoch), batch)):
                at.update(epoch=epoch, batch=batch_no)
                lval, weight = step(ids, descend, opts)
                total += lval * weight
                count += weight
            curves["train"].append(total / max(1, count))
            if validate is not None:
                curves["val"].append(validated(epoch))
    finally:    # float64 again, gradients dropped, however the run ends
        module.astype(np.float64)
    return curves


def _shuffled(seed, key, ids):
    """epoch -> ids permuted by the rng (seed, key + epoch)."""
    return lambda epoch: np.random.default_rng((seed, key + epoch)).permutation(ids)


def _loss_for(rec, staged, ids, mask, feats=None, shifts=None):
    out = rec.forward(staged, ids, mask, feats, shifts)
    return mse_loss(out, np.stack([staged[i]["target"] for i in ids]))


def _val_loss(rec, staged, val_ids, mask, batch, feats=None):
    total = 0.0
    with ad.no_grad():
        for ids in _batched(val_ids, batch):
            total += float(_loss_for(rec, staged, ids, mask, feats).data) * len(ids)
    return total / max(1, len(val_ids))


def _fit(rec, dataset, lr, feats=None):
    """One optimization run of ``rec.model``.  Returns its curves ("train",
    "val", "init") and the best validation epoch's "val", "epoch" and
    "state" (float32 copies)."""
    model, spec = rec.model, rec.spec
    staged, mask, val_ids = dataset.staged, dataset.mask, dataset.indices("val")
    best = {"val": math.inf, "epoch": -1, "state": None}
    shift_rng = np.random.default_rng((spec.seed, 555)) if spec.t1_shift else None

    def step(ids, descend, opt):
        shifts = None if shift_rng is None else shift_rng.integers(
            -spec.t1_shift, spec.t1_shift + 1, size=(len(ids), 2))
        return descend("train", opt, lambda: _loss_for(
            rec, staged, ids, mask, feats, shifts)), len(ids)

    def validate(epoch):
        vloss = _val_loss(rec, staged, val_ids, mask, spec.batch, feats)
        if epoch is not None and vloss < best["val"]:   # never a non-finite loss
            best.update(val=vloss, epoch=epoch, state=model.state_dict())
        return vloss

    return _run_epochs(model, lambda: ad.Adam(model.parameters(), lr=lr), spec.epochs,
                       spec.batch, _shuffled(spec.seed, 1000, dataset.indices("train")), step,
                       ("validation", validate)), best


def _check_weights_finite(rec, stage):
    """TrainAbortError naming the first non-finite weight of rec's groups.
    The epoch loop checks losses and gradient norms, but a non-finite weight
    behind a ReLU can leave all of them finite."""
    for group in ("model", "stage1", "golf", "prn"):
        part = getattr(rec, group)
        for name, p in (() if part is None else part.named_parameters()):
            if not np.isfinite(p.data).all():
                raise TrainAbortError(
                    f"non-finite weight {group}/{name} after {stage}",
                    diagnostics={"stage": stage, "parameter": f"{group}/{name}"})


def _train_loss_increased_early(train_losses):
    head = train_losses[:3]
    return any(b > a for a, b in zip(head, head[1:]))


def evaluate_model(rec, dataset, split="val"):
    """MetricReport of a Reconstructor over one dataset split."""
    report = MetricReport()
    for i in dataset.indices(split):
        s = dataset.staged[i]
        mag = np.abs(rec.reconstruct(s, dataset.mask))
        report.add(compare(mag, s["target_mag"], s["id"], data_range=1.0))
    return report


def zero_filled_report(dataset):
    """Validation-split metrics of the stored zero-filled (or coil-combined) images."""
    report = MetricReport()
    for i in dataset.indices("val"):
        s = dataset.staged[i]
        mag = np.hypot(s["us_image"][0], s["us_image"][1])
        report.add(compare(mag, s["target_mag"], s["id"], data_range=1.0))
    return report


def _fit_and_report(spec, dataset, t0, out_dir, feats=None, stage1=None,
                    golf=None, extra=None, stage1_report=None):
    """One cascade fit of train.  Fits a fresh model; if the train loss rises
    during the first three epochs, halves the learning rate and restarts
    once.  Keeps the best-validation weights, scores them, writes the
    checkpoint when out_dir is given, and returns the TrainReport, whose
    ``extra`` holds init_val_loss and then ``extra``."""
    def run(lr):
        rec = Reconstructor(spec, build_model(spec, np.random.default_rng(spec.seed)),
                            stage1=stage1, golf=golf)
        return (rec, *_fit(rec, dataset, lr, feats=feats))

    lr_used, retried = spec.lr, False
    rec, curves, best = run(lr_used)
    if _train_loss_increased_early(curves["train"]):
        lr_used, retried = spec.lr / 2.0, True
        rec, curves, best = run(lr_used)
    rec.model.load_state_dict(best["state"])
    _check_weights_finite(rec, "train")
    metrics = evaluate_model(rec, dataset)
    ckpt = None if out_dir is None else save_checkpoint(
        Path(out_dir) / "checkpoint.rtc", rec,
        meta={"best_epoch": best["epoch"], "best_val": best["val"]})
    return TrainReport(
        family=spec.family, assists=spec.assists, epochs_run=spec.epochs,
        train_loss=curves["train"], val_loss=curves["val"], best_epoch=best["epoch"],
        best_val_loss=best["val"], final_psnr=metrics.mean("psnr_db"),
        final_ssim=metrics.mean("ssim"), final_vif=metrics.mean("vif"),
        wall_seconds=time.perf_counter() - t0, lr_used=lr_used,
        retried=retried, checkpoint=ckpt,
        extra={"init_val_loss": curves["init"], **(extra or {})}, model=rec,
        stage1=stage1_report)


def train(spec, dataset, out_dir=None, stage1_checkpoint=None):
    """Train every stage ``spec`` asks for; returns the last stage's report.

    Spec and dataset are checked, and the guidance module and refiner
    built, before anything trains.  A golf spec trains its base model (or
    takes the bare model of ``stage1_checkpoint``), then the guidance
    module, then a fresh injected model on the frozen features.  Each
    cascade fit is deterministic in spec.seed, halves the learning rate and
    restarts once if the train loss rises during the first three epochs,
    aborts on non-finite loss and keeps best-validation weights; a
    non-finite kept weight aborts before anything is saved.  A ``prn``
    spec then trains the refiner on the cascade, and its report keeps the
    cascade's under ``extra["base"]``.  Only the last stage writes the
    checkpoint to ``out_dir``.
    """
    spec.validate()
    _check_dataset(spec, dataset)
    guided = spec.assists in ("golf", "t1_golf")
    if stage1_checkpoint is not None and not guided:
        raise ConfigError(f"stage1_checkpoint applies to golf and t1_golf "
                          f"assists only, not {spec.assists!r}")
    train_ids, val_ids = dataset.indices("train"), dataset.indices("val")
    if not train_ids or not val_ids:
        raise ConfigError("dataset needs nonempty train and val splits")
    module = _golf_module(spec) if guided else None
    block = None
    if spec.prn is not None:
        kw = {k: v for k, v in spec.prn.items() if k in _PRN_BLOCK}
        block = _build("refiner", lambda: PrnBlock(
            **kw, rng=np.random.default_rng(spec.seed + 9)))
    t0 = time.perf_counter()
    stages = {}
    if guided:
        base, stage1_report = _base_spec(spec), None
        if stage1_checkpoint is not None:
            loaded = load_checkpoint(stage1_checkpoint)
            if (loaded.spec.family, loaded.spec.assists) != (base.family, base.assists):
                raise ConfigError("stage-1 checkpoint does not match the base spec")
            stage1 = loaded.model
        else:
            stage1_report = _fit_and_report(base, dataset, time.perf_counter(), None)
            stage1 = stage1_report.model.model
        curves = _train_golf_module(module, spec, dataset.staged, train_ids, val_ids)
        guide = Reconstructor(spec, None, stage1=stage1, golf=module)
        stages = dict(
            feats={i: guide._features(dataset.staged, [i], dataset.mask)[0]
                   for i in train_ids + val_ids},
            stage1=stage1, golf=module, stage1_report=stage1_report,
            extra={"golf_train_loss": curves["train"], "golf_val_loss": curves["val"],
                   "stage1_best_val": None if stage1_report is None
                   else stage1_report.best_val_loss})
    report = _fit_and_report(spec, dataset, t0, out_dir if block is None else None,
                             **stages)
    if block is None:
        return report
    refined = train_prn(block, report.model, dataset, batch=spec.batch, seed=spec.seed,
                        out_dir=out_dir, **{"epochs": spec.epochs, **{
                            k: v for k, v in spec.prn.items() if k not in _PRN_BLOCK}})
    refined.extra["base"] = report.to_dict()
    return refined


# -- two-stage guidance training ----------------------------------------

def _train_golf_module(module, spec, staged, train_ids, val_ids):
    """Train ``module`` to regress gol(target) from the target magnitude;
    returns its loss curves."""
    gol_maps = {i: gol(staged[i]["target_mag"], eps=module.eps)
                for i in train_ids + val_ids}
    xs = {i: staged[i]["target_mag"][None].astype(TRAIN_DTYPE)
          for i in train_ids + val_ids}

    def loss_of(ids):
        x, y = (np.stack([m[i] for i in ids]) for m in (xs, gol_maps))
        return mse_loss(module.predict_gol(Tensor(x)), y)

    curves = _run_epochs(
        module, lambda: ad.Adam(module.parameters(), lr=spec.lr), spec.epochs, spec.batch,
        _shuffled(spec.seed, 2000, train_ids),
        lambda ids, descend, opt: (descend("golf", opt, lambda: loss_of(ids)), len(ids)),
        ("golf_validation", lambda epoch: float(loss_of(val_ids).data)))  # one stack
    module.trained = True
    return curves


# -- t1 misregistration sweep -----------------------------------------

def t1_shift_metric_sweep(rec, dataset, max_shift=2, split="val", metric="ssim"):
    """Mean metric over the split for every shift on the
    [-max_shift, max_shift]^2 grid applied to the companion contrast.
    Returns {(dy, dx): value}."""
    if max_shift < 0 or max_shift > dataset.size // 4:
        raise ParameterError(f"max_shift {max_shift} out of bounds")
    ids = dataset.indices(split)
    out = {}
    for dy in range(-max_shift, max_shift + 1):
        for dx in range(-max_shift, max_shift + 1):
            report = MetricReport()
            for i in ids:
                s = dict(dataset.staged[i])
                s["t1"] = np.roll(s["t1"], (dy, dx), axis=(-2, -1))
                mag = np.abs(rec.reconstruct(s, dataset.mask))
                report.add(compare(mag, s["target_mag"], s["id"], data_range=1.0))
            out[(dy, dx)] = report.mean(metric)
    return out


# -- adversarial refiner training ---------------------------------------

def train_prn(block, base_rec, dataset, epochs=3, batch=4, seed=0,
              lr_critic=1e-4, lr_re=1e-3, critic_steps=5, gp_coeff=10.0,
              out_dir=None):
    """Adversarial training of a refiner on top of a frozen reconstruction
    model.  Each refiner batch first takes ``critic_steps`` critic updates
    (Adam), maximizing score(target) - score(refined) with a gradient
    penalty, then one refiner update (SGD), minimizing w_adv *
    (-score(refined)) + w_dist * mse(refined, target).  Both run in the
    epoch loop of every stage and abort as ``critic`` or ``generator``.
    The report's train curve is the refiner loss and its val curve the
    critic loss, each an unweighted mean over the epoch's updates.  The
    caller's block trains in TRAIN_DTYPE and is float64 again on return or
    on TrainAbortError.  The keyword arguments are checked like a spec's
    ``batch``, ``seed`` and ``prn`` fields before anything runs.
    """
    _check_type("batch", batch, int)
    _check_type("seed", seed, int)
    for name, v in (("epochs", epochs), ("lr_critic", lr_critic), ("lr_re", lr_re),
                    ("critic_steps", critic_steps), ("gp_coeff", gp_coeff)):
        _check_type(f"prn.{name}", v, _PRN_TYPES[name])
    if dataset.kind not in ("single", "paired"):
        raise ConfigError("refiner training needs single-coil data")
    t0 = time.perf_counter()
    staged, mask, train_ids = dataset.staged, dataset.mask, dataset.indices("train")

    # the frozen base model's float64 reconstructions, and every other
    # array the loop stacks, cast to the training precision once
    recon = {i: complex_to_channels_array(base_rec.reconstruct(staged[i], mask))
             .astype(TRAIN_DTYPE) for i in train_ids}
    targets = {i: staged[i]["target"].astype(TRAIN_DTYPE) for i in train_ids}
    us_ks = {i: staged[i]["us_k"].astype(_complex_of(TRAIN_DTYPE)) for i in train_ids}
    eps_rng = np.random.default_rng((seed, 77))
    critic_sums, wasserstein, critic_ids = [], [], []

    def stacks(ids):
        return (np.stack([m[i] for i in ids]) for m in (targets, recon, us_ks))

    refiner_order = _shuffled(seed, 3000, train_ids)
    critic_order = _shuffled(seed, 4000, np.repeat(train_ids, critic_steps))

    def order(epoch):
        """The epoch's refiner order; also deals its critic order."""
        critic_ids[:] = critic_order(epoch)
        critic_sums.append([0.0, 0])
        return refiner_order(epoch)

    def critic_update(c_ids, descend, critic_opt):
        target, with_in, us_k = stacks(c_ids)
        with ad.no_grad():
            fake = block.refine(Tensor(with_in), us_k, mask).data
        eps = eps_rng.uniform(size=(len(c_ids), 1, 1, 1)).astype(TRAIN_DTYPE)
        inter = eps * target + (1.0 - eps) * fake

        def critic_loss():
            s_fake = ad.mean_all(block.critic(Tensor(fake)))
            s_real = ad.mean_all(block.critic(Tensor(target)))
            wasserstein.append(float(s_real.data) - float(s_fake.data))
            gp = gradient_penalty(block.critic, inter)
            return ad.add(ad.sub(s_fake, s_real), ad.mul(gp, gp_coeff))

        return descend("critic", critic_opt, critic_loss, block.zero_grad)

    def step(ids, descend, opts):
        re_opt, critic_opt = opts
        for _ in range(critic_steps):
            c_ids = critic_ids[:len(ids)]    # the epoch deals exactly enough
            del critic_ids[:len(ids)]
            critic_sums[-1][0] += critic_update(c_ids, descend, critic_opt)
            critic_sums[-1][1] += 1

        def generator_loss():
            target, with_in, us_k = stacks(ids)
            refined = block.refine(Tensor(with_in), us_k, mask)
            adv = ad.neg(ad.mean_all(block.critic(refined)))
            dist = mse_loss(refined, target)
            return ad.add(ad.mul(adv, block.w_adv), ad.mul(dist, block.w_dist))

        return descend("generator", re_opt, generator_loss, block.zero_grad), 1

    def optimizers():    # the critic's Adam last, right before the first update
        critic = [p for n, p in block.named_parameters() if n.startswith("critic.")]
        return (ad.Sgd(block.re_parameters(), lr=lr_re),
                ad.Adam(critic, lr=lr_critic, beta1=0.5, beta2=0.9))

    gen_curve = _run_epochs(block, optimizers, epochs, batch, order, step)["train"]
    critic_curve = [total / max(1, count) for total, count in critic_sums]

    refined_rec = Reconstructor(base_rec.spec, base_rec.model,
                                stage1=base_rec.stage1, golf=base_rec.golf,
                                prn=block)
    _check_weights_finite(refined_rec, "generator")
    base_metrics = evaluate_model(base_rec, dataset)
    refined_metrics = evaluate_model(refined_rec, dataset)
    ckpt = None if out_dir is None else save_checkpoint(
        Path(out_dir) / "checkpoint.rtc", refined_rec, meta={"prn_epochs": epochs})
    return TrainReport(
        family=base_rec.spec.family, assists=base_rec.spec.assists,
        epochs_run=epochs, train_loss=gen_curve, val_loss=critic_curve,
        best_epoch=epochs - 1, best_val_loss=critic_curve[-1],
        final_psnr=refined_metrics.mean("psnr_db"),
        final_ssim=refined_metrics.mean("ssim"),
        final_vif=refined_metrics.mean("vif"),
        wall_seconds=time.perf_counter() - t0, lr_used=lr_re, retried=False,
        checkpoint=ckpt,
        extra={"wasserstein": wasserstein,
               "vif_base": base_metrics.mean("vif"),
               "vif_refined": refined_metrics.mean("vif")},
        model=refined_rec)

