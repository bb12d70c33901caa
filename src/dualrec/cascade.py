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
training loop runs its forward pass, backward pass and optimizer step in
TRAIN_DTYPE (float32): it casts the parameters to float32 in place for the
loop and back to float64 when the loop ends, however it ends; ``forward``
casts each batch to the parameters' precision.  Staged data, inference,
checkpoints and metrics are float64.  Assisted
variants: ``golf`` trains in two stages (base model, then a guidance-feature
module, then a fresh injected model fed frozen features, computed by the
same ``Reconstructor._features`` that inference calls); ``t1`` stacks a
registered companion contrast into the fusion input, optionally with random
circular shifts for robustness; ``t1_golf`` combines both.  A refiner can be
attached afterwards and trained adversarially.

Checkpoints are RTC containers holding every parameter plus a JSON meta
entry, bundling whatever pieces inference needs (stage-1 model, guidance
module, refiner) so a checkpoint is always self-sufficient.
"""

import contextlib
import inspect
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
_PRN_META = ("channels", "hidden", "w_adv", "w_dist", "critic_base")


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
            r = block(m, k_t, t1=t1, golf=golf)
            m = df_single_t(r, us_k, mask, self.lam)
            k_t = fft2_t(m)
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
        d = {"schema": 1}
        for k in ("family", "assists", "epochs_run", "train_loss", "val_loss",
                  "best_epoch", "best_val_loss", "final_psnr", "final_ssim",
                  "final_vif", "wall_seconds", "lr_used", "retried",
                  "checkpoint", "extra"):
            d[k] = getattr(self, k)
        return d


_REPORT_KEYS = ("schema", "family", "assists", "epochs_run", "train_loss",
                "val_loss", "best_epoch", "best_val_loss", "final_psnr",
                "final_ssim", "final_vif", "wall_seconds", "lr_used",
                "retried", "checkpoint", "extra")


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
        if not isinstance(d[k], (int, float)) or not math.isfinite(d[k]):
            raise ConfigError(f"report field {k} must be finite")
    return d


# -- checkpoints ---------------------------------------------------------

def save_checkpoint(path, rec, meta=None):
    """Write a Reconstructor to one RTC file (weights + JSON meta)."""
    box = RtcContainer()
    info = {"format": 1, "spec": rec.spec.to_dict(),
            "has_stage1": rec.stage1 is not None,
            "has_golf": rec.golf is not None,
            "has_prn": rec.prn is not None}
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
    for name, p in rec.model.named_parameters():
        box.add("model/" + name, p.data)
    if rec.stage1 is not None:
        for name, p in rec.stage1.named_parameters():
            box.add("stage1/" + name, p.data)
    if rec.golf is not None:
        for name, p in rec.golf.named_parameters():
            box.add("golf/" + name, p.data)
    if rec.prn is not None:
        for name, p in rec.prn.named_parameters():
            box.add("prn/" + name, p.data)
    box.write(path)
    return str(path)


def _load_group(box, prefix, module):
    state = {name[len(prefix):]: arr for name, arr in box.entries.items()
             if name.startswith(prefix)}
    module.load_state_dict(state)
    return module


def _meta(d, keys, what="meta"):
    """{key: d[key] for key in keys}, or StateError if d is no such object."""
    if not isinstance(d, dict) or not set(keys) <= set(d):
        raise StateError(f"checkpoint {what} {d!r:.200} lacks one of {keys}")
    return {k: d[k] for k in keys}


def load_checkpoint(path):
    """Rebuild the full Reconstructor saved by save_checkpoint."""
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
        trained = g.pop("trained")
        golf = GolfModule(**g, rng=np.random.default_rng(spec.seed))
        _load_group(box, "golf/", golf)
        golf.trained = bool(trained)
    if info["has_prn"]:
        prn = PrnBlock(**_meta(info.get("prn"), _PRN_META, "prn meta"),
                       rng=np.random.default_rng(spec.seed))
        _load_group(box, "prn/", prn)
    return Reconstructor(spec, model, stage1=stage1, golf=golf, prn=prn)


def build_model(spec, rng=None):
    spec.validate()
    if spec.family == "dc_rsn":
        return DcRsn(spec, rng=rng)
    return VsRsn(spec, rng=rng)


def _base_spec(spec):
    """The stage-1 spec matching an assisted spec: guidance stripped."""
    base_assists = {"golf": "none", "t1_golf": "t1"}.get(spec.assists, spec.assists)
    return replace(spec, assists=base_assists)


# -- core training loop --------------------------------------------------

@contextlib.contextmanager
def _training_precision(module):
    """Cast module's parameters to TRAIN_DTYPE in place for the block, and
    back to float64, gradients dropped, however the block ends."""
    params = module.parameters()
    for p in params:
        p.data = p.data.astype(TRAIN_DTYPE)
    try:
        yield
    finally:
        for p in params:
            p.data = p.data.astype(np.float64)
            p.grad = None


def _batched(order, batch):
    for i in range(0, len(order), batch):
        yield list(order[i:i + batch])


def _loss_for(rec, staged, ids, mask, feats=None, shifts=None):
    out = rec.forward(staged, ids, mask, feats, shifts)
    return mse_loss(out, np.stack([staged[i]["target"] for i in ids]))


def _abort(stage, epoch, batch_no, model, last_loss):
    diag = {"stage": stage, "last_loss": last_loss,
            "grad_norm": float(global_grad_norm(model.parameters())),
            "param_norm": float(np.sqrt(sum(float(np.sum(p.data ** 2))
                                            for p in model.parameters())))}
    raise TrainAbortError(f"non-finite loss in {stage}", epoch, batch_no, diag)


def _val_loss(rec, staged, val_ids, mask, batch, feats=None):
    total = 0.0
    with ad.no_grad():
        for ids in _batched(val_ids, batch):
            total += float(_loss_for(rec, staged, ids, mask, feats).data) * len(ids)
    return total / max(1, len(val_ids))


def _fit(rec, staged, mask, lr, train_ids, val_ids, feats=None, shift_rng=None):
    """One optimization run of ``rec.model`` in TRAIN_DTYPE; the model is
    float64 again on return.  Returns (train_losses, val_losses, best_state,
    best_epoch, best_val, init_val); best_state holds float32 copies."""
    model, spec = rec.model, rec.spec
    with _training_precision(model):
        opt = ad.Adam(model.parameters(), lr=lr)
        train_losses, val_losses = [], []
        best_state, best_epoch, best_val = None, -1, math.inf
        init_val = _val_loss(rec, staged, val_ids, mask, spec.batch, feats)
        for epoch in range(spec.epochs):
            order = np.random.default_rng((spec.seed, 1000 + epoch)).permutation(train_ids)
            total, count = 0.0, 0
            for batch_no, ids in enumerate(_batched(order, spec.batch)):
                shifts = None
                if shift_rng is not None and spec.t1_shift > 0:
                    shifts = shift_rng.integers(-spec.t1_shift, spec.t1_shift + 1,
                                                size=(len(ids), 2))
                opt.zero_grad()
                loss = _loss_for(rec, staged, ids, mask, feats, shifts)
                lval = float(loss.data)
                if not math.isfinite(lval):
                    _abort("train", epoch, batch_no, model, lval)
                loss.backward()
                if not math.isfinite(float(global_grad_norm(model.parameters()))):
                    _abort("train", epoch, batch_no, model, lval)
                opt.step()
                total += lval * len(ids)
                count += len(ids)
            train_losses.append(total / count)
            vloss = _val_loss(rec, staged, val_ids, mask, spec.batch, feats)
            if not math.isfinite(vloss):    # weights a finite step made non-finite
                _abort("validation", epoch, None, model, vloss)
            val_losses.append(vloss)
            if vloss < best_val:
                best_val, best_epoch = vloss, epoch
                best_state = model.state_dict()
    return train_losses, val_losses, best_state, best_epoch, best_val, init_val


def _train_loss_increased_early(train_losses):
    head = train_losses[:3]
    return any(b > a for a, b in zip(head, head[1:]))


def _final_metrics(rec, staged, val_ids, mask):
    report = MetricReport()
    for i in val_ids:
        mag = np.abs(rec.reconstruct(staged[i], mask))
        report.add(compare(mag, staged[i]["target_mag"], staged[i]["id"],
                           data_range=1.0))
    return report


def evaluate_model(rec, dataset, split="val"):
    """MetricReport of a Reconstructor over one dataset split."""
    return _final_metrics(rec, dataset.staged, dataset.indices(split), dataset.mask)


def zero_filled_report(dataset, split="val"):
    """Baseline metrics of the stored zero-filled (or coil-combined) images."""
    report = MetricReport()
    for i in dataset.indices(split):
        s = dataset.staged[i]
        mag = np.hypot(s["us_image"][0], s["us_image"][1])
        report.add(compare(mag, s["target_mag"], s["id"], data_range=1.0))
    return report


def _fit_and_report(spec, dataset, t0, out_dir, feats=None, stage1=None,
                    golf=None, extra=None, stage1_report=None):
    """The tail shared by train and train_two_stage_golf.  Fits a fresh model;
    if the train loss rises during the first three epochs, halves the
    learning rate and restarts once.  Keeps the best-validation weights,
    scores them, writes the checkpoint when out_dir is given, and returns the
    TrainReport, whose ``extra`` holds init_val_loss and then ``extra``."""
    staged, mask = dataset.staged, dataset.mask
    train_ids, val_ids = dataset.indices("train"), dataset.indices("val")

    def run(lr):
        rec = Reconstructor(spec, build_model(spec, np.random.default_rng(spec.seed)),
                            stage1=stage1, golf=golf)
        shift_rng = np.random.default_rng((spec.seed, 555)) if spec.t1_shift else None
        return rec, _fit(rec, staged, mask, lr, train_ids, val_ids,
                         feats=feats, shift_rng=shift_rng)

    lr_used, retried = spec.lr, False
    rec, result = run(lr_used)
    if _train_loss_increased_early(result[0]):
        lr_used, retried = spec.lr / 2.0, True
        rec, result = run(lr_used)
    train_losses, val_losses, best_state, best_epoch, best_val, init_val = result
    rec.model.load_state_dict(best_state)
    metrics = _final_metrics(rec, staged, val_ids, mask)
    ckpt = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        ckpt = save_checkpoint(out / "checkpoint.rtc", rec,
                               meta={"best_epoch": best_epoch, "best_val": best_val})
    return TrainReport(
        family=spec.family, assists=spec.assists, epochs_run=spec.epochs,
        train_loss=train_losses, val_loss=val_losses, best_epoch=best_epoch,
        best_val_loss=best_val, final_psnr=metrics.mean("psnr_db"),
        final_ssim=metrics.mean("ssim"), final_vif=metrics.mean("vif"),
        wall_seconds=time.perf_counter() - t0, lr_used=lr_used,
        retried=retried, checkpoint=ckpt,
        extra={"init_val_loss": init_val, **(extra or {})}, model=rec,
        stage1=stage1_report)


def train(spec, dataset, out_dir=None):
    """MSE training of one cascade.  Deterministic in spec.seed; halves the
    learning rate and restarts once if the train loss rises during the first
    three epochs; aborts on non-finite loss; keeps best-validation weights.
    """
    spec.validate()
    _check_dataset(spec, dataset)
    if spec.assists in ("golf", "t1_golf"):
        raise ConfigError("guidance-assisted specs train via train_two_stage_golf")
    t0 = time.perf_counter()
    if not dataset.indices("train") or not dataset.indices("val"):
        raise ConfigError("dataset needs nonempty train and val splits")
    return _fit_and_report(spec, dataset, t0, out_dir)


# -- two-stage guidance training ----------------------------------------

def _train_golf_module(spec, staged, train_ids, val_ids):
    """Regress gol(target) from the target magnitude; returns the trained
    module plus its loss curves."""
    module = GolfModule(feature_depth=spec.golf_feature_depth,
                        base=spec.golf_base, depth=spec.golf_depth,
                        rng=np.random.default_rng(spec.seed + 1))
    gol_maps = {i: gol(staged[i]["target_mag"], eps=module.eps)
                for i in train_ids + val_ids}
    xs = {i: staged[i]["target_mag"][None].astype(TRAIN_DTYPE)
          for i in train_ids + val_ids}
    curves = {"train": [], "val": []}
    with _training_precision(module):
        opt = ad.Adam(module.parameters(), lr=spec.lr)
        for epoch in range(spec.epochs):
            order = np.random.default_rng((spec.seed, 2000 + epoch)).permutation(train_ids)
            total, count = 0.0, 0
            for batch_no, ids in enumerate(_batched(order, spec.batch)):
                opt.zero_grad()
                x = np.stack([xs[i] for i in ids])
                y = np.stack([gol_maps[i] for i in ids])
                loss = mse_loss(module.predict_gol(Tensor(x)), y)
                lval = float(loss.data)
                if not math.isfinite(lval):
                    _abort("golf", epoch, batch_no, module, lval)
                loss.backward()
                opt.step()
                total += lval * len(ids)
                count += len(ids)
            curves["train"].append(total / count)
            xv = np.stack([xs[i] for i in val_ids])
            yv = np.stack([gol_maps[i] for i in val_ids])
            with ad.no_grad():
                curves["val"].append(float(mse_loss(module.predict_gol(Tensor(xv)), yv).data))
    module.trained = True
    return module, curves


def train_two_stage_golf(spec, dataset, out_dir=None, stage1_checkpoint=None):
    """Stage 1: train the base model (or load it).  Then train the guidance
    module on (target -> gol(target)).  Stage 2: train a fresh injected
    model on frozen features of the bare stage-1 model's reconstructions
    (a stage-1 checkpoint's refiner is not used, as at inference)."""
    spec.validate()
    if spec.assists not in ("golf", "t1_golf"):
        raise ConfigError("train_two_stage_golf needs assists golf or t1_golf")
    _check_dataset(spec, dataset)
    t0 = time.perf_counter()
    staged = dataset.staged
    train_ids, val_ids = dataset.indices("train"), dataset.indices("val")

    base = _base_spec(spec)
    stage1_report = None
    if stage1_checkpoint is not None:
        stage1_rec = load_checkpoint(stage1_checkpoint)
        if stage1_rec.spec.family != spec.family or \
                stage1_rec.spec.assists != base.assists:
            raise ConfigError("stage-1 checkpoint does not match the base spec")
    else:
        stage1_report = train(base, dataset)
        stage1_rec = stage1_report.model

    module, golf_curves = _train_golf_module(spec, staged, train_ids, val_ids)
    guide = Reconstructor(spec, None, stage1=stage1_rec.model, golf=module)
    feats = {i: guide._features(staged, [i], dataset.mask)[0]
             for i in train_ids + val_ids}

    extra = {"golf_train_loss": golf_curves["train"],
             "golf_val_loss": golf_curves["val"],
             "stage1_best_val": None if stage1_report is None
             else stage1_report.best_val_loss}
    return _fit_and_report(spec, dataset, t0, out_dir, feats=feats,
                           stage1=stage1_rec.model, golf=module, extra=extra,
                           stage1_report=stage1_report)


# -- shift-augmented t1 training ----------------------------------------

def train_t1_shift_augmented(spec, dataset, max_shift=2, out_dir=None):
    """Train with independent circular shifts of the companion contrast,
    drawn uniformly from [-max_shift, max_shift]^2 per sample per epoch."""
    if spec.assists not in ("t1", "t1_golf"):
        raise ConfigError("shift augmentation needs t1 or t1_golf assists")
    if max_shift < 0 or max_shift > spec.size // 4:
        raise ParameterError(f"max_shift must be in [0, {spec.size // 4}], "
                             f"got {max_shift}")
    shifted = replace(spec, t1_shift=max_shift)
    shifted.validate()
    if shifted.assists == "t1_golf":
        return train_two_stage_golf(shifted, dataset, out_dir=out_dir)
    return train(shifted, dataset, out_dir=out_dir)


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
    model.  The critic (Adam) maximizes score(target) - score(refined) with
    a gradient penalty; the refiner (SGD) minimizes
    w_adv * (-score(refined)) + w_dist * mse(refined, target).  The caller's
    block trains in TRAIN_DTYPE and is float64 again on return or on
    TrainAbortError.
    """
    if dataset.kind not in ("single", "paired"):
        raise ConfigError("refiner training needs single-coil data")
    t0 = time.perf_counter()
    staged = dataset.staged
    train_ids, val_ids = dataset.indices("train"), dataset.indices("val")
    mask = dataset.mask

    # the frozen base model's float64 reconstructions, and every other
    # array the loop stacks, cast to the training precision once
    recon = {i: complex_to_channels_array(base_rec.reconstruct(staged[i], mask))
             .astype(TRAIN_DTYPE) for i in train_ids}
    targets = {i: staged[i]["target"].astype(TRAIN_DTYPE) for i in train_ids}
    us_ks = {i: staged[i]["us_k"].astype(_complex_of(TRAIN_DTYPE)) for i in train_ids}
    eps_rng = np.random.default_rng((seed, 77))

    gen_curve, critic_curve, wasserstein = [], [], []
    with _training_precision(block):
        re_opt = ad.Sgd(block.re_parameters(), lr=lr_re)
        critic_params = [p for n, p in block.named_parameters() if n.startswith("critic.")]
        critic_opt = ad.Adam(critic_params, lr=lr_critic, beta1=0.5, beta2=0.9)
        for epoch in range(epochs):
            g_order = np.random.default_rng((seed, 3000 + epoch)).permutation(train_ids)
            c_order = list(np.random.default_rng((seed, 4000 + epoch)).permutation(
                np.repeat(train_ids, critic_steps)))
            g_total = c_total = 0.0
            g_count = c_count = 0
            c_pos = 0
            for batch_no, ids in enumerate(_batched(g_order, batch)):
                for _ in range(critic_steps):
                    c_ids = c_order[c_pos:c_pos + len(ids)] or list(ids)
                    c_pos += len(c_ids)
                    target = np.stack([targets[i] for i in c_ids])
                    with_in = np.stack([recon[i] for i in c_ids])
                    us_k = np.stack([us_ks[i] for i in c_ids])
                    with ad.no_grad():
                        fake = block.refine(Tensor(with_in), us_k, mask).data
                    eps = eps_rng.uniform(size=(len(c_ids), 1, 1, 1)).astype(TRAIN_DTYPE)
                    inter = eps * target + (1.0 - eps) * fake
                    block.zero_grad()
                    s_fake = ad.mean_all(block.critic(Tensor(fake)))
                    s_real = ad.mean_all(block.critic(Tensor(target)))
                    gp = gradient_penalty(block.critic, inter)
                    if not math.isfinite(float(gp.data)):
                        _abort("critic", epoch, batch_no, block, float(gp.data))
                    c_loss = ad.add(ad.sub(s_fake, s_real), ad.mul(gp, gp_coeff))
                    cval = float(c_loss.data)
                    if not math.isfinite(cval):
                        _abort("critic", epoch, batch_no, block, cval)
                    c_loss.backward()
                    critic_opt.step()
                    w_est = float(s_real.data) - float(s_fake.data)
                    if not math.isfinite(w_est):
                        _abort("critic", epoch, batch_no, block, w_est)
                    wasserstein.append(w_est)
                    c_total += cval
                    c_count += 1
                block.zero_grad()
                with_in = np.stack([recon[i] for i in ids])
                us_k = np.stack([us_ks[i] for i in ids])
                target = np.stack([targets[i] for i in ids])
                refined = block.refine(Tensor(with_in), us_k, mask)
                adv = ad.neg(ad.mean_all(block.critic(refined)))
                dist = mse_loss(refined, target)
                g_loss = ad.add(ad.mul(adv, block.w_adv), ad.mul(dist, block.w_dist))
                gval = float(g_loss.data)
                if not math.isfinite(gval):
                    _abort("generator", epoch, batch_no, block, gval)
                g_loss.backward()
                re_opt.step()
                g_total += gval
                g_count += 1
            gen_curve.append(g_total / max(1, g_count))
            critic_curve.append(c_total / max(1, c_count))

    refined_rec = Reconstructor(base_rec.spec, base_rec.model,
                                stage1=base_rec.stage1, golf=base_rec.golf,
                                prn=block)
    base_metrics = _final_metrics(base_rec, staged, val_ids, mask)
    refined_metrics = _final_metrics(refined_rec, staged, val_ids, mask)
    ckpt = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        ckpt = save_checkpoint(out / "checkpoint.rtc", refined_rec,
                               meta={"prn_epochs": epochs})
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

