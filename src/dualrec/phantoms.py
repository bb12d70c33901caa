"""Synthetic data generation and the RTC tensor container.

RTC layout (all integers little-endian):

    magic  b"RTC1"
    u32    entry count
    per entry:
        u16    name length, then name bytes (utf-8, unique per container)
        u8     dtype code: 0 = float32, 1 = float64, 2 = uint8
        u8     ndim
        u32*   dims
        bytes  payload, row-major

Round-trips are bit-exact; that is what makes checkpoint and dataset
regression tests meaningful.

Phantoms are sums of softly blurred random ellipses with a faint sinusoidal
texture, min-max normalized to [0,1].  Paired T1/T2 images share ellipse
geometry but draw intensities independently; a small planted structure gets
strong T1 contrast and near-background T2 contrast, and its bounding box is
recorded so tests can score recovery locally.  Coil maps are Gaussian lobes
spread around the field of view with gentle linear phase ramps, normalized
pointwise so sum |S_i|^2 = 1.
"""

import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._filters import filter2_same_reflect, gaussian_kernel1d
from .errors import ConfigError, ContainerError, DimensionError, ParameterError
from .fidelity import SensitivitySet, sens_combine
from .fourier import ComplexGrid, fft2c, ifft2c
from .masks import SamplingMask, make_mask

_MAGIC = b"RTC1"
_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
                  np.dtype(np.uint8): 2}


class RtcContainer:
    """An ordered name -> ndarray mapping with a fixed binary encoding."""

    def __init__(self):
        self.entries = {}

    def add(self, name, array):
        if name in self.entries:
            raise ContainerError(f"duplicate entry name {name!r}")
        # ascontiguousarray promotes 0-d to shape (1,); keep the input's shape
        array = np.ascontiguousarray(array).reshape(np.shape(array))
        if array.dtype not in _DTYPE_TO_CODE:
            raise ContainerError(f"unsupported dtype {array.dtype} for {name!r}")
        if array.ndim > 255:
            raise ContainerError("too many dims")
        self.entries[name] = array
        return self

    def add_json(self, name, obj):
        payload = np.frombuffer(json.dumps(obj, sort_keys=True).encode(), dtype=np.uint8)
        return self.add(name, payload.copy())

    def get(self, name):
        if name not in self.entries:
            raise ContainerError(f"container has no {name!r} entry")
        return self.entries[name]

    def get_json(self, name):
        try:
            return json.loads(self.get(name).tobytes().decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"entry {name!r} is not UTF-8 JSON: {exc}") from exc

    def write(self, path):
        blob = bytearray()
        blob += _MAGIC
        blob += struct.pack("<I", len(self.entries))
        for name, arr in self.entries.items():
            nb = name.encode()
            blob += struct.pack("<H", len(nb))
            blob += nb
            blob += struct.pack("<BB", _DTYPE_TO_CODE[arr.dtype], arr.ndim)
            for d in arr.shape:
                blob += struct.pack("<I", d)
            blob += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        Path(path).write_bytes(bytes(blob))

    @classmethod
    def read(cls, path):
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise ContainerError(f"cannot read container {path}: {exc}") from exc
        if raw[:4] != _MAGIC:
            raise ContainerError(f"bad magic in {path}")
        off = 4

        def take(n):
            nonlocal off
            if off + n > len(raw):
                raise ContainerError(f"truncated container {path}")
            chunk = raw[off:off + n]
            off += n
            return chunk

        count, = struct.unpack("<I", take(4))
        box = cls()
        for _ in range(count):
            nlen, = struct.unpack("<H", take(2))
            name = take(nlen)
            code, ndim = struct.unpack("<BB", take(2))
            if code not in _CODE_TO_DTYPE:
                raise ContainerError(f"unknown dtype code {code} in {path}")
            dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
            dtype = _CODE_TO_DTYPE[code]
            payload = take(math.prod(dims) * dtype.itemsize)
            try:   # a name that is not UTF-8, or a zero dim beside dims too large to index
                name = name.decode()
                arr = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
            except ValueError as exc:
                raise ContainerError(f"bad entry {name!r} in {path}: {exc}") from exc
            if name in box.entries:
                raise ContainerError(f"duplicate entry {name!r} in {path}")
            box.entries[name] = arr
        if off != len(raw):
            raise ContainerError(f"trailing bytes in {path}")
        return box


# -- phantom generation --------------------------------------------------

_N_ELLIPSES = 8
_INTENSITY_RANGE = (0.25, 1.0)
_AXIS_RANGE = (0.08, 0.3)       # semi-axes, as fractions of the grid size
_TEXTURE_AMPLITUDE = 0.03
_EDGE_SOFTNESS = 0.8            # sigma of the edge blur, in pixels


@dataclass
class PhantomSpec:
    """Grid size (at least 32) and seed; the constants above fix the rest."""
    size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.size < 32:
            raise ParameterError(f"phantom size must be >= 32, got {self.size}")


def _draw_geometry(rng, spec):
    size = spec.size
    lo, hi = _AXIS_RANGE
    out = []
    for _ in range(_N_ELLIPSES):
        cy, cx = rng.uniform(0.2 * size, 0.8 * size, size=2)
        ay, ax = rng.uniform(lo * size, hi * size, size=2)
        theta = rng.uniform(0.0, np.pi)
        out.append((cy, cx, ay, ax, theta))
    return out


def _soft_kernel(sigma):
    half = max(1, int(np.ceil(3.0 * sigma)))
    return gaussian_kernel1d(2 * half + 1, sigma)


def _render(geometry, intensities, spec, texture_rng):
    size = spec.size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.zeros((size, size))
    for (cy, cx, ay, ax, theta), amp in zip(geometry, intensities):
        yr = (yy - cy) * np.cos(theta) + (xx - cx) * np.sin(theta)
        xr = -(yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta)
        img += amp * (((yr / ay) ** 2 + (xr / ax) ** 2) <= 1.0)
    img = filter2_same_reflect(img, _soft_kernel(_EDGE_SOFTNESS))
    fy, fx = texture_rng.integers(2, 7, size=2)
    ph1, ph2 = texture_rng.uniform(0.0, 2.0 * np.pi, size=2)
    img += _TEXTURE_AMPLITUDE * np.sin(2 * np.pi * fy * yy / size + ph1) \
        * np.sin(2 * np.pi * fx * xx / size + ph2)
    img -= img.min()
    peak = img.max()
    if peak > 0:
        img /= peak
    return img


def gen_phantom(spec):
    rng = np.random.default_rng(spec.seed)
    geometry = _draw_geometry(rng, spec)
    lo, hi = _INTENSITY_RANGE
    intensities = rng.uniform(lo, hi, size=_N_ELLIPSES)
    return _render(geometry, intensities, spec, rng)


def gen_t1_t2_pair(spec):
    """Shared geometry, per-contrast intensities.  Returns (t1, t2, bbox);
    bbox frames the planted structure (strong in t1, faint in t2)."""
    rng = np.random.default_rng(spec.seed)
    geometry = _draw_geometry(rng, spec)
    lo, hi = _INTENSITY_RANGE
    int_t1 = rng.uniform(lo, hi, size=_N_ELLIPSES)
    int_t2 = rng.uniform(lo, hi, size=_N_ELLIPSES)
    size = spec.size
    cy, cx = rng.uniform(0.3 * size, 0.7 * size, size=2)
    ay = ax = rng.uniform(0.06 * size, 0.1 * size)
    geometry = geometry + [(cy, cx, ay, ax, 0.0)]
    int_t1 = np.append(int_t1, 0.6)
    int_t2 = np.append(int_t2, 0.06)
    pad = 3
    bbox = (max(0, int(cy - ay) - pad), min(size, int(cy + ay) + pad + 1),
            max(0, int(cx - ax) - pad), min(size, int(cx + ax) + pad + 1))
    t1 = _render(geometry, int_t1, spec, np.random.default_rng(spec.seed + 101))
    t2 = _render(geometry, int_t2, spec, np.random.default_rng(spec.seed + 202))
    return t1, t2, bbox


def gen_coil_maps(height, width, n_c, seed=0):
    """Normalized smooth coil profiles.  Adjacent-pixel steps stay below
    1.5/min(H,W) in magnitude (lobes are wide relative to the grid)."""
    if n_c < 1:
        raise ParameterError("need at least one coil")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    sigma = 0.5 * max(height, width)
    radius = 0.55 * min(height, width) / 2.0
    maps = []
    for i in range(n_c):
        ang = 2.0 * np.pi * i / n_c + rng.uniform(-0.2, 0.2)
        cy = height / 2.0 + radius * np.sin(ang)
        cx = width / 2.0 + radius * np.cos(ang)
        mag = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
        slope_y = rng.uniform(-np.pi / 4, np.pi / 4)
        slope_x = rng.uniform(-np.pi / 4, np.pi / 4)
        phase = slope_y * (yy - height / 2.0) / height \
            + slope_x * (xx - width / 2.0) / width + rng.uniform(0, 2 * np.pi)
        maps.append(mag * np.exp(1j * phase))
    total = np.sqrt(sum(np.abs(m) ** 2 for m in maps))
    maps = [m / total for m in maps]
    return SensitivitySet([ComplexGrid.from_complex(m, "image") for m in maps],
                          normalized=True)


# -- dataset builder -----------------------------------------------------

def _to_channels_f32(z):
    return np.stack([z.real, z.imag], axis=0).astype(np.float32)


def _sample_seed(seed, index):
    return seed * 100003 + index


DATASET_KINDS = ("single", "multi", "paired")


def make_dataset(kind, n, size, accel, mask_kind, seed, out_dir,
                 n_coils=4, noise_sigma=0.0, center_fraction=None):
    """Generate n samples sharing one fixed undersampling mask; write one RTC
    file per sample plus a manifest.json.  Returns the manifest dict."""
    if kind not in DATASET_KINDS:
        raise ParameterError(f"kind must be one of {DATASET_KINDS}, got {kind!r}")
    if n < 1:
        raise ParameterError("need at least one sample")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mask = make_mask(mask_kind, size, size, accel, seed=seed,
                     center_fraction=center_fraction)
    mask_u8 = mask.bits.astype(np.uint8)
    n_train = int(0.8 * n)
    files = []
    for i in range(n):
        sseed = _sample_seed(seed, i)
        spec = PhantomSpec(size=size, seed=sseed)
        rng = np.random.default_rng(sseed + 13)
        box = RtcContainer()
        entry = {"id": f"sample_{i:04d}", "file": f"sample_{i:04d}.rtc",
                 "split": "train" if i < n_train else "val"}
        if kind == "paired":
            t1, t2, bbox = gen_t1_t2_pair(spec)
            target = t2
            entry["bbox"] = list(bbox)
            box.add("t1", t1.astype(np.float32))
        else:
            target = gen_phantom(spec)

        if kind == "multi":
            sens = gen_coil_maps(size, size, n_coils, seed=sseed + 7)
            coil_k = []
            for s_i in sens.maps:
                k = fft2c(s_i.z * target)
                if noise_sigma > 0:
                    k = k + noise_sigma * (rng.standard_normal(k.shape)
                                           + 1j * rng.standard_normal(k.shape)) / np.sqrt(2)
                coil_k.append(np.where(mask.bits, k, 0.0))
            y_grids = [ComplexGrid.from_complex(k, "kspace") for k in coil_k]
            us_img = sens_combine(y_grids, sens, mask).z
            box.add("target", _to_channels_f32(target.astype(complex)))
            box.add("coil_kspace", np.stack([_to_channels_f32(k) for k in coil_k]))
            box.add("sens", np.stack([_to_channels_f32(s.z) for s in sens.maps]))
            box.add("us_image", _to_channels_f32(us_img))
            box.add("us_kspace", _to_channels_f32(fft2c(us_img)))
        else:
            k = fft2c(target.astype(complex))
            if noise_sigma > 0:
                k = k + noise_sigma * (rng.standard_normal(k.shape)
                                       + 1j * rng.standard_normal(k.shape)) / np.sqrt(2)
            us_k = np.where(mask.bits, k, 0.0)
            box.add("target", target.astype(np.float32))
            box.add("us_kspace", _to_channels_f32(us_k))
            box.add("us_image", _to_channels_f32(ifft2c(us_k)))
        box.add("mask", mask_u8)
        box.write(out / entry["file"])
        files.append(entry)

    manifest = {"schema": 1, "kind": kind, "n": n, "size": size,
                "accel": accel, "mask_kind": mask_kind, "seed": seed,
                "n_coils": n_coils if kind == "multi" else None,
                "noise_sigma": noise_sigma, "center_fraction": center_fraction,
                "files": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def write_mask_file(mask, path):
    box = RtcContainer()
    box.add("mask", mask.bits.astype(np.uint8))
    box.add_json("meta", {"kind": mask.kind, "accel": mask.accel,
                          "seed": mask.seed, "height": mask.height,
                          "width": mask.width})
    box.write(path)


def read_mask_file(path):
    box = RtcContainer.read(path)
    meta = box.get_json("meta")
    if not isinstance(meta, dict) or not {"accel", "kind", "seed"} <= set(meta):
        raise ContainerError(f"mask file {path}: meta lacks accel, kind or seed")
    return SamplingMask(box.get("mask").astype(bool), meta["accel"],
                        meta["kind"], meta["seed"])


# -- loading and verification -------------------------------------------

class Dataset:
    """In-memory view of a generated dataset directory."""

    def __init__(self, manifest, samples, root):
        self.manifest = manifest
        self.samples = samples
        self.root = Path(root)
        self.mask = SamplingMask(samples[0]["mask"].astype(bool),
                                 manifest["accel"], manifest["mask_kind"],
                                 manifest["seed"])

    @property
    def kind(self):
        return self.manifest["kind"]

    @property
    def size(self):
        return self.manifest["size"]

    def indices(self, split):
        return [i for i, f in enumerate(self.manifest["files"]) if f["split"] == split]

    @functools.cached_property
    def staged(self):
        """The samples in float64, one dict per sample, in the form every
        training, inference and scoring path takes: ``id``; ``us_image``
        [2,H,W]; complex ``us_k`` [H,W]; ``target`` [2,H,W] and
        ``target_mag`` [H,W]; paired data adds ``t1`` [2,H,W] (imaginary
        channel zero), multi-coil data complex ``y`` [n_c,H,W] and ``sens``
        (a normalized SensitivitySet).  Built on first use and then shared
        by every caller, so its arrays are read-only.  A sample missing an
        array its kind needs raises ContainerError."""
        return [_stage_sample(rec, self.kind) for rec in self.samples]

    def __len__(self):
        return len(self.samples)


def _from_channels(a):
    """Stored [...,2,H,W] channels as a complex128 array [...,H,W]."""
    a = a.astype(np.float64)
    return a[..., 0, :, :] + 1j * a[..., 1, :, :]


def _real_channels(a):
    return np.stack([a, np.zeros_like(a)])


def _stage_sample(rec, kind):
    need = ("target", "us_kspace", "us_image") + (
        ("coil_kspace", "sens") if kind == "multi" else ())
    missing = [k for k in need if k not in rec]
    if missing:
        raise ContainerError(f"sample {rec['id']!r} has no {', '.join(missing)} entry")
    s = {"id": rec["id"], "us_k": _from_channels(rec["us_kspace"]),
         "us_image": rec["us_image"].astype(np.float64)}
    target = rec["target"].astype(np.float64)
    if target.ndim == 2:
        s["target"], s["target_mag"] = _real_channels(target), target
    else:
        s["target"], s["target_mag"] = target, np.hypot(target[0], target[1])
    if "t1" in rec:
        s["t1"] = _real_channels(rec["t1"].astype(np.float64))
    if "coil_kspace" in rec:
        s["y"] = _from_channels(rec["coil_kspace"])
        maps = rec["sens"].astype(np.float64)
        maps.flags.writeable = False    # the grids below are views of it
        s["sens"] = SensitivitySet([ComplexGrid(m[0], m[1], "image") for m in maps],
                                   normalized=True)
    for v in s.values():
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return s


_MANIFEST_KEYS = ("kind", "size", "accel", "mask_kind", "seed", "files")
_FILE_KEYS = ("id", "file", "split")
_VERIFY_TOL = 1e-6


def load_dataset(manifest_path):
    """Read a dataset directory (or its manifest.json) into memory.

    A missing, unreadable or malformed manifest raises ConfigError; a missing
    or corrupt sample file raises ContainerError.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read dataset manifest {manifest_path}: {exc}") from exc
    except ValueError as exc:   # bad JSON or bad utf-8
        raise ConfigError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {manifest_path} must be a JSON object")
    if manifest.get("schema") != 1:
        raise ParameterError(f"unsupported manifest schema {manifest.get('schema')!r}")
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ConfigError(f"manifest {manifest_path} is missing {missing}")
    files = manifest["files"]
    if not isinstance(files, list) or not files or not all(
            isinstance(f, dict) and all(isinstance(f.get(k), str) for k in _FILE_KEYS)
            for f in files):
        raise ConfigError(f"manifest {manifest_path}: 'files' must be a nonempty "
                          f"list of entries with string keys {list(_FILE_KEYS)}")
    root = manifest_path.parent
    samples = []
    for f in files:
        box = RtcContainer.read(root / f["file"])
        if "mask" not in box.entries:
            raise ContainerError(f"sample {root / f['file']} has no 'mask' entry")
        rec = dict(box.entries)
        rec["id"] = f["id"]
        if "bbox" in f:
            rec["bbox"] = tuple(f["bbox"])
        samples.append(rec)
    return Dataset(manifest, samples, root)


def _close(a, b):
    # float32 storage rounds large k-space magnitudes at ~|v|*6e-8, so the
    # tolerance scales with the stored magnitude (identity scale for images)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    return np.max(np.abs(np.asarray(a, dtype=np.float64) - b)) <= _VERIFY_TOL * scale


def verify_dataset(manifest_path):
    """Re-derive every stored array from its sources, to 1e-6; returns one
    string per inconsistency found (empty = consistent)."""
    ds = load_dataset(manifest_path)
    issues = []
    want_mask = make_mask(ds.manifest["mask_kind"], ds.size, ds.size,
                          ds.manifest["accel"], seed=ds.manifest["seed"],
                          center_fraction=ds.manifest.get("center_fraction"))
    for f, rec in zip(ds.manifest["files"], ds.samples):
        sid = rec["id"]
        mask_bits = rec["mask"].astype(bool)
        if not np.array_equal(mask_bits, want_mask.bits):
            issues.append(f"{sid}: stored mask differs from regenerated mask")
        us_k = rec["us_kspace"][0] + 1j * rec["us_kspace"][1]
        back = ifft2c(us_k.astype(np.complex128))
        if not _close(np.stack([back.real, back.imag]), rec["us_image"]):
            issues.append(f"{sid}: ifft2(us_kspace) != us_image")
        if ds.kind != "multi":
            # for multi the combined image's spectrum is smeared off the mask
            # by the coil weighting; the per-coil check below covers it instead
            if np.any(np.abs(us_k[~mask_bits]) > 0):
                issues.append(f"{sid}: us_kspace has energy off the mask")
        if ds.kind in ("single", "paired"):
            target = rec["target"].astype(np.float64)
            if target.min() < -1e-6 or target.max() > 1.0 + 1e-6:
                issues.append(f"{sid}: target leaves [0,1]")
            if ds.manifest["noise_sigma"] == 0.0:
                want_k = np.where(mask_bits, fft2c(target.astype(complex)), 0.0)
                if not _close(np.stack([want_k.real, want_k.imag]), rec["us_kspace"]):
                    issues.append(f"{sid}: us_kspace != mask * fft2(target)")
        if ds.kind == "paired":
            if "t1" not in rec:
                issues.append(f"{sid}: paired sample missing t1")
            if "bbox" not in rec:
                issues.append(f"{sid}: paired sample missing bbox")
        if ds.kind == "multi":
            ck = rec["coil_kspace"].astype(np.float64)
            off = ck[:, 0][:, ~mask_bits] ** 2 + ck[:, 1][:, ~mask_bits] ** 2
            if off.size and np.any(off > 0):
                issues.append(f"{sid}: coil_kspace has energy off the mask")
            sens_arr = rec["sens"]
            total = np.sum(sens_arr[:, 0].astype(np.float64) ** 2
                           + sens_arr[:, 1].astype(np.float64) ** 2, axis=0)
            if np.max(np.abs(total - 1.0)) > 1e-5:
                issues.append(f"{sid}: coil maps not normalized")
            maps = [ComplexGrid(sens_arr[i, 0].astype(np.float64),
                                sens_arr[i, 1].astype(np.float64), "image")
                    for i in range(sens_arr.shape[0])]
            sens = SensitivitySet(maps)
            y = [ComplexGrid(rec["coil_kspace"][i, 0].astype(np.float64),
                             rec["coil_kspace"][i, 1].astype(np.float64), "kspace")
                 for i in range(sens_arr.shape[0])]
            combined = sens_combine(y, sens, want_mask)
            if not _close(np.stack([combined.re, combined.im]), rec["us_image"]):
                issues.append(f"{sid}: sens_combine(coil data) != us_image")
    return issues
