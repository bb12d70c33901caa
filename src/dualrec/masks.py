"""Retrospective k-space undersampling masks.

Four pattern families: cartesian (full phase-encode columns: a fixed central
block plus uniformly drawn peripheral lines), gaussian (column density
proportional to exp(-d^2 / 2 sigma^2), sigma calibrated by bisection, a
16-column central block forced on), radial (equally spaced diameters through
the grid center), and spiral (a rasterized Archimedean spiral).  The center
pixel (H//2, W//2) is sampled by every kind.

Randomized kinds draw from Rng64, a 64-bit xorshift* generator with a
splitmix64-mixed seed.  The update rule is written out in the class docstring
so an independent implementation can reproduce masks bit for bit; that is the
whole point of carrying our own generator instead of numpy's.

Realized sampled fractions: cartesian and gaussian pick an exact column count
and always satisfy |f - 1/R| <= 1.5/min(H,W).  Radial and spiral always
calibrate their spoke count / turn count against the target; their
granularity is about one spoke, so tests hold them to 2.5/min(H,W).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .fourier import ComplexGrid

MASK_KINDS = ("cartesian", "gaussian", "radial", "spiral")

_M64 = (1 << 64) - 1


class Rng64:
    """Deterministic 64-bit generator (xorshift64* with splitmix64 seeding).

    Seeding: state0 = splitmix64(seed) where
        splitmix64(x): x += 0x9E3779B97F4A7C15 (mod 2^64), then
        z = x; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9; z = (z ^ z>>27) *
        0x94D049BB133111EB; return z ^ z>>31
    applied repeatedly until nonzero.

    next_u64: x ^= x>>12; x ^= x<<25 (mod 2^64); x ^= x>>27;
              return x * 0x2545F4914F6CDD1D (mod 2^64)

    next_float: top 53 bits of next_u64 scaled to [0, 1).
    """

    def __init__(self, seed):
        if seed < 0:
            raise ParameterError("seed must be a non-negative integer")
        x = seed & _M64
        state = 0
        while state == 0:
            x = (x + 0x9E3779B97F4A7C15) & _M64
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
            state = z ^ (z >> 31)
        self._state = state

    def next_u64(self):
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _M64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _M64

    def next_float(self):
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def sample_without_replacement(self, pool, k):
        """k distinct elements from ``pool`` via a partial Fisher-Yates pass."""
        items = list(pool)
        n = len(items)
        if k > n:
            raise ParameterError(f"cannot draw {k} from {n} items")
        for i in range(k):
            j = i + int(self.next_float() * (n - i))
            j = min(j, n - 1)
            items[i], items[j] = items[j], items[i]
        return items[:k]

    def weighted_sample_without_replacement(self, items, weights, k):
        """k distinct items, preference by weight: each item gets the key
        log(u)/w (u uniform) and the k largest keys win."""
        if k > len(items):
            raise ParameterError(f"cannot draw {k} from {len(items)} items")
        keyed = []
        for it, w in zip(items, weights):
            u = max(self.next_float(), 2.0 ** -53)
            key = np.log(u) / w if w > 0 else -np.inf
            keyed.append((key, it))
        keyed.sort(key=lambda p: p[0], reverse=True)
        return [it for _, it in keyed[:k]]


@dataclass
class SamplingMask:
    """bits[i,j] == True marks a sampled k-space location (the set Omega)."""

    bits: np.ndarray
    accel: float
    kind: str
    seed: int = 0

    def __post_init__(self):
        self.bits = np.asarray(self.bits)
        if self.bits.dtype != np.bool_:
            self.bits = self.bits.astype(bool)
        if self.bits.ndim != 2:
            raise DimensionError("mask bits must be a 2-d grid")
        if self.kind not in MASK_KINDS:
            raise ParameterError(f"kind must be one of {MASK_KINDS}, got {self.kind!r}")
        if not self.accel > 1:
            raise ParameterError(f"acceleration must exceed 1, got {self.accel}")

    @property
    def height(self):
        return self.bits.shape[0]

    @property
    def width(self):
        return self.bits.shape[1]

    @property
    def fraction(self):
        return float(self.bits.sum()) / self.bits.size


def _validate_common(h, w, accel):
    if h < 2 or w < 2:
        raise ParameterError(f"mask grid too small: {h}x{w}")
    if not accel > 1:
        raise ParameterError(f"acceleration must exceed 1, got {accel}")


def default_center_fraction(accel):
    """0.08 below 5x, 0.06 at 5x and beyond (configuration, not physics)."""
    return 0.08 if accel < 5 else 0.06


def make_cartesian(height, width, accel, center_fraction=None, seed=0):
    """Column mask: a solid central block of ceil(cf*W) lines plus
    floor(W/R) - block peripheral lines drawn uniformly without replacement."""
    _validate_common(height, width, accel)
    if center_fraction is None:
        center_fraction = default_center_fraction(accel)
    if not 0 < center_fraction < 1.0 / accel:
        raise ParameterError(
            f"center_fraction must lie in (0, 1/R); got {center_fraction} at R={accel}")
    budget = int(width / accel)
    n_center = int(np.ceil(center_fraction * width))
    if budget < n_center:
        raise ParameterError(
            f"budget {budget} cannot cover {n_center} central columns")
    start = width // 2 - n_center // 2
    center_cols = set(range(start, start + n_center))
    periphery = [c for c in range(width) if c not in center_cols]
    rng = Rng64(seed)
    chosen = rng.sample_without_replacement(periphery, budget - n_center)
    cols = np.zeros(width, dtype=bool)
    cols[sorted(center_cols)] = True
    cols[chosen] = True
    bits = np.tile(cols, (height, 1))
    bits[height // 2, width // 2] = True
    return SamplingMask(bits, float(accel), "cartesian", seed)


_GAUSS_CENTER = 16


def _gaussian_density(width, sigma):
    d = np.abs(np.arange(width) - width // 2).astype(np.float64)
    return np.exp(-(d * d) / (2.0 * sigma * sigma))


def make_gaussian(height, width, accel, seed=0):
    """Column mask with Gaussian line density.  sigma is bisected so that the
    expected count 16 + sum_periphery exp(-d^2/2 sigma^2) equals W/R, then
    round(W/R) - 16 peripheral columns are drawn by weighted sampling without
    replacement, making the realized fraction exact to rounding."""
    _validate_common(height, width, accel)
    budget = int(round(width / accel))
    n_extra = budget - _GAUSS_CENTER
    if n_extra < 0:
        raise ParameterError(
            f"target fraction 1/{accel} unreachable: budget {budget} is below "
            f"the {_GAUSS_CENTER} forced central columns")
    c0 = width // 2 - _GAUSS_CENTER // 2
    center_cols = np.zeros(width, dtype=bool)
    center_cols[c0:c0 + _GAUSS_CENTER] = True

    target = width / accel - float(np.count_nonzero(center_cols))

    def expected_periphery(sigma):
        dens = _gaussian_density(width, sigma)
        return float(dens[~center_cols].sum())

    lo, hi = 1e-3, 10.0 * width
    if expected_periphery(hi) < target:
        raise ParameterError("target fraction unreachable even at flat density")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if expected_periphery(mid) < target:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)

    dens = _gaussian_density(width, sigma)
    periphery = np.flatnonzero(~center_cols)
    rng = Rng64(seed)
    chosen = rng.weighted_sample_without_replacement(
        list(periphery), list(dens[periphery]), n_extra)
    cols = center_cols.copy()
    cols[chosen] = True
    bits = np.tile(cols, (height, 1))
    bits[height // 2, width // 2] = True
    return SamplingMask(bits, float(accel), "gaussian", seed)


def _rasterize_spokes(height, width, n_spokes):
    cy, cx = height / 2.0, width / 2.0
    half = 0.5 * np.hypot(height, width)
    t = np.arange(-half, half + 0.25, 0.5)
    bits = np.zeros((height, width), dtype=bool)
    for s in range(n_spokes):
        theta = np.pi * s / n_spokes
        ys = np.floor(cy + t * np.sin(theta) + 0.5).astype(int)
        xs = np.floor(cx + t * np.cos(theta) + 0.5).astype(int)
        keep = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
        bits[ys[keep], xs[keep]] = True
    return bits


def make_radial(height, width, accel):
    """Diameters through the grid center at angles pi*s/n.  The spoke count n
    is calibrated (bracket then bisect on the approximately monotone
    coverage curve) to bring the fraction near 1/R."""
    _validate_common(height, width, accel)
    target = 1.0 / accel
    hi = 1
    while _rasterize_spokes(height, width, hi).mean() < target:
        hi *= 2
        if hi > 8 * max(height, width):
            raise ParameterError("target fraction unreachable with spokes")
    lo = max(1, hi // 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rasterize_spokes(height, width, mid).mean() < target:
            lo = mid
        else:
            hi = mid
    f_lo = _rasterize_spokes(height, width, lo).mean()
    f_hi = _rasterize_spokes(height, width, hi).mean()
    n_spokes = lo if abs(f_lo - target) <= abs(f_hi - target) else hi
    bits = _rasterize_spokes(height, width, n_spokes)
    bits[height // 2, width // 2] = True
    return SamplingMask(bits, float(accel), "radial", 0)


def _rasterize_spiral(height, width, turns):
    # arc-length stepping at 0.5 px using s = a*theta^2/2 (the r*dtheta term;
    # the radial term only matters for the first couple of pixels)
    cy, cx = height / 2.0, width / 2.0
    r_max = 0.5 * np.hypot(height, width)
    theta_max = 2.0 * np.pi * turns
    a = r_max / theta_max
    s_total = 0.5 * a * theta_max * theta_max
    theta = np.sqrt(2.0 * np.arange(0.0, s_total + 0.25, 0.5) / a)
    r = a * theta
    ys = np.floor(cy + r * np.sin(theta) + 0.5).astype(int)
    xs = np.floor(cx + r * np.cos(theta) + 0.5).astype(int)
    keep = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
    bits = np.zeros((height, width), dtype=bool)
    bits[ys[keep], xs[keep]] = True
    return bits


def _calibrate_turns(height, width, accel):
    target = 1.0 / accel
    lo, hi = 1.0, 4.0
    while _rasterize_spiral(height, width, hi).mean() < target:
        hi *= 2.0
        if hi > 64 * max(height, width):
            raise ParameterError("target fraction unreachable with a spiral")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _rasterize_spiral(height, width, mid).mean() < target:
            lo = mid
        else:
            hi = mid
    f_lo = _rasterize_spiral(height, width, lo).mean()
    f_hi = _rasterize_spiral(height, width, hi).mean()
    return lo if abs(f_lo - target) <= abs(f_hi - target) else hi


def make_spiral(height, width, accel):
    """Archimedean spiral r = a*theta out to the corner radius.  Real-valued
    turn count, bisected against the target fraction."""
    _validate_common(height, width, accel)
    bits = _rasterize_spiral(height, width, _calibrate_turns(height, width, accel))
    bits[height // 2, width // 2] = True
    return SamplingMask(bits, float(accel), "spiral", 0)


def make_mask(kind, height, width, accel, seed=0, center_fraction=None):
    """Dispatch helper used by dataset generation and the CLI."""
    if kind == "cartesian":
        return make_cartesian(height, width, accel, center_fraction, seed)
    if kind == "gaussian":
        return make_gaussian(height, width, accel, seed)
    if kind == "radial":
        return make_radial(height, width, accel)
    if kind == "spiral":
        return make_spiral(height, width, accel)
    raise ParameterError(f"unknown mask kind {kind!r}")


def apply_mask(k, mask):
    """Zero unsampled locations of a k-space grid.  Idempotent."""
    if k.domain != "kspace":
        raise ParameterError(f"apply_mask expects a k-space grid, got {k.domain!r}")
    if k.shape != mask.bits.shape:
        raise DimensionError(f"grid {k.shape} vs mask {mask.bits.shape}")
    return ComplexGrid(np.where(mask.bits, k.re, 0.0),
                       np.where(mask.bits, k.im, 0.0), "kspace")
