"""Undersampling mask generators.

Every generator in :data:`GENERATORS` takes ``(height, width, accel, acs,
seed)`` and passes ``acs``, the ACS size, to the :class:`SamplingMask` it
returns, which states and checks what the size means for each scheme.

All randomness comes from :class:`Lcg`, a self-contained 64-bit linear
congruential generator (Knuth MMIX constants, uniforms from the top 53 bits),
so masks are bit-reproducible across platforms and languages for a seed.
"""

import math
import operator

import numpy as np

from .core import SamplingMask, check_count

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# gaussian2d_mask gives up after this many draws per point of its budget.
# The pinned and benchmark masks need under 2; an R of 1.3 on 64x64 needs
# about 15, and 1.01 would need hundreds.
GAUSS_DRAWS_PER_POINT = 16


class Lcg:
    """Minimal splittable-by-seed 64-bit LCG used by every mask generator."""

    def __init__(self, seed: int):
        self.state = (operator.index(seed) ^ 0x9E3779B97F4A7C15) & _MASK64
        self.next_u64()

    def next_u64(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return min(int(self.uniform() * n), n - 1)

    def gauss_pair(self) -> tuple[float, float]:
        u1 = max(self.uniform(), 1e-300)
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(2 * math.pi * u2), r * math.sin(2 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def _check_grid(height: int, width: int, accel: float) -> None:
    """Check height and width by ``core.check_count`` and accel as a finite R >= 1."""
    check_count("height", height, 1)
    check_count("width", width, 1)
    if not 1 <= accel < math.inf:
        raise ValueError(f"need a finite R >= 1, got R={accel}")


def _rectilinear_plan(height: int, width: int, accel: float, acs: int) -> tuple[set, list, int]:
    """Check the grid; return the centered ACS columns, the other columns in
    order, and how many of those to add for ceil(width / accel) columns in
    all. ``acs`` is checked by the mask the columns become."""
    _check_grid(height, width, accel)
    lo = (width - acs) // 2
    inside = {c for c in range(width) if lo <= c < lo + acs}
    outside = [c for c in range(width) if c not in inside]
    return inside, outside, math.ceil(width / accel) - len(inside)


def _columns_to_mask(height, width, cols, scheme, accel, acs) -> SamplingMask:
    pattern = np.zeros((height, width), dtype=np.uint8)
    pattern[:, sorted(cols)] = 1
    return SamplingMask(pattern, scheme, float(accel), acs)


def _fully_sampled(height, width, scheme, acs=0) -> SamplingMask:
    """The fully sampled mask of :func:`full_mask`, and of the point
    generators at acceleration 1, which their sampling cannot fill. The
    rectilinear generators reach it on their general path."""
    return SamplingMask(np.ones((height, width), dtype=np.uint8), scheme, 1.0, acs)


def full_mask(height: int, width: int) -> SamplingMask:
    _check_grid(height, width, 1)
    return _fully_sampled(height, width, "full")


def equispaced_mask(height: int, width: int, accel: float, acs: int, seed: int) -> SamplingMask:
    """Rectilinear equispaced columns; ``acs`` centered columns always sampled.

    It samples ceil(width / accel) columns, ACS included; the seed chooses
    the stride offset of the non-ACS columns.
    """
    cols, outside, extra = _rectilinear_plan(height, width, accel, acs)
    if extra > 0:
        stride = len(outside) / extra
        rng = Lcg(seed)
        offset = rng.uniform() * stride
        for i in range(extra):
            cols.add(outside[int(offset + i * stride) % len(outside)])
    return _columns_to_mask(height, width, cols, "equispaced", accel, acs)


def random_rectilinear_mask(
    height: int, width: int, accel: float, acs: int, seed: int
) -> SamplingMask:
    """Like :func:`equispaced_mask` but non-ACS columns drawn uniformly
    without replacement to the same total count."""
    cols, outside, extra = _rectilinear_plan(height, width, accel, acs)
    Lcg(seed).shuffle(outside)
    cols.update(outside[:extra])
    return _columns_to_mask(height, width, cols, "random-rectilinear", accel, acs)


def gaussian2d_mask(height: int, width: int, accel: float, acs: int, seed: int) -> SamplingMask:
    """2D points from a centered bivariate Gaussian (sigma = dim/6 per axis),
    without replacement, up to a budget of ceil(h*w / accel) points.

    A centered disc of radius ``acs`` is fully sampled and counts toward
    the budget. Raises ValueError if GAUSS_DRAWS_PER_POINT
    draws per budgeted point leave the budget unfilled (R just above 1).
    """
    _check_grid(height, width, accel)
    if accel == 1:
        return _fully_sampled(height, width, "gaussian2d", acs)
    budget = math.ceil(height * width / accel)
    cy, cx = height // 2, width // 2
    pattern = np.zeros((height, width), dtype=np.uint8)
    yy, xx = np.mgrid[0:height, 0:width]
    disc = (yy - cy) ** 2 + (xx - cx) ** 2 <= acs**2
    disc_size = int(disc.sum())
    if budget < disc_size:
        raise ValueError(
            f"point budget {budget} smaller than ACS disc of {disc_size} points"
        )
    pattern[disc] = 1
    remaining = budget - disc_size
    rng = Lcg(seed)
    sy, sx = height / 6.0, width / 6.0
    for _ in range(GAUSS_DRAWS_PER_POINT * budget):
        if remaining == 0:
            break
        g1, g2 = rng.gauss_pair()
        r = int(round(cy + sy * g1))
        c = int(round(cx + sx * g2))
        if 0 <= r < height and 0 <= c < width and pattern[r, c] == 0:
            pattern[r, c] = 1
            remaining -= 1
    if remaining:
        raise ValueError(
            f"gaussian2d: {GAUSS_DRAWS_PER_POINT * budget} draws filled {budget - remaining} of "
            f"{budget} points at R={accel} on a {height}x{width} grid; use a larger R"
        )
    return SamplingMask(pattern, "gaussian2d", float(accel), acs)


def pseudo_radial_mask(height: int, width: int, accel: float, acs: int, seed: int) -> SamplingMask:
    """Union of golden-angle digital spokes through the grid center.

    Spoke i lies at angle offset + i * GOLDEN_ANGLE, with the offset drawn
    from the seed, so n spokes are n - 1 spokes plus one. The search adds
    one spoke per step and keeps the first spoke count whose achieved
    acceleration (total/sampled) is closest to nominal. It stops once the
    achieved acceleration falls below accel / 1.5, or at 2 * max(h, w)
    spokes.
    """
    _check_grid(height, width, accel)
    if accel == 1:
        return _fully_sampled(height, width, "pseudo-radial", acs)
    rng = Lcg(seed)
    offset = rng.uniform() * 2 * math.pi
    cy, cx = height // 2, width // 2
    half = math.hypot(height, width)
    ts = np.arange(-2 * half, 2 * half + 1) * 0.5
    pattern = np.zeros((height, width), dtype=np.uint8)
    best_gap = math.inf
    for i in range(2 * max(height, width)):
        theta = offset + i * GOLDEN_ANGLE
        ys = np.round(cy + ts * math.sin(theta)).astype(int)
        xs = np.round(cx + ts * math.cos(theta)).astype(int)
        ok = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
        pattern[ys[ok], xs[ok]] = 1
        achieved = height * width / pattern.sum()
        gap = abs(achieved - accel)
        if gap < best_gap:
            best_gap, best = gap, pattern.copy()
        if achieved < accel / 1.5:
            break
    return SamplingMask(best, "pseudo-radial", float(accel), acs)


def _rasterize_spiral(
    height: int, width: int, n_arms: int, pitch: float, phase: float
) -> np.ndarray:
    cy, cx = height // 2, width // 2
    pattern = np.zeros((height, width), dtype=np.uint8)
    r_max = math.hypot(max(cy, height - 1 - cy), max(cx, width - 1 - cx))
    a = pitch / (2 * math.pi)
    theta_max = r_max / a
    thetas = np.linspace(0.0, theta_max, int(theta_max * 60) + 2)
    radii = a * thetas
    for j in range(n_arms):
        phi = phase + 2 * math.pi * j / n_arms
        ys = np.round(cy + radii * np.sin(thetas + phi)).astype(int)
        xs = np.round(cx + radii * np.cos(thetas + phi)).astype(int)
        ok = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
        pattern[ys[ok], xs[ok]] = 1
    return pattern


_SPIRAL_PITCHES = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


def pseudo_spiral_mask(height: int, width: int, accel: float, acs: int, seed: int) -> SamplingMask:
    """Union of Archimedean spiral arms (r = a*theta) from center to edge.

    Arm count and pitch are chosen by a seed-independent search targeting
    the nominal acceleration; the seed only rotates the arm phase, so the
    sampled-point count is stable across seeds.
    """
    _check_grid(height, width, accel)
    if accel == 1:
        return _fully_sampled(height, width, "pseudo-spiral", acs)
    best = None
    for pitch in _SPIRAL_PITCHES:
        for n_arms in range(1, 17):
            pattern = _rasterize_spiral(height, width, n_arms, pitch, 0.0)
            achieved = height * width / pattern.sum()
            gap = abs(achieved - accel)
            if best is None or gap < best[0]:
                best = (gap, pitch, n_arms)
            if achieved < accel / 1.5:
                break
    rng = Lcg(seed)
    phase = rng.uniform() * 2 * math.pi
    pattern = _rasterize_spiral(height, width, best[2], best[1], phase)
    return SamplingMask(pattern, "pseudo-spiral", float(accel), acs)


GENERATORS = {
    "equispaced": equispaced_mask,
    "random-rectilinear": random_rectilinear_mask,
    "gaussian2d": gaussian2d_mask,
    "pseudo-radial": pseudo_radial_mask,
    "pseudo-spiral": pseudo_spiral_mask,
}


def make_mask(
    scheme: str, height: int, width: int, accel: float, seed: int, acs: int = 0
) -> SamplingMask:
    """Mask of the named scheme in :data:`GENERATORS`, with ``acs`` as the
    generator's ACS size (module docstring)."""
    if scheme not in GENERATORS:
        raise ValueError(f"unknown mask scheme {scheme!r}; expected one of {sorted(GENERATORS)}")
    return GENERATORS[scheme](height, width, accel, acs, seed)


def achieved_acceleration(mask: SamplingMask) -> float:
    """Grid size divided by the number of sampled locations."""
    return mask.height * mask.width / mask.n_sampled
