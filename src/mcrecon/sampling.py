"""Undersampling mask generators.

All randomness comes from a self-contained 64-bit linear congruential
generator (Knuth MMIX constants: state <- state * 6364136223846793005 +
1442695040888963407 mod 2^64, uniforms from the top 53 bits), so masks are
bit-reproducible across platforms and languages for a fixed seed.
"""

import math

import numpy as np

from .core import RECTILINEAR_SCHEMES, SamplingMask

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class Lcg:
    """Minimal splittable-by-seed 64-bit LCG used by every mask generator."""

    def __init__(self, seed: int):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK64
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


def _rectilinear_plan(width: int, accel: float, n_acs: int) -> tuple[set, list, int]:
    """Check the arguments; return the centered ACS columns, the other
    columns in order, and how many of those to add for ceil(width / accel)
    columns in all."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if accel < 1:
        raise ValueError("acceleration must be >= 1")
    if n_acs > width:
        raise ValueError(f"ACS lines ({n_acs}) exceed width ({width})")
    lo = (width - n_acs) // 2
    outside = [c for c in range(width) if not lo <= c < lo + n_acs]
    return set(range(lo, lo + n_acs)), outside, max(math.ceil(width / accel) - n_acs, 0)


def _columns_to_mask(height, width, cols, scheme, accel, n_acs) -> SamplingMask:
    pattern = np.zeros((height, width), dtype=np.uint8)
    pattern[:, sorted(cols)] = 1
    return SamplingMask(
        pattern=pattern, scheme=scheme, nominal_acceleration=float(accel), acs_lines=n_acs
    )


def _fully_sampled(height, width, scheme, acs_lines=0, acs_radius=0) -> SamplingMask:
    """The mask every generator returns at acceleration 1, under its own
    scheme name and ACS metadata."""
    pattern = np.ones((height, width), dtype=np.uint8)
    return SamplingMask(pattern, scheme, 1.0, acs_lines=acs_lines, acs_radius=acs_radius)


def full_mask(height: int, width: int) -> SamplingMask:
    return _fully_sampled(height, width, "full")


def equispaced_mask(height: int, width: int, accel: float, n_acs: int, seed: int) -> SamplingMask:
    """Rectilinear equispaced columns; n_acs centered columns always sampled.

    Target total sampled columns is ceil(width / accel), ACS included
    (floored at n_acs); the seed chooses the stride offset of the
    non-ACS columns.
    """
    cols, outside, extra = _rectilinear_plan(width, accel, n_acs)
    if accel == 1:
        return _fully_sampled(height, width, "equispaced", acs_lines=n_acs)
    if extra > 0 and outside:
        extra = min(extra, len(outside))
        stride = len(outside) / extra
        rng = Lcg(seed)
        offset = rng.uniform() * stride
        for i in range(extra):
            cols.add(outside[int(offset + i * stride) % len(outside)])
    return _columns_to_mask(height, width, cols, "equispaced", accel, n_acs)


def random_rectilinear_mask(
    height: int, width: int, accel: float, n_acs: int, seed: int
) -> SamplingMask:
    """Like :func:`equispaced_mask` but non-ACS columns drawn uniformly
    without replacement to the same total count."""
    cols, outside, extra = _rectilinear_plan(width, accel, n_acs)
    if accel == 1:
        return _fully_sampled(height, width, "random-rectilinear", acs_lines=n_acs)
    if extra > 0 and outside:
        rng = Lcg(seed)
        rng.shuffle(outside)
        cols.update(outside[: min(extra, len(outside))])
    return _columns_to_mask(height, width, cols, "random-rectilinear", accel, n_acs)


def gaussian2d_mask(
    height: int, width: int, accel: float, acs_radius: int, seed: int
) -> SamplingMask:
    """2D points from a centered bivariate Gaussian (sigma = dim/6 per axis),
    without replacement, up to a budget of ceil(h*w / accel) points.

    A centered disc of ``acs_radius`` is fully sampled and counts toward
    the budget.
    """
    if accel < 1:
        raise ValueError("acceleration must be >= 1")
    if accel == 1:
        return _fully_sampled(height, width, "gaussian2d", acs_radius=acs_radius)
    budget = math.ceil(height * width / accel)
    cy, cx = height // 2, width // 2
    pattern = np.zeros((height, width), dtype=np.uint8)
    yy, xx = np.mgrid[0:height, 0:width]
    disc = (yy - cy) ** 2 + (xx - cx) ** 2 <= acs_radius**2
    disc_size = int(disc.sum())
    if budget < disc_size:
        raise ValueError(
            f"point budget {budget} smaller than ACS disc of {disc_size} points"
        )
    pattern[disc] = 1
    remaining = budget - disc_size
    rng = Lcg(seed)
    sy, sx = height / 6.0, width / 6.0
    while remaining > 0:
        g1, g2 = rng.gauss_pair()
        r = int(round(cy + sy * g1))
        c = int(round(cx + sx * g2))
        if 0 <= r < height and 0 <= c < width and pattern[r, c] == 0:
            pattern[r, c] = 1
            remaining -= 1
    return SamplingMask(
        pattern=pattern,
        scheme="gaussian2d",
        nominal_acceleration=float(accel),
        acs_radius=acs_radius,
    )


def _rasterize_spokes(height: int, width: int, n_spokes: int, offset: float) -> np.ndarray:
    cy, cx = height // 2, width // 2
    pattern = np.zeros((height, width), dtype=np.uint8)
    half = math.hypot(height, width)
    ts = np.arange(-2 * half, 2 * half + 1) * 0.5
    for i in range(n_spokes):
        theta = offset + i * GOLDEN_ANGLE
        ys = np.round(cy + ts * math.sin(theta)).astype(int)
        xs = np.round(cx + ts * math.cos(theta)).astype(int)
        ok = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
        pattern[ys[ok], xs[ok]] = 1
    return pattern


def pseudo_radial_mask(height: int, width: int, accel: float, seed: int) -> SamplingMask:
    """Union of golden-angle digital spokes through the grid center.

    The spoke count is chosen by deterministic search so the achieved
    acceleration (total/sampled) is as close to nominal as rasterization
    allows.
    """
    if accel < 1:
        raise ValueError("acceleration must be >= 1")
    if accel == 1:
        return _fully_sampled(height, width, "pseudo-radial")
    rng = Lcg(seed)
    offset = rng.uniform() * 2 * math.pi
    best = None
    max_spokes = 2 * max(height, width)
    for n_spokes in range(1, max_spokes + 1):
        pattern = _rasterize_spokes(height, width, n_spokes, offset)
        achieved = height * width / pattern.sum()
        gap = abs(achieved - accel)
        if best is None or gap < best[0]:
            best = (gap, pattern)
        if achieved < accel / 1.5:
            break
    return SamplingMask(
        pattern=best[1], scheme="pseudo-radial", nominal_acceleration=float(accel)
    )


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


def pseudo_spiral_mask(height: int, width: int, accel: float, seed: int) -> SamplingMask:
    """Union of Archimedean spiral arms (r = a*theta) from center to edge.

    Arm count and pitch are chosen by a seed-independent search targeting
    the nominal acceleration; the seed only rotates the arm phase, so the
    sampled-point count is stable across seeds.
    """
    if accel < 1:
        raise ValueError("acceleration must be >= 1")
    if accel == 1:
        return _fully_sampled(height, width, "pseudo-spiral")
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
    return SamplingMask(
        pattern=pattern, scheme="pseudo-spiral", nominal_acceleration=float(accel)
    )


GENERATORS = {
    "equispaced": equispaced_mask,
    "random-rectilinear": random_rectilinear_mask,
    "gaussian2d": gaussian2d_mask,
    "pseudo-radial": pseudo_radial_mask,
    "pseudo-spiral": pseudo_spiral_mask,
}


def make_mask(
    scheme: str, height: int, width: int, accel: float, seed: int,
    acs_lines: int = 0, acs_radius: int = 0,
) -> SamplingMask:
    """Mask of the named scheme in :data:`GENERATORS`. Rectilinear schemes
    use ``acs_lines`` and gaussian2d uses ``acs_radius``; the radial and
    spiral schemes take neither."""
    if scheme not in GENERATORS:
        raise ValueError(f"unknown mask scheme {scheme!r}; expected one of {sorted(GENERATORS)}")
    gen = GENERATORS[scheme]
    if scheme in RECTILINEAR_SCHEMES:
        return gen(height, width, accel, acs_lines, seed)
    if scheme == "gaussian2d":
        return gen(height, width, accel, acs_radius, seed)
    return gen(height, width, accel, seed)


def achieved_acceleration(mask: SamplingMask) -> float:
    """Grid size divided by the number of sampled locations."""
    return mask.height * mask.width / mask.n_sampled
