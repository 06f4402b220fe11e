"""Undersampling mask generators.

Every generator in :data:`GENERATORS` takes ``(height, width, accel, acs,
seed)`` and passes ``acs``, the ACS size, to the :class:`SamplingMask` it
returns, which states and checks what the size means for each scheme.

Every mask samples exactly its budget, ACS region included: ceil(width /
accel) whole columns for the rectilinear schemes, and ceil(height * width /
accel) points for gaussian2d, pseudo-radial and pseudo-spiral. A budget
that a scheme cannot reach raises ValueError.

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


def _check_grid(height: int, width: int, accel: float, seed: int = 0) -> None:
    """Check height and width by ``core.check_count``, accel as a finite
    R >= 1, and the seed as an integer (TypeError), at every R alike."""
    check_count("height", height, 1)
    check_count("width", width, 1)
    if not 1 <= accel < math.inf:
        raise ValueError(f"need a finite R >= 1, got R={accel}")
    operator.index(seed)


def _rectilinear_plan(
    height: int, width: int, accel: float, acs: int, seed: int
) -> tuple[set, list, int]:
    """Check the grid; return the centered ACS columns, the other columns in
    order, and how many of those to add for the column budget. ``acs`` is
    checked by the mask the columns become."""
    _check_grid(height, width, accel, seed)
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
    The seed chooses the stride offset of the non-ACS columns."""
    cols, outside, extra = _rectilinear_plan(height, width, accel, acs, seed)
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
    cols, outside, extra = _rectilinear_plan(height, width, accel, acs, seed)
    Lcg(seed).shuffle(outside)
    cols.update(outside[:extra])
    return _columns_to_mask(height, width, cols, "random-rectilinear", accel, acs)


def gaussian2d_mask(height: int, width: int, accel: float, acs: int, seed: int) -> SamplingMask:
    """2D points from a centered bivariate Gaussian (sigma = dim/6 per axis),
    without replacement, up to the point budget.

    A centered disc of radius ``acs`` is fully sampled and counts toward
    the budget. Raises ValueError if GAUSS_DRAWS_PER_POINT
    draws per budgeted point leave the budget unfilled (R just above 1).
    """
    _check_grid(height, width, accel, seed)
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


def _golden_curves_mask(height, width, accel, acs, seed, scheme, radii, angles) -> SamplingMask:
    """Mask of ``scheme`` along turned copies of one curve through the grid
    center, given in polar form by ``radii`` and ``angles`` and ordered from
    the center outwards.

    Copy i is turned by offset + i * GOLDEN_ANGLE, with the offset drawn
    from the seed. Each copy adds its unsampled in-grid points in order
    until the point budget is met, so only the last copy is cut, and the cut
    keeps its center. Raises ValueError if 2 * max(h, w) copies leave the
    budget unfilled (R just above 1).
    """
    if accel == 1:
        return _fully_sampled(height, width, scheme, acs)
    offset = Lcg(seed).uniform() * 2 * math.pi
    budget = math.ceil(height * width / accel)
    cy, cx = height // 2, width // 2
    pattern = np.zeros(height * width, dtype=np.uint8)
    filled, limit = 0, 2 * max(height, width)
    for i in range(limit):
        turned = angles + (offset + i * GOLDEN_ANGLE)
        ys = np.round(cy + radii * np.sin(turned)).astype(int)
        xs = np.round(cx + radii * np.cos(turned)).astype(int)
        ok = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
        points = ys[ok] * width + xs[ok]
        points = points[pattern[points] == 0]
        _, first = np.unique(points, return_index=True)
        points = points[np.sort(first)[: budget - filled]]
        pattern[points] = 1
        filled += len(points)
        if filled == budget:
            return SamplingMask(pattern.reshape(height, width), scheme, float(accel), acs)
    raise ValueError(
        f"{scheme}: {limit} curves filled {filled} of {budget} points at R={accel} on a "
        f"{height}x{width} grid; use a larger R"
    )


def pseudo_radial_mask(height: int, width: int, accel: float, acs: int, seed: int) -> SamplingMask:
    """Golden-angle digital spokes through the grid center, each sampled at
    half-pixel steps alternating on either side of the center."""
    _check_grid(height, width, accel, seed)
    n = math.ceil(math.hypot(height // 2, width // 2))
    radii = (np.arange(4 * n + 1) + 1) // 2 * 0.5
    radii[1::2] *= -1
    return _golden_curves_mask(height, width, accel, acs, seed, "pseudo-radial",
                               radii, np.zeros_like(radii))


def pseudo_spiral_mask(height: int, width: int, accel: float, acs: int, seed: int) -> SamplingMask:
    """Archimedean spiral arms r = a * theta of pitch 2 * accel pixels, from
    the center to the farthest corner at 60 samples per radian, so that the
    samples thin out beyond a radius of 60 pixels."""
    _check_grid(height, width, accel, seed)
    a = accel / math.pi
    theta_max = math.hypot(height // 2, width // 2) / a
    thetas = np.linspace(0.0, theta_max, int(theta_max * 60) + 2)
    return _golden_curves_mask(height, width, accel, acs, seed, "pseudo-spiral",
                               a * thetas, thetas)


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
