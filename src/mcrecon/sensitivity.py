"""Coil sensitivity estimation from the autocalibration (ACS) region.

Classical pipeline: keep only the fully-sampled central k-space, apodize
with a raised-cosine window, inverse-transform per coil, and normalize by
the RSS image on its support, where it exceeds SUPPORT_THRESHOLD times its
maximum; the maps are zero elsewhere.
"""

import numpy as np

from .core import KSpaceData, SamplingMask, SensitivityMaps, rss
from .fourier import ifft2c

SUPPORT_THRESHOLD = 0.05


def _raised_cosine(n: int) -> np.ndarray:
    # Hann window; degenerates to [1] for n == 1
    if n == 1:
        return np.ones(1)
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2 * np.pi * k / (n - 1)))


def _acs_window(mask: SamplingMask) -> np.ndarray:
    h, w = mask.height, mask.width
    if mask.acs_lines >= 1:
        start = (w - mask.acs_lines) // 2
        win = np.zeros((h, w))
        block = np.outer(_raised_cosine(h), _raised_cosine(mask.acs_lines))
        win[:, start : start + mask.acs_lines] = block
        return win
    if mask.acs_radius >= 1:
        cy, cx = h // 2, w // 2
        yy, xx = np.mgrid[0:h, 0:w]
        r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        win = 0.5 * (1.0 + np.cos(np.pi * np.minimum(r / mask.acs_radius, 1.0)))
        win[r > mask.acs_radius] = 0.0
        return win
    raise ValueError("mask has no ACS region (acs_lines and acs_radius are both 0)")


def estimate_from_acs(ksp: KSpaceData, mask: SamplingMask) -> SensitivityMaps:
    """Estimate RSS-normalized sensitivity maps from the ACS data.

    Dynamic inputs use frame 0; the mask (and hence the ACS region) is
    shared across frames.
    """
    if (ksp.height, ksp.width) != (mask.height, mask.width):
        raise ValueError("k-space grid does not match mask grid")
    window = _acs_window(mask)
    lowres = ifft2c(window * ksp.data[:, 0])
    mag = rss(lowres)
    support = mag > SUPPORT_THRESHOLD * mag.max()
    maps = np.zeros_like(lowres)
    np.divide(lowres, mag, out=maps, where=support)
    return SensitivityMaps(maps)
