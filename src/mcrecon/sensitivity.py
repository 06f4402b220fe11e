"""Coil sensitivity estimation from the autocalibration (ACS) region.

Classical pipeline: keep only the fully-sampled central k-space, apodize
it (numpy's Hann window ``np.hanning`` over the rows and over the ACS
columns, or a raised-cosine taper over the radius of an ACS disc),
inverse-transform per coil, and normalize by the RSS image on its support,
where it exceeds SUPPORT_THRESHOLD times its maximum; the maps are zero
elsewhere. An empty support, which only all-zero windowed ACS data gives,
raises a ValueError rather than return empty maps.
"""

import numpy as np

from .core import KSpaceData, SamplingMask, SensitivityMaps, check_inputs, rss
from .fourier import ifft2c

SUPPORT_THRESHOLD = 0.05


def _acs_window(mask: SamplingMask) -> np.ndarray:
    h, w = mask.height, mask.width
    if mask.acs_lines >= 1:
        start = (w - mask.acs_lines) // 2
        win = np.zeros((h, w))
        block = np.outer(np.hanning(h), np.hanning(mask.acs_lines))
        win[:, start : start + mask.acs_lines] = block
        return win
    if mask.acs_radius >= 1:
        cy, cx = h // 2, w // 2
        yy, xx = np.mgrid[0:h, 0:w]
        r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        return 0.5 * (1.0 + np.cos(np.pi * np.minimum(r / mask.acs_radius, 1.0)))
    raise ValueError("mask has no ACS region (acs_lines and acs_radius are both 0)")


def estimate_from_acs(ksp: KSpaceData, mask: SamplingMask) -> SensitivityMaps:
    """Estimate RSS-normalized sensitivity maps from the ACS data.

    Dynamic inputs use frame 0; the mask (and hence the ACS region) is
    shared across frames.
    """
    check_inputs(ksp, mask)
    window = _acs_window(mask)
    lowres = ifft2c(window * ksp.data[:, 0])
    mag = rss(lowres)
    support = mag > SUPPORT_THRESHOLD * mag.max()
    if not support.any():
        raise ValueError(f"ACS calibration gives empty maps: the windowed ACS data of the "
                         f"{mask.height}x{mask.width} mask is all zero (zero k-space in the "
                         "ACS region, or the all-zero Hann window of 2 ACS lines or 2 rows)")
    maps = np.zeros_like(lowres)
    np.divide(lowres, mag, out=maps, where=support)
    return SensitivityMaps(maps)
