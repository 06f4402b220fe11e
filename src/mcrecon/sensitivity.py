"""Coil sensitivity estimation from the autocalibration (ACS) region.

Classical pipeline: keep only the fully-sampled central k-space that the
mask's ACS size marks, apodize it (numpy's Hann window ``np.hanning`` over
the rows and over the ACS columns of a rectilinear scheme, or a
raised-cosine taper over the radius of gaussian2d's ACS disc),
inverse-transform per coil, and normalize by the RSS image on its support,
where it exceeds SUPPORT_THRESHOLD times its maximum; the maps are zero
elsewhere. A mask of ACS size 0 has no ACS region and raises a ValueError,
as does an empty support, which only all-zero windowed ACS data gives.
"""

import numpy as np

from .core import RECTILINEAR_SCHEMES, KSpaceData, SamplingMask, SensitivityMaps, check_inputs, rss
from .fourier import ifft2c

SUPPORT_THRESHOLD = 0.05


def _acs_window(mask: SamplingMask) -> np.ndarray:
    h, w, acs = mask.height, mask.width, mask.acs
    if acs == 0:
        raise ValueError(f"the {mask.scheme} mask has no ACS region (acs 0)")
    if mask.scheme in RECTILINEAR_SCHEMES:
        start = (w - acs) // 2
        win = np.zeros((h, w))
        win[:, start : start + acs] = np.outer(np.hanning(h), np.hanning(acs))
        return win
    yy, xx = np.mgrid[0:h, 0:w]
    r = np.sqrt((yy - h // 2) ** 2 + (xx - w // 2) ** 2)
    return 0.5 * (1.0 + np.cos(np.pi * np.minimum(r / acs, 1.0)))


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
                         "ACS region, or the all-zero Hann window of 2 ACS columns or 2 rows)")
    maps = np.zeros_like(lowres)
    np.divide(lowres, mag, out=maps, where=support)
    return SensitivityMaps(maps)
