"""Test helpers shared by several test modules: a direct DFT oracle, random
complex images, random sensitivity maps and one mask per scheme."""

import numpy as np

from mcrecon.core import SensitivityMaps
from mcrecon.sampling import (
    equispaced_mask,
    full_mask,
    gaussian2d_mask,
    pseudo_radial_mask,
    pseudo_spiral_mask,
    random_rectilinear_mask,
)


def dft2c_oracle(x, inverse=False):
    """Direct O(n^4) centered unitary 2D DFT, DC at (h//2, w//2), any grid size."""
    h, w = x.shape[-2], x.shape[-1]
    h0, w0 = h // 2, w // 2
    sign = 1j if inverse else -1j
    out = np.zeros_like(np.asarray(x, dtype=complex))
    it = np.ndindex(*x.shape[:-2]) if x.ndim > 2 else [()]
    for lead in it:
        for p in range(h):
            for q in range(w):
                acc = 0.0
                for r in range(h):
                    for c in range(w):
                        ph = (p - h0) * (r - h0) / h + (q - w0) * (c - w0) / w
                        acc += x[lead + (r, c)] * np.exp(sign * 2 * np.pi * ph)
                out[lead + (p, q)] = acc / np.sqrt(h * w)
    return out


def rand_image(rng, *shape):
    """Complex array of ``shape`` with standard normal real and imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_sens(rng, n_coils, h, w, boxed=False):
    """RSS-normalized random smooth-ish sensitivity maps with full support, or
    with ``boxed`` zero outside a random box of rows and columns and at random
    holes inside it (each voxel with probability 1/4), as estimated maps are
    zero outside the body. Holes may empty the box's edge rows or columns, or
    the whole box."""
    maps = rng.standard_normal((n_coils, h, w)) + 1j * rng.standard_normal((n_coils, h, w))
    maps += 0.5  # keep RSS bounded away from zero
    if boxed:
        (r0, r1), (c0, c1) = (np.sort(rng.choice(n + 1, 2, replace=False)) for n in (h, w))
        keep = np.zeros((h, w), bool)
        keep[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) >= 0.25
        maps *= keep
    norm = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return SensitivityMaps(maps=np.divide(maps, norm, out=np.zeros_like(maps), where=norm > 0))


def make_mask(scheme, h, w, accel, seed):
    if scheme == "full":
        return full_mask(h, w)
    if scheme == "equispaced":
        return equispaced_mask(h, w, accel, min(4, w), seed)
    if scheme == "random-rectilinear":
        return random_rectilinear_mask(h, w, accel, min(4, w), seed)
    if scheme == "gaussian2d":
        return gaussian2d_mask(h, w, accel, 1, seed)
    if scheme == "pseudo-radial":
        return pseudo_radial_mask(h, w, accel, seed)
    if scheme == "pseudo-spiral":
        return pseudo_spiral_mask(h, w, accel, seed)
    raise ValueError(scheme)


ALL_SCHEMES = (
    "equispaced",
    "random-rectilinear",
    "gaussian2d",
    "pseudo-radial",
    "pseudo-spiral",
)
