"""Test helpers shared by several test modules: a direct DFT oracle, random
complex images, random sensitivity maps and one mask per scheme."""

import math

import numpy as np

from mcrecon import sampling
from mcrecon.core import RECTILINEAR_SCHEMES, SensitivityMaps


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


def scheme_acs(scheme, lines, radius):
    """make_mask's ``acs`` for ``scheme``: ``lines`` ACS columns for a
    rectilinear scheme, an ACS disc of ``radius`` for gaussian2d, and 0 for
    the schemes with no ACS region."""
    return lines if scheme in RECTILINEAR_SCHEMES else radius if scheme == "gaussian2d" else 0


def make_mask(scheme, h, w, accel, seed, lines=4, radius=1):
    """The full mask, or the library's mask of ``scheme`` with an ACS block of
    min(lines, ceil(w / accel)) columns, as many as the mask samples at most
    (rectilinear schemes), or an ACS disc of ``radius`` (gaussian2d)."""
    if scheme == "full":
        return sampling.full_mask(h, w)
    acs = scheme_acs(scheme, min(lines, math.ceil(w / accel)), radius)
    return sampling.make_mask(scheme, h, w, accel, seed, acs)


ALL_SCHEMES = tuple(sampling.GENERATORS)
