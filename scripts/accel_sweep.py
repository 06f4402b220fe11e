#!/usr/bin/env python3
"""Sweep acceleration factors and undersampling schemes on a simulated
phantom, comparing zero-filled and ADMM reconstructions.

Each mask gets the one ACS size that its scheme takes (half_budget_acs),
about half of its budget, so that it fits at every R: ceil(size / R) // 2 of
the ceil(size / R) rectilinear columns, a gaussian2d disc of radius
isqrt(budget // 7) (pi r^2 <= budget / 2) in its budget of ceil(size^2 / R)
points, and none for pseudo-radial and pseudo-spiral. Every mask samples
exactly its budget, so the R_eff of a rectilinear row is size / ceil(size / R)
and that of any other row size^2 / ceil(size^2 / R).

Usage: python3 scripts/accel_sweep.py [--size 64] [--coils 4] [--seed 1]
"""

import argparse
import math

import numpy as np

from mcrecon import (
    AdmmConfig,
    DenoiserSpec,
    KSpaceData,
    admm_reconstruct,
    make_mask,
    nmse,
    psnr,
    ssim,
    zero_filled_init,
)
from mcrecon.core import RECTILINEAR_SCHEMES
from mcrecon.data import shepp_logan, simulate_coils
from mcrecon.sampling import GENERATORS, achieved_acceleration


def half_budget_acs(scheme: str, size: int, accel: float) -> int:
    """make_mask's acs for ``scheme`` on a size x size grid at R ``accel``:
    an ACS region of about half the mask's budget (module docstring)."""
    if scheme in RECTILINEAR_SCHEMES:
        return math.ceil(size / accel) // 2
    if scheme == "gaussian2d":
        return math.isqrt(math.ceil(size**2 / accel) // 7)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--coils", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--denoiser", default="tv-chambolle")
    ap.add_argument("--strength", type=float, default=1e-3)
    ap.add_argument("--lam", type=float, default=0.1)
    args = ap.parse_args(argv)

    img = shepp_logan(args.size)
    sens, kfull = simulate_coils(img, args.coils, args.seed)
    truth = np.abs(img.data[0])
    dr = float(truth.max())
    cfg = AdmmConfig(
        lam=args.lam, denoiser=DenoiserSpec(kind=args.denoiser, strength=args.strength)
    )

    print(f"{'scheme':<20}{'R':>4}{'R_eff':>8}{'SSIM(zf)':>10}{'SSIM':>8}{'PSNR':>8}{'NMSE':>10}")
    for scheme in GENERATORS:
        for R in (4, 8, 10):
            mask = make_mask(scheme, args.size, args.size, R, args.seed,
                             half_budget_acs(scheme, args.size, R))
            y = KSpaceData(mask.pattern * kfull.data)
            zf = np.abs(zero_filled_init(y, mask, sens).data[0])
            rec = np.abs(admm_reconstruct(y, mask, sens, cfg).data[0])
            print(
                f"{scheme:<20}{R:>4}{achieved_acceleration(mask):>8.2f}"
                f"{ssim(truth, zf, dr):>10.4f}{ssim(truth, rec, dr):>8.4f}"
                f"{psnr(truth, rec, dr):>8.2f}{nmse(truth, rec):>10.4f}"
            )


if __name__ == "__main__":
    main()
