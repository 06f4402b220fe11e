"""Workload definitions, input generation, requests and output checks.

A request is one ``mcrecon reconstruct`` followed by one ``mcrecon evaluate``
per reconstructed volume, both driven in-process through
``mcrecon.cli.main``. Every input is generated here from the workload seed
and handed to the program only as CKS files.
"""

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

COILS = 8
QUALITY_KEYS = ("ssim", "psnr_db", "nmse")
# The evaluate CSV metric behind each quality metric.
_CSV_METRIC = {"ssim": "ssim", "psnr_db": "psnr", "nmse": "nmse"}
# CKS stores float32, so the CLI output may differ from the in-memory
# complex128 solve by float32 round-off: 2**-24 relative per component.
ROUNDOFF_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    frames: int
    volumes: int
    mask_generator: str  # a generator in mcrecon.sampling
    accel: float
    acs: int  # ACS lines (rectilinear) or ACS disc radius (gaussian2d)
    cli_args: tuple[str, ...]
    # What the CLI is expected to run, stated explicitly so the in-memory
    # cross-check also catches a change of CLI defaults.
    T: int
    inner: int
    lam: float
    denoiser: str
    strength: float
    jobs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # A^H A dominates and the l1 prox is almost free; rectilinear mask.
        Workload(
            name="static256-rect-l1",
            size=256,
            frames=1,
            volumes=1,
            mask_generator="equispaced_mask",
            accel=4,
            acs=24,
            cli_args=("--estimate-sens", "--denoiser", "l1", "--strength", "1e-3", "--lam", "0.1"),
            T=16,
            inner=14,
            lam=0.1,
            denoiser="l1-soft-threshold",
            strength=1e-3,
        ),
        # Small arrays, four volumes over the CLI thread pool, 2D point mask.
        Workload(
            name="batch128-gauss-jobs2",
            size=128,
            frames=1,
            volumes=4,
            mask_generator="gaussian2d_mask",
            accel=6,
            acs=8,
            cli_args=("--estimate-sens", "--jobs", "2"),
            T=16,
            inner=14,
            lam=1.0,
            denoiser="tikhonov-smooth",
            strength=1e-2,
            jobs=2,
        ),
        # Per-frame TV loop, frame-batched A^H A, 12x larger files, ssim3d.
        Workload(
            name="dynamic128x12-tv",
            size=128,
            frames=12,
            volumes=1,
            mask_generator="random_rectilinear_mask",
            accel=4,
            acs=24,
            cli_args=(
                "--estimate-sens", "--mode", "dynamic",
                "--denoiser", "tv", "--strength", "1e-3", "--lam", "0.1",
            ),
            T=10,
            inner=8,
            lam=0.1,
            denoiser="tv-chambolle",
            strength=1e-3,
        ),
    )
}


@dataclass
class Inputs:
    truth: Path
    mask: Path
    kspace: list[Path]
    sha256: dict[str, str]
    mask_s: float  # median wall time of one mask generator call


# The acquisition protocol (mask) and the coil geometry of each volume are
# fixed per workload; the workload seed draws the measurement noise. Mask
# and coil geometry move SSIM by several percent from seed to seed, the
# noise by well under 0.1%, so quality stays comparable across seeds.
MASK_SEED = 1
NOISE_STD = 1e-3  # per real and imaginary part, orthonormal k-space units


def build_inputs(wl: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the phantom, mask and noisy masked coil k-space for ``seed``."""
    from mcrecon import data, sampling
    from mcrecon.core import KSpaceData

    gen = getattr(sampling, wl.mask_generator)
    n = wl.size
    times = []
    for _ in range(5):
        start = time.perf_counter()
        mask = gen(n, n, wl.accel, wl.acs, MASK_SEED)
        times.append(time.perf_counter() - start)
    truth = data.dynamic_phantom(n, wl.frames) if wl.frames > 1 else data.shepp_logan(n)
    paths = {"truth": workdir / "truth.cks", "mask": workdir / "mask.cks"}
    data.write_cks(paths["truth"], truth)
    data.write_cks(paths["mask"], mask)
    kspace = []
    for v in range(wl.volumes):
        _, full = data.simulate_coils(truth, COILS, v)
        rng = np.random.default_rng([seed, v])
        noise = rng.standard_normal(full.data.shape) + 1j * rng.standard_normal(full.data.shape)
        path = workdir / f"kspace{v}.cks"
        data.write_cks(path, KSpaceData(mask.pattern * (full.data + NOISE_STD * noise)))
        kspace.append(path)
    all_paths = [paths["truth"], paths["mask"], *kspace]
    sha = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in all_paths}
    return Inputs(paths["truth"], paths["mask"], kspace, sha, median(times))


def recon_paths(inputs: Inputs, prefix: Path) -> list[Path]:
    """Where ``reconstruct --out-prefix prefix`` writes each volume."""
    if len(inputs.kspace) == 1:
        return [prefix.with_name(prefix.name + ".cks")]
    return [prefix.with_name(f"{prefix.name}_{k.stem}.cks") for k in inputs.kspace]


@dataclass
class RequestResult:
    reconstruct_s: float
    evaluate_s: float
    ok: bool
    error: str = ""
    quality: dict | None = None


def _call_cli(argv, log: io.StringIO):
    """Run ``mcrecon.cli.main``; return its exit code, or the traceback."""
    from mcrecon import cli

    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            return cli.main(list(argv)), ""
    except Exception:
        return None, traceback.format_exc()


def run_request(wl: Workload, inputs: Inputs, outdir: Path, cli_context) -> RequestResult:
    """One reconstruct plus one evaluate per volume, timed and checked.

    ``cli_context`` is entered around the CLI calls only, not the checks."""
    prefix = outdir / "recon"
    recons = recon_paths(inputs, prefix)
    csvs = [outdir / f"metrics{v}.csv" for v in range(wl.volumes)]
    for stale in outdir.iterdir():
        stale.unlink()
    log = io.StringIO()
    argv = [
        "reconstruct", "--kspace", *map(str, inputs.kspace), "--mask", str(inputs.mask),
        "--out-prefix", str(prefix), *wl.cli_args,
    ]
    with cli_context:
        start = time.perf_counter()
        rc, err = _call_cli(argv, log)
        mid = time.perf_counter()
        codes = [rc]
        for v, (recon, out) in enumerate(zip(recons, csvs)):
            argv = [
                "evaluate", "--truth", str(inputs.truth), "--pred", str(recon),
                "--volume-id", f"vol{v}", "--out", str(out),
            ]
            code, e = _call_cli(argv, log)
            codes.append(code)
            err = err or e
        end = time.perf_counter()
    result = RequestResult(mid - start, end - mid, ok=False)
    if any(c != 0 for c in codes):
        result.error = f"exit codes {codes}: {err or log.getvalue().strip()[-2000:]}"
        return result
    try:
        check_recons(wl, recons)
        result.quality = read_quality(wl, csvs)
    except (CheckError, OSError, ValueError, KeyError) as exc:
        result.error = str(exc)
        return result
    result.ok = True
    return result


class CheckError(Exception):
    pass


def check_recons(wl: Workload, recons: list[Path]) -> None:
    from mcrecon import data
    from mcrecon.core import ComplexImage

    for path in recons:
        if not path.is_file():
            raise CheckError(f"missing output {path.name}")
        img = data.read_cks(path)
        if not isinstance(img, ComplexImage):
            raise CheckError(f"{path.name}: expected an image, got {type(img).__name__}")
        if img.data.shape != (wl.frames, wl.size, wl.size):
            raise CheckError(f"{path.name}: shape {img.data.shape}")
        if not np.all(np.isfinite(img.data)):
            raise CheckError(f"{path.name}: non-finite values")


def read_quality(wl: Workload, csvs: list[Path]) -> dict[str, float]:
    """Mean SSIM, PSNR and NMSE over frames and volumes from evaluate's CSVs."""
    values = {k: [] for k in QUALITY_KEYS}
    for path in csvs:
        if not path.is_file():
            raise CheckError(f"missing output {path.name}")
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        for key, metric in _CSV_METRIC.items():
            frame_values = [float(r["value"]) for r in rows if r["metric"] == metric]
            if len(frame_values) != wl.frames:
                raise CheckError(f"{path.name}: {len(frame_values)} {metric} rows, expected {wl.frames}")
            values[key] += frame_values
        if wl.frames > 1 and not any(r["metric"] == "ssim3d" for r in rows):
            raise CheckError(f"{path.name}: no ssim3d row")
    quality = {k: float(np.mean(v)) for k, v in values.items()}
    if not all(math.isfinite(v) for v in quality.values()):
        raise CheckError(f"non-finite quality {quality}")
    return quality


def check_quality(quality: dict, reference: dict, bounds: dict, better: dict) -> None:
    """Fail when a quality metric is worse than its reference by more than
    its bound (a share of the reference)."""
    for key in QUALITY_KEYS:
        ref, bound = reference[key], bounds[key]
        if better[key] == "higher":
            limit = ref - bound * abs(ref)
            bad = quality[key] < limit
        else:
            limit = ref + bound * abs(ref)
            bad = quality[key] > limit
        if bad:
            raise CheckError(f"{key} {quality[key]!r} worse than the reference {ref!r} by more than {bound:.2%}")


def in_memory_solves(wl: Workload, inputs: Inputs) -> list[np.ndarray]:
    """The library's own solve on the same CKS inputs as the CLI."""
    from mcrecon import data
    from mcrecon.sensitivity import estimate_from_acs
    from mcrecon.solver import AdmmConfig, DenoiserSpec, admm_reconstruct

    cfg = AdmmConfig(
        T=wl.T, inner_iters=wl.inner, lam=wl.lam,
        denoiser=DenoiserSpec(kind=wl.denoiser, strength=wl.strength),
    )
    mask = data.read_cks(inputs.mask)
    out = []
    for path in inputs.kspace:
        ksp = data.read_cks(path)
        out.append(admm_reconstruct(ksp, mask, estimate_from_acs(ksp, mask), cfg).data)
    return out


def check_matches_library(recons: list[Path], expected: list[np.ndarray]) -> None:
    """The CLI's CKS output must equal the in-memory solve within float32 round-off."""
    from mcrecon import data

    for path, ref in zip(recons, expected):
        got = data.read_cks(path).data
        err = float(np.max(np.abs(got - ref)))
        scale = float(np.max(np.abs(ref)))
        if not err <= ROUNDOFF_TOL * scale:
            raise CheckError(
                f"{path.name}: CLI output differs from admm_reconstruct by {err:.3g} "
                f"(limit {ROUNDOFF_TOL * scale:.3g})"
            )

