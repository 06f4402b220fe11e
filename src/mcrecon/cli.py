"""Command-line front end: mask generation, phantom simulation,
reconstruction, and metric evaluation as reproducible pipelines.

Every command that uses randomness takes a mandatory --seed. An optional
--config FILE of key=value lines is merged before the flags, so explicit
flags always win.
"""

import argparse
import contextlib
import csv
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import data as dio
from .core import ComplexImage, KSpaceData, SamplingMask, SensitivityMaps, check_inputs, check_maps
from .fourier import ifft2c  # noqa: F401  (perfbench's tracer test looks it up here)
from .metrics import LossWeights, score_volume
from .sampling import GENERATORS, achieved_acceleration, make_mask
from .sensitivity import estimate_from_acs
from .solver import DENOISER_KINDS, MODE_DEFAULTS, AdmmConfig, DenoiserSpec
from .solver import admm_reconstruct, zero_filled_init

_DENOISER_ALIASES = {kind: kind for kind in DENOISER_KINDS} | {
    "l1": "l1-soft-threshold",
    "tikhonov": "tikhonov-smooth",
    "tv": "tv-chambolle",
}


class CliError(Exception):
    pass


@contextlib.contextmanager
def _from_flags():
    """Report a ValueError raised while building from flags as a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise CliError(f"bad --size {text!r}: expected HxW, e.g. 192x192") from exc


def _expand_config(argv: list[str]) -> list[str]:
    """Replace '--config FILE' (or '--config=FILE') with the file's key=value
    pairs as flags, inserted before the remaining flags so explicit flags win.
    A second --config is an error."""
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if argv.count("--config") > 1:
        raise CliError("--config may be given only once")
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise CliError("--config needs a file argument")
    path = Path(argv[i + 1])
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    extra: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        extra += [f"--{key.strip()}", value.strip()]
    rest = argv[:i] + argv[i + 2 :]
    return [rest[0]] + extra + rest[1:] if rest else extra


def _load_as(path, cls, check=lambda obj: None):
    """Read a CKS file that must hold a ``cls`` and pass ``check``. Any fault in
    the file becomes a ValueError that names it, so every bad input file exits 1."""
    try:
        obj = dio.read_cks(path)
        if not isinstance(obj, cls):
            raise ValueError(f"expected {cls.__name__}, found {type(obj).__name__}")
        check(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return obj


def _shaped_like(ref):
    """A ``_load_as`` check that the data has the shape of ``ref``'s."""
    def check(obj):
        if obj.data.shape != ref.data.shape:
            raise ValueError(f"shape {obj.data.shape} does not match {ref.data.shape}")
    return check


def cmd_mask(args) -> int:
    h, w = _parse_size(args.size)
    with _from_flags():
        mask = make_mask(args.scheme, h, w, args.accel, args.seed, acs_lines=args.acs,
                         acs_radius=args.acs_radius)
    out = Path(args.out)
    dio.write_cks(out, mask)
    dio.write_pgm(out.with_suffix(".pgm"), mask.pattern)
    print(f"achieved acceleration: {achieved_acceleration(mask):.4f}")
    return 0


def cmd_simulate(args) -> int:
    with _from_flags():
        truth = dio.dynamic_phantom(args.size, args.frames)
        sens, ksp_full = dio.simulate_coils(truth, args.coils, args.seed)
    mask = (_load_as(args.mask, SamplingMask, lambda m: check_inputs(ksp_full, m))
            if args.mask else None)
    prefix = Path(args.out_prefix)
    dio.write_cks(prefix.with_name(prefix.name + "_truth.cks"), truth)
    dio.write_cks(prefix.with_name(prefix.name + "_sens.cks"), sens)
    dio.write_cks(prefix.with_name(prefix.name + "_kspace_full.cks"), ksp_full)
    if mask is not None:
        masked = KSpaceData(mask.pattern * ksp_full.data)
        dio.write_cks(prefix.with_name(prefix.name + "_kspace_masked.cks"), masked)
    return 0


def _reconstruct_one(ksp_path, ksp: KSpaceData, out: Path, mask, sens, cfg) -> None:
    """Solve one volume with ``cfg``, or zero-fill it if ``cfg`` is None."""
    if sens is None:
        sens = estimate_from_acs(ksp, mask)
    start = time.perf_counter()
    if cfg is None:
        recon = zero_filled_init(ksp, mask, sens)
    else:
        recon = admm_reconstruct(ksp, mask, sens, cfg)
    elapsed = time.perf_counter() - start
    dio.write_cks(out, recon)
    for t in range(recon.n_frames):
        dio.write_pgm(out.with_suffix(f".mag{t}.pgm"), np.abs(recon.data[t]))
    print(f"{ksp_path}: reconstructed in {elapsed:.3f} s")


def _recon_paths(kspace: list[str], out_prefix: str) -> list[Path]:
    """<prefix>.cks for one volume, <prefix>_<input stem>.cks for several."""
    prefix = Path(out_prefix)
    if len(kspace) == 1:
        return [prefix.with_name(prefix.name + ".cks")]
    stems = [Path(p).stem for p in kspace]
    if len(set(stems)) < len(stems):
        raise CliError(f"--kspace files need distinct stems to name their outputs, got {stems}")
    return [prefix.with_name(f"{prefix.name}_{stem}.cks") for stem in stems]


def cmd_reconstruct(args) -> int:
    if not args.estimate_sens and not args.sens:
        raise CliError("provide --sens FILE or --estimate-sens")
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    outs = _recon_paths(args.kspace, args.out_prefix)
    cfg = None
    if args.method == "admm":  # zero-filled ignores the solver flags
        with _from_flags():
            spec = DenoiserSpec(_DENOISER_ALIASES[args.denoiser], args.strength, args.tv_iters)
            cfg = AdmmConfig.for_mode(args.mode, T=args.T, inner_iters=args.inner, lam=args.lam,
                                      step_size=args.step, denoiser=spec)
    # every input is read and checked before any volume is solved
    mask = _load_as(args.mask, SamplingMask)
    sens = None if args.estimate_sens else _load_as(args.sens, SensitivityMaps,
                                                    lambda s: check_maps(mask, s))
    volumes = [_load_as(p, KSpaceData, lambda k: check_inputs(k, mask, sens)) for p in args.kspace]
    volumes.reverse()  # popped in input order, so each volume is freed once it is solved
    todo = (volumes.pop() for _ in outs)
    # One worker or one volume runs on the calling thread: a thread left idle for a
    # whole solve made the next numpy work in the process ~25% slower (2-vCPU box).
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        run = pool.map if args.jobs > 1 and len(outs) > 1 else map
        list(run(lambda p, k, o: _reconstruct_one(p, k, o, mask, sens, cfg),
                 args.kspace, todo, outs))
    return 0


def cmd_evaluate(args) -> int:
    if bool(args.kspace_truth) != bool(args.kspace_pred):
        missing = "--kspace-truth" if args.kspace_pred else "--kspace-pred"
        raise CliError(f"{missing} is missing: --kspace-truth and --kspace-pred go together")
    with _from_flags():
        weights = LossWeights(w_ssim=args.w_ssim, w_ssim3d=args.w_ssim3d, w_l1=args.w_l1,
                              w_hfen1=args.w_hfen1, w_nmae=args.w_nmae)
    truth = _load_as(args.truth, ComplexImage)
    pred = _load_as(args.pred, ComplexImage, _shaped_like(truth))
    kspace = []
    if args.kspace_truth:
        y_t = _load_as(args.kspace_truth, KSpaceData)
        kspace = [y_t.data, _load_as(args.kspace_pred, KSpaceData, _shaped_like(y_t)).data]
    try:
        rows = score_volume(np.abs(truth.data), np.abs(pred.data), *kspace, weights=weights,
                            frame_range=args.normalize == "frame")
    except ValueError as exc:
        raise ValueError(f"scoring {args.pred} against {args.truth}: {exc}") from exc
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["volume_id", "frame", "metric", "value"])
        writer.writerows((args.volume_id, *row) for row in rows)
    print(f"wrote {len(rows)} metric rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcrecon",
        description="Accelerated multi-coil MRI reconstruction toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="generate an undersampling mask")
    p.add_argument("--scheme", required=True, choices=sorted(GENERATORS))
    p.add_argument("--size", required=True, help="grid size as HxW")
    p.add_argument("--accel", type=float, required=True)
    p.add_argument("--acs", type=int, default=24, help="ACS lines (rectilinear schemes)")
    p.add_argument("--acs-radius", type=int, default=8, help="ACS disc radius (gaussian2d)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value file merged into the flags")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("simulate", help="generate phantom ground truth and k-space")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--coils", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mask", help="CKS mask to also write undersampled k-space")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--config", help="key=value file merged into the flags")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct images from k-space")
    p.add_argument("--kspace", nargs="+", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--sens")
    p.add_argument("--estimate-sens", action="store_true")
    p.add_argument("--method", choices=("zero-filled", "admm"), default="admm")
    p.add_argument("--mode", choices=tuple(MODE_DEFAULTS), default="static")
    p.add_argument("--denoiser", choices=sorted(_DENOISER_ALIASES), default="tikhonov")
    p.add_argument("--strength", type=float, default=1e-2)
    p.add_argument("--tv-iters", type=int, default=20)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--inner", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--config", help="key=value file merged into the flags")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="compute metrics and write a CSV")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--kspace-truth")
    p.add_argument("--kspace-pred")
    p.add_argument("--volume-id", default="vol0")
    p.add_argument("--normalize", choices=("volume", "frame"), default="volume")
    p.add_argument("--w-ssim", type=float, default=1.0)
    p.add_argument("--w-ssim3d", type=float, default=1.0)
    p.add_argument("--w-l1", type=float, default=1.0)
    p.add_argument("--w-hfen1", type=float, default=1.0)
    p.add_argument("--w-nmae", type=float, default=3.0)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value file merged into the flags")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv)
        args = parser.parse_args(argv)
        if args.config is not None:  # argparse took a form not expanded above, e.g. '--conf'
            raise CliError(f"--config {args.config} was not read; give it as --config FILE")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
