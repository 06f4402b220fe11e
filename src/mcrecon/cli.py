"""Command-line front end: mask generation, phantom simulation,
reconstruction, and metric evaluation as reproducible pipelines.

Every command that uses randomness takes a mandatory --seed. An optional
--config FILE of key=value lines is merged before the flags, so explicit
flags always win; a flag that takes no value is key=true or key=false there.
A bad flag exits 2 and a bad input file exits 1, naming the file. reconstruct
reads and checks every input, and under --estimate-sens calibrates every
volume's maps, before it solves any volume, so such a fault writes nothing.
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
from .metrics import score_volume
from .sampling import GENERATORS, achieved_acceleration, make_mask
from .sensitivity import estimate_from_acs
from .solver import DENOISER_KINDS, MODE_DEFAULTS, AdmmConfig, DenoiserSpec, admm_reconstruct

_DENOISER_ALIASES = {kind: kind for kind in DENOISER_KINDS} | {
    "l1": "l1-soft-threshold",
    "tikhonov": "tikhonov-smooth",
    "tv": "tv-chambolle",
}


class CliError(Exception):
    pass


@contextlib.contextmanager
def _blame(cause=None, error=ValueError):
    """Re-raise a ValueError from the block as ``error``, its message prefixed by
    ``cause``: CliError for a value built from flags (exit 2), a ValueError that
    names the input file at fault (exit 1)."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{cause}: {exc}" if cause else str(exc)) from exc


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise CliError(f"bad --size {text!r}: expected HxW, e.g. 192x192") from exc


def _expand_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Replace '--config FILE' (or '--config=FILE') with the file's key=value
    pairs as flags, inserted before the remaining flags so explicit flags win.
    FILE must be a readable text file, else the error names it. Each key must
    be the full name of one of the command's options, and each value one that
    the option accepts; else the error names FILE:LINE. A flag that takes no
    value (such as --estimate-sens) is set by key=true and left out by
    key=false. A second --config is an error; without a known command the
    file is not read, and argparse reports the command."""
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if argv.count("--config") > 1:
        raise CliError("--config may be given only once")
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise CliError("--config needs a file argument")
    path = Path(argv[i + 1])
    if not path.is_file():
        raise CliError(f"config file not found: {path}")
    rest = argv[:i] + argv[i + 2 :]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices.get(rest[0]) if rest else None
    if command is None:
        return rest
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    extra: list[str] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (t.strip() for t in line.split("=", 1))
        action = command._option_string_actions.get(f"--{key}")
        if action is None:
            raise CliError(f"{path}:{lineno}: {rest[0]} has no option --{key} "
                           "(a key is an option's full name)")
        if action.nargs != 0:
            try:  # argparse's own type and choices check, with its message
                command._get_values(action, [value])
            except argparse.ArgumentError as exc:
                raise CliError(f"{path}:{lineno}: {exc}") from exc
            extra += [f"--{key}", value]
        elif value in ("true", "false"):
            extra += [f"--{key}"] * (value == "true")
        else:
            raise CliError(f"{path}:{lineno}: --{key} takes no value: "
                           f"give {key}=true or {key}=false, got {value!r}")
    return [rest[0]] + extra + rest[1:]


def _load_as(path, cls, check=lambda obj: None):
    """Read a CKS file that must hold a ``cls`` and pass ``check``. Any fault in
    the file becomes a ValueError that names it, so every bad input file exits 1."""
    with _blame(path):
        obj = dio.read_cks(path)
        if not isinstance(obj, cls):
            raise ValueError(f"expected {cls.__name__}, found {type(obj).__name__}")
        check(obj)
    return obj


def _shaped_like(ref):
    """A ``_load_as`` check that the data has the shape of ``ref``'s."""
    def check(obj):
        if obj.data.shape != ref.data.shape:
            raise ValueError(f"shape {obj.data.shape} does not match {ref.data.shape}")
    return check


def cmd_mask(args) -> int:
    h, w = _parse_size(args.size)
    acs = {k: getattr(args, k) for k in ("acs_lines", "acs_radius") if k in args}
    with _blame(error=CliError):
        mask = make_mask(args.scheme, h, w, args.accel, args.seed, **acs)
    out = Path(args.out)
    dio.write_cks(out, mask)
    dio.write_pgm(out.with_suffix(".pgm"), mask.pattern)
    print(f"achieved acceleration: {achieved_acceleration(mask):.4f}")
    return 0


def cmd_simulate(args) -> int:
    with _blame(error=CliError):
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


def _reconstruct_one(ksp_path, ksp: KSpaceData, sens, out: Path, mask, cfg) -> None:
    """Solve one volume with ``cfg``; a failed solve names its k-space file."""
    start = time.perf_counter()
    with _blame(ksp_path):
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
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    outs = _recon_paths(args.kspace, args.out_prefix)
    with _blame(error=CliError):
        spec = DenoiserSpec(_DENOISER_ALIASES[args.denoiser], args.strength)
        cfg = AdmmConfig.for_mode(args.mode, T=args.T, inner_iters=args.inner, lam=args.lam,
                                  denoiser=spec)
    # every input is read and checked, and every volume given its maps, before any is solved
    mask = _load_as(args.mask, SamplingMask)
    sens = None if args.estimate_sens else _load_as(args.sens, SensitivityMaps,
                                                    lambda s: check_maps(mask, s))
    volumes = [_load_as(p, KSpaceData, lambda k: check_inputs(k, mask, sens)) for p in args.kspace]
    # One worker or one volume runs on the calling thread: a thread left idle for a
    # whole solve made the next numpy work in the process ~25% slower (2-vCPU box).
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        run = pool.map if args.jobs > 1 and len(outs) > 1 else map
        # _blame as a decorator: a failed calibration exits 1 and names its k-space file
        maps = [sens] * len(outs) if sens is not None else list(run(
            lambda p, k: _blame(p)(estimate_from_acs)(k, mask), args.kspace, volumes))
        volumes.reverse()  # both popped in input order, so each is freed once solved
        maps.reverse()
        todo = ((volumes.pop(), maps.pop()) for _ in outs)
        list(run(lambda p, km, o: _reconstruct_one(p, *km, o, mask, cfg), args.kspace, todo, outs))
    return 0


def cmd_evaluate(args) -> int:
    if bool(args.kspace_truth) != bool(args.kspace_pred):
        missing = "--kspace-truth" if args.kspace_pred else "--kspace-pred"
        raise CliError(f"{missing} is missing: --kspace-truth and --kspace-pred go together")
    truth = _load_as(args.truth, ComplexImage)
    pred = _load_as(args.pred, ComplexImage, _shaped_like(truth))
    kspace = []
    if args.kspace_truth:
        y_t = _load_as(args.kspace_truth, KSpaceData)
        kspace = [y_t.data, _load_as(args.kspace_pred, KSpaceData, _shaped_like(y_t)).data]
    with _blame(f"scoring {args.pred} against {args.truth}"):
        rows = score_volume(np.abs(truth.data), np.abs(pred.data), *kspace,
                            frame_range=args.normalize == "frame")
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
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value file merged into the flags")

    p = sub.add_parser("mask", parents=[config], help="generate an undersampling mask")
    p.add_argument("--scheme", required=True, choices=sorted(GENERATORS))
    p.add_argument("--size", required=True, help="grid size as HxW")
    p.add_argument("--accel", type=float, required=True)
    # no ACS default here: an unset flag leaves make_mask's keyword at its default
    p.add_argument("--acs", type=int, dest="acs_lines", default=argparse.SUPPRESS,
                   help="ACS lines (rectilinear schemes)")
    p.add_argument("--acs-radius", type=int, default=argparse.SUPPRESS,
                   help="ACS disc radius (gaussian2d)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("simulate", parents=[config],
                       help="generate phantom ground truth and k-space")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--coils", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mask", help="CKS mask to also write undersampled k-space")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", parents=[config], help="reconstruct images from k-space")
    p.add_argument("--kspace", nargs="+", required=True)
    p.add_argument("--mask", required=True)
    sens = p.add_mutually_exclusive_group(required=True)
    sens.add_argument("--sens", help="CKS sensitivity maps")
    sens.add_argument("--estimate-sens", action="store_true", help="calibrate maps from the ACS")
    p.add_argument("--mode", choices=tuple(MODE_DEFAULTS), default="static")
    p.add_argument("--denoiser", choices=sorted(_DENOISER_ALIASES), default="tikhonov")
    p.add_argument("--strength", type=float, default=1e-2)
    p.add_argument("--lam", type=float)
    p.add_argument("--T", type=int, help="outer iterations; 0 gives the zero-filled image")
    p.add_argument("--inner", type=int,
                   help="at most this many inner Chebyshev iterations per outer step; a step "
                        "stops at the least k with |g| <= lam*eps*T_k(1+2lam)*|x0|, where their "
                        "error bound falls below the round-off of its start x0")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", parents=[config], help="compute metrics and write a CSV")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--kspace-truth")
    p.add_argument("--kspace-pred")
    p.add_argument("--volume-id", default="vol0")
    p.add_argument("--normalize", choices=("volume", "frame"), default="volume")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv, parser)
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
