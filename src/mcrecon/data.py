"""Phantom simulation, k-space cropping, and file I/O.

The on-disk CKS container is a fixed little-endian layout:
magic "CKS1" | u16 version | u8 kind | 4 x u32 dims (coils, frames, rows,
cols) | payload. ``_LAYOUT`` is the one table of kinds: for each, its
format version, bytes per element, the dims that must be 1, and the core
container and array it holds. Complex payloads (version 1) are interleaved
(re, im) float32 in (coil, frame, row, col) row-major order, i.e.
little-endian complex64: writing rounds complex128 data to it, and reading
returns complex64 containers holding an aligned array the payload is read
into (no intermediate copy). Mask payloads (version 2) start with a fixed
metadata block -- the scheme name as 24 NUL-padded ASCII bytes, f64
nominal acceleration, u32 ACS lines, u32 ACS disc radius -- followed by
one byte per element. Version-1 masks carried no metadata
and are rejected.
"""

import math
import os
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import ComplexImage, KSpaceData, SamplingMask, SensitivityMaps
from .fourier import fft2c, ifft2c
from .sampling import Lcg

CKS_MAGIC = b"CKS1"
KIND_KSPACE = 0
KIND_IMAGE = 1
KIND_MASK = 2
KIND_SENSMAPS = 3

_HEADER = struct.Struct("<4sHB4I")
_DIMS_OFFSET = 7
_DIM_NAMES = ("coils", "frames", "rows", "cols")
_MASK_META = struct.Struct("<24sdII")


class _Layout(NamedTuple):
    version: int
    elem_size: int  # bytes per element
    unit_axes: tuple[int, ...]  # indices of the dims that must be 1
    container: type
    field: str  # the container's array; the dims are its shape with unit_axes added


_LAYOUT = {
    KIND_KSPACE: _Layout(1, 8, (), KSpaceData, "data"),
    KIND_IMAGE: _Layout(1, 8, (0,), ComplexImage, "data"),
    KIND_MASK: _Layout(2, 1, (0, 1), SamplingMask, "pattern"),
    KIND_SENSMAPS: _Layout(1, 8, (1,), SensitivityMaps, "maps"),
}


class FormatError(ValueError):
    """Raised for malformed CKS files; message includes the byte offset."""


# Modified Shepp-Logan ellipses: (intensity, a, b, x0, y0, phi_degrees),
# on the [-1, 1]^2 square, intensities stack to values in [0, 1].
SHEPP_LOGAN_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)

# Index of the ellipse animated by dynamic_phantom (the large upper blob).
_DYNAMIC_ELLIPSE = 4
_DYNAMIC_AMPLITUDE = 0.35


def _phantom_grid(n: int):
    # Origin at (n//2, n//2), matching the centered FFT convention.
    coords = (np.arange(n) - n // 2) / (n / 2.0)
    return np.meshgrid(coords, coords, indexing="ij")


def _render_ellipse(yy, xx, ellipse, scale: float = 1.0) -> np.ndarray:
    inten, a, b, x0, y0, phi = ellipse
    phi = math.radians(phi)
    xr = (xx - x0) * math.cos(phi) + (yy - y0) * math.sin(phi)
    yr = -(xx - x0) * math.sin(phi) + (yy - y0) * math.cos(phi)
    inside = (xr / (a * scale)) ** 2 + (yr / (b * scale)) ** 2 <= 1.0
    return inten * inside


def shepp_logan(n: int) -> ComplexImage:
    """Classical 10-ellipse Shepp-Logan phantom, intensities in [0, 1]."""
    return dynamic_phantom(n, 1)


def dynamic_phantom(n: int, n_frames: int) -> ComplexImage:
    """Shepp-Logan stack whose upper interior ellipse contracts and
    re-expands once over the frame sequence; frame 0 is the static phantom."""
    if n < 16:
        raise ValueError("phantom side length must be >= 16")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    yy, xx = _phantom_grid(n)
    base = np.zeros((n, n))
    for i, e in enumerate(SHEPP_LOGAN_ELLIPSES):
        if i != _DYNAMIC_ELLIPSE:
            base += _render_ellipse(yy, xx, e)
    frames = np.empty((n_frames, n, n))
    for t in range(n_frames):
        scale = 1.0 - _DYNAMIC_AMPLITUDE * 0.5 * (1.0 - math.cos(2 * math.pi * t / n_frames))
        frame = base + _render_ellipse(yy, xx, SHEPP_LOGAN_ELLIPSES[_DYNAMIC_ELLIPSE], scale)
        frames[t] = np.clip(frame, 0.0, 1.0)
    return ComplexImage(frames)


def simulate_coils(
    img: ComplexImage, n_coils: int, seed: int
) -> tuple[SensitivityMaps, KSpaceData]:
    """Synthesize smooth complex coil profiles and fully-sampled k-space.

    Gaussian-bump magnitudes centered at equiangular positions around the
    FOV, RSS-normalized everywhere; coil 0 carries zero phase so the
    single-coil case reduces to S == 1 and k-space == fft2c(x).
    """
    if n_coils < 1:
        raise ValueError("n_coils must be >= 1")
    n_h, n_w = img.height, img.width
    ys = (np.arange(n_h) - n_h // 2) / (n_h / 2.0)
    xs = (np.arange(n_w) - n_w // 2) / (n_w / 2.0)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    rng = Lcg(seed)
    base_angle = rng.uniform() * 2 * math.pi
    profiles = np.empty((n_coils, n_h, n_w), dtype=complex)
    for k in range(n_coils):
        ang = base_angle + 2 * math.pi * k / n_coils
        cy, cx = 1.2 * math.sin(ang), 1.2 * math.cos(ang)
        mag = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 0.8**2))
        phase = 0.5 * k * (xx * math.cos(ang) + yy * math.sin(ang))
        profiles[k] = mag * np.exp(1j * phase)
    norm = np.sqrt(np.sum(np.abs(profiles) ** 2, axis=0))
    maps = SensitivityMaps(profiles / norm)
    ksp = fft2c(maps.maps[:, np.newaxis] * img.data[np.newaxis])
    return maps, KSpaceData(ksp)


def random_kspace_crop(ksp: KSpaceData, crop_h: int, crop_w: int, seed: int) -> KSpaceData:
    """Crop fully-sampled k-space in the image domain: per coil/frame
    ifft2c -> extract one seed-chosen window (shared by all coils and
    frames) -> fft2c."""
    if crop_h > ksp.height or crop_w > ksp.width:
        raise ValueError(
            f"crop {crop_h}x{crop_w} exceeds grid {ksp.height}x{ksp.width}"
        )
    if crop_h < 1 or crop_w < 1:
        raise ValueError("crop dimensions must be >= 1")
    rng = Lcg(seed)
    r0 = rng.randint(ksp.height - crop_h + 1)
    c0 = rng.randint(ksp.width - crop_w + 1)
    imgs = ifft2c(ksp.data)
    window = imgs[..., r0 : r0 + crop_h, c0 : c0 + crop_w]
    return KSpaceData(fft2c(window))


def write_cks(path, obj) -> None:
    """Serialize a core object to the CKS binary format."""
    kind = next((k for k, lay in _LAYOUT.items() if isinstance(obj, lay.container)), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    layout = _LAYOUT[kind]
    arr = getattr(obj, layout.field)
    if kind == KIND_MASK:
        meta = _MASK_META.pack(
            obj.scheme.encode("ascii"), obj.nominal_acceleration, obj.acs_lines, obj.acs_radius
        )
        payload = meta + arr.tobytes()
    else:
        payload = np.asarray(arr, dtype="<c8").tobytes()
    dims = np.expand_dims(arr, layout.unit_axes).shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(CKS_MAGIC, layout.version, kind, *dims))
        f.write(payload)


def read_cks(path):
    """Deserialize a CKS file back into the corresponding core object."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(
                f"truncated header at byte {len(head)}: expected {_HEADER.size} header bytes"
            )
        magic, version, kind, *dims = _HEADER.unpack(head)
        if magic != CKS_MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte 0: expected {CKS_MAGIC!r}")
        if kind not in _LAYOUT:
            raise FormatError(f"unknown kind {kind} at byte 6")
        layout = _LAYOUT[kind]
        if version != layout.version:
            hint = "; regenerate the mask with `mcrecon mask`" if kind == KIND_MASK else ""
            raise FormatError(
                f"unsupported version {version} at byte 4 for kind {kind}: "
                f"expected {layout.version}{hint}"
            )
        for i in layout.unit_axes:
            if dims[i] != 1:
                raise FormatError(
                    f"{_DIM_NAMES[i]} must be 1 for kind {kind}, got {dims[i]} "
                    f"at byte {_DIMS_OFFSET + 4 * i}"
                )
        start = _HEADER.size + (_MASK_META.size if kind == KIND_MASK else 0)
        expected = start + math.prod(dims) * layout.elem_size

        def length_mismatch(got):
            return FormatError(
                f"payload length mismatch at byte {_HEADER.size}: "
                f"expected {expected} total bytes, got {got}"
            )

        if size != expected:
            raise length_mismatch(size)
        if kind == KIND_MASK:
            meta = f.read(_MASK_META.size)
            scheme, accel, acs_lines, acs_radius = _MASK_META.unpack(meta)
            pattern = np.frombuffer(f.read(), dtype=np.uint8).reshape(dims[2:])
            scheme = scheme.rstrip(b"\0").decode("ascii", "backslashreplace")
            return SamplingMask(pattern, scheme, accel, acs_lines, acs_radius)
        # Read straight into a fresh (aligned) array: the payload starts at an
        # odd byte, and numpy is up to 1.8x slower on unaligned complex64 operands.
        arr = np.empty(dims, dtype="<c8")
        got = f.readinto(arr.reshape(-1).view(np.uint8))
        if got != arr.nbytes:
            raise length_mismatch(start + got)
    return layout.container(np.squeeze(arr, layout.unit_axes))


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM export; min-max scaling recorded in a sidecar file.

    Binary {0,1} masks map to {0, 255} with no sidecar.
    """
    path = Path(path)
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise ValueError("PGM export needs a 2D array")
    lo, hi = float(arr.min()), float(arr.max())
    is_binary = np.all((arr == 0) | (arr == 1))
    if is_binary:
        scaled = (arr * 255).astype(np.uint8)
    else:
        span = hi - lo if hi > lo else 1.0
        scaled = np.round((arr - lo) / span * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        f.write(scaled.tobytes())
    if not is_binary:
        path.with_suffix(path.suffix + ".scale.txt").write_text(
            f"min={lo!r}\nmax={hi!r}\n"
        )
