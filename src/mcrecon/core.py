"""Shared domain types for multi-coil MRI reconstruction.

All containers are immutable after construction: the wrapped numpy arrays
are marked read-only, so instances can be shared freely across threads.
Complex containers keep complex64 data as complex64 and store every other
dtype as complex128. CKS files (see the ``data`` module) hold float32
components and read back as complex64. A solve runs in its k-space's dtype,
its operator casting the maps once and each step and denoiser keeping the
dtype it is given, so CKS inputs solve in complex64 and in-memory complex128
data in complex128; there is no precision flag.

Grids are compared only in :func:`check_maps` and :func:`check_inputs`,
which the operator, the solver, ACS calibration and the CLI call; ACS
sizes are checked only in :class:`SamplingMask`, counts in :func:`check_count`.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

RECTILINEAR_SCHEMES = ("equispaced", "random-rectilinear")
MASK_SCHEMES = RECTILINEAR_SCHEMES + ("gaussian2d", "pseudo-radial", "pseudo-spiral", "full")

SENS_NORMALIZATION_TOL = 1e-6


def check_count(name: str, value, least: int) -> int:
    """Return ``value`` as an int; raise ValueError unless it is an integer (as
    ``operator.index`` takes it, numpy integers too) of at least ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


def _complex_array(data, ndim: int, frame_axis: int | None, name: str) -> np.ndarray:
    """Check and freeze data as complex64 if it is complex64, else as
    complex128, first adding a missing frame axis."""
    arr = np.asarray(data)
    if frame_axis is not None and arr.ndim == ndim - 1:
        arr = np.expand_dims(arr, frame_axis)
    if arr.ndim != ndim:
        want = f"{ndim}D" if frame_axis is None else f"{ndim - 1}D or {ndim}D"
        raise ValueError(f"{name} data must be {want}, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} axes must be nonempty, got shape {arr.shape}")
    arr = arr.astype(np.complex64 if arr.dtype == np.complex64 else np.complex128, copy=False)
    _require_finite(arr, name)
    return _readonly(arr)


@dataclass(frozen=True)
class ComplexImage:
    """Complex spatial image, indexed (frame, row, col); n_frames >= 1.

    A single frame covers the static case; dynamic (cine) data stacks
    frames along the leading axis.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _complex_array(self.data, 3, 0, "image"))

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class KSpaceData:
    """Complex multi-coil k-space samples, indexed (coil, frame, row, col)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _complex_array(self.data, 4, 1, "k-space"))

    @property
    def n_coils(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[2]

    @property
    def width(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class SamplingMask:
    """Binary Cartesian undersampling pattern with its ACS size.

    The scheme fixes what ``acs`` means: the centered, fully sampled columns
    of a rectilinear scheme, at most the ceil(width / R) columns such a mask
    samples; the radius of a centered, fully sampled disc for gaussian2d, at
    most max(height, width); and 0 (no ACS region) for every other scheme.
    A ``nominal_acceleration`` of 1 requires a pattern that samples everywhere.
    """

    pattern: np.ndarray
    scheme: str
    nominal_acceleration: float
    acs: int = 0

    def __post_init__(self):
        arr = np.asarray(self.pattern)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValueError(f"mask pattern must be 2D and nonempty, got shape {arr.shape}")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("mask entries must be 0 or 1")
        arr = arr.astype(np.uint8, copy=False)
        if arr.sum() == 0:
            raise ValueError("mask has no sampled locations")
        if self.scheme not in MASK_SCHEMES:
            raise ValueError(f"unknown mask scheme {self.scheme!r}")
        if not 1 <= self.nominal_acceleration < np.inf:
            raise ValueError("nominal acceleration must be finite and at least 1")
        if self.scheme == "full" and not arr.all():
            raise ValueError("a 'full' mask must sample every location")
        if self.nominal_acceleration == 1 and not arr.all():
            raise ValueError("a mask of nominal acceleration 1 must sample every location")
        rectilinear = self.scheme in RECTILINEAR_SCHEMES
        if not rectilinear and self.scheme != "gaussian2d" and self.acs != 0:
            raise ValueError(f"{self.scheme} masks have no ACS region; acs must be 0, "
                             f"got {self.acs}")
        acs = check_count("acs", self.acs, 0)
        h, w = arr.shape
        if rectilinear:
            cols = arr.max(axis=0)
            if not np.array_equal(arr, np.broadcast_to(cols, arr.shape)):
                raise ValueError("rectilinear mask columns must be constant")
            total = int(np.ceil(w / self.nominal_acceleration))
            if acs > total:
                raise ValueError(f"{acs} ACS columns exceed the {total} columns of "
                                 f"R={self.nominal_acceleration} on width {w}")
            start = (w - acs) // 2
            if not cols[start : start + acs].all():
                raise ValueError("ACS columns must be centered and fully sampled")
        elif acs > max(h, w):
            raise ValueError(f"ACS disc radius must be at most {max(h, w)}, got {acs}")
        elif acs:
            yy, xx = np.ogrid[:h, :w]
            if not arr[(yy - h // 2) ** 2 + (xx - w // 2) ** 2 <= acs**2].all():
                raise ValueError("ACS disc must be centered and fully sampled")
        object.__setattr__(self, "pattern", _readonly(arr))
        object.__setattr__(self, "acs", acs)

    @property
    def height(self) -> int:
        return self.pattern.shape[0]

    @property
    def width(self) -> int:
        return self.pattern.shape[1]

    @property
    def n_sampled(self) -> int:
        return int(self.pattern.sum())


@dataclass(frozen=True)
class SensitivityMaps:
    """Per-coil complex sensitivity maps, RSS-normalized on their support.

    ``support`` is derived, not given: the voxels where any coil's map is
    nonzero. Estimated maps are zero where the calibration RSS fell below
    the estimation threshold; simulated maps are nonzero everywhere.
    """

    maps: np.ndarray
    support: np.ndarray = field(init=False)

    def __post_init__(self):
        arr = _complex_array(self.maps, 3, None, "sensitivity maps")
        sup = np.any(arr != 0, axis=0)
        sq = np.sum(np.square(np.abs(arr), dtype=np.float64), axis=0)
        if sup.any() and np.max(np.abs(sq[sup] - 1.0)) > SENS_NORMALIZATION_TOL:
            raise ValueError("maps are not RSS-normalized on support")
        object.__setattr__(self, "maps", arr)
        object.__setattr__(self, "support", _readonly(sup))

    @property
    def n_coils(self) -> int:
        return self.maps.shape[0]

    @property
    def height(self) -> int:
        return self.maps.shape[1]

    @property
    def width(self) -> int:
        return self.maps.shape[2]


def check_maps(mask: SamplingMask, sens: SensitivityMaps) -> None:
    """Raise ValueError unless ``sens`` lies on the mask's grid."""
    if (sens.height, sens.width) != (mask.height, mask.width):
        raise ValueError(f"sensitivity grid {(sens.height, sens.width)}, "
                         f"mask grid {(mask.height, mask.width)}")


def check_inputs(y: KSpaceData, mask: SamplingMask, sens: SensitivityMaps | None = None) -> None:
    """Raise ValueError unless ``y`` and ``sens`` (if given) lie on the mask's
    grid and ``y`` has as many coils as ``sens``."""
    grid = (mask.height, mask.width)
    if sens is not None:
        check_maps(mask, sens)
    if (y.height, y.width) != grid or (sens is not None and y.n_coils != sens.n_coils):
        maps = "" if sens is None else f", maps with {sens.n_coils} coils"
        raise ValueError(
            f"k-space dimensions do not match mask/sensitivities: k-space with "
            f"{y.n_coils} coils on grid {(y.height, y.width)}, mask grid {grid}{maps}"
        )


def rss(coil_images: np.ndarray) -> np.ndarray:
    """Root-sum-of-squares coil combination over the leading (coil) axis."""
    arr = np.asarray(coil_images)
    if arr.ndim < 1 or arr.shape[0] < 1:
        raise ValueError("rss requires at least one coil")
    _require_finite(arr, "coil images")
    return np.sqrt(np.sum(np.abs(arr) ** 2, axis=0))
