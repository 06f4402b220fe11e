"""Centered orthonormal 2D FFTs and the per-coil SENSE forward operator.

Convention: unitary transforms (1/sqrt(N) both directions) with the DC
component at index (h//2, w//2). With RSS-normalized sensitivity maps this
makes the stacked forward operator nonexpansive and adjoint == inverse for
the full-sampling case.

:func:`fft2c` / :func:`ifft2c` are the plain shifted ``np.fft`` reference used
by ``data``, ``sensitivity`` and the tests; :class:`ForwardOperator` does not.

:class:`ForwardOperator` computes the same map as ``mask * fft2c(S * x)``
without shifting on each call. Along an axis of length n with c = n//2, the
centred transform is a plain FFT between two phase ramps,
``fft2c(v) == r_k * fft2(r_n * v)`` with r_n[j] = exp(2*pi*i*c*j/n) and
r_k[p] = exp(2*pi*i*c*(p - c)/n), exact +-1 checkerboards at even n. The
operator folds r_n into the maps and r_k into the mask once, at
construction. ``apply_arr`` / ``adjoint_arr`` take one ``scipy.fft``
transform over the operator's axes: (-2, -1), or (-1,) for the
data-consistency operator below.

Data consistency needs only ``A^H (A x - y)`` and ``||A x - y||``. On a
rectilinear mask every column is sampled fully or not at all, so the mask
M commutes with the unitary centred height transform F_h, and
A = M F_h F_w S = F_h B with B = M F_w S (F_w the centred width transform).
Hence ``A^H (A x - y) == B^H (B x - F_h^H y)`` and
``||A x - y|| == ||B x - F_h^H y||``. :meth:`ForwardOperator.for_data_consistency`
returns B, which maps into row-image space (k-space along the width, image
space along the height) with FFTs over the width axis alone, and F_h^H y,
computed once; point masks (gaussian2d, radial, spiral, full) keep A and y.

The operator computes in one complex dtype, by default that of the maps:
it casts the ramped maps and mask to it once, and ``apply_arr`` /
``adjoint_arr`` then return arrays of that dtype for inputs of it. The
solver builds it in the dtype of the k-space, so complex64 CKS data runs
single-precision FFTs.
"""

import copy
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .core import RECTILINEAR_SCHEMES, SamplingMask, SensitivityMaps


def _centred(transform, arr: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim < 2 or arr.shape[-1] < 1 or arr.shape[-2] < 1:
        raise ValueError(f"expected a nonempty 2D spatial grid, got shape {arr.shape}")
    return np.fft.fftshift(
        transform(np.fft.ifftshift(arr, axes=axes), axes=axes, norm="ortho"), axes=axes
    )


def fft2c(x: np.ndarray) -> np.ndarray:
    """Centered orthonormal 2D FFT over the trailing two axes."""
    return _centred(np.fft.fft2, x)


def ifft2c(k: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2c`."""
    return _centred(np.fft.ifft2, k)


def _phase(num: np.ndarray, n: int) -> np.ndarray:
    """exp(2*pi*i*num/n) for integer num, exactly -1 where num/n is a half."""
    num = num % n
    out = np.exp(2j * np.pi * num / n)
    out[2 * num == n] = -1
    return out


def _ramps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Image-side and k-space-side phase ramps of an axis of length n."""
    c = n // 2
    j = np.arange(n)
    return _phase(c * j, n), _phase(c * (j - c), n)


@dataclass(frozen=True)
class ForwardOperator:
    """Per-coil acquisition operator: mask * fft2c(S_k * x), stacked over coils,
    computed in ``dtype`` (complex64 or complex128; None means the maps' dtype)."""

    mask: SamplingMask
    sens: SensitivityMaps
    dtype: np.dtype | None = None

    def __post_init__(self):
        if (self.mask.height, self.mask.width) != (self.sens.height, self.sens.width):
            raise ValueError(
                f"mask grid {self.mask.pattern.shape} does not match "
                f"sensitivity grid {self.sens.maps.shape[1:]}"
            )
        dtype = self.sens.maps.dtype if self.dtype is None else np.dtype(self.dtype)
        if dtype not in (np.complex64, np.complex128):
            raise ValueError(f"operator dtype must be complex64 or complex128, got {dtype}")
        object.__setattr__(self, "dtype", dtype)
        (rn_h, rk_h), (rn_w, rk_w) = _ramps(self.mask.height), _ramps(self.mask.width)
        self._fold((-2, -1), np.outer(rn_h, rn_w), self.mask.pattern * np.outer(rk_h, rk_w))

    def _fold(self, axes: tuple[int, ...], ramp: np.ndarray, kmask: np.ndarray) -> None:
        """Set the FFT axes, the maps times ``ramp`` and the k-space mask, in ``dtype``."""
        object.__setattr__(self, "_axes", axes)
        maps = self.sens.maps * ramp
        for name, arr in (("_maps", maps), ("_kmask", kmask)):
            arr = arr.astype(self.dtype, copy=False)
            object.__setattr__(self, name, arr)
            object.__setattr__(self, name + "_conj", arr.conj())

    def for_data_consistency(self, y: np.ndarray) -> tuple["ForwardOperator", np.ndarray]:
        """``(op, y)`` with the same ``A^H (A x - y)`` and ``||A x - y||`` as
        this operator and ``y``: on a rectilinear mask, the width-axis
        operator B and F_h^H y (see the module docstring); else self and y."""
        if self.mask.scheme not in RECTILINEAR_SCHEMES:
            return self, y
        rn_w, rk_w = _ramps(self.mask.width)
        op = copy.copy(self)
        op._fold((-1,), rn_w, self.mask.pattern[:1] * rk_w)
        return op, _centred(sfft.ifftn, y, axes=(-2,))

    def apply_arr(self, x: np.ndarray) -> np.ndarray:
        """Forward map on a raw (frame, row, col) array -> (coil, frame, row, col)."""
        v = self._maps[:, np.newaxis] * x[np.newaxis]
        k = sfft.fftn(v, axes=self._axes, norm="ortho", overwrite_x=True)
        k *= self._kmask
        return k

    def adjoint_arr(self, y: np.ndarray) -> np.ndarray:
        """Adjoint map on a raw (coil, frame, row, col) array -> (frame, row, col)."""
        v = sfft.ifftn(y * self._kmask_conj, axes=self._axes, norm="ortho", overwrite_x=True)
        v *= self._maps_conj[:, np.newaxis]
        return v.sum(axis=0)
