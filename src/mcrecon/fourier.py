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
construction. On a rectilinear (column-constant) mask that leaves columns
out, the forward map transforms along the width axis over the whole
grid but along the height axis only in the sampled columns, which it
scatters into zeros; the adjoint runs the same steps in reverse. Point
masks (gaussian2d, radial, spiral) and masks that sample every column take
the full 2D FFT.

The operator computes in one complex dtype, by default that of the maps:
it casts the ramped maps and mask to it once, and ``apply_arr`` /
``adjoint_arr`` then return arrays of that dtype for inputs of it. The
solver builds it in the dtype of the k-space, so complex64 CKS data runs
single-precision FFTs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .core import RECTILINEAR_SCHEMES, SamplingMask, SensitivityMaps


def _centred(transform, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim < 2 or arr.shape[-1] < 1 or arr.shape[-2] < 1:
        raise ValueError(f"expected a nonempty 2D spatial grid, got shape {arr.shape}")
    axes = (-2, -1)
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
        maps = (self.sens.maps * np.outer(rn_h, rn_w)).astype(dtype, copy=False)
        kmask = (self.mask.pattern * np.outer(rk_h, rk_w)).astype(dtype, copy=False)
        cols = None
        if self.mask.scheme in RECTILINEAR_SCHEMES:
            sampled = np.flatnonzero(self.mask.pattern[0])
            if sampled.size < self.mask.width:
                cols = sampled
                kmask = kmask[:, cols]
        object.__setattr__(self, "_cols", cols)
        for name, arr in (("_maps", maps), ("_kmask", kmask)):
            object.__setattr__(self, name, arr)
            object.__setattr__(self, name + "_conj", arr.conj())

    def apply_arr(self, x: np.ndarray) -> np.ndarray:
        """Forward map on a raw (frame, row, col) array -> (coil, frame, row, col)."""
        v = self._maps[:, np.newaxis] * x[np.newaxis]
        if self._cols is None:
            k = sfft.fft2(v, norm="ortho", overwrite_x=True)
            k *= self._kmask
            return k
        v = sfft.fft(v, axis=-1, norm="ortho", overwrite_x=True)[..., self._cols]
        v = sfft.fft(v, axis=-2, norm="ortho", overwrite_x=True)
        v *= self._kmask
        k = np.zeros(v.shape[:-1] + (self.mask.width,), dtype=v.dtype)
        k[..., self._cols] = v
        return k

    def adjoint_arr(self, y: np.ndarray) -> np.ndarray:
        """Adjoint map on a raw (coil, frame, row, col) array -> (frame, row, col)."""
        if self._cols is None:
            v = sfft.ifft2(y * self._kmask_conj, norm="ortho", overwrite_x=True)
        else:
            k = y[..., self._cols] * self._kmask_conj
            k = sfft.ifft(k, axis=-2, norm="ortho", overwrite_x=True)
            v = np.zeros(y.shape, dtype=k.dtype)
            v[..., self._cols] = k
            v = sfft.ifft(v, axis=-1, norm="ortho", overwrite_x=True)
        v *= self._maps_conj[:, np.newaxis]
        return v.sum(axis=0)
