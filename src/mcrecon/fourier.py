"""Centered orthonormal 2D FFTs and the SENSE forward operator.

Transforms are unitary (1/sqrt(N) both ways) with DC at (h//2, w//2), so with
RSS-normalized maps the stacked operator is nonexpansive and, fully sampled,
its adjoint is its inverse. :func:`fft2c` / :func:`ifft2c` are the plain
shifted ``np.fft`` reference that ``data``, ``sensitivity`` and the tests use.

:class:`ForwardOperator` A computes ``mask * fft2c(S * x)`` with no shifts:
along an axis of length n, c = n//2, ``fft2c(v) == r_k * fft2(r_n * v)`` with
r_n[j] = exp(2*pi*i*c*j/n) and r_k[p] = exp(2*pi*i*c*(p - c)/n), so A folds
r_n into the maps and r_k into the mask once. Its transform hooks ``_to_k``
and ``_from_k`` write over buffers of their own, never the caller's array.

On a rectilinear mask M commutes with the centred height transform F_h, so
A = F_h M F_w S. With B the K sampled columns of F_w S and y_dc those of
F_h^H y, ``A^H (A x - y) == B^H (B x - y_dc)`` for any y, and at x = 0
``A^H y == B^H y_dc``. :class:`ColumnOperator` is B: its hooks are one GEMM
each on the flattened (coil*frame*row, col or K) matrix, ``v @ D`` and
``y @ D^H``, with D the (W, K) centred width DFT at the sampled columns, both
ramps folded in (a pruned DFT, Markel 1971),
``D[j, p] = exp(-2*pi*i*(j - c)*(col_p - c)/W) / sqrt(W)``: O(W*K) work per
row against the FFT's O(W log W), less time at R4 and more at R1 and R2
(``BENCH_10.json``). B keeps only the H' x W' bounding box of the maps'
support (``sens.support``), outside which S x is zero: the box's maps, W' rows
of D and H' rows of y_dc. The gradient is the same up to the order of the
GEMM sums, and with y_off the sampled columns of F_h^H y outside the box's
rows, ``||B x - y_dc||^2 == ||A x - y||^2 - ||(1 - M) y||^2 - ||y_off||^2``.
All-zero maps keep the whole grid.

:func:`for_data_consistency` picks a solve's operator; B^H B row by row is
:meth:`ColumnOperator.row_gram`; precision is in the ``core`` docstring.
"""

import numpy as np

from .core import RECTILINEAR_SCHEMES, SamplingMask, SensitivityMaps, check_maps


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


def _support_box(support: np.ndarray) -> tuple[slice, slice, slice]:
    """Index of the bounding box of ``support`` in a (frame or coil, row, col)
    array; the whole grid for an empty support, so that no cropped axis is empty."""
    if not support.any():
        return np.s_[:, :, :]
    rows, cols = (np.flatnonzero(support.any(axis=a)) for a in (1, 0))
    return np.s_[:, rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]


def _ramps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Image-side and k-space-side phase ramps of an axis of length n."""
    c = n // 2
    j = np.arange(n)
    return _phase(c * j, n), _phase(c * (j - c), n)


def _contiguous(arr: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """arr and its conjugate, C-contiguous in dtype."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    return arr, arr.conj()


class ForwardOperator:
    """Per-coil acquisition operator: mask * fft2c(S_k * x), stacked over coils,
    computed in ``dtype`` (complex64 or complex128; None means the maps' dtype)."""

    box = np.s_[...]  # the image region the maps cover: the whole grid

    def __init__(self, mask: SamplingMask, sens: SensitivityMaps, dtype=None):
        check_maps(mask, sens)
        dtype = sens.maps.dtype if dtype is None else np.dtype(dtype)
        if dtype not in (np.complex64, np.complex128):
            raise ValueError(f"operator dtype must be complex64 or complex128, got {dtype}")
        self.mask, self.sens, self.dtype = mask, sens, dtype
        self._prepare(mask, sens, dtype)

    def _prepare(self, mask: SamplingMask, sens: SensitivityMaps, dtype: np.dtype) -> None:
        """The arrays the transform hooks read, from checked inputs: the ramped
        maps and k-mask, and their conjugates."""
        (rn_h, rk_h), (rn_w, rk_w) = _ramps(mask.height), _ramps(mask.width)
        self._maps, self._maps_conj = _contiguous(sens.maps * np.outer(rn_h, rn_w), dtype)
        self._kmask, self._kmask_conj = _contiguous(mask.pattern * np.outer(rk_h, rk_w), dtype)

    def _to_k(self, v: np.ndarray) -> np.ndarray:
        """The transform after the maps product, in place over v."""
        k = np.fft.fftn(v, axes=(-2, -1), norm="ortho", out=v)
        k *= self._kmask
        return k

    def _from_k(self, y: np.ndarray) -> np.ndarray:
        """The adjoint transform before the conj-maps product, into a new array."""
        v = y * self._kmask_conj
        return np.fft.ifftn(v, axes=(-2, -1), norm="ortho", out=v)

    def apply_arr(self, x: np.ndarray) -> np.ndarray:
        """Forward map on a raw (frame, row, col) array -> (coil, frame, row, col),
        or (coil, frame, box row, K) on the column operator."""
        return self._to_k(self._maps[:, np.newaxis] * x[self.box][np.newaxis])

    def adjoint_arr(self, y: np.ndarray) -> np.ndarray:
        """Adjoint map on a raw (coil, frame, row, col) array, or (coil, frame,
        box row, K) on the column operator -> (frame, row, col), zero outside
        the box, where every map is zero."""
        v = self._from_k(y)
        v *= self._maps_conj[:, np.newaxis]
        x = np.zeros((y.shape[1], self.mask.height, self.mask.width), v.dtype)
        v.sum(axis=0, out=x[self.box])
        return x


class ColumnOperator(ForwardOperator):
    """B of a rectilinear mask: the image rows of the maps' support box onto
    the K sampled columns, in ``dtype``, built with the checks of
    :class:`ForwardOperator` (see the module docstring)."""

    def _prepare(self, mask: SamplingMask, sens: SensitivityMaps, dtype: np.dtype) -> None:
        if mask.scheme not in RECTILINEAR_SCHEMES:
            raise ValueError(f"the column operator needs a rectilinear mask, got {mask.scheme!r}")
        self.box = _support_box(sens.support)
        w, c = mask.width, mask.width // 2
        self.cols = np.flatnonzero(mask.pattern[0])
        dft = _phase(-np.outer(np.arange(w) - c, self.cols - c), w) / np.sqrt(w)
        self._maps, self._maps_conj = _contiguous(sens.maps[self.box], dtype)
        self._dft, self._dft_conj = _contiguous(dft[self.box[-1]], dtype)

    def _to_k(self, v: np.ndarray) -> np.ndarray:
        return (v.reshape(-1, v.shape[-1]) @ self._dft).reshape(*v.shape[:-1], -1)

    def _from_k(self, y: np.ndarray) -> np.ndarray:
        return (y.reshape(-1, y.shape[-1]) @ self._dft_conj.T).reshape(*y.shape[:-1], -1)

    def row_gram(self, rows=np.s_[:], cols=np.s_[:]) -> np.ndarray:
        """N = B^H B on the box's ``rows`` and ``cols`` (slices or index arrays
        into the box, by default all of it), a new (rows, cols, cols) array in
        ``dtype``.

        On a rectilinear mask B^H B splits into independent image rows
        (Pruessmann et al. 1999): row h of ``B^H B x`` is ``x_h N_h`` with one
        Hermitian (W', W') matrix ``N_h = (sum_c S_ch S_ch^H) * (D D^H)``
        (elementwise product) per box row, the same for every frame (a Gram
        normal operator, Fessler et al. 2005). Where row h's maps are zero at
        column j, row and column j of N_h are zero."""
        maps, dft = self._maps[:, rows][:, :, cols], self._dft[cols]
        normal = maps.transpose(1, 2, 0) @ maps.conj().transpose(1, 0, 2)
        normal *= dft @ dft.conj().T
        return normal


def for_data_consistency(y: np.ndarray, mask: SamplingMask,
                         sens: SensitivityMaps) -> tuple[ForwardOperator, np.ndarray]:
    """The one operator of a solve and its data, ``(op, y_dc)`` in y's dtype,
    with ``op^H (op x - y_dc) == A^H (A x - y)``: on a rectilinear mask the
    :class:`ColumnOperator` B and the sampled columns of F_h^H y in its box's
    rows, else the 2D :class:`ForwardOperator` A and y (see the module docstring)."""
    if mask.scheme not in RECTILINEAR_SCHEMES:
        return ForwardOperator(mask, sens, y.dtype), y
    op = ColumnOperator(mask, sens, y.dtype)
    y_dc = _centred(np.fft.ifftn, y[..., op.cols], axes=(-2,))
    return op, np.ascontiguousarray(y_dc[..., op.box[-2], :])
