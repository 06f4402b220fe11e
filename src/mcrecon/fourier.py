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
construction. ``apply_arr`` multiplies the maps into ``x[box]`` and runs the
transform hook ``_to_k``; ``adjoint_arr`` runs ``_from_k``, multiplies the
conjugate maps and sums the coils into ``x[box]`` of a zeroed image. Here the
box is the whole grid, and each hook is the mask and one ``numpy.fft``
transform over (-2, -1), written over a buffer of its own (``out=``), never
over the caller's array.

Data consistency needs only ``A^H (A x - y)``. On a rectilinear mask every
column is sampled fully or not at all, so M commutes with the centred
unitary height transform F_h: A = F_h M F_w S. With B the K sampled columns
of F_w S and y_dc those of F_h^H y, ``A^H (A x - y) == B^H (B x - y_dc)``
for any y, and ``||B x - y_dc||^2 == ||A x - y||^2 - ||(1 - M) y||^2``, equal
for y on the mask. At x = 0 the gradient identity reads ``A^H y == B^H y_dc``,
so the zero-filled start needs no A either. :func:`for_data_consistency`
``(y, mask, sens)`` is the one place that decides which operator a solve
builds: it returns B, a :class:`ColumnOperator`, and y_dc on a rectilinear
mask, and A and y on a point mask, in y's dtype. B shares A's ``__init__``,
so it checks its maps' grid and its dtype as A does, and overrides only the
array setup ``_prepare``, which refuses a point mask, and the hooks, each
hook one GEMM on the flattened (coil*frame*row, col or K) matrix: ``_to_k``
is ``v @ D`` and ``_from_k`` ``y @ D^H``, with D the (W, K) centred width
DFT at the sampled columns, both ramps folded in (a pruned DFT, Markel
1971), ``D[j, p] = exp(-2*pi*i*(j - c)*(col_p - c)/W) / sqrt(W)``, on the
unramped maps. The GEMMs do O(W*K) work per row against the FFT's
O(W log W), less time at R4 and more at R1 and R2, which no workload or
paper setting uses. A rectilinear solve therefore builds only B; building A
for the zero-filled start alone would cost more than the start (CHANGES.md).

B's box is the H' x W' bounding box of the maps' support (``sens.support``):
maps calibrated from the ACS region are zero outside the body, as SENSE and
ESPIRiT maps are. Outside the box S * x is zero in every coil, so the columns
there add exact zeros to each GEMM row, and B x is zero in the rows there,
which B^H maps back to zero through conj(S). So B keeps the box's maps, the
box's W' rows of D and y_dc's H' rows. The gradient is the same up to the
order of the GEMM sums. The objective identity gains one constant, the
energy of y_off, F_h^H y's sampled columns in the rows outside the box:
``||B x - y_dc||^2 == ||A x - y||^2 - ||(1 - M) y||^2 - ||y_off||^2``.
All-zero maps are a valid input and keep the whole grid.

On a rectilinear mask B^H B also splits into independent image rows
(Pruessmann et al. 1999): row h of ``B^H B x`` is ``x_h N_h`` with one
Hermitian (W', W') matrix ``N_h = (sum_c S_ch S_ch^H) * (D D^H)``
(elementwise product) per box row, the same for every frame (a Gram normal
operator, Fessler et al. 2005); off the box N is zero.
:meth:`ColumnOperator.row_gram` builds N from B's box maps and D in its
dtype on given box rows and columns, by default the whole box. In a row
whose maps are zero at column j, row and column j of N_h are zero, so
``solver`` builds N block by block of rows on the union of their support
columns, never the whole (H', W', W') array, and forms H_b = N_b + lam I in
place in each block; ``solver`` decides which solves take this form.

The operator computes in one complex dtype, by default that of the maps: it
casts its maps and its mask or D to it once, and ``apply_arr`` /
``adjoint_arr`` then return arrays of that dtype for inputs of it. The
solver builds it in the dtype of the k-space, so complex64 CKS data runs
single-precision FFTs and matmuls.
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
        ``dtype`` (see the module docstring)."""
        # N_h = (sum_c S_ch S_ch^H) * (D D^H)
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
