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
construction, and ``apply_arr`` / ``adjoint_arr`` take one ``numpy.fft``
transform over (-2, -1), written over a buffer of their own (``out=``), never
over the caller's array.

Data consistency needs only ``A^H (A x - y)``. On a rectilinear mask every
column is sampled fully or not at all, so M commutes with the centred
unitary height transform F_h: A = F_h M F_w S. With B the K sampled columns
of F_w S and y_dc those of F_h^H y, ``A^H (A x - y) == B^H (B x - y_dc)``
for any y, and ``||B x - y_dc||^2 == ||A x - y||^2 - ||(1 - M) y||^2``, equal
for y on the mask. :meth:`ForwardOperator.for_data_consistency` returns B
and y_dc (point masks keep A and y). B holds the (W, K) centred width DFT at
the sampled columns with both ramps folded in (a pruned DFT, Markel 1971),
``D[j, p] = exp(-2*pi*i*(j - c)*(col_p - c)/W) / sqrt(W)``. Each method
runs one GEMM on the flattened (coil*frame*row, col or K) matrix where the
2D path runs its FFT: ``apply_arr`` computes ``(S * x) @ D`` and
``adjoint_arr`` ``sum_c (r_c @ D^H) * conj(S_c)``, with the maps product
and the coil sum shared with the 2D path. The GEMMs do O(W*K) work per row
against the FFT's O(W log W): a gradient at 256x256, 8 coils, complex64,
2 vCPUs takes 0.75x the FFT path's time at R4, but 1.2x at R2 and 2.1x at
R1, which no workload or paper setting uses.

B also runs only on the bounding box of the maps' support (``sens.support``),
H' rows by W' columns, found once per solve: maps calibrated from the ACS
region are zero outside the body, as SENSE and ESPIRiT maps are. The maps
are zero in every coil outside the box, so there S * x is zero. The columns
outside the box then add exact zeros to each GEMM row, and B x is zero in the
rows outside the box, which B^H maps back to zero through conj(S). So B keeps
the box's maps, the box's W' rows of D and y_dc's H' rows. ``apply_arr``
multiplies only the box of x and runs its GEMM on (C*F*H', W') @ (W', K);
``adjoint_arr`` returns the full (F, H, W) image, exact zeros outside the box.
The gradient is the same up to the order of the GEMM sums: a complex64 solve
at 256x256 moved by 3.9e-7 of the image maximum. The objective identity gains
one constant, the energy of y_off, F_h^H y's sampled columns in the rows
outside the box: ``||B x - y_dc||^2 == ||A x - y||^2 - ||(1 - M) y||^2 -
||y_off||^2``. All-zero maps are a valid input and keep the whole grid. On
``static256-rect-l1`` the estimated support spans rows 10-246 and columns
27-229, a 237x203 box and 73% of the 256x256 grid. Its ``reconstruct_s`` fell
from 1.29 to 1.04 s (medians of 10 alternating runs, 2 vCPUs, numpy 2.4 with
OpenBLAS), and the traced time per request from 0.50 to 0.35 s in
``apply_arr`` and from 0.59 to 0.46 s in ``adjoint_arr`` (medians of 3 runs).
The row Gram path below builds N and Q on the whole grid.

On a rectilinear mask B^H B also splits into independent image rows
(Pruessmann et al. 1999): row h of ``B^H B x`` is ``x_h N_h`` with one
Hermitian (W, W) matrix ``N_h = (sum_c S_ch S_ch^H) * (D D^H)`` (elementwise
product), the same for every frame (a Gram normal operator, Fessler et al.
2005). :meth:`ForwardOperator.row_gram` returns N for a y of at
least :data:`GRAM_MIN_FRAMES` frames on a grid at most :data:`GRAM_MAX_SIDE`
on each side, and None otherwise. N is complex128, built once from the
unramped maps and a complex128 D. The solver forms the step matrix
``Q = (1 - s*lam) I - s N`` from it in the operator's dtype and releases N;
each outer step then takes one gradient on B and y_dc and runs its inner
iterations as one batched (row, frame, col) GEMM with Q each (see
``solver``). The path holds Q, H*W^2*itemsize bytes, through the solve, and
N, H*W^2*16 more, during its setup: in complex64, 16 and 32 MiB at 128x128,
128 and 256 MiB at 256x256. Measured with ``tracemalloc`` on 12-frame
complex64 TV solves (8 coils, estimated maps), a solve holds 27 MiB at
12x128x128 and 172 MiB at 12x256x256 when it first denoises, and peaks at
57 and 418 MiB.
Its memory grows with W^2 where the column path's does not, and its crossover
rises with W, so it is taken only on the grids measured below: H and W at
most GRAM_MAX_SIDE = 256, which caps N and Q at 384 MiB (complex64) or
512 MiB (complex128) during setup.
Larger grids, one-frame solves and point masks keep the column path.

GRAM_MIN_FRAMES is the measured crossover of whole solves: seconds for the
column-DFT path / the row Gram path, T=10, 8 inner iterations, identity
denoiser, 8 coils, equispaced R4, complex64, one solve per fresh process,
medians of 3, 2 vCPUs (numpy 2.4 with OpenBLAS 0.3.31)::

    frames          1           2           4           5           6           8
    128x128   0.08/0.15   0.14/0.21   0.31/0.27   0.36/0.31   0.45/0.37   0.69/0.43
    256x256   0.41/1.25   0.92/1.93   1.88/2.08   2.34/2.41   2.70/2.66   5.44/3.11

With few frames the Gram GEMM reads all of Q for a few rows and the setup
(N, Q, about 75 ms at 128x128) does not pay back. At 12 frames of 128x128
the solve takes 1.01/0.50 s. Both paths give the same iterate up to
round-off (within 1e-6 of the image maximum in complex64).

The operator computes in one complex dtype, by default that of the maps:
it casts the ramped maps and mask (or D) to it once, and ``apply_arr`` /
``adjoint_arr`` then return arrays of that dtype for inputs of it. The
solver builds it in the dtype of the k-space, so complex64 CKS data runs
single-precision FFTs and matmuls.
"""

import copy

import numpy as np

from .core import RECTILINEAR_SCHEMES, SamplingMask, SensitivityMaps, check_maps

# The row Gram path's rule (row_gram); the module docstring has the measured
# crossover and the memory bound.
GRAM_MIN_FRAMES = 6
GRAM_MAX_SIDE = 256


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


class ForwardOperator:
    """Per-coil acquisition operator: mask * fft2c(S_k * x), stacked over coils,
    computed in ``dtype`` (complex64 or complex128; None means the maps' dtype)."""

    def __init__(self, mask: SamplingMask, sens: SensitivityMaps, dtype=None):
        check_maps(mask, sens)
        dtype = sens.maps.dtype if dtype is None else np.dtype(dtype)
        if dtype not in (np.complex64, np.complex128):
            raise ValueError(f"operator dtype must be complex64 or complex128, got {dtype}")
        self.mask, self.sens, self.dtype = mask, sens, dtype
        self._box = np.s_[...]  # the whole grid; for_data_consistency crops to the maps' support
        (rn_h, rk_h), (rn_w, rk_w) = _ramps(mask.height), _ramps(mask.width)
        self._fold(sens.maps * np.outer(rn_h, rn_w), mask.pattern * np.outer(rk_h, rk_w))

    def _fold(self, maps: np.ndarray, kmask: np.ndarray | None, dft: np.ndarray | None = None):
        """Set the maps and the 2D k-space mask or the column DFT, in ``dtype``, with conjugates."""
        for name, arr in (("_maps", maps), ("_kmask", kmask), ("_dft", dft)):
            arr = None if arr is None else np.ascontiguousarray(arr, dtype=self.dtype)
            setattr(self, name, arr)
            setattr(self, name + "_conj", None if arr is None else arr.conj())

    def _sampled_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The sampled columns of a rectilinear mask and D, their (W, K) centred DFT."""
        w, c = self.mask.width, self.mask.width // 2
        cols = np.flatnonzero(self.mask.pattern[0])
        return cols, _phase(-np.outer(np.arange(w) - c, cols - c), w) / np.sqrt(w)

    def for_data_consistency(self, y: np.ndarray) -> tuple["ForwardOperator", np.ndarray]:
        """``(op, y_dc)`` with this operator's ``A^H (A x - y)``: on a
        rectilinear mask, B (the image rows of the maps' support box onto the
        K sampled columns) and the sampled columns of F_h^H y in the box's rows
        (see the module docstring); else self and y."""
        if self.mask.scheme not in RECTILINEAR_SCHEMES:
            return self, y
        cols, dft = self._sampled_columns()
        op = copy.copy(self)
        op._box = box = _support_box(self.sens.support)
        op._fold(self.sens.maps[box], None, dft[box[-1]])
        y_dc = _centred(np.fft.ifftn, y[..., cols], axes=(-2,))
        return op, np.ascontiguousarray(y_dc[..., box[-2], :])

    def row_gram(self, y: np.ndarray) -> np.ndarray | None:
        """N = B^H B (row, col, col) in complex128, for a rectilinear y of at
        least :data:`GRAM_MIN_FRAMES` frames on a grid at most
        :data:`GRAM_MAX_SIDE` on each side; else None (see the module docstring)."""
        large = max(self.mask.height, self.mask.width) > GRAM_MAX_SIDE
        if large or self.mask.scheme not in RECTILINEAR_SCHEMES or y.shape[1] < GRAM_MIN_FRAMES:
            return None
        # N_h = (sum_c S_ch S_ch^H) * (D D^H)
        rows = self.sens.maps.astype(np.complex128, copy=False).transpose(1, 2, 0)  # (H, W, coil)
        normal = rows @ rows.conj().transpose(0, 2, 1)
        dft = self._sampled_columns()[1]
        normal *= dft @ dft.conj().T
        return normal

    def apply_arr(self, x: np.ndarray) -> np.ndarray:
        """Forward map on a raw (frame, row, col) array -> (coil, frame, row, col),
        or (coil, frame, box row, K) on the column operator."""
        v = self._maps[:, np.newaxis] * x[self._box][np.newaxis]
        if self._dft is not None:
            return (v.reshape(-1, v.shape[-1]) @ self._dft).reshape(*v.shape[:-1], -1)
        k = np.fft.fftn(v, axes=(-2, -1), norm="ortho", out=v)
        k *= self._kmask
        return k

    def adjoint_arr(self, y: np.ndarray) -> np.ndarray:
        """Adjoint map on a raw (coil, frame, row, col) array, or (coil, frame,
        box row, K) on the column operator -> (frame, row, col)."""
        if self._dft is not None:
            v = (y.reshape(-1, y.shape[-1]) @ self._dft_conj.T).reshape(*y.shape[:-1], -1)
        else:
            v = y * self._kmask_conj
            np.fft.ifftn(v, axes=(-2, -1), norm="ortho", out=v)
        v *= self._maps_conj[:, np.newaxis]
        if self._dft is None:
            return v.sum(axis=0)
        # zero outside the box, where every map is zero
        x = np.zeros((y.shape[1], self.mask.height, self.mask.width), v.dtype)
        v.sum(axis=0, out=x[self._box])
        return x
