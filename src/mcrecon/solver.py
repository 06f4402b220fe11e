"""Unrolled ADMM reconstruction via half-quadratic variable splitting.

Each outer step of :func:`admm_reconstruct` runs :func:`denoise_step` on the
auxiliary image w, :func:`data_consistency_step` on x and
:func:`multiplier_update`, from m = 0 and x = w = A^H y, which it alone builds
(:func:`zero_filled_init` is its T = 0 solve).
Each rule lives with its code: the Chebyshev recurrence in
:class:`GradientSteps`, its cap K in :func:`chebyshev_values` and each outer
step's stop in :meth:`GradientSteps.stop`; the row Gram form in
:class:`RowGramSteps` and the rule that picks it beside
:data:`GRAM_MIN_ITERS`; the operator pair in the ``fourier`` docstring; the
TV dual carried across outer steps in :func:`denoise_step` and the flat
passes in :func:`_tv_prox_real`, :func:`_grad2` and :func:`_div2`; precision
in the ``core`` docstring.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ComplexImage, KSpaceData, SamplingMask, SensitivityMaps, check_count,
                   check_inputs)
from .fourier import ColumnOperator, ForwardOperator, for_data_consistency

DENOISER_KINDS = ("identity", "l1-soft-threshold", "tikhonov-smooth", "tv-chambolle")
# The row Gram path's rule, applied in admm_reconstruct alone: a solve on a
# rectilinear mask takes RowGramSteps when its Gram iterations,
# frames * T * (K - 1) with K of chebyshev_values, reach GRAM_MIN_ITERS, the
# fewest that pay back building N, on a grid of at most GRAM_MAX_SIDE rows and
# columns. In the row Gram break-even table in CHANGES.md one frame breaks
# even at 4 (64^2) to 28 (256^2) Gram iterations, well below GRAM_MIN_ITERS;
# 384^2 and 512^2 break even at 58 and 72, near or past it, while N's build
# peak grows from 46 MiB (256^2) to 150 and 353 MiB, so GRAM_MAX_SIDE stays
# 256. The perfbench count test's G = 2 * (3 - 1) = 4 stays below, on the
# column path.
GRAM_MIN_ITERS = 64
GRAM_MAX_SIDE = 256
# Bytes of H_b that one block of rows may hold in RowGramSteps, so that the
# block stays in cache over all inner iterations: half of a 2 MiB per-core L2
# (BENCH_28.json).
GRAM_BLOCK_BYTES = 1 << 20
# Chambolle dual steps per outer step of a tv-chambolle solve, each frame resuming
# from its dual of the step before: on the dynamic128x12-tv inputs 12 such steps
# beat 20 from zero on SSIM, PSNR and NMSE on every seed checked (BENCH_30.json).
TV_ITERATIONS = 12


@dataclass(frozen=True)
class DenoiserSpec:
    """Proximal denoiser choice standing in for the prior term: its kind and strength."""

    kind: str = "identity"
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in DENOISER_KINDS:
            raise ValueError(f"unknown denoiser kind {self.kind!r}")
        if not 0 <= self.strength < math.inf:
            raise ValueError(f"denoiser strength must be finite and >= 0, got {self.strength}")
        if self.kind == "identity" and self.strength != 0:
            raise ValueError("identity denoiser requires strength 0")


@dataclass(frozen=True)
class AdmmConfig:
    """Hyperparameters of the unrolled solve.

    The field defaults are the static 2D configuration (16 outer steps, at
    most 14 inner Chebyshev iterations, fewer where :meth:`GradientSteps.stop`
    ends a step); :meth:`for_mode` applies a mode's overrides from
    :data:`MODE_DEFAULTS`, e.g. dynamic 10 and 8.
    """

    T: int = 16
    inner_iters: int = 14
    lam: float = 1.0
    denoiser: DenoiserSpec = field(default_factory=DenoiserSpec)

    def __post_init__(self):
        check_count("T", self.T, 0)
        check_count("inner_iters", self.inner_iters, 1)
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")

    @classmethod
    def for_mode(cls, mode: str, **given) -> "AdmmConfig":
        """Config with ``mode``'s defaults, overridden by every value in
        ``given`` that is not None."""
        if mode not in MODE_DEFAULTS:
            raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(MODE_DEFAULTS)}")
        explicit = {k: v for k, v in given.items() if v is not None}
        return cls(**{**MODE_DEFAULTS[mode], **explicit})


MODE_DEFAULTS = {"static": {}, "dynamic": {"T": 10, "inner_iters": 8}}


def _soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    mag = np.abs(v)
    scale = np.maximum(mag - thresh, 0.0)
    out = np.zeros_like(v)
    np.divide(scale * v, mag, out=out, where=mag > 0)
    return out


def _tikhonov_prox(v: np.ndarray, alpha: float, lam: float) -> np.ndarray:
    # Solves (alpha * L + lam * I) w = lam * v with the periodic Laplacian L,
    # diagonalized by the (uncentered) DFT.
    h, w = v.shape[-2], v.shape[-1]
    ky = 2 * np.pi * np.fft.fftfreq(h)
    kx = 2 * np.pi * np.fft.fftfreq(w)
    eig = ((2 - 2 * np.cos(ky))[:, None] + (2 - 2 * np.cos(kx))[None, :]).astype(v.real.dtype)
    vk = np.fft.fft2(v, axes=(-2, -1))
    return np.fft.ifft2(lam * vk / (lam + alpha * eig), axes=(-2, -1))


def _grad2(u: np.ndarray, out: np.ndarray, shape: tuple[int, ...]) -> None:
    """Forward differences of the flat (channel, row, col) image u of ``shape``
    along rows into out[0] and along columns into out[1], both flat. The flat
    passes also difference across a channel or row edge; those entries, each
    channel's last row in out[0] and each row's last column in out[1], are set
    to zero."""
    w = shape[-1]
    np.subtract(u[w:], u[:-w], out=out[0, :-w])
    np.subtract(u[1:], u[:-1], out=out[1, :-1])
    out[0].reshape(shape[0], -1)[:, -w:] = 0
    out[1, w - 1 :: w] = 0


def _div2(p: np.ndarray, out: np.ndarray, tmp: np.ndarray, shape: tuple[int, ...]) -> None:
    """Divergence of the flat p = (row part, column part) of (channel, row, col)
    images of ``shape`` into the flat out, the negative adjoint of
    :func:`_grad2` for p whose row part has a zero last row and whose column
    part has a zero last column, as :func:`_tv_prox_real` keeps them. The flat
    passes then subtract, at each channel's first row and each row's first
    column, an exact zero from the previous channel or row; tmp is scratch of
    out's shape."""
    rows, cols = p
    w = shape[-1]
    out[:w] = rows[:w]
    np.subtract(rows[w:], rows[:-w], out=out[w:])
    tmp[0] = cols[0]
    np.subtract(cols[1:], cols[:-1], out=tmp[1:])
    out += tmp


def _tv_prox_real(v: np.ndarray, weight: float, iterations: int,
                  p: np.ndarray | None = None) -> np.ndarray:
    # Chambolle dual projection for prox of weight * TV on each (row, col) image
    # of the real (channel, row, col) stack v, in place on flat contiguous
    # buffers allocated on each call, in the order of the plain expressions, so
    # the values are theirs bit for bit. The iterations start from the flat
    # (2, v.size) dual p, None for zero, and leave their last dual in it. The
    # unary out= calls (np.square, np.sqrt) see only contiguous 1-D arrays.
    if weight == 0:
        return v.copy()
    tau = 0.25
    if p is None:
        p = np.zeros((2, v.size), dtype=v.dtype)
    g = np.empty_like(p)
    d, mag = np.empty(v.size, v.dtype), np.empty(v.size, v.dtype)
    v_scaled = v.ravel() / weight
    for _ in range(iterations):
        # p = (p + tau * g) / (1 + tau * |g|), g = grad(div(p) - v / weight)
        _div2(p, d, mag, v.shape)
        d -= v_scaled
        _grad2(d, g, v.shape)
        np.square(g[0], out=mag)
        np.square(g[1], out=d)
        mag += d
        np.sqrt(mag, out=mag)
        g *= tau
        p += g
        mag *= tau
        mag += 1.0
        p /= mag
    _div2(p, d, mag, v.shape)
    d *= weight
    return v - d.reshape(v.shape)


def denoise_step(v: np.ndarray, spec: DenoiserSpec, lam: float,
                 dual: np.ndarray | None = None) -> np.ndarray:
    """Proximal update of the auxiliary variable: prox of the prior (scaled
    by 1/lam) applied to the (frame, row, col) array v = x + m/lam.

    ``tv-chambolle`` runs :data:`TV_ITERATIONS` dual steps on each frame's real
    and imaginary parts. Its weight strength/lam is the same at every outer
    step, so :func:`admm_reconstruct` carries each frame's dual across steps in
    ``dual``, the real (frame, 2, 2*rows*cols) array in ``v.real.dtype``, zero
    at the first step: frame t resumes from ``dual[t]`` and leaves its last
    dual there, so k iterations resumed after k are 2k from zero. Without
    ``dual`` every frame starts from zero and the step keeps no state."""
    if spec.kind == "identity":
        return v
    if spec.kind == "l1-soft-threshold":
        return _soft_threshold(v, spec.strength / lam)
    if spec.kind == "tikhonov-smooth":
        return _tikhonov_prox(v, spec.strength, lam)
    weight = spec.strength / lam  # tv-chambolle, the last kind DenoiserSpec admits
    out = np.empty_like(v)
    for t in range(v.shape[0]):
        p = None if dual is None else dual[t]
        re, im = _tv_prox_real(np.stack((v[t].real, v[t].imag)), weight, TV_ITERATIONS, p)
        out[t] = re + 1j * im
    return out


def dc_objective(
    x: np.ndarray,
    w: np.ndarray,
    m: np.ndarray,
    y: np.ndarray,
    op: ForwardOperator,
    lam: float,
) -> float:
    """Data-consistency subproblem objective for raw (frame, row, col) arrays."""
    resid = op.apply_arr(x) - y
    quad = x - w + m / lam
    return 0.5 * float(np.vdot(resid, resid).real) + 0.5 * lam * float(
        np.vdot(quad, quad).real
    )


def dc_gradient(
    x: np.ndarray,
    w: np.ndarray,
    m: np.ndarray,
    y: np.ndarray,
    op: ForwardOperator,
    lam: float,
) -> np.ndarray:
    """Gradient of :func:`dc_objective` with respect to x (Wirtinger): at an
    outer step's start x0 the g of H e = g on which the Chebyshev iteration
    anchors, and at x0 - e that system's residual g - H e."""
    resid = op.apply_arr(x)
    resid -= y
    # adjoint(resid) + lam * (x - w) + m, in that order, accumulated in place
    g = op.adjoint_arr(resid)
    d = x - w
    d *= lam
    g += d
    g += m
    return g


def chebyshev_values(inner_iters: int, lam: float, dtype) -> list[float]:
    """T_0(sigma), ..., T_K(sigma) at sigma = 1 + 2*lam for a solve in
    ``dtype``, which runs at most K = min(inner_iters, k_u) Chebyshev
    iterations: k_u is the least k with T_k(sigma) * eps >= 1 (eps of the
    dtype's real part), where the iteration's error bound 1 / T_k(sigma)
    reaches round-off (10 at lam 1 in complex64)."""
    sigma, eps = 1 + 2 * lam, np.finfo(dtype).eps
    tau = [1.0, sigma]
    while len(tau) <= inner_iters and tau[-1] * eps < 1:
        tau.append(2 * sigma * tau[-1] - tau[-2])
    return tau


class GradientSteps:
    """Data consistency by Chebyshev iteration on an operator and its data, the
    pair of ``fourier.for_data_consistency``: A and y, or B and y_dc.

    It solves H e = g for the correction e = x0 - x, with H = A^H A + lam I and
    g the :func:`dc_gradient` at the step's start x0. ``SensitivityMaps`` holds
    sum_c |S_c|^2 to 0 or 1 within 1e-6, so with the unitary FFT and a 0/1 mask
    the spectrum of H lies in [lam, 1 + lam], where the iteration is
    Chebyshev's (Golub and Varga 1961; Saad, Iterative Methods, 12.1): with
    theta = lam + 1/2, delta = 1/2 and sigma = 1 + 2 lam, e_1 = g / theta, then
    d_k = rho_k rho_{k-1} d_{k-1} + (2 rho_k / delta) r_k, e_{k+1} = e_k + d_k,
    with rho_k = T_k(sigma) / T_{k+1}(sigma) and r_k = g - H e_k, each r_k one
    more :func:`dc_gradient`. It needs no inner product, and its error after k
    iterations is at most 1 / T_k(sigma) of the first. An outer step runs
    :meth:`stop` iterations, at most K of :func:`chebyshev_values`."""

    def __init__(self, op: ForwardOperator, y: np.ndarray, cfg: AdmmConfig):
        self.op, self.y, self.cfg = op, y, cfg
        tau = chebyshev_values(cfg.inner_iters, cfg.lam, op.dtype)
        self.iters, self.first = len(tau) - 1, 2 / tau[1]  # e_1 = g / (lam + 1/2)
        # (rho_k rho_{k-1}, 2 rho_k / delta) for k = 1 .. K - 1
        self.coefs = [(tau[k - 1] / tau[k + 1], 4 * tau[k] / tau[k + 1])
                      for k in range(1, self.iters)]
        eps = float(np.finfo(op.dtype).eps)
        self.bounds = [cfg.lam * eps * t for t in tau[1:]]  # k = 1 .. K

    def stop(self, g: np.ndarray, x0: np.ndarray) -> int:
        """k_t, the iterations an outer step runs: the least k in 1 .. K with
        |g| <= lam * eps * T_k(sigma) * |x0|, else K (so too for x0 = 0 or a
        norm that is not finite). The first error |H^-1 g| is at most
        |g| / lam, so from that k on the iterations move x0 - e by less than
        its own round-off. Both norms are numpy's pairwise sums over the real
        view, not BLAS dots, so k_t does not depend on BLAS threading."""
        norm_g, norm_x = (math.sqrt(np.sum(np.square(v.view(v.real.dtype)))) for v in (g, x0))
        if not 0 < norm_x < math.inf:
            return self.iters
        return next((k for k, bound in enumerate(self.bounds, 1) if norm_g <= bound * norm_x),
                    self.iters)

    def iterate(self, g, excess, k: int):
        """e after k Chebyshev iterations on H e = g from e_0 = 0, where
        ``excess(e)`` returns H e - g in an array the loop may overwrite."""
        d = g * self.first
        e = d.copy()
        for a, b in self.coefs[: k - 1]:
            q = excess(e)
            d *= a
            q *= b
            d -= q
            e += d
        return e

    def descend(self, x0: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
        g = dc_gradient(x0, w, m, self.y, self.op, self.cfg.lam)
        neg = -g  # the m of dc_gradient(e, 0, -g, 0), which is H e - g
        e = self.iterate(g, lambda e: dc_gradient(e, 0, neg, 0, self.op, self.cfg.lam),
                         self.stop(g, x0))
        return x0 - e


class RowGramSteps(GradientSteps):
    """The iteration of :class:`GradientSteps` on the row Gram form of a
    ``ColumnOperator`` B and its y_dc: one :func:`dc_gradient` g per outer
    step, then, block by block of box rows, matmuls with H_b = N_b + lam I,
    formed in place in the N of ``op.row_gram`` on the block's rows and the
    union of their support columns. The rows are independent, so each block
    runs all its iterations before the next. Elsewhere H is lam I, so e is g
    times the same iteration run on the scalar 1. g comes from the residual
    B x0 - y_dc, not the plain x0 N - B^H y_dc, which cancels in complex64, so
    both paths give the same iterate up to round-off."""

    def __init__(self, op: ColumnOperator, y: np.ndarray, cfg: AdmmConfig):
        super().__init__(op, y, cfg)
        self.blocks = []
        for rows, cols in _row_blocks(op.sens.support[op.box[1:]], op.dtype.itemsize):
            h = op.row_gram(rows, cols)
            np.einsum("hjj->hj", h)[...] += cfg.lam  # a view of each diagonal
            self.blocks.append((rows, cols, h))

    def descend(self, x0: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
        g = dc_gradient(x0, w, m, self.y, self.op, self.cfg.lam)
        k = self.stop(g, x0)
        # a Python float, so that a complex64 g is scaled in complex64
        e = g * float(self.iterate(np.float64(1), lambda s: self.cfg.lam * s - 1, k))
        g_rows, e_rows = (v[self.op.box].transpose(1, 0, 2) for v in (g, e))
        for rows, cols, h in self.blocks:
            gb = np.take(g_rows[rows], cols, axis=2)
            r = np.empty_like(gb)
            e_rows[rows][:, :, cols] = self.iterate(
                gb, lambda eb: np.subtract(np.matmul(eb, h, out=r), gb, out=r), k)
        return x0 - e


def _row_blocks(support: np.ndarray, itemsize: int) -> list[tuple[slice, np.ndarray]]:
    """Consecutive rows of ``support`` (the maps' support on the box), each
    block with the union of its rows' support columns: a block grows while its
    rows * columns**2 * itemsize bytes fit GRAM_BLOCK_BYTES, and a block with
    no support column is left out."""
    blocks, start = [], 0
    while start < len(support):
        union, stop = support[start], start + 1
        while stop < len(support):
            grown = union | support[stop]
            if (stop + 1 - start) * np.count_nonzero(grown) ** 2 * itemsize > GRAM_BLOCK_BYTES:
                break
            union, stop = grown, stop + 1
        if union.any():
            blocks.append((slice(start, stop), np.flatnonzero(union)))
        start = stop
    return blocks


def data_consistency_step(x: np.ndarray, w: np.ndarray, m: np.ndarray, dc) -> np.ndarray:
    """At most ``dc.iters`` Chebyshev iterations on the data-consistency
    subproblem from x, on raw (frame, row, col) images, by the solve's
    :class:`GradientSteps` or :class:`RowGramSteps` ``dc``."""
    return dc.descend(x, w, m)


def multiplier_update(
    m: np.ndarray, x_new: np.ndarray, w_new: np.ndarray, lam: float
) -> np.ndarray:
    """Scaled dual ascent on raw arrays: m + lam * (x_new - w_new)."""
    return m + lam * (x_new - w_new)


def admm_reconstruct(
    y: KSpaceData,
    mask: SamplingMask,
    sens: SensitivityMaps,
    cfg: AdmmConfig,
) -> ComplexImage:
    """Run the full unrolled solve in the dtype of ``y`` and return the final
    image x. It builds one operator, that of ``fourier.for_data_consistency``,
    and takes its zero-filled start from it; T = 0 returns that start and
    builds no row Gram form."""
    check_inputs(y, mask, sens)
    op, y_dc = for_data_consistency(y.data, mask, sens)
    x = w = op.adjoint_arr(y_dc)
    if cfg.T == 0:
        return ComplexImage(x)
    inner = len(chebyshev_values(cfg.inner_iters, cfg.lam, op.dtype)) - 1
    gram = (isinstance(op, ColumnOperator) and max(mask.height, mask.width) <= GRAM_MAX_SIDE
            and y.data.shape[1] * cfg.T * (inner - 1) >= GRAM_MIN_ITERS)
    dc = (RowGramSteps if gram else GradientSteps)(op, y_dc, cfg)
    m = np.zeros_like(x)
    # each frame's TV dual, carried from one outer step to the next
    dual = (np.zeros((x.shape[0], 2, 2 * x[0].size), x.real.dtype)
            if cfg.denoiser.kind == "tv-chambolle" else None)
    for _ in range(cfg.T):
        w = denoise_step(x + m / cfg.lam, cfg.denoiser, cfg.lam, dual)
        x = data_consistency_step(x, w, m, dc)
        m = multiplier_update(m, x, w, cfg.lam)
    return ComplexImage(x)


def zero_filled_init(y: KSpaceData, mask: SamplingMask, sens: SensitivityMaps) -> ComplexImage:
    """Coil-combined adjoint A^H y of the measured data: the T = 0 solve of
    :func:`admm_reconstruct`, whose x^(0) and w^(0) it is."""
    return admm_reconstruct(y, mask, sens, AdmmConfig(T=0))
