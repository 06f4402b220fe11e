"""Unrolled ADMM reconstruction via half-quadratic variable splitting.

Each outer step alternates a proximal denoising update on the auxiliary
image w, a fixed number of gradient-descent iterations enforcing data
consistency on x, and the scaled Lagrange-multiplier update
m <- m + lam * (x - w). Multipliers start at zero; x and w start from the
zero-filled (adjoint) reconstruction. The denoiser is pluggable: identity,
complex soft-thresholding, a closed-form Tikhonov smoother, or a
fixed-iteration Chambolle TV prox. The TV prox runs frame by frame on
the frame's real and imaginary parts, with its dual, gradient, divergence and
magnitude buffers allocated once per frame as flat contiguous arrays and
updated in place, in the order of the plain expressions, so the values are
theirs bit for bit. Each difference is one pass over a flat buffer: a row
difference is a shift by the row length, a column difference a shift by one.
Where such a shift crosses a row or channel edge, the gradient sets the entry
to zero, and the divergence subtracts an exact zero, because the dual's row
part keeps a zero last row and its column part a zero last column. The solve
returns the final image x only.

Data consistency is one object per solve, whose ``descend`` runs the inner
iterations: :class:`GradientSteps` on the operator and data of
``ForwardOperator.for_data_consistency`` (on rectilinear masks they map
image rows onto the sampled columns, with the same gradient), or, with
``fourier.GRAM_MIN_FRAMES`` frames or more on a rectilinear mask of at most
``fourier.GRAM_MAX_SIDE`` rows and columns, :class:`RowGramSteps` on the
N = B^H B (one (W, W) matrix per image row) and b = B^H y_dc of
``ForwardOperator.row_gram``, with Q = (1 - s*lam) I - s N. The
gradient at x0 + d is c + d (N + lam I), with the anchor
c = (x0 N - b) + lam (x0 - w) + m, so each outer step computes c once in
complex128 from its start x0 and runs the inner iterations on the correction
d, in (row, frame, col) layout, as d <- d Q - s c from d = 0: one batched GEMM
and one add each, with no operator call. That is the same iterate in exact
arithmetic. The anchor keeps out the complex64 cancellation of the plain
``x N - b`` form, which moved a 12x128x128 solve by 7.8e-6 of its maximum.

The solve runs in the dtype of the k-space: the operator casts the maps to
it once, and every step and denoiser returns the dtype it is given, so
complex64 data (as read from CKS files) is solved in complex64 and
complex128 data in complex128.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ComplexImage, KSpaceData, SamplingMask, SensitivityMaps, check_inputs
from .fourier import ForwardOperator

DENOISER_KINDS = ("identity", "l1-soft-threshold", "tikhonov-smooth", "tv-chambolle")


@dataclass(frozen=True)
class DenoiserSpec:
    """Proximal denoiser choice standing in for the prior term."""

    kind: str = "identity"
    strength: float = 0.0
    iterations: int = 20

    def __post_init__(self):
        if self.kind not in DENOISER_KINDS:
            raise ValueError(f"unknown denoiser kind {self.kind!r}")
        if not 0 <= self.strength < math.inf:
            raise ValueError(f"denoiser strength must be finite and >= 0, got {self.strength}")
        if self.kind == "identity" and self.strength != 0:
            raise ValueError("identity denoiser requires strength 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class AdmmConfig:
    """Hyperparameters of the unrolled solve.

    The field defaults are the static 2D configuration (16 outer steps, 14
    inner gradient iterations); :meth:`for_mode` applies a mode's overrides
    from :data:`MODE_DEFAULTS`, e.g. dynamic 10 and 8. A ``step_size`` of
    None becomes 1/(1+lam).
    """

    T: int = 16
    inner_iters: int = 14
    lam: float = 1.0
    step_size: float | None = None
    denoiser: DenoiserSpec = field(default_factory=DenoiserSpec)

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.inner_iters < 1:
            raise ValueError("inner_iters must be >= 1")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        step = self.step_size
        if step is None:
            step = 1.0 / (1.0 + self.lam)
            object.__setattr__(self, "step_size", step)
        if not 0 < step < 2.0 / (1.0 + self.lam):
            raise ValueError(f"step_size {step} outside (0, 2/(1+lam))")

    @classmethod
    def for_mode(cls, mode: str, **given) -> "AdmmConfig":
        """Config with ``mode``'s defaults, overridden by every value in
        ``given`` that is not None."""
        if mode not in MODE_DEFAULTS:
            raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(MODE_DEFAULTS)}")
        explicit = {k: v for k, v in given.items() if v is not None}
        return cls(**{**MODE_DEFAULTS[mode], **explicit})


MODE_DEFAULTS = {"static": {}, "dynamic": {"T": 10, "inner_iters": 8}}


def zero_filled_init(
    y: KSpaceData, mask: SamplingMask, sens: SensitivityMaps, op: ForwardOperator | None = None
) -> ComplexImage:
    """Coil-combined adjoint of the measured data; the solver's x^(0) and w^(0).
    ``op``, if given, is the operator of ``mask`` and ``sens`` in y's dtype."""
    check_inputs(y, mask, sens)
    if op is None:
        op = ForwardOperator(mask=mask, sens=sens, dtype=y.data.dtype)
    return ComplexImage(op.adjoint_arr(y.data))


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


def _tv_prox_real(v: np.ndarray, weight: float, iterations: int) -> np.ndarray:
    # Chambolle dual projection for prox of weight * TV on each (row, col)
    # image of the real (channel, row, col) stack v, fixed iterations, in place
    # on flat contiguous buffers allocated once per call. The unary out= calls
    # (np.square, np.sqrt) see only contiguous 1-D arrays.
    if weight == 0:
        return v.copy()
    tau = 0.25
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


def denoise_step(v: np.ndarray, spec: DenoiserSpec, lam: float) -> np.ndarray:
    """Proximal update of the auxiliary variable: prox of the prior (scaled
    by 1/lam) applied to the (frame, row, col) array v = x + m/lam."""
    if spec.kind == "identity":
        return v
    if spec.kind == "l1-soft-threshold":
        return _soft_threshold(v, spec.strength / lam)
    if spec.kind == "tikhonov-smooth":
        return _tikhonov_prox(v, spec.strength, lam)
    weight = spec.strength / lam  # tv-chambolle, the last kind DenoiserSpec admits
    out = np.empty_like(v)
    for t in range(v.shape[0]):
        re, im = _tv_prox_real(np.stack((v[t].real, v[t].imag)), weight, spec.iterations)
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
    """Gradient of :func:`dc_objective` with respect to x (Wirtinger, scaled
    so gradient descent matches real-valued descent on re/im parts)."""
    resid = op.apply_arr(x)
    resid -= y
    # adjoint(resid) + lam * (x - w) + m, in that order, accumulated in place
    g = op.adjoint_arr(resid)
    d = x - w
    d *= lam
    g += d
    g += m
    return g


class GradientSteps:
    """Data consistency by :func:`dc_gradient` on an operator and its data:
    A and y, or the B and y_dc of ``ForwardOperator.for_data_consistency``."""

    def __init__(self, op: ForwardOperator, y: np.ndarray, cfg: AdmmConfig):
        self.op, self.y, self.cfg = op, y, cfg

    def descend(self, x0: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
        x = x0.copy()
        for _ in range(self.cfg.inner_iters):
            g = dc_gradient(x, w, m, self.y, self.op, self.cfg.lam)
            g *= self.cfg.step_size
            x -= g
        return x


class RowGramSteps:
    """Data consistency on the N and b of ``ForwardOperator.row_gram``, with
    ``cfg``'s step matrix Q = (1 - s*lam) I - s N cast once to ``dtype``."""

    def __init__(self, normal: np.ndarray, b: np.ndarray, cfg: AdmmConfig, dtype: np.dtype):
        self.normal, self.b, self.cfg, s = normal, b, cfg, cfg.step_size
        self.step = np.multiply(normal, -s, out=np.empty(normal.shape, dtype), casting="same_kind")
        diag = np.arange(normal.shape[-1])
        self.step[:, diag, diag] = (1 - s * cfg.lam) - s * normal[:, diag, diag]

    def descend(self, x0: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
        # d <- d Q - s c from d = 0 on d = x - x0, anchored in complex128 (module docstring)
        def rows(a):
            return np.ascontiguousarray(a.transpose(1, 0, 2), dtype=np.complex128)

        x0r = rows(x0)
        c = x0r @ self.normal
        c -= self.b
        x0r -= rows(w)
        x0r *= self.cfg.lam
        c += x0r
        c += rows(m)
        c *= -self.cfg.step_size
        neg_sc = c.astype(x0.dtype)
        d, nxt = neg_sc.copy(), np.empty_like(neg_sc)
        for _ in range(self.cfg.inner_iters - 1):
            np.matmul(d, self.step, out=nxt)
            nxt += neg_sc
            d, nxt = nxt, d
        return x0 + d.transpose(1, 0, 2)


def data_consistency_step(x_in: np.ndarray, w: np.ndarray, m: np.ndarray, dc) -> np.ndarray:
    """``dc.cfg.inner_iters`` fixed-step gradient-descent iterations on the
    data-consistency subproblem from x_in, on raw (frame, row, col) images,
    by the solve's :class:`GradientSteps` or :class:`RowGramSteps` ``dc``."""
    return dc.descend(x_in, w, m)


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
    """Run the full unrolled solve, in the dtype of ``y``, and return the
    final image x.

    T = 0 returns the zero-filled initialization unchanged.
    """
    op = ForwardOperator(mask=mask, sens=sens, dtype=y.data.dtype)
    x = w = zero_filled_init(y, mask, sens, op).data
    gram = op.row_gram(y.data)
    dc = (GradientSteps(*op.for_data_consistency(y.data), cfg) if gram is None
          else RowGramSteps(*gram, cfg, op.dtype))
    m = np.zeros_like(x)
    for _ in range(cfg.T):
        w = denoise_step(x + m / cfg.lam, cfg.denoiser, cfg.lam)
        x = data_consistency_step(x, w, m, dc)
        m = multiplier_update(m, x, w, cfg.lam)
    return ComplexImage(x)
