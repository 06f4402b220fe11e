"""Unrolled ADMM reconstruction via half-quadratic variable splitting.

Each outer step alternates a proximal denoising update on the auxiliary
image w, a fixed number of gradient-descent iterations enforcing data
consistency on x, and the scaled Lagrange-multiplier update
m <- m + lam * (x - w). Multipliers start at zero; x and w start from the
zero-filled (adjoint) reconstruction. The denoiser is pluggable: identity,
complex soft-thresholding, a closed-form Tikhonov smoother, or a
fixed-iteration Chambolle TV prox.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ComplexImage, KSpaceData, SamplingMask, SensitivityMaps
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
        if self.strength < 0:
            raise ValueError("denoiser strength must be nonnegative")
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
        if self.lam <= 0:
            raise ValueError("lam must be positive")
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


@dataclass(frozen=True)
class AdmmState:
    """Iterate triple (x, w, m) after ``iteration`` outer steps."""

    x: ComplexImage
    w: ComplexImage
    m: ComplexImage
    iteration: int


def zero_filled_init(y: KSpaceData, mask: SamplingMask, sens: SensitivityMaps) -> ComplexImage:
    """Coil-combined adjoint of the measured data; the solver's x^(0) and w^(0)."""
    op = ForwardOperator(mask=mask, sens=sens)
    if (y.height, y.width) != (mask.height, mask.width) or y.n_coils != sens.n_coils:
        raise ValueError("k-space dimensions do not match mask/sensitivities")
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
    eig = (2 - 2 * np.cos(ky))[:, None] + (2 - 2 * np.cos(kx))[None, :]
    vk = np.fft.fft2(v, axes=(-2, -1))
    return np.fft.ifft2(lam * vk / (lam + alpha * eig), axes=(-2, -1))


def _grad2(u: np.ndarray) -> np.ndarray:
    g = np.zeros((2,) + u.shape, dtype=u.dtype)
    g[0, :-1] = u[1:] - u[:-1]
    g[1, :, :-1] = u[:, 1:] - u[:, :-1]
    return g


def _div2(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p[0])
    out[0] = p[0, 0]
    out[1:-1] = p[0, 1:-1] - p[0, :-2]
    out[-1] = -p[0, -2]
    out[:, 0] += p[1, :, 0]
    out[:, 1:-1] += p[1, :, 1:-1] - p[1, :, :-2]
    out[:, -1] += -p[1, :, -2]
    return out


def _tv_prox_real(v: np.ndarray, weight: float, iterations: int) -> np.ndarray:
    # Chambolle dual projection for prox of weight * TV, fixed iterations.
    if weight == 0:
        return v.copy()
    tau = 0.25
    p = np.zeros((2,) + v.shape)
    for _ in range(iterations):
        g = _grad2(_div2(p) - v / weight)
        mag = np.sqrt(np.sum(g**2, axis=0))
        p = (p + tau * g) / (1.0 + tau * mag)
    return v - weight * _div2(p)


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
        out[t] = _tv_prox_real(v[t].real, weight, spec.iterations) + 1j * _tv_prox_real(
            v[t].imag, weight, spec.iterations
        )
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
    return op.adjoint_arr(op.apply_arr(x) - y) + lam * (x - w + m / lam)


def data_consistency_step(
    x_in: np.ndarray,
    w: np.ndarray,
    m: np.ndarray,
    y: np.ndarray,
    op: ForwardOperator,
    cfg: AdmmConfig,
) -> np.ndarray:
    """Fixed-step gradient descent on the data-consistency subproblem,
    warm-started from x_in, for cfg.inner_iters iterations. Arrays are raw
    (frame, row, col) images and (coil, frame, row, col) k-space."""
    x = x_in.copy()
    for _ in range(cfg.inner_iters):
        x -= cfg.step_size * dc_gradient(x, w, m, y, op, cfg.lam)
    return x


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
    return_state: bool = False,
):
    """Run the full unrolled solve and return the final image.

    T = 0 returns the zero-filled initialization unchanged.
    """
    op = ForwardOperator(mask=mask, sens=sens)
    x = w = zero_filled_init(y, mask, sens).data
    m = np.zeros_like(x)
    for _ in range(cfg.T):
        w = denoise_step(x + m / cfg.lam, cfg.denoiser, cfg.lam)
        x = data_consistency_step(x, w, m, y.data, op, cfg)
        m = multiplier_update(m, x, w, cfg.lam)
    if return_state:
        return AdmmState(ComplexImage(x), ComplexImage(w), ComplexImage(m), iteration=cfg.T)
    return ComplexImage(x)
