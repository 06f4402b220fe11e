"""Unrolled ADMM reconstruction via half-quadratic variable splitting.

Each outer step alternates a proximal denoising update on the auxiliary
image w, a fixed number of gradient-descent iterations enforcing data
consistency on x, and the scaled Lagrange-multiplier update
m <- m + lam * (x - w). Multipliers start at zero; x and w start from the
zero-filled reconstruction A^H y, taken as the adjoint ``op^H y_dc`` of the
solve's one data-consistency pair (op, y_dc), which a T = 0 solve returns
before it builds any row Gram form. The denoiser is pluggable: identity,
complex soft-thresholding, a closed-form Tikhonov smoother, or a
Chambolle TV prox of ``iterations`` dual steps per outer step. The TV prox
runs frame by frame on the frame's real and imaginary parts. Its weight
strength/lam is the same at every outer step, so each frame's dual is carried
from one outer step to the next: :func:`admm_reconstruct` holds one array of
them per solve, zero at the first step, and each step resumes from it. The
gradient, divergence and magnitude buffers are allocated once per frame and
step as flat contiguous arrays, and every buffer is updated in place, in the
order of the plain expressions, so the values are theirs bit for bit (k
iterations resumed after k are 2k from zero). Each difference is one pass
over a flat buffer: a row difference is a shift by the row length, a column
difference a shift by one. Where such a shift crosses a row or channel edge,
the gradient sets the entry to zero, and the divergence subtracts an exact
zero, because the dual's row part keeps a zero last row and its column part a
zero last column. The solve returns the final image x only.

Data consistency is one object per solve, whose ``descend`` runs the inner
iterations on that pair, built once by ``fourier.for_data_consistency`` (on
rectilinear masks the ``ColumnOperator`` B, on the maps' support box, and
y_dc; on point masks the 2D operator A and y): :class:`GradientSteps`
takes a :func:`dc_gradient` each iteration. On a rectilinear mask, when the
solve's Gram iterations, frames * T * (inner - 1), reach
:data:`GRAM_MIN_ITERS` on a grid of at most :data:`GRAM_MAX_SIDE` rows and
columns (one frame at the static defaults does), :func:`admm_reconstruct`
builds :class:`RowGramSteps` instead, which takes one g per outer step, at
its start x0. The gradient at x0 - e is g - e (N + lam I), so it iterates
on e = x0 - x as e <- e Q + s g from e = s g, with Q = (1 - s*lam) I - s N
formed in place in the N = B^H B of ``ColumnOperator.row_gram``: on the
box one batched (row, frame, col) GEMM and one add each; off it N is zero,
so e = c s g, c = sum_{k<inner} (1 - s*lam)^k. That is the same iterate in
exact arithmetic, and with one inner iteration the same bytes. g comes from
the residual B x0 - y_dc, so the solve's dtype is enough for it: the plain
``x N - B^H y_dc`` form cancels in complex64, which moved a 12x128x128 solve
by 7.8e-6 of its maximum.

Each box row's iterate is independent of the others', so :class:`RowGramSteps`
runs all inner iterations on one block of rows before the next: as many
rows of Q as :data:`GRAM_BLOCK_BYTES` holds (3 of the 237x203 box of 256x256
in complex64, 12 of the 119x101 box of 128x128). Each block runs the same
batched matmul on each of its rows, so the values are those of one loop over
the whole box, byte for byte, but Q is read from memory once per outer step
rather than once per inner iteration (74.5 MiB at 256x256). On the static
256x256 l1 solve (one frame, 14 inner, equispaced R4 with 24 ACS lines,
estimated maps, complex64, 2 vCPUs) one outer step of data consistency
takes 49 ms on the column path, 42 ms on the unblocked row Gram loop and
28 ms on the blocked one, and building N and Q takes 55 ms once per solve
(medians of 5-9 processes of 15 steps each).

:func:`admm_reconstruct` is the one place that chooses the row Gram path.
The path holds one (H', W', W') array, Q (its bytes per grid are in
``fourier``). Measured with ``tracemalloc`` on warm complex64 solves (8
coils, estimated maps), a 12-frame TV solve (random-rectilinear R4 with 24
ACS lines, T=10, 8 inner) peaks at 32.7 MiB at 128x128 and 168.1 MiB at
256x256; the static 256x256 l1 solve (equispaced R4 with 24 ACS lines,
T=16, 14 inner), which takes the path by the same rule, peaks at 87.9 MiB
against 14.4 MiB on the column path. Q grows with W'^2 where the column
path does not, so the side cap holds it to 128 MiB (complex64) or 256 MiB
(complex128) on measured grids. Larger grids, solves of fewer Gram
iterations and point masks keep the column path.

Whole solves, seconds for the column path / the row Gram path with its
blocked inner loop: T=10, identity denoiser, 8 coils, equispaced R4 with 24
ACS lines, estimated maps, complex64, warm solves in one process alternating
the two paths, each forced by patching GRAM_MIN_ITERS, medians of 5 (3 at
256x256), 2 vCPUs, numpy 2.4 with OpenBLAS 0.3.31. G is the solve's Gram
iterations. With 8 inner iterations (G = 70 per frame)::

    frames      1          2          3          4          5          6          8          12
    128x128  0.069/0.050 0.129/0.093 0.198/0.129 0.255/0.146 0.320/0.179 0.380/0.165 0.519/0.247 0.778/0.312
    256x256  0.271/0.240 0.592/0.513 0.992/0.629 1.383/0.778 1.882/1.037 2.267/1.246 3.076/1.387 5.370/1.696

One frame with fewer inner iterations, and other frames and inner counts
near the threshold (frames x inner, G)::

    1 frame, inner 2 (10)  3 (20)      4 (30)      6 (50)      7 (60)
    128x128  0.015/0.021 0.020/0.023 0.028/0.028 0.036/0.033 0.045/0.039
    256x256  0.100/0.167 0.141/0.198 0.172/0.200 0.233/0.224 0.223/0.209

             4x2 (40)    2x4 (60)    6x2 (60)    2x5 (80)    4x3 (80)    8x2 (80)    12x2 (120)
    128x128  0.074/0.067 0.068/0.058      -      0.074/0.060      -      0.136/0.113      -
    256x256  0.367/0.395 0.271/0.300 0.618/0.598 0.453/0.470 0.566/0.511 0.849/0.752 1.391/1.072

The Gram path pays for N and Q once per solve and saves on every Gram
iteration, so the count that decides is the solve's G, not its frames. At
256x256 the Gram path loses at G = 10-40 (by up to 0.07 s) and at 2x4
(10%), gains at most 6% at the other cells of G = 50-60, and wins every
cell from G = 70 but 2x5, a tie within its spread; at 128x128 it wins from
about G = 40. GRAM_MIN_ITERS is 64, so one frame at the static defaults
(G = 16 * 13 = 208) and at the dynamic ones (G = 70) takes the Gram path,
and solves of a few steps or inner iterations keep the column path. Both
paths give the same iterate up to round-off (within 1e-6 of the image
maximum in complex64; 2-5e-7 in the cells above).

The solve runs in the dtype of the k-space: the operator casts the maps to
it once, and every step and denoiser returns the dtype it is given, so
complex64 data (as read from CKS files) is solved in complex64 and
complex128 data in complex128.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import ComplexImage, KSpaceData, SamplingMask, SensitivityMaps, check_inputs
from .fourier import ColumnOperator, ForwardOperator, for_data_consistency

DENOISER_KINDS = ("identity", "l1-soft-threshold", "tikhonov-smooth", "tv-chambolle")
# The row Gram path's rule (admm_reconstruct): the fewest Gram iterations,
# frames * T * (inner - 1), that pay back building N and Q, and the widest grid
# whose Q fits the memory bound (both measured in the module docstring).
GRAM_MIN_ITERS = 64
GRAM_MAX_SIDE = 256
# Bytes of RowGramSteps' step matrix Q that one block of rows may hold, so that
# the block stays in cache over all inner iterations: half of a 2 MiB per-core L2.
GRAM_BLOCK_BYTES = 1 << 20


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (as ``operator.index``
    takes it, numpy integers too) of at least ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class DenoiserSpec:
    """Proximal denoiser choice standing in for the prior term.

    ``iterations`` counts the ``tv-chambolle`` dual steps per outer step of a
    solve; each step starts from the frame's dual left by the step before."""

    kind: str = "identity"
    strength: float = 0.0
    iterations: int = 12

    def __post_init__(self):
        if self.kind not in DENOISER_KINDS:
            raise ValueError(f"unknown denoiser kind {self.kind!r}")
        if not 0 <= self.strength < math.inf:
            raise ValueError(f"denoiser strength must be finite and >= 0, got {self.strength}")
        if self.kind == "identity" and self.strength != 0:
            raise ValueError("identity denoiser requires strength 0")
        _check_count("iterations", self.iterations, 1)


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
        _check_count("T", self.T, 0)
        _check_count("inner_iters", self.inner_iters, 1)
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


def zero_filled_init(y: KSpaceData, mask: SamplingMask, sens: SensitivityMaps,
                     pair: tuple[ForwardOperator, np.ndarray] | None = None) -> ComplexImage:
    """Coil-combined adjoint of the measured data, the solver's x^(0) and w^(0):
    ``op.adjoint_arr(y_dc)`` of the data-consistency pair ``(op, y_dc)`` of
    ``fourier.for_data_consistency``, which equals A^H y. ``pair``, if given,
    is that pair for y, ``mask`` and ``sens``; else it is built here."""
    check_inputs(y, mask, sens)
    op, y_dc = for_data_consistency(y.data, mask, sens) if pair is None else pair
    return ComplexImage(op.adjoint_arr(y_dc))


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
    # Chambolle dual projection for prox of weight * TV on each (row, col)
    # image of the real (channel, row, col) stack v, fixed iterations, in place
    # on flat contiguous buffers allocated once per call. The iterations start
    # from the flat (2, v.size) dual p and update it in place, so a caller can
    # pass it to the next call; None starts from zero. The unary out= calls
    # (np.square, np.sqrt) see only contiguous 1-D arrays.
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

    ``dual``, for ``tv-chambolle`` only, is the real (frame, 2, 2*rows*cols)
    array, in ``v.real.dtype``, of each frame's Chambolle dual: frame t's
    iterations start from ``dual[t]`` and leave their last dual in it. Without
    it every frame starts from zero and the step keeps no state."""
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
        re, im = _tv_prox_real(np.stack((v[t].real, v[t].imag)), weight, spec.iterations, p)
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
    """Data consistency by :func:`dc_gradient` on an operator and its data,
    the pair of ``fourier.for_data_consistency``: A and y, or B and y_dc."""

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
    """Data consistency on the row Gram form: one :func:`dc_gradient` per outer
    step on ``op`` and ``y`` (a ``ColumnOperator`` B and its y_dc), then inner
    iterations with ``cfg``'s step matrix Q = (1 - s*lam) I - s N on B's box,
    formed in place in the N of ``op.row_gram()``, and the closed form c s g
    off it, with c = sum_{k<inner} (1 - s*lam)^k computed once."""

    def __init__(self, op: ColumnOperator, y: np.ndarray, cfg: AdmmConfig):
        self.op, self.y, self.cfg, s = op, y, cfg, cfg.step_size
        self.step = op.row_gram()
        self.step *= -s
        np.einsum("hjj->hj", self.step)[...] += 1 - s * cfg.lam  # a view of each diagonal
        self.block_rows = max(1, GRAM_BLOCK_BYTES // self.step[0].nbytes)
        self.off_box = sum((1 - s * cfg.lam) ** k for k in range(cfg.inner_iters))

    def descend(self, x0: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
        # e <- e Q + s g from e = s g on e = x0 - x, in (row, frame, col) layout
        # on the box, all inner iterations on one block of rows before the next;
        # off the box Q is (1 - s*lam) I and e = c s g, c = self.off_box
        cfg, box = self.cfg, self.op.box
        g = dc_gradient(x0, w, m, self.y, self.op, cfg.lam)
        g *= cfg.step_size
        sg = np.ascontiguousarray(g[box].transpose(1, 0, 2))
        e, nxt = sg.copy(), np.empty_like(sg)
        for r in range(0, len(sg), self.block_rows):
            blk = np.s_[r : r + self.block_rows]
            eb, nb = e[blk], nxt[blk]
            for _ in range(cfg.inner_iters - 1):
                np.matmul(eb, self.step[blk], out=nb)
                nb += sg[blk]
                eb, nb = nb, eb
            e[blk] = eb
        g *= self.off_box
        g[box] = e.transpose(1, 0, 2)
        return x0 - g


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

    The solve builds one operator, that of ``fourier.for_data_consistency``,
    and takes its zero-filled start from it. T = 0 returns that start and
    builds no row Gram form.
    """
    check_inputs(y, mask, sens)
    op, y_dc = pair = for_data_consistency(y.data, mask, sens)
    start = zero_filled_init(y, mask, sens, pair)
    if cfg.T == 0:
        return start
    x = w = start.data
    gram = (isinstance(op, ColumnOperator) and max(mask.height, mask.width) <= GRAM_MAX_SIDE
            and y.data.shape[1] * cfg.T * (cfg.inner_iters - 1) >= GRAM_MIN_ITERS)
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
