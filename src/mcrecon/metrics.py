"""Image-quality metrics and the combined dual-domain loss.

SSIM uses dense (stride-1) uniform 7x7 windows (7x7x7 for volumes) with
population statistics and stabilizers C1 = (0.01 * data_range)^2,
C2 = (0.03 * data_range)^2; with inputs normalized to [0, 1] and
data_range = 1 this reduces to raw constants 0.01 and 0.03. A uniform
window mean is a box filter, so the five window means (of u, v, u*u, v*v,
u*v) are computed one axis at a time, each pass adding 7 shifted slices of
the valid region: O(7 * ndim) operations per pixel instead of O(7^ndim).
HFEN uses a 15x15 Laplacian-of-Gaussian filter (sigma 2.5, zero-sum) with
symmetric boundary padding (``np.pad(mode="symmetric")``, which keeps
mirroring when the pad is wider than the image); the kernel is a sum of four
separable terms, so it is applied as six 1D passes along rows and columns,
each a matrix product of the padded axis's 15-wide windows with the taps.
Both equal the dense definitions up to round-off. Every metric computes in double precision,
whatever the precision of its inputs.

:func:`score_volume` holds every rule of scoring a volume: the data ranges,
SSIM3D only for at least SSIM_WINDOW frames, and the loss sum. ``mcrecon
evaluate`` writes its rows, and :func:`dual_domain_loss` is its loss row.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SSIM_WINDOW = 7
LOG_SIZE = 15
LOG_SIGMA = 2.5
# Weights of the dual-domain loss's terms, in score_volume's order of summation
W_SSIM, W_L1, W_HFEN1, W_SSIM3D, W_NMAE = 1.0, 1.0, 1.0, 1.0, 3.0


class UndefinedMetricError(ValueError):
    """Raised when a metric's normalizer vanishes (e.g. a zero reference)."""


def _same_shape(u, v, dtype=None) -> tuple[np.ndarray, np.ndarray]:
    """u and v as arrays of one shape in ``dtype``, by default in double
    precision (float64 or complex128), so sums never run in float32."""
    u, v = np.asarray(u), np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    dtype = dtype or np.result_type(u, v, np.float64)
    return u.astype(dtype, copy=False), v.astype(dtype, copy=False)


def _window_means(fields: np.ndarray, ndim: int) -> np.ndarray:
    """Means of ``fields`` over every SSIM_WINDOW-wide window of its last
    ``ndim`` axes, one axis at a time. Each pass adds the SSIM_WINDOW shifted
    slices in order, so there is no running sum to cancel."""
    for axis in range(fields.ndim - ndim, fields.ndim):
        n = fields.shape[axis] - SSIM_WINDOW + 1
        head = (slice(None),) * axis
        acc = fields[head + (slice(0, n),)].copy()
        for k in range(1, SSIM_WINDOW):
            acc += fields[head + (slice(k, k + n),)]
        fields = acc
    fields /= SSIM_WINDOW**ndim
    return fields


def _check_range(data_range: float) -> None:
    if not 0 < data_range < np.inf:
        raise ValueError(f"data_range must be positive and finite, got {data_range}")


def _ssim(u, v, ndim: int, data_range: float) -> float:
    u, v = _same_shape(u, v, float)
    if u.ndim != ndim or min(u.shape) < SSIM_WINDOW:
        raise ValueError(f"SSIM needs {ndim}D inputs of at least {SSIM_WINDOW} per axis")
    _check_range(data_range)
    mu_u, mu_v, uu, vv, uv = _window_means(np.stack([u, v, u * u, v * v, u * v]), ndim)
    var_u = uu - mu_u**2
    var_v = vv - mu_v**2
    cov = uv - mu_u * mu_v
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    num = (2 * mu_u * mu_v + c1) * (2 * cov + c2)
    den = (mu_u**2 + mu_v**2 + c1) * (var_u + var_v + c2)
    return float(np.mean(num / den))


def ssim(u: np.ndarray, v: np.ndarray, data_range: float = 1.0) -> float:
    """Mean SSIM over dense 7x7 windows of two real 2D images."""
    return _ssim(u, v, 2, data_range)


def ssim3d(u: np.ndarray, v: np.ndarray, data_range: float = 1.0) -> float:
    """Mean SSIM over dense 7x7x7 windows of two real volumes."""
    return _ssim(u, v, 3, data_range)


def log_kernel() -> np.ndarray:
    """Laplacian-of-Gaussian kernel (LOG_SIZE, LOG_SIGMA), mean-subtracted to sum to 0."""
    size, sigma = LOG_SIZE, LOG_SIGMA
    yy, xx = np.mgrid[0:size, 0:size] - (size - 1) / 2
    r2 = yy**2 + xx**2
    k = -(1.0 / (np.pi * sigma**4)) * (1.0 - r2 / (2 * sigma**2)) * np.exp(-r2 / (2 * sigma**2))
    return k - k.mean()


def _log_factors():
    """(c, g, q, mean) with log_kernel() equal to
    c * (g(x)g - q(x)g - g(x)q) - mean, where (x) is the outer product,
    g(t) = exp(-t^2 / (2 sigma^2)) and q(t) = t^2 / (2 sigma^2) * g(t)."""
    size, sigma = LOG_SIZE, LOG_SIGMA
    t = np.arange(size) - (size - 1) / 2
    g = np.exp(-(t**2) / (2 * sigma**2))
    q = t**2 / (2 * sigma**2) * g
    c = -1.0 / (np.pi * sigma**4)
    mean = c * g.sum() * (g.sum() - 2 * q.sum()) / size**2
    return c, g, q, mean


def _correlate1d(a: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """Correlation of ``a`` with the odd-length taps ``w`` along ``axis``, on
    symmetric padding: out[i] = sum_j w[j] * a[i + j - len(w)//2]."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (len(w) // 2, len(w) // 2)
    return sliding_window_view(np.pad(a, pad, mode="symmetric"), len(w), axis=axis) @ w


def _log_filter(a: np.ndarray) -> np.ndarray:
    """The convolution of every image in the last two axes of ``a`` with
    log_kernel() on symmetric padding, as six 1D passes over the kernel's four
    separable terms (the kernel is symmetric, so correlation is convolution)."""
    c, g, q, mean = _log_factors()

    def rows(w):
        return _correlate1d(a, w, axis=-2)

    def cols(b, w):
        # on the transposed view: windows along the last axis share their stride
        # with the axis beside them, which keeps matmul off BLAS (3-4x slower
        # at 128x128 and 256x256)
        return _correlate1d(b.swapaxes(-1, -2), w, axis=-2).swapaxes(-1, -2)

    ag = rows(g)
    out = cols(ag - rows(q), c * g)
    out -= cols(ag, c * q)
    out -= cols(rows(np.ones_like(g)), np.full_like(g, mean))
    return out


def hfen1(u: np.ndarray, v: np.ndarray) -> float:
    """High-frequency error norm: L1 ratio of LoG-filtered difference to
    LoG-filtered reference."""
    u, v = _same_shape(u, v, float)
    if u.ndim != 2:
        raise ValueError(f"hfen1 needs 2D inputs, got {u.ndim}D")
    gu, gv = _log_filter(np.stack([u, v]))
    denom = np.abs(gu).sum()
    # constants leave only rounding residue after the zero-sum kernel
    if denom <= 1e-12 * max(1.0, float(np.abs(u).sum())):
        raise UndefinedMetricError("hfen1 undefined: LoG of the reference is zero")
    return float(np.abs(gu - gv).sum() / denom)


def nmae(u: np.ndarray, v: np.ndarray) -> float:
    """Normalized mean absolute error, ||u - v||_1 / ||u||_1 (complex-aware)."""
    u, v = _same_shape(u, v)
    denom = np.abs(u).sum()
    if denom == 0:
        raise UndefinedMetricError("nmae undefined: reference has zero L1 norm")
    return float(np.abs(u - v).sum() / denom)


def nmse(u: np.ndarray, v: np.ndarray) -> float:
    """Normalized mean squared error, ||u - v||_2^2 / ||u||_2^2."""
    u, v = _same_shape(u, v)
    denom = float(np.sum(np.abs(u) ** 2))
    if denom == 0:
        raise UndefinedMetricError("nmse undefined: reference has zero energy")
    return float(np.sum(np.abs(u - v) ** 2) / denom)


def psnr(u: np.ndarray, v: np.ndarray, data_range: float) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical inputs."""
    u, v = _same_shape(u, v, float)
    _check_range(data_range)
    mse = float(np.mean((u - v) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(data_range**2 / mse)


def _data_range(mag: np.ndarray) -> float:
    """The SSIM and PSNR data range of reference magnitudes: their maximum,
    or 1 if that is not positive."""
    peak = float(mag.max())
    return peak if peak > 0 else 1.0


def score_volume(x_true: np.ndarray, x_pred: np.ndarray, y_true=None, y_pred=None,
                 frame_range: bool = False) -> list[tuple]:
    """``mcrecon evaluate``'s ``(frame, metric, value)`` rows for the real
    magnitudes x_true, x_pred (2D or (frame, row, col)): per frame ssim, nmse,
    psnr and hfen1; ssim3d for at least SSIM_WINDOW frames; and, given the
    k-space pair, nmae and dual_domain_loss, the sum W_SSIM * mean(1 - SSIM)
    + W_L1 * ||x_true - x_pred||_1 + W_HFEN1 * mean(HFEN1) + W_SSIM3D *
    (1 - SSIM3D) + W_NMAE * NMAE, weights (1, 1, 1, 1, 3), the SSIM3D term
    only with its row. SSIM and PSNR use the volume's data range, or each
    frame's with ``frame_range``; SSIM3D and the loss always use the volume's."""
    x_true, x_pred = _same_shape(x_true, x_pred, float)
    frames_t = x_true[np.newaxis] if x_true.ndim == 2 else x_true
    frames_p = x_pred[np.newaxis] if x_pred.ndim == 2 else x_pred
    vol_range = _data_range(x_true)
    rows: list[tuple] = []
    ssims, hfens = [], []
    for t, (ft, fp) in enumerate(zip(frames_t, frames_p)):
        rng = _data_range(ft) if frame_range else vol_range
        ssims.append(ssim(ft, fp, rng))
        hfens.append(hfen1(ft, fp))
        rows += [(t, "ssim", ssims[-1]), (t, "nmse", nmse(ft, fp)), (t, "psnr", psnr(ft, fp, rng)),
                 (t, "hfen1", hfens[-1])]
    s3 = ssim3d(frames_t, frames_p, vol_range) if len(frames_t) >= SSIM_WINDOW else None
    if s3 is not None:
        rows.append(("all", "ssim3d", s3))
    if y_true is None:
        return rows
    nm = nmae(y_true, y_pred)
    if frame_range:
        ssims = [ssim(ft, fp, vol_range) for ft, fp in zip(frames_t, frames_p)]
    loss = (W_SSIM * np.mean([1.0 - s for s in ssims])
            + W_L1 * float(np.abs(x_true - x_pred).sum())
            + W_HFEN1 * np.mean(hfens))
    if s3 is not None:
        loss += W_SSIM3D * (1.0 - s3)
    loss += W_NMAE * nm
    return rows + [("all", "nmae", nm), ("all", "dual_domain_loss", float(loss))]


def dual_domain_loss(x_true: np.ndarray, x_pred: np.ndarray, y_true: np.ndarray,
                     y_pred: np.ndarray) -> float:
    """The dual-domain loss of real magnitudes (2D or (frame, row, col)) and
    their k-space, with the fixed weights W_*: the ``dual_domain_loss`` row of
    :func:`score_volume`."""
    return score_volume(x_true, x_pred, y_true, y_pred)[-1][2]
