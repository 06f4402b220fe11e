import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ALL_SCHEMES, make_mask, rand_image, random_sens
from mcrecon import sampling, solver
from mcrecon.core import RECTILINEAR_SCHEMES, KSpaceData, SensitivityMaps
from mcrecon.fourier import ColumnOperator, ForwardOperator, for_data_consistency
from mcrecon.sampling import full_mask
from mcrecon.data import dynamic_phantom, shepp_logan, simulate_coils
from mcrecon.solver import (
    DENOISER_KINDS,
    GRAM_MIN_ITERS,
    AdmmConfig,
    DenoiserSpec,
    GradientSteps,
    RowGramSteps,
    _div2,
    _grad2,
    _tv_prox_real,
    admm_reconstruct,
    chebyshev_values,
    data_consistency_step,
    dc_gradient,
    dc_objective,
    denoise_step,
    multiplier_update,
    zero_filled_init,
)


def periodic_laplacian(h, w):
    n = h * w
    lap = np.zeros((n, n))
    for r in range(h):
        for c in range(w):
            i = r * w + c
            lap[i, i] = 4.0
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                lap[i, (rr % h) * w + (cc % w)] -= 1.0
    return lap


def dense_forward_matrix(op, h, w):
    """Columns of the stacked forward operator via unit images."""
    cols = []
    for i in range(h * w):
        e = np.zeros((1, h, w), dtype=complex)
        e[0, i // w, i % w] = 1.0
        cols.append(op.apply_arr(e).ravel())
    return np.array(cols).T


class TestConfigs:
    def test_step_size_is_no_field(self):
        """The Chebyshev iteration takes its coefficients from lam and the
        interval [lam, 1 + lam]; there is no step size to set."""
        with pytest.raises(TypeError):
            AdmmConfig(lam=1.0, step_size=0.5)

    @pytest.mark.parametrize("dtype, counts", [
        (np.complex64, {0.1: 27, 0.5: 13, 1.0: 10, 2.0: 8}),
        (np.complex128, {0.1: 60, 0.5: 28, 1.0: 21, 2.0: 17}),
    ])
    def test_inner_iterations_stop_at_the_dtype_round_off(self, dtype, counts):
        """With no cap, a solve runs k_u iterations, the least k with
        T_k(1 + 2 lam) * eps >= 1; the static and dynamic counts (14 and 8 at
        lam 0.1) stay below it in complex64, and lam 1 stops at 10."""
        for lam, k_u in counts.items():
            assert len(chebyshev_values(1000, lam, dtype)) - 1 == k_u
            assert len(chebyshev_values(k_u + 1, lam, dtype)) - 1 == k_u
            assert len(chebyshev_values(k_u - 1, lam, dtype)) - 1 == k_u - 1
        assert len(chebyshev_values(14, 0.1, dtype)) - 1 == 14
        assert len(chebyshev_values(8, 0.1, dtype)) - 1 == 8

    @settings(max_examples=200, deadline=None)
    @given(inner=st.integers(1, 80), lam=st.floats(1e-3, 1e3),
           dtype=st.sampled_from([np.complex64, np.complex128]))
    def test_inner_iterations_are_the_least_past_round_off_or_the_cap(self, inner, lam, dtype):
        """chebyshev_values gives T_0 .. T_K at sigma = 1 + 2 lam, and K is the
        least k with T_k * eps >= 1, or inner_iters if that comes first."""
        tau, eps = chebyshev_values(inner, lam, dtype), np.finfo(dtype).eps
        k = len(tau) - 1
        sigma = 1 + 2 * lam
        want = np.cosh(np.arange(k + 1) * np.arccosh(sigma))
        assert np.allclose(tau, want, rtol=1e-9, atol=0)
        assert 1 <= k <= inner and all(t * eps < 1 for t in tau[:-1])
        assert k == inner or tau[-1] * eps >= 1

    def test_identity_denoiser_requires_zero_strength(self):
        with pytest.raises(ValueError):
            DenoiserSpec(kind="identity", strength=0.5)

    @pytest.mark.parametrize("strength", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", ["l1-soft-threshold", "tikhonov-smooth", "tv-chambolle"])
    def test_strength_must_be_finite_and_nonnegative(self, kind, strength):
        with pytest.raises(ValueError, match="strength"):
            DenoiserSpec(kind=kind, strength=strength)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_lam_must_be_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match="lam must be"):
            AdmmConfig(lam=lam)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DenoiserSpec(kind="wavelet")

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: AdmmConfig(T=-1), "T must be >= 0"),
            (lambda: AdmmConfig(inner_iters=0), "inner_iters must be >= 1"),
        ],
        ids=["T=-1", "inner_iters=0"],
    )
    def test_counts_below_their_minimum_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: AdmmConfig(inner_iters=2.5),
            lambda: AdmmConfig(T=1.5),
            lambda: AdmmConfig(T=2.0),
            lambda: AdmmConfig(T="3"),
        ],
        ids=["inner_iters=2.5", "T=1.5", "T=2.0", "T='3'"],
    )
    def test_counts_must_be_integers(self, make):
        """A count that operator.index refuses raises ValueError at
        construction, before any solve builds its operator."""
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    def test_numpy_integer_counts_accepted(self, rng):
        spec = DenoiserSpec("tv-chambolle", 1e-3)
        cfg = AdmmConfig(T=np.int64(2), inner_iters=np.int32(3), denoiser=spec)
        sens = random_sens(rng, 2, 8, 8)
        y = KSpaceData(rand_image(rng, 2, 1, 8, 8))
        want = AdmmConfig(T=2, inner_iters=3, denoiser=spec)
        got = admm_reconstruct(y, full_mask(8, 8), sens, cfg).data
        assert got.tobytes() == admm_reconstruct(y, full_mask(8, 8), sens, want).data.tobytes()

    def test_for_mode_defaults_and_overrides(self):
        static = AdmmConfig.for_mode("static")
        assert (static.T, static.inner_iters) == (16, 14)
        dyn = AdmmConfig.for_mode("dynamic", T=None, inner_iters=3, lam=0.5)
        assert (dyn.T, dyn.inner_iters, dyn.lam) == (10, 3, 0.5)
        with pytest.raises(ValueError):
            AdmmConfig.for_mode("cine")


class TestZeroFilledInit:
    @pytest.mark.parametrize(
        "solve",
        [zero_filled_init, lambda y, mask, sens: admm_reconstruct(y, mask, sens, AdmmConfig(T=1))],
        ids=["zero_filled_init", "admm_reconstruct"],
    )
    @pytest.mark.parametrize("shape", [(2, 1, 4, 4), (2, 1, 8, 4), (3, 1, 8, 8), (1, 1, 8, 8)])
    def test_kspace_must_match_mask_grid_and_coils(self, rng, solve, shape):
        sens = random_sens(rng, 2, 8, 8)
        y = KSpaceData(rand_image(rng, *shape))
        with pytest.raises(ValueError, match="k-space dimensions do not match"):
            solve(y, full_mask(8, 8), sens)

    def test_full_sampling_recovers_truth_on_support(self):
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 4, 0)
        x0 = zero_filled_init(ksp, full_mask(32, 32), sens)
        assert np.allclose(x0.data, img.data, atol=1e-9)

    def test_zero_data_gives_zero(self, rng):
        sens = random_sens(rng, 2, 8, 8)
        y = KSpaceData(np.zeros((2, 1, 8, 8), dtype=complex))
        x0 = zero_filled_init(y, full_mask(8, 8), sens)
        assert np.all(x0.data == 0)

    def test_equals_adjoint_composition(self, rng):
        sens = random_sens(rng, 3, 8, 8)
        mask = make_mask("equispaced", 8, 8, 4, 2)
        op = ForwardOperator(mask=mask, sens=sens)
        y = rand_image(rng, 3, 1, 8, 8)
        x0 = zero_filled_init(KSpaceData(y), mask, sens)
        assert np.allclose(x0.data, op.adjoint_arr(y), atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(sampling.GENERATORS) + ["full"]),
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        n_frames=st.integers(1, 4),
        n_coils=st.integers(1, 3),
        dtype=st.sampled_from([np.complex128, np.complex64]),
        boxed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_2d_adjoint(
        self, scheme, height, width, n_frames, n_coils, dtype, boxed, seed
    ):
        """The start taken from the data-consistency pair, B^H y_dc on a
        rectilinear mask, is A^H y of the 2D operator in y's dtype, on every
        scheme, for maps with full support and maps zero outside a random box
        with holes inside, and for y nonzero off the mask."""
        rng = np.random.default_rng(seed)
        if scheme == "full":
            mask = full_mask(height, width)
        else:
            mask = sampling.make_mask(scheme, height, width, 2, seed, acs_lines=2)
        sens = random_sens(rng, n_coils, height, width, boxed)
        y = rand_image(rng, n_coils, n_frames, height, width).astype(dtype)
        got = zero_filled_init(KSpaceData(y), mask, sens).data
        want = ForwardOperator(mask, sens, y.dtype).adjoint_arr(y)
        assert got.dtype == dtype and got.shape == want.shape
        tol = 1e-12 if dtype == np.complex128 else 1e-6
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_linearity_in_data(self, rng):
        sens = random_sens(rng, 2, 8, 8)
        mask = make_mask("random-rectilinear", 8, 8, 2, 4)
        y = rand_image(rng, 2, 1, 8, 8)
        a = zero_filled_init(KSpaceData(y), mask, sens)
        b = zero_filled_init(KSpaceData(3.0 * y), mask, sens)
        assert np.allclose(b.data, 3.0 * a.data, rtol=1e-12, atol=1e-12)


class TestDenoiseStep:
    def test_identity_returns_input(self, rng):
        v = rand_image(rng, 1, 8, 8)
        assert denoise_step(v, DenoiserSpec(), 1.0) is v

    def test_soft_threshold_values(self):
        v = np.zeros((1, 8, 8), dtype=complex)
        v[0, 0, 0] = 0.3
        v[0, 0, 1] = 2.0 * np.exp(1j * 0.9)
        spec = DenoiserSpec(kind="l1-soft-threshold", strength=0.5)
        out = denoise_step(v, spec, 1.0)
        assert out[0, 0, 0] == 0
        assert abs(out[0, 0, 1]) == pytest.approx(1.5)
        assert np.angle(out[0, 0, 1]) == pytest.approx(0.9)

    def test_tikhonov_matches_dense_solve(self, rng):
        v = rand_image(rng, 1, 8, 8)
        alpha, lam = 0.3, 1.7
        spec = DenoiserSpec(kind="tikhonov-smooth", strength=alpha)
        out = denoise_step(v, spec, lam)
        lap = periodic_laplacian(8, 8)
        expected = np.linalg.solve(alpha * lap + lam * np.eye(64), lam * v.ravel())
        assert np.allclose(out.ravel(), expected, atol=1e-8)

    def test_tv_reduces_total_variation(self, rng):
        v = rand_image(rng, 1, 16, 16)
        spec = DenoiserSpec(kind="tv-chambolle", strength=0.5)
        out = denoise_step(v, spec, 1.0)

        def tv(u):
            return np.abs(np.diff(u, axis=-1)).sum() + np.abs(np.diff(u, axis=-2)).sum()

        assert tv(out.real) < tv(v.real)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        frames=st.integers(1, 2),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        seed=st.integers(0, 2**16),
    )
    def test_tv_on_any_small_grid(self, h, w, frames, dtype, seed):
        """Length-1 axes included: finite, same dtype and shape, the same
        result on the transposed grid, and along a length-1 axis (whose
        gradient is zero) the result of the grid with that axis doubled."""
        v = rand_image(np.random.default_rng(seed), frames, h, w).astype(dtype)
        spec = DenoiserSpec(kind="tv-chambolle", strength=0.3)
        out = denoise_step(v, spec, 0.5)
        assert out.dtype == dtype and out.shape == v.shape
        assert np.isfinite(out).all()
        flipped = denoise_step(v.transpose(0, 2, 1).copy(), spec, 0.5)
        assert np.array_equal(flipped, out.transpose(0, 2, 1))
        for axis in (1, 2):
            if v.shape[axis] == 1:
                doubled = denoise_step(np.repeat(v, 2, axis=axis), spec, 0.5)
                assert np.array_equal(doubled, np.repeat(out, 2, axis=axis))


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    channels=st.integers(1, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_div2_is_negative_adjoint_of_grad2(h, w, channels, dtype, seed):
    """On the flat buffers the TV prox uses: <grad u, p> = -<u, div p> for
    every p with a zero last row in its row part and a zero last column in its
    column part, the duals the TV prox keeps; grad sets each channel's last row
    of its row part and each row's last column of its column part to exactly
    0, and grad and div write every entry of their outputs."""
    rng = np.random.default_rng(seed)
    shape = (channels, h, w)
    u = rng.standard_normal(shape).astype(dtype).ravel()
    p = rng.standard_normal((2,) + shape).astype(dtype)
    p[0, :, -1, :] = 0
    p[1, :, :, -1] = 0
    p = p.reshape(2, -1)
    g = np.full_like(p, np.nan)
    _grad2(u, g, shape)
    assert np.all(g[0].reshape(shape)[:, -1, :] == 0)
    assert np.all(g[1].reshape(shape)[..., -1] == 0)
    d, tmp = np.full_like(u, np.nan), np.full_like(u, np.nan)
    _div2(p, d, tmp, shape)
    assert np.isfinite(g).all() and np.isfinite(d).all()
    lhs = np.sum(g.astype(np.float64) * p)
    rhs = -np.sum(u.astype(np.float64) * d)
    scale = np.abs(g * p).sum(dtype=np.float64) + np.abs(u * d).sum(dtype=np.float64)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    assert abs(lhs - rhs) <= tol * scale


def _tv_prox_reference(v, weight, iterations):
    """Chambolle's iteration as plain expressions, allocating every array anew."""
    if weight == 0:
        return v.copy()
    tau = 0.25

    def grad(u):
        rows = np.concatenate((u[:, 1:] - u[:, :-1], np.zeros_like(u[:, :1])), axis=1)
        cols = np.concatenate((u[..., 1:] - u[..., :-1], np.zeros_like(u[..., :1])), axis=2)
        return np.stack((rows, cols))

    def div(p):
        rows = np.concatenate((p[0][:, :1], p[0][:, 1:] - p[0][:, :-1]), axis=1)
        cols = np.concatenate((p[1][..., :1], p[1][..., 1:] - p[1][..., :-1]), axis=2)
        return rows + cols

    p = np.zeros((2,) + v.shape, dtype=v.dtype)
    for _ in range(iterations):
        g = grad(div(p) - v / weight)
        p = (p + tau * g) / (1 + tau * np.sqrt(g[0] ** 2 + g[1] ** 2))
    return v - weight * div(p)


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    channels=st.integers(1, 3),
    dtype=st.sampled_from([np.float32, np.float64]),
    weight=st.sampled_from([0.0, 1e-3, 0.3]),
    scale=st.sampled_from([1.0, 1e-38]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tv_prox_equals_the_plain_expressions(h, w, channels, dtype, weight, scale, seed):
    """The in-place prox gives the reference's values bit for bit, on odd and
    non-square grids and on inputs near float32's smallest normal number."""
    v = (scale * np.random.default_rng(seed).standard_normal((channels, h, w))).astype(dtype)
    out = _tv_prox_real(v, weight, 5)
    ref = _tv_prox_reference(v, weight, 5)
    assert out.dtype == ref.dtype == dtype and out.shape == v.shape
    assert out.tobytes() == ref.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    channels=st.integers(1, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
    weight=st.sampled_from([0.0, 1e-3, 0.3]),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_tv_prox_resumes_from_its_dual(h, w, channels, dtype, weight, k, seed):
    """Two k-iteration calls on the same v that share the dual p give, byte for
    byte, one 2k-iteration call from zero, and leave in p that call's final
    dual: the warm start runs the same operations in the same order."""
    v = np.random.default_rng(seed).standard_normal((channels, h, w)).astype(dtype)
    p = np.zeros((2, v.size), dtype)
    _tv_prox_real(v, weight, k, p)
    warm = _tv_prox_real(v, weight, k, p)
    cold = _tv_prox_real(v, weight, 2 * k)
    cold_p = np.zeros_like(p)
    assert _tv_prox_real(v, weight, 2 * k, cold_p).tobytes() == cold.tobytes()
    assert warm.dtype == cold.dtype == dtype
    assert warm.tobytes() == cold.tobytes()
    assert p.tobytes() == cold_p.tobytes()


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_denoise_step_resumes_each_frame_from_its_dual(rng, dtype):
    """Two tv-chambolle steps that share the dual give, byte for byte, each
    frame's prox of 2 * TV_ITERATIONS dual steps from zero."""
    v = rand_image(rng, 2, 9, 7).astype(dtype)
    spec, lam = DenoiserSpec("tv-chambolle", 0.3), 0.5
    dual = np.zeros((2, 2, 2 * 9 * 7), v.real.dtype)
    denoise_step(v, spec, lam, dual)
    warm = denoise_step(v, spec, lam, dual)
    for t in range(2):
        re, im = _tv_prox_real(np.stack((v[t].real, v[t].imag)), spec.strength / lam,
                               2 * solver.TV_ITERATIONS)
        assert warm[t].tobytes() == (re + 1j * im).tobytes()


class TestDataConsistency:
    def _instance(self, rng, h=6, w=6, n_coils=1, scheme="equispaced"):
        sens = random_sens(rng, n_coils, h, w)
        mask = make_mask(scheme, h, w, 2, 5)
        return ForwardOperator(mask=mask, sens=sens)

    def test_stationary_point_is_fixed(self, rng):
        op = self._instance(rng)
        x = rand_image(rng, 1, 6, 6)
        y = op.apply_arr(x)
        cfg = AdmmConfig(T=1, inner_iters=10, lam=1.0)
        out = data_consistency_step(x, x, np.zeros_like(x), GradientSteps(op, y, cfg))
        assert np.allclose(out, x, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        op = self._instance(rng)
        x = rand_image(rng, 1, 6, 6)
        w = rand_image(rng, 1, 6, 6)
        m = rand_image(rng, 1, 6, 6)
        y = rand_image(rng, 1, 1, 6, 6)
        lam = 0.8
        g = dc_gradient(x, w, m, y, op, lam)
        h = 1e-5
        for idx in [(0, 0, 0), (0, 3, 2), (0, 5, 5)]:
            for direction, part in ((1.0, "real"), (1.0j, "imag")):
                xp = x.copy()
                xm = x.copy()
                xp[idx] += h * direction
                xm[idx] -= h * direction
                fd = (
                    dc_objective(xp, w, m, y, op, lam)
                    - dc_objective(xm, w, m, y, op, lam)
                ) / (2 * h)
                comp = g[idx].real if part == "real" else g[idx].imag
                assert fd == pytest.approx(comp, rel=1e-6, abs=1e-9)

    def test_converges_to_normal_equation_solution(self, rng):
        op = self._instance(rng)
        x0 = rand_image(rng, 1, 6, 6)
        w = rand_image(rng, 1, 6, 6)
        m = rand_image(rng, 1, 6, 6)
        y = rand_image(rng, 1, 1, 6, 6)
        lam = 1.0
        cfg = AdmmConfig(T=1, inner_iters=500, lam=lam)
        out = data_consistency_step(x0, w, m, GradientSteps(op, y, cfg))
        amat = dense_forward_matrix(op, 6, 6)
        rhs = amat.conj().T @ y.ravel() + lam * (w - m / lam).ravel()
        expected = np.linalg.solve(
            amat.conj().T @ amat + lam * np.eye(36), rhs
        )
        assert np.allclose(out.ravel(), expected, atol=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(
        scheme=st.sampled_from(RECTILINEAR_SCHEMES),
        height=st.integers(3, 24),
        width=st.integers(3, 24),
        frames=st.integers(1, 3),
        n_coils=st.integers(1, 3),
        inner=st.integers(1, 5),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        boxed=st.booleans(),
        rows_per_block=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_row_gram_steps_equal_the_column_steps(
        self, scheme, height, width, frames, n_coils, inner, dtype, boxed, rows_per_block, seed
    ):
        """RowGramSteps runs the same iterate as GradientSteps on the
        column-DFT operator, to the round-off of its dtype, from a start off
        the solution and data on the mask, on odd, even and non-square grids
        (whose (row, frame, col) views are transposed), for maps with full
        support and for maps zero outside a random box with holes inside,
        where both run on the support's bounding box and RowGramSteps takes
        g times a scalar off its blocks. Blocks of one or three box rows'
        worth of bytes crop their H_b to the union of their rows' support
        columns, fewer than the box has where the holes leave ragged rows.
        With one inner iteration RowGramSteps never reaches a block matrix:
        both compute x0 - g / (lam + 1/2) from the same dc_gradient g on
        (B, y_dc), so their iterates are the same bytes. One frame is
        included: the path rule counts frames * T * (K - 1), so a single
        frame takes the row Gram path too."""
        rng = np.random.default_rng(seed)
        mask = sampling.make_mask(scheme, height, width, 2, seed, acs_lines=2)
        sens = random_sens(rng, n_coils, height, width, boxed)
        x, wv, m = (rand_image(rng, frames, height, width).astype(dtype) for _ in range(3))
        y = (mask.pattern * rand_image(rng, n_coils, frames, height, width)).astype(dtype)
        cfg = AdmmConfig(T=1, inner_iters=inner, lam=0.3)
        op_dc, y_dc = for_data_consistency(y, mask, sens)
        with pytest.MonkeyPatch.context() as patch:
            if rows_per_block:
                box_width = sens.support[op_dc.box[1:]].shape[1]
                limit = rows_per_block * box_width**2 * np.dtype(dtype).itemsize
                patch.setattr(solver, "GRAM_BLOCK_BYTES", limit)
            dc = RowGramSteps(op_dc, y_dc, cfg)
        got = data_consistency_step(x, wv, m, dc)
        want = data_consistency_step(x, wv, m, GradientSteps(op_dc, y_dc, cfg))
        assert got.dtype == dtype and got.shape == x.shape and got.flags.c_contiguous
        tol = 1e-12 if dtype == np.complex128 else 1e-5
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        if inner == 1:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        scheme=st.sampled_from(RECTILINEAR_SCHEMES),
        height=st.integers(3, 24),
        width=st.integers(3, 24),
        frames=st.integers(1, 3),
        inner=st.integers(1, 6),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        boxed=st.booleans(),
        budget=st.sampled_from(["one row", "some rows", "whole box"]),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_row_gram_blocks_run_the_recurrence_on_their_support_columns(
        self, scheme, height, width, frames, inner, dtype, boxed, budget, data, seed
    ):
        """RowGramSteps splits the box into blocks of consecutive rows, each
        with the union of its rows' support columns, grown while its rows *
        columns**2 * itemsize bytes fit GRAM_BLOCK_BYTES (one row at least),
        and leaves out rows with no support. It runs all inner iterations on
        one block before the next, so its output is, byte for byte, that of the
        Chebyshev recurrence written out below on each block's H_b; off the
        blocks H is lam I, and e is g times the same recurrence on a scalar.
        That stays within round-off of the uncropped loop over the whole box.
        Budgets of one row per block, of a few rows (unions that grow and
        ragged last blocks) and of the whole box are drawn."""
        rng = np.random.default_rng(seed)
        mask = sampling.make_mask(scheme, height, width, 2, seed, acs_lines=2)
        sens = random_sens(rng, 2, height, width, boxed)
        x, wv, m = (rand_image(rng, frames, height, width).astype(dtype) for _ in range(3))
        y = (mask.pattern * rand_image(rng, 2, frames, height, width)).astype(dtype)
        op_dc, y_dc = for_data_consistency(y, mask, sens)
        box, lam = op_dc.box, 0.3
        support, item = sens.support[box[1:]], np.dtype(dtype).itemsize
        whole = len(support) * np.count_nonzero(support.any(axis=0)) ** 2 * item
        limit = {"one row": 1, "whole box": whole,
                 "some rows": data.draw(st.integers(1, max(whole, 1)))}[budget]
        cfg = AdmmConfig(T=1, inner_iters=inner, lam=lam)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "GRAM_BLOCK_BYTES", limit)
            dc = RowGramSteps(op_dc, y_dc, cfg)
        done = 0
        for rows, cols, h in dc.blocks:
            assert not support[done : rows.start].any()
            union = support[rows].any(axis=0)
            assert np.array_equal(cols, np.flatnonzero(union)) and cols.size
            n = rows.stop - rows.start
            assert h.shape == (n, cols.size, cols.size)
            assert n == 1 or n * cols.size**2 * item <= limit
            if rows.stop < len(support):
                grown = np.count_nonzero(union | support[rows.stop])
                assert (n + 1) * grown**2 * item > limit
            done = rows.stop
        assert not support[done:].any()
        if budget == "whole box" and support.any():
            assert len(dc.blocks) == 1
        got = dc.descend(x, wv, m)

        tau = chebyshev_values(inner, lam, dtype)
        coefs = [(tau[k - 1] / tau[k + 1], 4 * tau[k] / tau[k + 1]) for k in range(1, len(tau) - 1)]

        def recurrence(g, matmul):
            e = d = 2 / tau[1] * g
            for a, b in coefs:
                d = a * d + b * (g - matmul(e))
                e = e + d
            return e

        g = dc_gradient(x, wv, m, y_dc, op_dc, lam)
        want = g.copy()
        rows_first = want[box].transpose(1, 0, 2)
        off = recurrence(1.0, lambda e: lam * e)
        want *= off
        for rows, cols, h in dc.blocks:
            gb = np.take(g[box].transpose(1, 0, 2)[rows], cols, axis=2)
            rows_first[rows][:, :, cols] = recurrence(gb, lambda e: e @ h)
        assert got.dtype == dtype and got.tobytes() == (x - want).tobytes()

        whole_box = op_dc.row_gram() + lam * np.eye(support.shape[1])
        uncropped = g * off
        uncropped[box] = recurrence(g[box].transpose(1, 0, 2),
                                    lambda e: e @ whole_box).transpose(1, 0, 2)
        tol = 1e-12 if dtype == np.complex128 else 1e-5
        assert np.abs(got - (x - uncropped)).max() <= tol * np.abs(x - uncropped).max()

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_one_frame_whole_grid_row_gram_solve_equals_the_column_path(
        self, monkeypatch, gram_steps, dtype
    ):
        """With one frame and maps nonzero on the whole grid, the box's
        (row, frame, col) views of g and of e = g * factor cover the whole
        arrays, so a block read from e in place of g would be off by about
        1 / lam. RowGramSteps reads each block from g: a solve at the static
        defaults with lam 0.1 on the row Gram path equals the column-DFT solve
        to the round-off of its dtype."""
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 4, 0)
        assert sens.support.all()
        mask = make_mask("equispaced", 32, 32, 4, 1)
        y = KSpaceData((mask.pattern * ksp.data).astype(dtype))
        cfg = AdmmConfig(lam=0.1, denoiser=DenoiserSpec("l1-soft-threshold", 1e-3))
        gram = admm_reconstruct(y, mask, sens, cfg).data
        assert len(gram_steps) == 1
        monkeypatch.setattr("mcrecon.solver.GRAM_MIN_ITERS", 10**9)
        column = admm_reconstruct(y, mask, sens, cfg).data
        assert len(gram_steps) == 1
        tol = 1e-12 if dtype == np.complex128 else 1e-6
        assert np.abs(gram - column).max() <= tol * np.abs(column).max()

    @pytest.mark.parametrize("scheme", ["equispaced", "gaussian2d"])
    def test_stopped_complex64_steps_match_the_full_count(self, rng, monkeypatch, scheme):
        """At lam 1 a complex64 solve stops at 10 of 40 inner iterations, where
        the error bound 1 / T_10(3) is below float32 round-off. The stopped
        step, on the row Gram path (equispaced) and the point path
        (gaussian2d), is within 1e-6 * max of 40 iterations of the recurrence
        written out below in complex128."""
        sens = random_sens(rng, 4, 24, 24, boxed=True)
        mask = make_mask(scheme, 24, 24, 4, 1)
        x, w, m = (rand_image(rng, 2, 24, 24) for _ in range(3))
        y = mask.pattern * rand_image(rng, 4, 2, 24, 24)
        lam, cfg = 1.0, AdmmConfig(T=1, inner_iters=40, lam=1.0)
        op, y_dc = for_data_consistency(y.astype(np.complex64), mask, sens)
        dc = (RowGramSteps if isinstance(op, ColumnOperator) else GradientSteps)(op, y_dc, cfg)
        assert dc.iters == 10
        got = dc.descend(*(v.astype(np.complex64) for v in (x, w, m)))

        op, y_dc = for_data_consistency(y, mask, sens)
        theta, delta, sigma = lam + 0.5, 0.5, 1 + 2 * lam
        g = dc_gradient(x, w, m, y_dc, op, lam)
        rho, e = 1 / sigma, g / theta
        d = e.copy()
        for _ in range(1, 40):
            r = g - (op.adjoint_arr(op.apply_arr(e)) + lam * e)
            rho, prev = 1 / (2 * sigma - rho), rho
            d = rho * prev * d + 2 * rho / delta * r
            e = e + d
        want = x - e
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize(
        "scheme, frames, gram_iters",
        [("gaussian2d", 1, GRAM_MIN_ITERS), ("equispaced", 1, GRAM_MIN_ITERS - 1),
         ("equispaced", 1, GRAM_MIN_ITERS), ("equispaced", 4, GRAM_MIN_ITERS)],
    )
    def test_objective_nonincreasing(self, rng, scheme, frames, gram_iters):
        """Each call of the solve's data-consistency object lowers the
        objective on the point path (A, y), the column path (B, y_dc, below
        GRAM_MIN_ITERS Gram iterations) and the row Gram path (from
        GRAM_MIN_ITERS, on one frame and on several), whose iterate is scored
        on (B, y_dc)."""
        for trial in range(10):
            op = self._instance(rng, n_coils=2, scheme=scheme)
            x = rand_image(rng, frames, 6, 6)
            w = rand_image(rng, frames, 6, 6)
            m = rand_image(rng, frames, 6, 6)
            y = rand_image(rng, 2, frames, 6, 6)
            lam = 1.0
            cfg = AdmmConfig(T=1, inner_iters=3, lam=lam)
            op_dc, y_dc = for_data_consistency(y, op.mask, op.sens)
            column = isinstance(op_dc, ColumnOperator)
            assert column == (scheme != "gaussian2d")
            gram = column and gram_iters >= GRAM_MIN_ITERS
            dc = (RowGramSteps if gram else GradientSteps)(op_dc, y_dc, cfg)
            prev = dc_objective(x, w.copy(), m, y_dc, op_dc, lam)
            cur = x
            for _ in range(10):
                cur = data_consistency_step(cur, w, m, dc)
                obj = dc_objective(cur, w, m, y_dc, op_dc, lam)
                assert obj <= prev + 1e-10
                prev = obj


def pairwise_norm(v):
    """|v| as the per-step stop takes it: numpy's pairwise sum of the squared
    real view, then the square root."""
    return math.sqrt(np.sum(np.square(v.view(v.real.dtype))))


def least_stop(g, x0, lam, inner, dtype):
    """The least k in 1 .. K with |g| <= lam * eps * T_k(1 + 2 lam) * |x0|, or
    K = len(chebyshev_values) - 1 when none qualifies or |x0| is 0 or not
    finite."""
    tau, eps = chebyshev_values(inner, lam, dtype), float(np.finfo(dtype).eps)
    norm_g, norm_x = pairwise_norm(g), pairwise_norm(x0)
    qualify = [k for k in range(1, len(tau)) if norm_g <= lam * eps * tau[k] * norm_x]
    return qualify[0] if qualify and 0 < norm_x < math.inf else len(tau) - 1


def recording_stops(dc):
    """Make ``dc`` append (k_t, the bytes of the g it was taken from) for each
    outer step to the returned list."""
    picks, stop = [], dc.stop
    dc.stop = lambda g, x0: picks.append((stop(g, x0), g.tobytes())) or picks[-1][0]
    return picks


class TestPerStepStop:
    @settings(max_examples=300, deadline=None)
    @given(
        lam=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        inner=st.integers(1, 30),
        ratio=st.one_of(st.just(0.0), st.floats(-20, 1).map(lambda p: 10.0**p),
                        st.just(math.nan)),
        zero_start=st.booleans(),
        size=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    def test_a_step_runs_the_least_k_whose_bound_is_under_round_off(
        self, lam, dtype, inner, ratio, zero_start, size, seed
    ):
        """k_t is the least k in 1 .. K with |g| <= lam eps T_k(1 + 2 lam) |x0|,
        for |g| / |x0| from 0 to 10, and K, the cap of chebyshev_values, when
        no k qualifies, when g holds NaN and when x0 = 0."""
        rng = np.random.default_rng(seed)
        op = ForwardOperator(mask=full_mask(4, 4), sens=random_sens(rng, 1, 4, 4), dtype=dtype)
        cfg = AdmmConfig(T=1, inner_iters=inner, lam=lam)
        dc = GradientSteps(op, np.zeros((1, 1, 4, 4), dtype), cfg)
        x0 = rand_image(rng, size) * (0 if zero_start else 1)
        g = rand_image(rng, size)
        g *= ratio * (np.linalg.norm(x0) if not zero_start else 1) / np.linalg.norm(g)
        x0, g = x0.astype(dtype), g.astype(dtype)
        want = least_stop(g, x0, lam, inner, dtype)
        assert dc.stop(g, x0) == want
        assert 1 <= want <= dc.iters == len(chebyshev_values(inner, lam, dtype)) - 1
        if zero_start or math.isnan(ratio):
            assert want == dc.iters

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_gradient_on_the_bound_stops_there(self, rng, dtype, lam, k):
        """The bound holds with equality: for |x0| = 1 and |g| exactly
        lam eps T_k(1 + 2 lam) (an integer times a power of two here, so that
        its square and root are exact) the step stops at k, not k + 1."""
        op = ForwardOperator(mask=full_mask(4, 4), sens=random_sens(rng, 1, 4, 4), dtype=dtype)
        dc = GradientSteps(op, np.zeros((1, 1, 4, 4), dtype), AdmmConfig(T=1, lam=lam))
        tau = chebyshev_values(14, lam, dtype)
        assert k < dc.iters and tau[k] == int(tau[k])
        g = np.array([lam * np.finfo(dtype).eps * tau[k]], dtype)
        assert dc.stop(g, np.ones(1, dtype)) == k

    def test_norms_are_numpy_pairwise_sums_not_blas_dots(self, rng):
        """Both norms are numpy's pairwise sums, so k_t cannot depend on how a
        BLAS splits a dot product across its threads: for a g whose pairwise
        and BLAS norms differ, and an x0 that puts the k = 2 bound between
        them, the step stops where the pairwise norm says."""
        lam, dtype = 1.0, np.complex64
        op = ForwardOperator(mask=full_mask(4, 4), sens=random_sens(rng, 1, 4, 4), dtype=dtype)
        dc = GradientSteps(op, np.zeros((1, 1, 4, 4), dtype), AdmmConfig(T=1, lam=lam))
        tau, eps = chebyshev_values(14, lam, dtype), float(np.finfo(dtype).eps)
        for _ in range(20):
            g = rand_image(rng, 1, 256, 256).astype(dtype)
            pairwise, blas = pairwise_norm(g), float(np.linalg.norm(g))
            if pairwise != blas:
                break
        assert pairwise != blas
        x0 = np.array([(pairwise + blas) / 2 / (lam * eps * tau[2])])
        want = least_stop(g, x0, lam, 14, dtype)
        assert want == (2 if pairwise < blas else 3)
        assert dc.stop(g, x0) == want

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.sampled_from([0.5, 1.0, 2.0]),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        scale=st.floats(-12, 0).map(lambda p: 10.0**p),
        boxed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_column_and_row_gram_paths_stop_alike(self, lam, dtype, scale, boxed, seed):
        """On one ColumnOperator the column path (GradientSteps) and the row
        Gram path take the same g at the same x0 and pick the same k_t, the
        least k under round-off, before either scales or negates g. m sets
        |g| to about scale * |x0|, so the steps stop anywhere from the first
        iteration to the cap. At lam 1 their iterates agree within
        1e-6 * max."""
        rng = np.random.default_rng(seed)
        sens = random_sens(rng, 4, 16, 16, boxed)
        mask = make_mask("equispaced", 16, 16, 4, 1)
        x, w = (rand_image(rng, 1, 16, 16).astype(dtype) for _ in range(2))
        y = (mask.pattern * rand_image(rng, 4, 1, 16, 16)).astype(dtype)
        op, y_dc = for_data_consistency(y, mask, sens)
        target = rand_image(rng, 1, 16, 16)
        target *= scale * np.linalg.norm(x) / np.linalg.norm(target)
        m = (target - dc_gradient(x, w, 0, y_dc, op, lam)).astype(dtype)
        cfg = AdmmConfig(T=1, inner_iters=14, lam=lam)
        column, gram = GradientSteps(op, y_dc, cfg), RowGramSteps(op, y_dc, cfg)
        picks = [recording_stops(dc) for dc in (column, gram)]
        outs = [dc.descend(x, w, m) for dc in (column, gram)]
        assert picks[0] == picks[1] and len(picks[0]) == 1
        (k, g_bytes), = picks[0]
        g = dc_gradient(x, w, m, y_dc, op, lam)
        assert g_bytes == g.tobytes() and k == least_stop(g, x, lam, 14, dtype)
        if lam == 1.0:
            assert np.abs(outs[0] - outs[1]).max() <= 1e-6 * np.abs(outs[0]).max()

    def test_stopped_complex64_point_mask_solve_matches_complex128(self):
        """A complex64 solve at lam 1 on a gaussian2d mask stops most outer
        steps short of their K = 10 iterations, and stays within 1e-6 * max of
        the complex128 solve written out below with 40 Chebyshev iterations
        per step."""
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 4, 0)
        mask = make_mask("gaussian2d", 32, 32, 4, 7)
        y = (mask.pattern * ksp.data).astype(np.complex64)
        lam, spec = 1.0, DenoiserSpec("tikhonov-smooth", 1e-3)
        cfg = AdmmConfig(lam=lam, denoiser=spec)
        picks, stop = [], GradientSteps.stop
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GradientSteps, "stop",
                          lambda dc, g, x0: picks.append(stop(dc, g, x0)) or picks[-1])
            got = admm_reconstruct(KSpaceData(y), mask, sens, cfg).data
        assert len(chebyshev_values(cfg.inner_iters, lam, np.complex64)) == 11
        assert len(picks) == cfg.T and max(picks) <= 10 and sum(k < 10 for k in picks) > cfg.T // 2

        y = y.astype(np.complex128)
        op = ForwardOperator(mask=mask, sens=sens, dtype=np.complex128)
        sigma = 1 + 2 * lam
        x = w = op.adjoint_arr(y)
        m = np.zeros_like(x)
        for _ in range(cfg.T):
            w = denoise_step(x + m / lam, spec, lam)
            g = dc_gradient(x, w, m, y, op, lam)
            rho, e = 1 / sigma, g / (lam + 0.5)
            d = e.copy()
            for _ in range(1, 40):
                r = g - (op.adjoint_arr(op.apply_arr(e)) + lam * e)
                rho, prev = 1 / (2 * sigma - rho), rho
                d = rho * prev * d + 4 * rho * r
                e = e + d
            x = x - e
            m = m + lam * (x - w)
        assert np.abs(got - x).max() <= 1e-6 * np.abs(x).max()


class TestMultiplierUpdate:
    def test_no_gap_no_change(self, rng):
        x = rand_image(rng, 1, 4, 4)
        m = rand_image(rng, 1, 4, 4)
        out = multiplier_update(m, x, x, 2.0)
        assert np.allclose(out, m, atol=1e-15)

    def test_constant_gap(self):
        ones = np.ones((1, 4, 4), dtype=complex)
        zeros = np.zeros((1, 4, 4), dtype=complex)
        out = multiplier_update(zeros, ones, zeros, 2.0)
        assert np.allclose(out, 2.0)

    def test_matches_scalar_oracle(self, rng):
        m = rand_image(rng, 1, 4, 4)
        x = rand_image(rng, 1, 4, 4)
        w = rand_image(rng, 1, 4, 4)
        lam = 0.7
        out = multiplier_update(m, x, w, lam)
        for idx in np.ndindex(1, 4, 4):
            assert out[idx] == pytest.approx(m[idx] + lam * (x[idx] - w[idx]))


class TestAdmmReconstruct:
    def test_t0_returns_zero_filled(self, rng):
        sens = random_sens(rng, 2, 8, 8)
        mask = make_mask("equispaced", 8, 8, 2, 1)
        y = KSpaceData(rand_image(rng, 2, 1, 8, 8))
        cfg = AdmmConfig(T=0, inner_iters=1)
        out = admm_reconstruct(y, mask, sens, cfg)
        zf = zero_filled_init(y, mask, sens)
        assert np.array_equal(out.data, zf.data)

    def test_fully_sampled_identity_denoiser_recovers_truth(self):
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 4, 0)
        cfg = AdmmConfig(T=16, inner_iters=14, lam=1.0)
        out = admm_reconstruct(ksp, full_mask(32, 32), sens, cfg)
        assert np.allclose(out.data, img.data, atol=1e-6)

    def test_deterministic(self):
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 2, 0)
        mask = make_mask("equispaced", 32, 32, 4, 1)
        y = KSpaceData(mask.pattern * ksp.data)
        cfg = AdmmConfig(T=4, inner_iters=4)
        a = admm_reconstruct(y, mask, sens, cfg)
        b = admm_reconstruct(y, mask, sens, cfg)
        assert np.array_equal(a.data, b.data)

    def test_tv_dual_is_one_array_per_solve(self, monkeypatch):
        """A tv-chambolle solve passes one real (frame, 2, 2*rows*cols) array,
        zero at the first outer step and updated in place, to every
        denoise_step call, and a new one to each solve, so two solves in a row
        give the same bytes; other denoisers get None."""
        img = dynamic_phantom(16, 3)
        sens, ksp = simulate_coils(img, 2, 0)
        mask = make_mask("equispaced", 16, 16, 2, 1)
        y = KSpaceData((mask.pattern * ksp.data).astype(np.complex64))
        duals = []

        def recording(v, spec, lam, dual=None):
            duals.append((dual, None if dual is None else dual.copy()))
            return denoise_step(v, spec, lam, dual)

        monkeypatch.setattr("mcrecon.solver.denoise_step", recording)
        cfg = AdmmConfig(T=3, inner_iters=4, lam=0.1,
                         denoiser=DenoiserSpec(kind="tv-chambolle", strength=1e-3))
        first, second = (admm_reconstruct(y, mask, sens, cfg).data for _ in range(2))
        assert first.tobytes() == second.tobytes()
        assert len(duals) == 6
        for solve in (duals[:3], duals[3:]):
            dual, at_start = solve[0]
            assert dual.shape == (3, 2, 2 * 16 * 16) and dual.dtype == np.float32
            assert not at_start.any() and dual.any()
            assert all(d is dual for d, _ in solve)
            assert not np.array_equal(solve[1][1], solve[2][1])
        assert duals[0][0] is not duals[3][0]
        duals.clear()
        admm_reconstruct(y, mask, sens, AdmmConfig(
            T=2, inner_iters=4, denoiser=DenoiserSpec(kind="l1-soft-threshold", strength=1e-3)))
        assert duals == [(None, None), (None, None)]

    def test_consensus_gap_shrinks(self, monkeypatch):
        """||x - w|| after the last of 16 outer steps is below its value after
        the first, read at each multiplier update."""
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 4, 0)
        mask = make_mask("equispaced", 32, 32, 2, 1)
        y = KSpaceData(mask.pattern * ksp.data)
        gaps = []

        def recording(m, x_new, w_new, lam):
            gaps.append(np.linalg.norm(x_new - w_new))
            return multiplier_update(m, x_new, w_new, lam)

        monkeypatch.setattr("mcrecon.solver.multiplier_update", recording)
        admm_reconstruct(y, mask, sens, AdmmConfig(T=16, inner_iters=14))
        assert len(gaps) == 16
        assert gaps[-1] < gaps[0]

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("frames", [1, 3])
    @pytest.mark.parametrize("support", ["empty", "first row", "last row", "first column",
                                         "last column"])
    @pytest.mark.parametrize("kind", ["l1-soft-threshold", "tikhonov-smooth"])
    @pytest.mark.parametrize("path", ["column", "row Gram"])
    def test_edge_supports_solve_like_the_uncropped_operator(
        self, rng, monkeypatch, gram_steps, path, kind, support, frames, dtype
    ):
        """The column-DFT and row Gram paths crop to the bounding box of the
        maps' support. All-zero maps (a valid SensitivityMaps, whose solve is
        0; on the row Gram path they leave no block, so only the scalar factor
        off the blocks runs) and maps nonzero on one edge row or one edge
        column give the solve on A and y over the whole grid (the 2D FFT
        path). The Tikhonov prox smooths w onto the rest of the grid, so
        there the iterate is not zero and the factor off the blocks shows."""
        if path == "row Gram":
            monkeypatch.setattr("mcrecon.solver.GRAM_MIN_ITERS", 1)
        h, w, coils = 12, 10, 2
        maps = np.zeros((coils, h, w), complex)
        line = {"empty": np.s_[:, :0], "first row": np.s_[:, 0], "last row": np.s_[:, -1],
                "first column": np.s_[:, :, 0], "last column": np.s_[:, :, -1]}[support]
        maps[line] = rand_image(rng, *maps[line].shape)
        maps[line] /= np.sqrt(np.sum(np.abs(maps[line]) ** 2, axis=0))
        sens = SensitivityMaps(maps)
        mask = make_mask("equispaced", h, w, 2, 1)
        y = KSpaceData((mask.pattern * rand_image(rng, coils, frames, h, w)).astype(dtype))
        spec = DenoiserSpec(kind=kind, strength=1e-2)
        cfg = AdmmConfig(T=3, inner_iters=4, lam=0.3, denoiser=spec)
        got = admm_reconstruct(y, mask, sens, cfg).data
        assert len(gram_steps) == (path == "row Gram")
        if gram_steps and support == "empty":
            assert gram_steps[0].blocks == []
        monkeypatch.setattr("mcrecon.solver.for_data_consistency",
                            lambda y, mask, sens: (ForwardOperator(mask, sens, y.dtype), y))
        want = admm_reconstruct(y, mask, sens, cfg).data
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        if support == "empty":
            assert not got.any() and not want.any()
        tol = 1e-12 if dtype == np.complex128 else 1e-6
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_frame_separability(self, monkeypatch, gram_steps):
        """Nothing in the operator or the denoisers couples frames, for l1 and
        TV, on equispaced and random-rectilinear masks, in complex64 and
        complex128. At T = 4 with 6 inner iterations each frame adds 20 Gram
        iterations. On the column-DFT path (the most frames below
        GRAM_MIN_ITERS, and each frame alone) a joint solve equals, bit for
        bit, the solves of each frame alone. On the row Gram path a joint
        solve of twice the fewest frames that reach GRAM_MIN_ITERS equals, bit
        for bit, the joint solves of each half, and is within 1e-6 * max of
        the column-DFT solve of the same frames."""
        per_frame = 4 * (6 - 1)
        few, half = (GRAM_MIN_ITERS - 1) // per_frame, -(-GRAM_MIN_ITERS // per_frame)
        gram = 2 * half
        img = dynamic_phantom(32, gram)
        sens, ksp = simulate_coils(img, 2, 3)
        for kind, scheme, dtype in itertools.product(
            ["l1-soft-threshold", "tv-chambolle"],
            ["equispaced", "random-rectilinear"],
            [np.complex64, np.complex128],
        ):
            mask = make_mask(scheme, 32, 32, 2, 2)
            y = (mask.pattern * ksp.data).astype(dtype)
            spec = DenoiserSpec(kind=kind, strength=1e-3)
            cfg = AdmmConfig(T=4, inner_iters=6, denoiser=spec)

            def solve(frames):
                return admm_reconstruct(KSpaceData(y[:, frames]), mask, sens, cfg).data

            joint = solve(slice(0, few))
            assert joint.dtype == dtype
            for t in range(few):
                single = solve(slice(t, t + 1))
                assert np.array_equal(joint[t], single[0]), (kind, scheme, dtype, t)
            assert gram_steps == []

            joint = solve(slice(0, gram))
            assert joint.dtype == dtype
            halves = [solve(slice(0, half)), solve(slice(half, gram))]
            assert len(gram_steps) == 3
            assert np.array_equal(joint, np.concatenate(halves)), (kind, scheme, dtype)
            with monkeypatch.context() as patch:
                patch.setattr("mcrecon.solver.GRAM_MIN_ITERS", gram * per_frame + 1)
                column = solve(slice(0, gram))
            assert len(gram_steps) == 3
            gram_steps.clear()
            assert np.abs(joint - column).max() <= 1e-6 * np.abs(column).max()


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("scheme", ["equispaced", "gaussian2d"])
def test_operator_and_denoisers_neither_mutate_nor_alias(rng, scheme, dtype):
    """apply_arr, adjoint_arr (2D FFT path on gaussian2d, column-DFT path on
    equispaced) and every denoiser but identity leave their input as it was
    and return a fresh array, so callers may modify it in place."""
    sens = random_sens(rng, 3, 12, 10)
    mask = make_mask(scheme, 12, 10, 2, 1)
    op, _ = for_data_consistency(np.zeros((3, 2, 12, 10), dtype), mask, sens)
    x = rand_image(rng, 2, 12, 10).astype(dtype)
    r = op.apply_arr(x).copy()
    held = [a for a in vars(op).values() if isinstance(a, np.ndarray)]
    calls = [(op.apply_arr, x), (op.adjoint_arr, r)]
    calls += [
        (lambda v, k=k: denoise_step(v, DenoiserSpec(kind=k, strength=0.1), 0.5), x)
        for k in DENOISER_KINDS
        if k != "identity"
    ]
    for fn, arg in calls:
        before = arg.copy()
        out = fn(arg)
        assert arg.tobytes() == before.tobytes()
        assert out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in [arg, *held])
        want = out.copy()
        out += 1
        again = fn(arg)
        assert not np.shares_memory(again, out)
        assert again.tobytes() == want.tobytes() and arg.tobytes() == before.tobytes()


class TestOperatorCalls:
    @pytest.mark.parametrize("scheme", ["equispaced", "gaussian2d"])
    def test_one_normal_operator_application_per_gradient(self, rng, monkeypatch, scheme):
        """adjoint_arr once per inner iteration plus the zero-filled start,
        apply_arr once per inner iteration, counted on the class as a
        tracer that wraps the methods sees them."""
        calls = {"apply_arr": 0, "adjoint_arr": 0}
        for name, method in [(n, getattr(ForwardOperator, n)) for n in calls]:

            def counted(self, arr, name=name, method=method):
                calls[name] += 1
                return method(self, arr)

            monkeypatch.setattr(ForwardOperator, name, counted)
        sens = random_sens(rng, 2, 16, 16)
        mask = make_mask(scheme, 16, 16, 4, 1)
        y = KSpaceData(mask.pattern * rand_image(rng, 2, 2, 16, 16))
        admm_reconstruct(y, mask, sens, AdmmConfig(T=3, inner_iters=5))
        assert calls == {"apply_arr": 3 * 5, "adjoint_arr": 3 * 5 + 1}

    @pytest.mark.parametrize("frames, inner", [(1, 2), (4, 2), (1, GRAM_MIN_ITERS // 2 + 1)])
    @pytest.mark.parametrize("T", [0, 2])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES + ("full",))
    def test_one_operator_built_per_solve(
        self, rng, monkeypatch, gram_steps, scheme, T, frames, inner
    ):
        """A solve constructs exactly one operator, counted over both classes
        (each construction of a ForwardOperator or a ColumnOperator, however
        its __init__ is reached): the ColumnOperator B on a rectilinear mask,
        the 2D ForwardOperator A on a point mask. The zero-filled start takes
        the adjoint of that operator, at T = 0 and T > 0, on the column path
        (1 and 4 frames with 2 inner iterations) and the row Gram path (one
        frame with GRAM_MIN_ITERS Gram iterations, at lam 0.1, where no inner
        count here reaches the stop)."""
        built = []
        for cls in (ForwardOperator, ColumnOperator):

            def counted(o, *a, init=cls.__init__, **k):
                built.append(o)
                init(o, *a, **k)

            monkeypatch.setattr(cls, "__init__", counted)
        sens = random_sens(rng, 2, 16, 16)
        mask = make_mask(scheme, 16, 16, 4, 1)
        y = KSpaceData(mask.pattern * rand_image(rng, 2, frames, 16, 16))
        admm_reconstruct(y, mask, sens, AdmmConfig(T=T, inner_iters=inner, lam=0.1))
        ops = list({id(o): o for o in built}.values())
        want = ColumnOperator if scheme in RECTILINEAR_SCHEMES else ForwardOperator
        assert [type(o) for o in ops] == [want]
        gram = want is ColumnOperator and frames * T * (inner - 1) >= GRAM_MIN_ITERS
        assert len(gram_steps) == gram

    @pytest.mark.parametrize(
        "frames, T, inner, gram",
        [(1, 16, 14, True), (1, 3, 5, False), (1, 5, 3, False), (12, 10, 1, False),
         (1, GRAM_MIN_ITERS, 2, True), (1, GRAM_MIN_ITERS - 1, 2, False),
         (4, GRAM_MIN_ITERS // 4, 2, True), (4, GRAM_MIN_ITERS // 4 - 1, 2, False),
         (1, 3, 30, False), (1, 4, 30, True)],
    )
    def test_the_row_gram_path_is_chosen_by_the_gram_iterations(
        self, rng, gram_steps, frames, T, inner, gram
    ):
        """A rectilinear solve takes the row Gram path when its Gram
        iterations, frames * T * (inner - 1), reach GRAM_MIN_ITERS, and the
        column path below: one frame at the static defaults (T 16, 14 inner)
        takes it; 3 outer steps of 5 and 5 of 3, and one inner iteration on
        any number of frames, do not; one frame or four frames at the
        threshold take it, and one step fewer does not. The count is of the
        iterations run: at lam 1 a complex128 solve stops at 21 of 30 inner
        iterations, so 3 outer steps make 60 Gram iterations, not 87, and 4
        make 80."""
        sens = random_sens(rng, 2, 16, 16)
        mask = make_mask("equispaced", 16, 16, 4, 1)
        y = KSpaceData(mask.pattern * rand_image(rng, 2, frames, 16, 16))
        admm_reconstruct(y, mask, sens, AdmmConfig(T=T, inner_iters=inner))
        assert len(gram_steps) == gram

    @pytest.mark.parametrize("scheme", ["random-rectilinear", "gaussian2d"])
    def test_t0_returns_the_zero_filled_start_and_builds_no_row_gram_form(
        self, rng, monkeypatch, scheme
    ):
        """T = 0 is the zero-filled reconstruction: it equals zero_filled_init
        byte for byte and does not call ColumnOperator.row_gram, on 4 frames
        of a rectilinear mask (a T > 0 solve at the static defaults takes the
        row Gram path there) and on a point mask."""
        sens = random_sens(rng, 2, 16, 16)
        mask = make_mask(scheme, 16, 16, 4, 1)
        data = mask.pattern * rand_image(rng, 2, 4, 16, 16)
        y = KSpaceData(data.astype(np.complex64))
        want = zero_filled_init(y, mask, sens)
        called = []
        row_gram = ColumnOperator.row_gram
        monkeypatch.setattr(ColumnOperator, "row_gram",
                            lambda op: called.append(op) or row_gram(op))
        got = admm_reconstruct(y, mask, sens, AdmmConfig(T=0))
        assert called == []
        assert got.data.dtype == want.data.dtype == np.complex64
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_row_gram_setup_holds_only_the_cropped_blocks(self, rng, monkeypatch, dtype):
        """Building RowGramSteps for 12 frames of 64x64, with maps zero
        outside a box smaller than the grid both ways and outside a disc in
        it, and blocks of about an eighth of the box, allocates at its peak
        little more than its blocks' H_b, each in the solve's dtype and
        cropped to its rows' support columns, which together hold less than
        the box's N would: no (H', W', W') array, no complex128 N beside a
        complex64 H_b."""
        maps = random_sens(rng, 4, 64, 64).maps.copy()
        maps[:, :6] = maps[:, -5:] = maps[:, :, :9] = maps[:, :, -3:] = 0
        rows, cols = np.mgrid[:64, :64]
        maps[:, np.hypot(rows - 32, cols - 34) > 28] = 0
        sens = SensitivityMaps(maps)
        mask = make_mask("equispaced", 64, 64, 4, 1)
        y = (mask.pattern * rand_image(rng, 4, 12, 64, 64)).astype(dtype)
        op_dc, y_dc = for_data_consistency(y, mask, sens)
        cfg = AdmmConfig.for_mode("dynamic", lam=0.1)
        support = sens.support[op_dc.box[1:]]
        assert support.shape == (64 - 11, 64 - 12)
        box_bytes = support.shape[0] * support.shape[1] ** 2 * np.dtype(dtype).itemsize
        monkeypatch.setattr(solver, "GRAM_BLOCK_BYTES", box_bytes // 8)
        tracemalloc.start()
        try:
            dc = RowGramSteps(op_dc, y_dc, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 0
        for block, cols, h in dc.blocks:
            assert h.dtype == dtype and h.shape == (len(support[block]), cols.size, cols.size)
            held += h.nbytes
        assert len(dc.blocks) >= 8 and held < 0.9 * box_bytes
        assert peak < 1.25 * held

    @pytest.mark.parametrize("frames", [1, 4])
    @pytest.mark.parametrize("scheme", ["equispaced", "random-rectilinear"])
    def test_row_gram_path_calls_the_operator_once_per_outer_step(
        self, rng, monkeypatch, gram_steps, scheme, frames
    ):
        """With GRAM_MIN_ITERS Gram iterations or more on a rectilinear mask,
        for one frame and for several, the inner iterations run on the row
        Gram form: apply_arr T times and adjoint_arr T + 1 times (one gradient
        per outer step and the zero-filled start), and one operator built per
        solve. lam is 0.1, so that the stop (60 iterations in complex128) keeps
        every inner iteration."""
        calls = {"apply_arr": 0, "adjoint_arr": 0}
        for name, method in [(n, getattr(ForwardOperator, n)) for n in calls]:

            def counted(self, arr, name=name, method=method):
                calls[name] += 1
                return method(self, arr)

            monkeypatch.setattr(ForwardOperator, name, counted)
        built = []
        init = ForwardOperator.__init__
        monkeypatch.setattr(ForwardOperator, "__init__",
                            lambda o, *a, **k: built.append(init(o, *a, **k)))
        sens = random_sens(rng, 2, 16, 16)
        mask = make_mask(scheme, 16, 16, 4, 1)
        y = KSpaceData(mask.pattern * rand_image(rng, 2, frames, 16, 16))
        inner = -(-GRAM_MIN_ITERS // (frames * 3)) + 1
        admm_reconstruct(y, mask, sens, AdmmConfig(T=3, inner_iters=inner, lam=0.1))
        assert len(gram_steps) == 1
        assert calls == {"apply_arr": 3, "adjoint_arr": 4}
        assert len(built) == 1
