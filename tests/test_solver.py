import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_mask, random_sens
from mcrecon import sampling
from mcrecon.core import RECTILINEAR_SCHEMES, KSpaceData
from mcrecon.fourier import GRAM_MIN_FRAMES, ForwardOperator
from mcrecon.sampling import full_mask
from mcrecon.data import dynamic_phantom, shepp_logan, simulate_coils
from mcrecon.solver import (
    DENOISER_KINDS,
    AdmmConfig,
    DenoiserSpec,
    GradientSteps,
    RowGramSteps,
    _div2,
    _grad2,
    _tv_prox_real,
    admm_reconstruct,
    data_consistency_step,
    dc_gradient,
    dc_objective,
    denoise_step,
    multiplier_update,
    zero_filled_init,
)


def rand_image(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            AdmmConfig(lam=1.0, step_size=1.5)

    def test_default_step(self):
        cfg = AdmmConfig(lam=3.0)
        assert cfg.step_size == pytest.approx(0.25)

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

    def test_for_mode_defaults_and_overrides(self):
        static = AdmmConfig.for_mode("static")
        assert (static.T, static.inner_iters) == (16, 14)
        dyn = AdmmConfig.for_mode("dynamic", T=None, inner_iters=3, lam=0.5, step_size=None)
        assert (dyn.T, dyn.inner_iters, dyn.lam) == (10, 3, 0.5)
        assert dyn.step_size == pytest.approx(2 / 3)
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
        spec = DenoiserSpec(kind="tv-chambolle", strength=0.5, iterations=50)
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
        spec = DenoiserSpec(kind="tv-chambolle", strength=0.3, iterations=7)
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

    @settings(max_examples=100, deadline=None)
    @given(
        scheme=st.sampled_from(RECTILINEAR_SCHEMES),
        height=st.integers(3, 24),
        width=st.integers(3, 24),
        extra_frames=st.integers(0, 2),
        n_coils=st.integers(1, 3),
        inner=st.integers(1, 5),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        seed=st.integers(0, 2**16),
    )
    def test_row_gram_steps_equal_the_column_steps(
        self, scheme, height, width, extra_frames, n_coils, inner, dtype, seed
    ):
        """RowGramSteps runs the same iterate as GradientSteps on the
        column-DFT operator, to the round-off of its dtype, from a start off
        the solution and data on the mask, on odd, even and non-square grids
        (whose (row, frame, col) views are transposed)."""
        rng = np.random.default_rng(seed)
        frames = GRAM_MIN_FRAMES + extra_frames
        mask = sampling.make_mask(scheme, height, width, 2, seed, acs_lines=2)
        sens = random_sens(rng, n_coils, height, width)
        op = ForwardOperator(mask=mask, sens=sens, dtype=dtype)
        x, wv, m = (rand_image(rng, frames, height, width).astype(dtype) for _ in range(3))
        y = (mask.pattern * rand_image(rng, n_coils, frames, height, width)).astype(dtype)
        cfg = AdmmConfig(T=1, inner_iters=inner, lam=0.3)
        got = data_consistency_step(x, wv, m, RowGramSteps(*op.row_gram(y), cfg, op.dtype))
        want = data_consistency_step(x, wv, m, GradientSteps(*op.for_data_consistency(y), cfg))
        assert got.dtype == dtype and got.shape == x.shape and got.flags.c_contiguous
        tol = 1e-12 if dtype == np.complex128 else 1e-5
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize(
        "scheme, frames", [("gaussian2d", 1), ("equispaced", 1), ("equispaced", GRAM_MIN_FRAMES)]
    )
    def test_objective_nonincreasing(self, rng, scheme, frames):
        """Each call of the solve's data-consistency object lowers the
        objective on the point path (A, y), the column path (B, y_dc) and the
        row Gram path, whose iterate is scored on (B, y_dc)."""
        for trial in range(10):
            op = self._instance(rng, n_coils=2, scheme=scheme)
            x = rand_image(rng, frames, 6, 6)
            w = rand_image(rng, frames, 6, 6)
            m = rand_image(rng, frames, 6, 6)
            y = rand_image(rng, 2, frames, 6, 6)
            lam = 1.0
            cfg = AdmmConfig(T=1, inner_iters=1, lam=lam)
            gram = op.row_gram(y)
            assert (gram is not None) == (frames == GRAM_MIN_FRAMES)
            op_dc, y_dc = op.for_data_consistency(y)
            assert (op_dc is op) == (scheme == "gaussian2d")
            if gram is None:
                dc = GradientSteps(op_dc, y_dc, cfg)
            else:
                dc = RowGramSteps(*gram, cfg, op.dtype)
            prev = dc_objective(x, w.copy(), m, y_dc, op_dc, lam)
            cur = x
            for _ in range(10):
                cur = data_consistency_step(cur, w, m, dc)
                obj = dc_objective(cur, w, m, y_dc, op_dc, lam)
                assert obj <= prev + 1e-10
                prev = obj


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

    def test_frame_separability(self, monkeypatch):
        """Nothing in the operator or the denoisers couples frames, for l1 and
        TV, on equispaced and random-rectilinear masks, in complex64 and
        complex128. On the column-DFT path (fewer than GRAM_MIN_FRAMES
        frames) a joint solve equals, bit for bit, the solves of each frame
        alone. On the row Gram path a joint solve of 2 * GRAM_MIN_FRAMES
        frames equals, bit for bit, the joint solves of each half, and is
        within 1e-6 * max of the column-DFT solve of the same frames."""
        few, gram = GRAM_MIN_FRAMES - 1, 2 * GRAM_MIN_FRAMES
        img = dynamic_phantom(32, gram)
        sens, ksp = simulate_coils(img, 2, 3)
        for kind, scheme, dtype in itertools.product(
            ["l1-soft-threshold", "tv-chambolle"],
            ["equispaced", "random-rectilinear"],
            [np.complex64, np.complex128],
        ):
            mask = make_mask(scheme, 32, 32, 2, 2)
            y = (mask.pattern * ksp.data).astype(dtype)
            spec = DenoiserSpec(kind=kind, strength=1e-3, iterations=5)
            cfg = AdmmConfig(T=4, inner_iters=6, denoiser=spec)

            def solve(frames):
                return admm_reconstruct(KSpaceData(y[:, frames]), mask, sens, cfg).data

            joint = solve(slice(0, few))
            assert joint.dtype == dtype
            for t in range(few):
                single = solve(slice(t, t + 1))
                assert np.array_equal(joint[t], single[0]), (kind, scheme, dtype, t)

            joint = solve(slice(0, gram))
            assert joint.dtype == dtype
            halves = [solve(slice(0, GRAM_MIN_FRAMES)), solve(slice(GRAM_MIN_FRAMES, gram))]
            assert np.array_equal(joint, np.concatenate(halves)), (kind, scheme, dtype)
            with monkeypatch.context() as patch:
                patch.setattr("mcrecon.fourier.GRAM_MIN_FRAMES", gram + 1)
                column = solve(slice(0, gram))
            assert np.abs(joint - column).max() <= 1e-6 * np.abs(column).max()


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("scheme", ["equispaced", "gaussian2d"])
def test_operator_and_denoisers_neither_mutate_nor_alias(rng, scheme, dtype):
    """apply_arr, adjoint_arr (2D FFT path on gaussian2d, column-DFT path on
    equispaced) and every denoiser but identity leave their input as it was
    and return a fresh array, so callers may modify it in place."""
    sens = random_sens(rng, 3, 12, 10)
    mask = make_mask(scheme, 12, 10, 2, 1)
    op, _ = ForwardOperator(mask=mask, sens=sens, dtype=dtype).for_data_consistency(
        np.zeros((3, 2, 12, 10), dtype)
    )
    x = rand_image(rng, 2, 12, 10).astype(dtype)
    r = op.apply_arr(x).copy()
    held = [a for a in vars(op).values() if isinstance(a, np.ndarray)]
    calls = [(op.apply_arr, x), (op.adjoint_arr, r)]
    calls += [
        (lambda v, k=k: denoise_step(v, DenoiserSpec(kind=k, strength=0.1, iterations=3), 0.5), x)
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

    @pytest.mark.parametrize("scheme", ["equispaced", "gaussian2d"])
    def test_one_operator_built_per_solve(self, rng, monkeypatch, scheme):
        """The zero-filled start reuses the solve's 2D operator."""
        built = []
        post_init = ForwardOperator.__post_init__
        monkeypatch.setattr(ForwardOperator, "__post_init__", lambda o: built.append(post_init(o)))
        sens = random_sens(rng, 2, 16, 16)
        mask = make_mask(scheme, 16, 16, 4, 1)
        y = KSpaceData(mask.pattern * rand_image(rng, 2, 2, 16, 16))
        admm_reconstruct(y, mask, sens, AdmmConfig(T=2, inner_iters=2))
        assert len(built) == 1

    @pytest.mark.parametrize("scheme", ["equispaced", "random-rectilinear"])
    def test_row_gram_path_calls_only_the_zero_filled_adjoint(self, rng, monkeypatch, scheme):
        """With GRAM_MIN_FRAMES frames on a rectilinear mask the gradients run
        on the row Gram form: adjoint_arr once (the zero-filled start),
        apply_arr never, and one ForwardOperator built per solve."""
        calls = {"apply_arr": 0, "adjoint_arr": 0}
        for name, method in [(n, getattr(ForwardOperator, n)) for n in calls]:

            def counted(self, arr, name=name, method=method):
                calls[name] += 1
                return method(self, arr)

            monkeypatch.setattr(ForwardOperator, name, counted)
        built = []
        post_init = ForwardOperator.__post_init__
        monkeypatch.setattr(ForwardOperator, "__post_init__", lambda o: built.append(post_init(o)))
        sens = random_sens(rng, 2, 16, 16)
        mask = make_mask(scheme, 16, 16, 4, 1)
        y = KSpaceData(mask.pattern * rand_image(rng, 2, GRAM_MIN_FRAMES, 16, 16))
        admm_reconstruct(y, mask, sens, AdmmConfig(T=3, inner_iters=5))
        assert calls == {"apply_arr": 0, "adjoint_arr": 1}
        assert len(built) == 1
