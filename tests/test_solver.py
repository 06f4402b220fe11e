import numpy as np
import pytest

from conftest import make_mask, random_sens
from mcrecon.core import KSpaceData, SensitivityMaps
from mcrecon.fourier import ForwardOperator
from mcrecon.sampling import full_mask
from mcrecon.data import shepp_logan, simulate_coils
from mcrecon.solver import (
    AdmmConfig,
    DenoiserSpec,
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
        out = data_consistency_step(x, x, np.zeros_like(x), y, op, cfg)
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
        out = data_consistency_step(x0, w, m, y, op, cfg)
        amat = dense_forward_matrix(op, 6, 6)
        rhs = amat.conj().T @ y.ravel() + lam * (w - m / lam).ravel()
        expected = np.linalg.solve(
            amat.conj().T @ amat + lam * np.eye(36), rhs
        )
        assert np.allclose(out.ravel(), expected, atol=1e-6)

    def test_objective_nonincreasing(self, rng):
        for trial in range(10):
            op = self._instance(rng, n_coils=2, scheme="gaussian2d")
            x = rand_image(rng, 1, 6, 6)
            w = rand_image(rng, 1, 6, 6)
            m = rand_image(rng, 1, 6, 6)
            y = rand_image(rng, 2, 1, 6, 6)
            lam = 1.0
            cfg = AdmmConfig(T=1, inner_iters=1, lam=lam)
            prev = dc_objective(x, w.copy(), m, y, op, lam)
            cur = x
            for _ in range(10):
                cur = data_consistency_step(cur, w, m, y, op, cfg)
                obj = dc_objective(cur, w, m, y, op, lam)
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

    def test_consensus_gap_shrinks(self):
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 4, 0)
        mask = make_mask("equispaced", 32, 32, 2, 1)
        y = KSpaceData(mask.pattern * ksp.data)

        def gap(T):
            state = admm_reconstruct(
                y, mask, sens, AdmmConfig(T=T, inner_iters=14), return_state=True
            )
            return np.linalg.norm(state.x.data - state.w.data)

        assert gap(16) < gap(1)

    def test_frame_separability(self):
        from mcrecon.data import dynamic_phantom

        img = dynamic_phantom(32, 4)
        sens, ksp = simulate_coils(img, 2, 3)
        mask = make_mask("equispaced", 32, 32, 2, 2)
        y = KSpaceData(mask.pattern * ksp.data)
        spec = DenoiserSpec(kind="l1-soft-threshold", strength=1e-3)
        cfg = AdmmConfig(T=4, inner_iters=6, denoiser=spec)
        joint = admm_reconstruct(y, mask, sens, cfg)
        for t in range(4):
            single = admm_reconstruct(KSpaceData(y.data[:, t : t + 1]), mask, sens, cfg)
            assert np.allclose(joint.data[t], single.data[0], atol=1e-9)
