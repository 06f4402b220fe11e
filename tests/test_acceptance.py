"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured runtime."""

import time

import numpy as np
import pytest

from helpers import ALL_SCHEMES, make_mask, rand_image, random_sens
from mcrecon.core import KSpaceData
from mcrecon.data import (
    FormatError,
    dynamic_phantom,
    random_kspace_crop,
    read_cks,
    shepp_logan,
    simulate_coils,
    write_cks,
)
from mcrecon.fourier import ForwardOperator, ifft2c
from mcrecon.metrics import hfen1, nmae, nmse, psnr, ssim, dual_domain_loss
from mcrecon.sampling import (
    achieved_acceleration,
    equispaced_mask,
    full_mask,
    gaussian2d_mask,
    pseudo_radial_mask,
    pseudo_spiral_mask,
)
from mcrecon.solver import (
    AdmmConfig,
    DenoiserSpec,
    GradientSteps,
    admm_reconstruct,
    data_consistency_step,
    dc_gradient,
    dc_objective,
    denoise_step,
    zero_filled_init,
)
from test_metrics import hfen1_oracle, ssim3d_oracle, ssim_oracle
from test_solver import dense_forward_matrix, periodic_laplacian


def report(number, label, elapsed, limit=None):
    extra = f" ({elapsed:.2f} s < {limit:.0f} s)" if limit else f" ({elapsed:.2f} s)"
    print(f"PASS criterion {number}: {label}{extra}")
    if limit is not None:
        assert elapsed < limit


def test_criterion_1_adjoint_correctness():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    checked = 0
    while checked < 100:
        size = int(rng.choice([4, 8, 16]))
        n_coils = int(rng.choice([1, 2, 4, 8]))
        scheme = ALL_SCHEMES[checked % len(ALL_SCHEMES)]
        sens = random_sens(rng, n_coils, size, size)
        mask = make_mask(scheme, size, size, 2, int(rng.integers(1 << 30)))
        op = ForwardOperator(mask=mask, sens=sens)
        x = rand_image(rng, 1, size, size)
        y = rand_image(rng, n_coils, 1, size, size)
        lhs = np.vdot(y, op.apply_arr(x))
        rhs = np.vdot(op.adjoint_arr(y), x)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
        checked += 1
    report(1, "adjoint identity on 100 randomized instances", time.perf_counter() - start, 10)


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(22)
    start = time.perf_counter()
    h = 1e-5
    for trial in range(20):
        sens = random_sens(rng, 1, 6, 6)
        mask = make_mask(ALL_SCHEMES[trial % len(ALL_SCHEMES)], 6, 6, 2, trial)
        op = ForwardOperator(mask=mask, sens=sens)
        x = rand_image(rng, 1, 6, 6)
        w = rand_image(rng, 1, 6, 6)
        m = rand_image(rng, 1, 6, 6)
        y = rand_image(rng, 1, 1, 6, 6)
        lam = 1.0
        g = dc_gradient(x, w, m, y, op, lam)
        fd = np.zeros_like(g)
        for idx in np.ndindex(*x.shape):
            for direction in (1.0, 1.0j):
                xp, xm = x.copy(), x.copy()
                xp[idx] += h * direction
                xm[idx] -= h * direction
                d = (
                    dc_objective(xp, w, m, y, op, lam)
                    - dc_objective(xm, w, m, y, op, lam)
                ) / (2 * h)
                fd[idx] += d * direction
        assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)
    report(2, "objective gradient matches central finite differences", time.perf_counter() - start, 30)


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(33)
    start = time.perf_counter()
    for trial in range(5):
        sens = random_sens(rng, 1, 6, 6)
        mask = make_mask("equispaced", 6, 6, 2, trial)
        op = ForwardOperator(mask=mask, sens=sens)
        x0 = rand_image(rng, 1, 6, 6)
        w = rand_image(rng, 1, 6, 6)
        m = rand_image(rng, 1, 6, 6)
        y = rand_image(rng, 1, 1, 6, 6)
        lam = 1.0
        cfg = AdmmConfig(T=1, inner_iters=500, lam=lam)
        out = data_consistency_step(x0, w, m, GradientSteps(op, y, cfg))
        amat = dense_forward_matrix(op, 6, 6)
        expected = np.linalg.solve(
            amat.conj().T @ amat + lam * np.eye(36),
            amat.conj().T @ y.ravel() + lam * (w - m / lam).ravel(),
        )
        assert np.abs(out.ravel() - expected).max() <= 1e-6

    lap = periodic_laplacian(8, 8)
    for trial in range(5):
        v = rand_image(rng, 1, 8, 8)
        alpha, lam = 0.2 + 0.1 * trial, 1.0
        out = denoise_step(v, DenoiserSpec(kind="tikhonov-smooth", strength=alpha), lam)
        expected = np.linalg.solve(alpha * lap + lam * np.eye(64), lam * v.ravel())
        assert np.abs(out.ravel() - expected).max() <= 1e-8
    report(3, "gradient descent and Tikhonov prox match dense oracles", time.perf_counter() - start, 60)


def test_criterion_4_admm_sanity():
    start = time.perf_counter()
    img = shepp_logan(32)
    sens, ksp = simulate_coils(img, 4, 0)
    mask = full_mask(32, 32)
    cfg = AdmmConfig(T=16, inner_iters=14, lam=1.0)
    out = admm_reconstruct(ksp, mask, sens, cfg)
    assert np.abs(out.data - img.data).max() <= 1e-6

    under = equispaced_mask(32, 32, 4, 8, 1)
    y = KSpaceData(under.pattern * ksp.data)
    t0 = admm_reconstruct(y, under, sens, AdmmConfig(T=0, inner_iters=1))
    zf = zero_filled_init(y, under, sens)
    assert np.array_equal(t0.data, zf.data)
    report(4, "fully sampled recovery and T=0 == zero-filled", time.perf_counter() - start, 10)


def _recon_pair(mask, kfull, sens, truth_mag):
    y = KSpaceData(mask.pattern * kfull.data)
    zf = zero_filled_init(y, mask, sens)
    cfg = AdmmConfig(
        T=16, inner_iters=14, lam=1.0,
        denoiser=DenoiserSpec(kind="tikhonov-smooth", strength=1e-2),
    )
    rec = admm_reconstruct(y, mask, sens, cfg)
    dr = float(truth_mag.max())
    return ssim(truth_mag, np.abs(zf.data[0]), dr), ssim(truth_mag, np.abs(rec.data[0]), dr)


def test_criterion_5_end_to_end_improvement():
    start = time.perf_counter()
    img = shepp_logan(64)
    sens, kfull = simulate_coils(img, 4, 1)
    truth = np.abs(img.data[0])
    # equispaced with 7 ACS lines at 64x64, the largest block that the R=10
    # budget of ceil(64/10) = 7 columns holds, so each R samples its own mask
    ssims = []
    for R in (4, 8, 10):
        mask = equispaced_mask(64, 64, R, 7, 7)
        s_zf, s_admm = _recon_pair(mask, kfull, sens, truth)
        assert s_admm > s_zf
        ssims.append(s_admm)
    assert ssims[0] > ssims[1] > ssims[2]
    # strict version of the R=4 -> 8 -> 10 degradation on a 2D scheme whose
    # sampling budget genuinely scales with R at this grid size
    strict = []
    for R in (4, 8, 10):
        mask = gaussian2d_mask(64, 64, R, 8, 7)
        s_zf, s_admm = _recon_pair(mask, kfull, sens, truth)
        assert s_admm > s_zf
        strict.append(s_admm)
    assert strict[0] > strict[1] > strict[2]
    report(5, "ADMM beats zero-filled for R in {4,8,10}; SSIM degrades with R", time.perf_counter() - start, 120)


def test_criterion_6_dynamic_static_consistency():
    start = time.perf_counter()
    img = dynamic_phantom(32, 8)
    sens, kfull = simulate_coils(img, 4, 2)
    mask = equispaced_mask(32, 32, 2, 8, 3)
    y = KSpaceData(mask.pattern * kfull.data)
    cfg = AdmmConfig(
        T=10, inner_iters=8, lam=1.0,
        denoiser=DenoiserSpec(kind="l1-soft-threshold", strength=1e-3),
    )
    joint = admm_reconstruct(y, mask, sens, cfg)
    for t in range(8):
        single = admm_reconstruct(KSpaceData(y.data[:, t : t + 1]), mask, sens, cfg)
        assert np.abs(joint.data[t] - single.data[0]).max() <= 1e-9
    report(6, "8-frame dynamic solve equals 8 stacked static solves", time.perf_counter() - start)


def test_criterion_7_metric_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    u = rng.random((16, 16))
    v = rng.random((16, 16))
    assert abs(ssim(u, u) - 1.0) <= 1e-12
    assert hfen1(u, u) == 0.0
    assert abs(nmae(u, np.zeros_like(u)) - 1.0) <= 1e-12
    assert abs(nmse(u, np.zeros_like(u)) - 1.0) <= 1e-12

    assert ssim(u, v, 1.0) == pytest.approx(ssim_oracle(u, v, 1.0), abs=1e-8)
    assert hfen1(u, v) == pytest.approx(hfen1_oracle(u, v), abs=1e-8)
    uc = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    vc = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert nmae(uc, vc) == pytest.approx(np.abs(uc - vc).sum() / np.abs(uc).sum(), abs=1e-8)
    assert nmse(uc, vc) == pytest.approx(
        np.sum(np.abs(uc - vc) ** 2) / np.sum(np.abs(uc) ** 2), abs=1e-8
    )
    mse = np.mean((u - v) ** 2)
    assert psnr(u, v, 1.0) == pytest.approx(10 * np.log10(1.0 / mse), abs=1e-8)
    u3 = rng.random((8, 16, 16))
    v3 = rng.random((8, 16, 16))
    from mcrecon.metrics import ssim3d

    assert ssim3d(u3, v3, 1.0) == pytest.approx(ssim3d_oracle(u3, v3, 1.0), abs=1e-8)

    yk = rng.standard_normal((2, 1, 16, 16)) + 1j * rng.standard_normal((2, 1, 16, 16))
    ykp = yk + 0.05 * rng.standard_normal((2, 1, 16, 16))
    expected = (
        (1 - ssim(u, v, float(u.max())))
        + np.abs(u - v).sum()
        + hfen1(u, v)
        + 3 * nmae(yk, ykp)
    )
    assert dual_domain_loss(u, v, yk, ykp) == pytest.approx(expected, abs=1e-8)
    report(7, "metric identities, oracles, and loss component sum", time.perf_counter() - start)


def test_criterion_8_mask_contracts():
    start = time.perf_counter()
    m = equispaced_mask(64, 192, 4, 24, 7)
    assert int((m.pattern.max(axis=0) == 1).sum()) == 48

    for gen, acs in [
        (equispaced_mask, 16),
        (gaussian2d_mask, 4),
        (pseudo_radial_mask, 0),
        (pseudo_spiral_mask, 0),
    ]:
        assert np.array_equal(gen(64, 64, 4, acs, 13).pattern, gen(64, 64, 4, acs, 13).pattern)

    for R in (4, 8, 10):
        for gen in (pseudo_radial_mask, pseudo_spiral_mask):
            mk = gen(64, 64, R, 0, 5)
            acc = achieved_acceleration(mk)
            assert 0.7 * R <= acc <= 1.3 * R
    report(8, "mask counts, determinism, and radial/spiral acceleration", time.perf_counter() - start)


def test_criterion_9_crop_pipeline():
    start = time.perf_counter()
    img = dynamic_phantom(32, 2)
    _, ksp = simulate_coils(img, 3, 4)
    same = random_kspace_crop(ksp, 32, 32, 0)
    assert np.abs(same.data - ksp.data).max() <= 1e-10

    out = random_kspace_crop(ksp, 16, 16, 9)
    full_imgs = ifft2c(ksp.data)
    crop_imgs = ifft2c(out.data)
    matches = [
        np.abs(crop_imgs - full_imgs[..., r0 : r0 + 16, c0 : c0 + 16]).max()
        for r0 in range(17)
        for c0 in range(17)
    ]
    assert min(matches) <= 1e-9
    report(9, "identity crop and window consistency of the crop pipeline", time.perf_counter() - start)


def test_criterion_10_format(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    data = (rng.standard_normal((2, 3, 8, 8)) + 1j * rng.standard_normal((2, 3, 8, 8)))
    ksp = KSpaceData(data.astype(np.complex64).astype(np.complex128))
    p = tmp_path / "vol.cks"
    write_cks(p, ksp)
    back = read_cks(p)
    assert np.array_equal(back.data, ksp.data)

    corrupted = bytearray(p.read_bytes())
    corrupted[:4] = b"XKS1"
    bad = tmp_path / "bad.cks"
    bad.write_bytes(bytes(corrupted))
    with pytest.raises(FormatError, match="magic"):
        read_cks(bad)
    short = tmp_path / "short.cks"
    short.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(FormatError, match="expected"):
        read_cks(short)
    report(10, "CKS round-trip and corruption diagnostics", time.perf_counter() - start)
