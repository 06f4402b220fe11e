"""The precision contract: a solve runs in the dtype of its k-space.

CKS files hold float32 components and read back as complex64; every other
input is stored as complex128. Each operator, denoiser and solver step
returns the dtype it is given, so a complex64 solve never silently upcasts
(``x -= ...`` would hide that by casting back). Metrics compute in double
precision whatever their inputs.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mcrecon.core import ComplexImage, KSpaceData, SensitivityMaps
from mcrecon.data import dynamic_phantom, read_cks, shepp_logan, simulate_coils, write_cks
from mcrecon.fourier import ForwardOperator
from mcrecon.metrics import hfen1, nmae, nmse, psnr, ssim, ssim3d
from mcrecon.sampling import make_mask
from mcrecon.solver import (
    DENOISER_KINDS,
    GRAM_MIN_ITERS,
    AdmmConfig,
    DenoiserSpec,
    GradientSteps,
    admm_reconstruct,
    chebyshev_values,
    data_consistency_step,
    dc_gradient,
    denoise_step,
    multiplier_update,
    zero_filled_init,
)

from helpers import random_sens

DTYPES = (np.complex64, np.complex128)
QUALITY_BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
}


@pytest.fixture(autouse=True)
def five_tv_iterations(monkeypatch):
    """TV solves here run 5 dual steps per outer step, the count behind the
    measured bounds below and in the README's Precision section."""
    monkeypatch.setattr("mcrecon.solver.TV_ITERATIONS", 5)


def _spec(kind):
    return DenoiserSpec(kind, 0.0 if kind == "identity" else 1e-2)


def _problem(rng, dtype, scheme="equispaced", frames=2):
    mask = make_mask(scheme, 16, 16, 2, 0, acs_lines=4, acs_radius=2)
    sens = random_sens(rng, 3, 16, 16)
    x = (rng.standard_normal((frames, 16, 16)) + 1j * rng.standard_normal((frames, 16, 16)))
    y = (rng.standard_normal((3, frames, 16, 16)) + 1j * rng.standard_normal((3, frames, 16, 16)))
    return mask, sens, x.astype(dtype), (mask.pattern * y).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scheme", ["equispaced", "gaussian2d"])
def test_operator_keeps_the_input_dtype(rng, dtype, scheme):
    mask, sens, x, y = _problem(rng, dtype, scheme)
    op = ForwardOperator(mask=mask, sens=sens, dtype=dtype)
    assert op.apply_arr(x).dtype == dtype
    assert op.adjoint_arr(y).dtype == dtype


def test_operator_dtype_defaults_to_the_maps_and_must_be_complex(rng):
    mask, sens, _, _ = _problem(rng, np.complex128)
    assert ForwardOperator(mask=mask, sens=sens).dtype == np.complex128
    maps64 = SensitivityMaps(sens.maps.astype(np.complex64))
    assert ForwardOperator(mask=mask, sens=maps64).dtype == np.complex64
    with pytest.raises(ValueError, match="complex64 or complex128"):
        ForwardOperator(mask=mask, sens=sens, dtype=np.float64)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", DENOISER_KINDS)
def test_each_denoiser_keeps_the_input_dtype(rng, dtype, kind):
    _, _, x, _ = _problem(rng, dtype)
    assert denoise_step(x, _spec(kind), 0.5).dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES)
def test_solver_steps_keep_the_input_dtype(rng, dtype):
    mask, sens, x, y = _problem(rng, dtype)
    op = ForwardOperator(mask=mask, sens=sens, dtype=dtype)
    w, m = x[::-1].copy(), 0.1 * x
    assert dc_gradient(x, w, m, y, op, 0.5).dtype == dtype
    assert multiplier_update(m, x, w, 0.5).dtype == dtype
    ksp = KSpaceData(y)
    assert zero_filled_init(ksp, mask, sens).data.dtype == dtype
    cfg = AdmmConfig(T=2, inner_iters=2, lam=0.5, denoiser=_spec("tv-chambolle"))
    assert admm_reconstruct(ksp, mask, sens, cfg).data.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scheme", ["equispaced", "gaussian2d"])
def test_dc_steps_equal_the_out_of_place_expressions(rng, dtype, scheme):
    # dc_gradient and data_consistency_step accumulate in place; the values
    # must stay those of the plain expressions, bit for bit
    mask, sens, x, y = _problem(rng, dtype, scheme)
    op = ForwardOperator(mask=mask, sens=sens, dtype=dtype)
    w, m, lam = x[::-1].copy(), (0.1 * x[:, ::-1]).copy(), 0.3

    def gradient(x):
        return op.adjoint_arr(op.apply_arr(x) - y) + lam * (x - w) + m

    assert np.array_equal(dc_gradient(x, w, m, y, op, lam), gradient(x))
    # the Chebyshev iteration on H e = g, e = x - x_out, H = A^H A + lam I,
    # with T_k = T_k(1 + 2 lam), e_1 = 2 g / T_1 and the residual g - H e
    cfg = AdmmConfig(T=1, inner_iters=3, lam=lam)
    tau = chebyshev_values(cfg.inner_iters, lam, dtype)
    assert len(tau) == 4
    g = gradient(x)
    e = d = 2 / tau[1] * g
    for k in (1, 2):
        r = g - (op.adjoint_arr(op.apply_arr(e)) + lam * e)
        d = tau[k - 1] / tau[k + 1] * d + 4 * tau[k] / tau[k + 1] * r
        e = e + d
    expected = x - e
    out = data_consistency_step(x, w, m, GradientSteps(op, y, cfg))
    assert out.dtype == dtype and np.array_equal(out, expected)


def test_cks_complex_kinds_read_back_as_complex64(tmp_path, rng):
    mask, sens, x, y = _problem(rng, np.complex128)
    for obj in (KSpaceData(y), ComplexImage(x), sens):
        write_cks(tmp_path / "f.cks", obj)
        back = read_cks(tmp_path / "f.cks")
        arr = back.maps if isinstance(back, SensitivityMaps) else back.data
        assert type(back) is type(obj) and arr.dtype == np.complex64
        assert arr.flags.aligned  # the payload starts at an odd byte of the file


@pytest.mark.parametrize("given", [np.float32, np.float64, np.complex128])
def test_containers_store_other_dtypes_as_complex128(given):
    ones = np.ones((2, 4, 4), dtype=given)
    half = np.full((2, 4, 4), 1 / np.sqrt(2)).astype(given)
    assert ComplexImage(ones).data.dtype == np.complex128
    assert KSpaceData(ones).data.dtype == np.complex128
    assert SensitivityMaps(half).maps.dtype == np.complex128
    assert KSpaceData(ones.astype(np.complex64)).data.dtype == np.complex64


def _kspace_read_peak(tmp_path, rng):
    """(tracemalloc peak of reading an 8x12x64^2 complex64 k-space file, its
    size); the read data is checked against what was written."""
    shape = (8, 12, 64, 64)
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    path = tmp_path / "k.cks"
    write_cks(path, KSpaceData(data))
    tracemalloc.start()
    try:
        back = read_cks(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, data)
    return peak, path.stat().st_size


def test_reading_kspace_peaks_under_three_times_the_file_size(tmp_path, rng):
    peak, size = _kspace_read_peak(tmp_path, rng)
    assert peak < 3 * size


def test_kspace_payload_is_read_in_place(tmp_path, rng):
    # measured 1.13x: the array read into plus the finite check's bool mask
    # (2.13x with one aligned copy of the bytes read, 5.0x before that)
    peak, size = _kspace_read_peak(tmp_path, rng)
    assert peak <= 1.3 * size


# A complex64 solve of float32-representable data against the complex128
# solve of the same values (16 outer steps of 6 inner iterations): measured
# at most 3e-6 * max over the cases below, all of it TV at strength 1e-2
# (2.7e-6 on the column and 2D paths, 2.4e-6 for one frame and 3.0e-6 for 4
# frames on the row Gram path); every other denoiser at most 5.1e-7.
SOLVE_TOL = 1e-5


@pytest.fixture(scope="module")
def phantom64():
    return _phantom(shepp_logan(64))


@pytest.fixture(scope="module")
def cine64():
    return _phantom(dynamic_phantom(64, 4))


def _phantom(truth):
    sens, full = simulate_coils(truth, 8, 2)
    maps = SensitivityMaps(sens.maps.astype(np.complex64))
    return np.abs(truth.data), maps, full.data.astype(np.complex64)


def _quality(mag, truth):
    rng = float(truth.max())
    return {"ssim": ssim(truth[0], mag[0], rng), "psnr_db": psnr(truth[0], mag[0], rng),
            "nmse": nmse(truth[0], mag[0])}


def _check_complex64_solve(phantom, scheme, kind):
    truth, maps64, full64 = phantom
    mask = make_mask(scheme, 64, 64, 4, 1, acs_lines=12, acs_radius=4)
    y64 = KSpaceData(mask.pattern * full64)
    y128 = KSpaceData(y64.data.astype(np.complex128))
    maps128 = SensitivityMaps(maps64.maps.astype(np.complex128))
    cfg = AdmmConfig(T=16, inner_iters=6, lam=0.1, denoiser=_spec(kind))
    x64 = admm_reconstruct(y64, mask, maps64, cfg).data
    x128 = admm_reconstruct(y128, mask, maps128, cfg).data
    assert x64.dtype == np.complex64 and x128.dtype == np.complex128
    scale = np.abs(x128).max()
    assert np.abs(x64 - x128).max() <= SOLVE_TOL * scale
    q64, q128 = _quality(np.abs(x64), truth), _quality(np.abs(x128), truth)
    for key, ref in q128.items():
        assert abs(q64[key] - ref) <= QUALITY_BOUNDS[key] * abs(ref), key


@pytest.mark.parametrize("scheme", ["equispaced", "random-rectilinear", "gaussian2d"])
@pytest.mark.parametrize("kind", DENOISER_KINDS)
def test_complex64_solve_matches_complex128(phantom64, monkeypatch, gram_steps, scheme, kind):
    # one frame on the column path: its 16 * 5 Gram iterations would take the
    # row Gram path on a rectilinear mask, so the threshold is raised past them
    monkeypatch.setattr("mcrecon.solver.GRAM_MIN_ITERS", 16 * 5 + 1)
    _check_complex64_solve(phantom64, scheme, kind)
    assert gram_steps == []


@pytest.mark.parametrize("scheme", ["equispaced", "random-rectilinear"])
@pytest.mark.parametrize("kind", DENOISER_KINDS)
def test_complex64_row_gram_solve_matches_complex128(cine64, gram_steps, scheme, kind):
    # 4 frames on a rectilinear mask: data consistency runs on the row Gram
    # form, anchored by one gradient per outer step
    _check_complex64_solve(cine64, scheme, kind)
    assert len(gram_steps) == 2


@pytest.mark.parametrize("scheme", ["equispaced", "random-rectilinear"])
@pytest.mark.parametrize("kind", DENOISER_KINDS)
def test_complex64_one_frame_row_gram_solve_matches_complex128(
    phantom64, gram_steps, scheme, kind
):
    # one frame reaches GRAM_MIN_ITERS at T 16 with 6 inner iterations, so its
    # data consistency runs on the row Gram form too
    assert 16 * 5 >= GRAM_MIN_ITERS
    _check_complex64_solve(phantom64, scheme, kind)
    assert len(gram_steps) == 2


METRICS = {
    "nmse": nmse,
    "nmae": nmae,
    "psnr": lambda u, v: psnr(u, v, 1.0),
    "ssim": ssim,
    "hfen1": hfen1,
}


@pytest.mark.parametrize(
    "name, single",
    [(name, np.float32) for name in METRICS] + [("nmse", np.complex64), ("nmae", np.complex64)],
)
def test_metrics_compute_in_double_precision(rng, name, single):
    u = rng.random((32, 32)) + 1.0
    v = u + 1e-3 * rng.standard_normal((32, 32))
    if single == np.complex64:
        u, v = u + 1j * v[::-1], v + 1j * u[::-1]
    u, v = u.astype(single), v.astype(single)
    double = np.promote_types(single, np.float64)
    want = METRICS[name](u.astype(double), v.astype(double))
    assert abs(METRICS[name](u, v) - want) <= 1e-12 * abs(want)


def test_ssim3d_computes_in_double_precision(rng):
    u = rng.random((8, 16, 16)).astype(np.float32)
    v = (u + 1e-3 * rng.standard_normal(u.shape)).astype(np.float32)
    want = ssim3d(u.astype(np.float64), v.astype(np.float64))
    assert abs(ssim3d(u, v) - want) <= 1e-12 * abs(want)
