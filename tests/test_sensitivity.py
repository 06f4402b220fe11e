import numpy as np
import pytest

from mcrecon.core import KSpaceData
from mcrecon.data import shepp_logan, simulate_coils
from mcrecon.fourier import fft2c
from mcrecon.sampling import equispaced_mask, gaussian2d_mask
from mcrecon.sensitivity import estimate_from_acs


def phantom_kspace(n=32, n_coils=4, seed=1):
    img = shepp_logan(n)
    sens, ksp = simulate_coils(img, n_coils, seed)
    return img, sens, ksp


class TestEstimateFromAcs:
    def test_single_coil_unit_magnitude_on_support(self):
        img = shepp_logan(32)
        ksp = KSpaceData(fft2c(img.data)[np.newaxis])
        mask = equispaced_mask(32, 32, 2, 12, 0)
        maps = estimate_from_acs(ksp, mask)
        mags = np.abs(maps.maps[0][maps.support])
        assert np.allclose(mags, 1.0, atol=1e-9)

    def test_recovers_simulated_profiles(self):
        img, true_sens, ksp = phantom_kspace(n=32, n_coils=4)
        mask = equispaced_mask(32, 32, 2, 16, 0)
        maps = estimate_from_acs(ksp, mask)
        sup = maps.support & (np.abs(img.data[0]) > 0.05)
        for k in range(4):
            a = np.abs(maps.maps[k][sup])
            b = np.abs(true_sens.maps[k][sup])
            r = np.corrcoef(a, b)[0, 1]
            assert r > 0.95

    def test_normalized_on_support(self):
        rng = np.random.default_rng(3)
        ksp = KSpaceData(
            rng.standard_normal((3, 1, 16, 16)) + 1j * rng.standard_normal((3, 1, 16, 16))
        )
        mask = equispaced_mask(16, 16, 2, 8, 0)
        maps = estimate_from_acs(ksp, mask)
        sq = np.sum(np.abs(maps.maps) ** 2, axis=0)
        assert np.allclose(sq[maps.support], 1.0, atol=1e-6)
        assert np.all(sq[~maps.support] == 0)

    def test_scale_invariance(self):
        _, _, ksp = phantom_kspace(n=32)
        mask = equispaced_mask(32, 32, 2, 12, 0)
        a = estimate_from_acs(ksp, mask)
        b = estimate_from_acs(KSpaceData(7.5 * ksp.data), mask)
        assert np.array_equal(a.support, b.support)
        assert np.allclose(a.maps, b.maps, atol=1e-9)

    def test_disc_acs_region_supported(self):
        _, _, ksp = phantom_kspace(n=32)
        mask = gaussian2d_mask(32, 32, 2, 6, 0)
        maps = estimate_from_acs(ksp, mask)
        assert maps.support.any()

    def test_mask_without_acs_rejected(self):
        _, _, ksp = phantom_kspace(n=32)
        mask = equispaced_mask(32, 32, 2, 0, 0)
        with pytest.raises(ValueError):
            estimate_from_acs(ksp, mask)

    def test_dynamic_input_uses_frame_zero(self):
        img, sens, ksp = phantom_kspace(n=32)
        stacked = KSpaceData(np.repeat(ksp.data, 3, axis=1))
        mask = equispaced_mask(32, 32, 2, 12, 0)
        a = estimate_from_acs(ksp, mask)
        b = estimate_from_acs(stacked, mask)
        assert np.allclose(a.maps, b.maps)
