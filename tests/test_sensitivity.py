import numpy as np
import pytest

from mcrecon.core import KSpaceData
from mcrecon.data import shepp_logan, simulate_coils
from mcrecon.fourier import fft2c, ifft2c
from mcrecon.sampling import equispaced_mask, gaussian2d_mask
from mcrecon.sensitivity import SUPPORT_THRESHOLD, estimate_from_acs


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

    @pytest.mark.parametrize(
        "height, width, acs, scale",
        [(16, 16, 2, 1.0), (2, 16, 6, 1.0), (16, 16, 8, 0.0)],
        ids=["two-acs-lines", "two-row-grid", "zero-kspace"],
    )
    def test_all_zero_windowed_acs_raises_instead_of_empty_maps(self, height, width, acs, scale):
        """A 2-point Hann window is [0, 0], so 2 ACS lines or a 2-row grid
        leave no ACS data, as zero k-space does; the estimate raises instead
        of returning all-zero maps."""
        rng = np.random.default_rng(2)
        ksp = KSpaceData(scale * (rng.standard_normal((3, 1, height, width))
                                  + 1j * rng.standard_normal((3, 1, height, width))))
        mask = equispaced_mask(height, width, 2, acs, 0)
        with pytest.raises(ValueError, match=f"ACS calibration gives empty maps: the windowed "
                                             f"ACS data of the {height}x{width} mask is all zero"):
            estimate_from_acs(ksp, mask)

    def test_mask_without_acs_rejected(self):
        _, _, ksp = phantom_kspace(n=32)
        mask = equispaced_mask(32, 32, 2, 0, 0)
        with pytest.raises(ValueError):
            estimate_from_acs(ksp, mask)

    @pytest.mark.parametrize(
        "height, width, acs",
        [(16, 16, 1), (15, 12, 1), (1, 16, 6), (1, 15, 5), (1, 8, 1)],
        ids=["one-line-acs", "one-line-acs-odd", "one-row", "one-row-odd", "one-row-one-line"],
    )
    def test_one_point_window_axis_weighs_one(self, height, width, acs):
        """A window axis of one point (one ACS line, or a one-row grid)
        weighs that point by 1; the other axis is the Hann window sin^2(pi k/(n-1))."""
        rng = np.random.default_rng(5)
        ksp = KSpaceData(rng.standard_normal((3, 1, height, width))
                         + 1j * rng.standard_normal((3, 1, height, width)))
        mask = equispaced_mask(height, width, 2, acs, 0)

        def hann(n):
            return np.ones(1) if n == 1 else np.sin(np.pi * np.arange(n) / (n - 1)) ** 2

        window = np.zeros((height, width))
        start = (width - acs) // 2
        window[:, start : start + acs] = np.outer(hann(height), hann(acs))
        lowres = ifft2c(window * ksp.data[:, 0])
        mag = np.sqrt(np.sum(np.abs(lowres) ** 2, axis=0))
        support = mag > SUPPORT_THRESHOLD * mag.max()
        maps = estimate_from_acs(ksp, mask)
        assert support.any() and np.array_equal(maps.support, support)
        assert np.allclose(maps.maps, np.where(support, lowres / np.where(support, mag, 1), 0),
                           rtol=0, atol=1e-12)

    def test_dynamic_input_uses_frame_zero(self):
        img, sens, ksp = phantom_kspace(n=32)
        stacked = KSpaceData(np.repeat(ksp.data, 3, axis=1))
        mask = equispaced_mask(32, 32, 2, 12, 0)
        a = estimate_from_acs(ksp, mask)
        b = estimate_from_acs(stacked, mask)
        assert np.allclose(a.maps, b.maps)
