import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrecon.core import (
    ComplexImage,
    KSpaceData,
    SamplingMask,
    SensitivityMaps,
    rss,
)
from mcrecon.sampling import make_mask


def rand_coils(rng, n_coils, h, w):
    return rng.standard_normal((n_coils, h, w)) + 1j * rng.standard_normal((n_coils, h, w))


class TestRss:
    def test_single_coil_is_magnitude(self):
        u = np.full((1, 5, 5), 2.0 * np.exp(1j * 0.7))
        assert np.allclose(rss(u), 2.0)

    def test_three_four_five(self):
        u = np.zeros((2, 3, 3), dtype=complex)
        u[0, 1, 1] = 3.0
        u[1, 1, 1] = 4.0
        assert rss(u)[1, 1] == pytest.approx(5.0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        u = rand_coils(rng, 4, 8, 8)
        out = rss(u)
        for r in range(8):
            for c in range(8):
                expected = np.sqrt(sum(abs(u[k, r, c]) ** 2 for k in range(4)))
                assert out[r, c] == pytest.approx(expected, rel=1e-12)

    def test_empty_coil_axis_rejected(self):
        with pytest.raises(ValueError):
            rss(np.zeros((0, 4, 4)))

    @given(theta=st.floats(-np.pi, np.pi), coil=st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_per_coil_phase_invariance(self, theta, coil):
        rng = np.random.default_rng(42)
        u = rand_coils(rng, 3, 6, 6)
        rotated = u.copy()
        rotated[coil] *= np.exp(1j * theta)
        assert np.allclose(rss(rotated), rss(u), rtol=1e-12, atol=1e-12)

    def test_zero_exactly_where_all_coils_zero(self):
        u = np.zeros((3, 4, 4), dtype=complex)
        u[:, 1, 1] = [1.0, 0.0, 2.0]
        out = rss(u)
        assert out[1, 1] > 0
        assert np.all(out[out != out[1, 1]] == 0)


class TestComplexImage:
    def test_frame_axis_always_present(self):
        img = ComplexImage(np.ones((4, 4)))
        assert img.data.shape == (1, 4, 4)
        assert img.n_frames == 1

    def test_rejects_nonfinite(self):
        bad = np.ones((4, 4), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            ComplexImage(bad)

    def test_immutable(self):
        img = ComplexImage(np.ones((4, 4)))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 2.0

    @pytest.mark.parametrize(
        "cls, shape, message",
        [
            (ComplexImage, (4,), "image data must be 2D or 3D, got shape (4,)"),
            (ComplexImage, (1, 1, 4, 4), "image data must be 2D or 3D"),
            (KSpaceData, (4, 4), "k-space data must be 3D or 4D, got shape (4, 4)"),
            (SensitivityMaps, (1, 1, 4, 4), "sensitivity maps data must be 3D"),
        ],
    )
    def test_container_of_the_wrong_rank_rejected(self, cls, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(np.ones(shape))


class TestKSpaceData:
    def test_coil_frame_axes(self):
        y = KSpaceData(np.ones((2, 4, 4)))
        assert (y.n_coils, y.n_frames, y.height, y.width) == (2, 1, 4, 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KSpaceData(np.ones((0, 1, 4, 4)))


class TestSamplingMask:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            SamplingMask(np.full((4, 4), 2), "full", 1.0)

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            SamplingMask(np.zeros((4, 4)), "gaussian2d", 4.0)

    @pytest.mark.parametrize("shape", [(4,), (1, 4, 4), (0, 4), (4, 0)])
    def test_pattern_must_be_2d_and_nonempty(self, shape):
        with pytest.raises(ValueError, match="mask pattern must be 2D and nonempty"):
            SamplingMask(np.ones(shape), "full", 1.0)

    def test_rectilinear_column_constancy_enforced(self):
        p = np.zeros((4, 4))
        p[0, 0] = 1
        with pytest.raises(ValueError):
            SamplingMask(p, "equispaced", 4.0)

    def test_full_scheme_must_sample_everything(self):
        p = np.zeros((4, 4))
        p[:, 1] = 1  # 4 of 16 locations, columns constant
        with pytest.raises(ValueError, match="'full' mask must sample every location"):
            SamplingMask(p, "full", 1.0)
        assert SamplingMask(p, "equispaced", 4.0).n_sampled == 4

    def test_acs_columns_must_be_full(self):
        p = np.zeros((4, 8))
        p[:, 0] = 1
        with pytest.raises(ValueError):
            SamplingMask(p, "equispaced", 4.0, acs_lines=2)

    @pytest.mark.parametrize("accel", [0.0, -2.0, float("nan"), float("inf"), 0.5, 0.999])
    def test_nominal_acceleration_must_be_finite_and_positive(self, accel):
        with pytest.raises(ValueError, match="nominal acceleration"):
            SamplingMask(np.ones((4, 4)), "full", accel)

    def test_nominal_acceleration_one_must_sample_everything(self):
        p = np.zeros((4, 4))
        p[0] = 1  # 4 of 16 locations, achieved R = 4
        with pytest.raises(ValueError, match="nominal acceleration 1 must sample every"):
            SamplingMask(p, "pseudo-radial", 1.0)
        assert SamplingMask(np.ones((4, 4)), "pseudo-radial", 1.0).n_sampled == 16
        # a nominal R above 1 is not tied to the achieved one: R4 with 24 ACS
        # lines on 64 columns samples 24 columns, R = 2.67
        assert make_mask("equispaced", 8, 64, 4, 1, acs_lines=24).n_sampled == 8 * 24

    @pytest.mark.parametrize(
        "fields", [{"acs_lines": -1}, {"acs_radius": -1}, {"acs_lines": 5}, {"acs_radius": 5}]
    )
    def test_acs_extent_must_fit_the_grid(self, fields):
        with pytest.raises(ValueError, match="must be in"):
            SamplingMask(np.ones((4, 4)), "equispaced", 1.0, **fields)

    def test_acs_disc_must_be_full(self):
        p = np.zeros((9, 9))
        p[3:6, 3:6] = 1  # covers the radius-1 disc around (4, 4), not radius 2
        assert SamplingMask(p, "gaussian2d", 9.0, acs_radius=1).acs_radius == 1
        p[4, 5] = 0
        with pytest.raises(ValueError, match="ACS disc"):
            SamplingMask(p, "gaussian2d", 9.0, acs_radius=1)
        p[4, 5] = 1
        with pytest.raises(ValueError, match="ACS disc"):
            SamplingMask(p, "gaussian2d", 9.0, acs_radius=2)


class TestSensitivityMaps:
    def test_normalization_enforced(self):
        maps = np.full((2, 4, 4), 1.0, dtype=complex)
        with pytest.raises(ValueError):
            SensitivityMaps(maps=maps)

    def test_valid_maps_accepted(self):
        maps = np.full((2, 4, 4), 1 / np.sqrt(2), dtype=complex)
        s = SensitivityMaps(maps=maps)
        assert s.support.all()

    def test_support_is_the_nonzero_pattern(self):
        maps = np.full((2, 4, 4), 1 / np.sqrt(2), dtype=complex)
        maps[:, 0, :3] = 0
        maps[0, 1, 1] = 0
        maps[1, 1, 1] = 1
        want = np.ones((4, 4), bool)
        want[0, :3] = False
        assert np.array_equal(SensitivityMaps(maps).support, want)
        with pytest.raises(TypeError):
            SensitivityMaps(maps, want)
