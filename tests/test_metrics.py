import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrecon.metrics import (
    _log_factors,
    UndefinedMetricError,
    dual_domain_loss,
    hfen1,
    log_kernel,
    nmae,
    nmse,
    psnr,
    score_volume,
    ssim,
    ssim3d,
)


def ssim_oracle(u, v, data_range, win=7):
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    vals = []
    for r in range(u.shape[0] - win + 1):
        for c in range(u.shape[1] - win + 1):
            wu = u[r : r + win, c : c + win].ravel()
            wv = v[r : r + win, c : c + win].ravel()
            mu, mv = wu.mean(), wv.mean()
            vu = ((wu - mu) ** 2).mean()
            vv = ((wv - mv) ** 2).mean()
            cov = ((wu - mu) * (wv - mv)).mean()
            vals.append(
                (2 * mu * mv + c1) * (2 * cov + c2) / ((mu**2 + mv**2 + c1) * (vu + vv + c2))
            )
    return float(np.mean(vals))


def ssim3d_oracle(u, v, data_range, win=7):
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    vals = []
    for t in range(u.shape[0] - win + 1):
        for r in range(u.shape[1] - win + 1):
            for c in range(u.shape[2] - win + 1):
                wu = u[t : t + win, r : r + win, c : c + win].ravel()
                wv = v[t : t + win, r : r + win, c : c + win].ravel()
                mu, mv = wu.mean(), wv.mean()
                vu = ((wu - mu) ** 2).mean()
                vv = ((wv - mv) ** 2).mean()
                cov = ((wu - mu) * (wv - mv)).mean()
                vals.append(
                    (2 * mu * mv + c1)
                    * (2 * cov + c2)
                    / ((mu**2 + mv**2 + c1) * (vu + vv + c2))
                )
    return float(np.mean(vals))


def hfen1_oracle(u, v):
    k = log_kernel()
    pad = 7
    up = np.pad(u, pad, mode="symmetric")
    vp = np.pad(v, pad, mode="symmetric")

    def conv(img):
        out = np.zeros_like(u)
        for r in range(u.shape[0]):
            for c in range(u.shape[1]):
                out[r, c] = np.sum(img[r : r + 15, c : c + 15] * k[::-1, ::-1])
        return out

    gu, gv = conv(up), conv(vp)
    return np.abs(gu - gv).sum() / np.abs(gu).sum()


class TestSsim:
    def test_identical_inputs_give_one(self, rng):
        u = rng.random((16, 16))
        assert ssim(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_constant_pair_gives_one(self):
        u = np.full((8, 8), 0.4)
        assert ssim(u, u.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_matches_window_oracle(self, rng):
        u = rng.random((16, 16))
        v = rng.random((16, 16))
        assert ssim(u, v, 1.0) == pytest.approx(ssim_oracle(u, v, 1.0), abs=1e-8)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.ones((5, 5)), np.ones((5, 5)))

    @pytest.mark.parametrize("data_range", [0.0, -1.0])
    def test_nonpositive_data_range_rejected(self, rng, data_range):
        u = rng.random((8, 8))
        with pytest.raises(ValueError, match="data_range must be positive"):
            ssim(u, u, data_range)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_and_bound(self, seed):
        r = np.random.default_rng(seed)
        u = r.random((10, 10))
        v = r.random((10, 10))
        assert ssim(u, v) == pytest.approx(ssim(v, u), abs=1e-12)
        assert ssim(u, v) <= 1 + 1e-12


class TestSsim3d:
    def test_identical_inputs_give_one(self, rng):
        u = rng.random((8, 8, 8))
        assert ssim3d(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_frame_constant_volume_equals_2d(self, rng):
        u2 = rng.random((12, 12))
        v2 = rng.random((12, 12))
        u3 = np.broadcast_to(u2, (8, 12, 12)).copy()
        v3 = np.broadcast_to(v2, (8, 12, 12)).copy()
        assert ssim3d(u3, v3, 1.0) == pytest.approx(ssim(u2, v2, 1.0), abs=1e-6)

    def test_matches_window_oracle(self, rng):
        u = rng.random((8, 8, 8))
        v = rng.random((8, 8, 8))
        assert ssim3d(u, v, 1.0) == pytest.approx(ssim3d_oracle(u, v, 1.0), abs=1e-8)

    def test_short_axis_rejected(self):
        with pytest.raises(ValueError):
            ssim3d(np.ones((3, 8, 8)), np.ones((3, 8, 8)))


class TestHfen1:
    def test_identical_inputs_give_zero(self, rng):
        u = rng.random((32, 32))
        assert hfen1(u, u) == 0.0

    def test_constant_offset_invisible(self, rng):
        u = rng.random((32, 32))
        assert hfen1(u, u + 3.0) == pytest.approx(0.0, abs=1e-10)

    def test_kernel_sums_to_zero(self):
        assert abs(log_kernel().sum()) < 1e-12

    def test_matches_direct_convolution_oracle(self, rng):
        u = rng.random((32, 32))
        v = rng.random((32, 32))
        assert hfen1(u, v) == pytest.approx(hfen1_oracle(u, v), abs=1e-8)

    def test_constant_reference_undefined(self):
        with pytest.raises(UndefinedMetricError):
            hfen1(np.ones((16, 16)), np.random.default_rng(0).random((16, 16)))

    @pytest.mark.parametrize("shape", [(16,), (2, 16, 16)])
    def test_non_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="2D"):
            hfen1(np.ones(shape), np.ones(shape))

    def test_scale_invariance(self, rng):
        u = rng.random((16, 16))
        v = rng.random((16, 16))
        assert hfen1(3.0 * u, 3.0 * v) == pytest.approx(hfen1(u, v), rel=1e-10)


axis_len = st.integers(7, 13)


@st.composite
def image_pairs(draw, ndim, sides=axis_len):
    """(u, v) of one shape with ``sides`` per axis, by default 7 to 13 (odd,
    even, non-square), random or both constant."""
    shape = tuple(draw(st.lists(sides, min_size=ndim, max_size=ndim)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return np.full(shape, r.random()), np.full(shape, r.random())
    return r.random(shape), r.random(shape)


class TestAgainstLoopOracles:
    """The box-sum SSIM windows and the separable LoG equal the dense
    definitions up to round-off, on any grid the metrics accept."""

    @given(pair=image_pairs(2))
    @settings(max_examples=40, deadline=None)
    def test_ssim(self, pair):
        u, v = pair
        assert abs(ssim(u, v, 1.0) - ssim_oracle(u, v, 1.0)) <= 1e-12

    @given(pair=image_pairs(3))
    @settings(max_examples=25, deadline=None)
    def test_ssim3d(self, pair):
        u, v = pair
        assert abs(ssim3d(u, v, 1.0) - ssim3d_oracle(u, v, 1.0)) <= 1e-12

    @given(pair=image_pairs(2))
    @settings(max_examples=40, deadline=None)
    def test_hfen1(self, pair):
        u, v = pair
        if np.ptp(u) == 0:
            with pytest.raises(UndefinedMetricError):
                hfen1(u, v)
        else:
            assert abs(hfen1(u, v) - hfen1_oracle(u, v)) <= 1e-12

    @given(pair=image_pairs(2, st.integers(1, 13)))
    @settings(max_examples=60, deadline=None)
    def test_hfen1_on_grids_smaller_than_the_kernel(self, pair):
        """Sides 1 to 13: the 7-wide reflect padding is wider than the image
        on sides below 7 and must repeat it as symmetric padding does."""
        u, v = pair
        if np.ptp(u) == 0:
            with pytest.raises(UndefinedMetricError):
                hfen1(u, v)
        else:
            assert abs(hfen1(u, v) - hfen1_oracle(u, v)) <= 1e-12

    def test_log_factors_rebuild_the_kernel(self):
        c, g, q, mean = _log_factors()
        rebuilt = c * (np.outer(g, g) - np.outer(q, g) - np.outer(g, q)) - mean
        assert np.abs(rebuilt - log_kernel()).max() <= 1e-15

    def test_ssim3d_peak_memory(self, rng):
        # measured 12 MiB at 12x128^2; the dense window view peaked at 237 MiB
        u, v = rng.random((12, 128, 128)), rng.random((12, 128, 128))
        tracemalloc.start()
        try:
            ssim3d(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestNmae:
    def test_identical_gives_zero(self, rng):
        u = rng.random((8, 8))
        assert nmae(u, u) == 0.0

    def test_zero_prediction_gives_one(self, rng):
        u = rng.random((8, 8)) + 1j * rng.random((8, 8))
        assert nmae(u, np.zeros_like(u)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_oracle(self, rng):
        u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        expected = sum(abs(a - b) for a, b in zip(u.ravel(), v.ravel())) / sum(
            abs(a) for a in u.ravel()
        )
        assert nmae(u, v) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self, rng):
        u = rng.random((8, 8)) + 0.1
        v = rng.random((8, 8))
        assert nmae(2.5 * u, 2.5 * v) == pytest.approx(nmae(u, v), rel=1e-12)

    def test_zero_reference_undefined(self):
        with pytest.raises(UndefinedMetricError):
            nmae(np.zeros((4, 4)), np.ones((4, 4)))


class TestNmse:
    def test_identical_gives_zero(self, rng):
        u = rng.random((8, 8))
        assert nmse(u, u) == 0.0

    def test_zero_prediction_gives_one(self, rng):
        u = rng.random((8, 8))
        assert nmse(u, np.zeros_like(u)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_oracle(self, rng):
        u = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8))
        expected = np.sum((u - v) ** 2) / np.sum(u**2)
        assert nmse(u, v) == pytest.approx(expected, abs=1e-12)

    def test_zero_reference_undefined(self):
        with pytest.raises(UndefinedMetricError):
            nmse(np.zeros((4, 4)), np.ones((4, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(4, 4\) vs \(4, 5\)"):
            nmse(np.ones((4, 4)), np.ones((4, 5)))


class TestPsnr:
    def test_uniform_error_closed_form(self):
        u = np.zeros((8, 8))
        e, d = 0.05, 2.0
        assert psnr(u, u + e, d) == pytest.approx(20 * np.log10(d / e))

    def test_doubling_range_adds_6db(self, rng):
        u = rng.random((8, 8))
        v = rng.random((8, 8))
        assert psnr(u, v, 2.0) - psnr(u, v, 1.0) == pytest.approx(20 * np.log10(2))

    def test_identical_gives_infinity(self, rng):
        u = rng.random((8, 8))
        assert psnr(u, u, 1.0) == float("inf")

    def test_matches_scalar_oracle(self, rng):
        u = rng.random((8, 8))
        v = rng.random((8, 8))
        mse = np.mean((u - v) ** 2)
        assert psnr(u, v, 1.5) == pytest.approx(10 * np.log10(1.5**2 / mse), abs=1e-9)

    @pytest.mark.parametrize("data_range", [0.0, -1.0])
    def test_nonpositive_data_range_rejected(self, rng, data_range):
        u = rng.random((8, 8))
        with pytest.raises(ValueError, match="data_range must be positive"):
            psnr(u, u + 0.1, data_range)


@pytest.mark.parametrize(
    "data_range", [float("nan"), float("inf"), np.float32("nan")], ids=["nan", "inf", "float32-nan"]
)
@pytest.mark.parametrize(
    "metric, shape",
    [(ssim, (8, 8)), (ssim3d, (7, 8, 8)), (psnr, (8, 8))],
    ids=["ssim", "ssim3d", "psnr"],
)
def test_non_finite_data_range_rejected(rng, metric, shape, data_range):
    """A NaN or infinite data range raises ValueError rather than giving a NaN
    or infinite score."""
    u = rng.random(shape)
    with pytest.raises(ValueError, match="data_range must be positive"):
        metric(u, u + 0.1, data_range)


class TestDualDomainLoss:
    def test_exact_agreement_gives_zero(self, rng):
        x = rng.random((16, 16))
        y = rng.standard_normal((2, 1, 16, 16)) + 1j * rng.standard_normal((2, 1, 16, 16))
        assert dual_domain_loss(x, x.copy(), y, y.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_matches_component_sum(self, rng):
        x, xp = rng.random((16, 16)), rng.random((16, 16))
        y = rng.standard_normal((2, 1, 16, 16)) + 1j * rng.standard_normal((2, 1, 16, 16))
        yp = y + 0.1 * rng.standard_normal((2, 1, 16, 16))
        d = float(x.max())
        expected = (
            (1 - ssim(x, xp, d))
            + np.abs(x - xp).sum()
            + hfen1(x, xp)
            + 3.0 * nmae(y, yp)
        )
        got = dual_domain_loss(x, xp, y, yp)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_multiframe_includes_ssim3d(self, rng):
        x = rng.random((8, 16, 16))
        xp = x + 0.05 * rng.random((8, 16, 16))
        y = rng.standard_normal((1, 8, 16, 16)) + 0.5
        yp = y + 0.1
        d = float(x.max())
        expected = (
            np.mean([1 - ssim(x[t], xp[t], d) for t in range(8)])
            + np.abs(x - xp).sum()
            + np.mean([hfen1(x[t], xp[t]) for t in range(8)])
            + (1 - ssim3d(x, xp, d))
            + 3.0 * nmae(y, yp)
        )
        got = dual_domain_loss(x, xp, y, yp)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_fewer_frames_than_the_window_leave_out_ssim3d(self, rng):
        x = rng.random((3, 16, 16))
        xp = x + 0.05 * rng.random((3, 16, 16))
        y = rng.standard_normal((1, 3, 16, 16)) + 0.5
        yp = y + 0.1
        d = float(x.max())
        expected = (
            np.mean([1 - ssim(x[t], xp[t], d) for t in range(3)])
            + np.abs(x - xp).sum()
            + np.mean([hfen1(x[t], xp[t]) for t in range(3)])
            + 3.0 * nmae(y, yp)
        )
        assert dual_domain_loss(x, xp, y, yp) == pytest.approx(expected, abs=1e-8)


class TestScoreVolume:
    def test_frame_range_scores_frames_on_their_own_peak_and_the_loss_on_the_volume(self, rng):
        """With frame_range each frame's ssim and psnr rows use that frame's
        maximum, while the loss row stays dual_domain_loss's, which scores
        every frame on the volume's maximum."""
        peaks = np.linspace(1.0, 0.25, 7)
        x = rng.random((7, 16, 16)) * peaks[:, None, None]
        xp = x + 0.02 * rng.standard_normal(x.shape)
        y = rng.standard_normal((2, 7, 16, 16)) + 1j * rng.standard_normal((2, 7, 16, 16))
        yp = y + 0.1 * rng.standard_normal(y.shape)
        rows = score_volume(x, xp, y, yp, frame_range=True)
        got = {(frame, metric): value for frame, metric, value in rows}
        for t in range(7):
            peak = float(x[t].max())
            assert got[(t, "ssim")] == pytest.approx(ssim(x[t], xp[t], peak), abs=1e-12)
            assert got[(t, "psnr")] == pytest.approx(psnr(x[t], xp[t], peak), abs=1e-9)
        assert got[(6, "ssim")] != pytest.approx(ssim(x[6], xp[6], float(x.max())), abs=1e-6)
        assert got[("all", "ssim3d")] == pytest.approx(ssim3d(x, xp, float(x.max())), abs=1e-12)
        loss = dual_domain_loss(x, xp, y, yp)
        assert got[("all", "dual_domain_loss")] == pytest.approx(loss, rel=1e-12, abs=1e-12)
        assert [metric for _, metric, _ in rows[-3:]] == ["ssim3d", "nmae", "dual_domain_loss"]

    def test_without_kspace_only_image_rows(self, rng):
        x = rng.random((2, 16, 16))
        rows = score_volume(x, x + 0.01)
        assert [(frame, metric) for frame, metric, _ in rows] == [
            (t, m) for t in range(2) for m in ("ssim", "nmse", "psnr", "hfen1")
        ]
