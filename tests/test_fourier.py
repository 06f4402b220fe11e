import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ALL_SCHEMES, dft2c_oracle, make_mask, random_sens
from mcrecon.core import RECTILINEAR_SCHEMES
from mcrecon.fourier import (
    GRAM_MAX_SIDE,
    GRAM_MIN_FRAMES,
    ForwardOperator,
    fft2c,
    ifft2c,
)
from mcrecon import sampling
from mcrecon.sampling import full_mask
from mcrecon.solver import AdmmConfig, RowGramSteps, dc_gradient, dc_objective


def rand_image(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestFft2c:
    def test_centered_delta_gives_constant(self):
        n = 8
        x = np.zeros((n, n), dtype=complex)
        x[n // 2, n // 2] = 1.0
        assert np.allclose(fft2c(x), 1.0 / n, atol=1e-12)

    def test_constant_concentrates_at_dc(self):
        n = 8
        c = 3.5
        k = fft2c(np.full((n, n), c, dtype=complex))
        assert k[n // 2, n // 2] == pytest.approx(c * n)
        off = k.copy()
        off[n // 2, n // 2] = 0
        assert np.abs(off).max() < 1e-10

    def test_parseval(self, rng):
        x = rand_image(rng, 16, 16)
        assert np.linalg.norm(fft2c(x)) == pytest.approx(np.linalg.norm(x), rel=1e-10)

    def test_matches_direct_dft_oracle(self, rng):
        x = rand_image(rng, 8, 8)
        assert np.allclose(fft2c(x), dft2c_oracle(x), atol=1e-10)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            fft2c(np.zeros((0, 4)))


class TestIfft2c:
    def test_roundtrip(self, rng):
        x = rand_image(rng, 8, 8)
        assert np.allclose(ifft2c(fft2c(x)), x, rtol=1e-10, atol=1e-12)

    def test_zero_kspace_gives_zero_image(self):
        assert np.all(ifft2c(np.zeros((8, 8), dtype=complex)) == 0)

    def test_matches_direct_inverse_oracle(self, rng):
        k = rand_image(rng, 8, 8)
        assert np.allclose(ifft2c(k), dft2c_oracle(k, inverse=True), atol=1e-9)


def composition_oracle(mask, sens, x):
    """Independent forward composition: S-multiply, direct DFT, mask."""
    out = np.zeros((sens.n_coils,) + x.shape, dtype=complex)
    for k in range(sens.n_coils):
        for t in range(x.shape[0]):
            out[k, t] = mask.pattern * dft2c_oracle(sens.maps[k] * x[t])
    return out


class TestForwardAdjoint:
    def test_full_mask_single_coil_identity_sens_is_fft(self, rng):
        x = rand_image(rng, 1, 8, 8)
        sens = random_sens(rng, 1, 8, 8)
        sens_id = type(sens)(maps=np.ones((1, 8, 8), dtype=complex))
        op = ForwardOperator(mask=full_mask(8, 8), sens=sens_id)
        y = op.apply_arr(x)
        assert np.allclose(y[0], fft2c(x), atol=1e-12)

    def test_zero_image_maps_to_zero(self, rng):
        sens = random_sens(rng, 3, 8, 8)
        op = ForwardOperator(mask=make_mask("equispaced", 8, 8, 2, 0), sens=sens)
        y = op.apply_arr(np.zeros((1, 8, 8), dtype=complex))
        assert np.all(y == 0)

    def test_matches_composition_oracle(self, rng):
        x = rand_image(rng, 1, 8, 8)
        sens = random_sens(rng, 3, 8, 8)
        mask = make_mask("equispaced", 8, 8, 2, 3)
        op = ForwardOperator(mask=mask, sens=sens)
        y = op.apply_arr(x)
        assert np.allclose(y, composition_oracle(mask, sens, x), atol=1e-9)

    def test_unsampled_locations_exactly_zero(self, rng):
        x = rand_image(rng, 1, 8, 8)
        sens = random_sens(rng, 2, 8, 8)
        mask = make_mask("gaussian2d", 8, 8, 4, 5)
        y = ForwardOperator(mask=mask, sens=sens).apply_arr(x)
        assert np.all(y[:, :, mask.pattern == 0] == 0)

    def test_adjoint_of_zero_is_zero(self, rng):
        sens = random_sens(rng, 2, 8, 8)
        op = ForwardOperator(mask=full_mask(8, 8), sens=sens)
        x = op.adjoint_arr(np.zeros((2, 1, 8, 8), dtype=complex))
        assert np.all(x == 0)

    def test_adjoint_full_single_identity_is_ifft(self, rng):
        y = rand_image(rng, 1, 1, 8, 8)
        sens = random_sens(rng, 1, 8, 8)
        sens_id = type(sens)(maps=np.ones((1, 8, 8), dtype=complex))
        op = ForwardOperator(mask=full_mask(8, 8), sens=sens_id)
        x = op.adjoint_arr(y)
        assert np.allclose(x, ifft2c(y[0]), atol=1e-12)

    def test_dot_product_adjoint_identity(self, rng):
        sens = random_sens(rng, 2, 8, 8)
        mask = make_mask("equispaced", 8, 8, 4, 1)
        op = ForwardOperator(mask=mask, sens=sens)
        x = rand_image(rng, 1, 8, 8)
        y = rand_image(rng, 2, 1, 8, 8)
        lhs = np.vdot(y, op.apply_arr(x))
        rhs = np.vdot(op.adjoint_arr(y), x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_adjoint_identity_across_schemes(self, rng, scheme):
        for size in (4, 8, 16):
            for n_coils in (1, 2, 4):
                sens = random_sens(rng, n_coils, size, size)
                mask = make_mask(scheme, size, size, 2, 7)
                op = ForwardOperator(mask=mask, sens=sens)
                x = rand_image(rng, 1, size, size)
                y = rand_image(rng, n_coils, 1, size, size)
                lhs = np.vdot(y, op.apply_arr(x))
                rhs = np.vdot(op.adjoint_arr(y), x)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_gram_is_psd(self, rng):
        sens = random_sens(rng, 3, 8, 8)
        mask = make_mask("pseudo-radial", 8, 8, 4, 2)
        op = ForwardOperator(mask=mask, sens=sens)
        y = rand_image(rng, 3, 1, 8, 8)
        aay = op.apply_arr(op.adjoint_arr(y))
        inner = np.vdot(y, aay)
        assert inner.real >= -1e-12
        assert abs(inner.imag) < 1e-9 * abs(inner.real + 1e-30)

    def test_full_mask_normal_operator_is_identity_on_support(self, rng):
        sens = random_sens(rng, 4, 8, 8)
        op = ForwardOperator(mask=full_mask(8, 8), sens=sens)
        x = rand_image(rng, 1, 8, 8)
        back = op.adjoint_arr(op.apply_arr(x))
        assert np.allclose(back, x, rtol=1e-9, atol=1e-11)

    def test_operator_norm_at_most_one(self, rng):
        sens = random_sens(rng, 3, 12, 12)
        mask = make_mask("random-rectilinear", 12, 12, 3, 1)
        op = ForwardOperator(mask=mask, sens=sens)
        x = rand_image(rng, 1, 12, 12)
        for _ in range(50):  # power iteration on A^H A
            x = op.adjoint_arr(op.apply_arr(x))
            x /= np.linalg.norm(x)
        lam = np.vdot(x, op.adjoint_arr(op.apply_arr(x))).real
        assert lam <= 1.0 + 1e-3

    def test_operator_grid_mismatch_rejected(self, rng):
        sens = random_sens(rng, 2, 8, 8)
        with pytest.raises(ValueError):
            ForwardOperator(mask=full_mask(4, 4), sens=sens)


class TestOperatorProperties:
    """Odd, non-square and multi-frame grids: a wrong phase ramp or column
    gather shows here, not on the square even grids above."""

    @settings(max_examples=150, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(sampling.GENERATORS) + ["full"]),
        accel=st.sampled_from([1, 2, 3.3]),
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        n_frames=st.integers(1, 3),
        n_coils=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_matches_oracle_and_is_adjoint(
        self, scheme, accel, height, width, n_frames, n_coils, seed
    ):
        rng = np.random.default_rng(seed)
        if scheme == "full":
            mask = full_mask(height, width)
        else:
            mask = sampling.make_mask(scheme, height, width, accel, seed, acs_lines=2)
        sens = random_sens(rng, n_coils, height, width)
        op = ForwardOperator(mask=mask, sens=sens)
        x = rand_image(rng, n_frames, height, width)
        y = rand_image(rng, n_coils, n_frames, height, width)

        ax = op.apply_arr(x)
        want = composition_oracle(mask, sens, x)
        assert ax.dtype == np.complex128
        assert np.abs(ax - want).max() <= 1e-10 * np.abs(want).max()
        assert np.all(ax[:, :, mask.pattern == 0] == 0)

        ahy = op.adjoint_arr(y)
        assert ahy.dtype == np.complex128 and ahy.shape == x.shape
        # |<y, Ax> - <A^H y, x>| relative to the Cauchy-Schwarz bound (||A|| <= 1)
        gap = abs(np.vdot(y, ax) - np.vdot(ahy, x))
        assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(sorted(sampling.GENERATORS) + ["full"]),
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        n_frames=st.integers(1, 3),
        n_coils=st.integers(1, 3),
        dtype=st.sampled_from([np.complex128, np.complex64]),
        seed=st.integers(0, 2**16),
    )
    def test_inputs_are_left_unchanged(
        self, scheme, height, width, n_frames, n_coils, dtype, seed
    ):
        """apply_arr and adjoint_arr transform in place over buffers of their
        own: the caller's x and y keep every byte, on the 2D FFT path and on
        the column path of a rectilinear mask."""
        rng = np.random.default_rng(seed)
        if scheme == "full":
            mask = full_mask(height, width)
        else:
            mask = sampling.make_mask(scheme, height, width, 2, seed, acs_lines=2)
        op = ForwardOperator(mask=mask, sens=random_sens(rng, n_coils, height, width), dtype=dtype)
        y = rand_image(rng, n_coils, n_frames, height, width).astype(dtype)
        ops = [(op, y)]
        if scheme in RECTILINEAR_SCHEMES:
            ops.append(op.for_data_consistency(y))
        for o, data in ops:
            x = rand_image(rng, n_frames, height, width).astype(dtype)
            for fn, arg in ((o.apply_arr, x), (o.adjoint_arr, data)):
                before = arg.tobytes()
                fn(arg)
                assert arg.tobytes() == before


class TestDataConsistencyOperator:
    """``for_data_consistency`` on rectilinear masks gives an operator B onto
    the K sampled columns and the sampled columns of F_h^H y, with the
    gradient of A and y, the objective less y's off-mask part, and B^H the
    adjoint of B, on odd, even and non-square grids; point masks keep A
    and y."""

    @settings(max_examples=150, deadline=None)
    @given(
        scheme=st.sampled_from(RECTILINEAR_SCHEMES),
        accel=st.sampled_from([1, 2, 3.3]),
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        n_frames=st.integers(1, 3),
        n_coils=st.integers(1, 3),
        dtype=st.sampled_from([np.complex128, np.complex64]),
        seed=st.integers(0, 2**16),
    )
    def test_rectilinear_gradient_and_objective_agree(
        self, scheme, accel, height, width, n_frames, n_coils, dtype, seed
    ):
        rng = np.random.default_rng(seed)
        mask = sampling.make_mask(scheme, height, width, accel, seed, acs_lines=2)
        op = ForwardOperator(mask=mask, sens=random_sens(rng, n_coils, height, width), dtype=dtype)
        x, w, m = (rand_image(rng, n_frames, height, width).astype(dtype) for _ in range(3))
        # y off the mask too: the gradient identity holds for any y
        y = rand_image(rng, n_coils, n_frames, height, width).astype(dtype)
        op_dc, y_dc = op.for_data_consistency(y)
        assert type(op_dc) is ForwardOperator and op_dc is not op
        cols = np.flatnonzero(mask.pattern[0])
        assert y_dc.dtype == dtype and y_dc.shape == y.shape[:-1] + (cols.size,)
        tol = 1e-10 if dtype == np.complex128 else 1e-5

        # B x is A x taken back along the height, at the sampled columns
        bx, ax = op_dc.apply_arr(x), op.apply_arr(x)
        row_image = np.fft.fftshift(
            np.fft.ifft(np.fft.ifftshift(ax, axes=-2), axis=-2, norm="ortho"), axes=-2
        )
        assert bx.dtype == dtype and bx.shape == y_dc.shape
        assert np.abs(bx - row_image[..., cols]).max() <= tol * np.abs(ax).max()

        want = op.adjoint_arr(ax - y)
        got = op_dc.adjoint_arr(bx - y_dc)
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

        # ||B x - y_dc||^2 == ||A x - y||^2 - ||(1 - M) y||^2
        off_mask_sq = np.vdot(y, (1 - mask.pattern) * y).real
        assert np.vdot(bx - y_dc, bx - y_dc).real == pytest.approx(
            np.vdot(ax - y, ax - y).real - off_mask_sq, rel=tol
        )
        lam = 0.3
        assert dc_objective(x, w, m, y_dc, op_dc, lam) == pytest.approx(
            dc_objective(x, w, m, y, op, lam) - 0.5 * off_mask_sq, rel=tol
        )

        # <B x, r> == <x, B^H r>, relative to the Cauchy-Schwarz bound (||B|| <= 1)
        r = rand_image(rng, *bx.shape).astype(dtype)
        bhr = op_dc.adjoint_arr(r)
        assert bhr.dtype == dtype and bhr.shape == x.shape
        gap = abs(np.vdot(r, bx) - np.vdot(bhr, x))
        assert gap <= tol * np.linalg.norm(x) * np.linalg.norm(r)

    @settings(max_examples=100, deadline=None)
    @given(
        scheme=st.sampled_from(RECTILINEAR_SCHEMES),
        accel=st.sampled_from([1, 2, 3.3]),
        height=st.integers(3, 24),
        width=st.integers(3, 24),
        extra_frames=st.integers(0, 2),
        n_coils=st.integers(1, 3),
        dtype=st.sampled_from([np.complex128, np.complex64]),
        seed=st.integers(0, 2**16),
    )
    def test_row_gram_gradient_equals_the_column_gradient(
        self, scheme, accel, height, width, extra_frames, n_coils, dtype, seed
    ):
        """GRAM_MIN_FRAMES or more frames give the row Gram form: N
        (row, col, col) and b = B^H y_dc (row, frame, col) in complex128 with
        x N - b + lam (x - w) + m equal to dc_gradient through apply_arr /
        adjoint_arr, N Hermitian, and RowGramSteps' step matrix
        (1 - s lam) I - s N for its config, cast once to the solve's dtype."""
        rng = np.random.default_rng(seed)
        n_frames = GRAM_MIN_FRAMES + extra_frames
        mask = sampling.make_mask(scheme, height, width, accel, seed, acs_lines=2)
        op = ForwardOperator(mask=mask, sens=random_sens(rng, n_coils, height, width), dtype=dtype)
        x, w, m = (rand_image(rng, n_frames, height, width).astype(dtype) for _ in range(3))
        y = rand_image(rng, n_coils, n_frames, height, width).astype(dtype)
        step, lam = 0.7, 0.3
        normal, b = op.row_gram(y)
        cfg = AdmmConfig(T=1, inner_iters=1, lam=lam, step_size=step)
        gram = RowGramSteps(normal, b, cfg, op.dtype)
        assert gram.normal is normal and gram.b is b and gram.cfg is cfg
        assert (gram.cfg.step_size, gram.cfg.lam) == (step, lam)
        assert normal.dtype == b.dtype == np.complex128 and gram.step.dtype == dtype
        assert normal.shape == (height, width, width) == gram.step.shape
        assert b.shape == (height, n_frames, width)
        assert np.allclose(normal, normal.conj().transpose(0, 2, 1), rtol=0, atol=1e-14)
        eye = np.eye(width)
        assert np.array_equal(gram.step, ((1 - step * lam) * eye - step * normal).astype(dtype))

        def rows(a):
            return a.transpose(1, 0, 2).astype(np.complex128)

        got = (rows(x) @ normal - b + lam * (rows(x) - rows(w)) + rows(m)).transpose(1, 0, 2)
        op_dc, y_dc = op.for_data_consistency(y)
        want = dc_gradient(x, w, m, y_dc, op_dc, lam)
        tol = 1e-10 if dtype == np.complex128 else 1e-5
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        # fewer frames keep the column-DFT operator
        few = y[:, : GRAM_MIN_FRAMES - 1]
        assert op.row_gram(few) is None
        assert type(op.for_data_consistency(few)[0]) is ForwardOperator
        assert type(op_dc) is ForwardOperator

    @pytest.mark.parametrize(
        "height, width, gram",
        [(2, GRAM_MAX_SIDE, True), (GRAM_MAX_SIDE, 2, True),
         (2, GRAM_MAX_SIDE + 1, False), (GRAM_MAX_SIDE + 1, 2, False)],
    )
    def test_grids_past_the_measured_side_keep_the_column_path(self, rng, height, width, gram):
        """The row Gram path holds H * W^2 entries of N and Q, so with
        GRAM_MIN_FRAMES frames it is taken only on grids of at most
        GRAM_MAX_SIDE rows and columns; a wider or taller grid keeps the
        column-DFT operator."""
        mask = make_mask("equispaced", height, width, 1, 0)
        op = ForwardOperator(mask=mask, sens=random_sens(rng, 1, height, width))
        y = rand_image(rng, 1, GRAM_MIN_FRAMES, height, width)
        assert (op.row_gram(y) is not None) == gram

    @pytest.mark.parametrize("scheme", ["gaussian2d", "pseudo-radial", "pseudo-spiral", "full"])
    def test_point_masks_keep_the_operator_and_data(self, rng, scheme):
        op = ForwardOperator(mask=make_mask(scheme, 10, 12, 2, 3), sens=random_sens(rng, 2, 10, 12))
        y = rand_image(rng, 2, 1, 10, 12)
        op_dc, y_dc = op.for_data_consistency(y)
        assert op_dc is op and y_dc is y
        many = rand_image(rng, 2, GRAM_MIN_FRAMES, 10, 12)
        op_dc, y_dc = op.for_data_consistency(many)
        assert op_dc is op and y_dc is many
        assert op.row_gram(y) is None and op.row_gram(many) is None
