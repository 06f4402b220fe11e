import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ALL_SCHEMES, dft2c_oracle, make_mask, random_sens
from mcrecon.core import RECTILINEAR_SCHEMES, KSpaceData
from mcrecon.fourier import ColumnOperator, ForwardOperator, fft2c, for_data_consistency, ifft2c
from mcrecon import sampling
from mcrecon.sampling import full_mask
from mcrecon.solver import (
    GRAM_MAX_SIDE,
    GRAM_MIN_ITERS,
    AdmmConfig,
    RowGramSteps,
    admm_reconstruct,
    dc_objective,
)


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
        sens = random_sens(rng, n_coils, height, width)
        op = ForwardOperator(mask=mask, sens=sens, dtype=dtype)
        y = rand_image(rng, n_coils, n_frames, height, width).astype(dtype)
        ops = [(op, y)]
        if scheme in RECTILINEAR_SCHEMES:
            ops.append(for_data_consistency(y, mask, sens))
        for o, data in ops:
            x = rand_image(rng, n_frames, height, width).astype(dtype)
            for fn, arg in ((o.apply_arr, x), (o.adjoint_arr, data)):
                before = arg.tobytes()
                fn(arg)
                assert arg.tobytes() == before


def heightwise(k):
    """F_h^H k: the centred unitary inverse transform along the height (axis -2)."""
    k = np.fft.ifft(np.fft.ifftshift(k, axes=-2), axis=-2, norm="ortho")
    return np.fft.fftshift(k, axes=-2)


def box_rows(sens):
    """The rows of the bounding box of the maps' support; every row for an
    empty support."""
    rows = np.flatnonzero(sens.support.any(axis=1))
    return np.arange(rows[0], rows[-1] + 1) if rows.size else np.arange(sens.height)


class TestDataConsistencyOperator:
    """``for_data_consistency(y, mask, sens)`` on rectilinear masks gives an
    operator B from the bounding box of the maps' support onto the K sampled
    columns, and the sampled columns of F_h^H y in the box's rows, with the
    gradient of A and y, the objective less y's off-mask part and its rows
    outside the box, and B^H the adjoint of B, on odd, even and non-square
    grids, for maps with full support and for maps zero outside a random box
    with holes inside; point masks get A and y. B checks its inputs as A
    does."""

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(RECTILINEAR_SCHEMES),
        accel=st.sampled_from([1, 2, 3.3]),
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        n_frames=st.integers(1, 3),
        n_coils=st.integers(1, 3),
        dtype=st.sampled_from([np.complex128, np.complex64]),
        boxed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(scheme="equispaced", accel=2, height=7, width=3, n_frames=1, n_coils=1,
             dtype=np.complex64, boxed=True, seed=68)
    def test_rectilinear_gradient_and_objective_agree(
        self, scheme, accel, height, width, n_frames, n_coils, dtype, boxed, seed
    ):
        rng = np.random.default_rng(seed)
        mask = sampling.make_mask(scheme, height, width, accel, seed, acs_lines=2)
        sens = random_sens(rng, n_coils, height, width, boxed)
        op = ForwardOperator(mask=mask, sens=sens, dtype=dtype)
        x, w, m = (rand_image(rng, n_frames, height, width).astype(dtype) for _ in range(3))
        # y off the mask too: the gradient identity holds for any y
        y = rand_image(rng, n_coils, n_frames, height, width).astype(dtype)
        op_dc, y_dc = for_data_consistency(y, mask, sens)
        assert type(op_dc) is ColumnOperator and op_dc.dtype == dtype
        cols = np.flatnonzero(mask.pattern[0])
        assert np.array_equal(op_dc.cols, cols)
        rows = box_rows(sens)
        # y_dc holds the box's rows of F_h^H y at the sampled columns
        y_rows = heightwise(y)[..., cols]
        assert y_dc.dtype == dtype and y_dc.shape == y.shape[:-2] + (rows.size, cols.size)
        assert y_dc.flags.c_contiguous
        tol = 1e-10 if dtype == np.complex128 else 1e-5
        assert np.abs(y_dc - y_rows[..., rows, :]).max() <= tol * np.abs(y_rows).max()
        # the column operator holds its box maps and D, and their conjugates,
        # contiguous in the solve's dtype
        held = [op_dc._maps, op_dc._maps_conj, op_dc._dft, op_dc._dft_conj]
        assert all(a.flags.c_contiguous and a.dtype == dtype for a in held)
        assert op_dc._maps.shape == (n_coils, rows.size, op_dc._dft.shape[0])
        assert op_dc._dft.shape[1] == cols.size

        # B x is A x taken back along the height, at the box's rows and the
        # sampled columns; A x taken back is zero on the other rows
        bx, ax = op_dc.apply_arr(x), op.apply_arr(x)
        row_image = heightwise(ax)[..., cols]
        assert bx.dtype == dtype and bx.shape == y_dc.shape
        assert np.abs(bx - row_image[..., rows, :]).max() <= tol * np.abs(ax).max()
        outside = np.delete(row_image, rows, axis=-2)
        assert np.abs(outside).max(initial=0) <= tol * np.abs(ax).max()

        want = op.adjoint_arr(ax - y)
        got = op_dc.adjoint_arr(bx - y_dc)
        assert got.dtype == dtype and got.shape == x.shape
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        assert not got[:, ~sens.support].any()

        # ||B x - y_dc||^2 == ||A x - y||^2 - ||(1 - M) y||^2 - ||y_off||^2, with
        # y_off the rows of F_h^H y at the sampled columns outside the box. The
        # right side cancels, so its round-off is of the size of ||A x - y||^2
        # (of the whole objective below), and the tolerance is scaled by that.
        off_mask_sq = np.vdot(y, (1 - mask.pattern) * y).real
        off_box = np.delete(y_rows, rows, axis=-2)
        const = off_mask_sq + np.vdot(off_box, off_box).real
        full_sq = np.vdot(ax - y, ax - y).real
        assert np.vdot(bx - y_dc, bx - y_dc).real == pytest.approx(
            full_sq - const, abs=tol * full_sq
        )
        lam = 0.3
        full = dc_objective(x, w, m, y, op, lam)
        assert dc_objective(x, w, m, y_dc, op_dc, lam) == pytest.approx(
            full - 0.5 * const, abs=tol * full
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
        n_frames=st.integers(1, 3),
        n_coils=st.integers(1, 3),
        dtype=st.sampled_from([np.complex128, np.complex64]),
        boxed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_row_gram_gradient_equals_the_column_gradient(
        self, scheme, accel, height, width, n_frames, n_coils, dtype, boxed, seed
    ):
        """B's row Gram form on its box, for one frame and for several: N
        (box row, box col, box col) in the solve's dtype, Hermitian, with x N
        on the box and zero off it equal to B^H B x through B's apply_arr /
        adjoint_arr, for maps with full support and for maps zero outside a
        random box with holes inside. N is zero in each row's columns off the
        support, so RowGramSteps on B and y_dc crops each block of rows to the
        union of its rows' support columns: it forms H_b = N_b + lam I in
        place in the N of its own ``row_gram(rows, cols)`` call, a new array
        for each block, and leaves the whole box's N as it was."""
        rng = np.random.default_rng(seed)
        mask = sampling.make_mask(scheme, height, width, accel, seed, acs_lines=2)
        sens = random_sens(rng, n_coils, height, width, boxed)
        op = ForwardOperator(mask=mask, sens=sens, dtype=dtype)
        x = rand_image(rng, n_frames, height, width).astype(dtype)
        y = rand_image(rng, n_coils, n_frames, height, width).astype(dtype)
        lam = 0.3
        op_dc, y_dc = for_data_consistency(y, mask, sens)
        normal = op_dc.row_gram()
        box = op_dc.box
        rows, width_box = box_rows(sens).size, op_dc._dft.shape[0]
        assert normal.dtype == dtype and normal.shape == (rows, width_box, width_box)
        herm = 1e-14 if dtype == np.complex128 else 1e-6
        assert np.allclose(normal, normal.conj().transpose(0, 2, 1), rtol=0, atol=herm)
        tol = 1e-10 if dtype == np.complex128 else 1e-5
        got = np.zeros_like(x)
        got[box] = (x[box].transpose(1, 0, 2) @ normal).transpose(1, 0, 2)
        want = op_dc.adjoint_arr(op_dc.apply_arr(x))
        assert np.abs(got - want).max() <= tol * max(np.abs(want).max(), 1e-30)
        before = normal.copy()
        cfg = AdmmConfig(T=1, inner_iters=1, lam=lam)
        built, row_gram = [], ColumnOperator.row_gram
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ColumnOperator, "row_gram",
                          lambda op, *a: built.append(row_gram(op, *a)) or built[-1])
            gram = RowGramSteps(op_dc, y_dc, cfg)
        assert gram.op is op_dc and gram.y is y_dc and gram.cfg is cfg
        assert normal.tobytes() == before.tobytes()
        support = sens.support[box[1:]]
        assert len(built) == len(gram.blocks) >= support.any()
        for (block, cols, h), new in zip(gram.blocks, built):
            assert h is new and h.dtype == dtype
            assert np.array_equal(cols, np.flatnonzero(support[block].any(axis=0)))
            off = np.delete(before[block], cols, axis=1)
            assert not off.any() and not np.delete(before[block], cols, axis=2).any()
            want = before[block][:, cols][:, :, cols] + lam * np.eye(cols.size)
            assert np.abs(h - want).max() <= tol

    @pytest.mark.parametrize(
        "height, width, gram",
        [(2, GRAM_MAX_SIDE, True), (GRAM_MAX_SIDE, 2, True),
         (2, GRAM_MAX_SIDE + 1, False), (GRAM_MAX_SIDE + 1, 2, False)],
    )
    def test_grids_past_the_measured_side_keep_the_column_path(
        self, rng, gram_steps, height, width, gram
    ):
        """The row Gram path holds up to H * W^2 entries of Q, so a one-coil,
        one-frame solve at the static defaults, whose Gram iterations reach
        GRAM_MIN_ITERS, takes it only on grids of at most GRAM_MAX_SIDE rows
        and columns; a wider or taller grid keeps the column path."""
        cfg = AdmmConfig()
        assert cfg.T * (cfg.inner_iters - 1) >= GRAM_MIN_ITERS
        mask = make_mask("equispaced", height, width, 1, 0)
        y = KSpaceData(rand_image(rng, 1, 1, height, width))
        admm_reconstruct(y, mask, random_sens(rng, 1, height, width), cfg)
        assert len(gram_steps) == gram

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("scheme", ["gaussian2d", "pseudo-radial", "pseudo-spiral", "full"])
    def test_point_masks_keep_the_operator_and_data(self, rng, scheme, dtype):
        """Point masks get the 2D operator A of the mask and maps, in y's
        dtype, and y itself, for one frame and for several; A has no row
        Gram form."""
        mask, sens = make_mask(scheme, 10, 12, 2, 3), random_sens(rng, 2, 10, 12)
        for frames in (1, 4):
            y = rand_image(rng, 2, frames, 10, 12).astype(dtype)
            op, y_dc = for_data_consistency(y, mask, sens)
            assert type(op) is ForwardOperator and y_dc is y
            assert op.mask is mask and op.sens is sens and op.dtype == dtype
            assert not hasattr(op, "row_gram")

    @pytest.mark.parametrize("scheme", ["gaussian2d", "pseudo-radial", "pseudo-spiral", "full"])
    def test_column_operator_refuses_a_point_mask(self, rng, scheme):
        """B takes its sampled columns from the mask's first row, which only a
        rectilinear mask makes every row's; on a point mask ColumnOperator
        raises ValueError rather than build a wrong operator, as on a 16x16
        gaussian2d R2 mask whose first row is unsampled."""
        mask = make_mask(scheme, 16, 16, 2, 0)
        if scheme == "gaussian2d":
            assert not mask.pattern[0].any() and mask.pattern.any()
        with pytest.raises(ValueError, match="rectilinear mask"):
            ColumnOperator(mask, random_sens(rng, 2, 16, 16))

    @pytest.mark.parametrize("cls", [ForwardOperator, ColumnOperator])
    def test_each_operator_checks_its_maps_and_dtype(self, rng, cls):
        """ColumnOperator built on its own runs ForwardOperator's checks: maps
        on another grid than the mask's and a dtype that is not complex64 or
        complex128 raise ValueError, and the dtype defaults to the maps'."""
        mask = make_mask("equispaced", 10, 12, 2, 3)
        with pytest.raises(ValueError, match=r"sensitivity grid \(10, 10\), mask grid \(10, 12\)"):
            cls(mask, random_sens(rng, 2, 10, 10))
        sens = random_sens(rng, 2, 10, 12)
        for dtype in (np.float64, np.float32, np.int64):
            with pytest.raises(ValueError, match="operator dtype must be complex64 or complex128"):
                cls(mask, sens, dtype)
        assert cls(mask, sens).dtype == np.complex128
        assert cls(mask, sens, np.complex64).dtype == np.complex64
