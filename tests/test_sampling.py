import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scheme_acs
from mcrecon.core import MASK_SCHEMES, RECTILINEAR_SCHEMES, SamplingMask
from mcrecon.sampling import (
    GENERATORS,
    Lcg,
    achieved_acceleration,
    equispaced_mask,
    full_mask,
    gaussian2d_mask,
    make_mask,
    pseudo_radial_mask,
    pseudo_spiral_mask,
    random_rectilinear_mask,
)


def sampled_columns(mask):
    return int((mask.pattern.max(axis=0) == 1).sum())


class TestEquispaced:
    def test_r1_is_full(self):
        m = equispaced_mask(16, 16, 1, 4, 0)
        assert m.pattern.all()
        assert m.nominal_acceleration == 1.0

    def test_paper_configuration_counts(self):
        m = equispaced_mask(64, 192, 4, 24, 7)
        assert sampled_columns(m) == 48

    @pytest.mark.parametrize("accel", [4, 8, 10])
    def test_target_accelerations_valid(self, accel):
        m = equispaced_mask(64, 256, accel, 24, 3)
        assert sampled_columns(m) == max(int(np.ceil(256 / accel)), 24)
        start = (256 - 24) // 2
        assert m.pattern[:, start : start + 24].all()

    def test_acs_too_wide_rejected(self):
        with pytest.raises(ValueError):
            equispaced_mask(16, 16, 4, 300, 0)

    def test_sub_unit_acceleration_rejected(self):
        with pytest.raises(ValueError):
            equispaced_mask(16, 16, 0.5, 4, 0)

    def test_deterministic(self):
        a = equispaced_mask(32, 96, 4, 12, 11)
        b = equispaced_mask(32, 96, 4, 12, 11)
        assert np.array_equal(a.pattern, b.pattern)


class TestRandomRectilinear:
    def test_same_seed_identical(self):
        a = random_rectilinear_mask(32, 128, 4, 16, 5)
        b = random_rectilinear_mask(32, 128, 4, 16, 5)
        assert np.array_equal(a.pattern, b.pattern)

    def test_acs_wider_than_the_column_budget_rejected(self):
        # ceil(128/8) = 16 columns: 16 ACS lines fill them, 24 would give R 5.33
        assert sampled_columns(random_rectilinear_mask(32, 128, 8, 16, 5)) == 16
        with pytest.raises(ValueError, match="24 ACS columns exceed the 16 columns of R=8"):
            random_rectilinear_mask(32, 128, 8, 24, 5)

    def test_total_column_count(self):
        m = random_rectilinear_mask(32, 256, 4, 24, 5)
        assert sampled_columns(m) == 64

    def test_seed_changes_selection(self):
        a = random_rectilinear_mask(32, 256, 4, 24, 1)
        b = random_rectilinear_mask(32, 256, 4, 24, 2)
        assert not np.array_equal(a.pattern, b.pattern)


class TestGaussian2d:
    def test_r1_is_full(self):
        assert gaussian2d_mask(16, 16, 1, 2, 0).pattern.all()

    def test_exact_point_budget(self):
        m = gaussian2d_mask(64, 64, 4, 8, 9)
        assert m.n_sampled == 1024

    def test_budget_below_disc_rejected(self):
        with pytest.raises(ValueError):
            gaussian2d_mask(64, 64, 64, 16, 0)

    def test_center_denser_than_outer_ring(self):
        inner = outer = 0
        for seed in range(20):
            m = gaussian2d_mask(64, 64, 4, 4, seed).pattern
            q = 16
            center = m[q : 3 * q, q : 3 * q]
            inner += center.sum() / center.size
            outer += (m.sum() - center.sum()) / (m.size - center.size)
        assert inner > outer

    def test_unreachable_budget_fails_fast(self):
        # R just above 1 must hit nearly every pixel, corners included; the
        # draw cap stops it (7.2 s to a mask before the cap, 2 vCPUs)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"R=1\.01 on a 64x64 grid"):
            gaussian2d_mask(64, 64, 1.01, 0, 0)
        assert time.perf_counter() - start < 1.0

    def test_deterministic(self):
        a = gaussian2d_mask(48, 48, 6, 4, 77)
        b = gaussian2d_mask(48, 48, 6, 4, 77)
        assert np.array_equal(a.pattern, b.pattern)


@pytest.mark.parametrize("size, accel", [(64, 4), (64, 8), (256, 4), (256, 8)])
@pytest.mark.parametrize("scheme", ["pseudo-radial", "pseudo-spiral"])
def test_curve_masks_denser_inside_than_outside(scheme, size, accel):
    """The sampled share inside r < n/8 exceeds the share outside r > n/3."""
    pattern = make_mask(scheme, size, size, accel, 1).pattern
    yy, xx = np.mgrid[0:size, 0:size]
    r = np.hypot(yy - size // 2, xx - size // 2)
    assert pattern[r < size / 8].mean() > pattern[r > size / 3].mean()


class TestPseudoRadial:
    def test_center_always_sampled(self):
        for seed in range(5):
            m = pseudo_radial_mask(32, 32, 8, 0, seed)
            assert m.pattern[16, 16] == 1

    def test_deterministic(self):
        a = pseudo_radial_mask(64, 64, 8, 0, 13)
        b = pseudo_radial_mask(64, 64, 8, 0, 13)
        assert np.array_equal(a.pattern, b.pattern)


class TestPseudoSpiral:
    def test_center_sampled(self):
        m = pseudo_spiral_mask(32, 32, 4, 0, 3)
        assert m.pattern[16, 16] == 1

    def test_seed_rotates_but_count_stable(self):
        base = pseudo_spiral_mask(64, 64, 4, 0, 0)
        changed = False
        for seed in (1, 2, 3):
            m = pseudo_spiral_mask(64, 64, 4, 0, seed)
            changed = changed or not np.array_equal(m.pattern, base.pattern)
            assert m.n_sampled == base.n_sampled
        assert changed


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(sorted(GENERATORS)),
    height=st.integers(8, 96),
    width=st.integers(8, 96),
    accel=st.floats(1.5, 10),
    seed=st.integers(0, 2**32),
)
def test_every_mask_samples_exactly_its_budget(scheme, height, width, accel, seed):
    """ceil(W/R) whole columns for a rectilinear mask and ceil(H*W/R) points
    for any other, the center among them (with the smallest ACS region of
    the schemes that have one); only pseudo-radial may run out of spokes
    instead (ValueError)."""
    try:
        mask = make_mask(scheme, height, width, accel, seed, scheme_acs(scheme, 1, 1))
    except ValueError as exc:
        assert scheme == "pseudo-radial" and "curves filled" in str(exc)
        return
    if scheme in RECTILINEAR_SCHEMES:
        assert int(mask.pattern.max(axis=0).sum()) == math.ceil(width / accel)
        assert mask.pattern[:, (width - 1) // 2].all()
    else:
        assert mask.n_sampled == math.ceil(height * width / accel)
        assert mask.pattern[height // 2, width // 2] == 1


@pytest.mark.parametrize("bound", [0, -3])
def test_lcg_randint_needs_a_positive_bound(bound):
    with pytest.raises(ValueError, match="randint bound must be positive"):
        Lcg(0).randint(bound)


class TestAchievedAcceleration:
    def test_full_mask_is_one(self):
        m = equispaced_mask(32, 32, 1, 0, 0)
        assert achieved_acceleration(m) == 1.0

    def test_half_sampled_is_two(self):
        m = equispaced_mask(32, 32, 2, 0, 0)
        assert achieved_acceleration(m) == pytest.approx(2.0)

    def test_equispaced_paper_case(self):
        m = equispaced_mask(64, 192, 4, 24, 7)
        assert achieved_acceleration(m) == pytest.approx(4.0)


# Each scheme's generator called directly, on a non-square grid, with the
# acs of make_mask's call in test_equals_direct_generator_call.
DIRECT_CALLS = {
    "equispaced": lambda accel: equispaced_mask(24, 40, accel, 6, 9),
    "random-rectilinear": lambda accel: random_rectilinear_mask(24, 40, accel, 6, 9),
    "gaussian2d": lambda accel: gaussian2d_mask(24, 40, accel, 2, 9),
    "pseudo-radial": lambda accel: pseudo_radial_mask(24, 40, accel, 0, 9),
    "pseudo-spiral": lambda accel: pseudo_spiral_mask(24, 40, accel, 0, 9),
}


class TestMakeMask:
    def test_registry_covers_every_generator(self):
        assert sorted(GENERATORS) == sorted(DIRECT_CALLS)

    @pytest.mark.parametrize("accel", [1, 3])
    @pytest.mark.parametrize("scheme", sorted(DIRECT_CALLS))
    def test_equals_direct_generator_call(self, scheme, accel):
        got = make_mask(scheme, 24, 40, accel, 9, scheme_acs(scheme, 6, 2))
        want = DIRECT_CALLS[scheme](accel)
        assert np.array_equal(got.pattern, want.pattern)
        assert (got.scheme, got.nominal_acceleration, got.acs) == (
            want.scheme, want.nominal_acceleration, want.acs)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown mask scheme"):
            make_mask("cartesian", 16, 16, 2, 0)

    @pytest.mark.parametrize("acs", [1, 8, -1])
    @pytest.mark.parametrize("scheme", ["pseudo-radial", "pseudo-spiral"])
    def test_schemes_without_an_acs_region_reject_a_nonzero_acs(self, scheme, acs):
        message = f"{scheme} masks have no ACS region; acs must be 0, got {acs}"
        with pytest.raises(ValueError, match=message):
            make_mask(scheme, 16, 16, 4, 0, acs)
        with pytest.raises(ValueError, match=message):
            GENERATORS[scheme](16, 16, 4, acs, 0)

    @pytest.mark.parametrize("accel, columns", [(8, 8), (10, 7)])
    @pytest.mark.parametrize("scheme", RECTILINEAR_SCHEMES)
    def test_acs_block_past_the_asked_r_rejected(self, scheme, accel, columns):
        """24 ACS lines on 64 columns would give R 2.67 at a nominal R of 8
        or 10, so the call raises instead."""
        with pytest.raises(ValueError, match=f"24 ACS columns exceed the {columns} columns"):
            make_mask(scheme, 64, 64, accel, 0, 24)

    @pytest.mark.parametrize("acs", [2.5, -1])
    @pytest.mark.parametrize("scheme", sorted(GENERATORS))
    def test_acs_that_is_not_a_count_rejected(self, scheme, acs):
        """A fractional or negative ACS size is a ValueError from every
        generator, not a mask carrying it or a TypeError."""
        with pytest.raises(ValueError, match="acs must be|has no ACS region"):
            make_mask(scheme, 32, 32, 4, 0, acs)

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(RECTILINEAR_SCHEMES),
        height=st.integers(1, 16),
        width=st.integers(1, 40),
        acs_share=st.floats(0, 1),
        seed=st.integers(0, 2**32),
    )
    def test_rectilinear_r1_is_the_fully_sampled_mask(self, scheme, height, width, acs_share, seed):
        """At R=1 a rectilinear generator's general path adds every column
        outside the ACS band, for any ACS width from 0 to the grid width."""
        n_acs = round(acs_share * width)
        got = make_mask(scheme, height, width, 1, seed, n_acs)
        want = SamplingMask(np.ones((height, width)), scheme, 1.0, n_acs)
        assert np.array_equal(got.pattern, want.pattern)
        assert (got.scheme, got.nominal_acceleration, got.acs) == (
            want.scheme, want.nominal_acceleration, want.acs)

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(RECTILINEAR_SCHEMES),
        height=st.integers(1, 4),
        width=st.integers(1, 64),
        acs_share=st.floats(0, 1),
        accel=st.floats(1, 80),
        seed=st.integers(0, 2**32),
    )
    def test_rectilinear_column_count(self, scheme, height, width, acs_share, accel, seed):
        """Every rectilinear mask samples whole columns, exactly ceil(W/R) of
        them, with the n_acs centred ones among them; more ACS lines than
        ceil(W/R) raise ValueError."""
        n_acs = round(acs_share * width)
        if n_acs > math.ceil(width / accel):
            with pytest.raises(ValueError, match="ACS columns exceed"):
                make_mask(scheme, height, width, accel, seed, n_acs)
            return
        pattern = make_mask(scheme, height, width, accel, seed, n_acs).pattern
        columns = pattern.max(axis=0)
        assert np.array_equal(pattern.min(axis=0), columns)
        assert int(columns.sum()) == math.ceil(width / accel)
        lo = (width - n_acs) // 2
        assert columns[lo : lo + n_acs].all()

    def test_core_scheme_names_are_the_registry(self):
        # scheme names are stored in CKS mask files, so the two lists must agree
        assert set(MASK_SCHEMES) == set(GENERATORS) | {"full"}

    @pytest.mark.parametrize(
        "height, width, accel, message",
        [(0, 0, 4, "height must be >= 1"), (0, 5, 4, "height must be >= 1"),
         (5, 0, 4, "width must be >= 1"), (5, 5, float("nan"), "need a finite R >= 1"),
         (32.0, 32, 4, "height must be an integer"), (32.5, 32, 4, "height must be an integer"),
         (32, 32.0, 4, "width must be an integer"), (32, 32.5, 4, "width must be an integer")],
    )
    @pytest.mark.parametrize("scheme", sorted(GENERATORS))
    def test_empty_grid_or_nan_acceleration_rejected(self, scheme, height, width, accel, message):
        """Each generator checks height and width by core.check_count, which
        rejects a non-integer size, and R as a finite number >= 1."""
        with pytest.raises(ValueError, match=message):
            make_mask(scheme, height, width, accel, 0)

    @pytest.mark.parametrize("height, width, message",
                             [(32.0, 32, "height must be an integer"),
                              (32, 32.5, "width must be an integer")])
    def test_full_mask_checks_its_grid(self, height, width, message):
        with pytest.raises(ValueError, match=message):
            full_mask(height, width)

    @pytest.mark.parametrize("accel", [1, 4])
    @pytest.mark.parametrize("scheme", sorted(GENERATORS))
    def test_seed_that_is_not_an_integer_rejected(self, scheme, accel):
        """A float seed raises instead of being truncated to the seed below it,
        at R 1 too, where the point generators draw nothing from it; a
        negative or numpy integer seed is an integer like any other."""
        acs = scheme_acs(scheme, 4, 2)
        with pytest.raises(TypeError):
            make_mask(scheme, 32, 32, accel, 1.5, acs)
        assert np.array_equal(make_mask(scheme, 32, 32, accel, np.int64(-1), acs).pattern,
                              make_mask(scheme, 32, 32, accel, -1, acs).pattern)


# SHA-256 of the pattern bytes, recorded with the generators of this version:
# a mask's (dims, R, ACS, seed) tuple must give the same bits on any platform
# and in any later version. The pseudo-radial and pseudo-spiral digests were
# restated when those schemes moved from a search for the nearest R to
# sampling exactly ceil(H*W/R) points along golden-angle curves.
PINNED_PATTERNS = [
    ("equispaced", 48, 48, 4, "c850e03764193f383adfd3f0fa4dee293e93c66ed075785c5efb179e157d0f35"),
    ("random-rectilinear", 48, 48, 4,
     "691d525664cb185d19d90e53846bf08deacaf8cfaca2cf63b9e499219dc5e61b"),
    ("gaussian2d", 48, 48, 4, "64da815c92005d4e68daaa3720090e6c29ad830e80c3c4a8dc516398bacf4111"),
    ("pseudo-radial", 48, 48, 4,
     "6027d573aef98406c404ef72da64de2c0b728fc596453753b84839f195e37511"),
    ("pseudo-spiral", 48, 48, 4,
     "abca60a54fd10b39de0d1fa0d33bece61a5f03ae77a38fd791b2a407c9d7be3c"),
    ("pseudo-radial", 64, 64, 8,
     "4bf18d39b06fc4bac1c7cdeb1f1dbac0d705894192a6a0803241371b28aad7f2"),
    ("pseudo-radial", 40, 56, 3.3,
     "51ffae115a1b7192987f21b8a5c8412325855c767d0e0ee6aef6c2d2ad40f9e0"),
    ("pseudo-spiral", 40, 56, 3.3,
     "78511d6ef18835f87e5149de88076d6f9ee16ba8723150711e52608046c8b4ef"),
]


@pytest.mark.parametrize("scheme, height, width, accel, digest", PINNED_PATTERNS)
def test_mask_bits_are_pinned(scheme, height, width, accel, digest):
    m = make_mask(scheme, height, width, accel, 5, scheme_acs(scheme, 8, 3))
    assert hashlib.sha256(m.pattern.tobytes()).hexdigest() == digest
