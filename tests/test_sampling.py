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
        with pytest.raises(ValueError, match="24 ACS lines exceed the 16 columns of R=8"):
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


class TestPseudoRadial:
    def test_center_always_sampled(self):
        for seed in range(5):
            m = pseudo_radial_mask(32, 32, 8, 0, seed)
            assert m.pattern[16, 16] == 1

    @pytest.mark.parametrize("accel", [2, 4, 8, 10])
    def test_achieved_within_30_percent(self, accel):
        m = pseudo_radial_mask(64, 64, accel, 0, 1)
        assert 0.7 * accel <= achieved_acceleration(m) <= 1.3 * accel

    def test_deterministic(self):
        a = pseudo_radial_mask(64, 64, 8, 0, 13)
        b = pseudo_radial_mask(64, 64, 8, 0, 13)
        assert np.array_equal(a.pattern, b.pattern)


class TestPseudoSpiral:
    def test_center_sampled(self):
        m = pseudo_spiral_mask(32, 32, 4, 0, 3)
        assert m.pattern[16, 16] == 1

    @pytest.mark.parametrize("accel", [2, 4, 8, 10])
    def test_achieved_within_30_percent(self, accel):
        m = pseudo_spiral_mask(64, 64, accel, 0, 1)
        assert 0.7 * accel <= achieved_acceleration(m) <= 1.3 * accel

    def test_seed_rotates_but_count_stable(self):
        base = pseudo_spiral_mask(64, 64, 4, 0, 0)
        changed = False
        for seed in (1, 2, 3):
            m = pseudo_spiral_mask(64, 64, 4, 0, seed)
            changed = changed or not np.array_equal(m.pattern, base.pattern)
            assert abs(m.n_sampled - base.n_sampled) <= 0.02 * base.n_sampled
        assert changed


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
        assert (got.scheme, got.nominal_acceleration, got.acs_lines, got.acs_radius) == (
            want.scheme,
            want.nominal_acceleration,
            want.acs_lines,
            want.acs_radius,
        )

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
        with pytest.raises(ValueError, match=f"24 ACS lines exceed the {columns} columns"):
            make_mask(scheme, 64, 64, accel, 0, 24)

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
        want = SamplingMask(np.ones((height, width)), scheme, 1.0, acs_lines=n_acs)
        assert np.array_equal(got.pattern, want.pattern)
        assert (got.scheme, got.nominal_acceleration, got.acs_lines, got.acs_radius) == (
            want.scheme, want.nominal_acceleration, want.acs_lines, want.acs_radius)

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
            with pytest.raises(ValueError, match="ACS lines exceed"):
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
        "height, width, accel", [(0, 0, 4), (0, 5, 4), (5, 0, 4), (5, 5, float("nan"))]
    )
    @pytest.mark.parametrize("scheme", sorted(GENERATORS))
    def test_empty_grid_or_nan_acceleration_rejected(self, scheme, height, width, accel):
        with pytest.raises(ValueError, match="need a grid >= 1x1 and finite R >= 1"):
            make_mask(scheme, height, width, accel, 0)


# SHA-256 of the pattern bytes, recorded with the generators of this version:
# a mask's (dims, R, ACS, seed) tuple must give the same bits on any platform
# and in any later version.
PINNED_PATTERNS = [
    ("equispaced", 48, 48, 4, "c850e03764193f383adfd3f0fa4dee293e93c66ed075785c5efb179e157d0f35"),
    ("random-rectilinear", 48, 48, 4,
     "691d525664cb185d19d90e53846bf08deacaf8cfaca2cf63b9e499219dc5e61b"),
    ("gaussian2d", 48, 48, 4, "64da815c92005d4e68daaa3720090e6c29ad830e80c3c4a8dc516398bacf4111"),
    ("pseudo-radial", 48, 48, 4,
     "4dbe1c4e9e0b5842e86ae61cb53857880a0efc492900e52acaf442aa0cec8096"),
    ("pseudo-spiral", 48, 48, 4,
     "8894c5a466b3e0580f8ea3f6dcad0f95679b89b43decf7fb786a1d857f7d9274"),
    ("pseudo-radial", 64, 64, 8,
     "f84e3fcdcd4d6cd3ec73b0060b3c280117ef7f4321c96cd79b769235f6e7c4d4"),
    ("pseudo-radial", 40, 56, 3.3,
     "6ff1db71300b24ba9ce9f39c9d27381ba713b537132ea18e23994bb22989228a"),
    ("pseudo-spiral", 40, 56, 3.3,
     "6eb1066caa43db9b9898868bf7ff0dc36d057dd4f6a94612bb38c1b8fd070cb2"),
]


@pytest.mark.parametrize("scheme, height, width, accel, digest", PINNED_PATTERNS)
def test_mask_bits_are_pinned(scheme, height, width, accel, digest):
    m = make_mask(scheme, height, width, accel, 5, scheme_acs(scheme, 8, 3))
    assert hashlib.sha256(m.pattern.tobytes()).hexdigest() == digest
