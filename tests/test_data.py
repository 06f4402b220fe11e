import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mcrecon.core import ComplexImage, KSpaceData, SamplingMask, SensitivityMaps
from mcrecon.data import (
    SHEPP_LOGAN_ELLIPSES,
    CKS_MAGIC,
    FormatError,
    dynamic_phantom,
    random_kspace_crop,
    read_cks,
    shepp_logan,
    simulate_coils,
    write_cks,
    write_pgm,
)
from mcrecon.fourier import fft2c, ifft2c
from mcrecon.sampling import GENERATORS, equispaced_mask, full_mask, make_mask


class TestSheppLogan:
    def test_corner_outside_skull(self):
        img = shepp_logan(64)
        assert img.data[0, 0, 0] == 0

    def test_center_value_matches_ellipse_table(self):
        img = shepp_logan(64)
        expected = 0.0
        for inten, a, b, x0, y0, phi in SHEPP_LOGAN_ELLIPSES:
            # evaluate each ellipse analytically at the origin
            phi = np.radians(phi)
            xr = -x0 * np.cos(phi) - y0 * np.sin(phi)
            yr = x0 * np.sin(phi) - y0 * np.cos(phi)
            if (xr / a) ** 2 + (yr / b) ** 2 <= 1.0:
                expected += inten
        assert img.data[0, 32, 32].real == pytest.approx(expected)

    def test_range_clamped(self):
        img = shepp_logan(48)
        assert img.data.real.max() <= 1 + 1e-9
        assert img.data.real.min() >= -1e-9
        assert np.all(img.data.imag == 0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            shepp_logan(8)


class TestDynamicPhantom:
    def test_single_frame_equals_static(self):
        assert np.array_equal(dynamic_phantom(32, 1).data, shepp_logan(32).data)

    def test_half_period_symmetry(self):
        img = dynamic_phantom(32, 8)
        for t in range(1, 8):
            assert np.array_equal(img.data[t], img.data[8 - t])

    def test_static_outside_moving_ellipse_bbox(self):
        n = 48
        img = dynamic_phantom(n, 6)
        # the animated ellipse lives in the upper half; the bottom rows and
        # lateral margins are static
        region = img.data[:, : n // 4, :]
        assert np.all(region == region[0])

    def test_frame_zero_is_static_phantom(self):
        img = dynamic_phantom(32, 5)
        assert np.allclose(img.data[0], shepp_logan(32).data[0])


class TestSimulateCoils:
    def test_single_coil_is_unit_and_kspace_is_fft(self):
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 1, 5)
        assert np.allclose(sens.maps, 1.0, atol=1e-12)
        assert np.allclose(ksp.data[0], fft2c(img.data), atol=1e-12)

    def test_rss_of_coil_images_equals_magnitude(self):
        img = shepp_logan(32)
        sens, ksp = simulate_coils(img, 4, 5)
        coil_imgs = ifft2c(ksp.data)[:, 0]
        rss = np.sqrt(np.sum(np.abs(coil_imgs) ** 2, axis=0))
        assert np.allclose(rss, np.abs(img.data[0]), atol=1e-9)

    def test_deterministic(self):
        img = shepp_logan(32)
        a = simulate_coils(img, 3, 9)
        b = simulate_coils(img, 3, 9)
        assert np.array_equal(a[0].maps, b[0].maps)
        assert np.array_equal(a[1].data, b[1].data)

    def test_maps_satisfy_invariants(self):
        img = shepp_logan(32)
        sens, _ = simulate_coils(img, 6, 2)
        sq = np.sum(np.abs(sens.maps) ** 2, axis=0)
        assert np.allclose(sq, 1.0, atol=1e-9)


class TestRandomKspaceCrop:
    def _ksp(self, n=32, coils=3, frames=2):
        img = dynamic_phantom(n, frames)
        _, ksp = simulate_coils(img, coils, 1)
        return ksp

    def test_full_size_crop_is_identity(self):
        ksp = self._ksp()
        out = random_kspace_crop(ksp, 32, 32, 0)
        assert np.allclose(out.data, ksp.data, atol=1e-10)

    def test_energy_does_not_increase(self):
        ksp = self._ksp()
        out = random_kspace_crop(ksp, 16, 20, 3)
        assert np.linalg.norm(out.data) <= np.linalg.norm(ksp.data) + 1e-9

    def test_crop_matches_image_window(self):
        ksp = self._ksp()
        out = random_kspace_crop(ksp, 16, 16, 3)
        full_imgs = ifft2c(ksp.data)
        crop_imgs = ifft2c(out.data)
        # find the window by matching against every offset
        found = False
        for r0 in range(17):
            for c0 in range(17):
                if np.allclose(
                    crop_imgs, full_imgs[..., r0 : r0 + 16, c0 : c0 + 16], atol=1e-9
                ):
                    found = True
        assert found

    def test_commutes_with_coil_selection(self):
        ksp = self._ksp()
        out = random_kspace_crop(ksp, 16, 16, 7)
        single = random_kspace_crop(KSpaceData(ksp.data[1:2]), 16, 16, 7)
        assert np.allclose(out.data[1:2], single.data, atol=1e-12)

    def test_oversize_crop_rejected(self):
        with pytest.raises(ValueError):
            random_kspace_crop(self._ksp(), 64, 16, 0)

    @pytest.mark.parametrize("crop", [(0, 16), (16, 0)])
    def test_empty_crop_rejected(self, crop):
        with pytest.raises(ValueError, match="crop dimensions must be >= 1"):
            random_kspace_crop(self._ksp(), *crop, 0)


class TestCksFormat:
    def test_kspace_roundtrip_bitwise(self, tmp_path, rng):
        data = (rng.standard_normal((3, 2, 8, 8)) + 1j * rng.standard_normal((3, 2, 8, 8)))
        data = data.astype(np.complex64).astype(np.complex128)  # float32-representable
        ksp = KSpaceData(data)
        p = tmp_path / "k.cks"
        write_cks(p, ksp)
        back = read_cks(p)
        assert isinstance(back, KSpaceData)
        assert np.array_equal(back.data, ksp.data)

    def test_image_and_mask_and_sens_roundtrip(self, tmp_path, rng):
        img = ComplexImage(np.round(rng.random((2, 8, 8)), 3))
        mask = equispaced_mask(8, 8, 2, 4, 0)
        maps = np.full((2, 8, 8), 1 / np.sqrt(2), dtype=np.complex128)
        sens = SensitivityMaps(maps=maps)
        for name, obj in [("i.cks", img), ("m.cks", mask), ("s.cks", sens)]:
            p = tmp_path / name
            write_cks(p, obj)
            back = read_cks(p)
            assert type(back) is type(obj)
        back_mask = read_cks(tmp_path / "m.cks")
        assert np.array_equal(back_mask.pattern, mask.pattern)
        assert back_mask.acs_lines == 4
        masks = [full_mask(24, 32)] + [
            make_mask(scheme, 24, 32, accel, 3, acs_lines=6, acs_radius=2)
            for scheme in GENERATORS
            for accel in (4, 1)
        ]
        for mask in masks:
            write_cks(tmp_path / "m.cks", mask)
            back = read_cks(tmp_path / "m.cks")
            assert np.array_equal(back.pattern, mask.pattern)
            fields = ("scheme", "nominal_acceleration", "acs_lines", "acs_radius")
            assert [getattr(back, f) for f in fields] == [getattr(mask, f) for f in fields]

    def test_truncated_file_rejected_with_lengths(self, tmp_path, rng):
        ksp = KSpaceData(np.ones((1, 1, 4, 4), dtype=complex))
        p = tmp_path / "k.cks"
        write_cks(p, ksp)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError, match="expected"):
            read_cks(p)

    def test_bad_magic_rejected(self, tmp_path):
        ksp = KSpaceData(np.ones((1, 1, 4, 4), dtype=complex))
        p = tmp_path / "k.cks"
        write_cks(p, ksp)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XKS1"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_cks(p)

    def test_version_1_mask_rejected(self, tmp_path):
        p = tmp_path / "m.cks"
        p.write_bytes(_header(1, 2, (1, 1, 4, 4)) + bytes([1] * 16))
        with pytest.raises(FormatError, match="version 1 at byte 4.*regenerate.*mcrecon mask"):
            read_cks(p)

    def test_undersampled_full_mask_rejected_as_content(self, tmp_path):
        # the layout is valid, so the error is the mask's ValueError, not a FormatError
        pattern = np.zeros((4, 4), dtype=np.uint8)
        pattern[:, 1] = 1
        meta = struct.pack("<24sdII", b"full", 1.0, 0, 0)
        p = tmp_path / "m.cks"
        p.write_bytes(_header(2, 2, (1, 1, 4, 4)) + meta + pattern.tobytes())
        with pytest.raises(ValueError, match="'full' mask must sample every location") as err:
            read_cks(p)
        assert not isinstance(err.value, FormatError)

    def test_nominal_r1_on_undersampled_pattern_rejected_as_content(self, tmp_path):
        pattern = np.zeros((4, 4), dtype=np.uint8)
        pattern[0] = 1
        meta = struct.pack("<24sdII", b"pseudo-radial", 1.0, 0, 0)
        p = tmp_path / "m.cks"
        p.write_bytes(_header(2, 2, (1, 1, 4, 4)) + meta + pattern.tobytes())
        with pytest.raises(ValueError, match="nominal acceleration 1") as err:
            read_cks(p)
        assert not isinstance(err.value, FormatError)

    @pytest.mark.parametrize(
        "kind, dims, byte",
        [(1, (2, 1, 4, 4), 7), (2, (2, 1, 4, 4), 7), (2, (1, 3, 4, 4), 11), (3, (1, 2, 4, 4), 11)],
    )
    def test_unused_axis_must_be_one(self, tmp_path, kind, dims, byte):
        p = tmp_path / "x.cks"
        p.write_bytes(_header(2 if kind == 2 else 1, kind, dims) + bytes(_payload_size(kind, dims)))
        with pytest.raises(FormatError, match=f"must be 1 for kind {kind}, got .* at byte {byte}"):
            read_cks(p)


# kind -> (container, axes of (coils, frames, rows, cols) that must be 1),
# stated apart from the data module's own table
_KINDS = {
    0: (KSpaceData, ()),
    1: (ComplexImage, (0,)),
    2: (SamplingMask, (0, 1)),
    3: (SensitivityMaps, (1,)),
}
_MASK_FIELDS = ("scheme", "nominal_acceleration", "acs_lines", "acs_radius")


def _layout_object(kind, dims, dtype, rng, draw):
    """A container of ``kind`` on ``dims`` (unit axes already 1); complex
    values are float32-representable, held as ``dtype``."""
    rows, cols = dims[2:]
    if kind == 2:
        pattern = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        acs_lines = draw(st.integers(0, cols))
        acs_radius = draw(st.integers(0, max(rows, cols)))
        start = (cols - acs_lines) // 2
        pattern[:, start : start + acs_lines] = 1
        yy, xx = np.ogrid[:rows, :cols]
        pattern[(yy - rows // 2) ** 2 + (xx - cols // 2) ** 2 <= acs_radius**2] = 1
        scheme = draw(st.sampled_from(["gaussian2d", "pseudo-radial", "pseudo-spiral"]))
        accel = draw(st.floats(1.5, 20.0))
        return SamplingMask(pattern, scheme, accel, acs_lines, acs_radius)
    shape = tuple(n for i, n in enumerate(dims) if i not in _KINDS[kind][1])
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == 3:  # zero some pixels on every coil, RSS-normalize the rest
        arr[:, rng.random(shape[1:]) < 0.3] = 0
        norm = np.sqrt(np.sum(np.abs(arr) ** 2, axis=0))
        arr = np.divide(arr, norm, out=np.zeros_like(arr), where=norm > 0)
    arr = arr.astype(np.complex64).astype(dtype)
    return _KINDS[kind][0](arr)


class TestCksLayout:
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        kind=st.sampled_from(sorted(_KINDS)),
        sizes=st.lists(st.integers(1, 7), min_size=4, max_size=4, unique=True),
        dtype=st.sampled_from([np.complex64, np.complex128]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_header_dims_and_round_trip(self, tmp_path, kind, sizes, dtype, seed, data):
        """Every kind on distinct axis sizes writes dims (coils, frames, rows,
        cols) with 1 on exactly its unit axes, and reads back bit for bit."""
        cls, unit_axes = _KINDS[kind]
        dims = tuple(1 if i in unit_axes else n for i, n in enumerate(sizes))
        obj = _layout_object(kind, dims, dtype, np.random.default_rng(seed), data.draw)
        p = tmp_path / "x.cks"
        write_cks(p, obj)
        magic, version, got_kind, *got_dims = struct.unpack_from("<4sHB4I", p.read_bytes())
        want_version = 2 if kind == 2 else 1
        assert (magic, version, got_kind, tuple(got_dims)) == (CKS_MAGIC, want_version, kind, dims)
        back = read_cks(p)
        assert type(back) is cls
        if kind == 2:
            assert back.pattern.shape == obj.pattern.shape
            assert back.pattern.tobytes() == obj.pattern.tobytes()
            assert [getattr(back, f) for f in _MASK_FIELDS] == [getattr(obj, f) for f in _MASK_FIELDS]
            return
        want = obj.maps if kind == 3 else obj.data
        got = back.maps if kind == 3 else back.data
        assert got.shape == want.shape
        assert got.astype(want.dtype).tobytes() == want.tobytes()
        if kind == 3:
            assert np.array_equal(back.support, obj.support)

    @pytest.mark.parametrize("obj", [object(), np.ones((1, 1, 2, 2), dtype=complex), None])
    def test_non_container_is_type_error(self, tmp_path, obj):
        with pytest.raises(TypeError, match="cannot serialize"):
            write_cks(tmp_path / "x.cks", obj)
        assert not (tmp_path / "x.cks").exists()


def _header(version, kind, dims, magic=CKS_MAGIC):
    return struct.pack("<4sHB4I", magic, version, kind, *dims)


def _payload_size(kind, dims):
    return 40 + math.prod(dims) if kind == 2 else 8 * math.prod(dims)


def _layout_ok(raw):
    """Independent statement of the CKS layout rules: header fields and the
    total length implied by the dims."""
    if len(raw) < 23:
        return False
    magic, version, kind, *dims = struct.unpack_from("<4sHB4I", raw)
    unit = {0: (), 1: (0,), 2: (0, 1), 3: (1,)}.get(kind)
    if magic != CKS_MAGIC or unit is None or version != (2 if kind == 2 else 1):
        return False
    if any(dims[i] != 1 for i in unit):
        return False
    return len(raw) == 23 + _payload_size(kind, dims)


def _check_read(path):
    """read_cks returns a core object or raises ValueError (FormatError when
    the layout is wrong), and allocates nothing the file cannot hold."""
    raw = path.read_bytes()
    tracemalloc.start()
    try:
        obj = read_cks(path)
    except FormatError:
        assert not _layout_ok(raw)
        return
    except ValueError:
        assert _layout_ok(raw)
        return
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 64 * len(raw) + (1 << 20)
    assert _layout_ok(raw)
    assert isinstance(obj, (KSpaceData, ComplexImage, SamplingMask, SensitivityMaps))


_FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
_DIM = st.one_of(
    st.integers(0, 4), st.sampled_from([65536, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)
)


class TestCksFuzz:
    @_FUZZ
    @given(
        magic=st.sampled_from([CKS_MAGIC, b"CKS2", b"\0\0\0\0"]),
        version=st.integers(0, 3),
        kind=st.integers(0, 5),
        dims=st.tuples(_DIM, _DIM, _DIM, _DIM),
        payload=st.binary(min_size=1, max_size=64),
        fit=st.booleans(),
        cut=st.one_of(st.none(), st.integers(0, 240)),
    )
    # element counts that overflow int64, an image declaring 2 coils, a valid mask
    @example(CKS_MAGIC, 1, 0, (65536,) * 4, b"", False, None)
    @example(CKS_MAGIC, 1, 0, (2**32 - 1,) * 4, b"", False, None)
    @example(CKS_MAGIC, 1, 1, (2, 1, 2, 2), b"\0", True, None)
    @example(CKS_MAGIC, 2, 2, (1, 1, 2, 2), struct.pack("<24sdII", b"full", 1, 0, 0) + b"\1" * 4,
             True, None)
    def test_random_headers_and_payloads(
        self, tmp_path, magic, version, kind, dims, payload, fit, cut
    ):
        # fit: repeat the payload to the length the dims imply, when that is small
        size = _payload_size(kind, dims)
        if fit and size <= 4096:
            payload = (payload * (size // len(payload) + 1))[:size]
        p = tmp_path / "f.cks"
        p.write_bytes((_header(version, kind, dims, magic) + payload)[:cut])
        _check_read(p)

    @_FUZZ
    @given(
        which=st.integers(0, 4),
        edits=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 400)),
    )
    def test_edited_valid_files(self, tmp_path, which, edits, cut):
        objs = [
            KSpaceData(np.ones((2, 2, 4, 4), dtype=complex)),
            ComplexImage(np.ones((2, 4, 4))),
            make_mask("equispaced", 4, 6, 2, 0, acs_lines=2),
            make_mask("gaussian2d", 5, 5, 2, 0, acs_radius=1),
            SensitivityMaps(maps=np.full((2, 4, 4), 1 / np.sqrt(2), dtype=complex)),
        ]
        p = tmp_path / "f.cks"
        write_cks(p, objs[which])
        raw = bytearray(p.read_bytes())
        for offset, value in edits:
            if offset < len(raw):
                raw[offset] = value
        p.write_bytes(bytes(raw[:cut]))
        _check_read(p)


class TestPgm:
    def test_mask_export(self, tmp_path):
        mask = equispaced_mask(8, 8, 2, 2, 0)
        p = tmp_path / "m.pgm"
        write_pgm(p, mask.pattern)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n8 8\n255\n")
        body = raw.split(b"\n", 3)[3]
        assert set(body) <= {0, 255}

    def test_magnitude_export_writes_sidecar(self, tmp_path, rng):
        p = tmp_path / "img.pgm"
        write_pgm(p, rng.random((8, 8)) * 3.0)
        sidecar = tmp_path / "img.pgm.scale.txt"
        assert sidecar.exists()
        assert "min=" in sidecar.read_text()

    def test_non_2d_array_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="PGM export needs a 2D array"):
            write_pgm(tmp_path / "v.pgm", np.ones((2, 8, 8)))
        assert not list(tmp_path.iterdir())
