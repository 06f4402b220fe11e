import argparse
import csv
import gc
import shutil
import struct
import weakref

import numpy as np
import pytest

from mcrecon import cli
from mcrecon.core import ComplexImage, KSpaceData
from mcrecon.data import dynamic_phantom, read_cks, simulate_coils, write_cks
from mcrecon.fourier import GRAM_MIN_FRAMES
from mcrecon.metrics import nmse, psnr, ssim
from mcrecon.sampling import GENERATORS, make_mask
from mcrecon.sensitivity import estimate_from_acs
from mcrecon.solver import AdmmConfig, DenoiserSpec, admm_reconstruct


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def mask_file(tmp_path):
    out = tmp_path / "mask.cks"
    assert (
        run(
            [
                "mask",
                "--scheme",
                "equispaced",
                "--size",
                "64x64",
                "--accel",
                "2",
                "--acs",
                "16",
                "--seed",
                "7",
                "--out",
                out,
            ]
        )
        == 0
    )
    return out


@pytest.fixture
def sim_files(tmp_path, mask_file):
    prefix = tmp_path / "sim"
    assert (
        run(
            [
                "simulate",
                "--size",
                "64",
                "--coils",
                "4",
                "--seed",
                "3",
                "--mask",
                mask_file,
                "--out-prefix",
                prefix,
            ]
        )
        == 0
    )
    return {
        "truth": tmp_path / "sim_truth.cks",
        "sens": tmp_path / "sim_sens.cks",
        "full": tmp_path / "sim_kspace_full.cks",
        "masked": tmp_path / "sim_kspace_masked.cks",
        "mask": mask_file,
    }


class TestMaskCommand:
    def test_paper_configuration_column_count(self, tmp_path):
        out = tmp_path / "m.cks"
        assert (
            run(
                [
                    "mask", "--scheme", "equispaced", "--size", "192x192",
                    "--accel", "4", "--acs", "24", "--seed", "7", "--out", out,
                ]
            )
            == 0
        )
        mask = read_cks(out)
        assert int((mask.pattern.max(axis=0) == 1).sum()) == 48
        assert out.with_suffix(".pgm").exists()

    def test_accel_one_gives_full_mask(self, tmp_path):
        out = tmp_path / "m.cks"
        run(["mask", "--scheme", "equispaced", "--size", "16x16", "--accel", "1",
             "--acs", "4", "--seed", "0", "--out", out])
        assert read_cks(out).pattern.all()

    def test_oversized_acs_is_usage_error(self, tmp_path):
        rc = run(["mask", "--scheme", "equispaced", "--size", "192x192",
                  "--accel", "4", "--acs", "300", "--seed", "0",
                  "--out", tmp_path / "m.cks"])
        assert rc != 0

    def test_missing_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["mask", "--scheme", "equispaced", "--size", "16x16",
                 "--accel", "2", "--out", tmp_path / "m.cks"])
        assert exc.value.code != 0

    def test_config_file_merged_flags_win(self, tmp_path):
        cfg = tmp_path / "mask.conf"
        cfg.write_text("scheme=equispaced\nsize=32x32\naccel=2\nacs=8\nseed=5\n")
        out = tmp_path / "m.cks"
        assert run(["mask", "--config", cfg, "--accel", "4", "--out", out]) == 0
        mask = read_cks(out)
        # accel=4 from the flag, not accel=2 from the config
        assert int((mask.pattern.max(axis=0) == 1).sum()) == 8

    @pytest.mark.parametrize("form", [["--config", "{}"], ["--config={}"]])
    def test_config_file_given_with_or_without_equals(self, tmp_path, form):
        cfg = tmp_path / "c.conf"
        cfg.write_text("acs=8\n")
        out = tmp_path / "m.cks"
        given = [f.format(cfg) for f in form]
        assert run(["mask", *given, "--scheme", "equispaced", "--size", "64x64",
                    "--accel", "4", "--seed", "1", "--out", out]) == 0
        assert read_cks(out).acs_lines == 8  # not the flag default 24

    @pytest.mark.parametrize("second", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]])
    def test_second_or_abbreviated_config_is_usage_error(self, tmp_path, capsys, second):
        cfg = tmp_path / "c.conf"
        cfg.write_text("acs=8\n")
        out = tmp_path / "m.cks"
        rc = run(["mask", "--config", cfg, *[f.format(cfg) for f in second], "--scheme",
                  "equispaced", "--size", "64x64", "--accel", "4", "--seed", "1", "--out", out])
        assert rc == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.cks", tmp_path / "b.cks"
        for out in (a, b):
            run(["mask", "--scheme", "gaussian2d", "--size", "32x32", "--accel", "4",
                 "--acs-radius", "3", "--seed", "11", "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_unreachable_gaussian_budget_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m.cks"
        rc = run(["mask", "--scheme", "gaussian2d", "--size", "64x64", "--accel", "1.01",
                  "--seed", "0", "--out", out])
        assert rc == 2
        assert "R=1.01 on a 64x64 grid" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_acs_is_error(self, tmp_path, capsys):
        rc = run(["mask", "--scheme", "equispaced", "--size", "16x16", "--accel", "2",
                  "--acs", "-1", "--seed", "0", "--out", tmp_path / "m.cks"])
        assert rc == 1
        assert "acs_lines must be in" in capsys.readouterr().err

    def test_scheme_choices_are_the_registry(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        scheme = next(a for a in sub.choices["mask"]._actions if a.dest == "scheme")
        assert list(scheme.choices) == sorted(GENERATORS)


class TestSimulateCommand:
    def test_outputs_consistent(self, sim_files):
        truth = read_cks(sim_files["truth"])
        full = read_cks(sim_files["full"])
        assert isinstance(truth, ComplexImage)
        assert isinstance(full, KSpaceData)
        from mcrecon.fourier import ifft2c

        coil_imgs = ifft2c(full.data)[:, 0]
        rss = np.sqrt(np.sum(np.abs(coil_imgs) ** 2, axis=0))
        assert np.allclose(rss, np.abs(truth.data[0]), atol=1e-5)

    def test_same_seed_identical_files(self, tmp_path):
        for prefix in ("a", "b"):
            run(["simulate", "--size", "32", "--coils", "2", "--seed", "9",
                 "--out-prefix", tmp_path / prefix])
        assert (tmp_path / "a_truth.cks").read_bytes() == (tmp_path / "b_truth.cks").read_bytes()
        assert (tmp_path / "a_kspace_full.cks").read_bytes() == (
            tmp_path / "b_kspace_full.cks"
        ).read_bytes()

    def test_single_frame_dynamic_equals_static(self, tmp_path):
        run(["simulate", "--size", "32", "--frames", "1", "--coils", "2", "--seed", "4",
             "--out-prefix", tmp_path / "dyn"])
        run(["simulate", "--size", "32", "--coils", "2", "--seed", "4",
             "--out-prefix", tmp_path / "sta"])
        assert (tmp_path / "dyn_truth.cks").read_bytes() == (
            tmp_path / "sta_truth.cks"
        ).read_bytes()

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_rejected(self, tmp_path, capsys, frames):
        rc = run(["simulate", "--size", "32", "--frames", frames, "--coils", "2", "--seed", "4",
                  "--out-prefix", tmp_path / "bad"])
        assert rc == 1
        assert "n_frames must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("bad*"))


class TestReconstructCommand:
    def test_zero_filled_on_full_data_recovers_truth(self, sim_files, tmp_path):
        out = tmp_path / "recon"
        full_mask_path = tmp_path / "full.cks"
        run(["mask", "--scheme", "equispaced", "--size", "64x64", "--accel", "1",
             "--acs", "0", "--seed", "0", "--out", full_mask_path])
        assert run(["reconstruct", "--kspace", sim_files["full"], "--mask", full_mask_path,
                    "--sens", sim_files["sens"], "--method", "zero-filled",
                    "--out-prefix", out]) == 0
        recon = read_cks(tmp_path / "recon.cks")
        truth = read_cks(sim_files["truth"])
        assert np.abs(recon.data - truth.data).max() < 1e-5

    def test_admm_t0_equals_zero_filled(self, sim_files, tmp_path):
        for method, extra, name in [
            ("zero-filled", [], "zf"),
            ("admm", ["--T", "0", "--denoiser", "identity", "--strength", "0"], "t0"),
        ]:
            run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                 "--sens", sim_files["sens"], "--method", method, *extra,
                 "--out-prefix", tmp_path / name])
        a = read_cks(tmp_path / "zf.cks")
        b = read_cks(tmp_path / "t0.cks")
        assert np.array_equal(a.data, b.data)

    def test_admm_beats_zero_filled(self, sim_files, tmp_path):
        run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
             "--sens", sim_files["sens"], "--method", "zero-filled",
             "--out-prefix", tmp_path / "zf"])
        run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
             "--sens", sim_files["sens"], "--method", "admm", "--denoiser", "tikhonov",
             "--T", "16", "--inner", "14", "--out-prefix", tmp_path / "admm"])
        truth = np.abs(read_cks(sim_files["truth"]).data[0])
        zf = np.abs(read_cks(tmp_path / "zf.cks").data[0])
        admm = np.abs(read_cks(tmp_path / "admm.cks").data[0])
        dr = truth.max()
        assert ssim(truth, admm, dr) > ssim(truth, zf, dr)

    def test_estimate_sens_path(self, sim_files, tmp_path):
        assert run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                    "--estimate-sens", "--method", "admm", "--T", "2", "--inner", "4",
                    "--out-prefix", tmp_path / "est"]) == 0
        assert (tmp_path / "est.cks").exists()

    def test_estimate_sens_without_acs_fails_like_the_library(self, sim_files, tmp_path, capsys):
        mask_path = tmp_path / "radial.cks"
        assert run(["mask", "--scheme", "pseudo-radial", "--size", "64x64", "--accel", "4",
                    "--seed", "1", "--out", mask_path]) == 0
        with pytest.raises(ValueError, match="no ACS region"):
            estimate_from_acs(read_cks(sim_files["full"]), make_mask("pseudo-radial", 64, 64, 4, 1))
        capsys.readouterr()
        rc = run(["reconstruct", "--kspace", sim_files["full"], "--mask", mask_path,
                  "--estimate-sens", "--T", "2", "--out-prefix", tmp_path / "x"])
        assert rc == 1
        assert "no ACS region" in capsys.readouterr().err
        assert not (tmp_path / "x.cks").exists()

    def test_estimate_sens_on_fully_sampled_acs_mask_matches_the_library(self, sim_files, tmp_path):
        mask_path = tmp_path / "r1.cks"
        assert run(["mask", "--scheme", "equispaced", "--size", "64x64", "--accel", "1",
                    "--acs", "8", "--seed", "0", "--out", mask_path]) == 0
        assert run(["reconstruct", "--kspace", sim_files["masked"], "--mask", mask_path,
                    "--estimate-sens", "--T", "2", "--inner", "3",
                    "--out-prefix", tmp_path / "est"]) == 0
        ksp = read_cks(sim_files["masked"])
        mask = make_mask("equispaced", 64, 64, 1, 0, acs_lines=8)
        cfg = AdmmConfig(T=2, inner_iters=3, denoiser=DenoiserSpec("tikhonov-smooth", 1e-2))
        want = admm_reconstruct(ksp, mask, estimate_from_acs(ksp, mask), cfg).data
        got = read_cks(tmp_path / "est.cks").data
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_version_1_mask_file_rejected(self, sim_files, tmp_path, capsys):
        old = tmp_path / "v1.cks"
        old.write_bytes(struct.pack("<4sHB4I", b"CKS1", 1, 2, 1, 1, 64, 64) + bytes([1] * 64 * 64))
        rc = run(["reconstruct", "--kspace", sim_files["full"], "--mask", old,
                  "--sens", sim_files["sens"], "--out-prefix", tmp_path / "x"])
        assert rc == 1
        assert "regenerate the mask with `mcrecon mask`" in capsys.readouterr().err

    def test_missing_sens_is_usage_error(self, sim_files, tmp_path):
        rc = run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                  "--out-prefix", tmp_path / "x"])
        assert rc != 0

    def test_duplicate_input_stems_rejected_before_solving(self, sim_files, tmp_path, capsys):
        inputs = []
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            inputs.append(shutil.copy(sim_files["masked"], tmp_path / d / "k.cks"))
        rc = run(["reconstruct", "--kspace", *inputs, "--mask", sim_files["mask"],
                  "--sens", sim_files["sens"], "--out-prefix", tmp_path / "out"])
        assert rc == 2
        assert "reconstructed" not in capsys.readouterr().out
        assert not list(tmp_path.glob("out*"))

    def test_nan_strength_rejected_before_solving(self, sim_files, tmp_path, capsys):
        rc = run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                  "--sens", sim_files["sens"], "--denoiser", "tv", "--strength", "nan",
                  "--out-prefix", tmp_path / "out"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "strength" in captured.err
        assert "reconstructed" not in captured.out
        assert not list(tmp_path.glob("out*"))

    def test_solver_flags_checked_before_any_input_is_read(self, sim_files, tmp_path, capsys):
        rc = run(["reconstruct", "--kspace", tmp_path / "missing.cks", "--mask", sim_files["mask"],
                  "--sens", sim_files["sens"], "--lam", "0", "--out-prefix", tmp_path / "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "lam" in err and "missing.cks" not in err

    def test_zero_filled_ignores_solver_flags(self, sim_files, tmp_path):
        args = ["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                "--sens", sim_files["sens"], "--method", "zero-filled"]
        assert run([*args, "--out-prefix", tmp_path / "a"]) == 0
        assert run([*args, "--lam", "0", "--strength", "nan", "--step", "9",
                    "--out-prefix", tmp_path / "b"]) == 0
        assert (tmp_path / "a.cks").read_bytes() == (tmp_path / "b.cks").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, sim_files, tmp_path, capsys, jobs):
        rc = run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                  "--sens", sim_files["sens"], "--T", "1", "--jobs", jobs,
                  "--out-prefix", tmp_path / "out"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--jobs" in captured.err
        assert "reconstructed" not in captured.out
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "fault, estimate",
        [("truncated", False), ("truncated", True), ("wrong-grid", False), ("wrong-grid", True),
         ("wrong-coils", False)],  # estimated maps have the coils of each volume
    )
    def test_bad_middle_input_fails_before_any_solve(
        self, sim_files, tmp_path, capsys, fault, estimate, jobs
    ):
        a = shutil.copy(sim_files["masked"], tmp_path / "a.cks")
        c = shutil.copy(sim_files["masked"], tmp_path / "c.cks")
        bad = tmp_path / "bad.cks"
        if fault == "truncated":
            bad.write_bytes(a.read_bytes()[:-5])
        else:
            shape = (4, 1, 32, 64) if fault == "wrong-grid" else (3, 1, 64, 64)
            write_cks(bad, KSpaceData(np.ones(shape, dtype=complex)))
        sens = ["--estimate-sens"] if estimate else ["--sens", sim_files["sens"]]
        rc = run(["reconstruct", "--kspace", a, bad, c, "--mask", sim_files["mask"], *sens,
                  "--T", "1", "--inner", "1", "--jobs", jobs, "--out-prefix", tmp_path / "r"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "bad.cks" in captured.err
        assert "reconstructed" not in captured.out
        assert not list(tmp_path.glob("r_*"))

    def test_each_volume_is_freed_once_solved(self, sim_files, tmp_path, monkeypatch):
        solved = []

        def solve(path, ksp, *rest):
            gc.collect()
            assert all(ref() is None for ref in solved)
            solved.append(weakref.ref(ksp))

        monkeypatch.setattr(cli, "_reconstruct_one", solve)
        assert run(["reconstruct", "--kspace", sim_files["masked"], sim_files["full"],
                    "--mask", sim_files["mask"], "--sens", sim_files["sens"],
                    "--out-prefix", tmp_path / "r"]) == 0
        assert len(solved) == 2

    def test_jobs_2_writes_the_same_bytes_as_jobs_1(self, sim_files, tmp_path):
        for jobs in ("1", "2"):
            assert run(["reconstruct", "--kspace", sim_files["masked"], sim_files["full"],
                        "--mask", sim_files["mask"], "--sens", sim_files["sens"],
                        "--T", "3", "--inner", "4", "--jobs", jobs,
                        "--out-prefix", tmp_path / f"j{jobs}"]) == 0
        outs = sorted(p.name.removeprefix("j1") for p in tmp_path.glob("j1_*"))
        assert len(outs) == 6  # per volume: the CKS image, a magnitude PGM and its scale
        for name in outs:
            assert (tmp_path / f"j1{name}").read_bytes() == (tmp_path / f"j2{name}").read_bytes()

    def test_dynamic_mode_defaults_and_overrides(self, sim_files, tmp_path):
        ksp = read_cks(sim_files["masked"])
        mask = read_cks(sim_files["mask"])
        sens = read_cks(sim_files["sens"])
        spec = DenoiserSpec(kind="tikhonov-smooth", strength=1e-2)

        def library(T, inner):
            cfg = AdmmConfig(T=T, inner_iters=inner, denoiser=spec)
            return admm_reconstruct(ksp, mask, sens, cfg).data

        def cli_output(*flags):
            out = tmp_path / "dyn"
            assert run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                        "--sens", sim_files["sens"], "--mode", "dynamic", *flags,
                        "--out-prefix", out]) == 0
            return read_cks(tmp_path / "dyn.cks").data

        def close(got, want):  # float32 storage round-off
            return np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

        got = cli_output()
        assert close(got, library(10, 8))
        assert not close(got, library(16, 14))
        assert close(cli_output("--T", "3"), library(3, 8))
        assert close(cli_output("--inner", "2"), library(10, 2))

    @pytest.mark.parametrize("height, width", [(21, 21), (21, 17)])
    def test_row_gram_solve_matches_the_library(self, tmp_path, height, width):
        """simulate -> reconstruct --mode dynamic --estimate-sens --denoiser tv
        on an odd grid with GRAM_MIN_FRAMES frames (the row Gram path) gives
        admm_reconstruct of the files' contents within float32 round-off.
        simulate renders square phantoms, so the 21x17 k-space is that of a
        cropped phantom, written with write_cks."""
        mask_path, prefix = tmp_path / "m.cks", tmp_path / "sim"
        assert run(["mask", "--scheme", "random-rectilinear", "--size", f"{height}x{width}",
                    "--accel", "2", "--acs", "6", "--seed", "3", "--out", mask_path]) == 0
        if height == width:
            assert run(["simulate", "--size", height, "--frames", GRAM_MIN_FRAMES, "--coils", "4",
                        "--seed", "5", "--mask", mask_path, "--out-prefix", prefix]) == 0
        else:
            crop = ComplexImage(dynamic_phantom(height, GRAM_MIN_FRAMES).data[..., :width])
            _, full = simulate_coils(crop, 4, 5)
            masked = KSpaceData(read_cks(mask_path).pattern * full.data)
            write_cks(tmp_path / "sim_kspace_masked.cks", masked)
        kspace = tmp_path / "sim_kspace_masked.cks"
        assert run(["reconstruct", "--kspace", kspace, "--mask", mask_path, "--estimate-sens",
                    "--mode", "dynamic", "--denoiser", "tv", "--strength", "1e-3", "--lam", "0.1",
                    "--out-prefix", tmp_path / "r"]) == 0
        ksp, mask = read_cks(kspace), read_cks(mask_path)
        assert ksp.data.shape == (4, GRAM_MIN_FRAMES, height, width)
        cfg = AdmmConfig.for_mode("dynamic", lam=0.1, denoiser=DenoiserSpec("tv-chambolle", 1e-3))
        want = admm_reconstruct(ksp, mask, estimate_from_acs(ksp, mask), cfg).data
        got = read_cks(tmp_path / "r.cks").data
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


class TestEvaluateCommand:
    def test_perfect_prediction(self, sim_files, tmp_path):
        out = tmp_path / "metrics.csv"
        assert run(["evaluate", "--truth", sim_files["truth"], "--pred", sim_files["truth"],
                    "--kspace-truth", sim_files["full"], "--kspace-pred", sim_files["full"],
                    "--out", out]) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0].keys() == {"volume_id", "frame", "metric", "value"}
        vals = {r["metric"]: float(r["value"]) for r in rows}
        assert vals["ssim"] == pytest.approx(1.0, abs=1e-12)
        assert vals["nmse"] == 0.0
        assert vals["hfen1"] == 0.0
        assert vals["dual_domain_loss"] == pytest.approx(0.0, abs=1e-12)

    def test_values_match_library_calls(self, sim_files, tmp_path):
        pred_path = tmp_path / "pred.cks"
        truth = read_cks(sim_files["truth"])
        rng = np.random.default_rng(0)
        pred = ComplexImage(truth.data + 0.01 * rng.standard_normal(truth.data.shape))
        write_cks(pred_path, pred)
        out = tmp_path / "metrics.csv"
        run(["evaluate", "--truth", sim_files["truth"], "--pred", pred_path, "--out", out])
        vals = {r["metric"]: float(r["value"]) for r in csv.DictReader(out.open())}
        mt = np.abs(truth.data[0])
        mp = np.abs(read_cks(pred_path).data[0])  # compare post float32 round-trip
        assert vals["ssim"] == pytest.approx(ssim(mt, mp, float(mt.max())), abs=1e-12)
        assert vals["nmse"] == pytest.approx(nmse(mt, mp), abs=1e-12)

    @pytest.mark.parametrize("normalize", ["volume", "frame"])
    def test_normalize_sets_each_frames_range(self, tmp_path, normalize):
        """Volume mode scores every frame on the volume's maximum, frame mode
        on the frame's own; the truth frames peak at 1.0 down to 0.25."""
        rng = np.random.default_rng(1)
        peaks = np.linspace(1.0, 0.25, 7)  # ssim3d needs 7 frames
        truth = rng.random((7, 16, 16)) * peaks[:, None, None]
        truth[:, 3, 4] = peaks
        pred = truth + 0.02 * rng.standard_normal(truth.shape)
        paths = [tmp_path / "t.cks", tmp_path / "p.cks"]
        for path, arr in zip(paths, (truth, pred)):
            write_cks(path, ComplexImage(arr.astype(complex)))
        out = tmp_path / "m.csv"
        assert run(["evaluate", "--truth", paths[0], "--pred", paths[1],
                    "--normalize", normalize, "--out", out]) == 0
        got = {(r["frame"], r["metric"]): float(r["value"]) for r in csv.DictReader(out.open())}
        mt, mp = (np.abs(read_cks(path).data) for path in paths)
        for t in range(7):
            want = float(mt.max()) if normalize == "volume" else float(mt[t].max())
            assert got[(str(t), "ssim")] == pytest.approx(ssim(mt[t], mp[t], want), abs=1e-12)
            assert got[(str(t), "psnr")] == pytest.approx(psnr(mt[t], mp[t], want), abs=1e-9)

    def test_dim_mismatch_is_error(self, sim_files, tmp_path):
        small = tmp_path / "small.cks"
        write_cks(small, ComplexImage(np.ones((1, 16, 16), dtype=complex)))
        rc = run(["evaluate", "--truth", sim_files["truth"], "--pred", small,
                  "--out", tmp_path / "m.csv"])
        assert rc != 0
