import argparse
import csv
import shutil

import numpy as np
import pytest

from mcrecon import cli
from mcrecon.core import ComplexImage, KSpaceData, SamplingMask
from mcrecon.data import read_cks, write_cks
from mcrecon.metrics import nmse, ssim
from mcrecon.sampling import GENERATORS
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

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.cks", tmp_path / "b.cks"
        for out in (a, b):
            run(["mask", "--scheme", "gaussian2d", "--size", "32x32", "--accel", "4",
                 "--acs-radius", "3", "--seed", "11", "--out", out])
        assert a.read_bytes() == b.read_bytes()

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

    def test_dim_mismatch_is_error(self, sim_files, tmp_path):
        small = tmp_path / "small.cks"
        write_cks(small, ComplexImage(np.ones((1, 16, 16), dtype=complex)))
        rc = run(["evaluate", "--truth", sim_files["truth"], "--pred", small,
                  "--out", tmp_path / "m.csv"])
        assert rc != 0
