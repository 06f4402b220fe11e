import argparse
import csv
import gc
import os
import shutil
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import scheme_acs
from mcrecon import cli
from mcrecon.core import ComplexImage, KSpaceData
from mcrecon.data import dynamic_phantom, read_cks, simulate_coils, write_cks
from mcrecon.metrics import dual_domain_loss, hfen1, nmae, nmse, psnr, ssim, ssim3d
from mcrecon.sampling import GENERATORS, make_mask
from mcrecon.sensitivity import estimate_from_acs
from mcrecon.solver import DENOISER_KINDS, AdmmConfig, DenoiserSpec, admm_reconstruct


def run(args):
    return cli.main([str(a) for a in args])


def test_import_loads_no_scipy():
    """A CLI process starts on numpy alone: importing the CLI loads no scipy module."""
    code = "import sys, mcrecon.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", [None, "mask", "simulate", "reconstruct", "evaluate"])
def test_help_exits_0_and_prints_every_option(command, capsys):
    """``mcrecon --help`` and ``mcrecon CMD --help`` exit 0 and print each of
    the command's option strings (and, at the top, each command). argparse
    %-formats help text, so a stray % in one would raise instead."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    with pytest.raises(SystemExit) as done:
        run(["--help"] if command is None else [command, "--help"])
    assert done.value.code == 0
    printed = capsys.readouterr().out
    target = parser if command is None else sub.choices[command]
    expected = [*target._option_string_actions, *(sub.choices if command is None else ())]
    assert len(expected) > 2
    assert [name for name in expected if name not in printed] == []


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

    def test_config_file_skips_blank_and_comment_lines(self, tmp_path):
        cfg = tmp_path / "mask.conf"
        cfg.write_text("# a 32x32 mask\n\nscheme=equispaced\n   \n  # acs=2\nsize=32x32\nacs=8\n")
        out = tmp_path / "m.cks"
        assert run(["mask", "--config", cfg, "--accel", "4", "--seed", "5", "--out", out]) == 0
        mask = read_cks(out)
        assert mask.pattern.shape == (32, 32) and mask.acs_lines == 8

    @pytest.mark.parametrize("size", ["16", "16x", "x16", "16x16x1", "axb"])
    def test_bad_size_is_usage_error(self, tmp_path, capsys, size):
        out = tmp_path / "m.cks"
        rc = run(["mask", "--scheme", "equispaced", "--size", size, "--accel", "2",
                  "--seed", "0", "--out", out])
        assert rc == 2
        assert f"bad --size {size!r}: expected HxW" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("form", [["--config", "{}"], ["--config={}"]])
    def test_config_file_given_with_or_without_equals(self, tmp_path, form):
        cfg = tmp_path / "c.conf"
        cfg.write_text("acs=8\n")
        out = tmp_path / "m.cks"
        given = [f.format(cfg) for f in form]
        assert run(["mask", *given, "--scheme", "equispaced", "--size", "64x64",
                    "--accel", "4", "--seed", "1", "--out", out]) == 0
        assert read_cks(out).acs_lines == 8  # not make_mask's default 0

    def test_config_file_sets_a_switch_like_its_flag(self, sim_files, tmp_path):
        """A flag that takes no value is key=true (set) or key=false (unset) in
        a config file, and writes the bytes of the flag given or left out."""
        base = ["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                "--T", "2", "--inner", "2"]
        cfg = tmp_path / "c.conf"
        sens = ["--sens", sim_files["sens"]]
        for value, flags in (("true", ["--estimate-sens"]), ("false", sens)):
            cfg.write_text(f"# maps\nestimate-sens = {value}\n")
            assert run([*base, *flags, "--out-prefix", tmp_path / f"flag_{value}"]) == 0
            conf_flags = [] if value == "true" else flags
            assert run([*base, "--config", cfg, *conf_flags,
                        "--out-prefix", tmp_path / f"conf_{value}"]) == 0
            for suffix in (".cks", ".mag0.pgm", ".mag0.pgm.scale.txt"):
                want = (tmp_path / f"flag_{value}{suffix}").read_bytes()
                assert (tmp_path / f"conf_{value}{suffix}").read_bytes() == want

    def test_config_file_switch_and_sens_are_exclusive(self, sim_files, tmp_path, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text("estimate-sens=true\n")
        with pytest.raises(SystemExit) as exc:
            run(["reconstruct", "--config", cfg, "--kspace", sim_files["masked"],
                 "--mask", sim_files["mask"], "--sens", sim_files["sens"],
                 "--out-prefix", tmp_path / "x"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("value", ["", "yes", "True", "1", "false true"])
    def test_config_file_switch_with_another_value_is_usage_error(
            self, sim_files, tmp_path, capsys, value):
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"T=2\nestimate-sens={value}\n")
        rc = run(["reconstruct", "--config", cfg, "--kspace", sim_files["masked"],
                  "--mask", sim_files["mask"], "--out-prefix", tmp_path / "x"])
        assert rc == 2
        assert f"{cfg}:2: --estimate-sens takes no value" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("key, value", [("estimate", "true"), ("out", "r"), ("bogus", "1")])
    def test_config_file_key_must_be_a_full_option_name(
            self, sim_files, tmp_path, capsys, key, value):
        """A config key is the full name of one of the command's options: a key
        that argparse would take as an abbreviation on the command line (as
        --estimate for --estimate-sens, --out for --out-prefix) or no option
        at all exits 2, names FILE:LINE and writes nothing."""
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"T=2\n{key}={tmp_path / value if key == 'out' else value}\n")
        base = ["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"]]
        assert run([*base, "--sens", sim_files["sens"], "--config", cfg]) == 2
        assert f"{cfg}:2: reconstruct has no option --{key}" in capsys.readouterr().err
        assert not list(tmp_path.glob("r*"))
        if key == "estimate":  # the abbreviated flag on the command line still runs
            assert run([*base, "--estimate", "--T", "1", "--out-prefix", tmp_path / "y"]) == 0

    @pytest.mark.parametrize("line, message", [
        ("strength=abc", "argument --strength: invalid float value: 'abc'"),
        ("T=1.5", "argument --T: invalid int value: '1.5'"),
        ("mode=weird", "argument --mode: invalid choice: 'weird'"),
        ("denoiser=wavelet", "argument --denoiser: invalid choice: 'wavelet'"),
    ])
    def test_config_file_value_the_option_rejects_is_usage_error(
            self, sim_files, tmp_path, capsys, line, message):
        """A value that the option's type or choices reject exits 2 with
        argparse's message for the flag, prefixed by FILE:LINE, and writes
        nothing; the same flag on the command line keeps argparse's message."""
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"# solve\n\n{line}\n")
        base = ["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                "--sens", sim_files["sens"], "--out-prefix", tmp_path / "x"]
        assert run([*base, "--config", cfg]) == 2
        assert f"error: {cfg}:3: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))
        key, value = line.split("=")
        with pytest.raises(SystemExit) as exc:
            run([*base, f"--{key}", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and str(cfg) not in err

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

    @pytest.mark.parametrize("fault", ["last token", "missing file", "no equals", "empty name",
                                       "directory", "not utf-8"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, fault):
        """--config with no file after it, a file that does not exist, a line
        without '=', an empty name (read as '.'), a directory and a file that
        is not UTF-8 text each exit 2, name the cause and write nothing."""
        cfg = tmp_path / "c.conf"
        cfg.write_text("scheme=equispaced\nacs 8\n")
        binary = tmp_path / "b.conf"
        binary.write_bytes(b"scheme=equispaced\n\xff\n")
        given, message = {
            "last token": (["--config"], "--config needs a file argument"),
            "missing file": (["--config", tmp_path / "none.conf"],
                             f"config file not found: {tmp_path}"),
            "no equals": (["--config", cfg], f"{cfg}:2: expected key=value, got 'acs 8'"),
            "empty name": (["--config="], "config file not found: ."),
            "directory": (["--config", tmp_path], f"config file not found: {tmp_path}"),
            "not utf-8": (["--config", binary],
                          f"cannot read config file {binary}: 'utf-8' codec can't decode"),
        }[fault]
        out = tmp_path / "m.cks"
        rc = run(["mask", "--size", "16x16", "--accel", "2", "--seed", "0", "--out", out,
                  *given])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("m.*"))

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.cks", tmp_path / "b.cks"
        for out in (a, b):
            run(["mask", "--scheme", "gaussian2d", "--size", "32x32", "--accel", "4",
                 "--acs", "3", "--seed", "11", "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_unreachable_gaussian_budget_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m.cks"
        rc = run(["mask", "--scheme", "gaussian2d", "--size", "64x64", "--accel", "1.01",
                  "--seed", "0", "--out", out])
        assert rc == 2
        assert "R=1.01 on a 64x64 grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--scheme", "equispaced", "--size", "16x16", "--accel", "2", "--acs", "-1"],
          "acs_lines must be in"),
         (["--scheme", "equispaced", "--size", "16x16", "--accel", "0.5"], "finite R >= 1"),
         (["--scheme", "pseudo-radial", "--size", "0x0", "--accel", "4"], "grid >= 1x1"),
         (["--scheme", "gaussian2d", "--size", "16x16", "--accel", "8", "--acs", "6"],
          "smaller than ACS disc"),
         (["--scheme", "equispaced", "--size", "64x64", "--accel", "8", "--acs", "24"],
          "24 ACS lines exceed the 8 columns of R=8.0 on width 64"),
         (["--scheme", "random-rectilinear", "--size", "64x64", "--accel", "10", "--acs", "24"],
          "24 ACS lines exceed the 7 columns of R=10.0 on width 64"),
         (["--scheme", "pseudo-spiral", "--size", "16x16", "--accel", "4", "--acs", "8"],
          "pseudo-spiral masks have no ACS region; acs must be 0, got 8"),
         (["--scheme", "pseudo-radial", "--size", "16x16", "--accel", "4", "--acs", "3"],
          "pseudo-radial masks have no ACS region; acs must be 0, got 3")],
    )
    def test_bad_mask_arguments_are_usage_errors(self, tmp_path, capsys, flags, message):
        out = tmp_path / "m.cks"
        assert run(["mask", *flags, "--seed", "0", "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_acs_radius_is_not_an_option(self, tmp_path, capsys):
        """One --acs sizes every scheme's ACS region: --acs-radius 3 exits 2
        and writes nothing."""
        with pytest.raises(SystemExit) as exc:
            run(["mask", "--scheme", "gaussian2d", "--size", "16x16", "--accel", "4",
                 "--acs-radius", "3", "--seed", "0", "--out", tmp_path / "m.cks"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --acs-radius 3" in capsys.readouterr().err
        assert not list(tmp_path.glob("m.*"))

    def test_scheme_choices_are_the_registry(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        scheme = next(a for a in sub.choices["mask"]._actions if a.dest == "scheme")
        assert list(scheme.choices) == sorted(GENERATORS)

    @pytest.mark.parametrize("scheme, size", [("equispaced", 16), ("gaussian2d", 12),
                                              ("pseudo-spiral", 12)])
    def test_unset_acs_flag_takes_make_masks_default(self, tmp_path, scheme, size):
        """Without --acs, a mask is make_mask's with its default acs of 0 for
        every scheme, so grids narrower than the paper's 24 ACS lines work."""
        args = cli.build_parser().parse_args(["mask", "--scheme", scheme, "--size", "8x8",
                                              "--accel", "2", "--seed", "0", "--out", "m.cks"])
        assert args.acs == 0
        out, want = tmp_path / "m.cks", tmp_path / "want.cks"
        assert run(["mask", "--scheme", scheme, "--size", f"{size}x{size}", "--accel", "2",
                    "--seed", "0", "--out", out]) == 0
        write_cks(want, make_mask(scheme, size, size, 2, 0))
        assert out.read_bytes() == want.read_bytes()


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

    @pytest.mark.parametrize(
        "size, frames, coils, message",
        [("32", "0", "2", "n_frames must be >= 1"), ("32", "-3", "2", "n_frames must be >= 1"),
         ("8", "1", "2", "side length must be >= 16"), ("32", "1", "0", "n_coils must be >= 1")],
    )
    def test_bad_phantom_arguments_are_usage_errors(
        self, tmp_path, capsys, size, frames, coils, message
    ):
        rc = run(["simulate", "--size", size, "--frames", frames, "--coils", coils, "--seed", "4",
                  "--out-prefix", tmp_path / "bad"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("bad*"))

    @pytest.mark.parametrize("kind", ["truncated", "other grid"])
    def test_bad_mask_file_writes_nothing(self, tmp_path, mask_file, capsys, kind):
        """The mask is read and checked against the phantom grid before any output is written."""
        bad = tmp_path / "bad_mask.cks"
        if kind == "truncated":
            bad.write_bytes(b"hello")
        else:
            shutil.copy(mask_file, bad)  # 64x64, the phantom below is 32x32
        rc = run(["simulate", "--size", "32", "--coils", "2", "--seed", "1", "--mask", bad,
                  "--out-prefix", tmp_path / "s"])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err
        assert not list(tmp_path.glob("s_*"))


class TestReconstructCommand:
    def test_zero_filled_on_full_data_recovers_truth(self, sim_files, tmp_path):
        out = tmp_path / "recon"
        full_mask_path = tmp_path / "full.cks"
        run(["mask", "--scheme", "equispaced", "--size", "64x64", "--accel", "1",
             "--acs", "0", "--seed", "0", "--out", full_mask_path])
        assert run(["reconstruct", "--kspace", sim_files["full"], "--mask", full_mask_path,
                    "--sens", sim_files["sens"], "--T", "0",
                    "--out-prefix", out]) == 0
        recon = read_cks(tmp_path / "recon.cks")
        truth = read_cks(sim_files["truth"])
        assert np.abs(recon.data - truth.data).max() < 1e-5

    def test_admm_t0_equals_zero_filled(self, sim_files, tmp_path):
        for extra, name in [
            ([], "zf"),
            (["--denoiser", "identity", "--strength", "0"], "t0"),
        ]:
            run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                 "--sens", sim_files["sens"], "--T", "0", *extra,
                 "--out-prefix", tmp_path / name])
        a = read_cks(tmp_path / "zf.cks")
        b = read_cks(tmp_path / "t0.cks")
        assert np.array_equal(a.data, b.data)

    def test_admm_beats_zero_filled(self, sim_files, tmp_path):
        run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
             "--sens", sim_files["sens"], "--T", "0",
             "--out-prefix", tmp_path / "zf"])
        run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
             "--sens", sim_files["sens"], "--denoiser", "tikhonov",
             "--T", "16", "--inner", "14", "--out-prefix", tmp_path / "admm"])
        truth = np.abs(read_cks(sim_files["truth"]).data[0])
        zf = np.abs(read_cks(tmp_path / "zf.cks").data[0])
        admm = np.abs(read_cks(tmp_path / "admm.cks").data[0])
        dr = truth.max()
        assert ssim(truth, admm, dr) > ssim(truth, zf, dr)

    def test_estimate_sens_path(self, sim_files, tmp_path):
        assert run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                    "--estimate-sens", "--T", "2", "--inner", "4",
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

    def test_estimate_sens_with_two_acs_lines_fails_like_the_library(
            self, sim_files, tmp_path, capsys):
        """A 2-line ACS block has an all-zero Hann window: reconstruct exits 1
        and writes nothing, where it once wrote an all-zero image."""
        mask_path = tmp_path / "acs2.cks"
        assert run(["mask", "--scheme", "equispaced", "--size", "64x64", "--accel", "4",
                    "--acs", "2", "--seed", "0", "--out", mask_path]) == 0
        with pytest.raises(ValueError, match="ACS calibration gives empty maps"):
            estimate_from_acs(read_cks(sim_files["masked"]), read_cks(mask_path))
        capsys.readouterr()
        rc = run(["reconstruct", "--kspace", sim_files["masked"], "--mask", mask_path,
                  "--estimate-sens", "--T", "2", "--out-prefix", tmp_path / "x"])
        assert rc == 1
        assert "ACS calibration gives empty maps" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_estimate_sens_on_fully_sampled_acs_mask_matches_the_library(self, sim_files, tmp_path):
        mask_path = tmp_path / "r1.cks"
        assert run(["mask", "--scheme", "equispaced", "--size", "64x64", "--accel", "1",
                    "--acs", "8", "--seed", "0", "--out", mask_path]) == 0
        assert run(["reconstruct", "--kspace", sim_files["masked"], "--mask", mask_path,
                    "--estimate-sens", "--T", "2", "--inner", "3",
                    "--out-prefix", tmp_path / "est"]) == 0
        ksp = read_cks(sim_files["masked"])
        mask = make_mask("equispaced", 64, 64, 1, 0, acs=8)
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
        with pytest.raises(SystemExit) as exc:
            run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                 "--out-prefix", tmp_path / "x"])
        assert exc.value.code == 2

    def test_sens_file_and_estimate_sens_are_exclusive(self, sim_files, tmp_path, capsys):
        """Maps come from one source: given both, reconstruct exits 2 and
        writes nothing, whether or not the --sens file exists."""
        for sens in (sim_files["sens"], tmp_path / "missing.cks"):
            with pytest.raises(SystemExit) as exc:
                run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                     "--sens", sens, "--estimate-sens", "--out-prefix", tmp_path / "x"])
            assert exc.value.code == 2
            assert "not allowed with argument" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_method_flag_is_gone(self, sim_files, tmp_path):
        """Zero-filled is --T 0; there is no second way to ask for it."""
        with pytest.raises(SystemExit) as exc:
            run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                 "--sens", sim_files["sens"], "--method", "zero-filled",
                 "--out-prefix", tmp_path / "x"])
        assert exc.value.code == 2

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
        assert rc == 2
        captured = capsys.readouterr()
        assert "strength" in captured.err
        assert "reconstructed" not in captured.out
        assert not list(tmp_path.glob("out*"))

    def test_solver_flags_checked_before_any_input_is_read(self, sim_files, tmp_path, capsys):
        rc = run(["reconstruct", "--kspace", tmp_path / "missing.cks", "--mask", sim_files["mask"],
                  "--sens", sim_files["sens"], "--lam", "0", "--out-prefix", tmp_path / "out"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lam" in err and "missing.cks" not in err

    def test_denoiser_choices_are_the_aliases(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        denoiser = next(a for a in sub.choices["reconstruct"]._actions if a.dest == "denoiser")
        assert list(denoiser.choices) == sorted(cli._DENOISER_ALIASES)

    def test_flag_defaults_are_the_librarys(self):
        """Unset solver flags give the library's own defaults."""
        parser = cli.build_parser()
        args = parser.parse_args(["reconstruct", "--kspace", "k.cks", "--mask", "m.cks",
                                  "--estimate-sens", "--out-prefix", "r"])
        assert (args.lam, args.T, args.inner) == (None, None, None)
        assert not hasattr(args, "step")
        with pytest.raises(SystemExit):
            parser.parse_args(["reconstruct", "--kspace", "k.cks", "--mask", "m.cks",
                               "--estimate-sens", "--out-prefix", "r", "--step", "0.5"])

    def test_removed_flags_are_usage_errors(self, sim_files, tmp_path, capsys):
        """The TV iteration count and the loss weights are library constants,
        not options: reconstruct --tv-iters 5, evaluate --w-nmae 1 and a
        --config line tv-iters=5 each exit 2 and write nothing."""
        recon = ["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                 "--sens", sim_files["sens"], "--denoiser", "tv", "--out-prefix", tmp_path / "x"]
        evaluate = ["evaluate", "--truth", sim_files["truth"], "--pred", sim_files["truth"],
                    "--out", tmp_path / "x.csv"]
        for argv in ([*recon, "--tv-iters", "5"], [*evaluate, "--w-nmae", "1"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        cfg = tmp_path / "c.conf"
        cfg.write_text("tv-iters=5\n")
        assert run([*recon, "--config", cfg]) == 2
        assert f"{cfg}:1: reconstruct has no option --tv-iters" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_zero_filled_checks_solver_flags(self, sim_files, tmp_path, capsys):
        """--T 0 builds its config from the flags like any solve, so a bad
        flag is a usage error there too."""
        rc = run(["reconstruct", "--kspace", sim_files["masked"], "--mask", sim_files["mask"],
                  "--sens", sim_files["sens"], "--T", "0", "--lam", "0",
                  "--out-prefix", tmp_path / "x"])
        assert rc == 2
        assert "lam" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

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
         ("wrong-coils", False),  # estimated maps have the coils of each volume
         ("all-zero", True)],  # read and checked like any volume, but its calibration fails
    )
    def test_bad_middle_input_fails_before_any_solve(
        self, sim_files, tmp_path, capsys, fault, estimate, jobs
    ):
        a = shutil.copy(sim_files["masked"], tmp_path / "a.cks")
        c = shutil.copy(sim_files["masked"], tmp_path / "c.cks")
        bad = tmp_path / "bad.cks"
        if fault == "truncated":
            bad.write_bytes(a.read_bytes()[:-5])
        elif fault == "all-zero":
            write_cks(bad, KSpaceData(np.zeros((4, 1, 64, 64), dtype=complex)))
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

    def test_failed_solve_names_its_file_and_keeps_earlier_outputs(
            self, sim_files, tmp_path, capsys):
        """A volume whose solve fails (here its zero-filled image overflows to
        inf) exits 1 and names its file; at --jobs 1 the volume solved before
        it keeps its outputs and the one after it is not solved."""
        a = shutil.copy(sim_files["masked"], tmp_path / "a.cks")
        c = shutil.copy(sim_files["masked"], tmp_path / "c.cks")
        dtype = read_cks(a).data.dtype
        huge = np.full((4, 1, 64, 64), np.finfo(dtype).max / 2, dtype=dtype)
        write_cks(tmp_path / "huge.cks", KSpaceData(huge))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = run(["reconstruct", "--kspace", a, tmp_path / "huge.cks", c,
                      "--mask", sim_files["mask"], "--sens", sim_files["sens"], "--T", "0",
                      "--out-prefix", tmp_path / "r"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "huge.cks: " in captured.err and "non-finite" in captured.err
        assert sorted(p.name for p in tmp_path.glob("r_*")) == [
            "r_a.cks", "r_a.mag0.pgm", "r_a.mag0.pgm.scale.txt"]

    @pytest.mark.parametrize("estimate", [False, True])
    def test_each_volume_is_freed_once_solved(self, sim_files, tmp_path, monkeypatch, estimate):
        """Each volume's k-space, and its maps when they are estimated, are
        freed once it is solved; a --sens file's maps are shared by all."""
        solved = []

        def solve(path, ksp, sens, *rest):
            gc.collect()
            assert all(ref() is None for ref in solved)
            solved.append(weakref.ref(ksp))
            if estimate:
                solved.append(weakref.ref(sens))

        monkeypatch.setattr(cli, "_reconstruct_one", solve)
        sens = ["--estimate-sens"] if estimate else ["--sens", sim_files["sens"]]
        assert run(["reconstruct", "--kspace", sim_files["masked"], sim_files["full"],
                    "--mask", sim_files["mask"], *sens, "--out-prefix", tmp_path / "r"]) == 0
        assert len(solved) == (4 if estimate else 2)

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

    def test_dynamic_tv_writes_the_same_bytes_for_copies_at_any_jobs(self, tmp_path):
        """Each TV solve keeps its own per-frame duals: a dynamic TV
        reconstruct of two copies of one volume writes the same bytes for
        both at --jobs 2, where the two solves run at once, and at --jobs 1."""
        mask_path, prefix = tmp_path / "m.cks", tmp_path / "sim"
        assert run(["mask", "--scheme", "random-rectilinear", "--size", "24x24", "--accel", "2",
                    "--acs", "6", "--seed", "3", "--out", mask_path]) == 0
        assert run(["simulate", "--size", 24, "--frames", 3, "--coils", 2, "--seed", 5,
                    "--mask", mask_path, "--out-prefix", prefix]) == 0
        copies = [tmp_path / "a.cks", tmp_path / "b.cks"]
        for copy in copies:
            shutil.copy(tmp_path / "sim_kspace_masked.cks", copy)
        for jobs in ("1", "2"):
            assert run(["reconstruct", "--kspace", *copies, "--mask", mask_path,
                        "--estimate-sens", "--mode", "dynamic", "--denoiser", "tv",
                        "--strength", "1e-3", "--lam", "0.1", "--jobs", jobs,
                        "--out-prefix", tmp_path / f"j{jobs}"]) == 0
        outs = sorted(p.name.removeprefix("j1_a") for p in tmp_path.glob("j1_a*"))
        assert len(outs) == 7  # the CKS image; per frame a magnitude PGM and its scale
        for name in outs:
            want = (tmp_path / f"j1_a{name}").read_bytes()
            for got in (f"j1_b{name}", f"j2_a{name}", f"j2_b{name}"):
                assert (tmp_path / got).read_bytes() == want

    def test_stopped_point_mask_solve_writes_the_same_bytes_for_copies_at_any_jobs(
        self, tmp_path, monkeypatch
    ):
        """Each outer step's iteration count comes from norms that are numpy
        sums, not BLAS dots: a lam-1 reconstruct of two copies of one
        gaussian2d volume, whose steps stop short of K, writes the same bytes
        for both at --jobs 2, where the two solves run at once, and at
        --jobs 1."""
        from mcrecon.solver import GradientSteps

        picks, stop = [], GradientSteps.stop
        monkeypatch.setattr(GradientSteps, "stop",
                            lambda dc, g, x0: picks.append((dc.iters, stop(dc, g, x0)))
                            or picks[-1][1])
        mask_path, prefix = tmp_path / "m.cks", tmp_path / "sim"
        assert run(["mask", "--scheme", "gaussian2d", "--size", "48x48", "--accel", "4",
                    "--acs", "3", "--seed", "3", "--out", mask_path]) == 0
        assert run(["simulate", "--size", 48, "--coils", 4, "--seed", 5,
                    "--mask", mask_path, "--out-prefix", prefix]) == 0
        copies = [tmp_path / "a.cks", tmp_path / "b.cks"]
        for copy in copies:
            shutil.copy(tmp_path / "sim_kspace_masked.cks", copy)
        for jobs in ("1", "2"):
            assert run(["reconstruct", "--kspace", *copies, "--mask", mask_path,
                        "--estimate-sens", "--lam", "1", "--jobs", jobs,
                        "--out-prefix", tmp_path / f"j{jobs}"]) == 0
        assert len(picks) == 4 * 16 and any(k < iters for iters, k in picks)
        outs = sorted(p.name.removeprefix("j1_a") for p in tmp_path.glob("j1_a*"))
        assert len(outs) == 3  # the CKS image, a magnitude PGM and its scale
        for name in outs:
            want = (tmp_path / f"j1_a{name}").read_bytes()
            for got in (f"j1_b{name}", f"j2_a{name}", f"j2_b{name}"):
                assert (tmp_path / got).read_bytes() == want

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
    def test_row_gram_solve_matches_the_library(self, tmp_path, gram_steps, height, width):
        """simulate -> reconstruct --mode dynamic --estimate-sens --denoiser tv
        on an odd grid with 4 frames (the row Gram path, in both the CLI and
        the library solve) gives admm_reconstruct of the files' contents
        within float32 round-off.
        simulate renders square phantoms, so the 21x17 k-space is that of a
        cropped phantom, written with write_cks."""
        mask_path, prefix = tmp_path / "m.cks", tmp_path / "sim"
        assert run(["mask", "--scheme", "random-rectilinear", "--size", f"{height}x{width}",
                    "--accel", "2", "--acs", "6", "--seed", "3", "--out", mask_path]) == 0
        if height == width:
            assert run(["simulate", "--size", height, "--frames", 4, "--coils", "4",
                        "--seed", "5", "--mask", mask_path, "--out-prefix", prefix]) == 0
        else:
            crop = ComplexImage(dynamic_phantom(height, 4).data[..., :width])
            _, full = simulate_coils(crop, 4, 5)
            masked = KSpaceData(read_cks(mask_path).pattern * full.data)
            write_cks(tmp_path / "sim_kspace_masked.cks", masked)
        kspace = tmp_path / "sim_kspace_masked.cks"
        assert run(["reconstruct", "--kspace", kspace, "--mask", mask_path, "--estimate-sens",
                    "--mode", "dynamic", "--denoiser", "tv", "--strength", "1e-3", "--lam", "0.1",
                    "--out-prefix", tmp_path / "r"]) == 0
        ksp, mask = read_cks(kspace), read_cks(mask_path)
        assert ksp.data.shape == (4, 4, height, width)
        cfg = AdmmConfig.for_mode("dynamic", lam=0.1, denoiser=DenoiserSpec("tv-chambolle", 1e-3))
        want = admm_reconstruct(ksp, mask, estimate_from_acs(ksp, mask), cfg).data
        got = read_cks(tmp_path / "r.cks").data
        assert len(gram_steps) == 2
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

    @pytest.mark.parametrize("given, missing", [("--kspace-truth", "--kspace-pred"),
                                                ("--kspace-pred", "--kspace-truth")])
    def test_one_kspace_file_is_usage_error(self, sim_files, tmp_path, capsys, given, missing):
        """The k-space metrics (nmae, dual_domain_loss) score a pair, so one
        k-space file without the other is rejected instead of leaving them out."""
        out = tmp_path / "metrics.csv"
        rc = run(["evaluate", "--truth", sim_files["truth"], "--pred", sim_files["truth"],
                  given, sim_files["full"], "--out", out])
        assert rc == 2
        assert f"{missing} is missing" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("with_kspace", [False, True])
    def test_fewer_frames_than_the_ssim_window(self, tmp_path, with_kspace):
        """A 3-frame volume is scored frame by frame with no ssim3d row, and
        its loss is dual_domain_loss's, which leaves out the SSIM3D term too."""
        rng = np.random.default_rng(5)
        truth = rng.random((3, 16, 16))
        pred = truth + 0.05 * rng.standard_normal(truth.shape)
        y_t = rng.standard_normal((2, 3, 16, 16)) + 1j * rng.standard_normal((2, 3, 16, 16))
        y_p = y_t + 0.1 * rng.standard_normal(y_t.shape)
        paths = {name: tmp_path / f"{name}.cks" for name in ("t", "p", "yt", "yp")}
        write_cks(paths["t"], ComplexImage(truth.astype(complex)))
        write_cks(paths["p"], ComplexImage(pred.astype(complex)))
        write_cks(paths["yt"], KSpaceData(y_t))
        write_cks(paths["yp"], KSpaceData(y_p))
        out = tmp_path / "m.csv"
        kspace = ["--kspace-truth", paths["yt"], "--kspace-pred", paths["yp"]]
        assert run(["evaluate", "--truth", paths["t"], "--pred", paths["p"],
                    *(kspace if with_kspace else []), "--out", out]) == 0
        got = {(r["frame"], r["metric"]): float(r["value"]) for r in csv.DictReader(out.open())}
        assert {f for f, _ in got} == {"0", "1", "2"} | ({"all"} if with_kspace else set())
        assert "ssim3d" not in {m for _, m in got}
        if with_kspace:
            mt, mp = (np.abs(read_cks(paths[k]).data) for k in ("t", "p"))
            yt, yp = (read_cks(paths[k]).data for k in ("yt", "yp"))
            want = dual_domain_loss(mt, mp, yt, yp)
            assert got[("all", "dual_domain_loss")] == pytest.approx(want, rel=1e-12)

    def test_grid_under_the_ssim_window_names_the_truth(self, tmp_path, capsys):
        truth, pred, out = tmp_path / "t.cks", tmp_path / "p.cks", tmp_path / "m.csv"
        rng = np.random.default_rng(2)
        write_cks(truth, ComplexImage(rng.random((1, 5, 5)).astype(complex)))
        write_cks(pred, ComplexImage(rng.random((1, 5, 5)).astype(complex)))
        assert run(["evaluate", "--truth", truth, "--pred", pred, "--out", out]) == 1
        err = capsys.readouterr().err
        assert str(truth) in err and "SSIM needs 2D inputs of at least 7 per axis" in err
        assert not out.exists()

    def test_dim_mismatch_is_error(self, sim_files, tmp_path):
        small = tmp_path / "small.cks"
        write_cks(small, ComplexImage(np.ones((1, 16, 16), dtype=complex)))
        rc = run(["evaluate", "--truth", sim_files["truth"], "--pred", small,
                  "--out", tmp_path / "m.csv"])
        assert rc == 1


class TestInputFiles:
    """Every input file is read through one loader: a file of the wrong kind
    or shape exits 1, names the file and writes no output."""

    @pytest.mark.parametrize(
        "command, flag, wrong",
        [("reconstruct", "--kspace", "mask"), ("reconstruct", "--mask", "sens"),
         ("reconstruct", "--sens", "masked"), ("simulate", "--mask", "sens"),
         ("evaluate", "--truth", "masked"), ("evaluate", "--pred", "mask")],
    )
    def test_file_of_another_kind(self, sim_files, tmp_path, capsys, command, flag, wrong):
        bad = shutil.copy(sim_files[wrong], tmp_path / "wrong_kind.cks")
        out = tmp_path / "out"
        flags = {
            "reconstruct": {"--kspace": sim_files["masked"], "--mask": sim_files["mask"],
                            "--sens": sim_files["sens"], "--out-prefix": out},
            "simulate": {"--size": 64, "--coils": 4, "--seed": 3, "--mask": sim_files["mask"],
                         "--out-prefix": out},
            "evaluate": {"--truth": sim_files["truth"], "--pred": sim_files["truth"], "--out": out},
        }[command] | {flag: bad}
        assert run([command, *(t for item in flags.items() for t in item)]) == 1
        assert str(bad) in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    def test_maps_on_another_grid(self, sim_files, tmp_path, capsys):
        """Maps on a grid other than the mask's are named when they are read,
        before any --kspace file: the first one here does not exist."""
        assert run(["simulate", "--size", 48, "--coils", 4, "--seed", 3,
                    "--out-prefix", tmp_path / "small"]) == 0
        maps = tmp_path / "small_sens.cks"
        rc = run(["reconstruct", "--kspace", tmp_path / "missing.cks", sim_files["masked"],
                  "--mask", sim_files["mask"], "--sens", maps, "--out-prefix", tmp_path / "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{maps}: sensitivity grid (48, 48), mask grid (64, 64)" in err
        assert not list(tmp_path.glob("out*"))

    def test_images_of_different_shapes(self, tmp_path, capsys):
        truth, pred, out = tmp_path / "t.cks", tmp_path / "p.cks", tmp_path / "m.csv"
        write_cks(truth, dynamic_phantom(32, 1))
        write_cks(pred, dynamic_phantom(48, 1))
        assert run(["evaluate", "--truth", truth, "--pred", pred, "--out", out]) == 1
        assert str(pred) in capsys.readouterr().err
        assert not out.exists()

    def test_kspace_of_different_shapes(self, sim_files, tmp_path, capsys):
        small, out = tmp_path / "small.cks", tmp_path / "m.csv"
        write_cks(small, KSpaceData(np.ones((4, 1, 32, 64), dtype=complex)))
        rc = run(["evaluate", "--truth", sim_files["truth"], "--pred", sim_files["truth"],
                  "--kspace-truth", sim_files["full"], "--kspace-pred", small, "--out", out])
        assert rc == 1
        assert str(small) in capsys.readouterr().err
        assert not out.exists()


# every --denoiser name and the library kind it stands for, stated apart from cli's table
_DENOISER_NAMES = {kind: kind for kind in DENOISER_KINDS} | {
    "l1": "l1-soft-threshold", "tikhonov": "tikhonov-smooth", "tv": "tv-chambolle"
}


class TestLibraryMatchesCli:
    def test_denoiser_names(self):
        assert _DENOISER_NAMES == cli._DENOISER_ALIASES

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        height=st.integers(16, 24),
        width=st.integers(16, 24),
        scheme=st.sampled_from(sorted(GENERATORS)),
        denoiser=st.sampled_from(sorted(_DENOISER_NAMES)),
        mode=st.sampled_from(["static", "dynamic"]),
        estimate=st.booleans(),
        seed=st.integers(0, 1000),
    )
    def test_mask_simulate_reconstruct_evaluate(
        self, tmp_path_factory, height, width, scheme, denoiser, mode, estimate, seed
    ):
        """mask -> simulate -> reconstruct -> evaluate through cli.main agrees
        with the library on the files' contents. simulate renders square
        phantoms, so a non-square grid's files are those of a cropped phantom,
        written with write_cks. The pseudo-radial and pseudo-spiral masks have
        no ACS region, so they run with --sens only."""
        estimate = estimate and not scheme.startswith("pseudo-")
        tmp = tmp_path_factory.mktemp("pipeline")
        frames = 7 if mode == "dynamic" else 1  # evaluate's ssim3d needs 7 frames
        mask_path, prefix = tmp / "m.cks", tmp / "sim"
        assert run(["mask", "--scheme", scheme, "--size", f"{height}x{width}", "--accel", "3",
                    "--acs", scheme_acs(scheme, 6, 2), "--seed", seed, "--out", mask_path]) == 0
        phantom = dynamic_phantom(max(height, width), frames).data[:, :height, :width]
        sens, full = simulate_coils(ComplexImage(phantom), 4, seed)
        if height == width:
            assert run(["simulate", "--size", height, "--frames", frames, "--coils", "4",
                        "--seed", seed, "--mask", mask_path, "--out-prefix", prefix]) == 0
        else:
            write_cks(tmp / "sim_truth.cks", ComplexImage(phantom))
            write_cks(tmp / "sim_sens.cks", sens)
            write_cks(tmp / "sim_kspace_full.cks", full)
            write_cks(tmp / "sim_kspace_masked.cks",
                      KSpaceData(read_cks(mask_path).pattern * full.data))
        assert np.array_equal(read_cks(tmp / "sim_sens.cks").support, sens.support)

        strength = "0" if denoiser == "identity" else "1e-3"
        sens_flags = ["--estimate-sens"] if estimate else ["--sens", tmp / "sim_sens.cks"]
        assert run(["reconstruct", "--kspace", tmp / "sim_kspace_masked.cks", "--mask", mask_path,
                    *sens_flags, "--mode", mode, "--denoiser", denoiser, "--strength", strength,
                    "--lam", "0.1", "--T", "3", "--inner", "4", "--out-prefix", tmp / "r"]) == 0
        ksp, mask = read_cks(tmp / "sim_kspace_masked.cks"), read_cks(mask_path)
        maps = estimate_from_acs(ksp, mask) if estimate else read_cks(tmp / "sim_sens.cks")
        spec = DenoiserSpec(_DENOISER_NAMES[denoiser], float(strength))
        cfg = AdmmConfig.for_mode(mode, T=3, inner_iters=4, lam=0.1, denoiser=spec)
        want = admm_reconstruct(ksp, mask, maps, cfg).data
        got = read_cks(tmp / "r.cks").data
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

        out = tmp / "e.csv"
        assert run(["evaluate", "--truth", tmp / "sim_truth.cks", "--pred", tmp / "r.cks",
                    "--kspace-truth", tmp / "sim_kspace_full.cks",
                    "--kspace-pred", tmp / "sim_kspace_masked.cks", "--out", out]) == 0
        mt, mp = np.abs(read_cks(tmp / "sim_truth.cks").data), np.abs(got)
        yt, yp = read_cks(tmp / "sim_kspace_full.cks").data, ksp.data
        rng = float(mt.max()) or 1.0
        library = {}
        for t in range(frames):
            library[(str(t), "ssim")] = ssim(mt[t], mp[t], rng)
            library[(str(t), "nmse")] = nmse(mt[t], mp[t])
            library[(str(t), "psnr")] = psnr(mt[t], mp[t], rng)
            library[(str(t), "hfen1")] = hfen1(mt[t], mp[t])
        if frames > 1:
            library[("all", "ssim3d")] = ssim3d(mt, mp, rng)
        library[("all", "nmae")] = nmae(yt, yp)
        library[("all", "dual_domain_loss")] = dual_domain_loss(mt, mp, yt, yp)
        rows = {(r["frame"], r["metric"]): float(r["value"]) for r in csv.DictReader(out.open())}
        assert rows.keys() == library.keys()
        for key, value in library.items():
            assert rows[key] == pytest.approx(value, rel=1e-12), key

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        height=st.integers(1, 15),
        width=st.integers(1, 15),
        frames=st.integers(1, 3),
        scheme=st.sampled_from(sorted(GENERATORS)),
        acs=st.none() | st.integers(0, 15),
        denoiser=st.sampled_from(sorted(_DENOISER_NAMES)),
        seed=st.integers(0, 1000),
    )
    def test_grids_below_the_phantoms(
        self, tmp_path_factory, capsys, height, width, frames, scheme, acs, denoiser, seed
    ):
        """Grids of 1-15 per side, below dynamic_phantom's 16: a random truth
        with simulate_coils' maps and k-space, written with write_cks, and a
        mask from the mask command (with make_mask's ACS defaults unless acs
        is drawn). reconstruct agrees with the library from --sens, and from
        --estimate-sens where estimate_from_acs succeeds in memory; where it
        raises, reconstruct exits 1. evaluate of a grid under the 7-point
        SSIM window exits 1 and names both files."""
        tmp = tmp_path_factory.mktemp("small")
        acs_flags = [] if acs is None else ["--acs", scheme_acs(scheme, min(acs, width), acs % 3)]
        mask_path = tmp / "m.cks"
        rc = run(["mask", "--scheme", scheme, "--size", f"{height}x{width}", "--accel", "2",
                  *acs_flags, "--seed", seed, "--out", mask_path])
        try:
            want_mask = make_mask(scheme, height, width, 2, seed, *acs_flags[1:])
        except ValueError:
            assert rc == 2
            return
        assert rc == 0
        write_cks(tmp / "want_m.cks", want_mask)
        assert mask_path.read_bytes() == (tmp / "want_m.cks").read_bytes()

        rng = np.random.default_rng(seed)
        truth = ComplexImage(rng.standard_normal((frames, height, width))
                             + 1j * rng.standard_normal((frames, height, width)))
        sens, full = simulate_coils(truth, 3, seed)
        paths = {name: tmp / f"{name}.cks" for name in ("truth", "sens", "full", "ksp")}
        write_cks(paths["truth"], truth)
        write_cks(paths["sens"], sens)
        write_cks(paths["full"], full)
        write_cks(paths["ksp"], KSpaceData(want_mask.pattern * full.data))
        ksp, mask = read_cks(paths["ksp"]), read_cks(mask_path)

        strength = "0" if denoiser == "identity" else "1e-3"
        spec = DenoiserSpec(_DENOISER_NAMES[denoiser], float(strength))
        cfg = AdmmConfig(T=2, inner_iters=3, lam=0.1, denoiser=spec)
        try:
            estimated = estimate_from_acs(ksp, mask)
        except ValueError:
            estimated = None
        for name, maps, flags in [("r", read_cks(paths["sens"]), ["--sens", paths["sens"]]),
                                  ("e", estimated, ["--estimate-sens"])]:
            rc = run(["reconstruct", "--kspace", paths["ksp"], "--mask", mask_path, *flags,
                      "--denoiser", denoiser, "--strength", strength, "--lam", "0.1",
                      "--T", "2", "--inner", "3", "--out-prefix", tmp / name])
            if maps is None:
                assert rc == 1
                assert not (tmp / f"{name}.cks").exists()
                continue
            assert rc == 0
            want = admm_reconstruct(ksp, mask, maps, cfg).data
            got = read_cks(tmp / f"{name}.cks").data
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

        out = tmp / "e.csv"
        capsys.readouterr()
        rc = run(["evaluate", "--truth", paths["truth"], "--pred", tmp / "r.cks", "--out", out])
        if min(height, width) < 7:
            assert rc == 1
            err = capsys.readouterr().err
            assert str(paths["truth"]) in err and str(tmp / "r.cks") in err
            assert not out.exists()
        else:
            assert rc == 0
