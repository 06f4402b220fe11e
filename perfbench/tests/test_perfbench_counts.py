"""Exact-count self-test: the traced counts of a request repeat exactly
across requests and seeds of the same code, on a tiny threaded workload;
and the recorded counts match what each workload's configuration implies."""

import json

import run
import workloads as wk
from tracer import Tracer

TINY = wk.Workload(
    name="tiny",
    size=32,
    frames=1,
    volumes=2,
    mask_generator="equispaced_mask",
    accel=2,
    acs=8,
    cli_args=("--estimate-sens", "--jobs", "2", "--T", "2", "--inner", "3", "--lam", "0.5"),
    T=2,
    inner=3,
    lam=0.5,
    denoiser="tikhonov-smooth",
    strength=1e-2,
    jobs=2,
)


def traced_counts(tmp_path, seed):
    workdir = tmp_path / f"seed{seed}"
    (workdir / "out").mkdir(parents=True)
    inputs = wk.build_inputs(TINY, seed, workdir)
    t = Tracer()
    timed = []
    for rid in (1, 2):
        r = wk.run_request(TINY, inputs, workdir / "out", t.recording(rid))
        assert r.ok, r.error
        timed.append((rid, r))
    _, per_request = run.per_layer(TINY, inputs, timed, t, (1e-6, 1e-7))
    assert run.exact_count_problems(per_request, None) == []
    return inputs, [{k: m[k] for k in run.EXACT_COUNTS} for m in per_request]


def test_counts_repeat_across_requests_and_seeds(tmp_path):
    inputs0, counts0 = traced_counts(tmp_path, 0)
    inputs1, counts1 = traced_counts(tmp_path, 1)
    assert inputs0.sha256 != inputs1.sha256
    assert counts0[0] == counts0[1] == counts1[0] == counts1[1]
    c = counts0[0]
    assert c["fourier.normal_ops"] == 2 * (2 * 3 + 1)
    assert c["solver.outer_steps"] == 2 * 2
    assert c["solver.inner_iters"] == 2 * 2 * 3
    assert c["data.bytes_read"] > 0 and c["data.bytes_written"] > 0
    assert run.exact_count_problems([c, c], c) == []
    assert run.exact_count_problems([c, {**c, "core.containers": 0}], None)
    assert run.exact_count_problems([c], {**c, "solver.inner_iters": 1})


def test_recorded_counts_match_the_configuration():
    table = json.loads((run.BENCH / "reference_counts.json").read_text())
    assert set(table["workloads"]) == set(wk.WORKLOADS)
    for name, c in table["workloads"].items():
        wl = wk.WORKLOADS[name]
        assert set(c) == set(run.EXACT_COUNTS)
        assert c["fourier.normal_ops"] == wl.volumes * (wl.T * wl.inner + 1)
        assert c["solver.outer_steps"] == wl.volumes * wl.T
        assert c["solver.inner_iters"] == wl.volumes * wl.T * wl.inner


def test_cli_output_matches_library(tmp_path):
    (tmp_path / "out").mkdir()
    inputs = wk.build_inputs(TINY, 3, tmp_path)
    r = wk.run_request(TINY, inputs, tmp_path / "out", run.contextlib.nullcontext())
    assert r.ok, r.error
    recons = wk.recon_paths(inputs, tmp_path / "out" / "recon")
    wk.check_matches_library(recons, wk.in_memory_solves(TINY, inputs))
