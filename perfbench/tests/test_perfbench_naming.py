"""BENCHMARK.json against the contract's naming rules and the metrics the
benchmark actually emits."""

import json
import re
from pathlib import Path

import run
import workloads as wk
from tracer import Span, request_layers

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_directions_are_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200


def test_bounds_and_setup_metric():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_workloads_match_definitions():
    assert [w["name"] for w in SPEC["workloads"]] == list(wk.WORKLOADS)


def test_end_to_end_metrics_are_emitted():
    wl = wk.WORKLOADS["static256-rect-l1"]
    r = wk.RequestResult(2.0, 0.5, ok=True, quality={"ssim": 0.9, "psnr_db": 30.0, "nmse": 0.01})
    metrics = run.end_to_end(wl, [0.6, 0.5, 0.7], [(1, r)], 2.5)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics["setup_s"] == 0.6
    assert metrics["volumes_per_s"] == 1 / 2.5


def test_per_layer_metrics_are_emitted():
    wl = wk.WORKLOADS["batch128-gauss-jobs2"]
    inputs = wk.Inputs(None, None, [], {}, mask_s=0.01)
    t = run.Tracer()
    t.spans = [
        Span(0, "solver.admm_reconstruct", 0.0, 3.0, None, 2),
        Span(1, "fourier.ForwardOperator.apply_arr", 0.5, 1.0, 0, 2, nbytes=300),
        Span(2, "fourier.ForwardOperator.adjoint_arr", 1.0, 1.5, 0, 2, nbytes=200),
        Span(3, "fourier.ForwardOperator.adjoint_arr", 1.5, 2.0, 0, 2, nbytes=200),
    ]
    t.counts[("solver.dc_gradient", 2)] = 5
    timed = [(2, wk.RequestResult(2.5, 0.1, ok=True))]
    metrics, per_request = run.per_layer(wl, inputs, timed, t, (1e-6, 1e-7))
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert metrics["trace.overhead_s"] == 4 * 1e-6 + 5 * 1e-7
    assert metrics["cli.parallel_efficiency"] == 3.0 / (2.5 * 2)
    assert metrics["fourier.bytes_per_normal_op"] == 500
    assert set(request_layers([], {})) <= set(per_request[0])
