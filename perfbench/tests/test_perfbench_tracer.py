"""Span arithmetic and wrapper installation of the benchmark's tracer."""

import numpy as np
import pytest
import tracer
from tracer import Span, Tracer, covered_length, request_layers, self_times, wrapper_cost

import mcrecon.cli
import mcrecon.fourier
import mcrecon.sensitivity
from mcrecon import sampling
from mcrecon.core import SensitivityMaps


@pytest.mark.parametrize(
    "intervals, lo, hi, expected",
    [
        ([], 0.0, 10.0, 0.0),
        ([(1.0, 2.0), (3.0, 5.0)], 0.0, 10.0, 3.0),
        ([(1.0, 4.0), (2.0, 6.0)], 0.0, 10.0, 5.0),
        ([(1.0, 8.0), (2.0, 3.0)], 0.0, 10.0, 7.0),
        ([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0, 3.0),
        ([(3.0, 4.0), (1.0, 2.0), (2.0, 3.0)], 0.0, 10.0, 3.0),
        ([(11.0, 12.0)], 0.0, 10.0, 0.0),
    ],
)
def test_covered_length(intervals, lo, hi, expected):
    assert covered_length(intervals, lo, hi) == pytest.approx(expected)


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "a", 0.0, 10.0, None, 1),
        Span(1, "b", 1.0, 4.0, 0, 1),
        Span(2, "c", 5.0, 6.0, 0, 1),
        Span(3, "d", 2.0, 3.0, 1, 1),
        # a span of another thread overlaps b but is not its child
        Span(4, "e", 3.0, 9.0, None, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(6.0)


def test_request_layers_derives_busy_self_and_counts():
    spans = [
        Span(0, "solver.data_consistency_step", 0.0, 10.0, None, 7),
        Span(1, "fourier.ForwardOperator.apply_arr", 1.0, 3.0, 0, 7),
        Span(2, "fourier.fft2c", 1.5, 2.5, 1, 7),
        Span(3, "fourier.ForwardOperator.adjoint_arr", 4.0, 7.0, 0, 7),
        Span(4, "fourier.ifft2c", 4.0, 6.0, 3, 7),
        Span(5, "core.ComplexImage.__post_init__", 9.0, 9.5, 0, 7),
        Span(6, "data.read_cks", 11.0, 12.0, None, 7, nbytes=100),
        Span(7, "data.write_cks", 12.0, 13.0, None, 7, nbytes=40),
        Span(8, "data.write_pgm", 13.0, 13.5, None, 7, nbytes=2),
        Span(9, "metrics.ssim3d", 14.0, 16.0, None, 7),
        Span(10, "metrics.ssim", 16.0, 16.5, None, 7),
    ]
    m = request_layers(spans, {"solver.dc_gradient": 5})
    assert m["fourier.apply_s"] == pytest.approx(2.0)
    assert m["fourier.adjoint_s"] == pytest.approx(3.0)
    assert m["fourier.fft_self_s"] == pytest.approx(3.0)
    assert m["fourier.normal_ops"] == 1
    assert m["solver.dc_self_s"] == pytest.approx(10.0 - 2.0 - 3.0 - 0.5)
    assert m["solver.inner_iters"] == 5
    assert m["core.containers"] == 1
    assert m["core.container_s"] == pytest.approx(0.5)
    assert m["data.bytes_read"] == 100
    assert m["data.bytes_written"] == 42
    assert m["metrics.ssim_s"] == pytest.approx(2.5)
    assert m["metrics.ssim3d_s"] == pytest.approx(2.0)
    assert m["trace.spans"] == len(spans)


def test_install_patches_every_lookup_and_uninstall_restores():
    fft2c = mcrecon.fourier.fft2c
    ifft2c = mcrecon.fourier.ifft2c
    apply_arr = mcrecon.fourier.ForwardOperator.apply_arr
    t = Tracer()
    with t.recording(3):
        assert mcrecon.fourier.fft2c is not fft2c
        assert mcrecon.sensitivity.ifft2c is not ifft2c
        assert mcrecon.cli.ifft2c is mcrecon.sensitivity.ifft2c
        assert mcrecon.fourier.ForwardOperator.apply_arr is not apply_arr
        mcrecon.cli.ifft2c(mcrecon.fourier.fft2c([[1.0, 2.0], [3.0, 4.0]]))
    assert t.missing == []
    assert mcrecon.fourier.fft2c is fft2c
    assert mcrecon.sensitivity.ifft2c is ifft2c
    assert mcrecon.fourier.ForwardOperator.apply_arr is apply_arr
    assert [(s.name, s.request) for s in t.spans] == [("fourier.fft2c", 3), ("fourier.ifft2c", 3)]


def test_operator_spans_record_the_bytes_of_the_arrays_passed():
    op = mcrecon.fourier.ForwardOperator(
        sampling.equispaced_mask(16, 16, 2, 4, 0),
        SensitivityMaps(np.ones((3, 16, 16), dtype=np.complex128) / np.sqrt(3)),
    )
    x = np.ones((2, 16, 16), dtype=np.complex64)
    t = Tracer()
    with t.recording(1):
        y = op.apply_arr(x)
        op.adjoint_arr(y)
    apply, adjoint = [s for s in t.spans if s.name.startswith("fourier.ForwardOperator")]
    fixed = op.sens.maps.nbytes + op.mask.pattern.nbytes
    assert apply.nbytes == x.nbytes + y.nbytes + fixed
    assert adjoint.nbytes == y.nbytes + 2 * 16 * 16 * 16 + fixed


def test_wrapper_cost_is_positive_and_small():
    span_cost, count_cost = wrapper_cost()
    assert 0 < span_cost < 1e-3 and 0 < count_cost < 1e-3


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        tracer, "SPAN_TARGETS", {**tracer.SPAN_TARGETS, "mcrecon.solver:no_such_step": None}
    )
    monkeypatch.setattr(
        tracer, "COUNT_TARGETS", tracer.COUNT_TARGETS + ("mcrecon.no_such_module:f",)
    )
    t = Tracer()
    with t.recording(1):
        pass
    assert t.missing == ["mcrecon.solver:no_such_step", "mcrecon.no_such_module:f"]
