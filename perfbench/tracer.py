"""Span tracing of mcrecon, installed from the benchmark's side.

Wrappers are installed by name on the public functions and methods at each
module boundary. A function is replaced in every ``mcrecon`` module namespace
that holds it, because modules import each other's functions by name
(``from .solver import admm_reconstruct``) and a call is traced only where
the name is looked up. Methods are replaced on their class. A target that no
longer exists is reported as missing instead of failing, so the benchmark
still runs after the program is refactored.

Spans are kept in memory. Each records its name, start, end, the span that
was open in the same thread when it began (its parent), the request id,
and, for file and operator targets, the bytes the call read or wrote.
"""

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from statistics import median


def _file_bytes(args, kwargs, result) -> int:
    """Size of the file the first argument names, taken after the call."""
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _operator_bytes(args, kwargs, result) -> int:
    """Bytes of the arrays a ForwardOperator method reads and writes: its
    array argument, its result, the sensitivity maps and the mask pattern.
    An attribute that no longer exists counts as 0 bytes."""
    op = args[0]
    arr = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    maps = getattr(getattr(op, "sens", None), "maps", None)
    pattern = getattr(getattr(op, "mask", None), "pattern", None)
    return sum(getattr(a, "nbytes", 0) for a in (arr, result, maps, pattern))


# Traced targets, "module:attribute.path", each with the function that
# gives the span's bytes from (args, kwargs, result), or None. The bytes are
# taken after the span has ended, so they do not add to its time.
SPAN_TARGETS = {
    "mcrecon.fourier:ForwardOperator.apply_arr": _operator_bytes,
    "mcrecon.fourier:ForwardOperator.adjoint_arr": _operator_bytes,
    "mcrecon.fourier:fft2c": None,
    "mcrecon.fourier:ifft2c": None,
    "mcrecon.solver:admm_reconstruct": None,
    "mcrecon.solver:zero_filled_init": None,
    "mcrecon.solver:denoise_step": None,
    "mcrecon.solver:data_consistency_step": None,
    "mcrecon.solver:multiplier_update": None,
    "mcrecon.core:ComplexImage.__post_init__": None,
    "mcrecon.core:KSpaceData.__post_init__": None,
    "mcrecon.core:SensitivityMaps.__post_init__": None,
    "mcrecon.sensitivity:estimate_from_acs": None,
    "mcrecon.data:read_cks": _file_bytes,
    "mcrecon.data:write_cks": _file_bytes,
    "mcrecon.data:write_pgm": _file_bytes,
    "mcrecon.metrics:ssim": None,
    "mcrecon.metrics:ssim3d": None,
    "mcrecon.metrics:hfen1": None,
}

# Counted without a span: one call per inner gradient iteration, so its
# time stays in the self time of data_consistency_step.
COUNT_TARGETS = ("mcrecon.solver:dc_gradient",)


def span_name(target: str) -> str:
    """'mcrecon.fourier:fft2c' -> 'fourier.fft2c'."""
    module, attr = target.split(":")
    return f"{module.removeprefix('mcrecon.')}.{attr}"


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    nbytes: int = 0


class Tracer:
    """Records spans and call counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int | None], int] = defaultdict(int)
        self.missing: list[str] = []
        self.request: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name, fn, nbytes_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            request = self.request
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                nbytes = nbytes_of(args, kwargs, result) if nbytes_of else 0
                self.spans.append(Span(sid, name, start, end, parent, request, nbytes))

        return traced

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[(name, self.request)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every target that exists; record the rest in ``missing``."""
        self.missing = []
        for target, nbytes_of in SPAN_TARGETS.items():
            self._patch(
                target, lambda fn, n=span_name(target), b=nbytes_of: self.span_wrapper(n, fn, b)
            )
        for target in COUNT_TARGETS:
            self._patch(target, lambda fn, n=span_name(target): self.count_wrapper(n, fn))

    @contextlib.contextmanager
    def recording(self, request: int):
        """Install the wrappers and attribute spans to ``request`` until exit."""
        self.install()
        self.request = request
        try:
            yield
        finally:
            self.request = None
            self.uninstall()

    def layers(self, request: int) -> dict[str, float]:
        """Per-layer metrics of one request's spans and counts."""
        spans = [s for s in self.spans if s.request == request]
        counts = {name: n for (name, req), n in self.counts.items() if req == request}
        return request_layers(spans, counts)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, target: str, make_wrapper) -> None:
        module_name, attr_path = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        wrapper = make_wrapper(original)
        if owners:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mcrecon" and not mod_name.startswith("mcrecon."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)


def wrapper_cost() -> tuple[float, float]:
    """Seconds that one span wrapper and one count wrapper add to a call:
    the medians over 7 batches of 2000 calls to a no-op function, wrapped
    minus bare. The byte hooks of a few targets are not included."""

    def noop():
        return None

    t = Tracer()
    wrapped = (t.span_wrapper("noop", noop), t.count_wrapper("noop", noop))
    extra = ([], [])

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(2000):
            fn()
        return (time.perf_counter() - start) / 2000

    for _ in range(7):
        bare = per_call(noop)
        for fn, costs in zip(wrapped, extra):
            costs.append(per_call(fn) - bare)
    return median(extra[0]), median(extra[1])


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered_length(children[s.sid], s.start, s.end)
        for s in spans
    }


def request_layers(spans, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer busy times (s) and counts of one request's spans.

    ``counts`` maps a count target's span name to its number of calls.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def self_busy(*names):
        return sum(own[s.sid] for n in names for s in by_name[n])

    def calls(name):
        return len(by_name[name])

    def nbytes(*names):
        return sum(s.nbytes for n in names for s in by_name[n])

    def median_nbytes(name):
        return median(s.nbytes for s in by_name[name]) if by_name[name] else 0

    containers = [
        "core.ComplexImage.__post_init__",
        "core.KSpaceData.__post_init__",
        "core.SensitivityMaps.__post_init__",
    ]
    return {
        "fourier.apply_s": busy("fourier.ForwardOperator.apply_arr"),
        "fourier.adjoint_s": busy("fourier.ForwardOperator.adjoint_arr"),
        "fourier.fft_self_s": self_busy("fourier.fft2c", "fourier.ifft2c"),
        # One adjoint per DC gradient step, plus the zero-filled start.
        "fourier.normal_ops": calls("fourier.ForwardOperator.adjoint_arr"),
        # Computed from the nbytes of the arrays passed; caches are ignored.
        "fourier.bytes_per_normal_op": median_nbytes("fourier.ForwardOperator.apply_arr")
        + median_nbytes("fourier.ForwardOperator.adjoint_arr"),
        "solver.admm_s": busy("solver.admm_reconstruct"),
        "solver.denoise_s": busy("solver.denoise_step"),
        # Minus its traced children: the fourier calls and the returned container.
        "solver.dc_self_s": self_busy("solver.data_consistency_step"),
        "solver.multiplier_s": busy("solver.multiplier_update"),
        "solver.zero_fill_s": busy("solver.zero_filled_init"),
        "solver.outer_steps": calls("solver.denoise_step"),
        "solver.inner_iters": counts.get("solver.dc_gradient", 0),
        "core.container_s": busy(*containers),
        "core.containers": sum(calls(n) for n in containers),
        "sensitivity.estimate_s": busy("sensitivity.estimate_from_acs"),
        "data.read_cks_s": busy("data.read_cks"),
        "data.write_cks_s": busy("data.write_cks"),
        "data.write_pgm_s": busy("data.write_pgm"),
        "data.bytes_read": nbytes("data.read_cks"),
        "data.bytes_written": nbytes("data.write_cks", "data.write_pgm"),
        "metrics.ssim_s": busy("metrics.ssim", "metrics.ssim3d"),
        "metrics.ssim3d_s": busy("metrics.ssim3d"),
        "metrics.hfen1_s": busy("metrics.hfen1"),
        "trace.spans": len(spans),
        "trace.counted_calls": sum(counts.values()),
    }
