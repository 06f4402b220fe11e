"""The mcrecon benchmark: closed-loop CLI reconstruction workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs requests back to back: a request is ``mcrecon reconstruct``
followed by ``mcrecon evaluate`` on each output, driven in-process through
``mcrecon.cli.main``. The first request is an untimed warm-up; while it
runs, the library solves the same CKS inputs in memory, and the CLI output
must match that solve within float32 round-off. Requests then repeat until
S seconds have passed. Every request's outputs are checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` every timed
request is traced, at least two of them, and the JSON holds the medians of
their per-layer metrics. The tracing overhead is the measured cost of one
wrapper call times the wrapper calls of a request. The exact counts must
repeat between the traced requests, and must equal reference_counts.json
when the mcrecon sources are those it was recorded from. A run record
(machine, versions, thread settings, seed, input hashes, sizes) is printed
and saved under ``.perfbench_work/records``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median

import workloads as wk
from tracer import Tracer, wrapper_cost

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_LAUNCHES = 7
# A traced run traces at least this many requests, so that its exact
# counts are compared between requests.
TRACED_REQUESTS = 2
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Counts that must repeat exactly between requests of the same code.
EXACT_COUNTS = (
    "fourier.normal_ops", "solver.outer_steps", "solver.inner_iters", "core.containers",
    "data.bytes_read", "data.bytes_written",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed loop length, > 0")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def measure_setup(root: Path) -> list[float]:
    """Wall times of fresh interpreters importing mcrecon.cli. One untimed
    launch first writes the bytecode cache, as any earlier use would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import mcrecon.cli"]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True, capture_output=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def reference_quality(name: str, seed: int, better: dict) -> tuple[dict, str]:
    """Seed-commit quality for (workload, seed); for an unrecorded seed, the
    worst value recorded for the workload."""
    table = json.loads((BENCH / "reference_quality.json").read_text())
    by_seed = table["workloads"][name]
    if str(seed) in by_seed:
        return by_seed[str(seed)], f"seed {seed}"
    worst = {
        k: (min if direction == "higher" else max)(q[k] for q in by_seed.values())
        for k, direction in better.items()
    }
    return worst, f"worst of {len(by_seed)} recorded seeds"


def source_digest(src: Path) -> str:
    """SHA-256 over the relative paths and contents of the .py files under ``src``."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reference_counts(name: str) -> tuple[dict | None, str]:
    """The exact counts recorded for the workload, or None when the mcrecon
    sources differ from those they were recorded with; and where they come from."""
    table = json.loads((BENCH / "reference_counts.json").read_text())
    if table["source_sha256"] != source_digest(ROOT / "src" / "mcrecon"):
        return None, "not compared with reference_counts.json: the mcrecon sources differ from those it was recorded with"
    if name not in table["workloads"]:
        return None, f"not compared with reference_counts.json: it has no {name}"
    return table["workloads"][name], "compared with reference_counts.json"


def run_record(wl, seed, inputs) -> dict:
    import numpy
    import scipy

    cpu_model, llc = platform.processor(), None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                cpu_model = value.strip()
            elif key.strip() == "cache size" and llc is None:
                llc = value.strip()
    except OSError:
        pass
    px = wl.size * wl.size
    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "input_sha256": inputs.sha256,
        "sizes_bytes": {
            "coil_kspace_per_volume_complex128": 16 * wk.COILS * wl.frames * px,
            "image_per_volume_complex128": 16 * wl.frames * px,
            "sensitivity_maps_complex128": 16 * wk.COILS * px,
            "last_level_cache": llc,
        },
    }


def run_workload(wl, seed, seconds, trace, rundir, quality_ref, bounds, better):
    inputs = wk.build_inputs(wl, seed, rundir)
    outdir = rundir / "out"
    outdir.mkdir()

    def checked_request(cli_context=contextlib.nullcontext()):
        r = wk.run_request(wl, inputs, outdir, cli_context)
        if r.ok:
            try:
                wk.check_quality(r.quality, quality_ref, bounds, better)
            except wk.CheckError as exc:
                r.ok, r.error = False, str(exc)
        return r

    with ThreadPoolExecutor(max_workers=1) as pool:
        library = pool.submit(wk.in_memory_solves, wl, inputs)
        warm = checked_request()
        try:
            expected = library.result()
        except Exception as exc:  # reported as a failed warm-up, the run goes on
            expected = None
            warm.ok, warm.error = False, f"in-memory solve failed: {exc!r}"
    if warm.ok:
        try:
            wk.check_matches_library(wk.recon_paths(inputs, outdir / "recon"), expected)
        except wk.CheckError as exc:
            warm.ok, warm.error = False, str(exc)

    tracer = Tracer() if trace else None
    timed = []  # (request id, result)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(timed) < (TRACED_REQUESTS if trace else 1):
        rid = len(timed) + 1
        ctx = tracer.recording(rid) if trace else contextlib.nullcontext()
        timed.append((rid, checked_request(ctx)))
    loop_s = time.perf_counter() - start
    return inputs, warm, timed, loop_s, tracer


def end_to_end(wl, setup_times, timed, loop_s) -> dict:
    results = [r for _, r in timed]
    good = [r for r in results if r.ok]
    quality = good[-1].quality if good else dict.fromkeys(wk.QUALITY_KEYS, 0.0)
    measured = good or results
    return {
        "setup_s": median(setup_times),
        "reconstruct_s": median(r.reconstruct_s for r in measured),
        "evaluate_s": median(r.evaluate_s for r in measured),
        "volumes_per_s": len(good) * wl.volumes / loop_s,
        **quality,
    }


def per_layer(wl, inputs, timed, tracer, costs) -> tuple[dict, list[dict]]:
    """Medians over the traced requests of their per-layer metrics.

    ``costs`` is the time one span wrapper and one count wrapper add to a call."""
    span_cost, count_cost = costs
    per_request = []
    for rid, r in timed:
        layers = tracer.layers(rid)
        layers["cli.parallel_efficiency"] = layers["solver.admm_s"] / (r.reconstruct_s * wl.jobs)
        layers["trace.overhead_s"] = (
            layers["trace.spans"] * span_cost + layers["trace.counted_calls"] * count_cost
        )
        per_request.append(layers)
    metrics = {k: median(m[k] for m in per_request) for k in per_request[0]}
    metrics["sampling.mask_s"] = inputs.mask_s
    return metrics, per_request


def exact_count_problems(per_request, expected: dict | None) -> list[str]:
    """Counts that differ between traced requests, or from ``expected``."""
    errors = [
        f"{k} differs between requests: {[m[k] for m in per_request]}"
        for k in EXACT_COUNTS
        if len({m[k] for m in per_request}) > 1
    ]
    if expected is not None:
        errors += [
            f"{k} = {per_request[0][k]}, recorded {expected[k]}"
            for k in EXACT_COUNTS
            if per_request[0][k] != expected[k]
        ]
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mcrecon" / "cli.py").is_file():
        print(f"error: no mcrecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in wk.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(wk.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    wl = wk.WORKLOADS[args.workload]
    e2e_spec = {m["name"]: m for m in spec["end_to_end"]}
    bounds = {k: e2e_spec[k]["bound"] for k in wk.QUALITY_KEYS}
    better = {k: e2e_spec[k]["better"] for k in wk.QUALITY_KEYS}
    quality_ref, ref_source = reference_quality(wl.name, args.seed, better)

    setup_times = [] if args.trace else measure_setup(ROOT)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-seed{args.seed}-", dir=work))
    try:
        inputs, warm, timed, loop_s, tracer = run_workload(
            wl, args.seed, args.seconds, args.trace, rundir, quality_ref, bounds, better
        )
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    requests = [warm] + [r for _, r in timed]
    failed = sum(not r.ok for r in requests)
    record = run_record(wl, args.seed, inputs)
    record["quality_reference"] = {"source": ref_source, **quality_ref}
    record["requests"] = [
        {"warm_up": i == 0, "traced": bool(args.trace and i), "reconstruct_s": r.reconstruct_s,
         "evaluate_s": r.evaluate_s, "ok": r.ok, "error": r.error}
        for i, r in enumerate(requests)
    ]
    problems = []
    if args.trace:
        metrics, per_request = per_layer(wl, inputs, timed, tracer, wrapper_cost())
        expected, count_source = reference_counts(wl.name)
        problems = exact_count_problems(per_request, expected)
        record["missing_trace_targets"] = tracer.missing
        record["count_reference"] = count_source
        names = spec["per_layer"]
    else:
        metrics = end_to_end(wl, setup_times, timed, loop_s)
        metrics["error_rate"] = failed / len(requests)
        names = spec["end_to_end"]
    record["metrics"] = metrics

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(timed)} timed requests in {loop_s:.2f} s, {failed} of {len(requests)} failed")
    for i, r in enumerate(requests):
        if not r.ok:
            print(f"  request {i} failed: {r.error}")
    for problem in problems:
        print(f"  exact-count self-test failed: {problem}")
    if args.trace:
        for target in tracer.missing:
            print(f"  layer target missing, not traced: {target}")
        print(f"  exact counts compared between {len(timed)} traced requests; {count_source}")
    units = {m["name"]: m["unit"] for m in names}
    for key, value in metrics.items():
        print(f"  {key:32s} {value:>16.6g} {units.get(key, '')}")
    records = work / "records"
    records.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(records / f"{stem}-spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "request": s.request, "bytes": s.nbytes}) + "\n")
    print("run record: " + json.dumps({k: v for k, v in record.items() if k not in ("requests", "metrics")}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
