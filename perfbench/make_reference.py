"""Record the reconstruction quality and the exact counts the benchmark
checks against.

Usage, from the root of a checkout of the commit whose results are the
reference:

    python3 perfbench/make_reference.py --seeds 0-19 7919

For each workload and seed it runs one request exactly as the benchmark
does, and writes the mean SSIM, PSNR and NMSE to reference_quality.json.
The request of the last seed is traced, and its exact counts are written
to reference_counts.json with the digest of the mcrecon sources.
"""

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as wk
from tracer import Tracer


def parse_seeds(items):
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges such as 0-19")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    sys.path.insert(0, str(run.ROOT / "src"))
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    quality, counts = {}, {}
    for name, wl in wk.WORKLOADS.items():
        for seed in seeds:
            tracer = Tracer()
            traced = seed == seeds[-1]
            rundir = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
            try:
                inputs = wk.build_inputs(wl, seed, rundir)
                (rundir / "out").mkdir()
                ctx = tracer.recording(1) if traced else contextlib.nullcontext()
                r = wk.run_request(wl, inputs, rundir / "out", ctx)
            finally:
                shutil.rmtree(rundir, ignore_errors=True)
            if not r.ok:
                print(f"{name} seed {seed}: {r.error}", file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: {r.quality}", flush=True)
            quality.setdefault(name, {})[str(seed)] = r.quality
            if traced:
                layers = tracer.layers(1)
                counts[name] = {k: layers[k] for k in run.EXACT_COUNTS}
    for path, table in (
        (run.BENCH / "reference_quality.json", {"workloads": quality}),
        (
            run.BENCH / "reference_counts.json",
            {"source_sha256": run.source_digest(run.ROOT / "src" / "mcrecon"), "workloads": counts},
        ),
    ):
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
