"""Runs one workload in this (fresh) process and prints its result as
one JSON line prefixed with ``PERFBENCH_RESULT``.

Started by ``run.py``; not meant to be run by hand.  Set-up (imports,
input generation, tile store) ends at the first timed call; set-up
time is measured from ``--t0``, a ``time.monotonic()`` stamp the
launcher takes just before starting this process.

After set-up one untimed warm-up iteration runs (its checks count),
then iterations repeat until ``--seconds`` have passed and the
workload has enough latency samples.  With ``--trace 1`` every other
measured iteration is traced; end-to-end numbers come only from
untraced iterations.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time

from harness import Checks, median
from spans import NULL, Recorder

WORKLOADS = {
    "trip_grid_forecast": ("wl_trip", "TripGridForecast"),
    "raster_table8": ("wl_raster", "RasterTable8"),
    "stream_grid_ingest": ("wl_stream", "StreamGridIngest"),
}

# Untraced end-to-end metrics (setup_s is added by the launcher).
END_TO_END_UNITS = {
    "pipeline_s": "s",
    "prep_items_per_s": "1/s",
    "consume_items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Traced per-layer metrics; a layer a workload bypasses reads 0.
SPAN_METRICS = (
    "engine.grid_query",
    "streaming.append",
    "streaming.delta",
    "preprocessing.grid_update",
    "preprocessing.raster_pretransform",
    "spatial.raster_load",
    "spatial.rtif_decode",
    "spatial.rtif_encode",
    "transforms.apply",
    "data.build",
    "data.fetch",
    "nn.forward",
    "tensor.backward",
    "optim.step",
    "nn.eval",
)
LAYERS = (
    "engine", "streaming", "preprocessing", "spatial", "transforms",
    "data", "nn", "tensor", "optim", "bench",
)
COUNT_UNITS = {
    "engine.rows_in": "count",
    "engine.groups_out": "count",
    "engine.op.Source.seconds": "s",
    "engine.op.CompiledStage.seconds": "s",
    "engine.op.GroupByAgg.seconds": "s",
    "engine.op.MapPartitions.seconds": "s",
    "engine.op.other.seconds": "s",
    "streaming.state_groups": "count",
    "streaming.state_bytes": "B",
    "streaming.live_start_groups": "count",
    "streaming.generator_lag_ms": "ms",
    "spatial.bytes_read": "B",
    "spatial.bytes_written": "B",
    "data.batches": "count",
    "data.samples": "count",
    "train.steps": "count",
}
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **COUNT_UNITS,
    "tensor.pool_hit_rate": "ratio",
    "tensor.pool_bytes": "B",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.iterations": "count",
}

MAX_MEASURE_S = 110.0


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    threads = {
        k: os.environ.get(k, "unset")
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def layer_metrics(rec: Recorder) -> dict:
    """One traced iteration's per-layer numbers."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, seconds in rec.totals().items():
        if f"{name}_s" in out:
            out[f"{name}_s"] = seconds
    for layer, seconds in rec.self_times().items():
        out[f"self.{layer}_s"] = seconds
    for name, value in rec.counts.items():
        out[name] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module_name, class_name = WORKLOADS[args.workload]
    os.makedirs(args.workdir)
    try:
        module = importlib.import_module(module_name)
        workload = getattr(module, class_name)(args.seed, args.workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print("PERFBENCH_RESULT " + json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, args)
        result["setup_s"] = setup_s
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print("PERFBENCH_RESULT " + json.dumps(result))
    return 0


def measure(workload, args) -> dict:
    from repro.tensor.pool import default_pool

    checks = Checks()
    inputs_digest = workload.digest()
    warmup = workload.iteration(NULL)
    workload.check_iteration(warmup, checks)

    untraced, traced, recorders = [], [], []
    started = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) <= len(untraced)
        rec = Recorder(len(recorders)) if trace_this else NULL
        with rec.span(f"bench.{workload.name}"):
            result = workload.iteration(rec)
        workload.check_iteration(result, checks)
        if trace_this:
            pool = default_pool().stats()
            rec.set("tensor.pool_hit_rate", pool["hit_rate"])
            rec.set("tensor.pool_bytes", pool["bytes"])
            traced.append(result)
            recorders.append(rec)
        else:
            untraced.append(result)
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_S:
            break
        done = (
            traced and untraced if args.trace else workload.enough(untraced)
        )
        if elapsed >= args.seconds and done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.final_checks(checks)

    metrics, named = workload.summarize(untraced)
    metrics["peak_rss_mb"] = peak_rss_mb
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": inputs_digest,
        "environment": environment(),
        "iterations": {"warmup": 1, "untraced": len(untraced), "traced": len(traced)},
        "warmup_pipeline_s": warmup["pipeline_s"],
        "untraced_iterations": [
            {k: v for k, v in r.items() if isinstance(v, (int, float))}
            for r in untraced
        ],
        "named": named,
        "checks": checks.results,
        "attempted": checks.attempted,
        "failed": checks.failed,
    }
    if args.trace:
        per_iteration = [layer_metrics(rec) for rec in recorders]
        layers = {
            name: median([m[name] for m in per_iteration])
            for name in PER_LAYER_UNITS
        }
        # Each traced iteration is paired with the untraced one right
        # after it, so slow drifts of the host cancel in the difference.
        pairs = [
            (t["pipeline_s"], u["pipeline_s"]) for t, u in zip(traced, untraced)
        ]
        layers["trace.overhead_s"] = median([t - u for t, u in pairs])
        layers["trace.overhead_frac"] = median([(t - u) / u for t, u in pairs])
        layers["trace.iterations"] = len(traced)
        out["metrics"] = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
        out["traced_pipeline_s"] = [r["pipeline_s"] for r in traced]
        spans_path = os.path.join(
            args.outdir, f"{workload.name}-seed{args.seed}-spans.json"
        )
        os.makedirs(args.outdir, exist_ok=True)
        with open(spans_path, "w") as fh:
            json.dump([s for rec in recorders for s in rec.dump()], fh)
        out["spans_file"] = spans_path
    else:
        out["metrics"] = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return out


if __name__ == "__main__":
    sys.exit(main())
