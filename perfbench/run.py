"""The repository benchmark: one command that runs a workload, prints
every metric by name with its unit, runs the output checks, and exits
non-zero if any check fails.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trip_grid_forecast --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``trip_grid_forecast``, ``raster_table8``,
``stream_grid_ingest`` (see ``perfbench/README.md``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports per-layer
metrics from a separately traced run.

Every measurement runs in a fresh child process whose environment has
every ``REPRO_*`` variable removed and ``PYTHONPATH`` pointing at this
checkout's ``src``.  With ``--trace 0``, ``SETUP_PROBES`` extra child
processes only set up and exit, so ``setup_s`` is a median over
several fresh processes.  Temporary tile stores live under
``.perfbench-tmp/`` and are removed; result and span files go to
``.perfbench-out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
DEADLINE_S = 170.0
MARKER = "PERFBENCH_RESULT "
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: on a small shared host a multi-threaded gemm
    # waits for its slowest thread, which made step times swing more
    # from run to run (and was slower) than single-threaded BLAS.
    env.update(BLAS_THREADS)
    return env


def run_child(args, tmp_root: Path, out_dir: Path, deadline: float,
              setup_only: bool) -> dict:
    workdir = tmp_root / f"{args.workload}-{os.getpid()}-{time.monotonic_ns()}"
    t0 = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), "--workdir", str(workdir), "--outdir", str(out_dir),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        # On timeout subprocess.run kills the child and waits for it.
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(MARKER)]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1][len(MARKER):])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tmp_root = ROOT / ".perfbench-tmp"
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_child(args, tmp_root, out_dir, deadline, True)
                setup.append(probe["setup_s"])
        result = run_child(args, tmp_root, out_dir, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    setup.append(result["setup_s"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    result["setup_samples_s"] = setup
    failed, attempted = result["failed"], result["attempted"]

    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}")
    print(f"inputs sha256 {result['inputs_sha256']}")
    print(f"nproc {env['nproc']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"blas threads {env['blas_threads']}")
    print(f"iterations {result['iterations']}  "
          f"setup samples {[round(s, 4) for s in setup]}")
    print("-- metrics")
    for name, m in sorted(metrics.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("-- workload metrics")
    for name, (value, unit) in result["named"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} checks)")
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"CHECK FAILED {name} {detail}")
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"full result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
