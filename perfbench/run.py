"""Benchmark of rtnqubit: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {mc_oracle,cp_map,point_audit} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program under test is the package in
``src/`` of that checkout; nothing is installed.  A run is a batch
analysis script: one caller, one thread, ops back to back (closed loop, no
think time).  Each op is followed by its correctness checks, which run
outside the op's own timing window.

``--trace 0`` prints the end-to-end metrics:

* ``ops_per_s``: ops completed / summed wall time of the ops (the checks
  after each op are left out, as in the latencies);
* ``op_p50_ms``, ``op_tail_ms``: median and tail of one op's wall time; the
  tail percentile is per workload (``tail_percentile`` in ``workloads.py``),
  and the timed phase runs at least ``min_ops`` ops, which leaves at
  least 10 samples beyond it;
* ``setup_s``: process spawn to the first timed op (interpreter start,
  ``import rtnqubit``, input generation, warm-up), median of
  ``SETUP_SAMPLES`` fresh processes per run;
* ``peak_rss_mib``: ``ru_maxrss`` of the timed process;
* ``ops_ok_ratio``: ops whose checks passed / ops attempted.  It is
  ``1 - ops_failed_ratio``, kept nonzero so that a ratio of medians exists.

``--trace 1`` runs the same loop with every other input cycle traced (so
traced and untraced ops see the same mix) and prints the
per-layer metrics.  Each metric comes from the
workload's own ops when it calls that layer; otherwise from a probe of a
few ops of the workload that does, at the same seed.  Count metrics
(``*_ratio`` of checks, ``events_per_trajectory``) come from a fixed
prefix of ops, so they repeat exactly at a fixed seed.

Every run is a fresh process with BLAS/OpenMP threads pinned to 1 and a
``gc.collect()`` before the timed phase.  Versions, core count and thread
settings are printed on the line before the result and written, with the
result, to ``perfbench/out/``.  Spans of a traced run go to
``perfbench/out/spans_<workload>_seed<seed>.json``.

Workload names and metric names and units are read from ``BENCHMARK.json``.
Default seed 1; held-out seed 2.  Both give zero failed ops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
# A run must end within this many seconds, set-up processes included.
TIME_LIMIT_S = 170.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(mode: str, args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--out-dir", str(OUT_DIR),
    ]
    env = {**os.environ, **THREAD_ENV}
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "platform": platform.platform(),
    }


def measure(args) -> tuple[dict, dict]:
    deadline = time.perf_counter() + TIME_LIMIT_S
    probes = [spawn("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = spawn("trace" if args.trace else "run", args, deadline)
    setups = [p["setup"] for p in probes] + [main["setup"]]

    def med(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        values = {
            "setup.import_s": med("import_s"),
            "setup.inputs_s": med("inputs_s"),
            "setup.warmup_s": med("warmup_s"),
            **main["layers"],
        }
        units = PER_LAYER
    else:
        values = {
            "ops_per_s": main["ops_per_s"],
            "op_p50_ms": main["op_p50_ms"],
            "op_tail_ms": main["op_tail_ms"],
            "setup_s": med("setup_s"),
            "peak_rss_mib": main["peak_rss_mib"],
            "ops_ok_ratio": 1.0 - main["failed"] / main["attempted"],
        }
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": main["failed"] == 0 and all(p["setup_ok"] for p in probes + [main]),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "tail_percentile": main["tail_percentile"],
        "timed_ops": main["attempted"],
        "timed_wall_s": main["wall_s"],
        "setup_samples": setups,
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("seed must be >= 0 and seconds >= 1")

    if not (ROOT / "src" / "rtnqubit" / "__init__.py").is_file():
        print(f"error: no rtnqubit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result, info = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stem = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT_DIR / stem).write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
