"""One benchmark process: set up a workload, then optionally time it.

Started by ``run.py`` (never by hand) as

    python3 perfbench/worker.py --workload W --seed N --mode M \
        --seconds S --spawned-at T --out-dir DIR

with ``T`` the parent's ``time.perf_counter()`` just before the spawn
(CLOCK_MONOTONIC, shared by both processes).  Modes:

* ``setup``: import, generate inputs, warm up, report set-up times, exit;
* ``run``: set up, then run ops back to back for S seconds, untraced;
* ``trace``: as ``run``, with every other input cycle traced, then a probe of the
  other workloads so that every per-layer metric is measured.

Prints one JSON object as its last line of standard output.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rtnqubit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

T_IMPORTED = time.perf_counter()

MAX_TRACEBACKS = 3

# Op index of the warm-up op; timed ops never reach it.
WARMUP_OP = 999_999


def timed_phase(wl, pool, seconds: float, min_ops: int, traced: bool):
    """Run ops back to back; check each one right after its timing window.

    Returns per-op latencies split by tracing, the phase wall time, the
    failure count, the tallies of the first ``wl.count_ops`` ops and the
    tracer.
    """
    null = tracing.NullTracer()
    tracer = tracing.Tracer() if traced else None
    lat = {False: [], True: []}
    tallies: dict = {}
    failed = 0
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        inp = pool[i % len(pool)]
        # whole input cycles alternate, so traced and untraced ops see the same mix
        on = traced and (i // wl.cycle) % 2 == 1
        tr = tracer if on else null
        t0 = time.perf_counter()
        try:
            rec = tr.run_op(i, wl.op, inp, i, tr)
            t1 = time.perf_counter()
            ok, tally = wl.check(inp, rec)
        except Exception:  # an op that raises counts as failed
            t1 = time.perf_counter()
            ok, tally = False, {}
            if failed < MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
        lat[on].append(t1 - t0)
        if not ok:
            failed += 1
        if i < wl.count_ops:
            workloads.merge_tallies(tallies, tally)
        i += 1
    wall = time.perf_counter() - start
    return lat, wall, failed, tallies, tracer


def layer_times(spans) -> dict:
    """Per-layer metrics from the layer spans of a tracer."""
    totals: dict = {}
    for _, name, label, units, start, end, _, _ in spans:
        if name == "op":
            continue
        t, n = totals.get((name, label), (0.0, 0))
        totals[name, label] = (t + end - start, n + units)
    out = {}
    for key, (t, n) in totals.items():
        metric, scale = workloads.LAYER_METRICS[key]
        out[metric] = t / n * scale
    return out


def span_coverage(spans) -> float:
    """Share of traced op time covered by the op's direct layer spans."""
    op_time = {sid: end - start for sid, name, _, _, start, end, _, _ in spans if name == "op"}
    covered = sum(end - start for _, _, _, _, start, end, parent, _ in spans if parent in op_time)
    return covered / sum(op_time.values())


def trace_metrics(wl, pool, lat, tallies, tracer, out_dir: Path, seed: int) -> tuple[dict, int, int]:
    """Per-layer metrics of a traced phase, completed by a probe of the other workloads.

    Layers the workload does not call are timed on ``probe_ops`` ops of the
    workload that does, with the same seed, after one untraced warm-up op
    of it; their count metrics come from those probe ops.  The Monte Carlo
    building blocks are always timed on ``McOracle.detail`` over a fixed
    subsample of the mc_oracle inputs.
    """
    metrics = layer_times(tracer.spans)
    metrics.update(workloads.ratios(tallies))
    attempted = failed = 0
    probe = tracing.Tracer()
    pools = {wl.name: (wl, pool)}
    for name in workloads.WORKLOADS:
        if name in pools:
            continue
        other = workloads.make(name, seed, out_dir)
        pools[name] = (other, other.inputs())
        warm = pools[name][1][-1]
        ok, _ = other.check(warm, other.op(warm, WARMUP_OP, tracing.NullTracer()))
        attempted += 1
        failed += not ok
        probe_tallies: dict = {}
        for j, inp in enumerate(pools[name][1][: other.probe_ops]):
            ok, tally = other.check(inp, probe.run_op(f"probe:{name}:{j}", other.op, inp, j, probe))
            attempted += 1
            failed += not ok
            workloads.merge_tallies(probe_tallies, tally)
        for key, value in workloads.ratios(probe_tallies).items():
            metrics.setdefault(key, value)
    mc, mc_pool = pools[workloads.McOracle.name]
    metrics.update(probe.run_op("detail", mc.detail, mc_pool, probe))
    for key, value in layer_times(probe.spans).items():
        metrics.setdefault(key, value)

    (out_dir / f"spans_{wl.name}_seed{seed}.json").write_text(
        json.dumps({"workload": wl.name, "seed": seed,
                    "spans": tracing.as_records(tracer.spans) + tracing.as_records(probe.spans)})
    )
    untraced = len(lat[False]) / sum(lat[False])
    traced = len(lat[True]) / sum(lat[True])
    metrics["trace.span_coverage_ratio"] = span_coverage(tracer.spans)
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    if not Path(rtnqubit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported rtnqubit from {rtnqubit.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, args.out_dir)
    pool = wl.inputs()
    t_inputs = time.perf_counter()
    setup_ok = wl.anchors_ok()
    warm = pool[-1]
    setup_ok &= wl.check(warm, wl.op(warm, WARMUP_OP, tracing.NullTracer()))[0]
    t_ready = time.perf_counter()

    result = {
        "setup": {
            "setup_s": t_ready - args.spawned_at,
            "import_s": T_IMPORTED - args.spawned_at,
            "inputs_s": t_inputs - T_IMPORTED,
            "warmup_s": t_ready - t_inputs,
        },
        "setup_ok": bool(setup_ok),
    }
    if args.mode != "setup":
        traced = args.mode == "trace"
        min_ops = wl.count_ops if traced else wl.min_ops
        lat, wall, failed, tallies, tracer = timed_phase(wl, pool, args.seconds, min_ops, traced)
        all_lat = lat[False] + lat[True]
        result.update(
            attempted=len(all_lat),
            failed=failed,
            wall_s=wall,
            ops_per_s=len(all_lat) / sum(all_lat),
            op_p50_ms=statistics.median(all_lat) * 1e3,
            op_tail_ms=statistics.quantiles(all_lat, n=100, method="inclusive")[wl.tail_percentile - 1] * 1e3,
            tail_percentile=wl.tail_percentile,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if traced:
            metrics, attempted, probe_failed = trace_metrics(
                wl, pool, lat, tallies, tracer, args.out_dir, args.seed
            )
            result["layers"] = metrics
            result["attempted"] += attempted
            result["failed"] += probe_failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
