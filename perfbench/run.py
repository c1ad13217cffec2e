"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan_mix --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics: the workload is set up
several times (``setup_s`` is the median), then one closed-loop client
runs the seeded op stream for ``--seconds``, and on to the end of the
maintenance period it is in. Every workload reports the same four
metrics, all in process CPU time: ``setup_s``, ``cpu_per_op_ms`` and
the geometric means over its op kinds of their medians (``cpu_p50_ms``)
and tail percentiles (``cpu_tail_ms``); the record line gives the
figures per kind, wall-clock latencies included.
``--trace 1`` runs a fixed
number of ops twice on fresh set-ups, untraced then traced, and reports
the per-layer metrics; both passes must return identical result
checksums. The last line of standard output is the result object; the
line before it records the workload, its sizes and the host.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path[:0] = [_SRC, os.path.dirname(_HERE)]

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(_SRC + os.sep):
    sys.exit(f"perfbench: measures the checkout's own src/repro, "
             f"found {repro.__file__}")

from perfbench.harness import Recorder, WorkDir, WORK_DIR, cpu_ticks, \
    drive, host_context, kind_metrics  # noqa: E402
from perfbench.scan_mix import ScanMix  # noqa: E402
from perfbench.tpch_refresh import TpchRefresh  # noqa: E402
from perfbench.tracing import LayerProbe, Tracer, db_counters, \
    end_state, layer_metrics  # noqa: E402
from perfbench.write_mix import WriteMix  # noqa: E402

WORKLOADS = {w.name: w for w in (ScanMix, WriteMix, TpchRefresh)}


def measure(workload, work: WorkDir, seconds: float) -> tuple[dict, Recorder]:
    """End-to-end run: repeated set-up, then the timed closed loop."""
    rec = Recorder()
    setups = []
    db = root = None
    for _ in range(workload.setup_repeats):
        if db is not None:
            db.close()
            work.remove(root)
        root = work.fresh("db")
        c0 = time.process_time()
        db = workload.setup(root)
        setups.append(time.process_time() - c0)
    workload.warm(db)
    start = time.perf_counter()
    next_op = drive(workload, db, rec, deadline=start + seconds,
                    cutoff=start + 2 * seconds)
    # CPU time per completed op over the client's calls: maintenance that
    # runs inside a call counts, the benchmark's own result checks
    # between calls do not.
    done = sum(len(v) for v in rec.cpu.values())
    busy = sum(sum(v) for v in rec.cpu.values())
    workload.finish(db, root, rec, next_op)
    metrics, rec.by_kind = kind_metrics(workload, rec)
    metrics["cpu_per_op_ms"] = (busy / done * 1e3 if done else 0.0, "ms")
    metrics["setup_s"] = (statistics.median(setups), "s")
    return metrics, rec


def trace(workload, work: WorkDir, seconds: float,
          dump_path: str) -> tuple[dict, Recorder]:
    """Per-layer run: the same fixed op count untraced, then traced."""
    n = workload.trace_ops(seconds)
    # Both passes first run the same untimed lead-in ops, so neither pays
    # the process's first-use costs inside its timed window.
    lead = max(2, n // 10)
    plain = Recorder()
    root = work.fresh("db")
    db = workload.setup(root)
    workload.warm(db)
    drive(workload, db, plain, limit=lead)
    t0 = time.perf_counter()
    next_op = drive(workload, db, plain, start=lead, limit=n)
    untraced_s = time.perf_counter() - t0
    workload.finish(db, root, plain, next_op)

    traced = Recorder()
    root = work.fresh("db")
    db = workload.setup(root)
    workload.warm(db)
    drive(workload, db, traced, limit=lead)
    tracer = Tracer()
    probe = LayerProbe(tracer)
    before = db_counters(db)
    wait_before = workload.service_wait_s()
    tracer.install()
    try:
        t0 = time.perf_counter()
        next_op = drive(workload, db, traced, start=lead, limit=n,
                        probe=probe)
        # The probe's own bookkeeping between ops is not tracing cost.
        traced_s = time.perf_counter() - t0 - probe.own_s
        after = db_counters(db)
        state = end_state(db)
        service_wait = workload.service_wait_s() - wait_before
        workload.finish(db, root, traced, next_op)
    finally:
        tracer.uninstall()
    tracer.dump(dump_path)
    if traced.checksum != plain.checksum:
        traced.fail("traced and untraced runs returned different results")
    rec = Recorder()
    rec.attempted = plain.attempted + traced.attempted
    rec.failed = plain.failed + traced.failed
    rec.errors = plain.errors + traced.errors
    metrics = layer_metrics(
        tracer, probe, before, after, state, service_wait,
        overhead=traced_s / untraced_s,
        error_rate=rec.failed / rec.attempted if rec.attempted else 0.0)
    return metrics, rec


def run(name: str, seed: int, seconds: float, traced: bool,
        scale: float = 1.0) -> tuple[dict, dict]:
    """Run one workload; returns ``(record, result)`` where ``result`` is
    the contract's final object. ``scale`` shrinks the inputs for the
    smoke test; the command line always runs at full size."""
    workload = WORKLOADS[name](seed, scale)
    # The generated inputs and oracles are long-lived: keep them out of
    # the collector's reach so they do not lengthen the program's pauses.
    gc.collect()
    gc.freeze()
    ticks = cpu_ticks()
    try:
        with WorkDir(name) as work:
            if traced:
                dump = os.path.join(WORK_DIR, "traces",
                                    f"{name}-{seed}.jsonl")
                metrics, rec = trace(workload, work, seconds, dump)
            else:
                metrics, rec = measure(workload, work, seconds)
    finally:
        gc.unfreeze()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "scale": scale,
        "sizes": workload.sizes(),
        "by_kind": rec.by_kind,
        "error_rate": rec.failed / rec.attempted if rec.attempted else 0.0,
        "errors": rec.errors,
        "host": host_context(ticks),
    }
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
