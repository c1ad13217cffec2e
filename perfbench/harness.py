"""Shared machinery: the closed-loop client, latency summaries, result
checksums, host context and the run's work directory.

One client thread runs a workload's pre-generated operation list in order,
timing each call at the caller twice: wall-clock time, and the CPU time
the whole process (client and the database's own threads) spent during
the call. The end-to-end metrics are CPU times. On a shared VM the
hypervisor takes ("steals") CPU time from the guest, and the share it
took drifted between 0 and 21% from one run to the next on the 2-vCPU
development host, moving wall-clock figures by 20-50% with it. Stolen
time is not charged to the process, so its CPU time moves less, though
it still rises with the host's load (by up to ~30% there, through shared
cores and caches). The wall-clock figures go to the record line. A
failed call (an exception) and a wrong result both count as failures.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import sys
import time

import numpy as np

# Scratch space for storage roots and trace dumps, relative to the
# directory the benchmark runs from (the checkout root).
WORK_DIR = ".perfbench_work"

_MASK = (1 << 64) - 1
_MIX = 0x9E3779B97F4A7C15


class Recorder:
    """Per-op wall-clock (``samples``) and process CPU (``cpu``) times by
    operation kind, in seconds, plus attempt/failure counts and a digest
    of every result the client received."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.cpu: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # Per-kind latency figures of a timed run, for the record line.
        self.by_kind: dict = {}
        self._digest = hashlib.blake2b(digest_size=16)

    def sample(self, kind: str, seconds: float, cpu_seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)
        self.cpu.setdefault(kind, []).append(cpu_seconds)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(what)

    def absorb(self, payload: bytes) -> None:
        self._digest.update(payload)

    @property
    def checksum(self) -> str:
        return self._digest.hexdigest()


def percentile_ms(samples: list[float], pct: float) -> float:
    """The ``pct`` percentile of ``samples`` (seconds), in milliseconds."""
    if not samples:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(samples) * 1e3, pct))


def supported_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    return round(100.0 * (1.0 - 10.0 / n), 2) if n > 10 else 0.0


def drive(workload, db, rec: Recorder, start: int = 0,
          deadline: float | None = None, cutoff: float | None = None,
          limit: int | None = None, probe=None) -> int:
    """Run ``workload.ops[start:]`` as one closed-loop client until
    ``limit`` operations or the end of the generated stream, or until the
    ``deadline`` (a ``perf_counter`` value) has passed and the workload
    is at a point where it may stop (``workload.can_stop()``, the end of
    a maintenance period), or past the ``cutoff`` in any case. Returns
    the index of the next op.

    ``probe`` (the traced run's layer probe) is told when each op starts
    and ends, outside the timed interval.
    """
    ops = workload.ops
    i = start
    end = len(ops) if limit is None else min(len(ops), start + limit)
    while i < end:
        if deadline is not None:
            now = time.perf_counter()
            if now >= deadline and (workload.can_stop()
                                    or (cutoff is not None
                                        and now >= cutoff)):
                break
        op = ops[i]
        i += 1
        workload.before(db, op)
        if probe is not None:
            probe.op_start(workload, db, op)
        rec.attempted += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = workload.execute(db, op)
        except Exception as exc:  # a failed operation is a measured outcome
            elapsed = time.perf_counter() - t0
            if probe is not None:
                probe.op_end(workload, db, op, None, elapsed)
            rec.fail(f"op {i - 1} {op[0]}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if probe is not None:
            probe.op_end(workload, db, op, out, elapsed)
        rec.sample(workload.kind(db, op), elapsed, cpu)
        problem = workload.check(db, i - 1, op, out)
        if problem is not None:
            rec.fail(f"op {i - 1} {op[0]}: {problem}")
        rec.absorb(workload.digest(op, out))
    return i


def kind_metrics(workload, rec: Recorder) -> tuple[dict, dict]:
    """``cpu_p50_ms`` and ``cpu_tail_ms`` plus the per-kind figures
    behind them.

    ``cpu_p50_ms`` is the geometric mean, over the workload's op kinds
    (``workload.tails``), of each kind's median CPU time per op;
    ``cpu_tail_ms`` that of each kind's tail percentile, over the kinds
    that name one. Every kind weighs the same whatever its share of the
    ops or of the time, so a kind that is a few percent of the ops still
    moves both. The per-kind figures also give the wall-clock latencies.
    A kind with no samples is a failure of the run.
    """
    by_kind, p50s, tails = {}, [], []
    for kind, tail in workload.tails.items():
        cpu = rec.cpu.get(kind)
        if not cpu:
            rec.fail(f"no {kind} samples")
            continue
        wall = rec.samples[kind]
        entry = {"n": len(cpu),
                 "highest_supported_percentile":
                     supported_percentile(len(cpu)),
                 "cpu_p50_ms": percentile_ms(cpu, 50),
                 "wall_p50_ms": percentile_ms(wall, 50)}
        p50s.append(entry["cpu_p50_ms"])
        if tail is not None:
            entry[f"cpu_p{tail}_ms"] = percentile_ms(cpu, tail)
            entry[f"wall_p{tail}_ms"] = percentile_ms(wall, tail)
            tails.append(entry[f"cpu_p{tail}_ms"])
        by_kind[kind] = entry
    metrics = {"cpu_p50_ms": (_geomean(p50s), "ms"),
               "cpu_tail_ms": (_geomean(tails), "ms")}
    return metrics, by_kind


def _geomean(values: list[float]) -> float:
    return float(np.exp(np.mean(np.log(values)))) if values else float("nan")


# -- result checksums ------------------------------------------------------


def row_hash(values) -> int:
    """Order-sensitive 64-bit hash of one row of integers; the scalar twin
    of :func:`column_hashes`."""
    h = 0
    for pos, value in enumerate(values):
        h = ((h ^ ((int(value) + pos) & _MASK)) * _MIX) & _MASK
        h ^= h >> 29
    return h


def column_hashes(columns) -> np.ndarray:
    """Per-row hashes of integer columns (uint64 arithmetic wraps exactly
    like :func:`row_hash`'s masked Python integers)."""
    n = len(columns[0]) if columns else 0
    h = np.zeros(n, dtype=np.uint64)
    mix = np.uint64(_MIX)
    with np.errstate(over="ignore"):
        for pos, col in enumerate(columns):
            h = (h ^ (np.asarray(col).astype(np.int64).view(np.uint64)
                      + np.uint64(pos))) * mix
            h ^= h >> np.uint64(29)
    return h


def table_checksum(columns) -> int:
    """Order-insensitive checksum of a table: the wrapped sum of its row
    hashes."""
    with np.errstate(over="ignore"):
        return int(column_hashes(columns).sum(dtype=np.uint64))


def relation_bytes(rel) -> bytes:
    """Stable byte image of a result relation for the run digest: small
    results whole, large numeric columns as position-weighted wrapped
    sums (the oracle checks already compare them value by value)."""
    parts = [str(rel.num_rows).encode()]
    weights = None
    for name in rel.column_names:
        arr = rel[name]
        if arr.dtype == object:
            parts.append(repr(arr.tolist()).encode())
        elif rel.num_rows <= 4096:
            parts.append(np.ascontiguousarray(arr).tobytes())
        else:
            if weights is None:
                weights = np.arange(1, 2 * rel.num_rows, 2, dtype=np.uint64)
            with np.errstate(over="ignore"):
                words = arr.astype(np.float64 if arr.dtype.kind == "f"
                                   else np.int64).view(np.uint64)
                parts.append(str(int((words * weights).sum(
                    dtype=np.uint64))).encode())
    return b"|".join(parts)


def relations_equal(left, right) -> bool:
    if left.column_names != right.column_names \
            or left.num_rows != right.num_rows:
        return False
    return all(np.array_equal(left[c], right[c]) for c in left.column_names)


# -- host context and work directory ----------------------------------------


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks from ``/proc/stat`` (Linux), else
    None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def host_context(ticks_before=None) -> dict:
    """Where the numbers came from. Reported next to the metrics, never
    used to rescale them. ``ticks_before`` (from :func:`cpu_ticks` at the
    start of the run) adds the share of CPU time the hypervisor stole
    during the run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    python_loop_ms = (time.perf_counter() - t0) * 1e3
    arr = np.arange(2_000_000, dtype=np.int64)
    t0 = time.perf_counter()
    for _ in range(10):
        arr = (arr * 3 + 1) % 1_000_003
    numpy_loop_ms = (time.perf_counter() - t0) * 1e3
    ticks = cpu_ticks()
    steal = None
    if ticks_before is not None and ticks is not None \
            and ticks[1] > ticks_before[1]:
        steal = round(100.0 * (ticks[0] - ticks_before[0])
                      / (ticks[1] - ticks_before[1]), 2)
    return {
        "cpu_steal_pct": steal,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "calibration_python_ms": round(python_loop_ms, 3),
        "calibration_numpy_ms": round(numpy_loop_ms, 3),
    }


class WorkDir:
    """A private scratch directory under :data:`WORK_DIR`, removed on
    exit."""

    def __init__(self, label: str):
        self.path = os.path.abspath(
            os.path.join(WORK_DIR, f"{label}-{os.getpid()}"))
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self._n = 0

    def fresh(self, stem: str) -> str:
        self._n += 1
        path = os.path.join(self.path, f"{stem}{self._n}")
        os.makedirs(path)
        return path

    def remove(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class Workload:
    """What a workload module provides to the client loop and the runner.

    ``ops`` is the whole pre-generated operation stream; ``execute`` runs
    one op against the program and returns what the program returned;
    ``check`` compares that with the benchmark's own expectation.
    """

    name = ""
    setup_repeats = 5
    # Op kind -> the tail percentile reported for it (None: median only).
    tails: dict = {}
    # Ops per pass of a traced run, per second of --seconds: a fixed
    # count (never a measured rate), so same-seed traced runs do the
    # same work and their counters repeat exactly.
    trace_ops_per_second = 100.0
    ops: list = []

    def trace_ops(self, seconds: float) -> int:
        return max(20, int(self.trace_ops_per_second * seconds / 2))

    def setup(self, root: str):
        raise NotImplementedError

    def warm(self, db) -> None:
        """Untimed preparation between set-up and the first op."""

    def before(self, db, op) -> None:
        """Untimed per-op hook, called before the op's timer starts."""

    def execute(self, db, op):
        raise NotImplementedError

    def check(self, db, index: int, op, out) -> str | None:
        """None when ``out`` is right, else what is wrong."""
        return None

    def digest(self, op, out) -> bytes:
        return b""

    def kind(self, db, op) -> str:
        """The op kind a finished op's latency is sampled under."""
        return op[0]

    def can_stop(self) -> bool:
        """Whether a timed run may end before the next op. Workloads with
        periodic maintenance end only after an op that carried it, so
        every run holds whole periods, and maintenance the same share of
        its CPU time per op."""
        return True

    def is_read(self, op) -> bool:
        return False

    def write_units(self, op) -> int:
        """Logical update operations ``op`` carries (0 for a read)."""
        return 0

    def returned_rows(self, op, out) -> int:
        return out.num_rows

    def finish(self, db, root: str, rec: Recorder, next_op: int) -> None:
        """Post-run phase (e.g. timed reopens); closes ``db``."""
        db.close()

    def sizes(self) -> dict:
        return {}

    def service_wait_s(self) -> float:
        return 0.0
