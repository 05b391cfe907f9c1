"""The sumconn benchmark: cold processes timed from outside.

Every measured process is a fresh interpreter, because a ``sumconn`` run
pays for its lazily filled caches on every invocation.  One process runs
at a time.  Usage, from the repository root::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

``--trace 0`` runs cold processes for ``--seconds`` and reports the
end-to-end metrics: ``wall_s`` and ``peak_rss_mb`` (medians over the
processes) and ``setup_s`` (median over several import-only processes).
Both times are scaled to the host's uncontended speed by ``speed.py``'s
probes inside each process; the raw medians are printed in the table.
``--trace 1`` runs the workload once plainly and once under ``tracer.py``
and reports the per-layer metrics.  A table goes to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracer
import workloads

ROOT = workloads.BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # per gap between workload processes
RSS_POLL_S = 0.01
RUN_LIMIT_S = 170.0  # every child is killed once a run gets this old

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Process:
    """One finished child: wall time, the same scaled to the host's
    uncontended speed, peak RSS of its process tree, exit code."""

    wall_s: float
    scaled_s: float
    peak_rss_mb: float
    returncode: int


@dataclass
class Checks:
    labels: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    def add(self, label: str, ok: bool) -> None:
        self.labels.append(label)
        if not ok:
            self.failed.append(label)


def tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of ``pid`` and all its descendants, from /proc."""
    total = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


class Watcher(threading.Thread):
    """Polls the child's process tree for RSS; kills its group at the deadline."""

    def __init__(self, pid: int, deadline: float) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.deadline = deadline
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(RSS_POLL_S):
            self.peak_kb = max(self.peak_kb, tree_rss_kb(self.pid))
            if time.monotonic() > self.deadline:
                _kill_group(self.pid)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], out_dir: Path, deadline: float, checks: Checks) -> Process:
    """Run ``python argv`` from the repository root with stdout in out_dir;
    ``argv`` leaves its speed probes in out_dir/speed.bin."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        watcher = Watcher(proc.pid, deadline)
        watcher.start()
        try:
            # Wait without reaping, so the watcher never polls a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            watcher.done.set()
            watcher.join()
        finally:
            watcher.done.set()
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb = max(watcher.peak_kb, usage.ru_maxrss)
    samples = speed.load(out_dir / "speed.bin")
    checks.add("speed probes recorded", bool(samples))
    scaled = speed.scaled_wall(wall, samples) if samples else float("nan")
    return Process(wall, scaled, peak_kb / 1024, proc.returncode)


def run_workload(name: str, seed: int, out_dir: Path, deadline: float, checks: Checks,
                 traced: bool = False, reference: dict = workloads.REFERENCE) -> tuple[Process, bytes]:
    """One cold workload process, its output gates added to ``checks``."""
    build = workloads.traced_command if traced else workloads.command
    proc = run_process(build(name, seed, out_dir), out_dir, deadline, checks)
    tag = "traced " if traced else ""
    checks.add(f"{tag}exit code 0", proc.returncode == 0)
    output_path = workloads.output_file(name, out_dir)
    output = output_path.read_bytes() if output_path.exists() else b""
    for label, ok in workloads.check(name, output, reference):
        checks.add(tag + label, ok)
    return proc, output


def timed_run(name: str, seed: int, seconds: float, work: Path, deadline: float,
              checks: Checks, reference: dict = workloads.REFERENCE) -> tuple[dict, list[Process]]:
    """Cold workload processes while they fit in ``seconds`` (at least one),
    with set-up probes before, between and after them."""
    setup: list[Process] = []

    def probe() -> None:
        for _ in range(SETUP_PROBES):
            out_dir = work / f"setup{len(setup)}"
            p = run_process(workloads.setup_command(out_dir), out_dir, deadline, checks)
            checks.add("setup exit code 0", p.returncode == 0)
            setup.append(p)

    procs: list[Process] = []
    start = time.perf_counter()
    while True:
        probe()
        proc, _ = run_workload(name, seed, work / f"run{len(procs)}", deadline, checks,
                               reference=reference)
        procs.append(proc)
        typical = statistics.median(p.wall_s for p in procs)
        if time.perf_counter() - start + typical > seconds:
            break
    probe()
    metrics = {
        "wall_s": statistics.median(p.scaled_s for p in procs),
        "setup_s": statistics.median(p.scaled_s for p in setup),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in procs),
    }
    print(f"unscaled medians: wall {statistics.median(p.wall_s for p in procs):.6g} s, "
          f"setup {statistics.median(p.wall_s for p in setup):.6g} s")
    return metrics, procs


def traced_run(name: str, seed: int, work: Path, deadline: float,
               checks: Checks) -> tuple[dict, list[Process]]:
    plain, plain_out = run_workload(name, seed, work / "plain", deadline, checks)
    traced, traced_out = run_workload(name, seed, work / "traced", deadline, checks, traced=True)
    same = workloads.digest(traced_out) == workloads.digest(plain_out)
    checks.add("traced output digest equals untraced", same)
    try:
        names, spans, counters, missing = tracer.load(work / "traced")
    except FileNotFoundError:
        names, spans, counters, missing = [], array("q"), {}, []
    checks.add("trace written", bool(names))
    for target in missing:
        print(f"note: {target} not found, so not traced", file=sys.stderr)
    metrics = tracer.layer_metrics(names, spans, counters)
    metrics["trace.overhead_frac"] = traced.scaled_s / plain.scaled_s - 1
    return metrics, [plain, traced]


def result_line(metrics: dict, units: list[tuple[str, str]], checks: Checks) -> dict:
    return {
        "correct": not checks.failed,
        "attempted": len(checks.labels),
        "failed": len(checks.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sumconn" / "cli.py").is_file():
        print(f"error: no sumconn sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally blocks that kill and reap children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = workloads.BENCH_DIR / ".work" / str(os.getpid())
    deadline = time.monotonic() + RUN_LIMIT_S
    checks = Checks()
    try:
        if args.trace:
            metrics, procs = traced_run(args.workload, args.seed, work, deadline, checks)
            units = tracer.LAYER_METRICS
        else:
            metrics, procs = timed_run(args.workload, args.seed, args.seconds, work, deadline, checks)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {len(procs)}: "
          + " ".join(f"{p.wall_s:.3f}s(scaled {p.scaled_s:.3f}s)/{p.peak_rss_mb:.1f}MB" for p in procs))
    for name, unit in units:
        print(f"  {name:34} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':34} {len(checks.failed) / len(checks.labels):>14.6g} "
          f"({len(checks.failed)} of {len(checks.labels)} checks)")
    for label in checks.failed:
        print(f"  FAILED: {label}")
    print(json.dumps(result_line(metrics, units, checks)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
