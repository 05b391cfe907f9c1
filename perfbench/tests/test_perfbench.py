"""Self-tests of the benchmark: its gates, its trace and its bypass claims.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Several tests start real workload processes and take tens of seconds.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import speed
import tracer
import workloads

SCRATCH = workloads.BENCH_DIR / ".work" / f"test-{os.getpid()}"


@pytest.fixture(scope="module", autouse=True)
def _clean_scratch():
    yield
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _scratch(name: str):
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _deadline() -> float:
    return time.monotonic() + run.RUN_LIMIT_S


def test_tampered_reference_digest_fails_the_run():
    tampered = copy.deepcopy(workloads.REFERENCE)
    tampered["verify-all"]["sha256"] = "0" * 64
    checks = run.Checks()
    run.timed_run("verify-all", 1, 0, _scratch("tampered"), _deadline(), checks, reference=tampered)
    result = run.result_line({"wall_s": 1, "setup_s": 1, "peak_rss_mb": 1}, run.END_TO_END, checks)
    assert checks.failed == ["report digest"]
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False


def test_scaled_wall_drops_probe_time_and_divides_by_slowdown():
    ref = speed.REFERENCE_S
    assert speed.scaled_wall(1 + 10 * ref, [ref] * 10) == pytest.approx(1)
    # Half the samples at half speed: the process ran at 3/4 of the reference.
    samples = [ref, 2 * ref] * 5
    assert speed.scaled_wall(2 + sum(samples), samples) == pytest.approx(1.5)


def test_probed_setup_process_records_samples():
    out_dir = _scratch("setup")
    checks = run.Checks()
    proc = run.run_process(workloads.setup_command(out_dir), out_dir, _deadline(), checks)
    assert proc.returncode == 0 and not checks.failed
    assert len(speed.load(out_dir / "speed.bin")) >= 2
    assert proc.scaled_s > 0


def _snapshot():
    mods = {k: m for k, m in sys.modules.items() if k == "sumconn" or k.startswith("sumconn.")}
    return {(k, attr): value for k, m in mods.items() for attr, value in vars(m).items()} | {
        (cls.__qualname__, attr): value
        for cls in (sys.modules["sumconn.radicals"].RadicalValue,
                    sys.modules["sumconn.verify"].SweepResult)
        for attr, value in vars(cls).items()
    }


def test_self_times_fit_in_the_root_span_and_wrappers_are_restored():
    import sumconn.cli  # noqa: F401  (loads every module the tracer wraps)
    from sumconn import verify

    def workload():
        return verify.run_sweeps(range(4, 8), range(4, 7), range(4, 7)).to_json_dict()

    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    assert _snapshot() != before
    try:
        t.span(tracer.ROOT, workload)
    finally:
        t.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not t.missing

    dur, own = tracer.self_times(t.spans)
    root = t.names.index(tracer.ROOT)
    root_span = [i for i in range(len(dur)) if t.spans[4 * i] == root]
    assert len(root_span) == 1 and t.spans[4 * root_span[0] + 3] == -1
    assert all(x >= 0 for x in own)
    assert sum(own) <= dur[root_span[0]]
    metrics = tracer.layer_metrics(t.names, t.spans, t.counters)
    self_metrics = [k for k in metrics if k.endswith("self_s")] + [
        "radicals.arith_s", "radicals.sign_s", "graphs.build_s", "graph6.emit_s",
    ]
    assert sum(metrics[k] for k in self_metrics) <= dur[root_span[0]] / 1e9
    assert metrics["verify.tasks"] == (2 + 3 + 4 + 5) + (2 + 3 + 4) + 3
    assert metrics["radicals.sign_calls"] > 0 and metrics["canon.calls"] > 0


def test_unicyclic_makes_no_radicals_calls():
    metrics, _ = run.traced_run("unicyclic-n13", 1, _scratch("uni"), _deadline(), checks := run.Checks())
    assert not checks.failed
    assert metrics["radicals.sign_calls"] == 0
    assert metrics["radicals.arith_calls"] == 0
    assert metrics["enumeration.classes"] == 13999


def test_transforms_bypass_canon_and_counts_repeat_exactly():
    runs = []
    for i in range(2):
        checks = run.Checks()
        metrics, _ = run.traced_run("transforms-seeded", 7, _scratch(f"tr{i}"), _deadline(), checks)
        assert not checks.failed
        runs.append(metrics)
    assert runs[0]["canon.calls"] == 0
    assert runs[0]["transforms.calls"] == 2 * workloads.TRANSFORM_TRIALS
    counts = [name for name, unit in tracer.LAYER_METRICS if unit == "count"]
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}


def test_refuses_to_run_without_the_program_sources():
    bare = _scratch("bare")
    shutil.copy(workloads.BENCH_DIR.parent / "BENCHMARK.json", bare)
    shutil.copytree(workloads.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
