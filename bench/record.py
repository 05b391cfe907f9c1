"""Record a change's benchmark numbers against a base revision.

Runs ``perfbench/run.py`` on a base revision and on the working tree in
alternating order (base first in even pairs, the working tree first in odd
ones), so slow drifts of the host fall on both sides alike, and writes
``BENCH_<pr>.json`` with every run's end-to-end metrics and, per metric,
the median and quartiles of each side and the number of pairs in which the
working tree did better.  Every workload that the working tree's
``perfbench/workloads.py`` defines is run, in ten pairs: a gain is claimed
when the change wins at least nine of them.  Usage, from the repository
root::

    python3 bench/record.py --pr 8 --base HEAD~1 --seconds 8

The base revision is exported with ``git archive`` into a temporary
directory (under ``$TMPDIR``), removed afterwards;
each side runs its own ``perfbench/run.py`` on its own ``src/``.  Only the
committed files of the base count, while the working tree is measured as
it stands: the report names its HEAD commit and whether uncommitted
changes were on top of it.  A base that is the working tree's own clean
HEAD is refused, since it would compare a commit with itself.

Both sides run with no ``sumconn`` bytecode: every process compiles it
from source, as in a fresh checkout where bytecode is never written.  Runs
set ``PYTHONDONTWRITEBYTECODE=1`` and drop any ``PYTHONPYCACHEPREFIX``, and
every ``__pycache__`` under the working tree's ``src/`` is removed first;
an exported base has none.  A fresh prefix would hide the standard
library's own bytecode too, which such a checkout reads.  One discarded
run per workload and side warms the file cache before the timed pairs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py of the working tree)

SIDES = ("base", "change")
PAIRS = 10
BYTECODE = ("none for sumconn: PYTHONDONTWRITEBYTECODE=1, no PYTHONPYCACHEPREFIX, no "
            "__pycache__ under either side's src/; one discarded run per workload and side first")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, target: Path) -> None:
    """The committed files of ``rev`` unpacked into ``target``."""
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # The "data" filter (Python 3.12, backported to 3.8.17+) refuses
        # members that would land outside ``target``.
        tar.extractall(target, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_env() -> dict[str, str]:
    """The environment of every run: no bytecode written, and the standard
    library's read from its own ``__pycache__``, whatever the caller's setting."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def remove_bytecode(tree: Path) -> None:
    """Delete every ``__pycache__`` under ``tree/src``, so that no run reads one."""
    for cache in list((tree / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(tree: Path, env: dict[str, str], workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` call in ``tree``; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py failed in {tree}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def record(trees: dict[str, Path], env: dict[str, str], seconds: float) -> dict:
    out = {}
    for workload in workloads.WORKLOADS:
        for side in SIDES:
            run_once(trees[side], env, workload, 0, 0)  # warms the file cache
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run_once(trees[side], env, workload, i, seconds)
                runs[side].append(result)
                print(f"{workload} pair {i} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr)
        metrics = {}
        for name, entry in runs["base"][0]["metrics"].items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            metrics[name] = {
                "unit": entry["unit"],
                **{side: {**summary(values[side]), "runs": values[side]} for side in SIDES},
                # Every end-to-end metric of perfbench/run.py is better lower.
                "change_lower_in_pairs": sum(c < b for b, c in zip(values["base"], values["change"])),
            }
        out[workload] = {
            "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
            "metrics": metrics,
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--base", required=True, help="base revision, e.g. HEAD~1")
    parser.add_argument("--seconds", type=float, default=8, help="run.py --seconds per run")
    args = parser.parse_args(argv)

    try:
        base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base} names no commit")
    head = _git("rev-parse", "HEAD")
    uncommitted = bool(_git("status", "--porcelain", "--untracked-files=no"))
    if base == head and not uncommitted:
        parser.error(f"--base {args.base} is the working tree's clean HEAD; nothing to compare")

    scratch = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        trees = {"base": scratch / "base", "change": ROOT}
        export(base, trees["base"])
        remove_bytecode(ROOT)
        results = record(trees, run_env(), args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {
        "pr": args.pr,
        "base": base,
        # The working tree measured: HEAD, plus uncommitted changes if any.
        "change": {"head": head, "uncommitted": uncommitted},
        "command": f"perfbench/run.py --seconds {args.seconds} --trace 0, seed = pair index",
        "pairs": PAIRS,
        "bytecode": BYTECODE,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "workloads": results,
    }
    target = ROOT / f"BENCH_{args.pr}.json"
    target.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
