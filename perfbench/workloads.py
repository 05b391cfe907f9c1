"""The four workloads: what each process runs and how its output is checked.

Each workload is one cold ``sumconn`` process.  ``command`` gives the
arguments after the interpreter (the work under ``speed.py``'s probes),
``traced_command`` the same work under ``tracer.py``, and ``check`` the
output gates whose failures feed ``failed_frac``.  See README.md for why
each workload exists.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Random rewrite instances per rewrite in transforms-seeded; enough that the
# per-seed work is nearly constant, so the seed moves the inputs and not the
# cost.
TRANSFORM_TRIALS = 3000

# Outputs of commit efab4b4, where the benchmark was defined.  verify-all: the sweep
# report's bytes.  unicyclic-n13: 13,999 graph6 lines (OEIS A001429).
# trees-n16: 19,320 trees (OEIS A000055), whose exact maximum is the path's
# (n-3)/2 + 2/sqrt(3) = 13/2 + (2/3)*sqrt(3), written as literal terms.
REFERENCE = {
    "verify-all": {
        "bytes": 95515,
        "sha256": "9ae815cee55bd7052e2babb4d8169ef28c0387206711c06a718b12ff6dbda416",
    },
    "unicyclic-n13": {
        "lines": 13999,
        "sha256": "99958ecb8c0cb66e7425231ff96935b25044bc4fd31b24ac4808ab26d87db235",
    },
    "trees-n16": {"trees": 19320, "max_terms": [[1, "13/2"], [3, "2/3"]]},
    "transforms-seeded": {"trials": TRANSFORM_TRIALS},
}

WORKLOADS = ("verify-all", "trees-n16", "unicyclic-n13", "transforms-seeded")


def cli_args(name: str, seed: int, out_dir: Path) -> list[str] | None:
    """``sumconn`` CLI arguments of a workload, or None for trees-n16."""
    report = str(out_dir / "report.json")
    if name == "verify-all":
        return ["verify", "--all", "--json", report]
    if name == "unicyclic-n13":
        return ["enumerate", "--class", "unicyclic", "--n", "13"]
    if name == "transforms-seeded":
        return [
            "verify", "--class", "transforms",
            "--trials", str(TRANSFORM_TRIALS), "--seed", str(seed), "--json", report,
        ]
    return None


def _mode(name: str, seed: int, out_dir: Path) -> list[str]:
    args = cli_args(name, seed, out_dir)
    return ["trees-n16"] if args is None else ["cli", *args]


def command(name: str, seed: int, out_dir: Path) -> list[str]:
    return [str(BENCH_DIR / "speed.py"), str(out_dir / "speed.bin"), *_mode(name, seed, out_dir)]


def setup_command(out_dir: Path) -> list[str]:
    return [str(BENCH_DIR / "speed.py"), str(out_dir / "speed.bin"), "setup"]


def traced_command(name: str, seed: int, out_dir: Path) -> list[str]:
    return [str(BENCH_DIR / "tracer.py"), str(out_dir), *_mode(name, seed, out_dir)]


def output_file(name: str, out_dir: Path) -> Path:
    """Where a workload process leaves the output its gates read."""
    args = cli_args(name, 0, out_dir) or []
    return out_dir / ("report.json" if "--json" in args else "stdout.txt")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(name: str, output: bytes, reference: dict = REFERENCE) -> list[tuple[str, bool]]:
    """Output gates of one workload process, as (label, passed) pairs."""
    ref = reference[name]
    if name == "verify-all":
        return [
            ("report size", len(output) == ref["bytes"]),
            ("report digest", digest(output) == ref["sha256"]),
            ("report passed", _json(output).get("passed") is True),
        ]
    if name == "unicyclic-n13":
        return [
            ("graph6 line count", output.count(b"\n") == ref["lines"]),
            ("graph6 digest", digest(output) == ref["sha256"]),
        ]
    if name == "trees-n16":
        report = _json(output)
        return [
            ("tree count", report.get("trees") == ref["trees"]),
            ("exact max", report.get("max") == ref["max_terms"]),
            ("single argmax", len(report.get("argmax", [])) == 1),
        ]
    report = _json(output)
    merge, reattach = report.get("merge", {}), report.get("reattach", {})
    return [
        ("merge trials", merge.get("trials") == ref["trials"]),
        ("reattach trials", reattach.get("trials") == ref["trials"]),
        ("no violations", merge.get("violations") == [] and reattach.get("violations") == []),
    ]


def _json(output: bytes) -> dict:
    try:
        value = json.loads(output)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}
