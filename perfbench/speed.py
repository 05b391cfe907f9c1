"""Speed probes: how fast the CPU ran a measured process, sampled inside it.

On the shared 2 vCPU Xeon where this benchmark was defined, each vCPU has
a fast state and one about 1.75x slower (another tenant on the sibling
hyperthread, most likely), switching every fraction of a second, with a
share of slow time that drifts over minutes and differs between the two
vCPUs.  A wall time alone measures that drift:
the same process took 2.7 to 4.7 s.  A loop timed in another process or
between processes does not follow it either, because the states of the two
vCPUs are unrelated and change within a second.

So every timed process runs under :class:`Probes`: a wall-clock timer
signal runs a fixed pure-Python loop every ``INTERVAL_S`` in the process
itself, on the same vCPU at the same moment as the work, and records how
long the loop took.  Uniform samples in time give the process's mean speed
relative to the fast state, and :func:`scaled_wall` turns its wall time
into seconds at that speed: the time the run takes when no other tenant
slows it.  The loop uses only the standard library (Fraction arithmetic,
small tuple sorts), so no change to sumconn can move it.  It hardly
touches memory, so contention for memory or cache goes unscaled.

Run as a program it runs one measured process and writes the loop times to
SAMPLES (raw doubles)::

    PYTHONPATH=src python3 perfbench/speed.py SAMPLES cli verify --all --json r.json
    PYTHONPATH=src python3 perfbench/speed.py SAMPLES trees-n16
    PYTHONPATH=src python3 perfbench/speed.py SAMPLES setup
"""

from __future__ import annotations

import functools
import gc
import signal
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path
from typing import Callable

INTERVAL_S = 0.01
# Fast-state time of one probe loop on the 2 vCPU Xeon (Python 3.11.7) where
# the benchmark was defined.  Scaled times are in seconds at this speed.
REFERENCE_S = 150e-6


class Probes:
    """The samples of one process; :meth:`install` starts the timer."""

    def __init__(self) -> None:
        self.samples = array("d")

    def _probe(self, *_: object) -> None:
        # A collection of the workload's heap inside the loop would be timed
        # as a slow CPU; with the collector off, the workload pays for it.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i % 97, i % 13 + 1)
            tuple(sorted((i % 7, i % 11, i % 5)))
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def save(self, path: Path) -> None:
        """Stop the timer and write the loop times to ``path``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(path, "wb") as fh:
            self.samples.tofile(fh)


def load(path: Path) -> array:
    samples = array("d")
    if path.exists():
        samples.frombytes(path.read_bytes())
    return samples


def scaled_wall(wall_s: float, samples: array) -> float:
    """``wall_s`` at the reference speed: the time not spent in probes, times
    the mean ratio of the reference loop time to the sampled ones."""
    work_s = wall_s - sum(samples)
    return work_s * sum(REFERENCE_S / s for s in samples) / len(samples)


def entry(mode: str, args: list[str]) -> Callable[[], int]:
    """What a measured process runs, once ``sumconn.cli`` and so every layer
    module is imported: ``cli`` ARGS is ``python -m sumconn.cli ARGS``,
    ``trees-n16`` is ``trees_n16.py``, and ``setup`` only builds the CLI's
    parser."""
    import sumconn.cli

    if mode == "cli":
        return functools.partial(sumconn.cli.dispatch, args)
    if mode == "setup":
        def setup() -> int:
            sumconn.cli.build_parser()
            return 0

        return setup
    import trees_n16

    return trees_n16.main


def main(argv: list[str]) -> int:
    probes = Probes()
    probes.install()
    path, mode, rest = Path(argv[0]), argv[1], argv[2:]
    try:
        code = entry(mode, rest)()
    finally:
        probes.save(path)
        sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
