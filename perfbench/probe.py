"""Host-speed probe: times two fixed jobs on request, in a process of its own.

Usage: python3 probe.py

Each line read on stdin names jobs (``python``, ``numpy``); the probe runs
each named job three times and writes, on one line and in the same order, the
median wall time and the median CPU time of each job, in seconds.  It exits at
the end of stdin.  It runs
as a separate process so that the benchmark process itself never imports numpy
(see ``run.invoke``); it inherits the benchmark's CPU pin, so it reads the
speed of the CPU the commands run on.  The jobs do not depend on the program.
"""

import statistics
import sys
import time

import numpy as np

_N = 1 << 21
_rng = np.random.default_rng(0)
_values = _rng.integers(0, _N, _N).astype(np.int32)
_perm = _rng.permutation(_N).astype(np.int32)


def _step(x: int) -> int:
    return x * 3 + 1


def python_pass() -> None:
    """Interpreter work: a dict, calls, a generator, ``str`` and a sort."""
    table = {}
    for i in range(10000):
        table[i ^ 0x5A5A] = _step(i)
    sum(_step(v) for v in table.values())
    sorted(str(v) for v in list(table.values())[:2500])


def numpy_pass() -> None:
    """Array work on 8 MB int32 arrays, past the caches: a gather, ``where``, a compare."""
    gathered = _values[_perm]
    diff = np.where(gathered > _values, gathered - _values, _values - gathered)
    np.array_equal(diff, gathered)


JOBS = {"python": python_pass, "numpy": numpy_pass}


def timed(job) -> tuple[float, float]:
    """Median wall and CPU time of three passes; they part when the host steals time."""
    walls, cpus = [], []
    for _ in range(3):
        wall, cpu = time.perf_counter(), time.process_time()
        job()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls), statistics.median(cpus)


def main() -> int:
    for line in sys.stdin:
        times = (t for name in line.split() for t in timed(JOBS[name]))
        print(" ".join(repr(t) for t in times), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
