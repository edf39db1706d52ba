"""Host-speed reference: fixed work outside the program, timed beside it.

The benchmark's shared 2-vCPU VM changes speed by 10-60% over minutes
(steal stays near 0: the same instructions simply take longer), and
every time, rate and CPU metric of every workload moves with it.  No
run length averages that away, so each run times a fixed reference unit
of work interleaved with its operations, on the program's CPU, and the
benchmark reports its times at the reference's nominal speed::

    speed   = trimmed mean of the run's reference units / NOMINAL[kind]
    cpu_s   = raw cpu_s / speed         ops_per_s = raw ops_per_s * speed

Latencies and set-up times, which are medians and tails rather than
means, are scaled one by one by the units timed just before and just
after them (``paired``).

The reference never touches the program: it is the interpreter, numpy
and scipy doing the kind of work the program's operations do, so a
change to the program moves the operations and not the reference.  Raw
values and the speed are in the detail line of every run.

Two kinds:

``compute``  a pure-Python loop and one scipy sparse LU of a fixed grid
             matrix, in a helper process on the program's CPU (the
             in-process workloads and the service);
``process``  ``python -c "import numpy"`` from launch to exit (the CLI
             workload, and every workload's set-up).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence

#: Trimmed-mean seconds of one unit of each kind on the 2-vCPU VM the
#: benchmark was built on (Intel Xeon, 2.0 GHz, Python 3.11.7, numpy
#: 2.4.6, scipy 1.17.1, one BLAS thread), measured while it ran at its
#: faster speed.  They only set the scale: a reported time equals the
#: raw time on a host where the reference takes exactly this long.
NOMINAL: Dict[str, float] = {"compute": 0.0185, "process": 0.135}

#: Side of the grid whose 5-point Laplacian the compute unit factorizes
#: (4096 unknowns, about the LU of one 64x64 crossbar half).
_GRID = 64
_LOOP = 100_000


def _grid_matrix():
    import scipy.sparse as sp

    n = _GRID * _GRID
    matrix = (sp.diags([4.01] * n) - sp.eye(n, k=1) - sp.eye(n, k=-1)
              - sp.eye(n, k=_GRID) - sp.eye(n, k=-_GRID))
    return matrix.tocsc()


def compute_unit(matrix) -> float:
    """Seconds for one compute unit on ``_grid_matrix()``."""
    import scipy.sparse.linalg as spla

    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    spla.splu(matrix)
    return time.perf_counter() - start


class ComputeReference:
    """Compute units timed in a helper process of their own, so their
    memory and CPU time never count as the program's.  ``popen`` places
    it (environment, CPU); started from a program process it inherits
    that process's CPU."""

    def __init__(self, **popen) -> None:
        #: One list of unit times per ``measure`` call.
        self.points: List[List[float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            **popen)
        try:
            self._ask(0)  # answered once the helper is ready
        except BaseException:
            self._proc.kill()
            self.close()
            raise

    def _ask(self, units: int) -> List[float]:
        self._proc.stdin.write(f"{units}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference helper exited")
        return json.loads(line)

    def measure(self, units: int = 1) -> float:
        """Time ``units`` compute units as one more point; returns the
        wall time the request took, to leave out of the caller's timed
        window."""
        start = time.perf_counter()
        self.points.append(self._ask(units))
        return time.perf_counter() - start

    def result(self, between: List[int]) -> Dict[str, Any]:
        """The run's reference record: ``between[j]`` is the index of
        the point timed just before operation ``j``."""
        return {"kind": "compute", "points": self.points,
                "between": between}

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "ComputeReference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def process_unit(**popen) -> float:
    """Seconds for one process unit, launch to exit.  ``popen`` are the
    keyword arguments that place a program process (environment, CPU)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, **popen)
    return time.perf_counter() - start


def trimmed_mean(samples: Sequence[float]) -> float:
    """Mean without the lowest and highest twentieth.

    The host switches between a fast and a slow state every second or
    so, and a unit reads one or the other.  A mean follows the share of
    slow time, as totals and rates do; a median would jump between the
    two states.  Trimming drops the odd preemption.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 20
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def speed(kind: str, points: List[List[float]]) -> float:
    """How much slower than nominal the host ran over all ``points``:
    1.2 means 20% slower."""
    return trimmed_mean([unit for point in points for unit in point]) / (
        NOMINAL[kind])


def paired(values: Sequence[float], points: List[List[float]],
           between: Sequence[int], kind: str) -> List[float]:
    """Each operation's time at nominal speed, scaled by the reference
    points timed just before and just after it (``points[between[j]]``
    and the next one around ``values[j]``).

    Operations of a few tenths of a second mostly run in one host state,
    so their latencies take two values; scaling each by its own
    neighbours keeps their median and tail from following the share of
    slow time in a run.
    """
    means = [sum(point) / len(point) for point in points]
    nominal = NOMINAL[kind]
    return [value * 2 * nominal / (means[b] + means[b + 1])
            for value, b in zip(values, between)]


def _serve() -> None:
    """Helper side of ``ComputeReference``: a line with a unit count in,
    a JSON list of that many unit times out, until stdin closes."""
    matrix = _grid_matrix()
    compute_unit(matrix)  # the first call pays for lazy set-up
    for line in sys.stdin:
        times = [compute_unit(matrix) for _ in range(int(line))]
        sys.stdout.write(json.dumps(times) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
