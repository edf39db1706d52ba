"""Shared helpers: checkout layout, program environment, statistics,
/proc readings and the failure tally.

Everything here is standard library only, so the load-generating
process never imports the program it measures.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import shutil
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_DIR = os.path.join(HERE, "expected")

#: BLAS threads given to every program process.  OpenBLAS spin threads
#: add CPU time without shortening a single-threaded solve, so one
#: thread makes CPU time equal wall time and both repeat better.
BLAS_THREADS = 1
HASH_SEED = "0"


#: CPUs the program's processes are started on; see ``isolate_program``.
_program_cpus: Optional[Set[int]] = None
#: ``personality(2)`` flag that turns off address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def isolate_program() -> Dict[str, Any]:
    """Start every program process on a CPU of its own, at fixed
    addresses.

    CPUs: this process, and the client threads it runs, stay on the
    lowest CPU; every program process it starts (``program_process``)
    runs on the highest.  The measured program is single-threaded in
    effect (one GIL, one BLAS thread, ``jobs=1``), so it keeps a whole
    CPU to itself and never waits for the load generator.  On one CPU
    both share it.

    Addresses: this process takes ``ADDR_NO_RANDOMIZE``, which the
    processes it starts inherit and apply when they exec (as
    ``setarch -R`` does).  With randomisation on, the peak resident
    memory of one and the same xbar-worst run took one of two values
    7 MB apart (97.6 or 104.7 MB); with it off the value repeats.

    Returns what was set, for the detail line.
    """
    global _program_cpus
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    _program_cpus = {cpus[-1]}
    personality = ctypes.CDLL(None, use_errno=True).personality
    personality(personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    fixed = bool(personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE)
    return {"load_generator_cpus": [cpus[0]], "program_cpus": [cpus[-1]],
            "program_address_randomisation": not fixed}


def program_process() -> Dict[str, Any]:
    """Keyword arguments for ``subprocess`` calls that start the program:
    its environment, and its CPU once ``isolate_program`` has run."""
    cpus = _program_cpus
    return {
        "env": program_env(),
        "preexec_fn": (lambda: os.sched_setaffinity(0, cpus)) if cpus
        else None,
    }


WORKLOADS = ("cli-paper", "mc-accuracy", "xbar-worst", "service-jobs")


def check_checkout() -> None:
    """Exit with code 2 unless the program's sources are present."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: no src/repro in the working directory; run from "
            "the root of a checkout\n"
        )
        sys.exit(2)


def program_env() -> Dict[str, str]:
    """Environment for every process of the measured program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = HASH_SEED
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    for name in ("REPRO_TRACE", "REPRO_CACHE_DIR", "REPRO_TRACE_DEBUG"):
        env.pop(name, None)
    return env


def scratch_dir(name: str) -> str:
    """A fresh directory inside the checkout for one run's files."""
    path = os.path.join(ROOT, ".perfbench_tmp", f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    try:
        os.rmdir(parent)
    except OSError:
        pass  # another run's directory is still there


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With fewer than
    eleven samples no such percentile exists and the maximum is
    returned with the number of samples actually beyond it (zero).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return float(ordered[-1]), 100.0, 0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, 10



# ----------------------------------------------------------------------
# /proc readings
# ----------------------------------------------------------------------
def cpu_stat() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the whole machine from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    # guest time is already inside user/nice.
    return fields[7], sum(fields[:8])


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        raw = handle.read()
    fields = raw[raw.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, problem: Optional[str]) -> None:
        """Count one operation; ``problem`` is None when it was correct."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(problem)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def close(actual: float, expected: float, rtol: float,
          atol: float = 0.0) -> bool:
    if not (math.isfinite(actual) and math.isfinite(expected)):
        return False
    return abs(actual - expected) <= max(rtol * abs(expected), atol)


def load_expected(name: str):
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)
