"""mc-accuracy and xbar-worst: the parent side of ``worker.py``.

Set-up is timed from launching the worker until it reports ``READY``:
interpreter start, imports, input generation and one warm-up operation.
A measuring worker then waits for a line on stdin before its timed loop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from common import HERE, program_process

def _launch(workload: str, seed: int, seconds: float, mode: str,
            traced: bool) -> Tuple[float, subprocess.Popen]:
    args = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--mode", mode,
            "--trace", "1" if traced else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True,
                            **program_process())
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"{workload} worker failed during set-up")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return ready, proc


def run(workload: str, seed: int, seconds: float, traced: bool,
        pace) -> Dict[str, Any]:
    """``pace()`` is called after each set-up, while no worker runs or
    the measuring one waits for the line that starts its timed loop."""
    setup: List[float] = []
    for _ in range(2):
        ready, proc = _launch(workload, seed, seconds, "setup", traced)
        proc.communicate()
        setup.append(ready)
        pace()
    ready, proc = _launch(workload, seed, seconds, "measure", traced)
    setup.append(ready)
    try:
        pace()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    out, _ = proc.communicate("GO\n")
    if proc.returncode != 0 or not out.startswith("RESULT "):
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(out[len("RESULT "):])
    result["setup"] = setup
    if not result.pop("warmup_ok"):
        result["failed"] += 1
        result["attempted"] += 1
        result["reasons"].append("warm-up output wrong")
    return result
