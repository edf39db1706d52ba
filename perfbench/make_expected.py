"""Record the expected outputs of every pooled operation, or check that
the output checks accept a solver that is off by a little.

Run from the root of a checkout of the commit whose outputs are the
reference::

    python3 perfbench/make_expected.py            # rewrite expected/
    python3 perfbench/make_expected.py --control  # tolerance control

The first form rewrites ``perfbench/expected/*.json``.  The benchmark
compares every operation's output with these files, so regenerate them
only when the program's outputs are meant to change.

``--control`` writes nothing.  It recomputes every pooled output with
every node voltage the circuit solver returns moved by ``CONTROL_RTOL``
relative (a seeded random sign per voltage), as a solver that reaches
the same answer by another route would, and exits 1 unless every
output still passes its check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Callable, Dict, Iterator, Tuple

from common import (
    EXPECTED_DIR,
    HERE,
    SRC,
    check_checkout,
    load_expected,
    program_env,
)
from inputs import (
    CLI_COMMANDS,
    MC_POOL,
    XBAR_POOL,
    mc_payload,
    service_pool,
)
import checks

#: Relative change given to every solver voltage by ``--control``: the
#: agreement of an alternative nonlinear scheme with the current one.
CONTROL_RTOL = 3e-9


def perturb_solver(relative: float = CONTROL_RTOL, seed: int = 0) -> None:
    """Move every node voltage the solver returns by ``relative``.

    Every solution is packaged from its node voltages by
    ``CrossbarNetwork._package`` or ``_package_batch``, so wrapping the
    two moves the output, cell and input quantities consistently.
    """
    import numpy as np
    from repro.spice.solver import CrossbarNetwork

    rng = np.random.default_rng(seed)
    package = CrossbarNetwork._package
    package_batch = CrossbarNetwork._package_batch

    def jitter(voltages):
        signs = rng.choice([-1.0, 1.0], size=np.shape(voltages))
        return voltages * (1.0 + relative * signs)

    CrossbarNetwork._package = (
        lambda self, voltages, *rest: package(self, jitter(voltages), *rest))
    CrossbarNetwork._package_batch = (
        lambda self, voltages, *rest: package_batch(
            self, jitter(voltages), *rest))


def _cli_outputs(control: bool) -> Iterator[Tuple[str, str]]:
    env = program_env()
    for command in CLI_COMMANDS:
        args = [sys.executable, "-m", "repro", *command]
        if control:
            args = [sys.executable, "-c",
                    "import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
                    "import make_expected; make_expected.perturb_solver(); "
                    "sys.argv[0] = 'repro'; "
                    "runpy.run_module('repro', run_name='__main__')",
                    HERE, *command]
        proc = subprocess.run(args, env=env, check=True, capture_output=True,
                              text=True)
        yield " ".join(command), proc.stdout


def _outputs(control: bool) -> Iterator[Tuple[str, str, Any]]:
    """``(expected file, key, raw output)`` for every pooled operation."""
    for key, stdout in _cli_outputs(control):
        yield "cli.json", key, stdout

    # The in-process parts need the program and the same BLAS setting.
    env = program_env()
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS",
                                           "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
    sys.path.insert(0, SRC)
    from repro.service.schema import SimulationPayload
    from repro.service.workloads import render_document, run_payload
    import worker

    if control:
        perturb_solver()
    for index in range(MC_POOL):
        yield "mc.json", str(index), run_payload(
            SimulationPayload.from_dict(mc_payload(index)))
    worst = worker.WorstCase()
    for index in range(XBAR_POOL):
        yield "xbar.json", str(index), worst.run(index, {})
    for index, doc in enumerate(service_pool()):
        result = run_payload(SimulationPayload.from_dict(doc))
        yield "service.json", str(index), json.loads(render_document(result))


def _record(name: str, output: Any) -> Any:
    if name == "cli.json":
        return output
    if name == "mc.json":
        return checks.mc_record(output)
    if name == "xbar.json":
        if not output.converged:
            raise RuntimeError("an xbar input did not converge")
        return output.output_voltages.tolist()
    return checks.doc_record(output)


_CHECKS: Dict[str, Callable[[Any, Any], Any]] = {
    "cli.json": checks.check_cli,
    "mc.json": checks.check_mc,
    "xbar.json": lambda solution, want: checks.check_xbar(
        solution.output_voltages.tolist(), solution.converged, want),
    "service.json": checks.check_doc,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--control", action="store_true",
                        help="check the tolerances instead of recording")
    args = parser.parse_args()
    check_checkout()
    if args.control:
        expected = {name: load_expected(name) for name in _CHECKS}
        checked = failed = 0
        for name, key, output in _outputs(control=True):
            problem = _CHECKS[name](output, expected[name][key])
            checked += 1
            if problem is not None:
                failed += 1
                print(f"{name} {key}: {problem}")
        print(f"tolerance control: {checked} outputs with every solver "
              f"voltage moved by {CONTROL_RTOL:g} relative, {failed} failed")
        return 1 if failed else 0

    records: Dict[str, Dict[str, Any]] = {name: {} for name in _CHECKS}
    for name, key, output in _outputs(control=False):
        records[name][key] = _record(name, output)
    for name, data in records.items():
        with open(os.path.join(EXPECTED_DIR, name), "w",
                  encoding="utf-8") as handle:
            json.dump(data, handle, indent=0, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
