"""Table III: simulation time of the circuit-level solve vs MNSIM.

The paper reports >7000x speed-up of the behavior-level model over
SPICE, growing with crossbar size.  The SPICE-style baseline here is
:func:`repro.spice.reference.reference_solve`: it re-stamps every
element and runs a fresh sparse solve per fixed-point iteration, the
way a circuit simulator would, and is timed once per size (it is the
slow side by construction).  The production solver
(:class:`~repro.spice.solver.CrossbarNetwork`, chord-Newton with one
shared structural assembly) is reported alongside it; the paper's
headline must hold against it too.
"""

import time

import numpy as np

from repro.accuracy.interconnect import (
    DEFAULT_SENSE_RESISTANCE,
    analog_error_rate,
)
from repro.report import format_table
from repro.spice.reference import reference_solve
from repro.spice.solver import CrossbarNetwork
from repro.tech import get_interconnect_node, get_memristor_model
from repro.tech.memristor import CellType

SIZES = (16, 32, 64, 128)
#: Production solves are fast enough to take the best of a few.
PRODUCTION_BEST_OF = 3


def _worst_case(device, size, segment):
    """Table III's worst case: uniform R_min, full-scale inputs."""
    network = CrossbarNetwork(
        np.full((size, size), device.r_min), segment,
        DEFAULT_SENSE_RESISTANCE, device=device,
    )
    return network, np.full(size, device.read_voltage)


def _seconds(solve) -> float:
    start = time.perf_counter()
    solution = solve()
    elapsed = time.perf_counter() - start
    assert solution.converged
    return elapsed


def test_table3_speedup(benchmark, write_result):
    device = get_memristor_model("RRAM")
    segment = get_interconnect_node(45).segment_resistance(
        device.cell_pitch(CellType.ONE_T_ONE_R)
    )

    # Timed side: one full sweep of behavior-level error evaluations.
    def run_model_sweep():
        return [
            analog_error_rate(size, size, segment, device)
            for size in SIZES
        ]

    benchmark(run_model_sweep)

    # Per-size comparison.
    rows = []
    spice_speedups = []
    production_speedups = []
    for size in SIZES:
        network, inputs = _worst_case(device, size, segment)
        spice_seconds = _seconds(lambda: reference_solve(network, inputs))
        production_seconds = min(
            _seconds(lambda: network.solve(inputs))
            for _ in range(PRODUCTION_BEST_OF)
        )
        start = time.perf_counter()
        repeats = 2000
        for _ in range(repeats):
            analog_error_rate(size, size, segment, device)
        model_seconds = (time.perf_counter() - start) / repeats
        spice_speedups.append(spice_seconds / model_seconds)
        production_speedups.append(production_seconds / model_seconds)
        rows.append([
            size,
            f"{spice_seconds:.4f}",
            f"{production_seconds:.4f}",
            f"{model_seconds * 1e6:.2f}",
            f"{spice_speedups[-1]:,.0f}x",
            f"{production_speedups[-1]:,.0f}x",
        ])
    write_result(
        "table3_speedup",
        "Table III reproduction: circuit-level solve vs MNSIM model\n"
        + format_table(
            ["crossbar size", "SPICE-style (s)", "production (s)",
             "model (us)", "vs SPICE-style", "vs production"],
            rows,
        ),
    )

    # Paper shape against the SPICE-style baseline: huge speed-up,
    # increasing with size, >7000x for the large arrays.
    assert all(s > 300 for s in spice_speedups)
    assert all(s > 1000 for s in spice_speedups[1:])
    assert spice_speedups[-1] > max(spice_speedups[0], 7000)
    # The paper's headline holds even against the production solver:
    # the speed-up rises with size and exceeds 7000x at 128x128.
    assert production_speedups == sorted(production_speedups)
    assert production_speedups[-1] > 7000
