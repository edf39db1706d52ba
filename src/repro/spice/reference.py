"""Loop-based reference implementation of the MNA crossbar solve.

This is the original solver kept verbatim as an executable
specification: Python-loop assembly of the ``2MN x 2MN`` system,
per-cell scalar nonlinear updates, and a damped fixed-point iteration
with a fresh ``spsolve`` per iteration — an independent algorithm from
the production chord-Newton solver.  It exists for three reasons:

* the equivalence suite (``tests/test_spice_vectorized.py``) pins the
  production solver to it within tight tolerances, so any change to the
  fast path that alters results is caught immediately;
* the performance benchmark (``benchmarks/test_spice_solver_perf.py``)
  measures the production solver's speedup against it on the same
  machine in the same run (``BENCH_spice.json``);
* Table III (``benchmarks/test_table3_speedup.py``) uses it as the
  SPICE-style baseline: it re-stamps every element and solves afresh on
  every iteration, the way a circuit simulator does.

Never use this from production paths — that is the whole point.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SolverError
from repro.spice.solver import (
    _DEFAULT_MAX_ITERATIONS,
    _DEFAULT_TOLERANCE,
    CrossbarNetwork,
    CrossbarSolution,
)

# Under-relaxation of the damped fixed point: each iteration moves the
# conductances 70% of the way to the device law at the present voltages.
_DAMPING = 0.7


def reference_assemble(
    network: CrossbarNetwork,
    cell_conductances: np.ndarray,
    inputs: np.ndarray,
):
    """Assemble the sparse conductance matrix and RHS with Python loops."""
    m, n = network.rows, network.cols
    g_wire = 1.0 / network.wire_resistance
    g_sense = 1.0 / network.sense_resistance

    row_idx = []
    col_idx = []
    values = []
    rhs = np.zeros(network.num_nodes)

    def stamp(a: int, b: int, g: float) -> None:
        row_idx.extend((a, b, a, b))
        col_idx.extend((a, b, b, a))
        values.extend((g, g, -g, -g))

    def stamp_to_ref(a: int, g: float, v_ref: float = 0.0) -> None:
        row_idx.append(a)
        col_idx.append(a)
        values.append(g)
        if v_ref:
            rhs[a] += g * v_ref

    for i in range(m):
        stamp_to_ref(network._wl(i, 0), g_wire, inputs[i])
        for j in range(n):
            stamp(network._wl(i, j), network._bl(i, j),
                  cell_conductances[i, j])
            if j + 1 < n:
                stamp(network._wl(i, j), network._wl(i, j + 1), g_wire)
            if i + 1 < m:
                stamp(network._bl(i, j), network._bl(i + 1, j), g_wire)
    for j in range(n):
        stamp_to_ref(network._bl(m - 1, j), g_sense)

    matrix = sp.csr_matrix(
        (values, (row_idx, col_idx)),
        shape=(network.num_nodes, network.num_nodes),
    )
    return matrix, rhs


def reference_solve(
    network: CrossbarNetwork,
    inputs: np.ndarray,
    tolerance: float = _DEFAULT_TOLERANCE,
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
) -> CrossbarSolution:
    """The original per-cell, re-assembling, single-RHS solve."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (network.rows,):
        raise SolverError(
            f"inputs must have shape ({network.rows},), got {inputs.shape}"
        )

    conductances = 1.0 / network.resistances
    voltages = None
    converged = True
    iterations = 0
    nonlinear = network.device is not None and not np.isinf(
        getattr(network.device, "nonlinearity_v0", np.inf)
    )

    max_rounds = max_iterations if nonlinear else 1
    previous = None
    # The loop variable is read *after* the loop (iteration count in
    # the packaged result), which B007 cannot see.
    for iterations in range(1, max_rounds + 1):  # noqa: B007
        matrix, rhs = reference_assemble(network, conductances, inputs)
        voltages = spla.spsolve(matrix, rhs)
        if np.any(~np.isfinite(voltages)):
            raise SolverError("solver produced non-finite node voltages")

        if not nonlinear:
            break

        v_cell = network._cell_voltages(voltages)
        new_cond = np.empty_like(conductances)
        for i in range(network.rows):
            for j in range(network.cols):
                r_act = network.device.actual_resistance(
                    network.resistances[i, j], v_cell[i, j]
                )
                new_cond[i, j] = 1.0 / r_act
        conductances = (
            _DAMPING * new_cond + (1.0 - _DAMPING) * conductances
        )

        if previous is not None:
            delta = float(np.max(np.abs(voltages - previous)))
            if delta < tolerance:
                break
        previous = voltages
    else:  # pragma: no cover - pathological devices only
        converged = False

    return network._package(voltages, conductances, inputs, iterations,
                            converged)
