"""Circuit-level crossbar simulation (the "SPICE" baseline).

MNSIM's validation experiments compare the behavior-level models against a
circuit-level solve of the full crossbar resistor network.  This package
implements that baseline from scratch:

* :mod:`~repro.spice.solver` — a modified-nodal-analysis solver over the
  ``M x N`` cell network with per-segment wire resistances and sense
  resistors, Newton-iterating over the nonlinear memristor V-I
  characteristic (Sec. VI's "large number of non-linear Kirchhoff
  equations": ``2MN`` node voltages per solve).
* :mod:`~repro.spice.netlist` — SPICE netlist export of the same network,
  the paper's hand-off path to external circuit simulators (Sec. IV.A).
* :mod:`~repro.spice.reference` — the original loop-based damped
  fixed-point solver, kept as an executable specification for
  equivalence tests, the ``BENCH_spice.json`` speedup benchmark and the
  Table III SPICE-style baseline.
"""

from repro.spice.solver import (
    CrossbarNetwork,
    CrossbarSolution,
    CrossbarSolutionBatch,
    clear_structure_cache,
    ideal_output_voltages,
)
from repro.spice.netlist import generate_netlist
from repro.spice.parser import ParsedNetlist, parse_netlist
from repro.spice.transient import (
    SettleEstimate,
    estimate_settle,
    settle_time_for_config,
)

__all__ = [
    "CrossbarNetwork",
    "CrossbarSolution",
    "CrossbarSolutionBatch",
    "clear_structure_cache",
    "ideal_output_voltages",
    "generate_netlist",
    "ParsedNetlist",
    "parse_netlist",
    "SettleEstimate",
    "estimate_settle",
    "settle_time_for_config",
]
