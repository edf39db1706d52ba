"""Level-1 Accelerator (Sec. III.A, Fig. 1(b)).

The accelerator cascades one computation bank per neuromorphic layer
between an input and an output interface module.  Two latency views are
reported, following the paper:

* ``sample_latency`` — one sample traversing every bank in sequence
  (plus interface transfer), the fully-sequential worst case;
* ``pipeline_cycle`` — the slowest bank's pass latency, the cycle time
  of the pipelined multi-layer operation the case studies report
  ("latency per pipeline cycle", Table VI).

Accuracy is evaluated with the per-layer effective crossbar fill via
:class:`~repro.accuracy.model.AccuracyModel`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.accuracy.model import AccuracyModel, LayerAccuracy
from repro.arch.bank import ComputationBank
from repro.circuits import IoInterfaceModule, ModuleRegistry
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.nn.networks import Network
from repro.report import Performance, ReportNode


@dataclass(frozen=True)
class AcceleratorSummary:
    """The metrics the paper's evaluation tables report.

    Attributes
    ----------
    area:
        Total silicon area (m^2).
    energy_per_sample:
        Dynamic energy per input sample (J).
    sample_latency:
        Sequential per-sample latency (s), bus interfaces included.
    compute_latency:
        Per-sample latency of the banks alone (the view the paper's
        case-study tables report).
    pipeline_cycle:
        Slowest bank's pass latency (s) — the pipelined cycle time.
    power:
        Average power over one sample (W), leakage included.
    worst_error_rate / average_error_rate:
        Final digital error rates from the accuracy model.
    """

    area: float
    energy_per_sample: float
    sample_latency: float
    compute_latency: float
    pipeline_cycle: float
    power: float
    worst_error_rate: float
    average_error_rate: float

    @property
    def relative_accuracy(self) -> float:
        """``1 - average_error_rate``."""
        return 1.0 - self.average_error_rate

    @property
    def energy_efficiency(self) -> float:
        """Samples per joule."""
        if self.energy_per_sample == 0:
            return float("inf")
        return 1.0 / self.energy_per_sample


@functools.lru_cache(maxsize=1024)
def _network_accuracy(
    config: SimConfig, layer_sizes: Tuple[Tuple[int, int], ...]
) -> LayerAccuracy:
    """Memo of :meth:`AccuracyModel.network_accuracy` per design.

    Parallelism degree changes only digital replication, never the
    crossbar computing accuracy (the paper's Sec. VII.C.1 observation),
    so callers pass ``config`` with ``parallelism_degree`` normalised
    and a design-space sweep evaluates the model once per
    parallelism-free design.
    """
    return AccuracyModel(config).network_accuracy(
        layer_sizes=list(layer_sizes)
    )


class Accelerator:
    """A full memristor-based neuromorphic accelerator.

    Parameters
    ----------
    config:
        Design configuration; its ``network_type`` is overridden by the
        network's own type, and ``network_depth`` (if set) must match.
    network:
        The application (an ordered chain of weight-bearing layers).
    registry:
        Module registry shared by every bank (customization hook).
    """

    def __init__(
        self,
        config: SimConfig,
        network: Network,
        registry: Optional[ModuleRegistry] = None,
    ) -> None:
        if config.network_depth is not None and config.network_depth != network.depth:
            raise ConfigError(
                f"configured network_depth {config.network_depth} does not "
                f"match network depth {network.depth}"
            )
        self.config = config.replace(
            network_type=network.network_type,
            network_depth=network.depth,
        )
        self.network = network
        self.registry = registry if registry is not None else ModuleRegistry()

        self.banks: List[ComputationBank] = []
        layers = list(network.layers)
        for index, layer in enumerate(layers):
            next_layer = layers[index + 1] if index + 1 < len(layers) else None
            self.banks.append(
                ComputationBank(
                    self.config, layer, next_layer=next_layer,
                    registry=self.registry,
                )
            )

        cmos = self.config.cmos
        in_lines, out_lines = self.config.interface_number
        self.input_interface = self.registry.build(
            "input_interface", IoInterfaceModule, cmos=cmos,
            lines=in_lines, sample_values=network.input_values,
            bits=self.config.signal_bits,
        )
        self.output_interface = self.registry.build(
            "output_interface", IoInterfaceModule, cmos=cmos,
            lines=out_lines, sample_values=network.output_values,
            bits=self.config.signal_bits,
        )

    # ------------------------------------------------------------------
    @property
    def total_units(self) -> int:
        """Computation units across all banks."""
        return sum(bank.units for bank in self.banks)

    @property
    def total_crossbars(self) -> int:
        """Physical crossbars across all banks."""
        return sum(bank.crossbars for bank in self.banks)

    # ------------------------------------------------------------------
    def sample_performance(self) -> Performance:
        """One sample through interfaces and every bank, sequentially."""
        perf = self.input_interface.performance()
        perf = perf.serial(self.compute_sample_performance())
        return perf.serial(self.output_interface.performance())

    def compute_sample_performance(self) -> Performance:
        """One sample through the banks only (no bus interfaces)."""
        perf = Performance()
        for bank in self.banks:
            perf = perf.serial(bank.sample_performance())
        return perf

    def pipeline_cycle_latency(self) -> float:
        """Cycle time of pipelined operation: the slowest bank pass."""
        return max(bank.pass_performance().latency for bank in self.banks)

    def write_performance(self) -> Performance:
        """One-time cost of loading all weights (WRITE of every bank)."""
        perf = Performance()
        for bank in self.banks:
            perf = perf.serial(bank.write_performance())
        return perf

    def accuracy(self) -> LayerAccuracy:
        """Propagated computing accuracy over the network's layers.

        Each layer's crossbars are modelled at their effective
        (possibly rectangular) fill: a layer narrower than the crossbar
        stresses fewer rows/columns.  Designs that differ only in
        parallelism degree share one memoised evaluation; each call
        gets its own copy of the per-layer lists.
        """
        accuracy = _network_accuracy(
            self.config.replace(parallelism_degree=0),
            tuple(
                (
                    bank.mapping.typical_active_rows,
                    bank.mapping.typical_active_cols,
                )
                for bank in self.banks
            ),
        )
        return replace(
            accuracy,
            worst_by_layer=list(accuracy.worst_by_layer),
            average_by_layer=list(accuracy.average_by_layer),
        )

    # ------------------------------------------------------------------
    def summary(self) -> AcceleratorSummary:
        """The table-row view of this design point."""
        sample = self.sample_performance()
        accuracy = self.accuracy()
        return AcceleratorSummary(
            area=sample.area,
            energy_per_sample=sample.dynamic_energy,
            sample_latency=sample.latency,
            compute_latency=self.compute_sample_performance().latency,
            pipeline_cycle=self.pipeline_cycle_latency(),
            power=sample.average_power,
            worst_error_rate=accuracy.worst_error_rate,
            average_error_rate=accuracy.average_error_rate,
        )

    def report(self) -> ReportNode:
        """Full hierarchical report of one sample's processing."""
        node = ReportNode(
            name=f"accelerator[{self.network.name}]",
            performance=self.sample_performance(),
            notes=(
                f"{len(self.banks)} banks, {self.total_units} units, "
                f"{self.total_crossbars} crossbars"
            ),
        )
        node.add(
            ReportNode("input_interface", self.input_interface.performance())
        )
        for index, bank in enumerate(self.banks):
            node.add(bank.report(name=f"bank[{index}]"))
        node.add(
            ReportNode("output_interface",
                       self.output_interface.performance())
        )
        return node
