"""Circuit-level fault injection through the MNA solver.

The equivalence classes pin the *fault-free* path: a solver carrying an
empty :class:`~repro.faults.models.FaultMask` must match
:mod:`repro.spice.reference` to the same tolerances the vectorized
rewrite is held to (1e-12 linear, 1e-9 nonlinear), so fault support
cannot perturb existing results.  The behaviour classes check each
fault type changes the physics the way the model claims, and that
singular faulted systems surface as the structured ``SolverError``.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.faults.models import FaultMask
from repro.spice.reference import reference_solve
from repro.spice.solver import CrossbarNetwork, ideal_output_voltages
from repro.tech import get_memristor_model


def _random_network(device, size, seed):
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, device.levels, size=(size, size))
    resistances = device.resistance_of_level(levels)
    inputs = rng.uniform(0.1, device.read_voltage, size=size)
    return resistances, inputs


def _assert_solutions_close(actual, expected, rel):
    for field in ("output_voltages", "cell_voltages", "cell_currents",
                  "input_currents"):
        np.testing.assert_allclose(
            getattr(actual, field), getattr(expected, field),
            rtol=rel, atol=rel,
            err_msg=f"{field} diverged with an empty fault mask",
        )


class TestEmptyMaskEquivalence:
    @pytest.mark.parametrize("size", (4, 16, 32))
    def test_linear_matches_reference(self, size):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, size, seed=size)
        masked = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None,
            fault_mask=FaultMask.empty(size, size),
        )
        bare = CrossbarNetwork(resistances, 1.0, 1e3, device=None)
        _assert_solutions_close(
            masked.solve(inputs), reference_solve(bare, inputs), 1e-12
        )

    @pytest.mark.parametrize("size", (4, 16))
    def test_nonlinear_matches_reference(self, size):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, size, seed=size + 1)
        masked = CrossbarNetwork(
            resistances, 1.0, 1e3, device=device,
            fault_mask=FaultMask.empty(size, size),
        )
        bare = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        masked_solution = masked.solve(inputs)
        reference = reference_solve(bare, inputs)
        _assert_solutions_close(masked_solution, reference, 1e-9)
        assert masked_solution.converged
        assert 1 < masked_solution.iterations <= 8

    def test_no_mask_and_empty_mask_identical(self):
        device = get_memristor_model("PCM")
        resistances, inputs = _random_network(device, 8, seed=3)
        with_mask = CrossbarNetwork(
            resistances, 1.0, 1e3, device=device,
            fault_mask=FaultMask.empty(8, 8),
        ).solve(inputs)
        without = CrossbarNetwork(
            resistances, 1.0, 1e3, device=device
        ).solve(inputs)
        np.testing.assert_array_equal(
            with_mask.output_voltages, without.output_voltages
        )


class TestCellFaults:
    def test_stuck_cells_change_the_solution(self):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 8, seed=7)
        stuck = np.zeros((8, 8), dtype=bool)
        stuck[0, 0] = stuck[3, 4] = True
        mask = FaultMask(rows=8, cols=8, stuck_low=stuck)
        faulty = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None, fault_mask=mask
        ).solve(inputs)
        clean = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None
        ).solve(inputs)
        assert not np.allclose(
            faulty.output_voltages, clean.output_voltages
        )

    def test_programmed_resistances_preserved(self):
        """The pre-fault grid stays readable on the network object."""
        device = get_memristor_model("RRAM")
        resistances, _ = _random_network(device, 4, seed=9)
        stuck = np.zeros((4, 4), dtype=bool)
        stuck[2, 2] = True
        network = CrossbarNetwork(
            resistances, 1.0, 1e3, device=device,
            fault_mask=FaultMask(rows=4, cols=4, stuck_low=stuck),
        )
        np.testing.assert_array_equal(
            network.programmed_resistances, resistances
        )
        assert network.resistances[2, 2] == device.r_min

    def test_open_cell_draws_no_current(self):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 6, seed=11)
        opened = np.zeros((6, 6), dtype=bool)
        opened[1, 2] = True
        mask = FaultMask(rows=6, cols=6, open_cells=opened)
        solution = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None, fault_mask=mask
        ).solve(inputs)
        assert solution.cell_currents[1, 2] == pytest.approx(0.0, abs=1e-15)
        healthy = np.abs(solution.cell_currents[~opened])
        assert healthy.min() > 1e-12  # only the open cell is dead

    def test_stuck_low_raises_output_stuck_high_lowers_it(self):
        # IDEAL is ohmic (linear solve) but carries a real [R_min,
        # R_max] window for the stuck pins to land on; the uniform
        # mid-window grid means a device=None fallback window would
        # degenerate to a single value.
        device = get_memristor_model("IDEAL")
        size = 6
        resistances = np.full((size, size),
                              device.resistance_of_level(3))
        inputs = np.full(size, device.read_voltage)
        column = np.zeros((size, size), dtype=bool)
        column[:, 0] = True
        low = CrossbarNetwork(
            resistances, 1.0, 1e3, device=device,
            fault_mask=FaultMask(rows=size, cols=size, stuck_low=column),
        ).solve(inputs)
        high = CrossbarNetwork(
            resistances, 1.0, 1e3, device=device,
            fault_mask=FaultMask(rows=size, cols=size, stuck_high=column),
        ).solve(inputs)
        clean = CrossbarNetwork(
            resistances, 1.0, 1e3, device=device
        ).solve(inputs)
        # Stuck-at-ON (R_min) pushes more current into the column.
        assert low.output_voltages[0] > clean.output_voltages[0]
        assert high.output_voltages[0] < clean.output_voltages[0]


class TestLineFaults:
    def test_open_wordline_starves_its_row(self):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 6, seed=13)
        mask = FaultMask(rows=6, cols=6, open_wordlines=(2,))
        solution = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None, fault_mask=mask
        ).solve(inputs)
        # The open row's input source is disconnected.
        assert solution.input_currents[2] == pytest.approx(0.0, abs=1e-15)
        row = np.abs(solution.cell_currents[2, :])
        clean = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None
        ).solve(inputs)
        assert row.max() < np.abs(clean.cell_currents[2, :]).max()

    def test_open_bitline_kills_its_output(self):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 6, seed=17)
        mask = FaultMask(rows=6, cols=6, open_bitlines=(4,))
        solution = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None, fault_mask=mask
        ).solve(inputs)
        clean = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None
        ).solve(inputs)
        # Only the segment nearest the sense amp still feeds column 4,
        # so its output collapses toward the floor.
        assert (solution.output_voltages[4]
                < 0.5 * clean.output_voltages[4])

    def test_short_lines_approach_the_ideal(self):
        """Shorted (zero-resistance) lines remove IR drop, so outputs
        move *closer* to the interconnect-free ideal."""
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 8, seed=19)
        ideal = ideal_output_voltages(resistances, inputs, 1e3)
        clean = CrossbarNetwork(
            resistances, 2.5, 1e3, device=None
        ).solve(inputs)
        shorted = CrossbarNetwork(
            resistances, 2.5, 1e3, device=None,
            fault_mask=FaultMask(
                rows=8, cols=8,
                short_wordlines=tuple(range(8)),
                short_bitlines=tuple(range(8)),
            ),
        ).solve(inputs)
        clean_gap = np.abs(ideal - clean.output_voltages).max()
        short_gap = np.abs(ideal - shorted.output_voltages).max()
        assert short_gap < clean_gap

    def test_singular_mask_raises_solver_error(self):
        """An open wordline whose cells are all open floats its nodes:
        the MNA system is singular and must surface as SolverError."""
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 4, seed=23)
        opened = np.zeros((4, 4), dtype=bool)
        opened[1, :] = True
        mask = FaultMask(
            rows=4, cols=4, open_cells=opened, open_wordlines=(1,)
        )
        with pytest.raises(SolverError):
            CrossbarNetwork(
                resistances, 1.0, 1e3, device=None, fault_mask=mask
            ).solve(inputs)

    def test_mask_shape_mismatch_rejected(self):
        device = get_memristor_model("RRAM")
        resistances, _ = _random_network(device, 4, seed=29)
        with pytest.raises(SolverError):
            CrossbarNetwork(
                resistances, 1.0, 1e3, device=None,
                fault_mask=FaultMask.empty(5, 5),
            )


class TestBatchAndFactorized:
    def test_solve_many_matches_repeated_solve(self):
        device = get_memristor_model("RRAM")
        resistances, _ = _random_network(device, 6, seed=31)
        rng = np.random.default_rng(31)
        batch = rng.uniform(0.1, 1.0, size=(4, 6))
        stuck = rng.random((6, 6)) < 0.1
        mask = FaultMask(rows=6, cols=6, stuck_low=stuck)
        network = CrossbarNetwork(
            resistances, 1.0, 1e3, device=None, fault_mask=mask
        )
        together = network.solve_many(batch)
        for k in range(4):
            single = network.solve(batch[k])
            np.testing.assert_allclose(
                together.output_voltages[k], single.output_voltages,
                rtol=1e-10, atol=1e-12,
            )
