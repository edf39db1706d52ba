"""Production solver vs the loop-based reference implementation.

:mod:`repro.spice.solver` (one-time structural assembly, chord-Newton
on the sinh law with a lagged Jacobian, batched ``solve_many``) is
pinned to :mod:`repro.spice.reference`, the original damped fixed-point
solver kept verbatim as an executable specification.  Tolerances: 1e-12
relative for the linear (one-shot) solve, 1e-9 for the nonlinear solve.
The two nonlinear algorithms stop on different criteria, so round
counts are not compared; each test instead asserts convergence and a
round bound, and the Table III worst case also bounds the number of LU
factorizations.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.spice.reference import reference_solve
from repro.spice.solver import (
    _STRUCTURE_CACHE,
    CrossbarNetwork,
    CrossbarSolutionBatch,
    _structure_for,
)
from repro.tech import get_memristor_model

SIZES = (4, 32, 64)
DEVICES = ("RRAM", "PCM")


def _random_network(device, size, seed):
    """A random programmed crossbar + in-range input vector."""
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
            err_msg=f"{field} diverged from the reference solver",
        )
    assert actual.total_power == pytest.approx(
        expected.total_power, rel=rel
    )
    assert actual.converged == expected.converged


class TestLinearEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_reference(self, size):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, size, seed=size)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=None)
        _assert_solutions_close(
            network.solve(inputs), reference_solve(network, inputs),
            rel=1e-12,
        )

    def test_rectangular(self):
        rng = np.random.default_rng(17)
        resistances = rng.uniform(1e5, 1e6, size=(6, 11))
        inputs = rng.uniform(0.1, 1.0, size=6)
        network = CrossbarNetwork(resistances, 2.0, 1.5e3)
        _assert_solutions_close(
            network.solve(inputs), reference_solve(network, inputs),
            rel=1e-12,
        )


class TestNonlinearEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("name", DEVICES)
    def test_matches_reference_same_iterations(self, name, size):
        """Random arrays: same answer as the damped fixed point, in
        fewer rounds (chord-Newton contracts by ~1e-2 per round where
        the damping contracts by ~0.3)."""
        device = get_memristor_model(name)
        resistances, inputs = _random_network(device, size, seed=7 * size)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        fast = network.solve(inputs)
        slow = reference_solve(network, inputs)
        assert fast.converged and slow.converged
        assert 1 < fast.iterations <= 8
        assert fast.iterations < slow.iterations
        _assert_solutions_close(fast, slow, rel=1e-9)

    @pytest.mark.parametrize("name", DEVICES)
    def test_worst_case_knife_edge(self, name):
        """All cells at R_min, full-scale inputs: the deepest-biased
        configuration.  Voltages still agree tightly with the reference,
        and chord-Newton converges within 8 rounds."""
        device = get_memristor_model(name)
        size = 32
        resistances = np.full((size, size), device.r_min)
        inputs = np.full(size, device.read_voltage)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        fast = network.solve(inputs)
        slow = reference_solve(network, inputs)
        assert fast.converged and slow.converged
        assert 1 < fast.iterations <= 8
        _assert_solutions_close(fast, slow, rel=1e-9)

    def test_table3_worst_case_round_and_lu_bounds(self, monkeypatch):
        """The Table III worst case (64x64 RRAM, uniform R_min, 45 nm
        wires) converges in at most 8 rounds and 3 LU factorizations —
        the damped fixed point it replaced took 16 rounds and ~13."""
        from repro.accuracy.interconnect import DEFAULT_SENSE_RESISTANCE
        from repro.config import SimConfig
        from repro.spice import solver as solver_module

        config = SimConfig(crossbar_size=64, interconnect_tech=45)
        device = config.device
        segment = config.wire.segment_resistance(
            device.cell_pitch(config.cell_type)
        )
        network = CrossbarNetwork(
            np.full((64, 64), device.r_min), segment,
            DEFAULT_SENSE_RESISTANCE, device=device,
        )
        calls = []
        splu = solver_module.spla.splu

        def counted(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(solver_module.spla, "splu", counted)
        solution = network.solve(np.full(64, device.read_voltage))
        assert solution.converged
        assert solution.iterations <= 8
        assert 1 <= len(calls) <= 3

    def test_cell_currents_follow_the_device_law(self):
        """The returned conductances are the secant ones at the final
        voltages, so ``cell_currents`` is ``I(V)`` of the sinh law."""
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 16, seed=5)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        solution = network.solve(inputs)
        np.testing.assert_allclose(
            solution.cell_currents,
            device.current(resistances, solution.cell_voltages),
            rtol=1e-12, atol=0,
        )

    def test_max_iterations_exhausted_is_reported(self):
        """A round budget too small to converge is reported, not
        hidden: ``converged`` is false and the budget is the count."""
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 8, seed=9)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        solution = network.solve(inputs, max_iterations=2)
        assert not solution.converged
        assert solution.iterations == 2


class TestBatchedSolves:
    def test_linear_batch_matches_per_vector_loop(self):
        rng = np.random.default_rng(23)
        resistances = rng.uniform(1e5, 1e6, size=(16, 16))
        batch_inputs = rng.uniform(0.1, 1.0, size=(8, 16))
        network = CrossbarNetwork(resistances, 1.0, 1e3)
        batch = network.solve_many(batch_inputs)
        assert isinstance(batch, CrossbarSolutionBatch)
        assert len(batch) == 8
        for k in range(8):
            single = network.solve(batch_inputs[k])
            np.testing.assert_allclose(
                batch.output_voltages[k], single.output_voltages,
                rtol=1e-12, atol=1e-15,
            )
            np.testing.assert_allclose(
                batch[k].cell_voltages, single.cell_voltages,
                rtol=1e-12, atol=1e-15,
            )
            assert batch.iterations[k] == single.iterations
            assert batch.converged[k]

    def test_nonlinear_batch_matches_per_vector_loop(self):
        device = get_memristor_model("RRAM")
        rng = np.random.default_rng(29)
        resistances, _ = _random_network(device, 8, seed=29)
        batch_inputs = rng.uniform(0.1, device.read_voltage, size=(3, 8))
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        batch = network.solve_many(batch_inputs)
        for k in range(3):
            single = network.solve(batch_inputs[k])
            assert np.array_equal(
                batch.output_voltages[k], single.output_voltages
            )
            assert batch.iterations[k] == single.iterations

    @pytest.mark.parametrize("nonlinear", (False, True))
    def test_bit_identical_to_looped_solve(self, nonlinear):
        """Every array of every vector equals its own ``solve``, bit
        for bit — including a zero vector, which settles in fewer
        rounds than its driven neighbours."""
        device = get_memristor_model("RRAM") if nonlinear else None
        rng = np.random.default_rng(21)
        network = CrossbarNetwork(
            rng.uniform(1e5, 1e6, size=(12, 12)), 0.25, 1e3, device=device,
        )
        batch_inputs = rng.uniform(0.1, 1.0, size=(5, 12))
        batch_inputs[2] = 0.0
        batch = network.solve_many(batch_inputs)
        for k in range(5):
            single = network.solve(batch_inputs[k])
            for field in ("output_voltages", "cell_voltages",
                          "cell_currents", "input_currents"):
                assert np.array_equal(
                    getattr(batch, field)[k], getattr(single, field)
                )
            # The linear path sums power with one einsum over the batch.
            assert batch.total_power[k] == pytest.approx(
                single.total_power, rel=1e-12
            )
            assert batch.iterations[k] == single.iterations
            assert bool(batch.converged[k]) == single.converged
        if nonlinear:
            assert len(set(batch.iterations.tolist())) > 1

    def test_getitem_recovers_solution(self):
        rng = np.random.default_rng(24)
        network = CrossbarNetwork(
            rng.uniform(1e5, 1e6, size=(8, 8)), 0.25, 1e3,
        )
        batch = network.solve_many(rng.uniform(0.1, 1.0, size=(3, 8)))
        single = batch[1]
        assert np.array_equal(single.output_voltages,
                              batch.output_voltages[1])
        assert np.array_equal(single.cell_currents,
                              batch.cell_currents[1])
        assert single.converged

    def test_batch_shape_validation(self):
        network = CrossbarNetwork(np.full((4, 4), 1e5), 1.0, 1e3)
        with pytest.raises(SolverError):
            network.solve_many(np.ones((2, 5)))  # wrong row count
        with pytest.raises(SolverError):
            network.solve_many(np.ones(4))  # not a batch


class TestSingularSystem:
    def test_raises_structured_solver_error(self):
        """All cells open + infinite wire resistance: the MNA matrix is
        exactly singular, and the failure must name the configuration
        (this replaced dead except-RuntimeError code around spsolve,
        which raised scipy warnings instead)."""
        network = CrossbarNetwork(np.full((2, 2), np.inf), np.inf, 1e3)
        with pytest.raises(SolverError, match="singular MNA system"):
            network.solve(np.ones(2))
        with pytest.raises(SolverError, match="2x2 crossbar"):
            network.solve(np.ones(2))


class TestVectorizedPathSmoke:
    """Fast CI smoke: the structural fast path is actually in use and
    produces finite physics.  No timing thresholds here — speedups are
    measured (and asserted) in ``benchmarks/test_spice_solver_perf.py``.
    """

    def test_structure_cache_populated_and_shared(self):
        _STRUCTURE_CACHE.pop((5, 7), None)
        a = CrossbarNetwork(np.full((5, 7), 1e5), 1.0, 1e3)
        a.solve(np.full(5, 0.3))
        assert (5, 7) in _STRUCTURE_CACHE
        b = CrossbarNetwork(np.full((5, 7), 2e5), 1.0, 1e3)
        assert b.structure is a.structure  # shared, not rebuilt
        assert _structure_for(5, 7) is a.structure

    def test_outputs_finite(self):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 16, seed=3)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        batch = network.solve_many(
            np.stack([inputs, 0.5 * inputs, np.zeros_like(inputs)])
        )
        assert np.all(np.isfinite(batch.output_voltages))
        assert np.all(np.isfinite(batch.total_power))
        assert np.all(batch.converged)


class TestMonteCarloRegression:
    def test_parallel_bit_for_bit(self):
        """``jobs=2`` must reproduce the serial sweep exactly — the
        batched-solve rework must not perturb the runtime-engine
        equivalence guarantee."""
        from repro.accuracy.montecarlo import run_monte_carlo

        device = get_memristor_model("RRAM")
        serial = run_monte_carlo(device, 8, 2.0, seed=13, trials=6)
        parallel = run_monte_carlo(device, 8, 2.0, seed=13, trials=6,
                                   jobs=2)
        assert np.array_equal(serial.samples, parallel.samples)

    def test_batched_trials_extend_samples(self):
        """``inputs_per_trial > 1`` adds extra random input vectors per
        sampled resistance matrix through ``solve_many``; the first
        vector of each trial is the same one the default protocol
        draws, so the sample set extends it (up to the last-bit BLAS
        difference between the batched and single-vector ideal
        divider)."""
        from repro.accuracy.montecarlo import run_monte_carlo

        device = get_memristor_model("RRAM")
        base = run_monte_carlo(device, 8, 2.0, seed=31, trials=3)
        widened = run_monte_carlo(device, 8, 2.0, seed=31, trials=3,
                                  inputs_per_trial=4)
        assert widened.samples.size == 4 * base.samples.size
        np.testing.assert_allclose(
            widened.samples.reshape(3, 4, 8)[:, 0, :].ravel(),
            base.samples, rtol=1e-12, atol=1e-15,
        )
