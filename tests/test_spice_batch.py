"""Batched crossbar solving: ``solve_batch`` vs the point-wise path.

The batched evaluation stack (DESIGN.md S22) rests on one contract:
``solve_batch`` returns results *bit-identical* to looping
``CrossbarNetwork.solve`` member by member, for any mix of wire
parameters, fault masks and per-member round counts (every member runs
the same Newton routine, so this holds by construction).  These tests
pin that contract exactly (``==`` on the raw arrays), plus the looser
1e-12 (linear) / 1e-9 (nonlinear) tolerance checks the acceptance
criteria phrase it in — the exact assertions subsume them, but keeping
both documents which one is the load-bearing guarantee.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.faults.models import sample_fault_mask
from repro.spice.solver import CrossbarNetwork, solve_batch
from repro.tech import get_memristor_model

SEG = 0.25
SENSE = 1e3


@pytest.fixture(scope="module")
def device():
    return get_memristor_model("RRAM")


def _random_batch(device, count, size, seed, fault_rate=0.0,
                  fault_mode="stuck_mixed"):
    """``count`` independent same-shape networks plus their inputs."""
    rng = np.random.default_rng(seed)
    networks, inputs = [], []
    for _ in range(count):
        resistances = rng.uniform(1e5, 1e6, size=(size, size))
        mask = None
        if fault_rate > 0:
            mask = sample_fault_mask(size, size, fault_rate, rng,
                                     mode=fault_mode)
        networks.append(CrossbarNetwork(
            resistances, SEG, SENSE, device=device, fault_mask=mask,
        ))
        inputs.append(rng.uniform(0.1, 1.0, size=size))
    return networks, np.stack(inputs)


def _assert_members_bit_identical(batch, networks, inputs):
    """Every member equals its point-wise solve, bit for bit."""
    for index, network in enumerate(networks):
        single = network.solve(inputs[index])
        assert np.array_equal(batch.output_voltages[index],
                              single.output_voltages)
        assert np.array_equal(batch.cell_voltages[index],
                              single.cell_voltages)
        assert np.array_equal(batch.cell_currents[index],
                              single.cell_currents)
        assert np.array_equal(batch.input_currents[index],
                              single.input_currents)
        assert batch.total_power[index] == single.total_power
        assert batch.iterations[index] == single.iterations
        assert bool(batch.converged[index]) == single.converged


class TestLinearBatch:
    def test_bit_identical_to_looped_solve(self):
        networks, inputs = _random_batch(None, 7, 12, seed=21)
        batch = solve_batch(networks, inputs)
        assert len(batch) == 7
        assert batch.failed is None
        _assert_members_bit_identical(batch, networks, inputs)

    def test_within_linear_tolerance(self):
        """The acceptance-criteria phrasing: agreement to 1e-12."""
        networks, inputs = _random_batch(None, 5, 16, seed=22)
        batch = solve_batch(networks, inputs)
        for index, network in enumerate(networks):
            single = network.solve(inputs[index])
            np.testing.assert_allclose(
                batch.output_voltages[index], single.output_voltages,
                rtol=1e-12, atol=0,
            )

    def test_matches_solve_many(self):
        """``solve_many`` (one net, K inputs) vs the general batch."""
        networks, inputs = _random_batch(None, 4, 10, seed=23)
        network = networks[0]
        many = network.solve_many(inputs)
        batch = solve_batch([network] * len(inputs), inputs)
        assert np.array_equal(many.output_voltages,
                              batch.output_voltages)
        assert np.array_equal(many.iterations, batch.iterations)

    def test_getitem_recovers_solution(self):
        networks, inputs = _random_batch(None, 3, 8, seed=24)
        batch = solve_batch(networks, inputs)
        single = batch[1]
        assert np.array_equal(single.output_voltages,
                              batch.output_voltages[1])
        assert single.converged


class TestNonlinearBatch:
    def test_bit_identical_to_looped_solve(self, device):
        networks, inputs = _random_batch(device, 6, 12, seed=31)
        batch = solve_batch(networks, inputs)
        _assert_members_bit_identical(batch, networks, inputs)

    def test_within_nonlinear_tolerance(self, device):
        """The acceptance-criteria phrasing: agreement to 1e-9."""
        networks, inputs = _random_batch(device, 4, 16, seed=32)
        batch = solve_batch(networks, inputs)
        for index, network in enumerate(networks):
            single = network.solve(inputs[index])
            np.testing.assert_allclose(
                batch.output_voltages[index], single.output_voltages,
                rtol=1e-9, atol=0,
            )

    def test_heterogeneous_iteration_counts(self, device):
        """Members retiring on different rounds stay bit-identical.

        A zero input vector settles in round 2 (its first chord step is
        exactly zero) while driven members take more rounds; no member's
        values may depend on how long the others ran.
        """
        networks, inputs = _random_batch(device, 6, 16, seed=35)
        inputs[2] = 0.0
        batch = solve_batch(networks, inputs)
        assert batch.iterations[2] == 2
        assert len(set(batch.iterations.tolist())) > 1
        assert batch.converged.all()
        _assert_members_bit_identical(batch, networks, inputs)

    def test_fault_masks_bit_identical(self, device):
        """Masked and unmasked members coexist in one batch."""
        masked, inputs_a = _random_batch(device, 4, 10, seed=34,
                                         fault_rate=0.1)
        clean, inputs_b = _random_batch(device, 2, 10, seed=35)
        networks = masked + clean
        inputs = np.concatenate([inputs_a, inputs_b])
        batch = solve_batch(networks, inputs)
        _assert_members_bit_identical(batch, networks, inputs)

    def test_solve_many_nonlinear_routes_through_batch(self, device):
        rng = np.random.default_rng(36)
        resistances = rng.uniform(1e5, 1e6, size=(10, 10))
        network = CrossbarNetwork(resistances, SEG, SENSE, device=device)
        inputs = rng.uniform(0.1, 1.0, size=(5, 10))
        many = network.solve_many(inputs)
        for index in range(5):
            single = network.solve(inputs[index])
            assert np.array_equal(many.output_voltages[index],
                                  single.output_voltages)


class TestSingularHandling:
    # Seed 1 at 25% line_open on 8x8 yields a mixed batch: members
    # [1, 3, 4, 5] singular, [0, 2] solvable (pinned by the assertions).
    def _mixed_batch(self, device):
        return _random_batch(device, 6, 8, seed=1, fault_rate=0.25,
                             fault_mode="line_open")

    def test_raise_mode_matches_pointwise(self, device):
        networks, inputs = self._mixed_batch(device)
        with pytest.raises(SolverError):
            solve_batch(networks, inputs)

    def test_mark_mode_flags_exactly_the_singular_members(self, device):
        networks, inputs = self._mixed_batch(device)
        expected = []
        for index, network in enumerate(networks):
            try:
                network.solve(inputs[index])
                expected.append(False)
            except SolverError:
                expected.append(True)
        assert any(expected) and not all(expected)  # genuinely mixed
        batch = solve_batch(networks, inputs, on_singular="mark")
        assert batch.failed.tolist() == expected
        for index, failed in enumerate(expected):
            if failed:
                assert not batch.converged[index]
                assert np.isnan(batch.output_voltages[index]).all()
            else:
                single = networks[index].solve(inputs[index])
                assert np.array_equal(batch.output_voltages[index],
                                      single.output_voltages)

    def test_all_solvable_mark_mode_reports_no_failures(self, device):
        networks, inputs = _random_batch(device, 3, 8, seed=41)
        batch = solve_batch(networks, inputs, on_singular="mark")
        assert not batch.failed.any()
        assert batch.converged.all()


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SolverError):
            solve_batch([], np.zeros((0, 4)))

    def test_shape_mismatch_rejected(self, device):
        a, _ = _random_batch(device, 1, 8, seed=51)
        b, _ = _random_batch(device, 1, 10, seed=52)
        with pytest.raises(SolverError):
            solve_batch(a + b, np.ones((2, 8)))

    def test_device_mismatch_rejected(self, device):
        nonlinear, _ = _random_batch(device, 1, 8, seed=53)
        linear, _ = _random_batch(None, 1, 8, seed=54)
        with pytest.raises(SolverError):
            solve_batch(nonlinear + linear, np.ones((2, 8)))

    def test_inputs_shape_enforced(self, device):
        networks, inputs = _random_batch(device, 3, 8, seed=55)
        with pytest.raises(SolverError):
            solve_batch(networks, inputs[:2])  # batch-size mismatch
        with pytest.raises(SolverError):
            solve_batch(networks, inputs[0])  # missing batch axis

    def test_bad_on_singular_rejected(self, device):
        networks, inputs = _random_batch(device, 2, 8, seed=56)
        with pytest.raises(SolverError):
            solve_batch(networks, inputs, on_singular="ignore")
