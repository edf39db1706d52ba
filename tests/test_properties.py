"""Property-based tests (hypothesis) on the core models and invariants."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.accuracy.interconnect import analog_error_rate
from repro.accuracy.propagation import combine_error_rates, propagate_layers
from repro.accuracy.quantization import (
    avg_digital_deviation,
    avg_error_rate,
    max_digital_deviation,
    max_error_rate,
)
from repro.config import SimConfig
from repro.errors import SolverError
from repro.faults.models import FAULT_MODES, sample_fault_mask
from repro.dse.tradeoff import inflection_point, pareto_frontier
from repro.nn.quantize import bit_slice, dequantize, quantize, split_polarity
from repro.report import Performance
from repro.spice.solver import CrossbarNetwork, ideal_output_voltages
from repro.tech import get_memristor_model

finite_floats = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# Performance algebra
# ----------------------------------------------------------------------
@st.composite
def performances(draw):
    return Performance(
        area=draw(finite_floats),
        dynamic_energy=draw(finite_floats),
        leakage_power=draw(finite_floats),
        latency=draw(finite_floats),
    )


@given(performances(), performances())
def test_serial_composition_is_commutative_and_additive(a, b):
    ab, ba = a.serial(b), b.serial(a)
    assert math.isclose(ab.area, ba.area, rel_tol=1e-12)
    assert math.isclose(ab.latency, a.latency + b.latency, rel_tol=1e-12)


@given(performances(), performances(), performances())
def test_serial_composition_is_associative(a, b, c):
    left = a.serial(b).serial(c)
    right = a.serial(b.serial(c))
    assert math.isclose(left.dynamic_energy, right.dynamic_energy,
                        rel_tol=1e-9)
    assert math.isclose(left.latency, right.latency, rel_tol=1e-9)


@given(performances(), performances())
def test_parallel_latency_is_max(a, b):
    assert a.parallel(b).latency == max(a.latency, b.latency)


@given(performances(), st.integers(min_value=0, max_value=50))
def test_replicate_matches_repeated_parallel(p, n):
    replicated = p.replicate(n)
    assert math.isclose(replicated.area, n * p.area, rel_tol=1e-9,
                        abs_tol=1e-12)
    if n:
        assert replicated.latency == p.latency


# ----------------------------------------------------------------------
# Quantization model (Eq. 12-14)
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=4096),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_error_rates_bounded_and_ordered(k, eps):
    worst = max_error_rate(k, eps)
    average = avg_error_rate(k, eps)
    assert 0 <= average <= 1
    assert 0 <= worst <= 1
    # Eq. 14's use of level i (rather than i - 0.5) can nudge the
    # average a hair above Eq. 13's worst case for degenerate level
    # counts; one quantization step covers the discrepancy.
    assert average <= worst + 1.0 / (k - 1)


@given(
    st.integers(min_value=2, max_value=1024),
    st.floats(min_value=0, max_value=0.5, allow_nan=False),
    st.floats(min_value=0, max_value=0.5, allow_nan=False),
)
def test_max_error_rate_monotone_in_eps(k, e1, e2):
    low, high = sorted((e1, e2))
    assert max_error_rate(k, low) <= max_error_rate(k, high)


@given(
    st.integers(min_value=2, max_value=512),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_deviation_formulas_match_direct_enumeration(k, eps):
    expected_avg = sum(math.floor(i * eps + 0.5) for i in range(k)) / k
    assert math.isclose(avg_digital_deviation(k, eps), expected_avg,
                        rel_tol=1e-12, abs_tol=1e-12)
    assert max_digital_deviation(k, eps) == math.floor(
        (k - 1.5) * eps + 0.5
    )


# ----------------------------------------------------------------------
# Propagation (Eq. 15)
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.floats(min_value=0, max_value=0.3, allow_nan=False),
        min_size=1, max_size=8,
    )
)
def test_propagated_error_is_monotone_nondecreasing(epsilons):
    deltas = propagate_layers(epsilons, 256)
    assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
    assert all(0 <= d <= 1 for d in deltas)


@given(
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_combine_at_least_each_component(delta, eps):
    combined = combine_error_rates(delta, eps)
    assert combined >= max(delta, eps) - 1e-12


# ----------------------------------------------------------------------
# Analog error model (Eq. 9-11)
# ----------------------------------------------------------------------
@given(
    st.sampled_from([8, 16, 32, 64, 128, 256, 512]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_analog_error_bounded(size, segment_resistance):
    device = get_memristor_model("RRAM")
    eps = analog_error_rate(size, size, segment_resistance, device)
    assert -1.0 < eps < 1.0


@given(st.sampled_from([8, 16, 32, 64, 128, 256]))
def test_wire_error_monotone_in_segment_resistance(size):
    device = get_memristor_model("IDEAL")
    values = [
        analog_error_rate(size, size, r, device)
        for r in (0.0, 0.1, 0.5, 2.0)
    ]
    assert values == sorted(values)


# ----------------------------------------------------------------------
# Fixed-point quantization
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
        min_size=1, max_size=64,
    ),
    st.integers(min_value=2, max_value=12),
)
def test_quantize_round_trip_error_within_half_step(values, bits):
    array = np.asarray(values)
    # Signed fixed point saturates at (2^(b-1) - 1) / 2^(b-1); the
    # half-step bound only holds inside the representable range.
    top = (2 ** (bits - 1) - 1) / 2 ** (bits - 1)
    assume(np.all(array <= top))
    rebuilt = dequantize(quantize(array, bits), bits)
    step = 1.0 / 2 ** (bits - 1)
    assert np.max(np.abs(array - rebuilt)) <= step / 2 + 1e-12


@given(
    st.lists(st.integers(min_value=-128, max_value=127), min_size=1,
             max_size=64)
)
def test_polarity_split_reconstructs(levels):
    array = np.asarray(levels)
    pos, neg = split_polarity(array)
    assert np.array_equal(pos - neg, array)
    assert np.all(pos * neg == 0)  # planes never overlap


@given(
    st.lists(st.integers(min_value=0, max_value=2**12 - 1), min_size=1,
             max_size=32),
    st.integers(min_value=1, max_value=6),
)
def test_bit_slices_reassemble(levels, slice_bits):
    array = np.asarray(levels)
    slices_needed = max(1, math.ceil(12 / slice_bits))
    parts = bit_slice(array, slice_bits, slices_needed)
    rebuilt = np.zeros_like(array)
    for i, part in enumerate(parts):
        assert np.all(part < 2**slice_bits)
        rebuilt = rebuilt + (part << (i * slice_bits))
    assert np.array_equal(rebuilt, array)


# ----------------------------------------------------------------------
# Circuit solver invariants
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
)
def test_solver_outputs_bounded_by_inputs(rows, cols, wire_r):
    rng = np.random.default_rng(rows * 100 + cols)
    resistances = rng.uniform(1e5, 1e6, size=(rows, cols))
    inputs = rng.uniform(0.0, 1.0, size=rows)
    network = CrossbarNetwork(resistances, wire_r, 1e3)
    solution = network.solve(inputs)
    assert np.all(solution.output_voltages >= -1e-9)
    assert np.all(solution.output_voltages <= inputs.max() + 1e-9)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=8),
)
def test_solver_charge_conservation(rows, cols):
    rng = np.random.default_rng(rows * 31 + cols)
    resistances = rng.uniform(1e5, 1e6, size=(rows, cols))
    inputs = rng.uniform(0.1, 1.0, size=rows)
    r_sense = 1e3
    solution = CrossbarNetwork(resistances, 0.5, r_sense).solve(inputs)
    into_ground = solution.output_voltages.sum() / r_sense
    assert math.isclose(
        solution.input_currents.sum(), into_ground, rel_tol=1e-6
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("RRAM", "PCM")),
    st.integers(min_value=2, max_value=24),
    st.sampled_from(("r_min", "random", "r_max")),
    st.sampled_from((None,) + FAULT_MODES),
    st.integers(min_value=0, max_value=2**16),
)
def test_nonlinear_solve_satisfies_kcl_at_every_node(
    device_name, size, distribution, fault_mode, seed
):
    """Kirchhoff's current law holds at every node under the sinh law.

    The imbalance is computed from the wire/sense stamps plus the
    device current ``I = (V0/R) sinh(V/V0)`` evaluated directly — not
    from the solver's secant conductances.  At every node it must stay
    below 1e-8 of the current the sources deliver, plus the rounding
    floor of evaluating the node's sum: 64 ulp of its summed
    branch-current magnitudes (which dominates only on shorted lines,
    whose 1e6 S segments carry amperes of cancelling terms).
    """
    device = get_memristor_model(device_name)
    rng = np.random.default_rng(seed)
    if distribution == "random":
        levels = rng.integers(0, device.levels, size=(size, size))
        resistances = device.resistance_of_level(levels)
    else:
        resistances = np.full((size, size), getattr(device, distribution))
    mask = None
    if fault_mode is not None:
        mask = sample_fault_mask(size, size, 0.1, rng, mode=fault_mode)
    inputs = rng.uniform(0.0, device.read_voltage, size=size)
    network = CrossbarNetwork(resistances, 0.5, 1e3, device=device,
                              fault_mask=mask)
    try:
        voltages, conductances, _, converged = network._solve_nodes(
            inputs, 1e-10, 60
        )
    except SolverError:
        assume(False)  # floating nodes: a singular mask has no solution
    assert converged
    structure = network.structure
    tail = network._wire_tail()
    wires = structure.matrix(np.zeros((size, size)), tail)
    cell = device.current(network.resistances,
                          network._cell_voltages(voltages))
    if network._cell_gain is not None:  # open cells carry no current
        cell = cell * network._cell_gain
    rhs = network._rhs(inputs)
    imbalance = (
        wires @ voltages
        + np.concatenate((cell.ravel(), -cell.ravel()))
        - rhs
    )
    delivered = np.sum(np.abs(
        (inputs - voltages[structure.input_nodes])
        * network._input_conductances()
    ))
    # Each branch current g (V_a - V_b) contributes g |V_a| + g |V_b|.
    magnitude = (
        abs(structure.matrix(conductances, tail)) @ np.abs(voltages)
        + np.abs(rhs)
    )
    assert np.all(
        np.abs(imbalance)
        <= 1e-8 * delivered + 64 * np.finfo(float).eps * magnitude
    )


# ----------------------------------------------------------------------
# DSE utilities
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1, max_size=40,
    )
)
def test_pareto_frontier_members_are_nondominated(points):
    frontier = pareto_frontier(points)
    assert frontier  # at least one survivor
    for fx, fy in frontier:
        strictly_dominating = [
            (px, py)
            for px, py in points
            if px <= fx and py <= fy and (px < fx or py < fy)
        ]
        assert not strictly_dominating


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1, max_size=40,
    )
)
def test_inflection_point_is_a_member(points):
    assert inflection_point(points) in points


# ----------------------------------------------------------------------
# Configuration round-trips
# ----------------------------------------------------------------------
@given(
    st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512, 1024]),
    st.sampled_from([18, 22, 28, 36, 45, 65, 90]),
    st.integers(min_value=1, max_value=8),
)
def test_config_replace_never_corrupts(size, wire, bits):
    config = SimConfig().replace(
        crossbar_size=size, interconnect_tech=wire, weight_bits=bits,
        parallelism_degree=0,
    )
    assert config.crossbar_size == size
    assert config.cells_per_weight >= 1
    assert config.effective_parallelism() == size


# ----------------------------------------------------------------------
# Functional mapping algebra
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([8, 16, 32]),
    st.sampled_from(["RRAM", "RRAM-4BIT"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_functional_ideal_mode_always_exact(out_features, in_features,
                                            crossbar_size, model, seed):
    """For any layer shape, tiling, device precision, and weights, the
    IDEAL functional path must reproduce the fixed-point reference with
    the mapped weights, bit for bit."""
    import numpy as np

    from repro.functional import FunctionalAccelerator
    from repro.nn.networks import mlp as make_mlp

    rng = np.random.default_rng(seed)
    network = make_mlp([in_features, out_features], name="prop")
    weights = [
        rng.uniform(-1, 1, size=(out_features, in_features))
        / np.sqrt(in_features)
    ]
    config = SimConfig(
        crossbar_size=crossbar_size, memristor_model=model, weight_bits=8,
    )
    functional = FunctionalAccelerator(config, network, weights)
    inputs = rng.uniform(-1, 1, size=in_features)
    got = functional.forward(inputs)[-1]
    expected = functional.reference_forward(inputs)[-1]
    assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Persistence round-trips
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=32), min_size=2,
             max_size=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_persistence_round_trip_property(sizes, seed):
    """Any FC network + weights must survive save/load bit for bit."""
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.nn.networks import mlp as make_mlp
    from repro.nn.persistence import load_network, save_network

    rng = np.random.default_rng(seed)
    network = make_mlp(sizes, name="prop-save")
    weights = [
        rng.uniform(-1, 1, size=layer.weight_shape)
        for layer in network.layers
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_network(path, network, weights)
        loaded_net, loaded_weights, _meta = load_network(path)
    assert loaded_net.depth == network.depth
    assert all(
        np.array_equal(a, b) for a, b in zip(weights, loaded_weights)
    )


# ----------------------------------------------------------------------
# Fault injection invariants
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fault_count_matches_rate_statistically(rate, seed):
    """Flipped-cell counts follow the requested defect rate."""
    import numpy as np

    from repro.functional import FunctionalAccelerator
    from repro.functional.faults import inject_stuck_faults
    from repro.nn.networks import mlp as make_mlp

    rng = np.random.default_rng(seed)
    network = make_mlp([16, 8], name="prop-faults")
    weights = [rng.uniform(-1, 1, size=(8, 16)) / 4]
    functional = FunctionalAccelerator(
        SimConfig(crossbar_size=16), network, weights
    )
    total_cells = sum(
        plane.levels.size
        for bank in functional.banks
        for grid in bank.units
        for row in grid
        for unit in row
        for plane in (unit.positive, unit.negative)
        if plane is not None
    )
    flipped = inject_stuck_faults(functional, rate, rng)
    assert 0 <= flipped <= total_cells
    if rate == 0.0:
        assert flipped == 0
    if rate == 1.0:
        assert flipped == total_cells
