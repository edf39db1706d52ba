"""Technology substrate: CMOS nodes, interconnect, memristor devices."""

import math

import numpy as np
import pytest

from repro.errors import TechnologyError
from repro.tech import (
    CellType,
    available_cmos_nodes,
    available_interconnect_nodes,
    available_memristor_models,
    get_cmos_node,
    get_interconnect_node,
    get_memristor_model,
)
from repro.units import NM


class TestCmos:
    def test_all_published_nodes_available(self):
        assert {130, 90, 65, 45, 32, 28, 22, 18} <= set(available_cmos_nodes())

    def test_unknown_node_raises(self):
        with pytest.raises(TechnologyError, match="unknown CMOS node"):
            get_cmos_node(7)

    def test_scaling_monotonic_vdd_and_delay(self):
        nodes = [get_cmos_node(nm) for nm in (130, 90, 65, 45, 32)]
        vdds = [n.vdd for n in nodes]
        fo4s = [n.fo4_delay for n in nodes]
        assert vdds == sorted(vdds, reverse=True)
        assert fo4s == sorted(fo4s, reverse=True)

    def test_gate_area_scales_with_node_squared(self):
        big, small = get_cmos_node(90), get_cmos_node(45)
        ratio = big.gate_area(100) / small.gate_area(100)
        assert ratio == pytest.approx((90 / 45) ** 2)

    def test_gate_energy_positive_and_linear_in_count(self):
        node = get_cmos_node(45)
        assert node.gate_energy(10) == pytest.approx(10 * node.gate_energy(1))
        assert node.gate_energy(1) > 0

    def test_gate_delay_linear_in_depth(self):
        node = get_cmos_node(65)
        assert node.gate_delay(4) == pytest.approx(4 * node.fo4_delay)

    def test_node_nm_round_trips(self):
        for nm in available_cmos_nodes():
            assert get_cmos_node(nm).node_nm == nm


class TestInterconnect:
    def test_all_paper_nodes_available(self):
        assert {18, 22, 28, 36, 45, 90} <= set(available_interconnect_nodes())

    def test_unknown_node_raises(self):
        with pytest.raises(TechnologyError, match="unknown interconnect"):
            get_interconnect_node(10)

    def test_resistance_rises_as_wires_shrink(self):
        nodes = [get_interconnect_node(nm) for nm in (90, 45, 28, 22, 18)]
        resistances = [n.resistance_per_length for n in nodes]
        assert resistances == sorted(resistances)

    def test_segment_resistance_scales_with_pitch(self):
        node = get_interconnect_node(45)
        assert node.segment_resistance(300 * NM) == pytest.approx(
            2 * node.segment_resistance(150 * NM)
        )

    def test_45nm_segment_resistance_calibration(self):
        """The accuracy-model calibration assumed ~0.25 ohm/segment at
        45 nm for the reference RRAM pitch (150 nm)."""
        node = get_interconnect_node(45)
        r = node.segment_resistance(150 * NM)
        assert 0.15 < r < 0.4

    def test_capacitance_positive(self):
        node = get_interconnect_node(28)
        assert node.segment_capacitance(150 * NM) > 0


class TestMemristor:
    def test_builtin_models(self):
        assert {"RRAM", "RRAM-4BIT", "PCM", "IDEAL"} <= set(
            available_memristor_models()
        )

    def test_lookup_is_case_insensitive(self):
        assert get_memristor_model("rram").name == "RRAM"

    def test_unknown_model_raises(self):
        with pytest.raises(TechnologyError, match="unknown memristor"):
            get_memristor_model("FLASH")

    def test_cell_area_formulas(self):
        device = get_memristor_model("RRAM")
        f2 = device.feature_size**2
        # Eq. 7: 3(W/L + 1) F^2 with W/L = 2 -> 9 F^2.
        assert device.cell_area(CellType.ONE_T_ONE_R) == pytest.approx(9 * f2)
        # Eq. 8: 4 F^2.
        assert device.cell_area(CellType.CROSS_POINT) == pytest.approx(4 * f2)

    def test_cross_point_is_denser(self):
        device = get_memristor_model("RRAM")
        assert device.cell_area(CellType.CROSS_POINT) < device.cell_area(
            CellType.ONE_T_ONE_R
        )

    def test_levels_from_precision_bits(self):
        assert get_memristor_model("RRAM").levels == 128  # 7-bit
        assert get_memristor_model("PCM").levels == 16  # 4-bit

    def test_conductance_levels_span_the_window(self):
        device = get_memristor_model("RRAM")
        assert device.resistance_of_level(0) == pytest.approx(device.r_max)
        assert device.resistance_of_level(device.levels - 1) == (
            pytest.approx(device.r_min)
        )

    def test_conductance_levels_monotonic(self):
        device = get_memristor_model("RRAM")
        conductances = [
            device.conductance_of_level(i) for i in range(device.levels)
        ]
        assert conductances == sorted(conductances)

    def test_level_out_of_range_raises(self):
        device = get_memristor_model("RRAM")
        with pytest.raises(ValueError):
            device.conductance_of_level(device.levels)
        with pytest.raises(ValueError):
            device.conductance_of_level(-1)

    def test_harmonic_mean_between_extremes(self):
        device = get_memristor_model("RRAM")
        h = device.harmonic_mean_resistance
        assert device.r_min < h < device.r_max
        expected = 2 * device.r_min * device.r_max / (
            device.r_min + device.r_max
        )
        assert h == pytest.approx(expected)

    def test_nonlinearity_reduces_resistance_at_bias(self):
        device = get_memristor_model("RRAM")
        r = device.r_min
        assert device.actual_resistance(r, 0.0) == r
        assert device.actual_resistance(r, 0.8) < r

    def test_nonlinearity_monotone_in_voltage(self):
        device = get_memristor_model("RRAM")
        factors = [device.nonlinearity_factor(v) for v in (0.1, 0.4, 0.8, 1.0)]
        assert factors == sorted(factors)
        assert all(0 <= f < 1 for f in factors)

    def test_ideal_device_is_ohmic(self):
        device = get_memristor_model("IDEAL")
        assert device.actual_resistance(1e5, 1.0) == 1e5
        assert device.nonlinearity_factor(1.0) == 0.0

    def test_current_matches_ohms_law_at_small_bias(self):
        device = get_memristor_model("RRAM")
        r = 1e6
        v = 1e-4
        assert device.current(r, v) == pytest.approx(v / r, rel=1e-6)

    def test_differential_conductance_is_the_current_slope(self):
        device = get_memristor_model("RRAM")
        r, v, h = 2e5, 0.7, 1e-6
        slope = (device.current(r, v + h) - device.current(r, v - h)) / (2 * h)
        assert device.differential_conductance(r, v) == pytest.approx(
            slope, rel=1e-8
        )
        assert device.differential_conductance(r, 0.0) == 1.0 / r
        grid = device.differential_conductance(
            np.full((2, 3), r), np.zeros((2, 3))
        )
        assert grid.shape == (2, 3) and np.all(grid == 1.0 / r)
        ideal = get_memristor_model("IDEAL")
        assert ideal.differential_conductance(r, 1.0) == 1.0 / r

    def test_with_sigma_and_overrides(self):
        device = get_memristor_model("RRAM")
        assert device.with_sigma(0.25).sigma == 0.25
        changed = device.with_overrides(r_min=500.0, r_max=500e3)
        assert (changed.r_min, changed.r_max) == (500.0, 500e3)
        assert device.r_min != 500.0  # original untouched

    def test_invalid_construction(self):
        device = get_memristor_model("RRAM")
        with pytest.raises(TechnologyError):
            device.with_overrides(r_min=-1.0)
        with pytest.raises(TechnologyError):
            device.with_overrides(r_min=2e7)  # r_min > r_max
        with pytest.raises(TechnologyError):
            device.with_sigma(0.9)

    def test_write_energy_positive(self):
        assert get_memristor_model("RRAM").write_energy_per_cell() > 0

    def test_cell_type_parser(self):
        assert CellType.from_string("1t1r") is CellType.ONE_T_ONE_R
        with pytest.raises(TechnologyError):
            CellType.from_string("2T2R")


class TestAdditionalDevices:
    def test_memory_window_device_matches_table1(self):
        device = get_memristor_model("RRAM-MEMORY")
        assert device.r_min == 500.0
        assert device.r_max == 500e3

    def test_memory_device_usable_in_config(self):
        from repro.config import SimConfig

        config = SimConfig(memristor_model="RRAM-MEMORY")
        assert config.device.harmonic_mean_resistance < 1100

    def test_compute_window_far_above_memory_window(self):
        compute = get_memristor_model("RRAM")
        memory = get_memristor_model("RRAM-MEMORY")
        assert compute.r_min / memory.r_min >= 100
