"""Campaign runner: reproducibility, caching, aggregation, CLI."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults.campaign import (
    CampaignSpec,
    CurvePoint,
    _parse_network_spec,
    run_campaign,
)
from repro.runtime.cache import ResultCache
from repro.runtime.metrics import RunMetrics
from repro.runtime.pool import RunPolicy
from repro.spice.solver import CrossbarNetwork


def _tiny_spec(**overrides):
    base = dict(
        networks=("crossbar",),
        fault_modes=("stuck_mixed",),
        fault_rates=(0.0, 0.1),
        trials=3,
        seed=5,
        size=6,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSpecValidation:
    def test_network_spec_parsing(self):
        assert _parse_network_spec("crossbar") is None
        assert _parse_network_spec("mlp:16,8,4") == (16, 8, 4)
        with pytest.raises(ConfigError):
            _parse_network_spec("mlp:16")
        with pytest.raises(ConfigError):
            _parse_network_spec("mlp:a,b")
        with pytest.raises(ConfigError):
            _parse_network_spec("resnet50")

    def test_line_modes_rejected_for_mlp(self):
        with pytest.raises(ConfigError):
            _tiny_spec(networks=("mlp:8,4",),
                       fault_modes=("line_open",))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            _tiny_spec(trials=0)
        with pytest.raises(ConfigError):
            _tiny_spec(fault_rates=())
        with pytest.raises(ConfigError):
            _tiny_spec(fault_modes=("meteor",))
        with pytest.raises(ConfigError):
            _tiny_spec(fault_rates=(-0.1,))
        with pytest.raises(Exception):
            _tiny_spec(device="UNOBTAINIUM")


class TestReproducibility:
    def test_two_serial_runs_byte_identical(self):
        spec = _tiny_spec()
        assert run_campaign(spec).to_json() == run_campaign(spec).to_json()

    def test_parallel_matches_serial(self):
        spec = _tiny_spec(networks=("crossbar", "mlp:12,6,4"),
                          fault_modes=("stuck_mixed", "drift"),
                          fault_rates=(0.0, 0.05))
        serial = run_campaign(spec)
        parallel = run_campaign(spec, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_different_seeds_differ(self):
        faulty = dict(fault_rates=(0.2,))
        a = run_campaign(_tiny_spec(seed=1, **faulty))
        b = run_campaign(_tiny_spec(seed=2, **faulty))
        assert a.to_json() != b.to_json()

    def test_json_is_valid_and_schema_stamped(self):
        result = run_campaign(_tiny_spec())
        payload = json.loads(result.to_json())
        assert payload["schema"] == "faults-campaign-v1"
        assert payload["spec"]["seed"] == 5
        assert len(payload["points"]) == 2


class TestCaching:
    def test_rerun_is_full_cache_hit(self, tmp_path):
        spec = _tiny_spec()
        cache = ResultCache(tmp_path)
        first = run_campaign(spec, cache=cache, metrics=RunMetrics())
        metrics = RunMetrics()
        second = run_campaign(spec, cache=cache, metrics=metrics)
        assert first.to_json() == second.to_json()
        counters = metrics.counters
        assert counters["jobs_total"] > 0
        assert counters["cache_hits"] == counters["jobs_total"]
        cache.close()


class TestAggregation:
    def test_zero_rate_point_is_clean(self):
        result = run_campaign(_tiny_spec(fault_rates=(0.0,)))
        (point,) = result.points
        assert point.failures == 0
        assert point.mean_fault_count == 0.0
        assert point.mean_error == pytest.approx(0.0, abs=1e-3)
        assert point.relative_accuracy == pytest.approx(1.0, abs=1e-3)

    def test_error_grows_with_fault_rate(self):
        result = run_campaign(_tiny_spec(
            fault_rates=(0.0, 0.3), trials=6, size=8,
        ))
        clean, faulty = result.points
        assert faulty.mean_fault_count > clean.mean_fault_count
        assert faulty.mean_error > clean.mean_error

    def test_failed_trials_counted_not_raised(self):
        # Aggressive open lines on a small array: some trials go
        # singular; the campaign must absorb them as failures.
        result = run_campaign(CampaignSpec(
            networks=("crossbar",), fault_modes=("line_open",),
            fault_rates=(0.6,), trials=8, seed=3, size=4,
        ))
        (point,) = result.points
        assert point.trials == 8
        assert 0 < point.failures <= 8
        if point.failures == 8:
            assert point.mean_error is None
            assert point.relative_accuracy is None

    def test_ci_fields_consistent(self):
        result = run_campaign(_tiny_spec(fault_rates=(0.1,), trials=5))
        (point,) = result.points
        assert isinstance(point, CurvePoint)
        assert point.std_error >= 0
        assert point.ci95 >= 0
        assert point.ci95 == pytest.approx(
            1.96 * point.std_error / np.sqrt(point.trials - point.failures)
        )


class TestMlpLevel:
    def test_mlp_curve_degrades_with_rate(self):
        result = run_campaign(CampaignSpec(
            networks=("mlp:16,8,4",), fault_modes=("open_cell",),
            fault_rates=(0.0, 0.3), trials=5, seed=8,
        ))
        clean, faulty = result.points
        assert clean.mean_error == pytest.approx(0.0, abs=1e-9)
        assert faulty.mean_error > 0
        assert faulty.failures == 0


class TestCli:
    def test_faults_table_and_output(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "campaign.json"
        args = [
            "faults", "--modes", "stuck_mixed", "--rates", "0", "0.1",
            "--trials", "2", "--seed", "4", "--size", "6",
            "--output", str(out_file),
        ]
        assert main(args) == 0
        table = capsys.readouterr().out
        assert "rel. accuracy" in table
        assert "stuck_mixed" in table
        first = out_file.read_bytes()
        assert main(args) == 0
        assert out_file.read_bytes() == first  # byte-reproducible

    def test_bad_mode_is_config_error_exit(self, capsys):
        from repro.cli import main

        code = main(["faults", "--modes", "gamma_ray", "--trials", "1"])
        assert code != 0


class TestBatchedParity:
    """Batched mask evaluation is byte-identical to the point-wise
    trial loop, including singular (failed) trials."""

    def test_batched_matches_pointwise_serial(self):
        from repro.runtime.pool import RunPolicy
        spec = _tiny_spec(networks=("crossbar", "mlp:12,6,4"),
                          fault_modes=("stuck_mixed", "open_cell"),
                          fault_rates=(0.0, 0.1))
        batched = run_campaign(spec)
        pointwise = run_campaign(
            spec, policy=RunPolicy(batch_within_chunk=False)
        )
        assert batched.to_json() == pointwise.to_json()

    def test_batched_matches_pointwise_parallel(self):
        from repro.runtime.pool import RunPolicy
        spec = _tiny_spec(fault_modes=("stuck_mixed", "drift"),
                          fault_rates=(0.05, 0.1))
        batched = run_campaign(spec, jobs=2)
        pointwise = run_campaign(
            spec, policy=RunPolicy(batch_within_chunk=False)
        )
        assert batched.to_json() == pointwise.to_json()

    def test_singular_trials_batched_identically(self):
        """line_open at high rate makes some systems singular; the
        mark-and-continue batch path must count the same failures."""
        from repro.runtime.pool import RunPolicy
        spec = _tiny_spec(fault_modes=("line_open",),
                          fault_rates=(0.3,), trials=8)
        batched = run_campaign(spec)
        pointwise = run_campaign(
            spec, policy=RunPolicy(batch_within_chunk=False)
        )
        assert batched.to_json() == pointwise.to_json()
        point = batched.points[0]
        assert point.failures > 0  # the scenario actually bites


class TestNonConvergedSolves:
    """A non-converged solve counts as a failed trial, exactly like a
    singular mask: its voltages never become an error number, in the
    result or in a cache row."""

    @pytest.mark.parametrize("batched", (True, False))
    def test_counted_as_failed_trials(self, tmp_path, monkeypatch,
                                      batched):
        newton = CrossbarNetwork._newton

        def stalled(self, *args, **kwargs):
            voltages, conductances, rounds, _ = newton(
                self, *args, **kwargs
            )
            return voltages, conductances, rounds, False

        monkeypatch.setattr(CrossbarNetwork, "_newton", stalled)
        with ResultCache(tmp_path) as cache:
            result = run_campaign(
                _tiny_spec(fault_rates=(0.1,)), cache=cache,
                policy=RunPolicy(batch_within_chunk=batched),
            )
            rows = cache._conn.execute(
                "SELECT value FROM results WHERE kind = 'faults-trial'"
            ).fetchall()
        (point,) = result.points
        assert point.failures == point.trials == 3
        assert point.mean_error is None
        assert len(rows) == 3
        for (value,) in rows:
            trial = json.loads(value)
            assert trial["failed"] is True
            assert trial["error"] is None
