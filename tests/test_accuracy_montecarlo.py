"""Monte-Carlo accuracy simulation against the circuit solver."""

import numpy as np
import pytest

from repro.accuracy.interconnect import analog_error_rate
from repro.accuracy.montecarlo import (
    MonteCarloResult,
    bound_check,
    run_monte_carlo,
)
from repro.errors import ConfigError, SolverError
from repro.runtime.cache import ResultCache
from repro.runtime.pool import RunPolicy
from repro.spice.solver import CrossbarNetwork
from repro.tech import get_memristor_model

SEG_45NM = 0.25


@pytest.fixture(scope="module")
def device():
    return get_memristor_model("RRAM")


@pytest.fixture(scope="module")
def mc_result(device):
    rng = np.random.default_rng(99)
    return run_monte_carlo(device, size=16, segment_resistance=SEG_45NM,
                           rng=rng, trials=5)


class TestDistribution:
    def test_statistics_consistent(self, mc_result):
        assert 0 <= mc_result.mean_abs_error <= mc_result.max_abs_error
        assert mc_result.percentile(50) <= mc_result.percentile(99)
        assert mc_result.percentile(100) == pytest.approx(
            mc_result.max_abs_error
        )

    def test_reproducible_with_same_seed(self, device):
        a = run_monte_carlo(device, 8, SEG_45NM,
                            np.random.default_rng(7), trials=3)
        b = run_monte_carlo(device, 8, SEG_45NM,
                            np.random.default_rng(7), trials=3)
        assert np.array_equal(a.samples, b.samples)

    def test_full_input_mode_is_deterministic_worse(self, device):
        rng = np.random.default_rng(3)
        random_inputs = run_monte_carlo(
            device, 16, SEG_45NM, rng, trials=3, input_mode="random"
        )
        rng = np.random.default_rng(3)
        full_inputs = run_monte_carlo(
            device, 16, SEG_45NM, rng, trials=3, input_mode="full"
        )
        # Driving every row at full scale biases cells harder.
        assert full_inputs.mean_abs_error >= (
            random_inputs.mean_abs_error * 0.5
        )


class TestVariation:
    def test_variation_widens_the_distribution(self, device):
        base = run_monte_carlo(
            device, 16, SEG_45NM, np.random.default_rng(5), trials=4,
            sigma=0.0,
        )
        noisy = run_monte_carlo(
            device, 16, SEG_45NM, np.random.default_rng(5), trials=4,
            sigma=0.3,
        )
        assert noisy.max_abs_error > base.max_abs_error


class TestBoundCheck:
    def test_worst_case_model_dominates_random_samples(self, device,
                                                       mc_result):
        """The closed-form worst case must bound the Monte-Carlo
        distribution — the basic soundness of Sec. VI.C."""
        worst = abs(analog_error_rate(16, 16, SEG_45NM, device))
        assert bound_check(mc_result, worst, slack=2.0)

    def test_bound_check_rejects_negative_bound(self, mc_result):
        with pytest.raises(ConfigError):
            bound_check(mc_result, -0.1)

    def test_bound_check_fails_for_tiny_bound(self, mc_result):
        assert not bound_check(mc_result, 1e-9, slack=1.0)


class TestSeededProtocol:
    """Satellite: explicit seed threading for schedule-independence."""

    def test_fixed_seed_gives_identical_samples(self, device):
        a = run_monte_carlo(device, 8, SEG_45NM, seed=21, trials=4)
        b = run_monte_carlo(device, 8, SEG_45NM, seed=21, trials=4)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self, device):
        a = run_monte_carlo(device, 8, SEG_45NM, seed=21, trials=4)
        b = run_monte_carlo(device, 8, SEG_45NM, seed=22, trials=4)
        assert not np.array_equal(a.samples, b.samples)

    def test_parallel_matches_serial(self, device):
        serial = run_monte_carlo(device, 8, SEG_45NM, seed=5, trials=5)
        parallel = run_monte_carlo(device, 8, SEG_45NM, seed=5, trials=5,
                                   jobs=2)
        assert np.array_equal(serial.samples, parallel.samples)

    def test_parity_across_jobs_and_chunk_sizes(self, device):
        """Bit-identical statistics for jobs=0/2 and any chunk_size.

        The per-trial spawn key must be the only RNG source in the
        workers, so the execution schedule (worker count, chunking)
        can never leak into the sampled values.
        """
        from repro.runtime.pool import RunPolicy

        reference = run_monte_carlo(device, 8, SEG_45NM, seed=13,
                                    trials=6)
        for policy in (
            RunPolicy(jobs=2),
            RunPolicy(jobs=0),
            RunPolicy(jobs=2, chunk_size=1),
            RunPolicy(jobs=2, chunk_size=4),
            RunPolicy(jobs=0, chunk_size=5),
        ):
            run = run_monte_carlo(device, 8, SEG_45NM, seed=13,
                                  trials=6, policy=policy)
            assert np.array_equal(reference.samples, run.samples), (
                f"schedule leaked into samples under {policy}"
            )

    def test_trial_streams_are_independent(self, device):
        """Prefixes agree: trials 0..2 of a 3-trial run equal trials
        0..2 of a 5-trial run (per-trial spawn keys, not one stream)."""
        short = run_monte_carlo(device, 8, SEG_45NM, seed=9, trials=3)
        long = run_monte_carlo(device, 8, SEG_45NM, seed=9, trials=5)
        assert np.array_equal(short.samples,
                              long.samples[: len(short.samples)])


class TestValidation:
    def test_invalid_args(self, device):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            run_monte_carlo(device, 8, SEG_45NM, rng, trials=0)
        with pytest.raises(ConfigError):
            run_monte_carlo(device, 8, SEG_45NM, rng, input_mode="spiky")

    def test_rng_and_seed_are_mutually_exclusive(self, device):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            run_monte_carlo(device, 8, SEG_45NM, rng, seed=1)
        with pytest.raises(ConfigError):
            run_monte_carlo(device, 8, SEG_45NM)  # neither

    def test_parallel_requires_seed(self, device):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            run_monte_carlo(device, 8, SEG_45NM, rng, jobs=2)


class TestBatchedParity:
    """The batched trial worker is byte-identical to the point-wise
    path for every ``jobs`` setting (DESIGN.md S22)."""

    def _pointwise(self, device, **kwargs):
        from repro.runtime.pool import RunPolicy
        return run_monte_carlo(
            device, 16, SEG_45NM, seed=11, trials=6,
            policy=RunPolicy(batch_within_chunk=False), **kwargs,
        )

    def test_batched_matches_pointwise_serial(self, device):
        batched = run_monte_carlo(device, 16, SEG_45NM, seed=11,
                                  trials=6)
        assert np.array_equal(batched.samples,
                              self._pointwise(device).samples)

    def test_batched_matches_pointwise_parallel(self, device):
        batched = run_monte_carlo(device, 16, SEG_45NM, seed=11,
                                  trials=6, jobs=2)
        assert np.array_equal(batched.samples,
                              self._pointwise(device).samples)

    def test_multi_input_trials_fall_back_identically(self, device):
        """``inputs_per_trial > 1`` uses the per-trial solve_many path
        inside the batch worker's fallback — still byte-identical."""
        from repro.runtime.pool import RunPolicy
        batched = run_monte_carlo(device, 12, SEG_45NM, seed=13,
                                  trials=4, inputs_per_trial=3)
        pointwise = run_monte_carlo(
            device, 12, SEG_45NM, seed=13, trials=4, inputs_per_trial=3,
            policy=RunPolicy(batch_within_chunk=False),
        )
        assert np.array_equal(batched.samples, pointwise.samples)

    def test_full_input_mode_batched_identically(self, device):
        from repro.runtime.pool import RunPolicy
        batched = run_monte_carlo(device, 12, SEG_45NM, seed=17,
                                  trials=4, input_mode="full")
        pointwise = run_monte_carlo(
            device, 12, SEG_45NM, seed=17, trials=4, input_mode="full",
            policy=RunPolicy(batch_within_chunk=False),
        )
        assert np.array_equal(batched.samples, pointwise.samples)


def _stall_solver(monkeypatch):
    """Every circuit solve reports ``converged=False`` (same voltages)."""
    newton = CrossbarNetwork._newton

    def stalled(self, *args, **kwargs):
        voltages, conductances, rounds, _ = newton(self, *args, **kwargs)
        return voltages, conductances, rounds, False

    monkeypatch.setattr(CrossbarNetwork, "_newton", stalled)


class TestNonConvergedSolves:
    """A non-converged solve never becomes an error sample or a cache
    entry: the trial raises SolverError on every execution path."""

    @pytest.mark.parametrize("batched", (True, False))
    def test_seeded_trials_raise_and_cache_nothing(self, device, tmp_path,
                                                   monkeypatch, batched):
        _stall_solver(monkeypatch)
        with ResultCache(tmp_path) as cache:
            with pytest.raises(SolverError, match="did not converge"):
                run_monte_carlo(
                    device, 8, SEG_45NM, seed=3, trials=4, cache=cache,
                    policy=RunPolicy(batch_within_chunk=batched),
                )
            assert cache.stats().entries == 0

    def test_multi_input_trials_raise(self, device, monkeypatch):
        _stall_solver(monkeypatch)
        with pytest.raises(SolverError, match="did not converge"):
            run_monte_carlo(device, 8, SEG_45NM, seed=3, trials=2,
                            inputs_per_trial=3)

    def test_legacy_rng_protocol_raises(self, device, monkeypatch):
        _stall_solver(monkeypatch)
        with pytest.raises(SolverError, match="did not converge"):
            run_monte_carlo(device, 8, SEG_45NM,
                            rng=np.random.default_rng(1), trials=2)
