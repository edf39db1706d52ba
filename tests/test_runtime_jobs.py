"""Deterministic job identities: canonical serialization and keys."""

import pytest

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.nn.networks import jpeg_autoencoder, validation_mlp
from repro.runtime.jobs import (
    JobSpec,
    canonical,
    canonical_json,
    content_key,
    network_fingerprint,
)

# Regression pin: the cache key of the default configuration.  If this
# changes, every persisted cache entry silently invalidates — that must
# be a deliberate decision (bump SCHEMA_VERSION), never an accident.
# Last deliberate change: runtime-v3 (the circuit solver's results
# changed in their last bits with the move to chord-Newton).
DEFAULT_CONFIG_KEY = (
    "9f14947872ec4670a0716c1d1deedbf5c8f9f73822e30cf2184a261def023efd"
)


class TestCanonical:
    def test_dict_key_order_is_irrelevant(self):
        a = {"x": 1, "y": [1, 2], "z": {"b": 2, "a": 1}}
        b = {"z": {"a": 1, "b": 2}, "y": (1, 2), "x": 1}
        assert canonical_json(a) == canonical_json(b)

    def test_dataclasses_are_tagged_with_their_type(self):
        one = canonical(SimConfig())
        assert one["__type__"] == "SimConfig"

    def test_enum_reduces_to_value(self):
        assert canonical(SimConfig().cell_type) == "1T1R"

    def test_non_finite_floats_are_tagged(self):
        assert canonical(float("inf")) == {"__float__": "inf"}
        assert canonical(float("-inf")) == {"__float__": "-inf"}
        assert canonical(float("nan")) == {"__float__": "nan"}

    def test_non_finite_floats_do_not_collide_with_strings(self):
        # A genuine "nan" string must never share a key with float NaN.
        assert content_key(float("nan")) != content_key("nan")
        assert content_key(float("inf")) != content_key("inf")
        assert content_key(float("-inf")) != content_key("-inf")

    def test_nan_keys_are_stable(self):
        assert content_key(float("nan")) == content_key(float("nan"))

    def test_negative_zero_folds_into_zero(self):
        # -0.0 == 0.0, so equal configs must produce equal keys even
        # though JSON spells the two apart.
        assert canonical(-0.0) == 0.0
        assert content_key({"a": -0.0}) == content_key({"a": 0.0})
        assert canonical_json([-0.0]) == canonical_json([0.0])

    def test_mixed_type_dict_keys_do_not_crash(self):
        # sorted() over int-and-str keys raises TypeError; the sort
        # must run over stringified keys instead.
        key = content_key({1: "a", "2": "b"})
        assert key == content_key({"2": "b", 1: "a"})

    def test_numpy_scalars_reduce(self):
        np = pytest.importorskip("numpy")
        assert canonical(np.int64(3)) == 3
        assert canonical(np.float64(0.5)) == 0.5

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            canonical(object())


class TestConfigSerialization:
    """Satellite: deterministic SimConfig serialization (cache contract)."""

    def test_round_trip(self):
        config = SimConfig(
            crossbar_size=64, cell_type="0T1R", device_sigma=0.1,
            resistance_range=(1e3, 1e6), network_depth=3,
        )
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_key_order_is_sorted(self):
        keys = list(SimConfig().to_dict())
        assert keys == sorted(keys)

    def test_stable_hash_regression(self):
        assert content_key(SimConfig().to_dict()) == DEFAULT_CONFIG_KEY

    def test_distinct_configs_get_distinct_keys(self):
        a = content_key(SimConfig().to_dict())
        b = content_key(SimConfig(crossbar_size=64).to_dict())
        assert a != b

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"crossbar_size": 64, "warp_drive": 9})


class TestContentKey:
    def test_part_boundaries_matter(self):
        assert content_key("ab", "c") != content_key("a", "bc")

    def test_same_parts_same_key(self):
        assert content_key(1, "x", [2.5]) == content_key(1, "x", (2.5,))


class TestNetworkFingerprint:
    def test_stable_for_equal_topologies(self):
        assert network_fingerprint(validation_mlp()) == network_fingerprint(
            validation_mlp()
        )

    def test_differs_between_topologies(self):
        assert network_fingerprint(validation_mlp()) != network_fingerprint(
            jpeg_autoencoder()
        )


class TestJobSpec:
    def test_key_defaults_to_uncacheable(self):
        spec = JobSpec(kind="adhoc", payload=42)
        assert spec.key is None
