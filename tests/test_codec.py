"""The config codec: wire rules on encode, strict types on decode.

Every run-config class takes ``as_dict`` / ``from_dict`` from
:class:`repro.utils.codec.Codec`, so these tests pin the rules on the
real config classes rather than on toy dataclasses.
"""

import json

import pytest

from repro.faults.plan import Blackout, ClientOutage, FaultPlan, RateSpike
from repro.faults.policy import ResiliencePolicy
from repro.fleet import (
    ChannelConfig,
    ObservabilityConfig,
    PlacementConfig,
    ServerSpec,
    WorkloadConfig,
)
from repro.serving.workload import ClientSpec
from repro.utils.codec import decode, encode
from repro.utils.rng import DEFAULT_SEED


def _wire(obj) -> str:
    return json.dumps(obj.as_dict(), sort_keys=True)


def test_scalars_pass_through_uncoerced():
    workload = WorkloadConfig(clients=(ClientSpec(name="c"),), horizon=60)
    data = workload.as_dict()
    assert data["horizon"] == 60 and type(data["horizon"]) is int
    rebuilt = WorkloadConfig.from_dict(json.loads(json.dumps(data)))
    assert type(rebuilt.horizon) is int
    assert _wire(rebuilt) == _wire(workload)


def test_absent_sub_configs_are_omitted_but_absent_scalars_are_null():
    assert "fault_plan" not in ServerSpec(name="a").as_dict()
    assert "resilience" not in ServerSpec(name="a").as_dict()
    policy = ResiliencePolicy().as_dict()
    assert "probe_timeout" in policy and policy["probe_timeout"] is None
    assert PlacementConfig().as_dict()["migration_backlog"] is None


def test_empty_collections_with_empty_defaults_are_omitted():
    assert FaultPlan().as_dict() == {"seed": DEFAULT_SEED}
    assert "slos" not in ObservabilityConfig().as_dict()


def test_positional_records_encode_as_lists():
    plan = FaultPlan(
        blackouts=(Blackout(1.0, 2.0),),
        spikes=(RateSpike(3.0, 4.0, 0.5),),
        outages=(ClientOutage("client0", 2.0, 3.0),),
    )
    data = plan.as_dict()
    assert data["blackouts"] == [[1.0, 2.0]]
    assert data["spikes"] == [[3.0, 4.0, 0.5]]
    assert data["outages"] == [["client0", 2.0, 3.0]]
    assert encode(Blackout(1.0, 2.0)) == [1.0, 2.0]
    assert decode(Blackout, [1.0, 2.0]) == Blackout(1.0, 2.0)


def test_omit_default_fields_are_written_only_off_their_default():
    telemetry = ObservabilityConfig(telemetry=True)
    data = telemetry.as_dict()
    assert data["telemetry"] is True and "telemetry_bucket" not in data
    assert ObservabilityConfig.from_dict(data) == telemetry
    assert ObservabilityConfig(telemetry_bucket=1.0).as_dict()["telemetry_bucket"] == 1.0


def test_a_float_field_accepts_an_int_and_keeps_it():
    channel = ChannelConfig.from_dict({"header_bytes": 40})
    assert channel.header_bytes == 40 and type(channel.header_bytes) is int
    assert channel.as_dict()["header_bytes"] == 40


@pytest.mark.parametrize(
    ("cls", "data", "message"),
    [
        (ChannelConfig, {"ewma_alpha": None}, "ChannelConfig.ewma_alpha must be float"),
        (ChannelConfig, {"ewma_alpha": True}, "ChannelConfig.ewma_alpha must be float"),
        (PlacementConfig, {"policy": 1}, "PlacementConfig.policy must be str"),
        (PlacementConfig, {"migration_backlog": 2.5}, "PlacementConfig.migration_backlog"),
        (ServerSpec, {"name": "a", "bandwidth_steps": [[0.0]]}, "ServerSpec.bandwidth_steps"),
        (ServerSpec, {"name": "a", "bandwidth_steps": 8.0}, "ServerSpec.bandwidth_steps"),
        (
            WorkloadConfig,
            {"clients": [{"name": "c", "rate": "fast"}]},
            "ClientSpec.rate must be float",
        ),
        (FaultPlan, {"metadata": []}, "FaultPlan.metadata must be dict"),
        (FaultPlan, {"blackouts": [[1.0, 2.0, 3.0]]}, "Blackout must be a list of 2"),
        (FaultPlan, {"blackouts": [{"start": 1.0}]}, "Blackout must be a list of 2"),
        (ServerSpec, {}, "missing ServerSpec key"),
        (ServerSpec, [], "ServerSpec must be a JSON object"),
        # decoding still runs each class's own validation
        (ServerSpec, {"name": "a", "max_queue_depth": 0}, "max_queue_depth must be > 0"),
    ],
)
def test_decode_rejects_malformed_wire(cls, data, message):
    with pytest.raises(ValueError, match=message):
        cls.from_dict(data)
