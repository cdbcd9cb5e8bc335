"""SystemConfig: the one run description round-trips through JSON.

A run is *one* document:
``SystemConfig.from_dict(json.loads(json.dumps(cfg.as_dict()))) == cfg``
must hold for every combination of blocks, including per-server fault
plans and the FaultsConfig sub-config. Decoding is strict: a key no
``from_dict`` knows, or a value of the wrong JSON type, is an error,
never a silently kept default.
"""

import json
from dataclasses import replace

import pytest

from repro.cloud.config import CloudConfig
from repro.cloud.model import CloudGpuModel
from repro.faults.plan import (
    Blackout,
    ClientOutage,
    CostMisestimation,
    FaultPlan,
    RateSpike,
    TransferCorruption,
)
from repro.faults.policy import ResiliencePolicy
from repro.fleet import (
    AdmissionConfig,
    ChannelConfig,
    FaultsConfig,
    ObservabilityConfig,
    PlacementConfig,
    ServerSpec,
    SystemConfig,
    WorkloadConfig,
    blackout_fleet_scenario,
    capacity_scenario,
    contended_cloud_scenario,
    default_fleet,
    default_scenario,
    with_slo_telemetry,
)
from repro.obs.slo import SloConfig
from repro.serving.workload import ClientSpec


def _rich_plan() -> FaultPlan:
    return FaultPlan(
        seed=7,
        blackouts=(Blackout(1.0, 2.0),),
        spikes=(RateSpike(3.0, 4.0, 0.5),),
        corruption=TransferCorruption(probability=0.1, start=0.5, end=9.0),
        outages=(ClientOutage("client0", 2.0, 3.0),),
        misestimation=CostMisestimation(compute_scale=1.2, jitter=0.05),
        metadata={"scenario": "round-trip"},
    )


def _rich_config() -> SystemConfig:
    return SystemConfig(
        workload=WorkloadConfig(
            clients=(
                ClientSpec(name="client0", rate=2.0, deadline=1.5),
                ClientSpec(name="client1", process="burst", burst_size=3, period=2.0),
            ),
            horizon=12.0,
            seed=99,
        ),
        servers=(
            ServerSpec(name="edge0", bandwidth_steps=((0.0, 8.0), (5.0, 2.0))),
            ServerSpec(
                name="edge1",
                bandwidth_steps=((0.0, 4.0),),
                mobile_speedup=2.0,
                cloud_speedup=0.5,
                max_queue_depth=8,
                fault_plan=_rich_plan(),
                resilience=ResiliencePolicy(max_retries=1, transfer_timeout=0.25),
            ),
        ),
        scheme="PO",
        placement=PlacementConfig(
            policy="affinity", migration_backlog=6, migration_patience=1.0
        ),
        admission=AdmissionConfig(max_fleet_outstanding=40),
        faults=FaultsConfig(
            plan=FaultPlan(blackouts=(Blackout(2.0, 2.5),)),
            resilience=ResiliencePolicy(),
            compare_no_policy=True,
        ),
        observability=ObservabilityConfig(per_server_lanes=False, fleet_events=False),
    )


def test_rich_config_round_trips_through_json():
    for config in (
        _rich_config(),
        # a non-default bucket must survive even with telemetry off
        replace(_rich_config(), observability=ObservabilityConfig(telemetry_bucket=1.0)),
        with_slo_telemetry(contended_cloud_scenario(servers=2, clients=4)),
    ):
        wire = json.dumps(config.as_dict(), sort_keys=True)
        rebuilt = SystemConfig.from_dict(json.loads(wire))
        assert rebuilt == config
        # and the round-trip is a fixed point on the wire, too
        assert json.dumps(rebuilt.as_dict(), sort_keys=True) == wire


def test_default_observability_dump_keeps_its_bytes():
    assert ObservabilityConfig().as_dict() == {
        "per_server_lanes": True,
        "fleet_events": True,
    }


@pytest.mark.parametrize(
    ("cls", "data", "typo"),
    [
        (ServerSpec, {"name": "a", "max_queue_dept": 1}, "max_queue_dept"),
        (SystemConfig, {**default_fleet(servers=1, clients=1).as_dict(), "schem": "LO"},
         "schem"),
        (WorkloadConfig, {"clients": [{"name": "c"}], "horizn": 5.0}, "horizn"),
        (FaultsConfig, {"compare_no_polcy": True}, "compare_no_polcy"),
        (ObservabilityConfig, {"telemetry_buckt": 1.0}, "telemetry_buckt"),
        (CloudConfig, {"gpu": 4}, "gpu"),
        (CloudGpuModel, {"sped": 2.0}, "sped"),
        (FaultPlan, {"blackout": [[1.0, 2.0]]}, "blackout"),
        (ChannelConfig, {"ewma_alpa": 0.5}, "ewma_alpa"),
        (PlacementConfig, {"polcy": "eft"}, "polcy"),
        (AdmissionConfig, {"max_fleet_outstandng": 3}, "max_fleet_outstandng"),
        (ResiliencePolicy, {"max_retry": 1}, "max_retry"),
        (SloConfig, {"targt": 0.5}, "targt"),
        # a typo one level down, inside a client and inside a fault record
        (WorkloadConfig, {"clients": [{"name": "c", "rat": 2.0}]}, "rat"),
        (FaultPlan, {"corruption": {"probability": 0.1, "strt": 1.0}}, "strt"),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_from_dict_rejects_a_misspelled_key(cls, data, typo):
    with pytest.raises(ValueError, match=typo):
        cls.from_dict(data)


@pytest.mark.parametrize(
    ("cls", "data", "where"),
    [
        (ServerSpec, {"name": "a", "include_cloud": "false"}, "ServerSpec.include_cloud"),
        (ServerSpec, {"name": "a", "max_queue_depth": True}, "ServerSpec.max_queue_depth"),
        (
            WorkloadConfig,
            {"clients": [{"name": "c"}], "horizon": "60"},
            "WorkloadConfig.horizon",
        ),
        (FaultsConfig, {"compare_no_policy": 1}, "FaultsConfig.compare_no_policy"),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_from_dict_rejects_a_wrong_json_type(cls, data, where):
    with pytest.raises(ValueError, match=where):
        cls.from_dict(data)


def test_from_dict_takes_the_field_default_for_a_missing_key():
    assert ServerSpec.from_dict({"name": "a"}) == ServerSpec(name="a")


def test_builders_round_trip_and_are_json_safe():
    for config in (
        default_fleet(servers=3, clients=4, speedups=(1.0, 2.0)),
        capacity_scenario(servers=2, clients=4),
        default_scenario(clients=2, deadline=2.0),
        blackout_fleet_scenario(),
    ):
        wire = json.dumps(config.as_dict())  # raises if not JSON-safe
        assert SystemConfig.from_dict(json.loads(wire)) == config


def test_faults_config_collapses_the_old_knob_split():
    """Fleet-wide plan, policy and the comparison switch: one sub-config."""
    config = _rich_config()
    data = config.as_dict()["faults"]
    assert data["compare_no_policy"] is True
    assert data["plan"]["blackouts"] == [[2.0, 2.5]]
    assert data["resilience"]["max_retries"] == ResiliencePolicy().max_retries
    rebuilt = FaultsConfig.from_dict(json.loads(json.dumps(data)))
    assert rebuilt == config.faults


def test_per_server_overrides_win_over_fleet_wide_faults():
    config = _rich_config()
    edge0, edge1 = config.servers
    # edge0 has no overrides: the fleet-wide FaultsConfig applies
    assert config.fault_plan_for(edge0) is config.faults.plan
    assert config.resilience_for(edge0) is config.faults.resilience
    # edge1 carries its own plan/policy: the spec wins
    assert config.fault_plan_for(edge1) is edge1.fault_plan
    assert config.resilience_for(edge1) is edge1.resilience


def test_timeline_for_overlays_the_effective_plan():
    config = _rich_config()
    edge0, edge1 = config.servers
    # the fleet-wide blackout pins edge0's rate inside [2.0, 2.5)
    assert config.timeline_for(edge0).rate_at(2.2) < 1.0
    # edge1's own blackout window is [1.0, 2.0) instead
    assert config.timeline_for(edge1).rate_at(1.5) < 1.0
    assert config.timeline_for(edge1).rate_at(2.2) > 1.0


def test_without_resilience_strips_every_policy():
    bare = _rich_config().without_resilience()
    assert bare.faults.resilience is None
    assert bare.faults.compare_no_policy is False
    assert all(s.resilience is None for s in bare.servers)
    # fault plans stay: the baseline suffers the same faults, unprotected
    assert bare.faults.plan is not None
    assert bare.servers[1].fault_plan is not None


def test_default_scenario_is_one_quiet_gateway():
    config = default_scenario(clients=2, rate=1.0, horizon=10.0, deadline=2.0)
    assert config.scheme == "JPS"
    assert [c.name for c in config.workload.clients] == ["client0", "client1"]
    assert all(c.deadline == 2.0 and c.rate == 1.0 for c in config.workload.clients)
    (server,) = config.servers
    assert server.name == "gateway"
    # the uplink drops from 8 to 4 Mbps at mid-horizon
    assert server.bandwidth_steps == ((0.0, 8.0), (5.0, 4.0))
    assert config.faults is None
    # a single gateway keeps the unnamed standalone trace lanes
    assert config.observability.per_server_lanes is False
    assert config.observability.fleet_events is False


def test_validation_rejects_bad_configs():
    workload = WorkloadConfig(clients=(ClientSpec(name="c"),), horizon=5.0)
    with pytest.raises(ValueError, match="at least one server"):
        SystemConfig(workload=workload, servers=())
    with pytest.raises(ValueError, match="unique"):
        SystemConfig(
            workload=workload,
            servers=(ServerSpec(name="a"), ServerSpec(name="a")),
        )
    with pytest.raises(ValueError, match="scheme"):
        SystemConfig(workload=workload, servers=(ServerSpec(name="a"),), scheme="XX")
    with pytest.raises(ValueError, match="placement policy"):
        PlacementConfig(policy="random")
    with pytest.raises(ValueError):
        WorkloadConfig(clients=())
    with pytest.raises(ValueError):
        ServerSpec(name="")
