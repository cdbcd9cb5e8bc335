"""Property suite: fleet accounting tiles exactly for *every* topology.

Hypothesis drives randomized fleets — server count, heterogeneity,
placement policy, admission limit, per-link fault plans — through a
small ``run_system`` call and asserts the federation's load-bearing
guarantee: the per-server outcome sums (served + degraded + dropped +
pending), plus fleet-level admission rejects, tile the fleet arrival
count exactly. No request is lost or double-counted by placement,
migration, or admission, under any fault plan on any uplink. Each drawn
config also survives the JSON wire unchanged.
"""

import json
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import PlanningEngine
from repro.faults.plan import Blackout, FaultPlan, RateSpike
from repro.fleet import (
    PLACEMENT_POLICIES,
    AdmissionConfig,
    PlacementConfig,
    ServerSpec,
    SystemConfig,
    WorkloadConfig,
    fleet_accounting_violations,
    run_system,
)
from repro.serving.workload import ClientSpec

# one warm planner across examples: structure caches make the suite fast
PLANNER = PlanningEngine()


@st.composite
def fleet_configs(draw) -> SystemConfig:
    n_servers = draw(st.integers(1, 4))
    servers = []
    for index in range(n_servers):
        plan = None
        if draw(st.booleans()):
            start = draw(st.floats(0.0, 2.0))
            if draw(st.booleans()):
                plan = FaultPlan(blackouts=(Blackout(start, start + 1.5),))
            else:
                plan = FaultPlan(spikes=(RateSpike(start, start + 1.5, 0.25),))
        servers.append(
            ServerSpec(
                name=f"s{index}",
                mobile_speedup=draw(st.sampled_from([0.5, 1.0, 2.0])),
                max_queue_depth=draw(st.sampled_from([2, 8, 64])),
                fault_plan=plan,
            )
        )
    clients = tuple(
        ClientSpec(
            name=f"c{i}",
            rate=draw(st.sampled_from([0.5, 1.5, 3.0])),
            deadline=draw(st.sampled_from([None, 1.0])),
        )
        for i in range(draw(st.integers(1, 6)))
    )
    return SystemConfig(
        workload=WorkloadConfig(
            clients=clients,
            horizon=4.0,
            seed=draw(st.integers(0, 2**31 - 1)),
        ),
        servers=tuple(servers),
        placement=PlacementConfig(
            policy=draw(st.sampled_from(PLACEMENT_POLICIES)),
            migration_backlog=draw(st.sampled_from([2, None])),
            migration_patience=0.5,
        ),
        admission=AdmissionConfig(
            max_fleet_outstanding=draw(st.sampled_from([None, 3, 16]))
        ),
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=fleet_configs())
def test_server_outcomes_tile_fleet_arrivals(config):
    # the drawn config survives the JSON wire, and the wire is a fixed point
    wire = json.dumps(config.as_dict(), sort_keys=True)
    rebuilt = SystemConfig.from_dict(json.loads(wire))
    assert rebuilt == config
    assert json.dumps(rebuilt.as_dict(), sort_keys=True) == wire

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # new API never warns
        report = run_system(config, planner=PLANNER)
    document = report.as_dict()
    assert fleet_accounting_violations(document) == []
    assert report.violations == () and report.clock_violations == ()

    fleet = report.fleet
    outcome_sum = 0
    arrived_sum = 0
    for block in report.servers.values():
        counters = block["report"]["counters"]
        arrived_sum += counters.get("arrived", 0)
        outcome_sum += (
            counters.get("served", 0)
            + counters.get("degraded", 0)
            + counters.get("dropped", 0)
            + block["report"]["pending"]
        )
    assert arrived_sum + fleet["rejected_fleet"] == fleet["arrivals"]
    assert outcome_sum + fleet["rejected_fleet"] == fleet["arrivals"]
    # placement saw exactly the admitted requests
    assert sum(fleet["placement"]["per_server_arrivals"].values()) == arrived_sum
