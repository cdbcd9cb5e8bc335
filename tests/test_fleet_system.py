"""run_system end to end: capacity, golden compat, placement, admission.

The two locks that matter most:

* **capacity acceptance** — the ROADMAP's capacity-bound scenario
  (32 deadline-bound clients saturating one mobile CPU) must serve
  strictly more within deadline on a 4-server fleet than on a single
  gateway, over the *identical* seeded arrival stream, with zero
  accounting/clock violations. The counts are pinned: per-server
  dispatch is byte-for-byte the single-gateway code, so any drift here
  is a real behavior change, not noise.
* **golden compat** — ``tests/data/golden_system_compat.json`` was
  captured from the pre-fleet single-gateway implementation. Its
  ``scenario`` document is :func:`default_scenario` served under JPS, LO
  and CO through one shared planner; its ``fault`` document is
  :func:`blackout_fleet_scenario` with the no-policy comparison. Every
  subtree must equal, as serialized bytes, the ``run_system`` value it
  came from, and the config echoes must match the ``SystemConfig`` that
  was run, field by field.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.plans import json_safe
from repro.engine import PlanningEngine
from repro.faults.plan import Blackout, FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.fleet import (
    AdmissionConfig,
    FleetGateway,
    PlacementConfig,
    ServerSpec,
    SystemConfig,
    WorkloadConfig,
    blackout_fleet_scenario,
    capacity_scenario,
    default_fleet,
    default_scenario,
    run_system,
)
from repro.serving.gateway import Gateway
from repro.serving.workload import ClientSpec, generate_requests

GOLDEN = Path(__file__).parent / "data" / "golden_system_compat.json"

#: The schemes of the golden ``scenario`` document, in run order (the
#: shared planner's cache gauges depend on it).
GOLDEN_SCHEMES = ("JPS", "LO", "CO")

#: The keys of one side's audit block in the golden ``fault`` document.
AUDIT_KEYS = ("report", "completed", "within_deadline", "events", "violations")


def _bytes(value) -> str:
    return json.dumps(json_safe(value), sort_keys=True)


def _only_server(report) -> dict:
    (block,) = report.servers.values()
    return block


# ----------------------------------------------------------------------
# capacity acceptance: the fleet breaks the single-CPU ceiling
# ----------------------------------------------------------------------


def test_fleet_serves_strictly_more_than_single_gateway_under_overload():
    planner = PlanningEngine()
    single = run_system(capacity_scenario(servers=1), planner=planner)
    fleet = run_system(capacity_scenario(servers=4), planner=planner)

    # identical arrival stream: workload generation never sees the fleet
    assert single.arrivals == fleet.arrivals == 801

    # zero invariant violations on both sides
    assert single.violations == () and single.clock_violations == ()
    assert fleet.violations == () and fleet.clock_violations == ()

    # the acceptance criterion: strictly more served within deadline
    assert fleet.within_deadline > single.within_deadline
    assert fleet.served > single.served

    # pinned counts: per-server dispatch is the single-gateway code, so
    # these only move when behavior actually changes
    assert (single.served, single.within_deadline) == (73, 22)
    assert (fleet.served, fleet.within_deadline) == (286, 104)


def test_single_server_fleet_is_exactly_one_gateway():
    """N=1 run_system equals a standalone gateway, field for field."""
    config = default_scenario(clients=2, rate=1.0, horizon=12.0, deadline=2.0)
    (spec,) = config.servers
    workload = config.workload
    requests = generate_requests(list(workload.clients), workload.horizon, workload.seed)
    gateway = Gateway(config.timeline_for(spec), planner=PlanningEngine(), scheme="JPS")
    standalone = gateway.report(gateway.run(requests))
    report = run_system(config)
    assert _bytes(report.servers["gateway"]["report"]) == _bytes(standalone)


# ----------------------------------------------------------------------
# golden compat: run_system reproduces the pre-fleet bytes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_scenario():
    config = default_scenario(clients=2, rate=1.5, horizon=24.0, deadline=2.0)
    planner = PlanningEngine()
    reports = {
        scheme: run_system(replace(config, scheme=scheme), planner=planner)
        for scheme in GOLDEN_SCHEMES
    }
    return config, reports


@pytest.fixture(scope="module")
def golden_fault():
    config = blackout_fleet_scenario(clients=2, rate=2.0, horizon=16.0)
    config = replace(config, faults=replace(config.faults, compare_no_policy=True))
    return config, run_system(config)


def _config_echo(config: SystemConfig, schemes: tuple[str, ...]) -> dict:
    """Where each key of a golden config echo lives in a SystemConfig."""
    (server,) = config.servers
    echo = {
        "clients": config.workload.as_dict()["clients"],
        "bandwidth_steps": server.as_dict()["bandwidth_steps"],
        "horizon": config.workload.horizon,
        "schemes": list(schemes),
        "seed": config.workload.seed,
        "max_queue_depth": server.max_queue_depth,
        "nominal_burst": server.nominal_burst,
        "include_cloud": server.include_cloud,
        "ewma_alpha": config.channel.ewma_alpha,
        "drift_threshold": config.channel.drift_threshold,
    }
    if config.faults is not None:
        echo["fault_plan"] = config.faults.plan.as_dict()
        echo["resilience"] = config.faults.resilience.as_dict()
    return echo


def _audit_block(report) -> dict:
    """One side of the golden ``fault`` document, from a SystemReport."""
    block = _only_server(report)
    return {
        **{key: block[key] for key in AUDIT_KEYS},
        "clock_violations": list(report.clock_violations),
    }


def test_golden_scenario_gateway_reports_match(golden, golden_scenario):
    config, reports = golden_scenario
    expected = golden["scenario"]
    assert list(expected["schemes"]) == sorted(GOLDEN_SCHEMES)
    for scheme, report in reports.items():
        assert report.config == replace(config, scheme=scheme).as_dict()
        assert _bytes(expected["schemes"][scheme]) == _bytes(
            report.servers["gateway"]["report"]
        ), scheme
        assert _bytes(expected["arrivals"]) == _bytes(report.arrivals)
        assert _bytes(expected["offered_load_rps"]) == _bytes(report.offered_load_rps)


def test_golden_fault_audit_blocks_match(golden, golden_fault):
    config, report = golden_fault
    expected = golden["fault"]
    assert report.config == config.as_dict()
    for side, outcome in (("policy", report), ("no_policy", report.baseline)):
        assert set(expected[side]) == {*AUDIT_KEYS, "clock_violations"}
        produced = _audit_block(outcome)
        for key, value in expected[side].items():
            assert _bytes(value) == _bytes(produced[key]), (side, key)
    assert _bytes(expected["comparison"]) == _bytes(report.comparison)
    assert _bytes(expected["arrivals"]) == _bytes(report.arrivals)


def test_golden_config_echoes_match_the_configs_run(golden, golden_scenario, golden_fault):
    for expected, config, schemes in (
        (golden["scenario"]["config"], golden_scenario[0], GOLDEN_SCHEMES),
        (golden["fault"]["config"], golden_fault[0], ("JPS",)),
    ):
        echo = _config_echo(config, schemes)
        assert set(expected) == set(echo)
        for key, value in expected.items():
            assert _bytes(value) == _bytes(echo[key]), key


def test_golden_compat_file_is_reassembled_byte_for_byte(golden_scenario, golden_fault):
    """No golden key is left unchecked: the whole file, rebuilt."""
    scenario_config, reports = golden_scenario
    fault_config, fault = golden_fault
    jps = reports["JPS"]
    document = {
        "scenario": {
            "config": _config_echo(scenario_config, GOLDEN_SCHEMES),
            "arrivals": jps.arrivals,
            "offered_load_rps": jps.offered_load_rps,
            "schemes": {
                scheme: report.servers["gateway"]["report"]
                for scheme, report in reports.items()
            },
        },
        "fault": {
            "config": _config_echo(fault_config, ("JPS",)),
            "arrivals": fault.arrivals,
            "policy": _audit_block(fault),
            "no_policy": _audit_block(fault.baseline),
            "comparison": fault.comparison,
        },
    }
    produced = json.dumps(json_safe(document), indent=2, sort_keys=True)
    assert produced == GOLDEN.read_text().rstrip("\n")


# ----------------------------------------------------------------------
# placement and migration
# ----------------------------------------------------------------------


def _clients(n: int, rate: float, deadline: float | None = None):
    return tuple(
        ClientSpec(name=f"c{i}", rate=rate, deadline=deadline) for i in range(n)
    )


def test_affinity_migrates_off_a_sustained_overloaded_server():
    config = SystemConfig(
        workload=WorkloadConfig(clients=_clients(6, 2.0), horizon=10.0),
        servers=(
            ServerSpec(name="slow", mobile_speedup=0.25),
            ServerSpec(name="fast", mobile_speedup=2.0),
        ),
        placement=PlacementConfig(
            policy="affinity", migration_backlog=3, migration_patience=0.5
        ),
    )
    report = run_system(config)
    migrations = report.fleet["placement"]["migrations"]
    assert migrations, "sustained overload on the slow server must migrate clients"
    assert {m["reason"] for m in migrations} == {"overload"}
    # at this load both servers back up at times, but the slow server
    # must shed toward the fast one at least once
    assert any(m["from"] == "slow" and m["to"] == "fast" for m in migrations)
    assert report.violations == () and report.clock_violations == ()


def test_affinity_migrates_off_a_degraded_uplink():
    policy = ResiliencePolicy(
        max_retries=1,
        transfer_timeout=0.25,
        degrade_after_failures=2,
        probe_interval=0.25,
        probe_bytes=16 * 1024.0,
    )
    config = SystemConfig(
        workload=WorkloadConfig(clients=_clients(4, 2.0, deadline=1.0), horizon=12.0),
        servers=(
            ServerSpec(
                name="dark",
                fault_plan=FaultPlan(blackouts=(Blackout(2.0, 8.0),)),
                resilience=policy,
            ),
            ServerSpec(name="healthy"),
        ),
        placement=PlacementConfig(policy="affinity", migrate_on_degraded=True),
    )
    report = run_system(config)
    migrations = report.fleet["placement"]["migrations"]
    assert migrations, "a degraded server must shed its bound clients"
    assert {m["reason"] for m in migrations} == {"degraded"}
    assert all(m["from"] == "dark" for m in migrations)
    assert report.violations == ()


def test_eft_placement_prices_through_the_shared_planner():
    planner = PlanningEngine()
    config = default_fleet(servers=3, clients=9, rate=2.0, horizon=6.0,
                           placement="eft")
    report = run_system(config, planner=planner)
    arrivals = report.fleet["placement"]["per_server_arrivals"]
    # eft balances: every server takes a nontrivial share of the stream
    assert set(arrivals) == {"server0", "server1", "server2"}
    assert all(count > 0 for count in arrivals.values())
    assert report.violations == ()
    # the scorer's priced_table calls hit the planner's warm caches
    assert planner.stats_snapshot()["totals"]["hits"] > 0


def test_fleet_admission_rejects_and_still_tiles():
    config = replace(
        default_fleet(servers=2, clients=8, rate=3.0, horizon=6.0),
        admission=AdmissionConfig(max_fleet_outstanding=4),
    )
    report = run_system(config)
    fleet = report.fleet
    assert fleet["rejected_fleet"] > 0
    # exact accounting: server sums + fleet rejects tile the arrivals
    assert fleet["arrived_servers"] + fleet["rejected_fleet"] == fleet["arrivals"]
    assert report.violations == () and report.clock_violations == ()


def test_heterogeneous_servers_get_scaled_planners():
    config = default_fleet(servers=2, clients=2, rate=0.5, horizon=4.0,
                           speedups=(1.0, 2.0))
    planner = PlanningEngine()
    fleet = FleetGateway(config, planner=planner)
    assert fleet.servers["server0"].planner is planner
    fast = fleet.servers["server1"].planner
    assert fast is not planner
    assert fast.mobile.default_throughput == planner.mobile.default_throughput * 2.0


def test_compare_no_policy_attaches_baseline_and_comparison():
    from repro.fleet import FaultsConfig

    config = SystemConfig(
        workload=WorkloadConfig(clients=_clients(2, 1.5, deadline=1.0), horizon=10.0),
        servers=(ServerSpec(name="gateway"),),
        faults=FaultsConfig(
            plan=FaultPlan(blackouts=(Blackout(3.0, 5.0),)),
            resilience=ResiliencePolicy(
                max_retries=1, transfer_timeout=0.25, degrade_after_failures=2,
                probe_interval=0.25, probe_bytes=16 * 1024.0,
            ),
            compare_no_policy=True,
        ),
    )
    report = run_system(config)
    assert report.baseline is not None
    assert report.baseline.baseline is None  # no recursion
    comparison = report.comparison
    assert comparison["within_deadline_policy"] == report.within_deadline
    assert comparison["within_deadline_no_policy"] == report.baseline.within_deadline
    assert comparison["degradations"] >= 1
    assert report.ok and report.baseline.ok
    # the as_dict document embeds the baseline and survives JSON
    document = json.loads(json.dumps(report.as_dict()))
    assert document["baseline"]["fleet"]["within_deadline"] == (
        comparison["within_deadline_no_policy"]
    )
