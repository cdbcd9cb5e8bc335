"""Regenerate ``reference_plans.json``: each benchmarked zoo model's plan.

Every run checks its reference and cold plans (n=100, 10 Mbps) against
this file before timing anything. Regenerate it only when a change is
meant to alter plans, and say so in the change::

    PYTHONHASHSEED=0 python3 perfbench/make_reference.py

The hash seed is pinned because the frontier models' makespans move by
one ULP across hash seeds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from repro.api import as_channel  # noqa: E402
from repro.engine import PlanningEngine  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    COLD_MBPS,
    PLAN_N,
    REFERENCE_PATH,
    ZOO_MODELS,
    plan_signature,
)


def main() -> None:
    engine = PlanningEngine()
    reference = {
        model: plan_signature(engine.plan(model, PLAN_N, as_channel(COLD_MBPS)))
        for model in ZOO_MODELS
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
