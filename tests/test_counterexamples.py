"""Counterexamples to the paper's claims, one committed scenario each.

Each file in ``scenarios/counterexamples/`` is a seeded 48-robot deployment
on which a strict run stops at a monitor event: the collision claim fails
on seeds 1-3 and the connectivity claim on seed 5 (see each file's header).
The tests expect that failure, so each one fails as an unexpected pass as
soon as the controllers keep the claims on its scenario.
"""

import os

import pytest

from rendezsim import MonitorViolation, parse_scenario, run

COUNTEREXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir,
                               "scenarios", "counterexamples")

# deployment seed -> the first monitor event of a strict run
FIRST_EVENT = {
    1: "collision: pair (21,27) at d=0.047869",
    2: "collision: pair (11,23) at d=0.048798",
    3: "collision: pair (31,36) at d=0.041095",
    5: "connectivity: edge (1,27) at d=2.005459",
}


@pytest.mark.parametrize("seed", [
    pytest.param(seed, id=f"sparse48_seed{seed}", marks=pytest.mark.xfail(
        strict=True, raises=MonitorViolation, reason=event))
    for seed, event in FIRST_EVENT.items()])
def test_strict_run_keeps_the_claims(seed):
    run(parse_scenario(os.path.join(COUNTEREXAMPLES,
                                    f"sparse48_seed{seed}.scn")), strict=True)
