"""Counterexamples to the paper's claims, one committed scenario each.

Each file in ``scenarios/counterexamples/`` is a seeded 48-robot deployment
on which a strict run stops at a monitor event: the collision claim fails
on seeds 1-3 and the connectivity claim on seed 5 (see each file's header).
The tests expect that failure, so each one fails as an unexpected pass as
soon as the controllers keep the claims on its scenario.

The same runs at half and a quarter of the committed 5 ms step stop at the
same kind of event on the same pair, at about the same time: the failures
are the controllers', not the discretisation's. Those eight runs add about
2.2 s to tier-1 on a 2-core VM.
"""

import dataclasses
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

# (deployment seed, step divisor) -> the step of a strict run's first
# monitor event at time step 5 ms / divisor, and the event (at divisor 1:
# steps 533, 190, 1206 and 1482)
FINER_FIRST_EVENT = {
    (1, 2): (1065, "collision: pair (21,27) at d=0.049451"),
    (1, 4): (2130, "collision: pair (21,27) at d=0.049623"),
    (2, 2): (380, "collision: pair (11,23) at d=0.048511"),
    (2, 4): (759, "collision: pair (11,23) at d=0.049423"),
    (3, 2): (2392, "collision: pair (31,36) at d=0.049314"),
    (3, 4): (4780, "collision: pair (31,36) at d=0.049434"),
    (5, 2): (2961, "connectivity: edge (1,27) at d=2.000790"),
    (5, 4): (5920, "connectivity: edge (1,27) at d=2.000080"),
}


def strict_run(seed, divisor=1):
    cfg = parse_scenario(os.path.join(COUNTEREXAMPLES,
                                      f"sparse48_seed{seed}.scn"))
    run(dataclasses.replace(cfg, time_step=cfg.time_step / divisor),
        strict=True)


@pytest.mark.parametrize("seed", [
    pytest.param(seed, id=f"sparse48_seed{seed}", marks=pytest.mark.xfail(
        strict=True, raises=MonitorViolation, reason=event))
    for seed, event in FIRST_EVENT.items()])
def test_strict_run_keeps_the_claims(seed):
    strict_run(seed)


@pytest.mark.parametrize("seed, divisor", [
    pytest.param(seed, divisor, id=f"sparse48_seed{seed}-dt_over_{divisor}",
                 marks=pytest.mark.xfail(
                     strict=True, raises=MonitorViolation,
                     reason=f"step {step}: {event}"))
    for (seed, divisor), (step, event) in FINER_FIRST_EVENT.items()])
def test_strict_run_at_a_finer_step_keeps_the_claims(seed, divisor):
    strict_run(seed, divisor)
