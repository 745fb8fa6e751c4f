"""The block-drawn seeded deployment against the one drawn attempt by attempt.

``scenario_io.seeded_deployment`` draws and screens a block of attempts at
a time; ``oracles.sequential_deployment`` draws each attempt with three
calls and checks it through ``build_topology``. Both must return the same
poses bit for bit, or fail with the same message, for any keys.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rendezsim import scenario_io, seeded_deployment
from rendezsim.model import planar_norm
from rendezsim.sim import AssumptionError

from oracles import sequential_deployment

# the reference scenario's keys; its first connected draw is the 315th
REFERENCE = dict(seed=23, count=6, center=(-5.0, -3.0), spread=1.1,
                 min_separation=0.65, sensing_radius=2.0,
                 workspace_radius=50.0)
REFERENCE_DRAWS = 315


def outcome(sampler, keys):
    """The poses' bits, or the AssumptionError's message."""
    try:
        states = sampler(**keys)
    except AssumptionError as exc:
        return str(exc)
    return [(s.id, s.position.tobytes(), s.heading.hex()) for s in states]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 12),
       center=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
       spread=st.floats(0.1, 5.0), min_separation=st.floats(0.0, 2.0),
       sensing_radius=st.floats(0.5, 4.0),
       workspace_radius=st.floats(2.0, 12.0),
       max_attempts=st.integers(1, 600))
@example(**REFERENCE, max_attempts=1000)
# the draw limit ends inside the second block, just before and on the
# first connected draw
@example(**REFERENCE, max_attempts=REFERENCE_DRAWS - 1)
@example(**REFERENCE, max_attempts=REFERENCE_DRAWS)
# min_separation = sensing_radius: every separated draw is disconnected
@example(seed=3, count=2, center=(-6.0, -1.0), spread=1.5,
         min_separation=2.0, sensing_radius=2.0, workspace_radius=30.0,
         max_attempts=1000)
def test_block_draws_match_sequential_draws(**keys):
    assert outcome(seeded_deployment, keys) == outcome(
        sequential_deployment, keys)


def test_reference_limits_end_inside_the_second_block():
    # the examples above stop a run mid-block, one draw before and on the
    # first connected draw, only while this holds
    per_block = scenario_io._DRAW_BLOCK // 15  # the reference's 15 pairs
    assert per_block < REFERENCE_DRAWS - 1 < REFERENCE_DRAWS < 2 * per_block
    with pytest.raises(AssumptionError):
        sequential_deployment(**REFERENCE, max_attempts=REFERENCE_DRAWS - 1)
    sequential_deployment(**REFERENCE, max_attempts=REFERENCE_DRAWS)


def test_rim_draw_is_rejected_by_both_samplers():
    # seed 20's first one-robot draw p lies on the rim of a workspace of
    # radius np.hypot(p) and an ulp inside it by sqrt(x*x + y*y): both
    # samplers reject it by the one workspace test, and agree on the next
    keys = dict(seed=20, count=1, center=(0.0, 0.0), spread=1.0,
                min_separation=0.0, sensing_radius=1.0)
    first = sequential_deployment(**keys, workspace_radius=math.inf,
                                  max_attempts=1)[0].position
    rim = float(np.hypot(*first))
    assert planar_norm(first) < rim
    keys["workspace_radius"] = rim
    drawn = outcome(seeded_deployment, keys)
    assert drawn == outcome(sequential_deployment, keys)
    assert drawn[0][1] != first.tobytes()
