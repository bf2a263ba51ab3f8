"""Properties of every run over small random specs and seeds, drawn by hypothesis.

hypothesis is not a declared dependency, so the module is skipped without it.
Examples are derandomized, so a run of the suite draws the same ones each time.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from pinkey import NetworkSpec, replay_key
from pinkey.cli import Scenario, run_scenario
from pinkey.errors import InvariantViolation
from pinkey.oracles import verify_independence


@st.composite
def scenarios(draw) -> Scenario:
    """A scenario of 2 to 5 terminals and budgets of 0 to 4 bits: a star for broadcast, any
    network for subgroup and group."""
    m = draw(st.integers(2, 5))
    protocol = draw(st.sampled_from(("broadcast", "subgroup", "group")))
    pairs = [(0, j) for j in range(1, m)] if protocol == "broadcast" else [
        (i, j) for i in range(m) for j in range(i + 1, m)]
    spec = NetworkSpec(m, {pair: draw(st.integers(0, 4)) for pair in pairs})
    seed = draw(st.integers(0, 2**64 - 1))
    if protocol == "subgroup":
        s, t = draw(st.permutations(range(m)))[:2]
        return Scenario(spec, protocol, seed=seed, s=s, t=t)
    if protocol == "group":
        return Scenario(spec, protocol, seed=seed, tie_break=draw(st.sampled_from(("lex-kruskal", "degree-min"))))
    return Scenario(spec, protocol, seed=seed)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(scenarios())
def test_every_run_is_deterministic_replayable_secret_and_within_its_bound(scenario):
    report, result = run_scenario(scenario)
    # a rerun on a fresh store gives the same bytes
    again, rerun = run_scenario(scenario)
    assert again.to_text() == report.to_text()
    assert rerun.transcript.to_text() == result.transcript.to_text()
    for holder in result.holders:
        assert replay_key(result, holder) == result.key
    assert verify_independence(result.key_forms, result.transcript.forms(), result.basis).leaked_bits == 0
    # every run of at most 9 terminals carries its bound; broadcast and subgroup meet it
    assert len(result.key_ids) <= result.bound
    if scenario.protocol != "group":
        assert len(result.key_ids) == result.bound
    # a terminal short of the key cannot be made a holder; one that learns it all can
    for terminal in range(scenario.spec.m + 1):
        if replay_key(result, terminal) is None:
            with pytest.raises(InvariantViolation, match=f"holder {terminal} cannot replay the key"):
                replace(result, holders=result.holders | {terminal})
        else:
            assert replace(result, holders=result.holders | {terminal}).holders >= result.holders
