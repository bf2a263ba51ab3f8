"""Protocol runs: key lengths, message structure, replay, and transcripts."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest

from pinkey import (
    NetworkSpec,
    SpanningTree,
    Transcript,
    broadcast_bound,
    budget_graph,
    generate_pairwise_keys,
    group_bound,
    is_connected,
    min_st_cut_bruteforce,
    replay_key,
    run_broadcast,
    run_group_key,
    run_subgroup,
    single_bit_round,
    verify_independence,
)
from pinkey.errors import InsufficientKeyMaterial, InvariantViolation, NotAStar
from pinkey.protocols import PublicMessage, _self_check, bits_to_hex

from helpers import known_to, random_connected_spec, random_spec

TRIANGLE = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])

TRIANGLE_GROUP_TRANSCRIPT = """transcript v1
0 0 2 0 K0-1:0^K0-2:0
1 0 2 0 K0-1:1^K0-2:1
2 1 2 0 K0-1:2^K1-2:0
3 0 2 1 K0-1:3^K0-2:2
4 1 2 1 K0-1:4^K1-2:1
5 2 1 1 K0-2:3^K1-2:2
"""


def leak_report(result):
    return verify_independence(result.key_forms, result.transcript.forms(), result.basis)


def reference_replay(result, terminal):
    """Replay by textbook elimination over label sets, independent of the kernel.

    Equations are (labels, value) pairs: the terminal's own source bits,
    then every public payload bit.  Each stored row keeps its pivot label
    and is reduced against all earlier rows, so one pass in order reduces
    a new row completely.
    """
    basis = result.basis
    equations = [({label}, basis.value_of(label)) for label in known_to(basis, terminal)]
    equations += [(set(form.labels), bit)
                  for msg in result.transcript for form, bit in zip(msg.forms, msg.payload)]
    rows = []

    def reduce(labels, value):
        for pivot, row_labels, row_value in rows:
            if pivot in labels:
                labels = labels ^ row_labels
                value ^= row_value
        return labels, value

    for labels, value in equations:
        labels, value = reduce(labels, value)
        if labels:
            rows.append((min(labels), labels, value))
        else:
            assert value == 0, "inconsistent equations"
    out = []
    for form in result.key_forms:
        labels, value = reduce(set(form.labels), 0)
        if labels:
            return None
        out.append(value)
    return tuple(out)


def self_check(result):
    """The run self-check over a result's parts; raises InvariantViolation."""
    return _self_check(result.holders, result.key, result.key_ids, result.transcript, result.basis)


def flip_first_payload_bit(result):
    first, *rest = result.transcript
    flipped = replace(first, payload=(first.payload[0] ^ 1,) + first.payload[1:])
    return replace(result, transcript=Transcript([flipped, *rest]))


class TestBroadcast:
    def test_star_with_budgets_7_5_9(self):
        spec = NetworkSpec.star([7, 5, 9])
        store = generate_pairwise_keys(spec, 3)
        result = run_broadcast(store, spec)
        assert len(result.key) == 5
        assert result.key == generate_pairwise_keys(spec, 3).key_bits(0, 2)[:5]
        assert len(result.transcript) == 2
        assert result.transcript.public_bits == 10
        assert [m.receiver for m in result.transcript] == [1, 3]
        assert result.gap == 0 and result.bound == Fraction(5)
        assert result.holders == frozenset({0, 1, 2, 3})

    def test_two_terminals_need_no_messages(self):
        spec = NetworkSpec.star([5])
        store = generate_pairwise_keys(spec, 1)
        result = run_broadcast(store, spec)
        assert len(result.key) == 5
        assert len(result.transcript) == 0

    def test_zero_budget_leaf_degenerates_cleanly(self):
        spec = NetworkSpec.star([4, 0, 6])
        store = generate_pairwise_keys(spec, 1)
        result = run_broadcast(store, spec)
        assert result.key == ()
        assert len(result.transcript) == 0
        assert result.bound == 0 and result.gap == 0

    def test_non_star_rejected(self):
        store = generate_pairwise_keys(TRIANGLE, 1)
        with pytest.raises(NotAStar):
            run_broadcast(store, TRIANGLE)

    def test_every_terminal_replays_but_an_outsider_cannot(self):
        spec = NetworkSpec.star([7, 5, 9])
        store = generate_pairwise_keys(spec, 8)
        result = run_broadcast(store, spec)
        for terminal in range(4):
            assert replay_key(result, terminal) == result.key
        # an eavesdropper owns no source bits at all
        assert replay_key(result, 4) is None

    def test_replay_matches_the_reference_when_pads_go_unused(self):
        spec = NetworkSpec.star([9, 4, 30, 17, 4, 12])
        store = generate_pairwise_keys(spec, 21)
        result = run_broadcast(store, spec)
        assert sum(store.remaining(0, leaf) for leaf in range(1, spec.m)) == 52
        # every leaf and the center, plus an outsider with no bits
        for terminal in range(spec.m + 1):
            assert replay_key(result, terminal) == reference_replay(result, terminal)

    def test_messages_reveal_nothing(self):
        spec = NetworkSpec.star([3, 3, 3, 3, 3])
        store = generate_pairwise_keys(spec, 13)
        report = leak_report(run_broadcast(store, spec))
        assert report.leaked_bits == 0 and report.uniform


class TestSubgroup:
    def test_triangle_key_is_the_min_cut(self):
        store = generate_pairwise_keys(TRIANGLE, 5)
        result = run_subgroup(store, TRIANGLE, 0, 2, 5)
        assert len(result.key) == 7
        assert result.gap == 0
        assert result.transcript.public_bits == 10
        assert len(result.transcript) == 3
        assert result.holders == frozenset({0, 2})

    def test_rounds_advance_hop_by_hop(self):
        store = generate_pairwise_keys(TRIANGLE, 5)
        result = run_subgroup(store, TRIANGLE, 0, 2, 5)
        hops = [(m.round, m.sender, m.receiver, len(m.payload)) for m in result.transcript]
        assert hops == [(0, 0, 1, 3), (0, 0, 2, 4), (1, 1, 2, 3)]

    def test_terminals_replay_but_the_relay_cannot(self):
        store = generate_pairwise_keys(TRIANGLE, 5)
        result = run_subgroup(store, TRIANGLE, 0, 2, 5)
        assert replay_key(result, 0) == result.key
        assert replay_key(result, 2) == result.key
        # terminal 1 relays only 3 of the 7 bits
        assert replay_key(result, 1) is None

    def test_a_cut_vertex_relay_sees_the_whole_key(self):
        spec = NetworkSpec.from_pairs(3, [(0, 1, 4), (1, 2, 4)])
        result = run_subgroup(generate_pairwise_keys(spec, 3), spec, 0, 2, 3)
        assert replay_key(result, 1) == result.key == reference_replay(result, 1)

    def test_single_edge(self):
        spec = NetworkSpec(2, {(0, 1): 6})
        store = generate_pairwise_keys(spec, 2)
        result = run_subgroup(store, spec, 0, 1, 2)
        assert len(result.key) == 6
        assert len(result.transcript) == 1

    def test_disconnected_terminals_get_an_empty_key(self):
        spec = NetworkSpec(3, {(0, 1): 4})
        store = generate_pairwise_keys(spec, 2)
        result = run_subgroup(store, spec, 0, 2, 2)
        assert result.key == ()
        assert len(result.transcript) == 0
        assert result.bound == 0 and result.gap == 0

    def test_deterministic_per_seed(self):
        texts = set()
        for _ in range(2):
            store = generate_pairwise_keys(TRIANGLE, 5)
            texts.add(run_subgroup(store, TRIANGLE, 0, 2, 5).transcript.to_text())
        assert len(texts) == 1
        store = generate_pairwise_keys(TRIANGLE, 5)
        other = run_subgroup(store, TRIANGLE, 0, 2, 99)
        assert other.transcript.to_text() not in texts

    def test_matches_bruteforce_cut_on_random_graphs(self):
        rng = random.Random(701)
        for _ in range(30):
            spec = random_connected_spec(rng, max_m=5, max_budget=6)
            s, t = rng.sample(range(spec.m), 2)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            result = run_subgroup(store, spec, s, t, rng.randrange(2**32))
            assert len(result.key) == min_st_cut_bruteforce(budget_graph(spec), s, t).value
            report = leak_report(result)
            assert report.leaked_bits == 0 and report.uniform
            # holders, relays and bystanders, plus an outsider with no bits
            for terminal in range(spec.m + 1):
                assert replay_key(result, terminal) == reference_replay(result, terminal)


class TestSingleBitRound:
    def test_path_tree_sends_one_message(self):
        spec = NetworkSpec.from_pairs(3, [(0, 1, 2), (1, 2, 2)])
        store = generate_pairwise_keys(spec, 9)
        shared, messages = single_bit_round(SpanningTree(((0, 1), (1, 2))), store, spec)
        assert store.basis.label(shared) == "K0-1:0"
        assert len(messages) == 1
        msg = messages[0]
        assert (msg.sender, msg.receiver, msg.round) == (1, 2, 0)
        assert str(msg.forms[0]) == "K0-1:0^K1-2:0"

    def test_star_tree_center_relays_to_both(self):
        spec = NetworkSpec.star([1, 1, 1])
        store = generate_pairwise_keys(spec, 9)
        shared, messages = single_bit_round(SpanningTree(((0, 1), (0, 2), (0, 3))), store, spec)
        assert store.basis.label(shared) == "K0-1:0"
        assert [(m.sender, m.receiver) for m in messages] == [(0, 2), (0, 3)]
        assert [str(m.forms[0]) for m in messages] == ["K0-1:0^K0-2:0", "K0-1:0^K0-3:0"]

    def test_two_terminals_need_no_messages(self):
        spec = NetworkSpec(2, {(0, 1): 3})
        store = generate_pairwise_keys(spec, 9)
        shared, messages = single_bit_round(SpanningTree(((0, 1),)), store, spec)
        assert messages == []
        assert store.basis.label(shared) == "K0-1:0"

    def test_consumes_one_bit_per_tree_edge(self):
        spec = NetworkSpec.complete(4, 2)
        store = generate_pairwise_keys(spec, 9)
        tree = SpanningTree(((0, 1), (1, 2), (2, 3)))
        single_bit_round(tree, store, spec)
        for edge in tree.edges:
            assert store.remaining(*edge) == 1
        assert store.remaining(0, 2) == 2

    def test_depleted_edge_raises_before_consuming(self):
        spec = NetworkSpec.from_pairs(3, [(0, 1, 1), (1, 2, 2)])
        store = generate_pairwise_keys(spec, 9)
        tree = SpanningTree(((0, 1), (1, 2)))
        single_bit_round(tree, store, spec)
        with pytest.raises(InsufficientKeyMaterial):
            single_bit_round(tree, store, spec)
        assert store.remaining(1, 2) == 1

    def test_a_dry_hop_consumes_nothing_not_even_the_seed_edge(self):
        spec = NetworkSpec.from_pairs(4, [(0, 1, 2), (1, 2, 2), (2, 3, 1)])
        store = generate_pairwise_keys(spec, 9)
        tree = SpanningTree(((0, 1), (1, 2), (2, 3)))
        single_bit_round(tree, store, spec)
        with pytest.raises(InsufficientKeyMaterial, match=r"pair \(2, 3\)"):
            single_bit_round(tree, store, spec)
        assert [store.remaining(*edge) for edge in tree.edges] == [1, 1, 0]


class TestGroupKey:
    def test_triangle_runs_six_iterations(self):
        for policy in ("lex-kruskal", "degree-min"):
            store = generate_pairwise_keys(TRIANGLE, 7)
            result = run_group_key(store, TRIANGLE, policy)
            assert len(result.key) == 6
            assert result.bound == Fraction(6)
            assert result.gap == 0
            assert len(result.transcript) == 6  # one message per round at m=3

    def test_uniform_k4_star_trap_vs_degree_min(self):
        spec = NetworkSpec.complete(4, 1)
        store = generate_pairwise_keys(spec, 2)
        assert len(run_group_key(store, spec, "lex-kruskal").key) == 1
        store = generate_pairwise_keys(spec, 2)
        assert len(run_group_key(store, spec, "degree-min").key) == 2

    def test_pinned_star_tree_disconnects_after_one_round(self):
        # choosing the star tree first leaves node 0 isolated
        spec = NetworkSpec.complete(4, 1)
        store = generate_pairwise_keys(spec, 2)
        star = SpanningTree(((0, 1), (0, 2), (0, 3)))
        _, messages = single_bit_round(star, store, spec)
        assert len(messages) == 2
        g = budget_graph(spec)
        for i, j in star.edges:
            g.set_weight(i, j, g.weight(i, j) - 1)
        assert not is_connected(g)

    def test_even_complete_graphs_meet_the_bound(self):
        for m, u in [(4, 1), (4, 2), (5, 1)]:
            spec = NetworkSpec.complete(m, 2 * u)
            store = generate_pairwise_keys(spec, 1)
            result = run_group_key(store, spec)
            assert len(result.key) == m * u
            assert result.gap == 0

    def test_two_terminal_group_run_uses_the_whole_pair_key(self):
        spec = NetworkSpec(2, {(0, 1): 4})
        store = generate_pairwise_keys(spec, 6)
        result = run_group_key(store, spec)
        assert result.key == generate_pairwise_keys(spec, 6).key_bits(0, 1)
        assert len(result.transcript) == 0

    def test_disconnected_network_yields_nothing(self):
        spec = NetworkSpec(3, {(0, 1): 5})
        store = generate_pairwise_keys(spec, 6)
        result = run_group_key(store, spec)
        assert result.key == ()

    @pytest.mark.parametrize("policy,bits,digest", [
        ("lex-kruskal", 27, "05cf6471d78088743d0407d7549c939907781427f6483ce4a521168abe89be1a"),
        ("degree-min", 28, "e9641d3132612ad474cf3cca19b51c2eaa0719b86be2b8c974d471b2ea02f0af"),
    ])
    def test_tie_break_golden_digests(self, policy, bits, digest):
        # budgets 1..9 on K12 give many tied weights, so any drift in
        # either policy's tree choice changes the transcript
        rng = random.Random(4)
        spec = NetworkSpec(12, {(i, j): rng.randint(1, 9) for i in range(12) for j in range(i + 1, 12)})
        result = run_group_key(generate_pairwise_keys(spec, 5), spec, policy)
        assert len(result.key) == bits
        assert hashlib.sha256(result.transcript.to_text().encode()).hexdigest() == digest

    def test_everyone_replays_every_bit(self):
        spec = NetworkSpec.complete(5, 2)
        store = generate_pairwise_keys(spec, 4)
        result = run_group_key(store, spec)
        for terminal in range(5):
            assert replay_key(result, terminal) == result.key

    def test_random_sweep_respects_bound_and_leaks_nothing(self):
        rng = random.Random(702)
        for _ in range(30):
            spec = random_spec(rng, max_m=6, max_budget=8)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            policy = rng.choice(("lex-kruskal", "degree-min"))
            result = run_group_key(store, spec, policy)
            assert len(result.key) <= group_bound(spec).value
            report = leak_report(result)
            assert report.leaked_bits == 0 and report.uniform


class TestTranscripts:
    def test_group_golden_transcript(self):
        store = generate_pairwise_keys(TRIANGLE, 7)
        result = run_group_key(store, TRIANGLE)
        assert result.transcript.to_text() == TRIANGLE_GROUP_TRANSCRIPT

    def test_serialization_is_stable(self):
        store = generate_pairwise_keys(TRIANGLE, 7)
        transcript = run_group_key(store, TRIANGLE).transcript
        assert transcript.to_text() == transcript.to_text()

    def test_rounds_must_not_decrease(self):
        basis = generate_pairwise_keys(NetworkSpec(2, {(0, 1): 2}), 1).basis
        t = Transcript()
        t.append(PublicMessage(0, 1, 2, (1,), (0,), (1,), basis))
        with pytest.raises(ValueError):
            t.append(PublicMessage(0, 1, 1, (1,), (0,), (1,), basis))

    def test_a_batch_out_of_round_order_is_refused_whole(self):
        basis = generate_pairwise_keys(NetworkSpec(2, {(0, 1): 2}), 1).basis
        at = [PublicMessage(0, 1, r, (1,), (0,), (1,), basis) for r in range(4)]
        t = Transcript(at[2:3])
        for batch in ([at[3], at[2], at[3]], [at[1], at[3]]):  # decreasing, or below round 2
            with pytest.raises(ValueError, match="nondecreasing"):
                t.extend(batch)
            assert list(t) == at[2:3]
        t.extend([at[2], at[3], at[3]])
        assert [m.round for m in t] == [2, 2, 3, 3]
        with pytest.raises(ValueError, match="nondecreasing"):
            Transcript([at[1], at[0]])

    def test_messages_refuse_unequal_columns_and_non_bit_payloads(self):
        basis = generate_pairwise_keys(NetworkSpec(2, {(0, 1): 2}), 1).basis
        for payload, plain, pad in (((1, 0), (0,), (1,)), ((1,), (0, 1), (1,)), ((1,), (0,), ())):
            with pytest.raises(ValueError, match="equal length"):
                PublicMessage(0, 1, 0, payload, plain, pad, basis)
        with pytest.raises(ValueError, match="0 or 1"):
            PublicMessage(0, 1, 0, (2,), (0,), (1,), basis)

    def test_hex_packing(self):
        assert bits_to_hex(()) == "-"
        assert bits_to_hex((1,)) == "1"
        assert bits_to_hex((1, 0, 1, 1)) == "b"
        assert bits_to_hex((1, 0, 1, 1, 0)) == "16"

    def test_pads_are_never_reused_across_a_run(self):
        rng = random.Random(703)
        for _ in range(10):
            spec = random_connected_spec(rng, max_m=5, max_budget=5)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            result = run_group_key(store, spec)
            pads = [p for msg in result.transcript for p in msg.pads]
            assert len(pads) == len(set(pads))

    def test_forms_reproduce_payload_bits(self):
        store = generate_pairwise_keys(TRIANGLE, 15)
        result = run_subgroup(store, TRIANGLE, 0, 2, 15)
        values = result.basis.realized()
        for msg in result.transcript:
            for bit, form in zip(msg.payload, msg.forms):
                assert form.evaluate(values) == bit


class TestSelfCheck:
    def test_a_flipped_payload_bit_is_caught(self):
        store = generate_pairwise_keys(TRIANGLE, 7)
        bad = flip_first_payload_bit(run_group_key(store, TRIANGLE))
        with pytest.raises(InvariantViolation, match="does not match payload"):
            self_check(bad)

    def test_a_reused_pad_is_caught(self):
        spec = NetworkSpec.star([7, 5, 9])
        result = run_broadcast(generate_pairwise_keys(spec, 3), spec)
        # resending a message keeps every form faithful but pads twice
        messages = list(result.transcript)
        bad = replace(result, transcript=Transcript(messages + messages[-1:]))
        with pytest.raises(InvariantViolation, match="pad bit was reused"):
            self_check(bad)

    def test_a_holder_that_cannot_replay_is_caught(self):
        store = generate_pairwise_keys(TRIANGLE, 5)
        result = run_subgroup(store, TRIANGLE, 0, 2, 5)
        # the relay sees only 3 of the 7 key bits
        bad = replace(result, holders=frozenset({0, 1, 2}))
        with pytest.raises(InvariantViolation, match="holder 1 cannot replay"):
            self_check(bad)

    def test_a_holder_is_checked_without_the_bits_of_the_holders_before_it(self):
        spec = NetworkSpec.star([7, 5, 9])
        result = run_broadcast(generate_pairwise_keys(spec, 3), spec)
        # leaf 3 loses its re-keying message; the center, checked first, owns
        # every key bit, so its own rows must be gone again when leaf 3 is checked
        bad = replace(result, transcript=Transcript(list(result.transcript)[:-1]))
        assert bad.transcript.messages[-1].receiver == 1
        with pytest.raises(InvariantViolation, match="holder 3 cannot replay"):
            self_check(bad)

    def test_replay_rejects_inconsistent_equations(self):
        store = generate_pairwise_keys(TRIANGLE, 7)
        bad = flip_first_payload_bit(run_group_key(store, TRIANGLE))
        with pytest.raises(InvariantViolation, match="inconsistent"):
            replay_key(bad, 0)

    def test_a_flipped_payload_bit_is_caught_under_python_O(self):
        code = textwrap.dedent("""
            from dataclasses import replace
            from pinkey import NetworkSpec, Transcript, generate_pairwise_keys, run_group_key
            from pinkey.errors import InvariantViolation
            from pinkey.protocols import _self_check

            assert False, "assertions must be off"
            spec = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])
            result = run_group_key(generate_pairwise_keys(spec, 7), spec)
            first, *rest = result.transcript
            flipped = replace(first, payload=(first.payload[0] ^ 1,))
            try:
                _self_check(result.holders, result.key, result.key_ids,
                            Transcript([flipped, *rest]), result.basis)
            except InvariantViolation as exc:
                print("caught:", exc)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "caught: transcript form does not match payload\n"
