"""Protocol runs: key lengths, message structure, replay, and transcripts."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from operator import add, sub, xor

import pytest

from pinkey import (
    NetworkSpec,
    Transcript,
    flood,
    generate_pairwise_keys,
    group_bound,
    replay_key,
    run_broadcast,
    run_group_key,
    run_subgroup,
)
from pinkey.errors import InsufficientKeyMaterial, InvariantViolation, NotAStar
from pinkey.model import SourceBitBasis, canonical_pair
from pinkey.oracles import (MI_BASIS_LIMIT, brute_force_mutual_information, is_connected, min_st_cut_bruteforce,
                            verify_independence)
from pinkey.protocols import GroupKeyResult, LinearForm, PublicMessage, _hex, _learned

from helpers import (assert_checked_alike, audited, closed_form, debit, full_basis, key_values, learned_cases,
                     learned_or_fault, packed, random_connected_spec, random_flood, random_spec, reference_learned,
                     reference_replay, reference_text, take, take_all, tagged_stream, transcript_columns, transcript_of,
                     wide_cases)

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


def run_optimized(code):
    """The stdout of ``code`` run under ``python -O`` with the package importable."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("spec,run,undrawn,size", [
    # the flow from 0 to 1 rides the direct pair alone: its 3 bits pad 3 fresh bits
    (NetworkSpec.from_pairs(4, [(0, 1, 3), (1, 2, 3), (2, 3, 5)]),
     lambda store: run_subgroup(store, 0, 1), {(1, 2): 3, (2, 3): 5}, 6),
    # leaf 2 spends 2 bits of its 5, as each of the other leaves does of its 2
    (NetworkSpec.star([2, 5, 2]), run_broadcast, {(0, 2): 3}, 6),
], ids=["subgroup", "broadcast"])
def test_a_pair_no_protocol_touches_is_never_drawn(spec, run, undrawn, size):
    store = generate_pairwise_keys(spec, 4)
    basis = run(store).basis
    assert len(basis) == size
    for (i, j), left in undrawn.items():
        assert store.remaining(i, j) == left
        drawn = spec.budget(i, j) - left
        assert [lab for lab in basis.labels if lab.startswith(f"K{i}-{j}:")] == [
            f"K{i}-{j}:{t}" for t in range(drawn)]


class TestBroadcast:
    def test_star_with_budgets_7_5_9(self):
        spec = NetworkSpec.star([7, 5, 9])
        store = generate_pairwise_keys(spec, 3)
        result = run_broadcast(store)
        assert len(result.key) == 5
        assert result.key == key_values(generate_pairwise_keys(spec, 3), 0, 2)[:5]
        assert len(result.transcript) == 2
        assert result.transcript.public_bits == 10
        assert [m.receiver for m in result.transcript] == [1, 3]
        assert result.gap == 0 and result.bound == Fraction(5)
        assert result.holders == frozenset({0, 1, 2, 3})

    def test_two_terminals_need_no_messages(self):
        spec = NetworkSpec.star([5])
        store = generate_pairwise_keys(spec, 1)
        result = run_broadcast(store)
        assert len(result.key) == 5
        assert len(result.transcript) == 0

    def test_zero_budget_leaf_degenerates_cleanly(self):
        spec = NetworkSpec.star([4, 0, 6])
        store = generate_pairwise_keys(spec, 1)
        result = run_broadcast(store)
        assert result.key == ()
        assert len(result.transcript) == 0
        assert result.bound == 0 and result.gap == 0

    def test_non_star_rejected(self):
        store = generate_pairwise_keys(TRIANGLE, 1)
        with pytest.raises(NotAStar):
            run_broadcast(store)

    def test_every_terminal_replays_but_an_outsider_cannot(self):
        spec = NetworkSpec.star([7, 5, 9])
        store = generate_pairwise_keys(spec, 8)
        result = run_broadcast(store)
        for terminal in range(4):
            assert replay_key(result, terminal) == result.key
        # an eavesdropper owns no source bits at all
        assert replay_key(result, 4) is None

    def test_replay_matches_the_reference_when_pads_go_unused(self):
        spec = NetworkSpec.star([9, 4, 30, 17, 4, 12])
        store = generate_pairwise_keys(spec, 21)
        result = run_broadcast(store)
        assert sum(store.remaining(0, leaf) for leaf in range(1, spec.m)) == 52
        # every leaf and the center, plus an outsider with no bits
        for terminal in range(spec.m + 1):
            assert replay_key(result, terminal) == reference_replay(result, terminal)

    def test_messages_reveal_nothing(self):
        spec = NetworkSpec.star([3, 3, 3, 3, 3])
        store = generate_pairwise_keys(spec, 13)
        report = leak_report(run_broadcast(store))
        assert report.leaked_bits == 0 and report.uniform


class TestSubgroup:
    def test_triangle_key_is_the_min_cut(self):
        store = generate_pairwise_keys(TRIANGLE, 5)
        result = run_subgroup(store, 0, 2)
        assert len(result.key) == 7
        assert result.gap == 0
        assert result.transcript.public_bits == 10
        assert len(result.transcript) == 3
        assert result.holders == frozenset({0, 2})

    def test_rounds_advance_hop_by_hop(self):
        store = generate_pairwise_keys(TRIANGLE, 5)
        result = run_subgroup(store, 0, 2)
        hops = [(m.round, m.sender, m.receiver, len(m.payload)) for m in result.transcript]
        assert hops == [(0, 0, 1, 3), (0, 0, 2, 4), (1, 1, 2, 3)]

    def test_terminals_replay_but_the_relay_cannot(self):
        store = generate_pairwise_keys(TRIANGLE, 5)
        result = run_subgroup(store, 0, 2)
        assert replay_key(result, 0) == result.key
        assert replay_key(result, 2) == result.key
        # terminal 1 relays only 3 of the 7 bits
        assert replay_key(result, 1) is None

    def test_a_cut_vertex_relay_sees_the_whole_key(self):
        spec = NetworkSpec.from_pairs(3, [(0, 1, 4), (1, 2, 4)])
        result = run_subgroup(generate_pairwise_keys(spec, 3), 0, 2)
        assert replay_key(result, 1) == result.key == reference_replay(result, 1)

    def test_single_edge(self):
        spec = NetworkSpec(2, {(0, 1): 6})
        store = generate_pairwise_keys(spec, 2)
        result = run_subgroup(store, 0, 1)
        assert len(result.key) == 6
        assert len(result.transcript) == 1

    def test_disconnected_terminals_get_an_empty_key(self):
        spec = NetworkSpec(3, {(0, 1): 4})
        store = generate_pairwise_keys(spec, 2)
        result = run_subgroup(store, 0, 2)
        assert result.key == ()
        assert len(result.transcript) == 0
        assert result.bound == 0 and result.gap == 0

    def test_deterministic_per_seed(self):
        texts = set()
        for _ in range(2):
            store = generate_pairwise_keys(TRIANGLE, 5)
            texts.add(run_subgroup(store, 0, 2).transcript.to_text())
        assert len(texts) == 1
        other = run_subgroup(generate_pairwise_keys(TRIANGLE, 99), 0, 2)
        assert other.transcript.to_text() not in texts

    def test_matches_bruteforce_cut_on_random_graphs(self):
        rng = random.Random(701)
        for _ in range(30):
            spec = random_connected_spec(rng, max_m=5, max_budget=6)
            s, t = rng.sample(range(spec.m), 2)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            result = run_subgroup(store, s, t)
            assert len(result.key) == min_st_cut_bruteforce(spec, s, t)[0]
            report = leak_report(result)
            assert report.leaked_bits == 0 and report.uniform
            # holders, relays and bystanders, plus an outsider with no bits
            for terminal in range(spec.m + 1):
                assert replay_key(result, terminal) == reference_replay(result, terminal)

    def test_a_terminal_that_is_not_an_int_is_refused_before_any_draw(self):
        # True == 1 as a dict key, so it would draw as terminal 1 under the label "RTrue:0"
        store = generate_pairwise_keys(TRIANGLE, 5)
        for s, t in ((True, 2), (0, True), (0, 2.0), (True, 1)):
            with pytest.raises(ValueError, match="out of range"):
                run_subgroup(store, s, t)
        with pytest.raises(ValueError):
            take(store, True, 2, 1)
        assert len(store.basis) == 0
        assert [store.basis.label(i) for i in run_subgroup(store, 1, 2).key_ids[:1]] == ["R1:0"]

    def test_a_second_run_from_one_source_gets_new_fresh_bits(self):
        spec = NetworkSpec.from_pairs(3, [(0, 1, 16), (0, 2, 16)])
        store = generate_pairwise_keys(spec, 5)
        first, second = run_subgroup(store, 0, 1), run_subgroup(store, 0, 2)
        # the two keys are bits 1-16 and 17-32 of terminal 0's one local stream
        stream = tagged_stream("local:5:0")
        bits = tuple(stream.getrandbits(1) for _ in range(32))
        assert [store.basis.label(i) for i in first.key_ids] == [f"R0:{t}" for t in range(16)]
        assert [store.basis.label(i) for i in second.key_ids] == [f"R0:{t}" for t in range(16, 32)]
        assert first.key == bits[:16] and second.key == bits[16:] and first.key != second.key


@pytest.mark.parametrize("spec,before,run", [
    # the second subgroup run's first hop, over (0, 2), has its bits, and its second, over
    # (1, 2), none: the first run spent them
    (NetworkSpec(3, {(0, 2): 2, (1, 2): 2}), lambda store: run_subgroup(store, 2, 1),
     lambda store: run_subgroup(store, 0, 1)),
    # the key pair (0, 1) has its 2 bits, and the pad pair (0, 2) 1 of the 2 it needs
    (NetworkSpec.star([2, 3]), lambda store: take(store, 0, 2, 2), run_broadcast),
], ids=["subgroup", "broadcast"])
def test_a_run_that_a_pair_is_short_for_draws_nothing(spec, before, run):
    store = generate_pairwise_keys(spec, 1)
    before(store)
    remaining, size = [store.remaining(*pair) for pair in spec.pairs()], len(store.basis)
    with pytest.raises(InsufficientKeyMaterial):
        run(store)
    assert [store.remaining(*pair) for pair in spec.pairs()] == remaining and len(store.basis) == size


def tree_routes(trees):
    """Group routes: each tree seeded by its smallest edge, one bit wide."""
    return [(tree, min(tree), 1) for tree in trees]


class TestFlood:
    def test_path_tree_sends_one_message(self):
        spec = NetworkSpec.from_pairs(3, [(0, 1, 2), (1, 2, 2)])
        store = generate_pairwise_keys(spec, 9)
        (shared,), messages = flood(store, [(((0, 1), (1, 2)), (0, 1), 1)])
        assert store.basis.label(shared) == "K0-1:0"
        assert len(messages) == 1
        msg = list(messages)[0]
        assert (msg.sender, msg.receiver, msg.round) == (1, 2, 0)
        assert str(msg.forms[0]) == "K0-1:0^K1-2:0"

    def test_star_tree_center_relays_to_both(self):
        spec = NetworkSpec.star([1, 1, 1])
        store = generate_pairwise_keys(spec, 9)
        (shared,), messages = flood(store, [(((0, 1), (0, 2), (0, 3)), (0, 1), 1)])
        assert store.basis.label(shared) == "K0-1:0"
        assert [(m.sender, m.receiver) for m in messages] == [(0, 2), (0, 3)]
        assert [str(m.forms[0]) for m in messages] == ["K0-1:0^K0-2:0", "K0-1:0^K0-3:0"]

    def test_two_terminals_need_no_messages(self):
        spec = NetworkSpec(2, {(0, 1): 3})
        store = generate_pairwise_keys(spec, 9)
        (shared,), messages = flood(store, [(((0, 1),), (0, 1), 1)])
        assert list(messages) == []
        assert store.basis.label(shared) == "K0-1:0"

    def test_consumes_one_bit_per_tree_edge(self):
        spec = NetworkSpec.complete(4, 2)
        store = generate_pairwise_keys(spec, 9)
        tree = ((0, 1), (1, 2), (2, 3))
        flood(store, tree_routes([tree]))
        for edge in tree:
            assert store.remaining(*edge) == 1
        assert store.remaining(0, 2) == 2

    def test_depleted_edge_raises_before_consuming(self):
        spec = NetworkSpec.from_pairs(3, [(0, 1, 1), (1, 2, 2)])
        store = generate_pairwise_keys(spec, 9)
        tree = ((0, 1), (1, 2))
        flood(store, tree_routes([tree]))
        with pytest.raises(InsufficientKeyMaterial):
            flood(store, tree_routes([tree]))
        assert store.remaining(1, 2) == 1

    def test_a_dry_hop_consumes_nothing_not_even_the_seed_edge(self):
        spec = NetworkSpec.from_pairs(4, [(0, 1, 2), (1, 2, 2), (2, 3, 1)])
        store = generate_pairwise_keys(spec, 9)
        tree = ((0, 1), (1, 2), (2, 3))
        flood(store, tree_routes([tree]))
        with pytest.raises(InsufficientKeyMaterial, match=r"pair \(2, 3\)"):
            flood(store, tree_routes([tree]))
        assert [store.remaining(*edge) for edge in tree] == [1, 1, 0]

    def test_a_list_of_trees_floods_as_its_trees_one_at_a_time(self):
        spec = NetworkSpec.complete(4, 2)
        # (0, 2) pads a hop of the first tree and seeds the second; (2, 3) pads a hop of each
        trees = [((0, 1), (0, 2), (2, 3)), ((0, 2), (1, 2), (2, 3))]
        together = generate_pairwise_keys(spec, 9)
        key_ids, transcript = flood(together, tree_routes(trees))
        alone = generate_pairwise_keys(spec, 9)
        shared, expected = [], ([], [], [], [], b"", [], [])
        for tree in trees:
            ids, part = flood(alone, tree_routes([tree]))
            rounds, senders, receivers, ends, payload, plain, pad = transcript_columns(part)
            shift = expected[0][-1] + 1 if expected[0] else 0
            rounds = [r + shift for r in rounds]
            ends = [end + len(expected[4]) for end in ends]
            shared += ids
            expected = tuple(map(add, expected, (rounds, senders, receivers, ends, payload, plain, pad)))
        # pair bits are drawn as they are taken, so the two stores number them differently:
        # compare labels, which name each bit by its pair and its place in the pair's key
        def labels(ids):
            return [together.basis.label(i) for i in ids]

        def alone_labels(ids):
            return [alone.basis.label(i) for i in ids]

        columns = transcript_columns(transcript)
        assert labels(key_ids) == alone_labels(shared)
        assert (*columns[:5], labels(columns[5]), labels(columns[6])) == (
            *expected[:5], alone_labels(expected[5]), alone_labels(expected[6]))
        assert expected[0] == [0, 1, 2, 2]
        assert labels([transcript.pad[0], key_ids[1]]) == ["K0-2:0", "K0-2:1"]
        assert [lab for lab in labels(transcript.pad) if lab.startswith("K2-3:")] == ["K2-3:0", "K2-3:1"]

    def test_a_pair_dry_in_a_later_tree_consumes_nothing_of_any_tree(self):
        spec = NetworkSpec.from_pairs(4, [(0, 1, 2), (0, 2, 2), (1, 2, 1), (2, 3, 2)])
        store = generate_pairwise_keys(spec, 9)
        trees = [((0, 1), (1, 2), (2, 3)), ((0, 2), (1, 2), (2, 3))]
        with pytest.raises(InsufficientKeyMaterial, match=r"pair \(1, 2\)"):
            flood(store, tree_routes(trees))
        assert [store.remaining(*pair) for pair in spec.pairs()] == [2, 2, 1, 2]

    def test_a_dry_pair_leaves_the_basis_and_every_pair_as_they_were(self):
        spec = NetworkSpec.from_pairs(4, [(0, 1, 2), (0, 2, 2), (1, 2, 1), (2, 3, 2)])
        store = generate_pairwise_keys(spec, 9)
        flood(store, tree_routes([((0, 1), (1, 2), (2, 3))]))
        size, remaining = len(store.basis), [store.remaining(*pair) for pair in spec.pairs()]
        assert (size, remaining) == (3, [1, 2, 0, 1])
        with pytest.raises(InsufficientKeyMaterial, match=r"^pair \(1, 2\) has 0 unused bits, 1 needed$"):
            flood(store, tree_routes([((0, 2), (1, 2), (2, 3))]))  # (0, 2) and (2, 3) have bits left
        assert len(store.basis) == size
        assert [store.remaining(*pair) for pair in spec.pairs()] == remaining

    def test_a_pair_short_in_a_later_route_draws_no_fresh_bit_either(self):
        # two paths from terminal 0, as a subgroup run floods them: the second path's
        # (1, 3) has 1 bit of the 2 it needs, so neither the pads nor terminal 0's bits are drawn
        spec = NetworkSpec.from_pairs(4, [(0, 1, 4), (0, 2, 2), (1, 3, 1), (2, 3, 2)])
        store = generate_pairwise_keys(spec, 9)
        routes = [([(0, 2), (2, 3)], 0, 2), ([(0, 1), (1, 3)], 0, 2)]
        with pytest.raises(InsufficientKeyMaterial, match=r"pair \(1, 3\)"):
            flood(store, routes, together=True)
        assert len(store.basis) == 0
        assert [store.remaining(*pair) for pair in spec.pairs()] == [4, 2, 1, 2]
        assert [store.basis.label(i) for i in store.fresh(0, 2)] == ["R0:0", "R0:1"]

    def test_a_wide_star_route_is_the_broadcast_run(self):
        spec = NetworkSpec.star([4, 3, 5, 3])
        star = [(0, leaf) for leaf in range(1, spec.m)]
        store = generate_pairwise_keys(spec, 9)
        key_ids, transcript = flood(store, [(star, (0, 2), 3)])
        result = run_broadcast(generate_pairwise_keys(spec, 9))
        assert [store.basis.label(i) for i in key_ids] == ["K0-2:0", "K0-2:1", "K0-2:2"]
        assert key_ids == tuple(result.key_ids)
        assert transcript_columns(transcript) == transcript_columns(result.transcript)
        assert transcript.ends == [3, 6, 9] and set(transcript.rounds) == {0}

    @pytest.mark.parametrize(
        "edges,seed,message",
        [
            # each a route after a good one: a bad route anywhere in the list consumes nothing
            (((0, 1), (2, 3)), (0, 1), "is no tree holding its seed"),
            (((0, 1), (1, 2), (2, 3), (0, 3)), (0, 1), "is no tree holding its seed"),
            (((0, 1), (1, 2), (2, 4)), (0, 1), r"edge \(2, 4\) is not a pair"),
            (((-1, 0), (0, 1), (1, 2)), (0, 1), r"edge \(-1, 0\) is not a pair"),
            (((0, 1), (2, 1), (2, 3)), (0, 1), r"edge \(2, 1\) is not a pair"),
            (((0, 1), (1, 1), (2, 3)), (0, 1), r"edge \(1, 1\) is not a pair"),
            (((0, 1), (0, 1), (2, 3)), (0, 1), "is no tree holding its seed"),
            (((0, 1), (0, 2), (1, 2)), (0, 1), "is no tree holding its seed"),
            (((0, 1), (1, 2)), (0, 2), r"\(0, 2\), 1\) is no tree holding its seed"),
            (((0, 1), (1, 2)), 3, r"\], 3, 1\) is no tree holding its seed"),
            (((0, 1), (1, 2)), 4, r"\], 4, 1\) is no tree holding its seed"),
            (((0, 1), (1, 2)), True, r"\], True, 1\) is no tree holding its seed"),
            (((0, 1), (1, 2, 3)), (0, 1), r"^edge \(1, 2, 3\) is not a pair i < j of nodes below m=4$"),
            (((0, 1), (2,)), (0, 1), r"^edge \(2,\) is not a pair"),
            ((3,), 3, r"^edge 3 is not a pair"),
            (((0, 1), 3), (0, 1), r"^edge 3 is not a pair"),
            (((0, 1), None), (0, 1), r"^edge None is not a pair"),
            (([0, 1], [1, 2]), 0, r"^edge \[0, 1\] is not a pair"),
            (((0, 1), (1, 2.0)), (0, 1), r"^edge \(1, 2.0\) is not a pair"),
            (((0, 1), (True, 2)), (0, 1), r"^edge \(True, 2\) is not a pair"),
        ],
        ids=["too-few", "too-many", "node-m", "negative-node", "reversed", "self-pair", "repeated",
             "cycle", "seed-pair-off-the-edges", "seed-terminal-off-the-tree", "seed-terminal-m",
             "seed-bool", "three-tuple-edge", "one-tuple-edge", "int-edge", "int-after-a-pair",
             "none-after-a-pair", "list-edges", "float-node", "bool-node"],
    )
    def test_edges_that_are_no_spanning_tree_raise_before_consuming(self, edges, seed, message):
        # a route need not span, but it must be a tree that holds its seed
        spec = NetworkSpec.complete(4, 2)
        store = generate_pairwise_keys(spec, 9)
        with pytest.raises(ValueError, match=message):
            flood(store, [(((0, 1), (1, 2), (2, 3)), (0, 1), 1), (edges, seed, 1)])
        assert [store.remaining(*pair) for pair in spec.pairs()] == [2] * 6 and len(store.basis) == 0

    def test_the_first_fault_in_route_order_is_the_one_reported(self):
        # each route's edges are checked when flood reaches the route, after every route before it
        # is checked whole: a route that is no tree before a bad edge is reported as no tree
        spec = NetworkSpec.complete(4, 2)
        cycle = (((0, 1), (0, 2), (1, 2)), (0, 1), 1)
        bad_edge = (((0, 1), (1, 2), (2, 4)), (0, 1), 1)
        for routes, message in (([cycle, bad_edge], r"^route \(\[\(0, 1\), \(0, 2\), \(1, 2\)\], \(0, 1\), 1\) is no tree"),
                                ([bad_edge, cycle], r"^edge \(2, 4\) is not a pair i < j of nodes below m=4$")):
            for together in (False, True):
                store = generate_pairwise_keys(spec, 9)
                with pytest.raises(ValueError, match=message):
                    flood(store, routes, together=together)
                assert len(store.basis) == 0

    def test_random_floods_build_what_the_checked_constructor_builds(self):
        # flood builds its transcript unchecked, from columns that the constructor must accept as they are
        rng = random.Random(3701)
        made = wide = 0
        while made < 400:
            if (flooded := random_flood(rng)) is None:
                continue
            assert_checked_alike(flooded[2])
            made += 1
            wide += is_wide(flooded[2])
        assert min(wide, made - wide) >= 50, wide  # one-bit and wide transcripts both

    @pytest.mark.parametrize("width", [0, -1, 1.0, True, None])
    def test_a_width_that_is_no_positive_int_raises_before_consuming(self, width):
        spec = NetworkSpec.complete(4, 2)
        store = generate_pairwise_keys(spec, 9)
        with pytest.raises(ValueError, match=rf", 0, {width!r}\) is no tree holding its seed, of positive int width"):
            flood(store, [(((0, 1), (1, 2), (2, 3)), (0, 1), 1), (((0, 1), (1, 2)), 0, width)])
        assert len(store.basis) == 0

    def test_a_route_need_not_span(self):
        # a path on three of five terminals, seeded by its middle terminal
        spec = NetworkSpec.complete(5, 2)
        store = generate_pairwise_keys(spec, 9)
        key_ids, transcript = flood(store, [([(1, 3), (3, 4)], 3, 2)])
        assert [store.basis.label(i) for i in key_ids] == ["R3:0", "R3:1"]
        assert [(m.sender, m.receiver, m.round) for m in transcript] == [(3, 1, 0), (3, 4, 0)]
        assert [str(form) for form in transcript.forms()] == [
            "K1-3:0^R3:0", "K1-3:1^R3:1", "K3-4:0^R3:0", "K3-4:1^R3:1"]

    def test_an_unsorted_edge_list_floods_as_its_sorted_form(self):
        spec = NetworkSpec.complete(5, 3)
        trees = [((0, 1), (1, 2), (2, 3), (3, 4)), ((0, 3), (1, 4), (2, 4), (0, 2)),
                 ((0, 4), (0, 1), (0, 3), (0, 2))]
        runs = []
        for order in (sorted, lambda tree: tuple(reversed(tree))):
            store = generate_pairwise_keys(spec, 9)
            key_ids, transcript = flood(store, tree_routes([order(tree) for tree in trees]))
            runs.append((key_ids, transcript_columns(transcript)))
        assert runs[0] == runs[1]
        # the smallest edge seeds each tree, whatever place it was given in
        assert [store.basis.label(shared) for shared in runs[1][0]] == ["K0-1:0", "K0-2:0", "K0-1:1"]


class TestGroupKey:
    def test_triangle_runs_six_iterations(self):
        for policy in ("lex-kruskal", "degree-min"):
            store = generate_pairwise_keys(TRIANGLE, 7)
            result = run_group_key(store, policy)
            assert len(result.key) == 6
            assert result.bound == Fraction(6)
            assert result.gap == 0
            assert len(result.transcript) == 6  # one message per round at m=3

    def test_uniform_k4_star_trap_vs_degree_min(self):
        spec = NetworkSpec.complete(4, 1)
        store = generate_pairwise_keys(spec, 2)
        assert len(run_group_key(store, "lex-kruskal").key) == 1
        store = generate_pairwise_keys(spec, 2)
        assert len(run_group_key(store, "degree-min").key) == 2

    def test_pinned_star_tree_disconnects_after_one_round(self):
        # choosing the star tree first leaves node 0 isolated
        spec = NetworkSpec.complete(4, 1)
        store = generate_pairwise_keys(spec, 2)
        star = ((0, 1), (0, 2), (0, 3))
        _, messages = flood(store, [(star, (0, 1), 1)])
        assert len(messages) == 2
        assert not is_connected(debit(spec, star))

    def test_even_complete_graphs_meet_the_bound(self):
        for m, u in [(4, 1), (4, 2), (5, 1)]:
            spec = NetworkSpec.complete(m, 2 * u)
            store = generate_pairwise_keys(spec, 1)
            result = run_group_key(store)
            assert len(result.key) == m * u
            assert result.gap == 0

    def test_two_terminal_group_run_uses_the_whole_pair_key(self):
        spec = NetworkSpec(2, {(0, 1): 4})
        store = generate_pairwise_keys(spec, 6)
        result = run_group_key(store)
        assert result.key == key_values(generate_pairwise_keys(spec, 6), 0, 1)
        assert len(result.transcript) == 0

    def test_disconnected_network_yields_nothing(self):
        spec = NetworkSpec(3, {(0, 1): 5})
        store = generate_pairwise_keys(spec, 6)
        result = run_group_key(store)
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
        result = run_group_key(generate_pairwise_keys(spec, 5), policy)
        assert len(result.key) == bits
        assert hashlib.sha256(result.transcript.to_text().encode()).hexdigest() == digest

    def test_everyone_replays_every_bit(self):
        spec = NetworkSpec.complete(5, 2)
        store = generate_pairwise_keys(spec, 4)
        result = run_group_key(store)
        for terminal in range(5):
            assert replay_key(result, terminal) == result.key

    def test_random_sweep_respects_bound_and_leaks_nothing(self):
        rng = random.Random(702)
        for _ in range(30):
            spec = random_spec(rng, max_m=6, max_budget=8)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            policy = rng.choice(("lex-kruskal", "degree-min"))
            result = run_group_key(store, policy)
            assert len(result.key) <= group_bound(spec).value
            report = leak_report(result)
            assert report.leaked_bits == 0 and report.uniform


class TestTranscripts:
    def test_group_golden_transcript(self):
        store = generate_pairwise_keys(TRIANGLE, 7)
        result = run_group_key(store)
        assert result.transcript.to_text() == TRIANGLE_GROUP_TRANSCRIPT

    def test_serialization_is_stable(self):
        store = generate_pairwise_keys(TRIANGLE, 7)
        transcript = run_group_key(store).transcript
        assert transcript.to_text() == transcript.to_text()

    def test_hex_packing(self):
        assert _hex("1") == "1"
        assert _hex("1011") == "b"
        assert _hex("10110") == "16"

    def test_text_hex_fields_match_packed_payloads(self):
        lengths = [*range(1, 10), 31, 100]
        rng = random.Random(17)
        # one transcript holding every length, and all-zero and all-one payloads among them:
        # each message's plain run holds its payload XOR the random bits of its pad run
        payloads = [payload for n in lengths
                    for payload in ((0,) * n, (1,) * n, tuple(rng.getrandbits(1) for _ in range(n)))]
        bits = [bit for payload in payloads for bit in payload]
        pads = [rng.getrandbits(1) for _ in bits]
        basis = SourceBitBasis()
        plain, pad = basis._add_runs([("R1:", frozenset((1,)), len(bits)), ("R2:", frozenset((2,)), len(bits))],
                                     [*map(xor, bits, pads), *pads])
        messages = [PublicMessage(1, 2, k, payload, plain[start:end], pad[start:end], basis)
                    for k, (payload, start, end) in enumerate(zip(payloads, [0, *accumulate(map(len, payloads))],
                                                                  accumulate(map(len, payloads))))]
        runs = [transcript_of(basis, messages)]
        assert [msg.payload for msg in runs[0]] == payloads
        # broadcast runs re-key each leaf with one message as long as the key
        for n in lengths:
            spec = NetworkSpec.star([n, n + 2, n + 7])
            runs.append(run_broadcast(generate_pairwise_keys(spec, n)).transcript)
        for transcript in runs:
            lines = transcript.to_text().splitlines()[1:]
            assert len(lines) == len(transcript) > 0
            for line, msg in zip(lines, transcript):
                assert line.split(" ")[3] == packed(msg.payload)
        assert {len(msg.payload) for msg in runs[0]} == set(lengths)

    def test_text_matches_a_message_by_message_reference(self):
        rng = random.Random(41)
        runs = []
        for _ in range(12):
            spec = random_connected_spec(rng, max_m=7, max_budget=14)
            seed = rng.randrange(2**32)
            s, t = rng.sample(range(spec.m), 2)
            runs.append(run_subgroup(generate_pairwise_keys(spec, seed), s, t).transcript)
            runs.append(run_group_key(generate_pairwise_keys(spec, seed)).transcript)
        spec = NetworkSpec.star([23, 11, 40, 17, 9, 30, 12, 25, 19, 14, 33])
        runs.append(run_broadcast(generate_pairwise_keys(spec, 2)).transcript)
        spec = NetworkSpec.complete(12, 2)
        runs.append(run_group_key(generate_pairwise_keys(spec, 5)).transcript)
        # labels that sort against id order: K0-10 after K0-2, index 10 after index 9
        spec = NetworkSpec(11, {(0, 2): 12, (0, 10): 12, (1, 2): 12})
        store = generate_pairwise_keys(spec, 8)
        keys = take_all(store)
        k02, k010, k12 = keys[0, 2], keys[0, 10], keys[1, 2]
        columns = [([k02[3]], [k010[3]]), ([k010[4]], [k02[4]]), ([k12[9]], [k12[10]]),
                   (k12[8:11], k12[0:3]), (k010[8:11], k02[9:12]), ([k02[2]], [k010[9]])]
        runs.append(transcript_of(store.basis, (
            PublicMessage(0, 10, r, tuple(rng.getrandbits(1) for _ in plain), plain, pad, store.basis)
            for r, (plain, pad) in enumerate(columns))))
        for transcript in runs:
            assert transcript.to_text() == reference_text(transcript)
        assert runs[-1].to_text().splitlines()[1:4] == [
            f"0 0 10 {runs[-1].payload[0]} K0-10:3^K0-2:3", f"1 0 10 {runs[-1].payload[1]} K0-10:4^K0-2:4",
            f"2 0 10 {runs[-1].payload[2]} K1-2:10^K1-2:9"]

    def test_bad_columns_are_refused_by_the_constructor(self):
        spec = NetworkSpec.from_pairs(3, [(0, 1, 4), (0, 2, 4), (1, 2, 4)])
        basis = full_basis(spec, 1)

        def columns(**changes):
            # message 1 is the runs 7, 8 and 10, 11
            return {**dict(basis=basis, rounds=[2, 3], senders=[0, 2], receivers=[2, 1], ends=[1, 3],
                           plain=[3, 7], pad=[9, 10]), **changes}

        for bad, match in [
            (columns(rounds=[3, 2]), "nondecreasing"),
            (columns(senders=[0]), "equal length"),
            (columns(ends=[1, 2, 3], rounds=[2, 3, 3]), "equal length"),
            (columns(pad=[9]), "^plain and pad must have equal length$"),
            (columns(plain=[3, 7, 8], pad=[9, 10, 11]), "^plain and pad must hold one id per message$"),
            (columns(pad=[9, 99]), "ids of bits in the basis"),  # the basis has 12 bits
            (columns(pad=[9, 11]), "ids of bits in the basis"),  # the run 11, 12
            (columns(plain=[-1, 7]), "ids of bits in the basis"),
            (columns(plain=range(10, 12)), "ids of bits in the basis"),
            (columns(pad=[9, 7]), "plain and pad must be different ids"),
            (columns(pad=[3, 10]), "plain and pad must be different ids"),
            (columns(ends=[1, 1]), "^ends must be ints rising strictly from 0$"),
            (columns(ends=[0, 2]), "^ends must be ints rising strictly from 0$"),  # an empty message
            (columns(ends=[2, 1]), "^ends must be ints rising strictly from 0$"),
            (columns(ends=[-1, 2]), "^ends must be ints rising strictly from 0$"),
        ]:
            with pytest.raises(ValueError, match=match):
                Transcript(**bad)
        for rounds in ([2, 3], [2, 2]):
            t = Transcript(**columns(rounds=rounds))
            assert [m.round for m in t] == rounds and t.basis is basis
            payload = bytes(basis.values[a] ^ basis.values[b] for a, b in ((3, 9), (7, 10), (8, 11)))
            assert transcript_columns(t) == (rounds, [0, 2], [2, 1], [1, 3], payload, [3, 7], [9, 10])
            assert [(m.plain, m.pad) for m in t] == [((3,), (9,)), ((7, 8), (10, 11))]

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("bad", [1.0, True, "1", None], ids=repr)
    def test_an_end_that_is_no_int_is_refused(self, bad, at):
        # a float would slice nothing when the messages are read, and True would stand for 1
        basis = full_basis(TRIANGLE, 1)
        for good, plain, pad in (([1, 2], [0, 1], [5, 6]), ([1, 4], [0, 1], [5, 8])):  # one bit, then wide
            ends = list(good)
            ends[at] = bad
            with pytest.raises(ValueError, match=r"^ends must be ints rising strictly from 0$"):
                Transcript(basis, [0, 0], [0, 0], [1, 2], ends, plain, pad)
        with pytest.raises(ValueError, match=r"^ends must be ints rising strictly from 0$"):
            Transcript(basis, [0, 0], [0, 0], [1, 2], [1.0, 2.0], [0, 1], [5, 6])

    def test_an_end_that_is_no_int_is_refused_under_python_O(self):
        code = textwrap.dedent("""
            from pinkey import NetworkSpec, Transcript, generate_pairwise_keys

            assert False, "assertions must be off"
            store = generate_pairwise_keys(NetworkSpec(2, {(0, 1): 8}), 1)
            store.take_each({(0, 1): 8})
            for ends in ([1.0, 2.0], [True, 2], [2.0, 4.0], [1, None], ["1", 3]):
                try:
                    Transcript(store.basis, [0, 0], [0, 0], [1, 1], ends, [0, 2], [4, 6])
                except ValueError as exc:
                    print("refused:", exc)
        """)
        assert run_optimized(code) == "refused: ends must be ints rising strictly from 0\n" * 5

    def test_ends_given_as_a_range_build_the_transcript_of_their_list(self):
        basis = full_basis(TRIANGLE, 1)  # 12 bits
        for n, ends, plain, pad in [(3, range(1, 4), [0, 1, 2], [5, 6, 9]), (0, range(1, 1), [], []),
                                    (2, range(1, 4, 2), [0, 2], [5, 8]), (2, range(2, 6, 2), [0, 2], [5, 8])]:
            made = [Transcript(basis, [0] * n, [0] * n, [1] * n, column, plain, pad) for column in (ends, list(ends))]
            assert transcript_columns(made[0]) == transcript_columns(made[1])
            assert made[0].to_text() == made[1].to_text() == reference_text(made[1])
            assert list(made[0]) == list(made[1])
        # a run's one-bit transcript keeps the range flood gives it, and a prefix of its messages slices it
        t = run_group_key(generate_pairwise_keys(TRIANGLE, 5)).transcript
        assert t.ends == range(1, len(t) + 1)
        for n in (0, 2, len(t)):
            head = Transcript(t.basis, t.rounds[:n], t.senders[:n], t.receivers[:n], t.ends[:n], t.plain[:n], t.pad[:n])
            assert transcript_columns(head) == tuple(column[:n] for column in transcript_columns(t)[:4]) + (
                t.payload[:n], t.plain[:n], t.pad[:n])

    @pytest.mark.parametrize("ends,match", [
        (range(0, 3), "^ends must be ints rising strictly from 0$"),
        (range(3, 0, -1), "^ends must be ints rising strictly from 0$"),
        (range(1, 3), "equal length"),
        (range(1, 5), "equal length"),
    ])
    def test_a_range_of_ends_is_checked_as_its_list(self, ends, match):
        basis = full_basis(TRIANGLE, 1)
        for column in (ends, list(ends)):
            with pytest.raises(ValueError, match=match):
                Transcript(basis, [0] * 3, [0] * 3, [1] * 3, column, [0, 1, 2], [5, 6, 7])

    @pytest.mark.parametrize("column", ["rounds", "senders", "receivers"])
    @pytest.mark.parametrize("bad", [True, False, -1, -3, 1.0, "1", None], ids=repr)
    def test_rounds_senders_and_receivers_must_be_nonnegative_ints(self, column, bad):
        # to_text would write a bool as True, and a str table would read -1 from its end
        basis = full_basis(TRIANGLE, 1)
        columns = {"rounds": [0, 0], "senders": [0, 2], "receivers": [2, 1], column: [1, bad]}
        with pytest.raises(ValueError, match=r"^rounds, senders and receivers must be nonnegative ints$"):
            Transcript(basis, ends=[1, 2], plain=[0, 1], pad=[5, 6], **columns)

    def test_large_rounds_and_terminals_render_without_a_table_of_their_size(self):
        basis = full_basis(TRIANGLE, 1)
        for big in (10**6, 10**9):  # a table of the first's size alone would pass a megabyte
            transcript = Transcript(basis, [3, big], [big, 0], [2, big + 1], [1, 2], [0, 1], [5, 6])
            tracemalloc.start()
            try:
                text = transcript.to_text()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000
            assert text.splitlines()[1:] == [f"3 {big} 2 {transcript.payload[0]} K0-1:0^K0-2:0",
                                             f"{big} 0 {big + 1} {transcript.payload[1]} K0-1:1^K0-2:1"]

    def test_a_bool_or_negative_round_is_refused_under_python_O(self):
        code = textwrap.dedent("""
            from pinkey import NetworkSpec, Transcript, generate_pairwise_keys

            assert False, "assertions must be off"
            store = generate_pairwise_keys(NetworkSpec(3, {(0, 1): 2, (0, 2): 2}), 1)
            a, b = store.take_each({(0, 1): 1})[0, 1][0], store.take_each({(0, 2): 1})[0, 2][0]
            for columns in (([-3], [True], [-1]), ([0], [True], [1]), ([-1], [0], [1]), ([0], [0], [1.0])):
                try:
                    Transcript(store.basis, *columns, [1], [a], [b])
                except ValueError as exc:
                    print("refused:", exc)
        """)
        assert run_optimized(code) == "refused: rounds, senders and receivers must be nonnegative ints\n" * 4

    def test_a_bit_padded_with_its_own_plain_bit_is_refused(self):
        # Its kernel row would be 0, but its label set the unit form of that bit:
        # the self-check would give rank_transcript 0 and the label-level audit 1.
        basis = full_basis(NetworkSpec.star([2]), 1)
        with pytest.raises(ValueError, match="plain and pad must be different ids"):
            Transcript(basis, [0], [0], [1], [1], [1], [1])

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("column", ["plain", "pad"])
    def test_an_id_outside_the_basis_is_refused_in_either_column(self, column, width):
        basis = full_basis(TRIANGLE, 1)
        n = len(basis)
        # a run's first id outside, or its last: a run of 3 from n - 2 ends at n
        for bad in (-1, -n, -n - 1, n, n + 1, 2**70, n - width + 1):
            ids = {"plain": [0], "pad": [width]}
            ids[column] = [bad]
            with pytest.raises(ValueError, match=r"^plain and pad must be ids of bits in the basis$"):
                Transcript(basis, [0], [0], [1], [width], **ids)
        ids = {"plain": [0], "pad": [width], column: [n - width]}  # the last run of the basis
        assert len(Transcript(basis, [0], [0], [1], [width], **ids).payload) == width

    def test_an_id_outside_the_basis_that_is_also_its_pad_is_refused_as_outside(self):
        basis = full_basis(TRIANGLE, 1)
        n = len(basis)
        for bad in (-1, n):
            for ends, plain, pad in (([1, 2], [bad, 0], [bad, 1]), ([1, 2], [0, bad], [1, bad]),
                                     ([1, 3], [0, bad], [1, bad]), ([1, 3], [0, n - 1], [1, n - 1])):
                # the rounds are out of order too: the range check still comes first
                with pytest.raises(ValueError, match=r"^plain and pad must be ids of bits in the basis$"):
                    Transcript(basis, [1, 0], [0, 0], [1, 1], ends, plain, pad)

    @pytest.mark.parametrize("bad", [1.0, 3.0, 0.5, True, "1", None], ids=repr)
    def test_an_id_that_is_no_int_is_refused(self, bad):
        # before a bit padded by itself or rounds that go back, in one-bit and wide transcripts
        basis = full_basis(TRIANGLE, 1)
        for ends, rounds in (([1, 2], [0, 0]), ([1, 3], [0, 0]), ([1, 2], [1, 0]), ([2, 4], [1, 0])):
            for plain, pad in (([bad, 4], [2, 4]), ([0, 4], [2, bad])):
                with pytest.raises(ValueError, match=r"^plain and pad must be ids of bits in the basis$"):
                    Transcript(basis, rounds, [0, 0], [1, 1], ends, plain, pad)

    def test_bad_bits_and_unequal_columns_are_refused_under_python_O(self):
        code = textwrap.dedent("""
            from pinkey import NetworkSpec, Transcript, generate_pairwise_keys

            assert False, "assertions must be off"
            store = generate_pairwise_keys(NetworkSpec(2, {(0, 1): 4}), 1)
            store.take_each({(0, 1): 4})
            basis = store.basis
            for pad in ([1, 2], [4], [-1], [0]):
                try:
                    Transcript(basis, [0], [0], [1], [1], [0], pad)
                except ValueError as exc:
                    print("refused:", exc)
            t = Transcript(basis, [0], [0], [1], [1], [0], [1])
            print(len(t), t.public_bits, t.basis is basis)
        """)
        assert run_optimized(code) == (
            "refused: plain and pad must have equal length\n"
            "refused: plain and pad must be ids of bits in the basis\n"
            "refused: plain and pad must be ids of bits in the basis\n"
            "refused: a public bit's plain and pad must be different ids\n"
            "1 1 True\n")

    def test_pads_are_never_reused_across_a_run(self):
        rng = random.Random(703)
        for _ in range(10):
            spec = random_connected_spec(rng, max_m=5, max_budget=5)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            result = run_group_key(store)
            pads = [p for msg in result.transcript for p in msg.pads]
            assert len(pads) == len(set(pads))

    def test_forms_reproduce_payload_bits(self):
        store = generate_pairwise_keys(TRIANGLE, 15)
        result = run_subgroup(store, 0, 2)
        values = result.basis.realized()
        for msg in result.transcript:
            for bit, form in zip(msg.payload, msg.forms):
                a, b = form.labels
                assert values[a] ^ values[b] == bit

    def test_the_payload_is_computed_from_the_plain_and_pad_ids_and_is_immutable(self):
        rng = random.Random(2502)
        for _ in range(40):
            spec = random_spec(rng, max_m=5, max_budget=9)
            basis = full_basis(spec, rng.randrange(2**16))
            n = len(basis)
            if n < 2:
                continue
            widths = [rng.randint(1, min(4, n - 1)) for _ in range(rng.randint(0, 5))]
            plain = [rng.randrange(n - width + 1) for width in widths]
            pad = [rng.choice([i for i in range(n - width + 1) if i != a]) for a, width in zip(plain, widths)]
            ends = list(accumulate(widths))
            t = Transcript(basis, [0] * len(ends), [0] * len(ends), [1] * len(ends), ends, plain, pad)
            assert type(t.payload) is bytes
            assert t.payload == bytes(basis.values[a + i] ^ basis.values[b + i]
                                      for a, b, width in zip(plain, pad, widths) for i in range(width))
            assert [bit for msg in t for bit in msg.payload] == list(t.payload)
            if widths:
                with pytest.raises(TypeError):
                    t.payload[0] ^= 1

    def test_runs_equal_their_one_bit_per_message_expansion(self):
        # random routes through flood: each transcript read as runs gives what its bits give one per message
        rng = random.Random(3404)
        wide = 0
        for _ in range(150):
            m = rng.randint(2, 6)
            store = generate_pairwise_keys(NetworkSpec.complete(m, 40), rng.randrange(2**32))
            routes = []
            for _ in range(rng.randint(1, 3)):
                nodes = rng.sample(range(m), rng.randint(2, m))
                edges = [canonical_pair(v, rng.choice(nodes[:k])) for k, v in enumerate(nodes) if k]
                seed = rng.choice(edges) if rng.random() < 0.5 else rng.choice(nodes)
                routes.append((edges, seed, rng.randint(1, 4)))
            key_ids, t = flood(store, routes, together=rng.random() < 0.5)
            widths = list(map(sub, t.ends, [0, *t.ends]))
            plain, pad = ([a + i for a, width in zip(column, widths) for i in range(width)]
                          for column in (t.plain, t.pad))
            rounds, senders, receivers = ([x for x, width in zip(column, widths) for _ in range(width)]
                                          for column in (t.rounds, t.senders, t.receivers))
            ones = Transcript(t.basis, rounds, senders, receivers, range(1, len(plain) + 1), plain, pad)
            assert t.payload == ones.payload and t.forms() == ones.forms()
            assert [(msg.plain, msg.pad) for msg in t] == [
                (tuple(plain[start:end]), tuple(pad[start:end])) for start, end in zip([0, *t.ends], t.ends)]
            terminals = range(m + 1)
            assert _learned(set(key_ids), t, terminals) == _learned(set(key_ids), ones, terminals)
            assert t.to_text() == reference_text(t)
            wide += max(widths, default=1) > 1
        assert wide >= 100, wide


def columns_transcript(basis, messages):
    """A transcript over ``basis`` of messages given as runs (plain ids, pad ids), one round each."""
    return transcript_of(basis, (PublicMessage(0, 1, r, (), plain, pad, basis)
                                 for r, (plain, pad) in enumerate(messages)))


class TestRenderingPaths:
    """``to_text`` renders a message whose runs each lie in one basis run, of two prefixes, from
    their prefixes and every other message from its own bits' labels; both must give the bytes
    of bit-by-bit rendering."""

    @staticmethod
    def store():
        # K0-1 sorts after K0-12 and K1-2 before R1; pair {0, 1} is drawn in two runs
        spec = NetworkSpec(13, {(0, 1): 240, (0, 12): 120, (1, 2): 120, (0, 2): 120})
        store = generate_pairwise_keys(spec, 5)
        ids = {"K0-1": list(take(store, 0, 1, 120)), "K0-12": list(take(store, 0, 12, 120)),
               "K1-2": list(take(store, 1, 2, 120)), "R1": list(store.fresh(1, 120)),
               "K0-1 again": list(take(store, 0, 1, 120)), "K0-2": list(take(store, 0, 2, 120))}
        return store, ids

    def test_both_paths_render_every_form_as_bit_by_bit(self):
        store, ids = self.store()
        a, b, c, r, again, d = ids.values()
        runs = [(a[0:5], b[3:8]), (b[0:4], a[5:9]), (a[95:105], b[7:17]), (c[0:6], r[0:6]), (r[6:12], c[6:12]),
                (again[5:10], d[0:5]), (d[98:118], again[90:110])]
        others = [
            (again[0:5], a[5:10]),  # two runs of one prefix
            (d[0:5], d[10:15]),  # one run
            (a[118:120] + b[0:2], d[20:24]),  # consecutive ids across a run boundary, K0-1 then K0-12
            (c[20:24], r[117:120] + again[0:1]),  # consecutive ids across a run boundary, R1 then K0-1
            (a[50:52], a[53:55]),  # one run, one prefix
        ]
        ones = [(a[60:61], b[60:61]), (r[60:61], c[60:61]), (again[60:61], a[61:62]), (d[9:10], d[99:100])]
        cases = [runs, others, ones, runs + ones, others + runs, runs + others + ones, []]
        for messages in cases:
            transcript = columns_transcript(store.basis, messages)
            assert transcript.to_text() == reference_text(transcript)
        lines = columns_transcript(store.basis, runs[:3]).to_text().splitlines()
        assert lines[1].endswith(" K0-12:3^K0-1:0;K0-12:4^K0-1:1;K0-12:5^K0-1:2;K0-12:6^K0-1:3;K0-12:7^K0-1:4")
        assert lines[2].endswith(" K0-12:0^K0-1:5;K0-12:1^K0-1:6;K0-12:2^K0-1:7;K0-12:3^K0-1:8")
        assert lines[3].split(" ")[4].split(";")[4:6] == ["K0-12:11^K0-1:99", "K0-12:12^K0-1:100"]

    def test_run_messages_read_no_basis_labels(self, monkeypatch):
        store, ids = self.store()
        a, b, c, r, again, d = ids.values()
        star = run_broadcast(generate_pairwise_keys(NetworkSpec.star([7, 5, 9, 12]), 3)).transcript
        # two paths from 0 to 2, each of 3 or 4 bits: every message is wider than 1
        relay = run_subgroup(generate_pairwise_keys(TRIANGLE, 4), 0, 2).transcript
        # four paths from 0 to 4 of 3, 1, 3 and 2 bits: one-bit messages among wide ones
        spec = NetworkSpec(5, {(0, 1): 3, (0, 2): 3, (0, 3): 3, (0, 4): 2, (1, 2): 4, (1, 3): 3, (1, 4): 3,
                               (2, 3): 3, (3, 4): 4})
        paths = run_subgroup(generate_pairwise_keys(spec, 4), 0, 4).transcript
        hand = columns_transcript(store.basis, [(a[0:5], b[3:8]), (r[6:12], c[6:12]), (again[5:10], d[0:5])])
        assert {msg.round for msg in relay} == {0, 1} and min(len(msg.payload) for msg in relay) > 1
        assert {len(msg.payload) for msg in paths} == {1, 2, 3}
        # a message whose two runs share a prefix renders its own bits' labels
        shared = columns_transcript(store.basis, [(a[0:2], a[2:4])])
        transcripts = [star, relay, paths, hand, shared]
        expected = [reference_text(transcript) for transcript in transcripts]

        def refuse(basis):
            raise AssertionError("a run message rendered labels of the basis")

        monkeypatch.setattr(SourceBitBasis, "labels", property(refuse))
        assert [transcript.to_text() for transcript in transcripts] == expected


def hand_built(spec, seed, key_ids, plain, pad):
    """A faithful one-bit-per-message transcript of the rows ``plain[k] ^ pad[k]`` over the
    pair bits of ``spec``, and the label-level audit's secrecy report of the key ``key_ids``
    against it; no result is built, as one with a pad that is not private cannot be."""
    basis = full_basis(spec, seed)
    n = len(pad)
    transcript = Transcript(basis, [0] * n, [0] * n, [1] * n, range(1, n + 1), plain, pad)
    key_forms = [LinearForm.unit(basis.label(ident)) for ident in key_ids]
    return transcript, verify_independence(key_forms, transcript.forms(), basis)


def hand_built_pads(rng, kind, ids, key_ids):
    """Rows ``plain[k] ^ pad[k]`` over ``ids`` with distinct pads that are all private, or,
    for ``kind`` "key" or "plain", of which one is a key id or another row's plain id."""
    free = [i for i in ids if i not in key_ids]
    pad = rng.sample(free, rng.randint(2 if kind == "plain" else 1, len(free)))
    k = rng.randrange(len(pad))
    if kind == "key":
        pad[k] = rng.choice(key_ids)
    plain = [rng.choice([i for i in ids if i not in pad]) for _ in pad]
    if kind == "plain":
        plain[k] = rng.choice([p for p in pad if p != pad[k]])
    return plain, pad


# Star of four leaves, ids 0-1 pair {0, 1}, 2-3 {0, 2}, 4-5 {0, 3}, 6 {0, 4}; the key is bit 0.
# Pad 2 is also a plain bit, and pad 0 is the key bit.  Terminal 3 would see the key only as
# the sum of the rows 0 ^ 2 and 2 ^ 4, and terminal 4 not at all.
COMBINATION = (NetworkSpec.star([2, 2, 2, 1]), 4, [0], [0, 2, 1], [2, 4, 0])


class TestHandBuiltTranscripts:
    def test_construction_and_replay_agree_with_the_oracles(self):
        rng = random.Random(1812)
        kinds = dict.fromkeys(("private", "key", "plain"), 0)
        for trial in range(210):
            kind = list(kinds)[trial % 3]
            spec = (random_connected_spec(rng, max_m=4, max_budget=3) if rng.random() < 0.5
                    else NetworkSpec.star([rng.randint(1, 3) for _ in range(rng.randint(1, 3))]))
            ids = list(range(spec.total_budget()))
            if len(ids) < 3:
                continue
            key_ids = rng.sample(ids, rng.randint(1, min(2, len(ids) - 2)))
            plain, pad = hand_built_pads(rng, kind, ids, key_ids)
            transcript, audit = hand_built(spec, rng.randrange(2**16), key_ids, plain, pad)
            kinds[kind] += 1
            if kind != "private":
                with pytest.raises(InvariantViolation, match="a pad bit is not private"):
                    GroupKeyResult(frozenset(), key_ids, transcript, None)
                for terminal in range(spec.m):  # nor with any one terminal as its holder
                    with pytest.raises(InvariantViolation, match="a pad bit is not private"):
                        GroupKeyResult(frozenset({terminal}), key_ids, transcript, None)
                continue
            result = GroupKeyResult(frozenset(), key_ids, transcript, None)
            holders = set()
            for terminal in range(spec.m):
                replayed = reference_replay(result, terminal)
                assert replay_key(result, terminal) == replayed
                if replayed is not None:
                    assert replayed == result.key
                    holders.add(terminal)
            # the self-check passes, and the closed form it stands for is the audit's
            replace(result, holders=frozenset(holders))
            assert audited(audit) == closed_form(len(key_ids), result.transcript.public_bits)
            for outsider in set(range(spec.m)) - holders:
                with pytest.raises(InvariantViolation, match=f"holder {outsider} cannot replay"):
                    replace(result, holders=frozenset(holders | {outsider}))
            if len(result.basis) <= MI_BASIS_LIMIT:
                assert brute_force_mutual_information(
                    result.key_forms, result.transcript.forms(), len(result.basis)) == 0
        assert min(kinds.values()) >= 50, kinds

    def test_a_key_bit_seen_only_as_a_combination_is_refused(self):
        transcript, audit = hand_built(*COMBINATION)
        key_ids = COMBINATION[2]
        # the label-level audit finds no leak, but the pads are not private
        assert audit.leaked_bits == 0 and audit.rank_transcript == 3
        with pytest.raises(InvariantViolation, match="a pad bit is not private"):
            GroupKeyResult(frozenset({3}), key_ids, transcript, None)
        for terminal in range(5):
            with pytest.raises(InvariantViolation, match="a pad bit is not private"):
                GroupKeyResult(frozenset({terminal}), key_ids, transcript, None)

    def test_a_holder_short_of_the_key_is_named_under_python_O(self):
        code = textwrap.dedent(f"""
            from pinkey import NetworkSpec, Transcript, generate_pairwise_keys, run_broadcast
            from pinkey.errors import InvariantViolation
            from pinkey.protocols import GroupKeyResult

            assert False, "assertions must be off"
            spec = NetworkSpec.star([7, 5, 9])
            result = run_broadcast(generate_pairwise_keys(spec, 3))
            t = result.transcript
            # leaf 3 loses its re-keying message, the last one
            n = len(t) - 1
            dropped = Transcript(t.basis, t.rounds[:n], t.senders[:n], t.receivers[:n], t.ends[:n],
                                 t.plain[:n], t.pad[:n])
            spec = NetworkSpec.star({list(COMBINATION[0].budgets.values())!r})
            seed, key_ids, plain, pad = {COMBINATION[1:]!r}
            store = generate_pairwise_keys(spec, seed)
            for pair in spec.pairs():
                store.take_each({{pair: spec.budget(*pair)}})
            shared = Transcript(store.basis, [0] * 3, [0] * 3, [1] * 3, [1, 2, 3], plain, pad)
            for holders, key, transcript in [(result.holders, result.key_ids, dropped),
                                             (frozenset(range(5)), key_ids, shared)]:
                try:
                    GroupKeyResult(holders, key, transcript, None)
                except InvariantViolation as exc:
                    print("caught:", exc)
        """)
        assert run_optimized(code) == ("caught: holder 3 cannot replay the key\n"
                                       "caught: a pad bit is not private\n")


class TestSelfCheck:
    def test_a_reused_pad_is_caught(self):
        spec = NetworkSpec.star([7, 5, 9])
        result = run_broadcast(generate_pairwise_keys(spec, 3))
        # resending a message keeps every form faithful but pads twice
        messages = list(result.transcript)
        bad = transcript_of(result.basis, messages + messages[-1:])
        with pytest.raises(InvariantViolation, match="pad bit was reused"):
            replace(result, transcript=bad)
        # the pads are checked before any holder, so a lone holder finds the same fault
        with pytest.raises(InvariantViolation, match="pad bit was reused"):
            replace(result, transcript=bad, holders=frozenset({1}))

    def test_a_holder_short_of_the_key_is_caught(self):
        store = generate_pairwise_keys(TRIANGLE, 5)
        result = run_subgroup(store, 0, 2)
        # the relay sees only 3 of the 7 key bits
        with pytest.raises(InvariantViolation, match="holder 1 cannot replay"):
            replace(result, holders=frozenset({0, 1, 2}))

    def test_a_holder_is_checked_without_the_bits_of_the_holders_before_it(self):
        spec = NetworkSpec.star([7, 5, 9])
        result = run_broadcast(generate_pairwise_keys(spec, 3))
        # leaf 3 loses its re-keying message; the center, checked first, owns
        # every key bit, so its own rows must be gone again when leaf 3 is checked
        bad = transcript_of(result.basis, list(result.transcript)[:-1])
        assert list(bad)[-1].receiver == 1
        with pytest.raises(InvariantViolation, match="holder 3 cannot replay"):
            replace(result, transcript=bad)

    def test_a_repeated_key_bit_is_caught_under_python_O(self):
        # every holder replays [k, k], but a key of one bit twice is not uniform
        result = run_broadcast(generate_pairwise_keys(NetworkSpec.star([7, 5, 9]), 3))
        k = result.key_ids[0]
        with pytest.raises(InvariantViolation, match="a key bit repeats"):
            replace(result, key_ids=(k, k))
        code = textwrap.dedent("""
            from dataclasses import replace

            from pinkey import NetworkSpec, generate_pairwise_keys, run_broadcast
            from pinkey.errors import InvariantViolation

            assert False, "assertions must be off"
            result = run_broadcast(generate_pairwise_keys(NetworkSpec.star([7, 5, 9]), 3))
            k = result.key_ids[0]
            replace(result, key_ids=result.key_ids[:1])
            try:
                replace(result, key_ids=[k, k])
            except InvariantViolation as exc:
                print("caught:", exc)
        """)
        assert run_optimized(code) == "caught: a key bit repeats\n"


def random_routes(rng, store, count):
    """Up to ``count`` random routes over the pairs with unused bits: a random tree on a random
    node set, seeded by one of its edges or nodes, one or two bits wide."""
    spec, routes = store.spec, []
    for _ in range(count):
        nodes = rng.sample(range(spec.m), rng.randint(2, spec.m))
        pairs = [(i, j) for i in nodes for j in nodes if i < j and store.remaining(i, j) > 0]
        rng.shuffle(pairs)
        component = {v: v for v in nodes}
        tree = []
        for i, j in pairs:
            a, b = component[i], component[j]
            if a != b:
                tree.append((i, j))
                component = {v: a if c == b else c for v, c in component.items()}
        if len(tree) == len(nodes) - 1:
            routes.append((tree, rng.choice([rng.choice(tree), rng.choice(nodes)]), rng.randint(1, 2)))
    return routes


class TestReplay:
    def test_replay_matches_the_reference_on_shared_stores(self):
        rng = random.Random(2903)
        results, later = 0, 0
        for _ in range(80):
            spec = random_connected_spec(rng, max_m=5, max_budget=9)
            store = generate_pairwise_keys(spec, rng.randrange(2**16))
            runs = []
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.3:
                    s, t = rng.sample(range(spec.m), 2)
                    try:
                        runs.append(run_subgroup(store, s, t))
                    except InsufficientKeyMaterial:
                        pass
                    continue
                routes = random_routes(rng, store, rng.randint(1, 3))
                if not routes:
                    continue
                try:
                    key_ids, transcript = flood(store, routes)
                except InsufficientKeyMaterial:
                    continue
                nodes = set.intersection(*({v for edge in tree for v in edge} for tree, _, _ in routes))
                runs.append(GroupKeyResult(frozenset(nodes), key_ids, transcript, None))
            # earlier runs are replayed after later runs drew from the store too
            for result in runs:
                holders = set()
                for terminal in range(spec.m + 1):
                    replayed = reference_replay(result, terminal)
                    assert replay_key(result, terminal) == replayed
                    if replayed is not None:
                        holders.add(terminal)
                assert result.holders <= holders
                replace(result, holders=frozenset(holders))
                results += 1
                later += min(result.transcript.pad, default=0) > 0  # the run's ids start past 0
        assert results >= 100 and later >= 40, (results, later)

    def test_a_key_id_outside_the_basis_is_refused_under_python_O(self):
        code = textwrap.dedent("""
            from dataclasses import replace
            from pinkey import NetworkSpec, generate_pairwise_keys, run_subgroup
            from pinkey.errors import InvariantViolation

            triangle = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])
            result = run_subgroup(generate_pairwise_keys(triangle, 7), 0, 2)
            size = len(result.basis)
            # -1 would read the last bit and True id 1; a bound of 7 or none, and no holder or one
            for outside in (-1, size, size + 5, True):
                for change in ({}, {"bound": None}, {"bound": None, "holders": frozenset()},
                               *({"bound": None, "holders": frozenset({v})} for v in range(4))):
                    try:
                        replace(result, key_ids=(*result.key_ids, outside), **change)
                        print(outside, "built")
                    except InvariantViolation as exc:
                        print(outside, "caught:", exc)
            # a key of the last id alone is in the basis
            print(replace(result, key_ids=(size - 1,), bound=None, holders=frozenset()).key == result.basis.bits([size - 1]))
        """)
        size = len(run_subgroup(generate_pairwise_keys(TRIANGLE, 7), 0, 2).basis)
        expected = "".join(f"{outside} caught: a key bit is not in the basis\n" * 7
                           for outside in (-1, size, size + 5, True)) + "True\n"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, {})
        assert out.getvalue() == expected
        assert run_optimized('assert False, "assertions must be off"\n' + code) == expected

    @pytest.mark.parametrize("holder", [True, "a", -1, 1.0, None])
    def test_a_holder_that_is_no_nonnegative_int_is_refused(self, holder):
        result = run_subgroup(generate_pairwise_keys(TRIANGLE, 7), 0, 2)
        # True would stand for terminal 1, and "a" could not be sorted with the ints
        for holders in ({holder}, {holder, 0, 2}):
            with pytest.raises(InvariantViolation, match="a holder is not a nonnegative int"):
                replace(result, holders=frozenset(holders))

    @pytest.mark.parametrize("terminal", [2.0, True, False, None, -1, "2", 1.5])
    def test_a_terminal_that_is_no_nonnegative_int_is_refused(self, terminal):
        result = run_subgroup(generate_pairwise_keys(TRIANGLE, 7), 0, 2)
        # 2.0 == 2 and True == 1 would otherwise answer as terminals 2 and 1
        assert replay_key(result, 2) == result.key and replay_key(result, 1) is None
        with pytest.raises(ValueError, match="is not a nonnegative int"):
            replay_key(result, terminal)

    def test_each_pad_that_is_not_private_is_refused_alike_under_python_O(self):
        # an earlier draw, so that the run's ids start past 0; then key bit k and pads a, b, c
        code = textwrap.dedent("""
            from pinkey import NetworkSpec, Transcript, generate_pairwise_keys, replay_key
            from pinkey.errors import InvariantViolation
            from pinkey.protocols import GroupKeyResult

            store = generate_pairwise_keys(NetworkSpec.star([6, 6, 6]), 3)
            store.take_each({(0, 1): 2})
            k, a, b, c = store.take_each({(0, 2): 4})[0, 2]
            cases = {"private": ([k], [a]), "reused": ([k, b], [a, a]), "key": ([b], [k]),
                     "plain": ([k, b], [b, c]), "reused and plain": ([k, b, a], [b, c, c])}
            for name, (plain, pad) in cases.items():
                n = len(pad)
                transcript = Transcript(store.basis, [0] * n, [0] * n, [2] * n, range(1, n + 1), plain, pad)
                # a result with holders, and one without whose key terminal 2 replays
                for check in (lambda: GroupKeyResult(frozenset({0, 2}), (k,), transcript, None).key_ids == (k,),
                              lambda: replay_key(GroupKeyResult(frozenset(), (k,), transcript, None), 2) is not None):
                    try:
                        print(name, check())
                    except InvariantViolation as exc:
                        print(name, "caught:", exc)
        """)
        expected = ("private True\nprivate True\n"
                    + "".join(f"{name} caught: {message}\n" * 2 for name, message in [
                        ("reused", "a pad bit was reused"), ("key", "a pad bit is not private"),
                        ("plain", "a pad bit is not private"), ("reused and plain", "a pad bit was reused")]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, {})
        assert out.getvalue() == expected
        assert run_optimized('assert False, "assertions must be off"\n' + code) == expected


def is_wide(transcript) -> bool:
    return bool(transcript.ends) and transcript.ends[-1] > len(transcript.ends)


class TestLearnedAgainstThePerIdReference:
    """``_learned`` checks and counts wide transcripts over id intervals; ``reference_learned``
    does it per id, as every transcript was once checked."""

    EXPECTED = {
        "a pad run crosses a basis run": [5, 3, 3, 0],
        "pad runs meet by one id": "a pad bit was reused",
        "pad runs side by side": [5, 2, 3, 0],
        "a pad run meets a plain run by one id": "a pad bit is not private",
        "a pad run beside a plain run": [5, 0, 3, 0],
        "a pad run meets its own plain run": "a pad bit is not private",
        "a pad run meets a wanted id by one id": "a pad bit is not private",
        "a pad run beside a wanted id": [6, 0, 4, 0],
        "pad runs reused and plain": "a pad bit was reused",
        "wanted runs of one id": [5, 3, 3, 0],
    }

    def test_hand_built_wide_transcripts(self):
        cases = wide_cases()
        assert cases.keys() == self.EXPECTED.keys()
        for name, (wanted, transcript) in cases.items():
            assert is_wide(transcript), name
            got = learned_or_fault(_learned, wanted, transcript, range(4))
            assert got == learned_or_fault(reference_learned, wanted, transcript, range(4)) == self.EXPECTED[name], name

    def test_random_floods(self):
        seen = {(wide, fault): 0 for wide in (False, True) for fault in (False, True)}
        for wanted, transcript in learned_cases(random.Random(3606), 400):
            got = learned_or_fault(_learned, wanted, transcript, range(6))
            assert got == learned_or_fault(reference_learned, wanted, transcript, range(6)), (wanted, transcript.to_text())
            seen[is_wide(transcript), type(got) is str] += 1
        assert min(seen.values()) >= 30, seen

    def test_counts_and_faults_are_the_same_under_python_O(self):
        code = textwrap.dedent(f"""
            import random, sys
            sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
            from helpers import learned_cases, learned_or_fault, reference_learned
            from pinkey.protocols import _learned

            assert False, "assertions must be off"
            for wanted, transcript in learned_cases(random.Random(3607), 150):
                got = learned_or_fault(_learned, wanted, transcript, range(6))
                print(got, got == learned_or_fault(reference_learned, wanted, transcript, range(6)))
        """)
        expected = [f"{got} True" for got in (learned_or_fault(_learned, wanted, transcript, range(6))
                                              for wanted, transcript in learned_cases(random.Random(3607), 150))]
        assert run_optimized(code).splitlines() == expected

    def test_a_wide_check_takes_no_step_per_payload_bit(self, monkeypatch):
        # star broadcasts of 8 and of 800 key bits: the self-check runs the same Python lines, and
        # never expands a message into its bits
        def refuse(self, firsts):
            raise AssertionError("a wide message was expanded into its bits")

        lines = []

        def trace(frame, event, arg):  # the lines run in the package's protocols module
            if frame.f_code.co_filename != _learned.__code__.co_filename:
                return None
            if event == "line":
                lines.append(frame.f_lineno)
            return trace

        monkeypatch.setattr(Transcript, "_bits", refuse)
        traced = []
        for budget in (8, 800):
            result = run_broadcast(generate_pairwise_keys(NetworkSpec.star([budget + 3, budget, budget + 1]), 2))
            lines.clear()
            sys.settrace(trace)
            try:
                replace(result)
            finally:
                sys.settrace(None)
            traced.append(list(lines))
        assert traced[0] and traced[0] == traced[1]
