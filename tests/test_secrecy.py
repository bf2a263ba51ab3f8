"""Rank-based secrecy accounting against the exhaustive histogram oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from pinkey import (
    LinearForm,
    NetworkSpec,
    SourceBitBasis,
    Transcript,
    generate_pairwise_keys,
    run_broadcast,
    run_group_key,
    run_subgroup,
)
from pinkey.cli import load_scenario, run_scenario
from pinkey.errors import InstanceTooLarge, InsufficientKeyMaterial, UnknownBasisLabel
from pinkey.oracles import MI_BASIS_LIMIT, brute_force_mutual_information, gf2_rank, verify_independence
from pinkey.protocols import GroupKeyResult, _learned

from helpers import (evaluate, full_basis, random_connected_spec, reference_mutual_information, reference_text,
                     take_all)

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def small_basis(n: int) -> SourceBitBasis:
    """Pair {0, 1}'s n key bits, labelled K0-1:0 to K0-1:{n-1}, all taken."""
    return full_basis(NetworkSpec(2, {(0, 1): n}), 0)


# the labels of small_basis's first bits
B0, B1, B2 = (f"K0-1:{t}" for t in range(3))


def form(*labels: str) -> LinearForm:
    return LinearForm(frozenset(labels))


class TestLinearForm:
    def test_evaluate(self):
        # the reference MI oracle evaluates a form as the XOR of its labels' values
        values = {"a": 1, "b": 1, "c": 0}
        for labels in [("a", "b"), ("a", "c"), (), ("a", "b", "c"), ("c",)]:
            expected = 0
            for label in labels:
                expected ^= values[label]
            assert evaluate(form(*labels), values) == expected

    def test_str_is_sorted(self):
        assert str(form("z", "a")) == "a^z"
        assert str(form()) == "0"


class TestRank:
    def test_gf2_rank(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([0b01, 0b10, 0b11]) == 2
        assert gf2_rank([0b101, 0b011, 0b110]) == 2
        assert gf2_rank([0, 0]) == 0

    def test_masked_key_leaks_nothing(self):
        basis = small_basis(2)
        report = verify_independence([form(B0)], [form(B0, B1)], basis)
        assert report.leaked_bits == 0
        assert report.uniform
        assert (report.rank_key, report.rank_transcript, report.rank_joint) == (1, 1, 2)

    def test_published_key_leaks_fully(self):
        basis = small_basis(1)
        report = verify_independence([form(B0)], [form(B0)], basis)
        assert report.leaked_bits == 1

    def test_partial_overlap(self):
        basis = small_basis(3)
        # transcript pins B0^B1 and B1^B2; key (B0, B2) loses one bit
        report = verify_independence(
            [form(B0), form(B2)], [form(B0, B1), form(B1, B2)], basis
        )
        assert report.leaked_bits == 1
        assert report.uniform

    def test_unused_basis_bits_do_not_change_the_report(self):
        # Rows span only the labels the forms mention, so thousands of
        # unused bits around the used ones must leave every rank alone.
        rng = random.Random(603)
        for _ in range(20):
            n = rng.randint(1, 6)
            labels = [f"K0-2:{t}" for t in range(n)]
            padded = full_basis(NetworkSpec(3, {(0, 1): 3000, (0, 2): n, (1, 2): 3000}), 0)
            key = [form(*rng.sample(labels, rng.randint(1, n))) for _ in range(rng.randint(0, 3))]
            transcript = [form(*rng.sample(labels, rng.randint(1, n))) for _ in range(rng.randint(0, 4))]
            assert verify_independence(key, transcript, padded) == verify_independence(
                key, transcript, full_basis(NetworkSpec(3, {(0, 2): n}), 0))

    def test_unknown_label(self):
        basis = small_basis(1)
        with pytest.raises(UnknownBasisLabel):
            verify_independence([form("nope")], [], basis)


class TestUniformity:
    def test_independent_units_are_uniform(self):
        keys = [form(B0), form(B1), form(B0, B1, B2)]
        assert verify_independence(keys, [], small_basis(3)).uniform

    def test_dependent_forms_are_not(self):
        basis = small_basis(2)
        assert not verify_independence([form(B0), form(B1), form(B0, B1)], [], basis).uniform
        assert not verify_independence([form(B0), form(B0)], [], basis).uniform

    def test_empty_key_is_vacuously_uniform(self):
        assert verify_independence([], [], small_basis(0)).uniform


class TestExhaustiveOracle:
    def test_independent_case(self):
        assert brute_force_mutual_information([form(B0)], [form(B0, B1)], 2) == 0

    def test_fully_leaked_case(self):
        assert brute_force_mutual_information([form(B0)], [form(B0)], 1) == Fraction(1)

    def test_partial_leak_is_exact(self):
        got = brute_force_mutual_information(
            [form(B0), form(B2)], [form(B0, B1), form(B1, B2)], 3
        )
        assert got == Fraction(1)

    def test_guards(self):
        with pytest.raises(InstanceTooLarge):
            brute_force_mutual_information([form(B0)], [], 21)
        with pytest.raises(ValueError):
            brute_force_mutual_information([form(B0, B1, B2)], [], 2)

    def test_equals_the_reference_on_random_systems(self):
        # 300 random systems over at most 10 labels, forms of any weight, leaks of 0 to 4 bits
        rng = random.Random(1034)
        leaks = set()
        for _ in range(300):
            labels = [f"K0-1:{t}" for t in range(rng.randint(0, 10))]

            def random_forms(count: int) -> list[LinearForm]:
                return [form(*(lab for lab in labels if rng.random() < rng.random())) for _ in range(count)]

            key, transcript = random_forms(rng.randint(0, 4)), random_forms(rng.randint(0, 6))
            value = brute_force_mutual_information(key, transcript, len(labels))
            assert value == reference_mutual_information(key, transcript), (key, transcript)
            leaks.add(value)
        assert {0, 1, 2, 3} <= leaks, leaks

    @pytest.mark.parametrize("name,views", [
        ("k4_uniform_group", range(5)),
        ("triangle_group", range(4)),
        ("star_broadcast", (1,)),
        # the relay, which learns 3 of the 7 key bits; the 17-bit basis takes the reference seconds per view
        ("triangle_subgroup", (1,)),
    ])
    def test_equals_the_reference_on_the_demo_bases(self, name, views):
        _, result = run_scenario(load_scenario(str(SCENARIOS / f"{name}.txt")))
        forms = result.transcript.forms()
        assert brute_force_mutual_information(result.key_forms, forms, len(result.basis)) == 0
        for v in views:
            own = forms + own_forms(result.basis, v)
            assert (brute_force_mutual_information(result.key_forms, own, len(result.basis))
                    == reference_mutual_information(result.key_forms, own))

    def test_rank_formula_matches_oracle_on_random_systems(self):
        # 50 random linear systems over at most 5 basis bits
        rng = random.Random(601)
        for _ in range(50):
            n = rng.randint(1, 5)
            basis = small_basis(n)
            labels = [f"K0-1:{t}" for t in range(n)]

            def random_forms(count: int) -> list[LinearForm]:
                out = []
                for _ in range(count):
                    chosen = [lab for lab in labels if rng.random() < 0.5]
                    out.append(form(*chosen))
                return out

            key = random_forms(rng.randint(0, 3))
            transcript = random_forms(rng.randint(0, 4))
            report = verify_independence(key, transcript, basis)
            oracle = brute_force_mutual_information(key, transcript, n)
            assert Fraction(report.leaked_bits) == oracle


def test_full_protocol_run_has_rank_six_and_no_leak():
    spec = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])
    store = generate_pairwise_keys(spec, 7)
    result = run_group_key(store)
    report = verify_independence(result.key_forms, result.transcript.forms(), result.basis)
    assert report.rank_key == 6
    assert report.leaked_bits == 0
    assert report.uniform
    # exhaustive confirmation on the 12-bit basis
    oracle = brute_force_mutual_information(
        result.key_forms, result.transcript.forms(), len(result.basis)
    )
    assert oracle == 0


def test_distinct_pairs_use_disjoint_labels():
    spec = NetworkSpec.from_pairs(4, [(0, 1, 3), (1, 2, 3), (2, 3, 2), (0, 3, 1)])
    store = generate_pairwise_keys(spec, 5)
    seen: set[str] = set()
    for ids in take_all(store).values():
        labels = set(map(store.basis.label, ids))
        assert not labels & seen
        seen.update(labels)


def own_forms(basis, terminal: int) -> list[LinearForm]:
    """The unit forms of the source bits the terminal owns."""
    return [LinearForm.unit(basis.label(ident)) for ids, owners in basis.runs() if terminal in owners
            for ident in ids]


def learned_by_the_oracle(result, terminals) -> list[Fraction]:
    """I(K; V, X_v) for each terminal v: how many key bits v computes from the transcript V and its
    own bits X_v, by exhaustive enumeration."""
    forms = result.transcript.forms()
    return [brute_force_mutual_information(result.key_forms, forms + own_forms(result.basis, v), len(result.basis))
            for v in terminals]


class TestWhatEachTerminalLearns:
    @pytest.mark.parametrize("name,counts", [
        ("k4_uniform_group", [1, 1, 1, 1, 0]),
        ("triangle_group", [6, 6, 6, 0]),
        # the relay forwards 3 of the 7 key bits, as demo 02 prints
        ("triangle_subgroup", [7, 3, 7, 0]),
    ])
    def test_demo_counts_equal_the_oracle(self, name, counts):
        scenario = load_scenario(str(SCENARIOS / f"{name}.txt"))
        _, result = run_scenario(scenario)
        assert len(result.basis) <= MI_BASIS_LIMIT
        terminals = range(scenario.spec.m + 1)  # terminal m owns no bit
        assert _learned(set(result.key_ids), result.transcript, terminals) == counts
        assert learned_by_the_oracle(result, terminals) == counts

    def test_counts_equal_the_oracle_on_random_bases(self):
        rng = random.Random(1004)
        checked, partial, later = 0, 0, 0
        while checked < 100:
            spec = (random_connected_spec(rng, max_m=4, max_budget=3) if rng.random() < 0.7
                    else NetworkSpec.star([rng.randint(1, 3) for _ in range(rng.randint(1, 3))]))
            store = generate_pairwise_keys(spec, rng.randrange(2**16))
            runs = [lambda: run_group_key(store, rng.choice(("lex-kruskal", "degree-min"))),
                    lambda: run_subgroup(store, *rng.sample(range(spec.m), 2))]
            if spec.is_star():
                runs.append(lambda: run_broadcast(store))
            if rng.random() < 0.3:  # a second run on the store, whose ids start past the first's
                rng.choice(runs)()
            try:
                result = rng.choice(runs)()
            except InsufficientKeyMaterial:
                continue
            if len(result.basis) > 12:  # at most 2**12 assignments per terminal for the oracle
                continue
            terminals = range(spec.m + 1)
            counts = _learned(set(result.key_ids), result.transcript, terminals)
            assert counts == learned_by_the_oracle(result, terminals), (spec, result.key_ids)
            checked += 1
            partial += any(0 < count < len(result.key_ids) for count in counts)
            later += min(result.transcript.pad, default=0) > 0
        assert partial >= 5 and later >= 10, (partial, later)

    def test_counts_on_wide_messages_equal_the_oracle(self):
        # terminal 0 sends its local bits r[0:2] to 1 padded by the ids 7 and 8, K0-2:3 and K1-2:0, a
        # pad run across two basis runs, and r[2:5] to 2 padded by K0-2 bits; terminal 1 owns K1-2, so
        # it learns the one bit that a K1-2 bit pads
        store = generate_pairwise_keys(NetworkSpec(3, {(0, 1): 4, (0, 2): 4, (1, 2): 4}), 1)
        _, c, d = store.take(0, 1, 4), store.take(0, 2, 4), store.take(1, 2, 4)
        r = store.fresh(0, 5)
        assert c[3] + 1 == d[0] and store.basis.label(d[0]) == "K1-2:0"
        transcript = Transcript(store.basis, [0, 0], [0, 0], [1, 2], [2, 5], [r[0], r[2]], [c[3], c[0]])
        assert transcript.to_text() == reference_text(transcript)
        result = GroupKeyResult(frozenset(), tuple(r), transcript, None)
        terminals = range(4)
        counts = _learned(set(result.key_ids), transcript, terminals)
        assert counts == learned_by_the_oracle(result, terminals)
        assert counts == [5, 1, 5, 0]

    def test_a_terminal_that_learns_the_key_from_its_first_run_counts_as_the_oracle(self):
        # every tree is seeded by pair {0, 1}, so terminals 0 and 1 own all four key ids in their
        # first run, K0-1, and each owns a later run; terminal 2 learns the key through its pads
        result = run_group_key(generate_pairwise_keys(NetworkSpec(3, {(0, 1): 4, (0, 2): 2, (1, 2): 2}), 2))
        (first, _), *later = result.basis.runs()
        assert set(result.key_ids) <= set(first)
        assert all(any(terminal in owners for _, owners in later) for terminal in (0, 1))
        assert result.transcript.to_text() == reference_text(result.transcript)
        terminals = range(4)
        counts = _learned(set(result.key_ids), result.transcript, terminals)
        assert counts == learned_by_the_oracle(result, terminals) == [4, 4, 4, 0]
