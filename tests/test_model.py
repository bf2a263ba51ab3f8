"""Key-material model: budgets, generation, and consumption discipline."""

from __future__ import annotations

import random

import pytest

from pinkey import LinearForm, NetworkSpec, generate_pairwise_keys, verify_independence
from pinkey.errors import InsufficientKeyMaterial, UnknownBasisLabel
from pinkey.model import SourceBitBasis, _pair_rng, canonical_pair, local_rng, pair_bit_label

from helpers import random_spec

TRIANGLE = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])


class TestNetworkSpec:
    def test_budgets_are_symmetric_lookups(self):
        assert TRIANGLE.budget(0, 1) == TRIANGLE.budget(1, 0) == 5
        assert TRIANGLE.budget(1, 2) == 3

    def test_absent_pair_is_zero(self):
        spec = NetworkSpec(4, {(0, 1): 2})
        assert spec.budget(2, 3) == 0

    def test_zero_budgets_are_dropped(self):
        spec = NetworkSpec(3, {(0, 1): 2, (0, 2): 0})
        assert spec.pairs() == [(0, 1)]
        assert spec.total_budget() == 2

    def test_rejects_self_pair_and_bad_ranges(self):
        with pytest.raises(ValueError):
            NetworkSpec.from_pairs(3, [(1, 1, 4)])
        with pytest.raises(ValueError):
            NetworkSpec(3, {(0, 3): 1})
        with pytest.raises(ValueError):
            NetworkSpec(3, {(1, 0): 1})  # non-canonical key
        with pytest.raises(ValueError):
            NetworkSpec(3, {(0, 1): -2})
        with pytest.raises(ValueError):
            NetworkSpec(1, {})

    def test_star_and_complete_builders(self):
        star = NetworkSpec.star([7, 5, 9])
        assert star.m == 4 and star.is_star()
        assert star.budget(0, 2) == 5
        k4 = NetworkSpec.complete(4, 2)
        assert len(k4.pairs()) == 6 and not k4.is_star()
        assert TRIANGLE.is_star() is False

    def test_canonical_pair(self):
        assert canonical_pair(4, 1) == (1, 4)
        with pytest.raises(ValueError):
            canonical_pair(2, 2)


class TestGeneration:
    def test_lengths_match_budgets(self):
        store = generate_pairwise_keys(TRIANGLE, 7)
        assert len(store.key_bits(0, 1)) == 5
        assert len(store.key_bits(0, 2)) == 4
        assert len(store.key_bits(1, 2)) == 3
        assert store.key_bits(0, 1) == store.key_bits(1, 0)

    def test_same_seed_reproduces_exactly(self):
        a = generate_pairwise_keys(TRIANGLE, 42)
        b = generate_pairwise_keys(TRIANGLE, 42)
        for pair in TRIANGLE.pairs():
            assert a.key_bits(*pair) == b.key_bits(*pair)

    def test_different_pairs_get_different_streams(self):
        # same spec, seed 7: the (0,1) and (0,2) keys must not coincide
        store = generate_pairwise_keys(TRIANGLE, 7)
        k01, k02 = store.key_bits(0, 1), store.key_bits(0, 2)
        assert any(x != y for x, y in zip(k01, k02))

    def test_different_seeds_differ_over_64_bits(self):
        spec = NetworkSpec(2, {(0, 1): 80})
        assert generate_pairwise_keys(spec, 1).key_bits(0, 1) != generate_pairwise_keys(spec, 2).key_bits(0, 1)

    def test_basis_layout_is_canonical(self):
        store = generate_pairwise_keys(TRIANGLE, 0)
        labels = store.basis.labels
        assert labels[:5] == tuple(pair_bit_label(0, 1, t) for t in range(5))
        assert labels[5:9] == tuple(pair_bit_label(0, 2, t) for t in range(4))
        assert len(labels) == TRIANGLE.total_budget()
        assert len(set(labels)) == len(labels)

    def test_owners_are_the_endpoints(self):
        store = generate_pairwise_keys(TRIANGLE, 0)
        assert store.basis.owners_of("K0-1:0") == frozenset({0, 1})
        assert store.basis.owners_of("K1-2:2") == frozenset({1, 2})
        with pytest.raises(UnknownBasisLabel):
            store.basis.owners_of("K0-1:99")

    def test_local_bits_get_fresh_labels_and_one_owner(self):
        store = generate_pairwise_keys(TRIANGLE, 0)
        before = len(store.basis)
        labels = store.basis.new_local_bits(1, 3, local_rng(0, 1))
        assert labels == ["R1:0", "R1:1", "R1:2"]
        assert len(store.basis) == before + 3
        assert store.basis.owners_of("R1:1") == frozenset({1})

    def test_bits_match_one_getrandbits_call_per_bit(self):
        # Key generation draws each pair's bits at once; the result must be
        # the bit-by-bit stream, with the same labels, order and owners.
        rng = random.Random(31)
        specs = [random_spec(rng, max_m=5, max_budget=300) for _ in range(8)]
        specs.append(NetworkSpec(2, {(0, 1): 1000}))
        for seed, spec in enumerate(specs):
            basis = generate_pairwise_keys(spec, seed).basis
            expected = []
            for i, j in spec.pairs():
                stream = _pair_rng(seed, i, j)
                expected += [(pair_bit_label(i, j, t), stream.getrandbits(1), frozenset((i, j)))
                             for t in range(spec.budget(i, j))]
            assert [(lab, basis.value_of(lab), basis.owners_of(lab)) for lab in basis.labels] == expected

    def test_local_bits_match_one_getrandbits_call_per_bit(self):
        basis = SourceBitBasis()
        for owner, count in ((2, 1), (2, 33), (0, 240), (2, 5)):
            drawn, reference = local_rng(7, owner), local_rng(7, owner)
            start = len([lab for lab in basis.labels if lab.startswith(f"R{owner}:")])
            labels = basis.new_local_bits(owner, count, drawn)
            assert labels == [f"R{owner}:{start + t}" for t in range(count)]
            assert [basis.value_of(lab) for lab in labels] == [reference.getrandbits(1) for _ in labels]
            assert {basis.owners_of(lab) for lab in labels} == {frozenset((owner,))}
            # the stream is left where the bit-by-bit draw leaves it
            assert drawn.getrandbits(64) == reference.getrandbits(64)

    @pytest.mark.parametrize("labels,values,owners,needle", [
        (["K0-1:4"], (0,), frozenset((0, 1)), "duplicate basis label 'K0-1:4'"),
        (["x", "y", "x"], (0, 1, 0), frozenset((0,)), "duplicate basis label 'x'"),
        (["x", "y"], (0, 2), frozenset((0,)), "must be 0 or 1, got 2"),
        (["z"], (2,), frozenset((0,)), "must be 0 or 1, got 2"),
        (["x"], (1,), frozenset(), "at least one owner"),
        (["x", "y"], (1,), frozenset((0,)), "2 labels but 1 values"),
    ])
    def test_bulk_registration_rejects_bad_bits(self, labels, values, owners, needle):
        basis = generate_pairwise_keys(TRIANGLE, 0).basis
        before = basis.labels
        with pytest.raises(ValueError, match=needle):
            basis.add_bits(labels, values, owners)
        # nothing of a rejected call is registered
        assert basis.labels == before
        if len(labels) == 1:  # add is the one-bit case of the same checks
            with pytest.raises(ValueError, match=needle):
                basis.add(labels[0], values[0], owners)


class TestIds:
    def test_labels_are_parsed_only_when_written_canonically(self):
        basis = generate_pairwise_keys(TRIANGLE, 0).basis
        assert [basis.id_of(lab) for lab in ("K0-1:0", "K0-1:4", "K0-2:0", "K1-2:2")] == [0, 4, 5, 11]
        for label in ("K0-1:04", "K0-1:+4", "K0-1:\u0664", "K0-1:5", "K1-0:0", "K0-1", "K0-1:", "4"):
            assert basis.id_of(label) is None and label not in basis, label
        with pytest.raises(UnknownBasisLabel):
            basis.value_of("K0-1:04")

    def test_labels_render_from_ids_in_bulk_as_one_by_one(self):
        basis = generate_pairwise_keys(TRIANGLE, 0).basis
        basis.add_bits(["x", "y"], (1, 0), frozenset((2,)))
        basis.new_local_bits(1, 3, local_rng(0, 1))
        shuffled = list(range(len(basis))) * 2
        random.Random(5).shuffle(shuffled)
        for ids in (range(len(basis)), list(range(len(basis))), shuffled, range(3, 7), range(4, 5),
                    range(10, 16), range(1, 16, 4), range(15, 2, -3), [15, 0, 12, 12], [2, 5, 13, 15]):
            assert basis.labels_of(ids) == [basis.label(i) for i in ids]
        assert basis.labels[11:16] == ("K1-2:2", "x", "y", "R1:0", "R1:1")
        assert all(basis.id_of(lab) == i for i, lab in enumerate(basis.labels))

    def test_a_label_given_by_hand_blocks_the_same_generated_label(self):
        basis = SourceBitBasis()
        basis.add("R1:1", 0, frozenset((1,)))
        with pytest.raises(ValueError, match="duplicate basis label 'R1:1'"):
            basis.new_local_bits(1, 3, local_rng(0, 1))
        assert basis.labels == ("R1:1",)
        assert basis.new_local_bits(2, 2, local_rng(0, 2)) == ["R2:0", "R2:1"]

    def test_the_basis_reads_as_a_label_to_value_mapping(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        values = store.basis.realized()
        assert [values[lab] for lab in store.key_labels(0, 2)] == list(store.key_bits(0, 2))
        assert "K0-2:3" in values and "K0-2:4" not in values
        assert list(values) == list(store.basis.labels)
        assert LinearForm(frozenset(("K0-1:0", "K1-2:0"))).evaluate(values) == (
            store.key_bits(0, 1)[0] ^ store.key_bits(1, 2)[0])


class TestConsumption:
    def test_sequential_calls_are_disjoint_and_cover(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        full = store.key_bits(0, 1)
        first, first_labels = store.consume_bits(0, 1, 3)
        second, second_labels = store.consume_bits(0, 1, 2)
        assert first + second == full
        assert not set(first_labels) & set(second_labels)
        assert store.remaining(0, 1) == 0

    def test_overdraw_raises_and_leaves_cursor_alone(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        store.consume_bits(1, 2, 2)
        with pytest.raises(InsufficientKeyMaterial):
            store.consume_bits(1, 2, 2)
        assert store.remaining(1, 2) == 1
        bits, _ = store.consume_bits(1, 2, 1)
        assert len(bits) == 1

    def test_zero_count_is_a_noop(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        bits, labels = store.consume_bits(0, 2, 0)
        assert bits == () and labels == ()
        assert store.remaining(0, 2) == 4

    def test_unknown_pair_has_nothing(self):
        spec = NetworkSpec(3, {(0, 1): 2})
        store = generate_pairwise_keys(spec, 0)
        assert store.remaining(0, 2) == 0
        with pytest.raises(InsufficientKeyMaterial):
            store.consume_bits(0, 2, 1)

    def test_one_each_gives_the_ids_that_one_bit_takes_give(self):
        pairs = [(0, 1), (2, 1), (0, 2)]
        one_by_one = generate_pairwise_keys(TRIANGLE, 3)
        one_by_one.take(0, 2, 1)
        batched = generate_pairwise_keys(TRIANGLE, 3)
        batched.take(0, 2, 1)
        for _ in range(3):
            assert batched.take_one_each(pairs) == [one_by_one.take(i, j, 1)[0] for i, j in pairs]
        assert [batched.remaining(*pair) for pair in pairs] == [2, 0, 0]

    def test_one_each_takes_all_or_nothing(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        store.take(1, 2, 3)
        with pytest.raises(InsufficientKeyMaterial, match=r"pair \(1, 2\)"):
            store.take_one_each([(0, 1), (0, 2), (2, 1)])
        with pytest.raises(ValueError, match="one bit per call"):
            store.take_one_each([(0, 1), (0, 2), (1, 0)])
        assert [store.remaining(*pair) for pair in ((0, 1), (0, 2), (1, 2))] == [5, 4, 0]
        assert store.take_one_each([]) == []

    def test_no_bit_is_issued_twice_across_random_consumptions(self):
        rng = random.Random(2024)
        for _ in range(25):
            spec = random_spec(rng, max_m=5, max_budget=6)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            seen: set[str] = set()
            pairs = spec.pairs()
            if not pairs:
                continue
            for _ in range(30):
                i, j = pairs[rng.randrange(len(pairs))]
                want = rng.randint(0, 2)
                if store.remaining(i, j) < want:
                    continue
                _, labels = store.consume_bits(i, j, want)
                assert not set(labels) & seen
                seen.update(labels)


def test_issued_key_bits_are_jointly_uniform():
    # distinct basis labels => unit forms are independent => exact uniformity
    store = generate_pairwise_keys(TRIANGLE, 11)
    forms = []
    for pair in TRIANGLE.pairs():
        _, labels = store.consume_bits(*pair, 2)
        forms.extend(LinearForm.unit(lab) for lab in labels)
    assert verify_independence(forms, [], store.basis).uniform


def test_pair_streams_do_not_depend_on_other_pairs():
    # removing a pair from the spec must not shift the remaining streams
    small = NetworkSpec.from_pairs(3, [(0, 1, 5), (1, 2, 3)])
    a = generate_pairwise_keys(TRIANGLE, 9)
    b = generate_pairwise_keys(small, 9)
    assert a.key_bits(0, 1) == b.key_bits(0, 1)
    assert a.key_bits(1, 2) == b.key_bits(1, 2)
