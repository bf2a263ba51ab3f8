"""Key-material model: budgets, generation, and consumption discipline."""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from pinkey import LinearForm, NetworkSpec, generate_pairwise_keys
from pinkey.errors import InsufficientKeyMaterial, UnknownBasisLabel
from pinkey import model
from pinkey.model import PairwiseKeyStore, canonical_pair
from pinkey.oracles import verify_independence

from helpers import full_basis, key_values, owners, random_spec, tagged_stream, take_all

TRIANGLE = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])


class TestNetworkSpec:
    def test_budgets_are_symmetric_lookups(self):
        assert TRIANGLE.budget(0, 1) == TRIANGLE.budget(1, 0) == 5
        assert TRIANGLE.budget(1, 2) == 3
        assert TRIANGLE.total_budget() == 12

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
        # a pair of another type is refused, naming it, before it is compared
        for budgets in ({(0, "a"): 1}, {("a", 0): 1}, {3: 1}, {(0, 1, 2): 1}, {(0, None): 1}):
            with pytest.raises(ValueError, match=rf"^pair {re.escape(repr(next(iter(budgets))))} out of range"):
                NetworkSpec(3, budgets)
        with pytest.raises(ValueError, match=r"^pair \(0, None\) out of range for m=3$"):
            NetworkSpec.from_pairs(3, [(0, None, 1)])
        with pytest.raises(ValueError):
            NetworkSpec(3, {(0, 3): 1})
        with pytest.raises(ValueError, match=r"^pair \(1, 0\) is not in canonical \(i < j\) form$"):
            NetworkSpec(3, {(1, 0): 1})
        with pytest.raises(ValueError, match=r"^self-pair \(1, 1\) is not allowed$"):
            NetworkSpec(3, {(1, 1): 1})
        with pytest.raises(ValueError):
            NetworkSpec(3, {(0, 1): -2})
        with pytest.raises(ValueError):
            NetworkSpec(1, {})
        for i, j in ((0, 3), (-1, 0), (2, 2)):
            with pytest.raises(ValueError):
                TRIANGLE.budget(i, j)

    @pytest.mark.parametrize("m,pairs,message", [
        (1, [], r"need at least 2 terminals, got m=1"),
        (True, [(0, 1, 1)], r"need at least 2 terminals, got m=True"),
        # a pair that is no two ints, a self-pair or a repeat comes first, in list order
        (1, [(0, 0, 1)], r"self-pair \(0, 0\) is not allowed"),
        (3, [(0, 5, 1), (1, 1, 1)], r"self-pair \(1, 1\) is not allowed"),
        (3, [(0, 5, 1), (5, 0, 2)], r"duplicate pair \(0, 5\)"),
        (3, [(0, -1, 1), (0, 1.0, 1)], r"pair \(0, 1.0\) out of range for m=3"),
        # then m, then the first pair out of range or with a bad budget
        (1, [(0, 5, 1)], r"need at least 2 terminals, got m=1"),
        (3, [(0, 1, -1), (0, 5, 1)], r"budget for pair \(0, 1\) must be a nonnegative int, got -1"),
        (3, [(5, 0, 1), (0, 1, -1)], r"pair \(0, 5\) out of range for m=3"),
        (3, [(2, 0, True)], r"budget for pair \(0, 2\) must be a nonnegative int, got True"),
    ])
    def test_from_pairs_reports_the_first_fault_in_order(self, m, pairs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NetworkSpec.from_pairs(m, pairs)

    def test_from_pairs_builds_the_spec_the_constructor_builds(self):
        spec = NetworkSpec.from_pairs(3, [(1, 0, 0), (2, 0, 4)])
        assert spec == NetworkSpec(3, {(0, 2): 4}) and dict(spec.budgets) == {(0, 2): 4}
        with pytest.raises(TypeError):
            spec.budgets[(0, 1)] = 1

    @pytest.mark.parametrize(
        "m,budgets,message",
        [(True, {}, "need at least 2 terminals, got m=True"),
         (3, {(0, 1): True}, r"budget for pair \(0, 1\) must be a nonnegative int, got True"),
         (3, {(False, 1): 2}, r"pair \(False, 1\) out of range for m=3")],
        ids=["m", "budget", "terminal"],
    )
    def test_a_bool_is_not_an_integer(self, m, budgets, message):
        with pytest.raises(ValueError, match=message):
            NetworkSpec(m, budgets)

    @pytest.mark.parametrize("i,j", [(True, 2), (2, True), (0, 1.0), (0.0, 2)])
    @pytest.mark.parametrize("lookup", ["budget", "remaining"])
    def test_a_budget_lookup_refuses_a_terminal_that_is_not_an_int(self, lookup, i, j):
        # (True, 2) would read pair {1, 2}'s budget of 3, and (0, 1.0) pair {0, 1}'s of 5
        store = generate_pairwise_keys(TRIANGLE, 3)
        with pytest.raises(ValueError, match="out of range for m=3"):
            getattr(TRIANGLE if lookup == "budget" else store, lookup)(i, j)
        assert len(store.basis) == 0

    def test_star_refuses_a_negative_leaf_budget_and_drops_a_zero(self):
        with pytest.raises(ValueError, match=r"budget for pair \(0, 1\) must be a nonnegative int, got -3"):
            NetworkSpec.star([-3, 2])
        assert dict(NetworkSpec.star([0, 2]).budgets) == {(0, 2): 2}

    def test_star_and_complete_builders(self):
        star = NetworkSpec.star([7, 5, 9])
        assert star.m == 4 and star.is_star()
        assert star.budget(0, 2) == 5
        k4 = NetworkSpec.complete(4, 2)
        assert len(k4.pairs()) == 6 and not k4.is_star()
        assert TRIANGLE.is_star() is False

    def test_budgets_cannot_be_written_after_validation(self):
        spec = NetworkSpec(3, {(0, 1): 5})
        for pair, budget in (((2, 1), 4), ((0, 2), -3), ((0, 1), 6)):
            with pytest.raises(TypeError):
                spec.budgets[pair] = budget
        with pytest.raises(TypeError):
            del spec.budgets[(0, 1)]
        assert dict(spec.budgets) == {(0, 1): 5} and spec.total_budget() == 5
        assert spec == NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 0)])
        assert TRIANGLE == NetworkSpec(3, dict(TRIANGLE.budgets)) != spec

    def test_canonical_pair(self):
        assert canonical_pair(4, 1) == (1, 4)
        with pytest.raises(ValueError):
            canonical_pair(2, 2)


class TestGeneration:
    def test_lengths_match_budgets(self):
        store = generate_pairwise_keys(TRIANGLE, 7)
        k01 = key_values(store, 0, 1)
        assert len(k01) == 5
        assert len(key_values(store, 0, 2)) == 4
        assert len(key_values(store, 1, 2)) == 3
        assert k01 == key_values(generate_pairwise_keys(TRIANGLE, 7), 1, 0)

    def test_same_seed_reproduces_exactly(self):
        a = generate_pairwise_keys(TRIANGLE, 42)
        b = generate_pairwise_keys(TRIANGLE, 42)
        for pair in TRIANGLE.pairs():
            assert key_values(a, *pair) == key_values(b, *pair)

    def test_different_pairs_get_different_streams(self):
        # same spec, seed 7: the (0,1) and (0,2) keys must not coincide
        store = generate_pairwise_keys(TRIANGLE, 7)
        k01, k02 = key_values(store, 0, 1), key_values(store, 0, 2)
        assert any(x != y for x, y in zip(k01, k02))

    def test_different_seeds_differ_over_64_bits(self):
        spec = NetworkSpec(2, {(0, 1): 80})
        a, b = generate_pairwise_keys(spec, 1), generate_pairwise_keys(spec, 2)
        assert key_values(a, 0, 1) != key_values(b, 0, 1)

    def test_basis_layout_is_canonical(self):
        labels = full_basis(TRIANGLE, 0).labels
        assert labels[:5] == [f"K0-1:{t}" for t in range(5)]
        assert labels[5:9] == [f"K0-2:{t}" for t in range(4)]
        assert len(labels) == TRIANGLE.total_budget()
        assert len(set(labels)) == len(labels)

    def test_owners_are_the_endpoints(self):
        basis = full_basis(TRIANGLE, 0)
        assert basis.runs() == [(range(0, 5), frozenset({0, 1})), (range(5, 9), frozenset({0, 2})),
                                (range(9, 12), frozenset({1, 2}))]
        assert owners(basis)[basis.id_of("K0-1:0")] == frozenset({0, 1})
        assert owners(basis)[basis.id_of("K1-2:2")] == frozenset({1, 2})
        with pytest.raises(UnknownBasisLabel):
            basis["K0-1:99"]

    def test_local_bits_get_fresh_labels_and_one_owner(self):
        store = generate_pairwise_keys(TRIANGLE, 0)
        take_all(store)
        before = len(store.basis)
        ids = store.fresh(1, 3)
        assert list(map(store.basis.label, ids)) == ["R1:0", "R1:1", "R1:2"]
        assert len(store.basis) == before + 3
        assert owners(store.basis)[store.basis.id_of("R1:1")] == frozenset({1})

    def test_bits_match_one_getrandbits_call_per_bit(self):
        # Key generation draws each pair's bits at once; the result must be
        # the bit-by-bit stream, with the same labels, order and owners.
        rng = random.Random(31)
        specs = [random_spec(rng, max_m=5, max_budget=300) for _ in range(8)]
        specs.append(NetworkSpec(2, {(0, 1): 1000}))
        for seed, spec in enumerate(specs):
            basis = full_basis(spec, seed)
            expected = []
            for i, j in spec.pairs():
                stream = tagged_stream(f"pair:{seed}:{i}:{j}")
                expected += [(f"K{i}-{j}:{t}", stream.getrandbits(1), frozenset((i, j)))
                             for t in range(spec.budget(i, j))]
            assert [(lab, basis[lab], held)
                    for lab, held in zip(basis.labels, owners(basis))] == expected

    def test_local_bits_match_one_getrandbits_call_per_bit(self):
        # each terminal's draws go on along its own stream, however they interleave
        store = PairwiseKeyStore(TRIANGLE, 7)
        basis, references = store.basis, {owner: tagged_stream(f"local:7:{owner}") for owner in (0, 2)}
        for owner, count in ((2, 1), (2, 33), (0, 240), (2, 5)):
            reference = references[owner]
            start = len([lab for lab in basis.labels if lab.startswith(f"R{owner}:")])
            ids = store.fresh(owner, count)
            labels = list(map(basis.label, ids))
            assert labels == [f"R{owner}:{start + t}" for t in range(count)]
            assert [basis[lab] for lab in labels] == [reference.getrandbits(1) for _ in labels]
            assert basis.runs()[-1] == (ids, frozenset((owner,)))
        # a following draw goes on where the bit-by-bit draws left each stream
        for owner, reference in references.items():
            assert basis.bits(store.fresh(owner, 3)) == tuple(reference.getrandbits(1) for _ in range(3))

    def test_pieces_give_the_bits_of_one_take(self):
        # every draw reseeds the store's one generator, so pieces of a pair's key and of a
        # terminal's local bits, interleaved, are the bits one take of 8 gives on a fresh store
        spec = NetworkSpec(3, {(0, 2): 9, (1, 2): 8})
        whole = generate_pairwise_keys(spec, 5)
        pair, local = whole.basis.bits(whole.take(2, 1, 8)), whole.basis.bits(whole.fresh(1, 8))
        store = generate_pairwise_keys(spec, 5)
        pieces = [store.take(1, 2, 3), store.fresh(1, 3), store.take(0, 2, 1), store.take(1, 2, 5),
                  store.fresh(1, 5), store.take_each({(0, 2): 2})[0, 2]]
        assert store.remaining(1, 2) == 0 and store.remaining(0, 2) == 6
        # then through take_each, in one batch with another pair
        again = generate_pairwise_keys(spec, 5)
        first = again.take(1, 2, 3)
        rest = again.take_each({(0, 2): 4, (1, 2): 5})[1, 2]
        bits = store.basis.bits
        assert bits(pieces[0]) + bits(pieces[3]) == again.basis.bits(first) + again.basis.bits(rest) == pair
        assert bits(pieces[1]) + bits(pieces[4]) == local
        assert len(set(pair + local)) == 2  # not a constant stream

    # labels: those the rejected bits would get.  The ids are written out so
    # that each case keeps the id it has always had.
    @pytest.mark.parametrize("labels,values,owners,needle", [
        pytest.param(["R0:0", "R0:1"], (0, 2), frozenset((0,)), "must be 0 or 1, got 2",
                     id="labels2-values2-owners2-must be 0 or 1, got 2"),
        pytest.param(["R0:0"], (2,), frozenset((0,)), "must be 0 or 1, got 2",
                     id="labels3-values3-owners3-must be 0 or 1, got 2"),
        pytest.param(["R0:0"], (1,), frozenset(), "at least one owner",
                     id="labels4-values4-owners4-at least one owner"),
        # values that bytes() refuses get the same message
        pytest.param(["R0:0", "R0:1"], (0, -1), frozenset((0,)), "must be 0 or 1, got -1", id="negative"),
        pytest.param(["R0:0"], (256,), frozenset((0,)), "must be 0 or 1, got 256", id="above-a-byte"),
        pytest.param(["R0:0", "R0:1"], (1, 0.5), frozenset((0,)), "must be 0 or 1, got 0.5", id="float"),
        pytest.param(["R0:0"], ("1",), frozenset((0,)), "must be 0 or 1, got '1'", id="string"),
        pytest.param(["R0:0"], (-1,), frozenset(), "must be 0 or 1, got -1", id="values-before-owners"),
    ])
    def test_bulk_registration_rejects_bad_bits(self, labels, values, owners, needle):
        basis = full_basis(TRIANGLE, 0)
        before = basis.runs()
        with pytest.raises(ValueError, match=needle):
            basis._add_runs([("R0:", owners, len(values))], values)
        # nothing of a rejected call is registered
        assert basis.runs() == before and len(basis) == 12
        assert not any(label in basis for label in labels)
        (ids,) = basis._add_runs([("R0:", frozenset((0,)), len(labels))], (1,) * len(labels))
        assert list(map(basis.label, ids)) == labels

    def test_bools_are_bit_values(self):
        basis = full_basis(TRIANGLE, 0)
        (ids,) = basis._add_runs([("R0:", frozenset((0,)), 3)], (True, False, True))
        assert list(map(basis.label, ids)) == ["R0:0", "R0:1", "R0:2"] and basis.bits(ids) == (1, 0, 1)


class TestIds:
    def test_labels_are_parsed_only_when_written_canonically(self):
        basis = full_basis(TRIANGLE, 0)
        assert [basis.id_of(lab) for lab in ("K0-1:0", "K0-1:4", "K0-2:0", "K1-2:2")] == [0, 4, 5, 11]
        for label in ("K0-1:04", "K0-1:+4", "K0-1:\u0664", "K0-1:5", "K1-0:0", "K0-1", "K0-1:", "4"):
            assert basis.id_of(label) is None and label not in basis, label
        with pytest.raises(UnknownBasisLabel):
            basis["K0-1:04"]

    def test_labels_render_from_ids_in_bulk_as_one_by_one(self):
        store = generate_pairwise_keys(TRIANGLE, 0)
        take_all(store)
        store.fresh(2, 2)
        store.fresh(1, 3)
        basis = store.basis
        assert basis.labels == [basis.label(i) for i in range(len(basis))]
        assert basis.labels[11:16] == ["K1-2:2", "R2:0", "R2:1", "R1:0", "R1:1"]
        assert all(basis.id_of(lab) == i for i, lab in enumerate(basis.labels))

    def test_labels_render_in_bulk_over_many_runs(self):
        # runs of many lengths, runs of one prefix interleaved with others' so that their
        # indices go on across them, and a budget of 1500, so that label indices of one to
        # four digits are rendered, and indices past 1000 that an earlier run's table holds
        spec = NetworkSpec(12, {**{(i, j): (7 * i + 3 * j) % 11 + 1 for i in range(12)
                                   for j in range(i + 1, 12)}, (2, 10): 1500})
        store = generate_pairwise_keys(spec, 3)
        for count in (4, 990, 3, 500):
            store.take(2, 10, count)
            store.take(0, 1, min(1, store.remaining(0, 1)))
            store.fresh(3, count)
        take_all(store)
        for owner, count in ((5, 2), (3, 9), (5, 1), (3, 1200)):
            store.fresh(owner, count)
        basis = store.basis
        assert basis.labels == [basis.label(i) for i in range(len(basis))]
        assert basis.labels[-1] == "R3:2705" and basis.label(basis.id_of("K2-10:1000")) == "K2-10:1000"
        assert basis.labels[basis.id_of("K2-10:997"):][:4] == ["K2-10:997", "K2-10:998", "K2-10:999",
                                                                  "K2-10:1000"]

    def test_ids_outside_the_basis_have_no_label(self):
        basis = full_basis(TRIANGLE, 0)
        assert len(basis) == 12 and basis.label(11) == "K1-2:2"
        for ident in (-1, 12, 99):
            with pytest.raises(ValueError, match="not in the basis"):
                basis.label(ident)

    def test_run_of_names_the_run_of_consecutive_ids(self):
        store = generate_pairwise_keys(NetworkSpec(3, {(0, 1): 8, (1, 2): 4}), 2)
        first, other, second, fresh = store.take(0, 1, 3), store.take(1, 2, 4), store.take(0, 1, 5), store.fresh(2, 2)
        basis = store.basis
        assert basis.run_of(first) == ("K0-1:", 0)
        assert basis.run_of(second[1:4]) == ("K0-1:", 4)  # the prefix's indices go on across runs
        assert basis.run_of(fresh) == ("R2:", 0)
        assert basis.run_of(other[3:4]) == ("K1-2:", 3)
        assert basis.run_of(range(other[3], other[3] + 1, 2)) == ("K1-2:", 3)  # one id ascends by one
        # empty, across two runs, skipping an id, descending, past the basis, below 0
        for ids in (range(0), range(first[2], other[0] + 1), range(other[0], other[2] + 1, 2),
                    range(other[1], other[0] - 1, -1), range(fresh[1], fresh[1] + 2), range(-1, 1)):
            assert basis.run_of(ids) is None, ids
        for ident in range(len(basis)):
            prefix, index = basis.run_of(range(ident, ident + 1))
            assert f"{prefix}{index}" == basis.label(ident)

    def test_labels_and_runs_cover_every_take_of_a_store(self):
        # pair {0, 1}'s indices go on past 300 in its second run
        store = generate_pairwise_keys(NetworkSpec(3, {(0, 1): 310, (1, 2): 4}), 2)
        runs = [store.take(0, 1, 300), store.take(1, 2, 4), store.take(0, 1, 10), store.fresh(2, 3)]
        basis = store.basis
        labels = [basis.label(ident) for ident in range(len(basis))]
        assert basis.labels == labels and labels[304] == "K0-1:300"
        assert basis.labels is not basis.labels  # a new list per read, which a caller may change
        assert basis.runs() == [(ids, frozenset(held)) for ids, held in zip(runs, [(0, 1), (1, 2), (0, 1), (2,)])]

    def test_the_basis_reads_as_a_label_to_value_mapping(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        keys = take_all(store)
        values = store.basis.realized()
        labels = list(map(store.basis.label, keys[0, 2]))
        assert [values[lab] for lab in labels] == list(key_values(generate_pairwise_keys(TRIANGLE, 3), 0, 2))
        assert "K0-2:3" in values and "K0-2:4" not in values
        assert list(values) == list(store.basis.labels)
        k01, k12 = store.basis.bits(keys[0, 1]), store.basis.bits(keys[1, 2])
        assert values["K0-1:0"] ^ values["K1-2:0"] == k01[0] ^ k12[0]


class TestConsumption:
    def test_sequential_calls_are_disjoint_and_cover(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        full = key_values(generate_pairwise_keys(TRIANGLE, 3), 0, 1)
        first, second = store.take(0, 1, 3), store.take(0, 1, 2)
        assert store.basis.bits(first) + store.basis.bits(second) == full
        assert not set(map(store.basis.label, first)) & set(map(store.basis.label, second))
        assert store.remaining(0, 1) == 0

    def test_overdraw_raises_and_leaves_cursor_alone(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        store.take(1, 2, 2)
        with pytest.raises(InsufficientKeyMaterial):
            store.take(1, 2, 2)
        assert store.remaining(1, 2) == 1
        assert len(store.take(1, 2, 1)) == 1

    def test_zero_count_is_a_noop(self, monkeypatch):
        spec = NetworkSpec(3, {(0, 1): 4, (1, 2): 2})
        store = generate_pairwise_keys(spec, 3)
        # a take of no bits draws nothing and registers no run, on a pair with no budget too
        monkeypatch.setattr(model, "_draw", None)
        ids = store.take(2, 1, 0)
        assert store.basis.bits(ids) == () and ids == range(0)
        assert store.take_each({(0, 2): 0, (1, 2): 0}) == {(0, 2): range(0), (1, 2): range(0)}
        assert store.remaining(1, 2) == 2
        assert store.basis.runs() == [] and len(store.basis) == 0 and store._drawn == {}
        monkeypatch.undo()
        taken = store.take_each({(1, 2): 0, (0, 1): 2, (0, 2): 0})
        assert taken == {(1, 2): range(0), (0, 1): range(0, 2), (0, 2): range(0)}

    def test_takes_in_any_split_give_the_bits_of_one_draw(self):
        # Each pair's takes, interleaved with the other pairs' and cut at random,
        # must give the pair's key as one bit-by-bit draw of its whole budget.
        rng = random.Random(2310)
        for seed in range(30):
            spec = random_spec(rng, max_m=5, max_budget=90)
            store = generate_pairwise_keys(spec, seed)
            taken = {pair: [] for pair in spec.pairs()}
            while open_pairs := [pair for pair in taken if store.remaining(*pair)]:
                if rng.random() < 0.3:
                    counts = {pair: rng.randint(1, store.remaining(*pair))
                              for pair in rng.sample(open_pairs, rng.randint(1, len(open_pairs)))}
                    for pair, ids in store.take_each(counts).items():
                        taken[pair] += ids
                else:
                    i, j = rng.choice(open_pairs)
                    taken[i, j] += store.take(j, i, rng.randint(0, min(store.remaining(i, j), 40)))
            for (i, j), ids in taken.items():
                stream = tagged_stream(f"pair:{seed}:{i}:{j}")
                reference = tuple(stream.getrandbits(1) for _ in range(spec.budget(i, j)))
                assert store.basis.bits(ids) == reference
                assert list(map(store.basis.label, ids)) == [f"K{i}-{j}:{t}" for t in range(len(ids))]
            assert len(store.basis) == spec.total_budget()

    # pair (0, 1) has 4 bits, (1, 2) has 2 and (0, 2) none
    @pytest.mark.parametrize("counts,error", [
        ({(0, 1): -1}, ValueError),
        ({(0, 1): 1.0}, ValueError),
        ({(0, 1): True}, ValueError),
        ({(0, True): 1}, ValueError),
        ({(False, 1): 1}, ValueError),
        ({(1, 0): 2}, ValueError),
        ({(0, 3): 1}, ValueError),
        ({(1, 1): 0}, ValueError),
        ({(0, 1): 2, (1, 2): -1}, ValueError),
        ({(0, 1): 2, (1, 2): 3}, InsufficientKeyMaterial),
        ({(0, 1): 2, (0, 2): 1}, InsufficientKeyMaterial),
        ({(0, 1): 2, 3: 1}, ValueError),
        ({(0, 1): 2, (0, 1, 2): 1}, ValueError),
        ({(0, 1): 2, (1,): 1}, ValueError),
    ], ids=["negative", "float", "bool", "bool-terminal", "bool-first-terminal", "not-canonical", "out-of-range",
            "self-pair", "bad-count-after-a-good-one", "short-after-a-good-one", "zero-budget",
            "int-pair", "three-tuple-pair", "one-tuple-pair"])
    def test_a_refused_batch_draws_nothing(self, counts, error, monkeypatch):
        spec = NetworkSpec(3, {(0, 1): 4, (1, 2): 2})
        store = generate_pairwise_keys(spec, 3)
        monkeypatch.setattr(model, "_draw", None)  # no stream is drawn either
        with pytest.raises(error):
            store.take_each(counts)
        assert [store.remaining(*pair) for pair in ((0, 1), (0, 2), (1, 2))] == [4, 0, 2]
        assert len(store.basis) == 0 and store._drawn == {}
        monkeypatch.undo()
        # the budget still bounds later takes
        with pytest.raises(InsufficientKeyMaterial):
            store.take(0, 1, 5)
        assert len(store.take(1, 0, 4)) == 4 and store.remaining(0, 1) == 0

    @pytest.mark.parametrize("pair", [3, (0, 1, 2), (1,), ()], ids=["int", "three-tuple", "one-tuple", "empty-tuple"])
    def test_a_pair_that_is_no_two_tuple_is_named_in_a_value_error(self, pair):
        store = generate_pairwise_keys(NetworkSpec(3, {(0, 1): 4, (1, 2): 2}), 3)
        with pytest.raises(ValueError, match=rf"^pair {re.escape(repr(pair))} is not \(i, j\) with 0 <= i < j < m=3$"):
            store.take_each({(0, 1): 2, pair: 1})
        assert len(store.basis) == 0 and store.remaining(0, 1) == 4

    def test_fresh_refuses_a_bad_owner_or_count(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        for owner, count in ((3, 1), (-1, 1), (True, 1), (1.0, 1), (0, -1), (0, 1.0), (0, True)):
            with pytest.raises(ValueError):
                store.fresh(owner, count)
        assert store.fresh(2, 0) == range(0)
        assert len(store.basis) == 0

    @pytest.mark.parametrize("seed", [True, False, 1.0, "1", -1, 2**64, None])
    def test_a_seed_that_is_no_unsigned_64_bit_int_is_refused(self, seed):
        # True and 1.0 would draw another key than 1, and "1" the same as 1
        with pytest.raises(ValueError, match=rf"^must fit in an unsigned 64-bit integer, got {re.escape(repr(seed))}$"):
            generate_pairwise_keys(NetworkSpec.complete(3, 2), seed)
        with pytest.raises(ValueError, match="must fit in an unsigned 64-bit integer"):
            PairwiseKeyStore(NetworkSpec.complete(3, 2), seed)

    @pytest.mark.parametrize("seed,digest", [
        (0, "2e3381e32024193a2adb279e4157a512789b51f91f31c5b031285db1a805a46e"),
        (1, "b7828c0281ca134ac13d82ce4b974def7a824aeb4bc70167a4f507a2916b0e3b"),
        (2**63, "8c14f7f6008cddaa8416e52db65741ae076c6f8d422a6122e957288efa96f6a0"),
        (2**64 - 1, "f5a872a58e0d16b5413d46c7513f455e8ae4847c969451ebbae35c0edec22363"),
    ])
    def test_a_valid_seed_draws_its_recorded_bits(self, seed, digest):
        # every pair's 64 bits of a complete m = 4 network, then 64 local bits of terminal 3
        store = generate_pairwise_keys(NetworkSpec.complete(4, 64), seed)
        take_all(store)
        store.fresh(3, 64)
        assert hashlib.sha256(bytes(store.basis.values)).hexdigest() == digest

    def test_the_store_holds_its_spec_and_seed(self):
        store = generate_pairwise_keys(TRIANGLE, 3)
        assert store.spec is TRIANGLE and store.seed == 3
        for name in ("spec", "seed"):
            with pytest.raises(AttributeError):
                setattr(store, name, None)

    def test_unknown_pair_has_nothing(self):
        spec = NetworkSpec(3, {(0, 1): 2})
        store = generate_pairwise_keys(spec, 0)
        assert store.remaining(0, 2) == 0
        with pytest.raises(InsufficientKeyMaterial):
            store.take(0, 2, 1)

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
                labels = set(map(store.basis.label, store.take(i, j, want)))
                assert not labels & seen
                seen.update(labels)


def test_issued_key_bits_are_jointly_uniform():
    # distinct basis labels => unit forms are independent => exact uniformity
    store = generate_pairwise_keys(TRIANGLE, 11)
    forms = []
    for pair in TRIANGLE.pairs():
        labels = map(store.basis.label, store.take(*pair, 2))
        forms.extend(LinearForm.unit(lab) for lab in labels)
    assert verify_independence(forms, [], store.basis).uniform


def test_pair_streams_do_not_depend_on_other_pairs():
    # removing a pair from the spec must not shift the remaining streams
    small = NetworkSpec.from_pairs(3, [(0, 1, 5), (1, 2, 3)])
    a = generate_pairwise_keys(TRIANGLE, 9)
    b = generate_pairwise_keys(small, 9)
    assert key_values(a, 0, 1) == key_values(b, 0, 1)
    assert key_values(a, 1, 2) == key_values(b, 1, 2)
