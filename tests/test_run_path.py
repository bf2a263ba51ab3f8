"""The run path end to end: golden bytes, its secrecy report against the oracles,
and independence from hash seeds."""

from __future__ import annotations

import ast
import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import pinkey.graph
import pinkey.oracles
import pinkey.protocols
from pinkey import NetworkSpec, flood, generate_pairwise_keys, replay_key, run_broadcast, run_subgroup
from pinkey.cli import Scenario, load_scenario, run_scenario
from pinkey.errors import InvariantViolation
from pinkey.oracles import brute_force_mutual_information, verify_independence
from pinkey.protocols import GroupKeyResult, PublicMessage

from helpers import (assert_checked_alike, assert_labels_count_up, audited, closed_form, random_connected_spec,
                     random_star_spec, reference_replay, report_secrecy, take, transcript_of)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "demos" / "scenarios").glob("*.txt"))


def _star_scenario() -> Scenario:
    rng = random.Random(61)
    return Scenario(NetworkSpec(16, {(0, leaf): rng.randint(100, 300) for leaf in range(1, 16)}),
                    protocol="broadcast", seed=2024)


def _relay_scenario() -> Scenario:
    rng = random.Random(62)
    budgets = {(i, j): rng.randint(20, 200) for i in range(12) for j in range(i + 1, 12)
               if rng.random() < 0.35}
    return Scenario(NetworkSpec(12, budgets), protocol="subgroup", seed=77, s=3, t=10)


def _dense_group_scenario(tie_break: str) -> Scenario:
    rng = random.Random(64)
    budgets = {(i, j): rng.randint(1, 9) for i in range(24) for j in range(i + 1, 24)}
    return Scenario(NetworkSpec(24, budgets), protocol="group", seed=11, tie_break=tie_break)


def _m40_scenario(tie_break: str) -> Scenario:
    # complete m=40 with budgets 1..30: each pair draws its budget, then a keep test that always passes
    rng = random.Random(0)
    budgets = {}
    for i in range(40):
        for j in range(i + 1, 40):
            w = rng.randint(1, 30)
            if rng.random() < 1.0:
                budgets[(i, j)] = w
    return Scenario(NetworkSpec(40, budgets), protocol="group", seed=1, tie_break=tie_break)


# report and transcript digests: the first two recorded before source bits were
# numbered with ints, the group runs before the tree loop kept one ranked edge index
GOLDEN_RUNS = pytest.mark.parametrize("scenario,sizes,digest", [
    (_star_scenario(), (107, 1498), "5311ecc3e278e975ec5570f0bb8af1d06615e0da1df7f9daeff17f20783eaea5"),
    (_relay_scenario(), (372, 1121), "089a2ad9608eaf8d54387c3f539c25ff00eac0bdd82cbe6910edaf2d34dd277a"),
    (_dense_group_scenario("lex-kruskal"), (55, 1210),
     "561a4aa8b54e8aaa836d092ab851d90b672d624754e0622f4e85f2ebe154ed76"),
    (_dense_group_scenario("degree-min"), (56, 1232),
     "46e05d483071befade2421830403e87e3d238c35301eb356d3bbdaf48a64493d"),
    (_m40_scenario("lex-kruskal"), (299, 11362),
     "af14dfe0c2005593618d90b2bc8ea829843da3a8e6e7b5cc5d62a503a7217bfd"),
    (_m40_scenario("degree-min"), (297, 11286),
     "8ffeab41a380b74f31789d9c46dd3ad3c469815c6b6db7f93daa7d3664412876"),
], ids=["large-broadcast-star", "subgroup-relay", "dense-m24-lex-kruskal", "dense-m24-degree-min",
        "complete-m40-lex-kruskal", "complete-m40-degree-min"])


class TestGoldenBytes:
    @GOLDEN_RUNS
    def test_run_bytes(self, scenario, sizes, digest):
        report, result = run_scenario(scenario)
        assert (len(result.key), result.transcript.public_bits) == sizes
        text = report.to_text() + result.transcript.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @GOLDEN_RUNS
    def test_labels_count_up_and_realized_reads_them(self, scenario, sizes, digest):
        # the label of each bit a run drew, and its value through the one label-keyed view
        _, result = run_scenario(scenario)
        assert_labels_count_up(result.basis)

    @GOLDEN_RUNS
    def test_the_run_path_builds_no_message_objects(self, scenario, sizes, digest, monkeypatch):
        # runs and their text read the transcript's columns; only iterating builds messages
        class Refused:
            def __init__(self, *args, **kwargs):
                raise AssertionError("the run path built a PublicMessage")

        monkeypatch.setattr(pinkey.protocols, "PublicMessage", Refused)
        report, result = run_scenario(scenario)
        text = report.to_text() + result.transcript.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        with pytest.raises(AssertionError, match="built a PublicMessage"):
            next(iter(result.transcript))


    @GOLDEN_RUNS
    def test_the_run_path_checks_no_edge_and_no_column(self, scenario, sizes, digest, monkeypatch):
        # the runs flood the spec's own pairs through the core, which checks no edge, and build
        # their transcript without the checked constructor; the self-check still runs
        def refuse(*args, **kwargs):
            raise AssertionError("the run path re-checked its input")

        monkeypatch.setattr(pinkey.protocols, "_checked_edges", refuse)
        monkeypatch.setattr(pinkey.protocols.Transcript, "__init__", refuse)
        report, result = run_scenario(scenario)
        text = report.to_text() + result.transcript.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_a_demo_run_builds_what_the_checked_constructor_builds(path):
    assert_checked_alike(run_scenario(load_scenario(str(path)))[1].transcript)


def test_the_label_level_read_api_renders_the_same_labels():
    # What the benchmark's capture and the demos read: key forms, message forms and pads
    # as labels, and the realized value of every label they mention.
    digest = hashlib.sha256()
    for scenario in [*map(load_scenario, map(str, SCENARIOS)), _relay_scenario()]:
        _, result = run_scenario(scenario)
        key_forms = [sorted(form.labels) for form in result.key_forms]
        forms = [[sorted(form.labels) for form in msg.forms] for msg in result.transcript]
        pads = [list(msg.pads) for msg in result.transcript]
        labels = sorted({label for form in key_forms for label in form}
                        | {label for msg in forms for form in msg for label in form}
                        | {label for msg in pads for label in msg})
        realized = result.basis.realized()
        values = [realized[label] for label in labels]
        digest.update(repr((key_forms, forms, pads, labels, values)).encode())
    assert digest.hexdigest() == "302ec70c23e5e17df36e534cf6e2ad39c3cf74d10b77ad2bd6b2e23e5fc0d552"


def test_transcript_forms_are_the_forms_of_its_messages_in_order():
    # forms() renders the plain and pad columns whole; each message renders its own slice
    for scenario in (_star_scenario(), _relay_scenario(), _dense_group_scenario("degree-min")):
        _, result = run_scenario(scenario)
        transcript = result.transcript
        assert transcript.forms() == [form for msg in transcript for form in msg.forms], scenario.protocol


def _random_scenarios(rng: random.Random, count: int, max_m: int, max_budget: int):
    for k in range(count):
        seed = rng.randrange(2**32)
        protocol = ("broadcast", "subgroup", "group")[k % 3]
        if protocol == "broadcast":
            spec = random_star_spec(rng, max_m=max_m, max_budget=max_budget)
            yield Scenario(spec, protocol, seed)
        elif protocol == "subgroup":
            spec = random_connected_spec(rng, max_m=max_m, max_budget=max_budget)
            s, t = rng.sample(range(spec.m), 2)
            yield Scenario(spec, protocol, seed, s=s, t=t)
        else:
            spec = random_connected_spec(rng, max_m=max_m, max_budget=max_budget)
            tie_break = rng.choice(("lex-kruskal", "degree-min"))
            yield Scenario(spec, protocol, seed, tie_break=tie_break)


class TestRunPathSecrecy:
    def test_report_equals_the_label_level_audit(self):
        # the report's closed form, (|K|, P, |K| + P) with no leak and a uniform key, is the audit's
        for scenario in _random_scenarios(random.Random(811), 45, max_m=7, max_budget=12):
            report, result = run_scenario(scenario)
            assert report_secrecy(report) == audited(verify_independence(
                result.key_forms, result.transcript.forms(), result.basis)), scenario

    def test_report_agrees_with_exhaustive_mutual_information(self):
        checked = 0
        for scenario in _random_scenarios(random.Random(812), 60, max_m=4, max_budget=3):
            report, result = run_scenario(scenario)
            if len(result.basis) > 14:
                continue
            mi = brute_force_mutual_information(
                result.key_forms, result.transcript.forms(), len(result.basis))
            assert Fraction(report_secrecy(report)["leaked_bits"]) == mi
            checked += 1
        assert checked >= 30


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_outputs_do_not_depend_on_the_hash_seed(scenario, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    outputs = []
    for hash_seed in ("0", "1"):
        transcript = tmp_path / f"run-{hash_seed}.transcript"
        done = subprocess.run(
            [sys.executable, "-m", "pinkey.cli", "run", "--scenario", str(scenario),
             "--emit-transcript", str(transcript)],
            env=dict(env, PYTHONHASHSEED=hash_seed), capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, transcript.read_bytes()))
    assert outputs[0] == outputs[1]


def _group_scenario() -> Scenario:
    rng = random.Random(63)
    budgets = {(i, j): rng.randint(1, 9) for i in range(9) for j in range(i + 1, 9)}
    return Scenario(NetworkSpec(9, budgets), protocol="group", seed=5, tie_break="degree-min")


def test_the_package_has_no_assert_statement():
    # python -O strips assert statements, and every invariant of the package must hold under it
    paths = sorted((ROOT / "src" / "pinkey").rglob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Assert)]
    assert found == []


def test_a_run_does_no_elimination(monkeypatch):
    calls = []
    count_learned = pinkey.protocols._learned

    def traced(wanted, transcript, terminals):
        terminals = list(terminals)
        calls.append((set(wanted), transcript, terminals, count_learned(wanted, transcript, terminals)))
        return calls[-1][-1]

    def kernel(*args):
        raise AssertionError("a run reduced rows with gf2_rank")

    assert not hasattr(pinkey.protocols, "gf2_rank")
    monkeypatch.setattr(pinkey.oracles, "gf2_rank", kernel)
    monkeypatch.setattr(pinkey.protocols, "_learned", traced)
    for scenario in (_star_scenario(), _relay_scenario(), _group_scenario()):
        calls.clear()
        report, result = run_scenario(scenario)
        transcript = result.transcript
        key_ids = result.key_ids
        assert len(result.key) > 0 and transcript.public_bits > 0
        # one pass over the transcript, for the run's key ids
        ((wanted, checked, asked, counts),) = calls
        assert wanted == set(key_ids) and checked is transcript
        # every pad is private: used once, and neither a key id nor a plain id
        plain = [ident for msg in transcript for ident in msg.plain]
        pad = [ident for msg in transcript for ident in msg.pad]
        pads = set(pad)
        assert len(pads) == transcript.public_bits and pads.isdisjoint({*key_ids, *plain})
        # only holders are asked, and every one learns every key id: a pad it
        # owns tells it its plain id, and a key id it owns tells it itself
        assert sorted(asked) == sorted(result.holders) and counts == [len(key_ids)] * len(asked)
        learned = {**dict(zip(pad, plain)), **dict(zip(key_ids, key_ids))}
        for holder in asked:
            own = [ident for ids, owners in result.basis.runs() if holder in owners for ident in ids]
            assert set(key_ids) <= {learned[ident] for ident in own if ident in learned}
        if scenario.protocol == "subgroup":  # relays own pads too, and are not asked
            relays = {*transcript.senders, *transcript.receivers} - {scenario.s, scenario.t}
            assert relays and set(asked) == {scenario.s, scenario.t}
        assert report_secrecy(report) == closed_form(len(key_ids), transcript.public_bits)


class TestOneReduction:
    def test_a_subgroup_run_solves_one_max_flow(self, monkeypatch):
        kernel = pinkey.graph._edmonds_karp
        calls = []
        monkeypatch.setattr(pinkey.graph, "_edmonds_karp", lambda *args: calls.append(1) or kernel(*args))
        scenario = _relay_scenario()
        spec = scenario.spec
        result = run_subgroup(generate_pairwise_keys(spec, 1), scenario.s, scenario.t)
        assert len(calls) == 1
        assert result.bound == len(result.key)


_REPORT_TAIL = ("bound {0}\nbound_floor {0}\nkey_length {0}\ngap 0\nmessages 0\npublic_bits 0\n"
                "rank_key {0}\nrank_transcript 0\nrank_joint {0}\nleaked_bits 0\nuniform true\nstatus ok\n")


# runs whose key or transcript is empty, with the report bytes that the
# self-check gave before it eliminated pads
@pytest.mark.parametrize("scenario,report", [
    (Scenario(NetworkSpec(2, {(0, 1): 5}), "group", seed=3),
     "report v1\nprotocol group\nm 2\nseed 3\ntie_break lex-kruskal\niterations 5\n" + _REPORT_TAIL.format(5)),
    (Scenario(NetworkSpec(3, {(0, 1): 4}), "group", seed=3),
     "report v1\nprotocol group\nm 3\nseed 3\ntie_break lex-kruskal\niterations 0\n" + _REPORT_TAIL.format(0)),
    (Scenario(NetworkSpec.star([3, 0, 2]), "broadcast", seed=3),
     "report v1\nprotocol broadcast\nm 4\nseed 3\n" + _REPORT_TAIL.format(0)),
    (Scenario(NetworkSpec(4, {(0, 1): 3, (2, 3): 2}), "subgroup", seed=3, s=0, t=3),
     "report v1\nprotocol subgroup\nm 4\nseed 3\ns 0\nt 3\nflow_value 0\n" + _REPORT_TAIL.format(0)),
], ids=["group-m2", "group-one-pair-m3", "star-zero-leaf", "subgroup-disconnected"])
def test_degenerate_runs_keep_their_report_bytes(scenario, report):
    got, result = run_scenario(scenario)
    assert got.to_text() == report
    assert result.transcript.to_text() == "transcript v1\n"


def test_a_leak_is_refused_at_construction_as_the_oracles_report_it():
    # Two extra public bits k0 ^ x and x ^ k1 are faithful, pad nothing
    # twice and still let everyone replay, but publish k0 ^ k1: their pads
    # are a plain bit and a key bit, so the self-check refuses them.
    spec = NetworkSpec.star([3, 5, 5])
    store = generate_pairwise_keys(spec, 9)
    result = run_broadcast(store)
    k0, k1 = result.key_ids[:2]
    x = take(store, 0, 3, 1)[0]
    extra = [PublicMessage(0, 3, 1, (store.basis.values[a] ^ store.basis.values[b],), (a,), (b,), store.basis)
             for a, b in ((k0, x), (x, k1))]
    leaky = transcript_of(store.basis, [*result.transcript, *extra])
    with pytest.raises(InvariantViolation, match="a pad bit is not private"):
        replace(result, transcript=leaky)
    assert verify_independence(result.key_forms, leaky.forms(), result.basis).leaked_bits == 1
    assert brute_force_mutual_information(result.key_forms, leaky.forms(), len(result.basis)) == 1
    # the run's own transcript passes the self-check, and the audit finds no leak in it
    replace(result, transcript=result.transcript)
    assert verify_independence(result.key_forms, result.transcript.forms(), result.basis).leaked_bits == 0


def test_message_views_render_the_labels_of_their_ids():
    spec = NetworkSpec.star([4, 2, 6])
    result = run_broadcast(generate_pairwise_keys(spec, 2))
    # messages compare and hash by their ids, not their basis, so reruns give equal messages
    assert list(result.transcript) == list(run_broadcast(generate_pairwise_keys(spec, 2)).transcript)
    assert len({hash(msg) for msg in result.transcript}) == len(result.transcript)
    for msg in result.transcript:
        assert msg.pads == tuple(result.basis.label(i) for i in msg.pad)
        assert msg.forms == tuple(msg.forms) and msg.forms != msg.pads
        assert [sorted(form.labels) for form in msg.forms] == [
            sorted((result.basis.label(a), result.basis.label(b))) for a, b in zip(msg.plain, msg.pad)]
    assert [str(form) for form in result.key_forms] == ["K0-2:0", "K0-2:1"]


def test_message_views_slice_concatenate_and_print_as_tuples():
    spec = NetworkSpec.star([4, 2, 6])
    msg = list(run_broadcast(generate_pairwise_keys(spec, 2)).transcript)[0]
    assert type(msg.forms) is tuple and type(msg.pads) is tuple
    assert " at 0x" not in repr(msg)


def test_a_run_on_a_drawn_store_renders_and_replays_its_own_bits():
    # 600 bits of pair {0, 1} and of terminal 0's local stream, then runs of 4 bits and of 2 trees
    spec = NetworkSpec(5, {(0, 1): 600, (0, 2): 4, (2, 3): 2, (3, 4): 2})
    store = generate_pairwise_keys(spec, 8)
    earlier = run_subgroup(store, 0, 1)
    drawn = len(store.basis)
    texts = (earlier.transcript.to_text(), earlier.transcript.forms())
    later = run_subgroup(store, 0, 2)
    assert drawn == 1200 and len(later.key_ids) == 4 and min(later.transcript.pad) == drawn
    forms = [f"K0-2:{k}^R0:{600 + k}" for k in range(4)]
    assert later.transcript.to_text().split("\n")[1].endswith(" " + ";".join(forms))
    assert [str(form) for form in later.transcript.forms()] == forms
    # one bit per message: two trees 2-3-4, seeded by pair {2, 3}
    key_ids, transcript = flood(store, [([(2, 3), (3, 4)], (2, 3), 1)] * 2)
    trees = GroupKeyResult(frozenset({2, 3, 4}), key_ids, transcript, None)
    assert transcript.to_text() == "transcript v1\n" + "".join(
        f"{k} 3 4 {transcript.payload[k]} K2-3:{k}^K3-4:{k}\n" for k in range(2))
    # the earlier run renders as before
    assert (earlier.transcript.to_text(), earlier.transcript.forms()) == texts
    for result in (earlier, later, trees):
        for terminal in range(6):
            assert replay_key(result, terminal) == reference_replay(result, terminal)
    assert [replay_key(trees, t) is None for t in range(6)] == [True, True, False, False, False, True]
