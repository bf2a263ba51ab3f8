"""The run path end to end: golden bytes, its secrecy report against the oracles,
and independence from hash seeds."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pinkey.graph
import pinkey.protocols
import pinkey.secrecy
from pinkey import (
    NetworkSpec,
    brute_force_mutual_information,
    generate_pairwise_keys,
    run_broadcast,
    run_subgroup,
    verify_independence,
)
from pinkey.cli import Scenario, load_scenario, run_scenario
from pinkey.protocols import PublicMessage, Transcript, _self_check
from pinkey.secrecy import own_rows

from helpers import random_connected_spec, random_star_spec

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


class TestGoldenBytes:
    # report and transcript digests: the first two recorded before source bits were
    # numbered with ints, the group runs before the tree loop kept one ranked edge index
    @pytest.mark.parametrize("scenario,sizes,digest", [
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
    def test_run_bytes(self, scenario, sizes, digest):
        report, result = run_scenario(scenario)
        assert (len(result.key), result.transcript.public_bits) == sizes
        text = report.to_text() + result.transcript.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        for scenario in _random_scenarios(random.Random(811), 45, max_m=7, max_budget=12):
            _, result = run_scenario(scenario)
            assert result.secrecy == verify_independence(
                result.key_forms, result.transcript.forms(), result.basis), scenario

    def test_report_agrees_with_exhaustive_mutual_information(self):
        checked = 0
        for scenario in _random_scenarios(random.Random(812), 60, max_m=4, max_budget=3):
            _, result = run_scenario(scenario)
            if len(result.basis) > 14:
                continue
            mi = brute_force_mutual_information(
                result.key_forms, result.transcript.forms(), len(result.basis))
            assert Fraction(result.secrecy.leaked_bits) == mi
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


class TestOneReduction:
    def test_run_scenario_indexes_and_reduces_the_transcript_once(self, monkeypatch):
        calls = {"index": 0, "table": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pinkey.protocols, "support_index", counted("index", pinkey.protocols.support_index))
        monkeypatch.setattr(pinkey.secrecy, "support_index", counted("index", pinkey.secrecy.support_index))
        monkeypatch.setattr(pinkey.protocols, "_transcript_table",
                            counted("table", pinkey.protocols._transcript_table))
        for scenario in (_star_scenario(), _relay_scenario(), _group_scenario()):
            calls.update(index=0, table=0)
            _, result = run_scenario(scenario)
            assert len(result.key) > 0
            assert calls == {"index": 1, "table": 1}, scenario.protocol

    def test_a_subgroup_run_solves_one_max_flow(self, monkeypatch):
        kernel = pinkey.graph._edmonds_karp
        calls = []
        monkeypatch.setattr(pinkey.graph, "_edmonds_karp", lambda *args: calls.append(1) or kernel(*args))
        scenario = _relay_scenario()
        spec = scenario.spec
        result = run_subgroup(generate_pairwise_keys(spec, 1), spec, scenario.s, scenario.t, 1)
        assert len(calls) == 1
        assert result.bound == len(result.key)


def test_the_self_check_reports_a_leak_as_the_oracles_do():
    # Two extra public bits k0 ^ x and x ^ k1 are faithful, pad nothing
    # twice and still let everyone replay, but publish k0 ^ k1.
    spec = NetworkSpec.star([3, 5, 5])
    store = generate_pairwise_keys(spec, 9)
    result = run_broadcast(store, spec)
    k0, k1 = result.key_ids[:2]
    x = store.take(0, 3, 1)[0]
    plain, pad = (k0, x), (x, k1)
    payload = tuple(store.basis.values[a] ^ store.basis.values[b] for a, b in zip(plain, pad))
    extra = PublicMessage(0, 3, 1, payload, plain, pad, store.basis)
    leaky = Transcript([*result.transcript, extra])
    report = _self_check(result.holders, result.key, result.key_ids, leaky, result.basis)
    assert report.leaked_bits == 1
    assert report == verify_independence(result.key_forms, leaky.forms(), result.basis)
    assert brute_force_mutual_information(result.key_forms, leaky.forms(), len(result.basis)) == 1
    assert result.secrecy.leaked_bits == 0


def test_message_views_render_the_labels_of_their_ids():
    spec = NetworkSpec.star([4, 2, 6])
    result = run_broadcast(generate_pairwise_keys(spec, 2), spec)
    # messages compare and hash by their ids, not their basis, so reruns give equal messages
    assert result.transcript.messages == run_broadcast(generate_pairwise_keys(spec, 2), spec).transcript.messages
    assert len({hash(msg) for msg in result.transcript}) == len(result.transcript)
    for msg in result.transcript:
        assert msg.pads == tuple(result.basis.label(i) for i in msg.pad)
        assert msg.forms == tuple(msg.forms) and msg.forms != msg.pads
        assert [sorted(form.labels) for form in msg.forms] == [
            sorted((result.basis.label(a), result.basis.label(b))) for a, b in zip(msg.plain, msg.pad)]
    assert [str(form) for form in result.key_forms] == ["K0-2:0", "K0-2:1"]


def test_message_views_slice_concatenate_and_print_as_tuples():
    spec = NetworkSpec.star([4, 2, 6])
    msg = run_broadcast(generate_pairwise_keys(spec, 2), spec).transcript.messages[0]
    assert type(msg.forms) is tuple and type(msg.pads) is tuple
    assert " at 0x" not in repr(msg)


def test_a_transcript_renders_only_from_one_basis():
    spec = NetworkSpec.star([3, 5, 5])
    one, two = (run_broadcast(generate_pairwise_keys(spec, seed), spec) for seed in (1, 2))
    with pytest.raises(ValueError, match="share one basis"):
        Transcript([*one.transcript, *two.transcript]).to_text()


def test_own_rows_do_not_walk_the_bits_of_a_run():
    class Run:  # a run of 10**15 ids, nearly all outside the support
        def __init__(self, start):
            self.start, self.stop = start, start + 10**15

        def __iter__(self):
            raise AssertionError("own_rows walked a run bit by bit")

    class Basis:
        values = {5: 1, 10**15 + 7: 0}

        def runs(self):
            return [(Run(0), frozenset({0, 1})), (Run(10**15), frozenset({2}))]

    rows = own_rows(Basis(), {10**15 + 7: 1, 5: 0})
    assert {owner: list(it) for owner, it in rows.items()} == {0: [0b11], 1: [0b11], 2: [0b100]}
