"""Scenario parsing and end-to-end command line behaviour."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

import pinkey.protocols
from pinkey import NetworkSpec
from pinkey.cli import Scenario, load_scenario, main
from pinkey.errors import ParseError, ValidationError

TRIANGLE_SCENARIO = """\
# the running example: three terminals, uneven budgets
version 1
m 3
protocol group
seed 7
pair 0 1 5
pair 0 2 4
pair 1 2 3
"""

STAR_SCENARIO = """\
version 1
m 4
protocol broadcast
seed 3
pair 0 1 7
pair 0 2 5
pair 0 3 9
"""

SUBGROUP_SCENARIO = """\
version 1
m 3
protocol subgroup
seed 5
s 0
t 2
pair 0 1 5
pair 0 2 4
pair 1 2 3
"""

# complete m = 10, past the size up to which group runs attach their bound
GROUP_M10_SCENARIO = "version 1\nm 10\nprotocol group\nseed 2\n" + "".join(
    f"pair {i} {j} {1 + (i * j) % 3}\n" for i in range(10) for j in range(i + 1, 10))

TRIANGLE_REPORT = """\
report v1
protocol group
m 3
seed 7
tie_break lex-kruskal
iterations 6
bound 6
bound_floor 6
key_length 6
gap 0
messages 6
public_bits 6
rank_key 6
rank_transcript 6
rank_joint 12
leaked_bits 0
uniform true
status ok
"""

TRIANGLE_TRANSCRIPT = """\
transcript v1
0 0 2 0 K0-1:0^K0-2:0
1 0 2 0 K0-1:1^K0-2:1
2 1 2 0 K0-1:2^K1-2:0
3 0 2 1 K0-1:3^K0-2:2
4 1 2 1 K0-1:4^K1-2:1
5 2 1 1 K0-2:3^K1-2:2
"""


def json_of_text_report(report):
    """The JSON payload a text report stands for: ``-`` is null, ``true`` and
    ``false`` are booleans, bound and gap are fraction strings, other integers ints."""
    header, *lines = report.splitlines()
    assert header == "report v1"
    payload = {}
    for key, value in (line.split(" ", 1) for line in lines):
        if value == "-":
            payload[key] = None
        elif value in ("true", "false"):
            payload[key] = value == "true"
        elif key in ("bound", "gap") or not re.fullmatch(r"-?[0-9]+", value):
            payload[key] = value
        else:
            payload[key] = int(value)
    assert len(payload) == len(lines)
    return payload


def scenario_file(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadScenario:
    def test_parses_the_running_example(self, tmp_path):
        scenario = load_scenario(scenario_file(tmp_path, TRIANGLE_SCENARIO))
        assert scenario == Scenario(
            spec=NetworkSpec(3, {(0, 1): 5, (0, 2): 4, (1, 2): 3}),
            protocol="group",
            seed=7,
        )

    def test_defaults(self, tmp_path):
        scenario = load_scenario(
            scenario_file(tmp_path, "version 1\nm 2\nprotocol group\npair 0 1 2\n")
        )
        assert scenario.seed == 0
        assert scenario.tie_break == "lex-kruskal"
        assert scenario.fmt == "text"

    def test_zero_budget_pairs_are_dropped(self, tmp_path):
        scenario = load_scenario(
            scenario_file(tmp_path, "version 1\nm 3\nprotocol group\npair 0 1 2\npair 1 2 0\n")
        )
        assert scenario.spec.budgets == {(0, 1): 2}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.txt"))

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"version 1\nm 2\nprotocol group\npair 0 1 5 # caf\xe9\n")
        with pytest.raises(ParseError, match="cannot read"):
            load_scenario(str(path))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "error: cannot read scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("version 2\nm 3\nprotocol group\n", "version"),
            ("m 3\nprotocol group\n", "version"),
            ("version 1\nprotocol group\n", "m: field is required"),
            ("version 1\nm 3\n", "protocol: field is required"),
            ("version 1\nm 1\nprotocol group\n", "at least 2"),
            ("version 1\nm 3\nprotocol quorum\n", "protocol"),
            ("version 1\nm 3\nprotocol group\ncolor red\n", "unknown field 'color'"),
            ("version 1\nm 3\nprotocol group\nseed 1\nseed 2\n", "duplicate field 'seed'"),
            ("version 1\nm 3\nprotocol group\nseed 18446744073709551616\n", "seed"),
            ("version 1\nm 3\nprotocol group\ntie_break random\n", "tie_break"),
            ("version 1\nm 3\nprotocol group\nformat yaml\n", "format"),
            ("version 1\nm 3\nprotocol subgroup\nt 2\n", "s: required"),
            ("version 1\nm 3\nprotocol subgroup\ns 1\nt 1\n", "must differ"),
            ("version 1\nm 3\nprotocol subgroup\ns 0\nt 3\n", "out of range"),
            ("version 1\nm 3\nprotocol group\ns 0\n", "only valid for the subgroup"),
            ("version 1\nm 3\nprotocol group\npair 0 0 2\n", "self-pair"),
            ("version 1\nm 3\nprotocol group\npair 0 3 2\n", "out of range"),
            ("version 1\nm 3\nprotocol group\npair 0 1 2\npair 1 0 3\n", "duplicate pair"),
            ("version 1\nm 3\nprotocol group\npair 0 1 0\npair 1 0 3\n", "duplicate pair"),
            ("version 1\nm 3\nprotocol group\npair 0 1 -2\n", "nonnegative"),
        ],
    )
    def test_validation_failures(self, tmp_path, text, needle):
        with pytest.raises(ValidationError, match=re.escape(needle)):
            load_scenario(scenario_file(tmp_path, text))

    @pytest.mark.parametrize(
        "text",
        [
            "version 1\nm 3\nprotocol group\npair 0 1\n",
            "version 1\nm 3\nprotocol group extra\n",
            "lonely\n",
            "version 1\nm three\nprotocol group\n",
            "version 1\nm 3\nprotocol group\npair 0 1 two\n",
            "version 1\nm 3\nprotocol group\npair 0 1 1_0\n",
            "version 1\nm +3\nprotocol group\n",
            "version 1\nm 3\nprotocol group\nseed \u0663\n",
        ],
    )
    def test_parse_failures(self, tmp_path, text):
        with pytest.raises(ParseError):
            load_scenario(scenario_file(tmp_path, text))


class TestRunCommand:
    def test_group_report_is_golden(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["run", "--scenario", path]) == 0
        captured = capsys.readouterr()
        assert captured.out == TRIANGLE_REPORT
        assert re.fullmatch(r"wall_time_s \d+\.\d{6}\n", captured.err)

    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        outputs = []
        for _ in range(2):
            assert main(["run", "--scenario", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_machine_readable_report(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["run", "--scenario", path, "--format", "machine-readable"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "bound": "6",
            "bound_floor": 6,
            "gap": "0",
            "iterations": 6,
            "key_length": 6,
            "leaked_bits": 0,
            "m": 3,
            "messages": 6,
            "protocol": "group",
            "public_bits": 6,
            "rank_joint": 12,
            "rank_key": 6,
            "rank_transcript": 6,
            "seed": 7,
            "status": "ok",
            "tie_break": "lex-kruskal",
            "uniform": True,
        }
        # both formats print the same fields on every protocol, with and without a bound
        payloads = {}
        for name, text in (("group", TRIANGLE_SCENARIO), ("broadcast", STAR_SCENARIO),
                           ("subgroup", SUBGROUP_SCENARIO), ("group-m10", GROUP_M10_SCENARIO)):
            path = scenario_file(tmp_path, text, f"{name}.txt")
            assert main(["run", "--scenario", path]) == 0
            expected = json_of_text_report(capsys.readouterr().out)
            assert main(["run", "--scenario", path, "--format", "machine-readable"]) == 0
            assert json.loads(capsys.readouterr().out) == expected, name
            payloads[name] = expected
        assert payloads["group"] == payload
        assert (payloads["subgroup"]["s"], payloads["subgroup"]["t"]) == (0, 2)
        assert payloads["subgroup"]["flow_value"] == payloads["subgroup"]["key_length"] == 7
        assert "iterations" not in payloads["broadcast"] and "flow_value" not in payloads["broadcast"]
        m10 = payloads["group-m10"]
        assert m10["m"] == 10 and m10["iterations"] == m10["key_length"] > 0
        assert m10["bound"] is m10["bound_floor"] is m10["gap"] is None
        assert m10["status"] == "ok"

    def test_emit_transcript(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        out = tmp_path / "run.transcript"
        assert main(["run", "--scenario", path, "--emit-transcript", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8") == TRIANGLE_TRANSCRIPT

    def test_emit_transcript_into_a_missing_directory_exits_2(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        out = tmp_path / "missing" / "run.transcript"
        assert main(["run", "--scenario", path, "--emit-transcript", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write transcript {str(out)!r}: ")
        assert captured.err.count("\n") == 1

    def test_seed_override_shows_in_the_report(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["run", "--scenario", path, "--seed", "8"]) == 0
        assert "seed 8\n" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["run", "--seed", "1_0"],
        ["run", "--seed", "+3"],
        ["run", "--seed", "\u0663"],
        ["oracle", "mincut", "--s", "1_0", "--t", "2"],
        ["oracle", "mincut", "--s", "0", "--t", "+2"],
        ["oracle", "mincut", "--s", "\u0660", "--t", "2"],
    ])
    def test_integer_flags_take_scenario_file_integers_only(self, tmp_path, capsys, flags):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        with pytest.raises(SystemExit) as exc:
            main([*flags, "--scenario", path])
        assert exc.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_negative_seed_flag_is_a_validation_error(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["run", "--scenario", path, "--seed", "-1"]) == 2
        assert "error: seed: must fit" in capsys.readouterr().err

    def test_tie_break_override(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["run", "--scenario", path, "--tie-break", "degree-min"]) == 0
        assert "tie_break degree-min\n" in capsys.readouterr().out

    def test_broadcast_run(self, tmp_path, capsys):
        path = scenario_file(tmp_path, STAR_SCENARIO)
        assert main(["run", "--scenario", path]) == 0
        out = capsys.readouterr().out
        for line in ("protocol broadcast", "key_length 5", "bound 5", "gap 0",
                     "public_bits 10", "status ok"):
            assert f"{line}\n" in out

    def test_subgroup_run(self, tmp_path, capsys):
        path = scenario_file(tmp_path, SUBGROUP_SCENARIO)
        assert main(["run", "--scenario", path]) == 0
        out = capsys.readouterr().out
        for line in ("protocol subgroup", "s 0", "t 2", "flow_value 7",
                     "key_length 7", "gap 0", "status ok"):
            assert f"{line}\n" in out

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        path = scenario_file(tmp_path, "version 1\nm 3\nprotocol group\ncolor red\n")
        assert main(["run", "--scenario", path]) == 2
        assert "error:" in capsys.readouterr().err


    def test_invariant_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        real_round = pinkey.protocols.single_bit_round

        def corrupted_round(*args, **kwargs):
            label, messages = real_round(*args, **kwargs)
            return label, [replace(m, payload=(m.payload[0] ^ 1,)) for m in messages]

        monkeypatch.setattr(pinkey.protocols, "single_bit_round", corrupted_round)
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["run", "--scenario", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: transcript form does not match payload\n"


class TestBoundCommand:
    def test_group_bound_is_golden(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["bound", "--scenario", path]) == 0
        assert capsys.readouterr().out == (
            "bound v1\n"
            "case group\n"
            "value 6\n"
            "floor 6\n"
            "formula min-normalized-multicut\n"
            "witness {0}|{1}|{2}\n"
        )

    def test_group_bound_past_the_enumeration_guard(self, tmp_path, capsys):
        # oracle multicut refuses m = 13 (exit 3); the bound itself does not
        lines = ["version 1", "m 13", "protocol group"]
        lines += [f"pair {i} {(i + 1) % 13} 1" for i in range(13)]
        path = scenario_file(tmp_path, "\n".join(lines) + "\n")
        assert main(["bound", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "value 13/12\n" in out and "floor 1\n" in out
        assert "witness " + "|".join(f"{{{v}}}" for v in range(13)) + "\n" in out

    def test_broadcast_bound(self, tmp_path, capsys):
        path = scenario_file(tmp_path, STAR_SCENARIO)
        assert main(["bound", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "case broadcast\n" in out
        assert "value 5\n" in out
        assert "formula min-leaf-budget\n" in out

    def test_broadcast_bound_on_a_non_star_exits_2(self, tmp_path, capsys):
        text = TRIANGLE_SCENARIO.replace("protocol group", "protocol broadcast")
        path = scenario_file(tmp_path, text)
        assert main(["bound", "--scenario", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_machine_readable_bound(self, tmp_path, capsys):
        path = scenario_file(tmp_path, SUBGROUP_SCENARIO)
        assert main(["bound", "--scenario", path, "--format", "machine-readable"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "subgroup"
        assert payload["value"] == "7"
        assert payload["formula"] == "min-st-cut"


class TestOracleCommand:
    def test_mincut_with_explicit_terminals(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["oracle", "mincut", "--scenario", path, "--s", "0", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "oracle v1\n" in out
        assert "value 7\n" in out
        assert "witness {0,1}|{2}\n" in out

    def test_mincut_takes_terminals_from_a_subgroup_scenario(self, tmp_path, capsys):
        path = scenario_file(tmp_path, SUBGROUP_SCENARIO)
        assert main(["oracle", "mincut", "--scenario", path]) == 0
        assert "value 7\n" in capsys.readouterr().out

    def test_mincut_without_terminals_exits_2(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["oracle", "mincut", "--scenario", path]) == 2
        assert "provide --s and --t" in capsys.readouterr().err

    def test_multicut(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["oracle", "multicut", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "value 6\n" in out and "witness {0}|{1}|{2}\n" in out

    def test_packing(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["oracle", "packing", "--scenario", path]) == 0
        assert capsys.readouterr().out == "oracle v1\nkind packing\nvalue 6\n"

    def test_partitions(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["oracle", "partitions", "--scenario", path]) == 0
        assert capsys.readouterr().out == "oracle v1\nkind partitions\ncount 4\n"

    def test_mi_confirms_zero_leakage(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["oracle", "mi", "--scenario", path]) == 0
        assert capsys.readouterr().out == (
            "oracle v1\nkind mi\nvalue 0\nbasis_size 12\n"
        )

    def test_guard_trips_exit_3(self, tmp_path, capsys):
        lines = ["version 1", "m 13", "protocol group"]
        lines += [f"pair 0 {i} 1" for i in range(1, 13)]
        path = scenario_file(tmp_path, "\n".join(lines) + "\n")
        assert main(["oracle", "multicut", "--scenario", path]) == 3
        assert "error:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_roundtrip_verifies(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        saved = tmp_path / "saved.transcript"
        assert main(["run", "--scenario", path, "--emit-transcript", str(saved)]) == 0
        capsys.readouterr()
        assert main(["verify", "--scenario", path, str(saved)]) == 0
        assert capsys.readouterr().out == "verify ok\n"

    def test_tampering_is_detected(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        saved = tmp_path / "saved.transcript"
        assert main(["run", "--scenario", path, "--emit-transcript", str(saved)]) == 0
        capsys.readouterr()
        text = saved.read_text(encoding="utf-8")
        saved.write_text(text.replace("0 0 2 0", "0 0 2 1", 1), encoding="utf-8")
        assert main(["verify", "--scenario", path, str(saved)]) == 1
        assert capsys.readouterr().out == "verify mismatch\n"

    def test_wrong_seed_mismatches(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        saved = tmp_path / "saved.transcript"
        assert main(["run", "--scenario", path, "--emit-transcript", str(saved)]) == 0
        capsys.readouterr()
        assert main(["verify", "--scenario", path, "--seed", "8", str(saved)]) == 1

    def test_missing_transcript_exits_2(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        assert main(["verify", "--scenario", path, str(tmp_path / "gone.transcript")]) == 2

    def test_non_utf8_transcript_exits_2(self, tmp_path, capsys):
        path = scenario_file(tmp_path, TRIANGLE_SCENARIO)
        saved = tmp_path / "saved.transcript"
        saved.write_bytes(TRIANGLE_TRANSCRIPT.encode() + b"\xff\n")
        assert main(["verify", "--scenario", path, str(saved)]) == 2
        assert "error: cannot read transcript" in capsys.readouterr().err
