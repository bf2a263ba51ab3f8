"""The benchmark's own checks must pass real runs and catch corrupted ones.

Run from the repository root with either of

    python3 bench/test_checks.py
    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import Case  # noqa: E402

sys.path.insert(0, str(run.SRC))

from pinkey import cli  # noqa: E402

STAR = Case("star", "broadcast", 4, {(0, 1): 7, (0, 2): 5, (0, 3): 9}, seed=3)
RELAY = Case("relay", "subgroup", 3, {(0, 1): 5, (0, 2): 4, (1, 2): 3}, seed=5, s=0, t=2)
GROUP = Case("group", "group", 5, {(i, j): 2 + (i * j) % 3 for i in range(5) for j in range(i + 1, 5)}, seed=7)


def run_case(case: Case, tmp: Path) -> checks.Output:
    path = tmp / f"{case.name}.txt"
    path.write_text(case.to_text(), encoding="utf-8")
    report, result = cli.run_scenario(cli.load_scenario(str(path)))
    return run.capture(report.to_text(), result.transcript.to_text(), result)


def rewrite_message(out: checks.Output, n: int, payload, forms, pads) -> checks.Output:
    """Replace message ``n`` (1-based line of the transcript) with new content."""
    lines = out.transcript_text.splitlines()
    round_, sender, receiver = lines[n].split(" ")[:3]
    hex_payload = f"{int(''.join(map(str, payload)), 2):0{(len(payload) + 3) // 4}x}"
    lines[n] = f"{round_} {sender} {receiver} {hex_payload} {';'.join('^'.join(f) for f in forms)}"
    new_pads = list(out.pads)
    new_pads[n - 1] = tuple(pads)
    return dataclasses.replace(out, transcript_text="\n".join(lines) + "\n", pads=tuple(new_pads))


def set_report(out: checks.Output, key: str, value: object) -> checks.Output:
    lines = [f"{key} {value}" if line.startswith(f"{key} ") else line
             for line in out.report_text.splitlines()]
    return dataclasses.replace(out, report_text="\n".join(lines) + "\n")


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls._tmp.name)
        cls.outputs = {case.name: run_case(case, tmp) for case in (STAR, RELAY, GROUP)}

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def test_real_runs_pass(self):
        for case in (STAR, RELAY, GROUP):
            self.assertEqual(checks.check(case, self.outputs[case.name]), [], case.name)

    def test_flipped_payload_bit_is_caught(self):
        out = self.outputs["star"]
        msg = checks.parse_transcript(out.transcript_text)[0]
        payload = (1 - msg.payload[0],) + msg.payload[1:]
        bad = rewrite_message(out, 1, payload, msg.forms, out.pads[0])
        self.assertTrue(any("payload bit" in p for p in checks.check(STAR, bad)))

    def test_reused_pad_is_caught(self):
        # Message 2 re-keys its leaf with message 1's pads: every payload
        # still matches its form, but a pad is used twice.
        out = self.outputs["star"]
        first = checks.parse_transcript(out.transcript_text)[0]
        bad = rewrite_message(out, 2, first.payload, first.forms, out.pads[0])
        self.assertTrue(any("used before" in p for p in checks.check(STAR, bad)))

    def test_key_bit_in_a_public_form_is_caught(self):
        # The first message of the relay publishes the key bit itself.
        out = self.outputs["relay"]
        msg = checks.parse_transcript(out.transcript_text)[0]
        forms = (out.key_forms[0],) + msg.forms[1:]
        payload = (out.key_bits[0],) + msg.payload[1:]
        bad = rewrite_message(out, 1, payload, forms, out.pads[0])
        self.assertTrue(any("leaks" in p for p in checks.check(RELAY, bad)))

    def test_key_longer_than_bound_is_caught(self):
        # Claim just enough more key bits, each a real but unused pair bit.
        out = self.outputs["group"]
        needed = int(checks.partition_bound(GROUP.m, GROUP.budgets)) + 1 - len(out.key_forms)
        unused = [f"K{i}-{j}:{t}" for (i, j), w in sorted(GROUP.budgets.items())
                  for t in range(w) if f"K{i}-{j}:{t}" not in out.values]
        self.assertGreaterEqual(len(unused), needed)
        extra = unused[:needed]
        values = dict(out.values)
        values.update({label: 0 for label in extra})
        longer = len(out.key_forms) + len(extra)
        bad = dataclasses.replace(
            out,
            key_forms=out.key_forms + tuple((label,) for label in extra),
            key_bits=out.key_bits + (0,) * len(extra),
            values=values,
        )
        bad = set_report(set_report(set_report(bad, "key_length", longer), "iterations", longer),
                         "rank_key", longer)
        self.assertTrue(any("bound" in p for p in checks.check(GROUP, bad)))

    def test_bounds_match_hand_computed_values(self):
        budgets = {(0, 1): 5, (0, 2): 4, (1, 2): 3}
        self.assertEqual(checks.partition_bound(3, budgets), Fraction(6))
        self.assertEqual(checks.max_flow_value(3, budgets, 0, 2), 7)
        self.assertEqual(checks.gf2_rank([0b011, 0b110, 0b101, 0b100]), 3)


if __name__ == "__main__":
    unittest.main()
