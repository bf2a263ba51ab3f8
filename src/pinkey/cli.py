"""Scenario-driven command line front end.

A scenario is a single text file of ``key value`` lines plus one
``pair i j budget`` line per positive pair, for example::

    version 1
    m 3
    protocol group
    seed 7
    pair 0 1 5
    pair 0 2 4
    pair 1 2 3

Subcommands: ``bound`` (print the case's exact bound), ``run`` (execute
the protocol and print a deterministic report), ``oracle`` (exhaustive
cross-checks), ``verify`` (re-run and compare a saved transcript).

A ``Scenario`` checks its own fields however it is built: from a file,
from a file with flag overrides, or in code.

Exit codes: 0 success; 1 verify mismatch; 2 a scenario that fails
validation, or a scenario or transcript file that cannot be read or written;
3 an exhaustive guard was exceeded; 4 a secrecy, bound or self-check
invariant raised InvariantViolation, which indicates a bug because the
constructions guarantee none can happen, so a printed report always
says ``status ok``.  Reports are byte-identical across runs for the same
scenario and seed; wall time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor

from .bounds import BoundReport, broadcast_bound, group_bound, subgroup_bound
from .errors import (
    InstanceTooLarge,
    InvariantViolation,
    NotAStar,
    ParseError,
    ValidationError,
)
from .graph import TIE_BREAK_POLICIES
from .model import NetworkSpec, check_seed, generate_pairwise_keys
from .protocols import GroupKeyResult, run_broadcast, run_group_key, run_subgroup

PROTOCOLS = ("broadcast", "subgroup", "group")
FORMATS = ("text", "machine-readable")
ORACLE_KINDS = ("mincut", "multicut", "packing", "partitions", "mi")

_SCALAR_FIELDS = ("version", "m", "protocol", "seed", "s", "t", "tie_break", "format")


@dataclass(frozen=True)
class Scenario:
    """A network plus the protocol to run on it, checked however it is built.

    ``__post_init__`` raises ValidationError, naming the offending field,
    so a scenario built in code or by ``dataclasses.replace`` is checked
    exactly as one read from a file.
    """

    spec: NetworkSpec
    protocol: str
    seed: int = 0
    s: int | None = None
    t: int | None = None
    tie_break: str = "lex-kruskal"
    fmt: str = "text"

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValidationError(f"protocol: must be one of {PROTOCOLS}, got {self.protocol!r}")
        try:
            check_seed(self.seed)
        except ValueError as exc:
            raise ValidationError(f"seed: {exc}") from None
        if self.tie_break not in TIE_BREAK_POLICIES:
            raise ValidationError(
                f"tie_break: must be one of {TIE_BREAK_POLICIES}, got {self.tie_break!r}")
        if self.fmt not in FORMATS:
            raise ValidationError(f"format: must be one of {FORMATS}, got {self.fmt!r}")
        terminals = (("s", self.s), ("t", self.t))
        if self.protocol != "subgroup":
            for field, value in terminals:
                if value is not None:
                    raise ValidationError(f"{field}: only valid for the subgroup protocol")
            return
        for field, value in terminals:
            if value is None:
                raise ValidationError(f"{field}: required for the subgroup protocol")
        m = self.spec.m
        for field, value in terminals:
            if not (type(value) is int and 0 <= value < m):
                raise ValidationError(f"{field}: terminal {value} out of range for m={m}")
        if self.s == self.t:
            raise ValidationError("t: source and sink terminals must differ")


# int() alone would also take "1_0", "+3" and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")
# A well-formed pair line, whole: the tokens that str.split() gives and an optional comment.
_PAIR_LINE = re.compile(r"\s*pair\s+(-?[0-9]+)\s+(-?[0-9]+)\s+(-?[0-9]+)\s*(?:#.*)?", re.DOTALL)


def _parse_int(raw: str, where: str) -> int:
    if not _INTEGER.fullmatch(raw):
        raise ParseError(f"{where}: expected an integer, got {raw!r}")
    return int(raw)


def _int_flag(raw: str) -> int:
    """argparse ``type`` for integer flags, under the scenario-file rule."""
    if not _INTEGER.fullmatch(raw):
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    return int(raw)


def load_scenario(path: str) -> Scenario:
    """Parse a scenario file into a ``Scenario``, which checks its own fields.

    Raises ParseError on malformed lines and ValidationError (naming the
    offending field) on semantic problems, including unknown fields.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario {path!r}: {exc}") from None

    scalars: dict[str, str] = {}
    pairs: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        if match := _PAIR_LINE.fullmatch(raw):
            pairs.append((int(match[1]), int(match[2]), int(match[3])))
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        where = f"line {lineno}"
        if tokens[0] == "pair":
            # a malformed pair line: _PAIR_LINE took the rest, as its \s is str.split()'s whitespace
            for token in tokens[1:] if len(tokens) == 4 else ():
                _parse_int(token, where)
            raise ParseError(f"{where}: pair lines are 'pair i j budget'")
        if len(tokens) != 2:
            raise ParseError(f"{where}: expected 'key value', got {line!r}")
        key, value = tokens
        if key not in _SCALAR_FIELDS:
            raise ValidationError(f"{where}: unknown field {key!r}")
        if key in scalars:
            raise ValidationError(f"{where}: duplicate field {key!r}")
        scalars[key] = value

    if scalars.get("version") != "1":
        raise ValidationError(f"version: must be 1, got {scalars.get('version')!r}")
    for required in ("m", "protocol"):
        if required not in scalars:
            raise ValidationError(f"{required}: field is required")

    m = _parse_int(scalars["m"], "m")
    if m < 2:
        raise ValidationError(f"m: need at least 2 terminals, got {m}")
    ints = {key: _parse_int(scalars[key], key) for key in ("seed", "s", "t") if key in scalars}
    try:
        spec = NetworkSpec.from_pairs(m, pairs)
    except ValueError as exc:
        raise ValidationError(f"pair: {exc}") from None
    return Scenario(spec, scalars["protocol"], tie_break=scalars.get("tie_break", "lex-kruskal"),
                    fmt=scalars.get("format", "text"), **ints)


@dataclass(frozen=True)
class RunReport:
    """Everything the run subcommand prints, read from the scenario and its result.

    Wall time is measured but reported on stderr only, so that the
    report itself is byte-identical across reruns.
    """

    scenario: Scenario
    result: GroupKeyResult
    wall_time_s: float

    def _fields(self) -> list[tuple[str, object]]:
        scenario, result = self.scenario, self.result
        bound, key_bits, public_bits = result.bound, len(result.key_ids), result.transcript.public_bits
        out: list[tuple[str, object]] = [
            ("protocol", scenario.protocol),
            ("m", scenario.spec.m),
            ("seed", scenario.seed),
        ]
        # a group run keys one bit per tree; a subgroup key is one fresh bit per unit of flow
        if scenario.protocol == "group":
            out.append(("tie_break", scenario.tie_break))
            out.append(("iterations", key_bits))
        if scenario.protocol == "subgroup":
            out.append(("s", scenario.s))
            out.append(("t", scenario.t))
            out.append(("flow_value", key_bits))
        out += [
            ("bound", bound),
            ("bound_floor", None if bound is None else floor(bound)),
            ("key_length", key_bits),
            ("gap", result.gap),
            ("messages", len(result.transcript)),
            ("public_bits", public_bits),
            # the self-check raised unless the key ids are distinct and every pad is private
            ("rank_key", key_bits),
            ("rank_transcript", public_bits),
            ("rank_joint", key_bits + public_bits),
            ("leaked_bits", 0),
            ("uniform", True),
            ("status", "ok"),
        ]
        return out

    def to_text(self) -> str:
        return _render_kv(self._fields(), "text", "report v1")

    def to_json(self) -> str:
        return _render_kv(self._fields(), "machine-readable", "report v1")


def _render_kv(pairs: list[tuple[str, object]], fmt: str, header: str) -> str:
    """A ``header`` line plus ``key value`` lines, or one sorted JSON object.

    Text renders None as ``-`` and booleans in lower case; JSON keeps
    ints and booleans and writes fractions as strings.
    """
    if fmt == "machine-readable":
        payload = {key: str(value) if isinstance(value, Fraction) else value
                   for key, value in pairs}
        return json.dumps(payload, sort_keys=True) + "\n"
    lines = [header]
    for key, value in pairs:
        if value is None:
            value = "-"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"


def run_scenario(scenario: Scenario) -> tuple[RunReport, GroupKeyResult]:
    """Execute the scenario's protocol and assemble the auditable report."""
    store = generate_pairwise_keys(scenario.spec, scenario.seed)
    started = time.perf_counter()
    if scenario.protocol == "broadcast":
        result = run_broadcast(store)
    elif scenario.protocol == "subgroup":
        result = run_subgroup(store, scenario.s, scenario.t)
    else:
        result = run_group_key(store, scenario.tie_break)
    return RunReport(scenario, result, time.perf_counter() - started), result


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The scenario file with the flags that were given laid over it, checked again."""
    flags = {"seed": args.seed, "tie_break": args.tie_break, "fmt": args.format}
    return replace(load_scenario(args.scenario),
                   **{field: value for field, value in flags.items() if value is not None})


def _bound_for(scenario: Scenario) -> BoundReport:
    spec = scenario.spec
    if scenario.protocol == "broadcast":
        return broadcast_bound(spec)
    if scenario.protocol == "subgroup":
        return subgroup_bound(spec, scenario.s, scenario.t)
    return group_bound(spec)


def _cmd_bound(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    report = _bound_for(scenario)
    rows = [
        ("case", report.case),
        ("value", report.value),
        ("floor", floor(report.value)),
        ("formula", report.formula),
        ("witness", str(report.witness)),
    ]
    sys.stdout.write(_render_kv(rows, scenario.fmt, "bound v1"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    report, result = run_scenario(scenario)
    if args.emit_transcript:
        try:
            with open(args.emit_transcript, "w", encoding="utf-8") as fh:
                fh.write(result.transcript.to_text())
        except OSError as exc:
            raise ParseError(f"cannot write transcript {args.emit_transcript!r}: {exc}") from None
    sys.stdout.write(report.to_json() if scenario.fmt == "machine-readable" else report.to_text())
    sys.stderr.write(f"wall_time_s {report.wall_time_s:.6f}\n")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracles  # the exhaustive oracles stay off the run path's imports

    scenario = _scenario_from_args(args)
    spec = scenario.spec
    kind = args.kind
    if kind == "mincut":
        s = args.s if args.s is not None else scenario.s
        t = args.t if args.t is not None else scenario.t
        if s is None or t is None:
            raise ValidationError("mincut: provide --s and --t or a subgroup scenario")
        try:
            value, witness = oracles.min_st_cut_bruteforce(spec, s, t)
        except ValueError as exc:
            raise ValidationError(f"mincut: {exc}") from None
        rows = [("kind", kind), ("value", value), ("witness", str(witness))]
    elif kind == "multicut":
        value, witness = oracles.min_normalized_multicut(spec)
        rows = [("kind", kind), ("value", value), ("floor", floor(value)), ("witness", str(witness))]
    elif kind == "packing":
        rows = [("kind", kind), ("value", oracles.optimal_tree_packing_bruteforce(spec))]
    elif kind == "partitions":
        count = sum(1 for _ in oracles._codes(spec.m))  # the codes of enumerate_partitions, unbuilt
        rows = [("kind", kind), ("count", count)]
    else:  # mi: exhaustive check of the scenario's own run
        _, result = run_scenario(scenario)
        # the scenario's source bits: every budget bit, drawn or not, and the run's fresh
        # bits, which have one owner each
        size = spec.total_budget() + sum(len(ids) for ids, owners in result.basis.runs()
                                         if len(owners) == 1)
        value = oracles.brute_force_mutual_information(
            result.key_forms, result.transcript.forms(), size)
        rows = [("kind", kind), ("value", value), ("basis_size", size)]
    sys.stdout.write(_render_kv(rows, scenario.fmt, "oracle v1"))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    _, result = run_scenario(scenario)
    expected = result.transcript.to_text()
    try:
        with open(args.transcript, encoding="utf-8") as fh:
            saved = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read transcript {args.transcript!r}: {exc}") from None
    if saved == expected:
        sys.stdout.write("verify ok\n")
        return 0
    sys.stdout.write("verify mismatch\n")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinkey",
        description="Group secret-key agreement over pairwise shared randomness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="path to a scenario file")
        p.add_argument("--seed", type=_int_flag, default=None, help="override the scenario seed (u64)")
        p.add_argument("--tie-break", dest="tie_break", choices=TIE_BREAK_POLICIES,
                       default=None, help="spanning-tree tie-break policy (group protocol)")
        p.add_argument("--format", choices=FORMATS, default=None, help="output format")

    p_bound = sub.add_parser("bound", help="print the exact bound for the scenario's case")
    common(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_run = sub.add_parser("run", help="run the scenario's protocol and print a report")
    common(p_run)
    p_run.add_argument("--emit-transcript", default=None, help="also write the transcript to this path")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="exhaustive cross-checks on the scenario's budget graph")
    p_oracle.add_argument("kind", choices=ORACLE_KINDS)
    common(p_oracle)
    p_oracle.add_argument("--s", type=_int_flag, default=None, help="source terminal (mincut)")
    p_oracle.add_argument("--t", type=_int_flag, default=None, help="sink terminal (mincut)")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="re-run the scenario and compare a saved transcript")
    common(p_verify)
    p_verify.add_argument("transcript", help="path of the transcript to check")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, NotAStar) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InstanceTooLarge as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except InvariantViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
