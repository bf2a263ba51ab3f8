"""Output checks that share no code with the package under test.

Each run's report and transcript are parsed from their text, and every
claim in them is recomputed here: payload bits from their forms and the
realized source bits, one-time-pad discipline, leakage and key rank by
this module's own GF(2) elimination, and the key length against bounds
computed by this module's own max-flow and partition enumeration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from workloads import Case, connected, degrees

# Partition enumeration visits Bell(m) partitions: 21147 at m = 9.
PARTITION_CHECK_LIMIT = 9

_PAIR_LABEL = re.compile(r"K(\d+)-(\d+):(\d+)")
_LOCAL_LABEL = re.compile(r"R(\d+):(\d+)")


@dataclass(frozen=True)
class Output:
    """What one scenario run produced, kept compact for checking later.

    ``values`` holds the realized value of every source bit that a key or
    transcript form mentions; ``pads`` names, per message, the source bit
    that pads each payload bit.
    """

    report_text: str
    transcript_text: str
    key_forms: tuple[tuple[str, ...], ...]
    key_bits: tuple[int, ...]
    pads: tuple[tuple[str, ...], ...]
    values: dict[str, int]


@dataclass(frozen=True)
class Message:
    round: int
    sender: int
    receiver: int
    payload: tuple[int, ...]
    forms: tuple[tuple[str, ...], ...]


def parse_report(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0] != "report v1":
        raise ValueError("report does not start with 'report v1'")
    fields = {}
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def parse_transcript(text: str) -> list[Message]:
    lines = text.splitlines()
    if not lines or lines[0] != "transcript v1":
        raise ValueError("transcript does not start with 'transcript v1'")
    messages = []
    for line in lines[1:]:
        round_, sender, receiver, hex_payload, forms_text = line.split(" ")
        forms = tuple(() if f == "0" else tuple(f.split("^")) for f in forms_text.split(";"))
        value = 0 if hex_payload == "-" else int(hex_payload, 16)
        payload = tuple((value >> (len(forms) - 1 - k)) & 1 for k in range(len(forms)))
        messages.append(Message(int(round_), int(sender), int(receiver), payload, forms))
    return messages


def gf2_rank(rows: list[int], pivots: dict[int, int] | None = None) -> int:
    """Rank of GF(2) rows packed as ints, eliminating on the lowest set bit.

    Passing ``pivots`` extends an earlier elimination; the count returned
    is the rows added to it.
    """
    pivots = {} if pivots is None else pivots
    added = 0
    for row in rows:
        while row:
            low = (row & -row).bit_length()
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                added += 1
                break
            row ^= pivot
    return added


def max_flow_value(m: int, budgets: dict[tuple[int, int], int], s: int, t: int) -> int:
    """s-t max-flow of the undirected budget graph by shortest augmenting paths."""
    residual: list[dict[int, int]] = [{} for _ in range(m)]
    for (i, j), w in budgets.items():
        residual[i][j] = residual[i].get(j, 0) + w
        residual[j][i] = residual[j].get(i, 0) + w
    total = 0
    while True:
        parent = {s: s}
        frontier = [s]
        while frontier and t not in parent:
            nxt = []
            for u in frontier:
                for v, c in residual[u].items():
                    if c > 0 and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if t not in parent:
            return total
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        push = min(residual[path[k + 1]][path[k]] for k in range(len(path) - 1))
        for k in range(len(path) - 1):
            u, v = path[k + 1], path[k]
            residual[u][v] -= push
            residual[v][u] += push
        total += push


def partition_bound(m: int, budgets: dict[tuple[int, int], int]) -> Fraction:
    """min over partitions into k >= 2 blocks of crossing weight / (k - 1)."""
    weight = [[0] * m for _ in range(m)]
    for (i, j), w in budgets.items():
        weight[i][j] = weight[j][i] = w
    total = sum(budgets.values())
    block = [0] * m
    best = [Fraction(total)]  # no partition with k >= 2 exceeds the total

    def place(v: int, blocks: int, internal: int) -> None:
        if v == m:
            if blocks >= 2:
                value = Fraction(total - internal, blocks - 1)
                if value < best[0]:
                    best[0] = value
            return
        row = weight[v]
        for b in range(blocks + 1):
            block[v] = b
            gain = sum(row[u] for u in range(v) if block[u] == b)
            place(v + 1, max(blocks, b + 1), internal + gain)

    place(1, 1, 0)
    return best[0]


def _label_problem(case: Case, label: str) -> str | None:
    pair = _PAIR_LABEL.fullmatch(label)
    if pair:
        i, j, index = map(int, pair.groups())
        if i >= j or index >= case.budgets.get((i, j), 0):
            return f"label {label} is not a bit of a pair budget"
        return None
    local = _LOCAL_LABEL.fullmatch(label)
    if local and case.protocol == "subgroup" and int(local.group(1)) == case.s:
        return None
    return f"label {label} is not a source bit of this scenario"


def _xor(form: tuple[str, ...], values: dict[str, int]) -> int:
    acc = 0
    for label in form:
        acc ^= values[label]
    return acc


def _key_bound_problems(case: Case, key_length: int, report: dict[str, str]) -> list[str]:
    m, budgets = case.m, case.budgets
    problems = []
    bound = None if report.get("bound", "-") == "-" else Fraction(report["bound"])
    if case.protocol == "broadcast":
        poorest = min(budgets.get((0, leaf), 0) for leaf in range(1, m))
        if key_length != poorest:
            problems.append(f"key length {key_length} != poorest leaf budget {poorest}")
        if bound != poorest:
            problems.append(f"reported bound {bound} != poorest leaf budget {poorest}")
    elif case.protocol == "subgroup":
        cut = max_flow_value(m, budgets, case.s, case.t)
        if key_length != cut:
            problems.append(f"key length {key_length} != min s-t cut {cut}")
        if bound != cut or report.get("flow_value") != str(cut):
            problems.append(f"reported bound/flow {bound}/{report.get('flow_value')} != min s-t cut {cut}")
    else:
        ceiling = min(sum(budgets.values()) // (m - 1), min(degrees(m, budgets)))
        if key_length > ceiling:
            problems.append(f"key length {key_length} > min(total // (m-1), min degree) = {ceiling}")
        if m <= PARTITION_CHECK_LIMIT:
            own = partition_bound(m, budgets)
            if key_length > own:
                problems.append(f"key length {key_length} > partition bound {own}")
            if bound is not None and bound != own:
                problems.append(f"reported bound {bound} != partition bound {own}")
        if bound is not None and report.get("gap") != str(bound - key_length):
            problems.append(f"reported gap {report.get('gap')} != {bound} - {key_length}")
        if report.get("iterations") != str(key_length):
            problems.append(f"iterations {report.get('iterations')} != key length {key_length}")
    return problems


def check(case: Case, out: Output) -> list[str]:
    """Every way ``out`` disagrees with an independent recomputation; [] if none."""
    try:
        report = parse_report(out.report_text)
        messages = parse_transcript(out.transcript_text)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    problems = []
    key_length = len(out.key_forms)

    expected = {
        "protocol": case.protocol, "m": str(case.m), "key_length": str(key_length),
        "messages": str(len(messages)), "public_bits": str(sum(len(msg.payload) for msg in messages)),
        "leaked_bits": "0", "uniform": "true", "status": "ok",
    }
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"report {key} is {report.get(key)!r}, expected {value!r}")
    if len(out.key_bits) != key_length or len(out.pads) != len(messages):
        return problems + ["key bits or pads do not line up with the forms"]

    labels = {label for msg in messages for form in msg.forms for label in form}
    labels.update(label for form in out.key_forms for label in form)
    bad = [p for p in (_label_problem(case, label) for label in sorted(labels)) if p]
    if bad:
        return problems + bad[:3]
    if labels - out.values.keys():
        return problems + ["a form mentions a source bit with no realized value"]

    # Fidelity: each payload and key bit is its form on the realized bits.
    seen_pads: set[str] = set()
    for n, (msg, pads) in enumerate(zip(messages, out.pads)):
        if len(pads) != len(msg.forms):
            problems.append(f"message {n} has {len(pads)} pads for {len(msg.forms)} bits")
            continue
        pair_of_msg = (min(msg.sender, msg.receiver), max(msg.sender, msg.receiver))
        for bit, form, pad in zip(msg.payload, msg.forms, pads):
            if _xor(form, out.values) != bit:
                problems.append(f"message {n}: payload bit {bit} != its form {'^'.join(form)}")
            if pad in seen_pads:
                problems.append(f"message {n}: pad {pad} was used before")
            seen_pads.add(pad)
            pad_pair = _PAIR_LABEL.fullmatch(pad)
            if pad not in form or not pad_pair or tuple(map(int, pad_pair.groups()[:2])) != pair_of_msg:
                problems.append(f"message {n}: pad {pad} is not a bit of pair {pair_of_msg} in the form")
    for form, bit in zip(out.key_forms, out.key_bits):
        if _xor(form, out.values) != bit:
            problems.append(f"key bit {bit} != its form {'^'.join(form)}")

    # Secrecy: rank(K) = |K| and rank(K) + rank(T) - rank(K u T) = 0.
    index = {label: k for k, label in enumerate(sorted(labels))}

    def rows(forms):
        return [sum(1 << index[label] for label in set(form)) for form in forms]

    transcript_rows = rows(form for msg in messages for form in msg.forms)
    key_rows = rows(out.key_forms)
    pivots: dict[int, int] = {}
    rank_transcript = gf2_rank(transcript_rows, pivots)
    rank_joint = rank_transcript + gf2_rank(key_rows, pivots)
    rank_key = gf2_rank(key_rows)
    if rank_key != key_length:
        problems.append(f"key rank {rank_key} < key length {key_length}")
    if rank_key + rank_transcript != rank_joint:
        problems.append(f"transcript leaks {rank_key + rank_transcript - rank_joint} key bits")
    for key, value in (("rank_key", rank_key), ("rank_transcript", rank_transcript), ("rank_joint", rank_joint)):
        if report.get(key) != str(value):
            problems.append(f"report {key} is {report.get(key)!r}, recomputed {value}")

    problems += _key_bound_problems(case, key_length, report)

    if case.protocol == "group":
        used: dict[tuple[int, int], int] = {}
        for label in labels:
            i, j, _ = map(int, _PAIR_LABEL.fullmatch(label).groups())
            used[(i, j)] = used.get((i, j), 0) + 1
        residual = [pair for pair, w in case.budgets.items() if w > used.get(pair, 0)]
        if connected(case.m, residual):
            problems.append("residual budget graph is still connected after the group run")
    return problems


def unused_pad_bits(case: Case, out: Output) -> int:
    """Pair-budget bits that no key or transcript form consumed."""
    messages = parse_transcript(out.transcript_text)
    labels = {label for msg in messages for form in msg.forms for label in form}
    labels.update(label for form in out.key_forms for label in form)
    return sum(case.budgets.values()) - sum(1 for label in labels if _PAIR_LABEL.fullmatch(label))
