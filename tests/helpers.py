"""Seeded random-instance generators and basis queries shared across the test modules."""

from __future__ import annotations

import hashlib
import random
from collections import deque
from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate

from pinkey import NetworkSpec, Transcript, flood, generate_pairwise_keys
from pinkey.errors import InsufficientKeyMaterial, InvariantViolation
from pinkey.oracles import is_connected


def random_spec(rng: random.Random, max_m: int = 6, max_budget: int = 8, min_m: int = 2) -> NetworkSpec:
    m = rng.randint(min_m, max_m)
    budgets = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = rng.randint(0, max_budget)
            if w:
                budgets[(i, j)] = w
    return NetworkSpec(m, budgets)


def sparse_spec(m: int, p: float, seed: int, max_budget: int = 5) -> NetworkSpec:
    """Each pair i < j, in order, kept if ``r.random() < p`` and then given ``r.randint(1, max_budget)``,
    for ``r = random.Random(seed)``."""
    r = random.Random(seed)
    return NetworkSpec(m, {(i, j): r.randint(1, max_budget)
                           for i in range(m) for j in range(i + 1, m) if r.random() < p})


def random_connected_spec(rng: random.Random, max_m: int = 6, max_budget: int = 8) -> NetworkSpec:
    while True:
        spec = random_spec(rng, max_m, max_budget)
        if is_connected(spec):
            return spec


def random_star_spec(rng: random.Random, max_m: int = 8, max_budget: int = 12) -> NetworkSpec:
    m = rng.randint(2, max_m)
    return NetworkSpec.star([rng.randint(0, max_budget) for _ in range(m - 1)])


def restricted_growth_partitions(m: int) -> list[tuple[frozenset[int], ...]]:
    """Every partition of [0, m) into at least 2 blocks, block b holding the nodes of code b,
    for every restricted growth code in lexicographic order: node 0 has code 0, and each later
    node the code of a node before it or one past their largest."""
    def codes(prefix: list[int]):
        if len(prefix) == m:
            yield prefix
            return
        for code in range(max(prefix, default=-1) + 2):
            yield from codes(prefix + [code])

    return [tuple(frozenset(v for v in range(m) if code[v] == b) for b in range(max(code) + 1))
            for code in codes([]) if max(code) >= 1]


def debit(spec: NetworkSpec, edges) -> NetworkSpec:
    """The spec's budgets after one bit is spent on every edge (i, j) of a tree."""
    return NetworkSpec(spec.m, {pair: w - (pair in edges) for pair, w in spec.budgets.items()})


def plain_max_flow(spec: NetworkSpec, s: int, t: int) -> tuple[int, tuple, frozenset[int]]:
    """Textbook Edmonds-Karp over dict residuals, independent of the package: the flow value,
    the net flow's breadth-first path decomposition as sorted (path, amount) pairs, and the
    nodes s reaches in the final residual.

    Every search is a full breadth-first search that scans each node's neighbours in
    ascending order, and every augmentation follows one searched path."""
    def search(graph, source):
        parent = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(graph[u]):
                if v not in parent and graph[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        return parent

    def augment(graph, residual):
        paths = []
        while t in (parent := search(graph, s)):
            path = [t]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            amount = min(graph[u][v] for u, v in zip(path, path[1:]))
            for u, v in zip(path, path[1:]):
                graph[u][v] -= amount
                if residual:
                    graph[v][u] += amount
            paths.append((tuple(path), amount))
        return paths

    graph = {u: {} for u in range(spec.m)}
    for (i, j), w in spec.budgets.items():
        graph[i][j] = graph[j][i] = w
    value = sum(amount for _, amount in augment(graph, True))
    net = {u: {} for u in range(spec.m)}
    for (i, j), w in spec.budgets.items():
        flow = w - graph[i][j]  # net flow i -> j; negative when it goes j -> i
        if flow > 0:
            net[i][j] = flow
        elif flow < 0:
            net[j][i] = -flow
    return value, tuple(sorted(augment(net, False))), frozenset(search(graph, s))


def tagged_stream(tag: str) -> random.Random:
    """The bit stream that the store seeds for ``tag``, ``pair:{seed}:{i}:{j}`` or ``local:{seed}:{owner}``,
    derived here from the documented SHA-256 mix rather than the package's helper."""
    digest = hashlib.sha256(f"pinkey:{tag}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def transcript_columns(transcript) -> tuple:
    """Copies of a transcript's seven columns: per message its round, sender, receiver, end and
    the first ids of its plain and pad runs, and the payload."""
    return (list(transcript.rounds), list(transcript.senders), list(transcript.receivers),
            list(transcript.ends), bytes(transcript.payload), list(transcript.plain),
            list(transcript.pad))


def transcript_of(basis, messages) -> Transcript:
    """A transcript over ``basis`` of the given messages' ids, constructed from their columns;
    it computes its own payload, whatever the messages carry.  Raises ValueError for a message
    whose plain ids or pad ids are no run: none, or not ascending by one."""
    messages = list(messages)
    for msg in messages:
        for ids in (msg.plain, msg.pad):
            if not ids or list(ids) != list(range(ids[0], ids[0] + len(ids))):
                raise ValueError(f"ids {list(ids)} of a message are no run")
    return Transcript(
        basis, [msg.round for msg in messages], [msg.sender for msg in messages],
        [msg.receiver for msg in messages], list(accumulate(len(msg.plain) for msg in messages)),
        [msg.plain[0] for msg in messages], [msg.pad[0] for msg in messages])


def packed(bits):
    """Payload bits as hex, MSB first, a bit per step, zero-padded to whole hex digits."""
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return f"{value:0{(len(bits) + 3) // 4}x}"


def reference_text(transcript):
    """``to_text`` rendered one message at a time: hex from the packed payload, forms as ``str``."""
    lines = ["transcript v1"]
    for msg in transcript:
        forms = ";".join(map(str, msg.forms))
        lines.append(f"{msg.round} {msg.sender} {msg.receiver} {packed(msg.payload)} {forms}")
    return "\n".join(lines) + "\n"


def key_values(store, i: int, j: int) -> tuple[int, ...]:
    """Take pair {i, j}'s unused key bits; their realized values, in key order.

    On a fresh store these are the pair's whole key."""
    return store.basis.bits(store.take(i, j, store.remaining(i, j)))


def take_all(store) -> dict[tuple[int, int], range]:
    """Take the unused key bits of every pair of the store's spec, pairs in ascending order; each pair's ids.

    On a fresh store this draws the whole budget, one run per pair, so the
    basis holds every budget bit, laid out pair by pair."""
    return {pair: store.take(*pair, store.remaining(*pair)) for pair in store.spec.pairs()}


def full_basis(spec: NetworkSpec, seed: int):
    """The basis of a fresh store for (spec, seed) once ``take_all`` has drawn every budget bit."""
    store = generate_pairwise_keys(spec, seed)
    take_all(store)
    return store.basis


def owners(basis) -> list[frozenset[int]]:
    """Each source bit's owners, in id order."""
    return [held for ids, held in basis.runs() for _ in ids]


def known_to(basis, terminal: int) -> list[str]:
    """Labels the terminal holds natively, in basis order."""
    return [label for label, held in zip(basis.labels, owners(basis)) if terminal in held]


def reference_replay(result, terminal):
    """Replay by textbook elimination over label sets, independent of the package.

    Equations are (labels, value) pairs: the terminal's own source bits,
    then every public payload bit.  Each stored row keeps its pivot label
    and is reduced against all earlier rows, so one pass in order reduces
    a new row completely.
    """
    basis = result.basis
    equations = [({label}, basis[label]) for label in known_to(basis, terminal)]
    equations += [(set(form.labels), bit)
                  for msg in result.transcript for form, bit in zip(msg.forms, msg.payload)]
    rows = []

    def reduce(labels, value):
        for pivot, row_labels, row_value in rows:
            if pivot in labels:
                labels = labels ^ row_labels
                value ^= row_value
        return labels, value

    for labels, value in equations:
        labels, value = reduce(labels, value)
        if labels:
            rows.append((min(labels), labels, value))
        else:
            assert value == 0, "inconsistent equations"
    out = []
    for form in result.key_forms:
        labels, value = reduce(set(form.labels), 0)
        if labels:
            return None
        out.append(value)
    return tuple(out)


def reference_learned(wanted, transcript, terminals) -> list[int]:
    """What ``protocols._learned`` counts, per id: how many of the ids ``wanted`` each terminal
    learns, every message's two runs expanded into one id per payload bit.

    Raises InvariantViolation("a pad bit was reused") when a pad id repeats, and then "a pad
    bit is not private" when a pad id is a wanted id or a plain id.  A table indexed by id holds
    what each pad (its plain id) and wanted id (itself) tells, and a terminal learns the wanted
    ids among the cells of the ids it owns.
    """
    plain, pad, start = [], [], 0
    for a, b, end in zip(transcript.plain, transcript.pad, transcript.ends):
        plain += range(a, a + end - start)
        pad += range(b, b + end - start)
        start = end
    pads = set(pad)
    if len(pads) != len(pad):
        raise InvariantViolation("a pad bit was reused")
    if pads & set(wanted) or pads & set(plain):
        raise InvariantViolation("a pad bit is not private")
    told = [None] * len(transcript.basis)
    for a, b in zip(plain, pad):
        told[b] = a
    for ident in wanted:
        told[ident] = ident
    return [len(set(wanted) & {told[ident] for ids, held in transcript.basis.runs() if terminal in held
                               for ident in ids})
            for terminal in terminals]


def learned_or_fault(count, wanted, transcript, terminals):
    """``count(wanted, transcript, terminals)``, or the message of the InvariantViolation it raises."""
    try:
        return count(wanted, transcript, terminals)
    except InvariantViolation as exc:
        return str(exc)


def random_tree(rng: random.Random, spec: NetworkSpec) -> list[tuple[int, int]]:
    """A tree of the spec's positive-budget pairs, grown from a random terminal by random pairs
    that reach a new terminal, stopping at random; it may be a single pair, never empty."""
    pairs = spec.pairs()
    reached = {rng.randrange(spec.m)}
    tree: list[tuple[int, int]] = []
    while True:
        out = [(i, j) for i, j in pairs if (i in reached) != (j in reached)]
        if not out or (tree and rng.random() < 0.3):
            return tree
        i, j = rng.choice(out)
        tree.append((i, j))
        reached |= {i, j}


def random_flood(rng: random.Random):
    """A store of a random connected spec and what one random ``flood`` on it returned, its key
    ids and transcript, or None when a pair ran short: one to three routes, each a random tree
    seeded by one of its pairs or terminals, of width 1 to 4 (all 1 half the time), together or
    not.  A third of the time an earlier flood drew from the store first."""
    spec = random_connected_spec(rng, max_m=5, max_budget=12)
    store = generate_pairwise_keys(spec, rng.randrange(2**16))
    one_bit = rng.random() < 0.5
    for _ in range(1 + (rng.random() < 1 / 3)):
        routes = []
        for _ in range(rng.randint(1, 3)):
            tree = random_tree(rng, spec)
            seed = rng.choice(tree) if rng.random() < 0.5 else rng.choice(sorted({v for edge in tree for v in edge}))
            routes.append((tree, seed, 1 if one_bit else rng.randint(1, 4)))
        try:
            key_ids, transcript = flood(store, routes, together=rng.random() < 0.5)
        except InsufficientKeyMaterial:
            return None
    return store, key_ids, transcript


def wide_cases() -> dict[str, tuple[set[int], Transcript]]:
    """Hand-built transcripts of messages up to three bits wide, by name, each with its wanted
    ids.  The basis holds pairs {0, 1}, {0, 2} and {1, 2}, 8 key bits each, at ids 0-7, 8-15 and
    16-23, then terminal 0's local bits at ids 24-29.  A message is (plain run's first id, pad
    run's first id, width)."""
    spec = NetworkSpec(3, {(0, 1): 8, (0, 2): 8, (1, 2): 8})
    store = generate_pairwise_keys(spec, 6)
    take_all(store)
    store.fresh(0, 6)
    local = set(range(24, 29))
    cases = {
        # pad ids 6-8 cross from pair {0, 1} to pair {0, 2}; terminal 1 owns 6-7 and 16, so it learns 24-25 and 28
        "a pad run crosses a basis run": (local, [(24, 6, 3), (27, 9, 1), (28, 16, 1)]),
        "pad runs meet by one id": (local, [(24, 6, 3), (27, 8, 2)]),
        "pad runs side by side": (local, [(24, 6, 3), (27, 9, 2)]),
        "a pad run meets a plain run by one id": (local, [(24, 8, 3), (6, 16, 3)]),
        "a pad run beside a plain run": (local, [(24, 8, 3), (5, 16, 3)]),
        "a pad run meets its own plain run": (local, [(8, 9, 3)]),
        "a pad run meets a wanted id by one id": (local | {10}, [(24, 8, 3)]),
        "a pad run beside a wanted id": (local | {11}, [(24, 8, 3)]),
        "pad runs reused and plain": (local, [(24, 8, 3), (25, 10, 2), (9, 16, 2)]),
        "wanted runs of one id": ({1, 3, 24, 26, 28}, [(24, 8, 3), (28, 16, 2), (2, 18, 1)]),
    }
    return {name: (wanted, Transcript(store.basis, [0] * len(messages), [0] * len(messages), [1] * len(messages),
                                      list(accumulate(width for _, _, width in messages)),
                                      [plain for plain, _, _ in messages], [pad for _, pad, _ in messages]))
            for name, (wanted, messages) in cases.items()}


def learned_cases(rng: random.Random, count: int):
    """``count`` (wanted ids, transcript) pairs from ``random_flood``, each wanted the flood's key
    ids, those with one more id of the basis (which may be a pad), or a random sample of the
    basis's ids; the ``wide_cases`` follow."""
    made = 0
    while made < count:
        flooded = random_flood(rng)
        if flooded is None:
            continue
        store, key_ids, transcript = flooded
        size = len(store.basis)
        wanted = rng.choice([set(key_ids), {*key_ids, rng.randrange(size)},
                             set(rng.sample(range(size), rng.randint(0, min(size, 6))))])
        yield wanted, transcript
        made += 1
    yield from wide_cases().values()


SECRECY_FIELDS = ("rank_key", "rank_transcript", "rank_joint", "leaked_bits", "uniform")


def report_secrecy(report) -> dict:
    """The secrecy fields that a run's ``RunReport`` writes, by name."""
    return {key: value for key, value in report._fields() if key in SECRECY_FIELDS}


def audited(audit) -> dict:
    """The rank audit's ``SecrecyReport`` as the secrecy fields of a report."""
    return {key: getattr(audit, key) for key in SECRECY_FIELDS}


def closed_form(key_bits: int, public_bits: int) -> dict:
    """The secrecy fields of a self-checked key of ``key_bits`` distinct ids and a transcript of
    ``public_bits`` bits whose pads are private: ranks |K|, P and |K| + P, no leak, uniform."""
    return dict(zip(SECRECY_FIELDS, (key_bits, public_bits, key_bits + public_bits, 0, True)))


def evaluate(form, values: Mapping[str, int]) -> int:
    """The form's value under an assignment of its labels."""
    acc = 0
    for label in form.labels:
        acc ^= values[label]
    return acc


def reference_mutual_information(key_forms, transcript_forms) -> Fraction:
    """I(K; V) by exhaustive enumeration, one dict of label values per assignment: the reference
    for ``oracles.brute_force_mutual_information``, with no size guard."""
    key_forms = list(key_forms)
    transcript_forms = list(transcript_forms)
    labels = sorted(set().union(*(f.labels for f in key_forms + transcript_forms)))
    joint: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    key_marginal: dict[tuple[int, ...], int] = {}
    transcript_marginal: dict[tuple[int, ...], int] = {}
    total = 1 << len(labels)
    for assignment in range(total):
        values = {label: (assignment >> t) & 1 for t, label in enumerate(labels)}
        k = tuple(evaluate(f, values) for f in key_forms)
        v = tuple(evaluate(f, values) for f in transcript_forms)
        joint[(k, v)] = joint.get((k, v), 0) + 1
        key_marginal[k] = key_marginal.get(k, 0) + 1
        transcript_marginal[v] = transcript_marginal.get(v, 0) + 1
    info = Fraction(0)
    for (k, v), count in joint.items():
        ratio = Fraction(count * total, key_marginal[k] * transcript_marginal[v])
        num, den = ratio.numerator, ratio.denominator
        assert not (num & (num - 1) or den & (den - 1)), f"ratio {ratio} is not a power of two"
        info += Fraction(count, total) * ((num.bit_length() - 1) - (den.bit_length() - 1))
    return info
