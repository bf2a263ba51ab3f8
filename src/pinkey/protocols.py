"""Key-agreement protocols as deterministic message-passing runs.

Three cases are implemented over the same pairwise-key substrate:

- broadcast: on a star, the center re-keys every leaf to the shortest
  leaf key by publishing XOR offsets;
- subgroup: two terminals agree on a key of min-cut length by routing
  the source's fresh random bits along a max-flow path decomposition,
  one-time-padded hop by hop;
- group: repeatedly pick a maximum spanning tree of the residual budget
  graph and flood one shared bit along it, until the graph disconnects.

Every public payload bit carries its exact GF(2) linear form over the
source-bit basis, so reconstructibility and secrecy are verifiable by
linear algebra instead of sampling.  Runs are pure functions of
(store, spec, seed): reruns produce byte-identical transcripts.  Each
run self-checks linear-form fidelity, one-time-pad discipline, and
per-holder replay before returning.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .bounds import broadcast_bound, budget_graph, group_bound, subgroup_bound
from .errors import GraphDisconnected, InsufficientKeyMaterial, invariant
from .graph import SpanningTree, max_flow, maximum_spanning_tree
from .model import NetworkSpec, PairwiseKeyStore, SourceBitBasis, local_rng
from .secrecy import LinearForm, form_rows, gf2_rank, own_rows, support_index

# The group bound costs m min cuts per Newton step, so it is cheap at any
# m.  Runs attach it to their stats only up to this size, which keeps the
# reports of larger group runs as they were, with bound and gap "-".
GROUP_BOUND_AUTO_LIMIT = 9


def bits_to_hex(bits: tuple[int, ...]) -> str:
    """Pack bits MSB-first into the shortest hex string that holds them."""
    if not bits:
        return "-"
    value = 0
    for b in bits:
        value = (value << 1) | b
    return f"{value:0{(len(bits) + 3) // 4}x}"


@dataclass(frozen=True)
class PublicMessage:
    """One public transmission: payload bits plus their linear forms.

    pads names the basis bit that one-time-pads each payload bit; the
    across-run invariant is that no basis bit ever pads twice.
    """

    sender: int
    receiver: int
    round: int
    payload: tuple[int, ...]
    forms: tuple[LinearForm, ...]
    pads: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (len(self.payload) == len(self.forms) == len(self.pads)):
            raise ValueError("payload, forms, and pads must have equal length")
        if any(b not in (0, 1) for b in self.payload):
            raise ValueError("payload bits must be 0 or 1")


class Transcript:
    """Ordered public messages with nondecreasing round numbers."""

    __slots__ = ("messages",)

    def __init__(self, messages=()):
        self.messages: list[PublicMessage] = []
        for msg in messages:
            self.append(msg)

    def append(self, msg: PublicMessage) -> None:
        if self.messages and msg.round < self.messages[-1].round:
            raise ValueError("round numbers must be nondecreasing")
        self.messages.append(msg)

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)

    @property
    def public_bits(self) -> int:
        return sum(len(m.payload) for m in self.messages)

    def forms(self) -> list[LinearForm]:
        return [form for m in self.messages for form in m.forms]

    def to_text(self) -> str:
        """Line-oriented serialization, stable for golden-file comparison.

        One line per message: round, sender, receiver, hex payload, and
        the payload's linear forms as sorted label XOR lists.
        """
        lines = ["transcript v1"]
        for m in self.messages:
            forms = ";".join(str(f) for f in m.forms)
            lines.append(f"{m.round} {m.sender} {m.receiver} {bits_to_hex(m.payload)} {forms}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunStats:
    """Exact accounting for one protocol run."""

    bound: Fraction | None
    gap: Fraction | None
    public_bits: int
    messages: int
    iterations: int | None = None
    flow_value: int | None = None


@dataclass(frozen=True)
class GroupKeyResult:
    """Outcome of a run: who holds which key, and everything needed to audit it."""

    case: str
    holders: frozenset[int]
    key: tuple[int, ...]
    key_forms: tuple[LinearForm, ...]
    transcript: Transcript
    stats: RunStats
    basis: SourceBitBasis


def _transcript_table(result: GroupKeyResult) -> tuple[dict[str, int], dict[int, int]]:
    """Support index of the run's forms, and the kernel pivot table of the
    public equations, form = payload bit, over it."""
    forms = result.transcript.forms()
    index = support_index(result.basis, forms, result.key_forms)
    table: dict[int, int] = {}
    bits = (bit for msg in result.transcript for bit in msg.payload)
    gf2_rank(form_rows(forms, index, bits), table)
    return index, table


def _add_own_bits(table: dict[int, int], rows: Iterable[int]) -> None:
    """Extend ``table`` with a terminal's own-bit rows from ``own_rows``."""
    gf2_rank(rows, table)
    invariant(0 not in table, "inconsistent bit equations")


def replay_key(result: GroupKeyResult, terminal: int) -> tuple[int, ...] | None:
    """Reconstruct the key from a terminal's own bits plus the transcript.

    Returns the reconstructed key bits, or None when some key bit is not
    in the GF(2) span of what the terminal can see.  Holders must always
    reconstruct; for anyone else None is the expected outcome unless the
    protocol intentionally routes the key through them.
    """
    index, table = _transcript_table(result)
    _add_own_bits(table, own_rows(result.basis, index).get(terminal, ()))
    out = []
    # Try each key form as the equation form = 0: it is implied (the bit
    # is 0), contradicted (residue 1, so the bit is 1), or independent.
    for row in form_rows(result.key_forms, index):
        if not gf2_rank([row], table):
            out.append(0)
        elif table.pop(0, None) is not None:
            out.append(1)
        else:
            return None
    return tuple(out)


def _self_check(result: GroupKeyResult) -> None:
    # Linear-form fidelity: forms evaluated on realized basis bits must
    # reproduce the actual payload and key bits.
    values = result.basis.realized()
    for msg in result.transcript:
        for form, bit in zip(msg.forms, msg.payload):
            invariant(form.evaluate(values) == bit, "transcript form does not match payload")
    for form, bit in zip(result.key_forms, result.key):
        invariant(form.evaluate(values) == bit, "key form does not match key bit")
    # One-time-pad discipline: a basis bit masks at most one public bit, ever.
    pads = [p for msg in result.transcript for p in msg.pads]
    invariant(len(pads) == len(set(pads)), "a pad bit was reused")
    # Replay soundness: every holder reconstructs the whole key, that is,
    # the key equations add no rank to the holder's view.  The transcript
    # is reduced once; each holder extends a copy with its own bits.
    index, transcript = _transcript_table(result)
    key_rows = form_rows(result.key_forms, index, result.key)
    own = own_rows(result.basis, index)
    for holder in sorted(result.holders):
        table = dict(transcript)
        _add_own_bits(table, own.get(holder, ()))
        invariant(not gf2_rank(key_rows, table), f"holder {holder} cannot replay the key")


def run_broadcast(store: PairwiseKeyStore, spec: NetworkSpec) -> GroupKeyResult:
    """Star-network group key: everyone ends up holding the shortest leaf key.

    The poorest leaf's whole key (ties to the smallest id) becomes the
    group key.  For every other leaf the center publishes the XOR of that
    leaf's key prefix with the group key, which re-keys the leaf without
    revealing anything: each published bit is padded by a fresh key bit.
    """
    bound = broadcast_bound(spec)
    poorest = min(range(1, spec.m), key=lambda i: (spec.budget(0, i), i))
    length = spec.budget(0, poorest)
    transcript = Transcript()
    if length > 0:
        key, key_labels = store.consume_bits(0, poorest, length)
        for leaf in range(1, spec.m):
            if leaf == poorest or spec.budget(0, leaf) == 0:
                continue
            pad, pad_labels = store.consume_bits(0, leaf, length)
            payload = tuple(k ^ p for k, p in zip(key, pad))
            forms = tuple(
                LinearForm.unit(kl) ^ LinearForm.unit(pl)
                for kl, pl in zip(key_labels, pad_labels)
            )
            transcript.append(
                PublicMessage(sender=0, receiver=leaf, round=0,
                              payload=payload, forms=forms, pads=pad_labels)
            )
    else:
        key, key_labels = (), ()
    gap = bound.value - length
    invariant(gap == 0, "broadcast must meet its bound exactly")
    result = GroupKeyResult(
        case="broadcast",
        holders=frozenset(range(spec.m)),
        key=key,
        key_forms=tuple(LinearForm.unit(lab) for lab in key_labels),
        transcript=transcript,
        stats=RunStats(bound=bound.value, gap=gap,
                       public_bits=transcript.public_bits, messages=len(transcript)),
        basis=store.basis,
    )
    _self_check(result)
    return result


def run_subgroup(
    store: PairwiseKeyStore, spec: NetworkSpec, s: int, t: int, seed: int
) -> GroupKeyResult:
    """Two-terminal key of exactly min-cut length, relayed by the others.

    s draws F fresh random bits, F the s-t max-flow value, and routes
    slices of them along the flow's path decomposition.  Every hop (u, v)
    carrying c bits publishes the slice XOR the next c unused bits of
    pair {u, v}'s key; relays decrypt and re-encrypt, so only s and t end
    up knowing the plaintext.  Hops advance in lockstep rounds, paths in
    lexicographic order within a round.
    """
    bound = subgroup_bound(spec, s, t)
    flow = max_flow(budget_graph(spec), s, t)
    invariant(Fraction(flow.value) == bound.value, "max-flow value differs from the min-cut bound")
    fresh_labels = store.basis.new_local_bits(s, flow.value, local_rng(seed, s))
    fresh_bits = tuple(store.basis.value_of(lab) for lab in fresh_labels)

    slices = []
    offset = 0
    for path, amount in flow.paths:
        slices.append((path, amount, offset))
        offset += amount
    invariant(offset == flow.value, "flow paths do not add up to the flow value")

    transcript = Transcript()
    longest = max((len(path) - 1 for path, _ in flow.paths), default=0)
    for hop in range(longest):
        for path, amount, start in slices:
            if hop >= len(path) - 1:
                continue
            u, v = path[hop], path[hop + 1]
            pad, pad_labels = store.consume_bits(u, v, amount)
            plain_bits = fresh_bits[start:start + amount]
            plain_labels = fresh_labels[start:start + amount]
            payload = tuple(b ^ p for b, p in zip(plain_bits, pad))
            forms = tuple(
                LinearForm.unit(bl) ^ LinearForm.unit(pl)
                for bl, pl in zip(plain_labels, pad_labels)
            )
            transcript.append(
                PublicMessage(sender=u, receiver=v, round=hop,
                              payload=payload, forms=forms, pads=pad_labels)
            )

    result = GroupKeyResult(
        case="subgroup",
        holders=frozenset((s, t)),
        key=fresh_bits,
        key_forms=tuple(LinearForm.unit(lab) for lab in fresh_labels),
        transcript=transcript,
        stats=RunStats(bound=bound.value, gap=bound.value - flow.value,
                       public_bits=transcript.public_bits, messages=len(transcript),
                       flow_value=flow.value),
        basis=store.basis,
    )
    _self_check(result)
    return result


def single_bit_round(
    tree: SpanningTree, store: PairwiseKeyStore, spec: NetworkSpec, round_base: int = 0
) -> tuple[str, list[PublicMessage]]:
    """Flood one shared secret bit along a spanning tree.

    Consumes one key bit from every tree edge.  The bit of the
    lexicographically smallest tree edge becomes the shared bit B; it
    spreads breadth-first from that edge's endpoints, children in id
    order: crossing edge (u, v) publishes B XOR that edge's consumed bit.
    Exactly m - 2 messages result, since the seed edge needs none.

    Returns the shared bit's basis label and the message list, with round
    numbers round_base + BFS depth.
    """
    if tree.m != spec.m:
        raise ValueError(f"tree on {tree.m} nodes does not match m={spec.m}")
    for i, j in tree.edges:
        if store.remaining(i, j) < 1:
            raise InsufficientKeyMaterial(f"tree edge ({i}, {j}) has no unused key bits")
    edge_bit = {edge: store.consume_bits(*edge, 1) for edge in tree.edges}
    seed_edge = tree.edges[0]
    shared_bit = edge_bit[seed_edge][0][0]
    shared_label = edge_bit[seed_edge][1][0]

    adjacency = tree.adjacency()
    depth = {seed_edge[0]: 0, seed_edge[1]: 0}
    queue = deque(sorted(seed_edge))
    messages = []
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in depth:
                continue
            depth[v] = depth[u] + 1
            edge = (u, v) if u < v else (v, u)
            pad_bit = edge_bit[edge][0][0]
            pad_label = edge_bit[edge][1][0]
            messages.append(
                PublicMessage(
                    sender=u, receiver=v, round=round_base + depth[v] - 1,
                    payload=(shared_bit ^ pad_bit,),
                    forms=(LinearForm.unit(shared_label) ^ LinearForm.unit(pad_label),),
                    pads=(pad_label,),
                )
            )
            queue.append(v)
    invariant(len(messages) == spec.m - 2, "a tree round must send exactly m - 2 messages")
    return shared_label, messages


def run_group_key(
    store: PairwiseKeyStore, spec: NetworkSpec, tie_break: str = "lex-kruskal"
) -> GroupKeyResult:
    """All-terminal key: one bit per spanning tree of the shrinking budget graph.

    Each iteration takes a maximum spanning tree of the remaining budgets
    (under the chosen tie-break policy), floods one shared bit along it,
    and decrements every tree edge.  The run stops when no spanning tree
    remains, that is when maximum_spanning_tree raises GraphDisconnected;
    the key is one bit per iteration.

    The exact partition bound is attached to the stats (and checked
    against) for m <= GROUP_BOUND_AUTO_LIMIT; beyond that only the
    total/(m-1) ceiling is checked.
    """
    g = budget_graph(spec)
    transcript = Transcript()
    key_labels: list[str] = []
    next_round = 0
    while True:
        try:
            tree = maximum_spanning_tree(g, tie_break)
        except GraphDisconnected:
            break
        label, messages = single_bit_round(tree, store, spec, round_base=next_round)
        for msg in messages:
            transcript.append(msg)
        if messages:
            next_round = messages[-1].round + 1
        for i, j in tree.edges:
            g.set_weight(i, j, g.weight(i, j) - 1)
        key_labels.append(label)

    iterations = len(key_labels)
    invariant(iterations <= spec.total_budget() // (spec.m - 1),
               "achieved length exceeds the total/(m-1) ceiling")
    if spec.m <= GROUP_BOUND_AUTO_LIMIT:
        bound_value: Fraction | None = group_bound(spec).value
        invariant(iterations <= bound_value, "achieved length exceeds the partition bound")
        gap: Fraction | None = bound_value - iterations
    else:
        bound_value = None
        gap = None

    result = GroupKeyResult(
        case="group",
        holders=frozenset(range(spec.m)),
        key=tuple(store.basis.value_of(lab) for lab in key_labels),
        key_forms=tuple(LinearForm.unit(lab) for lab in key_labels),
        transcript=transcript,
        stats=RunStats(bound=bound_value, gap=gap,
                       public_bits=transcript.public_bits, messages=len(transcript),
                       iterations=iterations),
        basis=store.basis,
    )
    _self_check(result)
    return result
