"""Key-agreement protocols as deterministic message-passing runs.

Three cases are implemented over the same pairwise-key substrate:

- broadcast: on a star, the center re-keys every leaf to the shortest
  leaf key by publishing XOR offsets;
- subgroup: two terminals agree on a key of min-cut length by routing
  the source's fresh random bits along a max-flow path decomposition,
  one-time-padded hop by hop;
- group: flood one shared bit along each spanning tree that
  ``greedy_spanning_trees`` yields: a maximum spanning tree of the
  residual budget graph per round, until the residual disconnects.

Every public payload bit is a one-time pad, the XOR of a plain bit and
the key bit that pads it, and a message records that exact GF(2) linear
form as the two source-bit ids; labels are rendered from the ids only
when read.  So reconstructibility and secrecy are verifiable by linear
algebra instead of sampling.  Runs are pure functions of (store, spec, seed):
reruns produce byte-identical transcripts.  Each run self-checks
linear-form fidelity, one-time-pad discipline, and per-holder replay
before returning, and takes its secrecy report from the same reduction
of its transcript.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter, gt, xor

from .bounds import broadcast_bound, budget_graph, group_bound
from .errors import invariant
from .graph import SpanningTree, greedy_spanning_trees, max_flow
from .model import _BIT_VALUES, NetworkSpec, PairwiseKeyStore, SourceBitBasis, local_rng
from .secrecy import (
    LinearForm,
    SecrecyReport,
    column_rows,
    gf2_rank,
    own_rows,
    secrecy_report,
    support_index,
)

# The group bound costs m min cuts per Newton step, but one call can still
# take seconds on a sparse graph of m = 128.  Runs attach it to their result
# only up to this size, which keeps the reports of larger group runs as
# they were, with bound and gap "-".
GROUP_BOUND_AUTO_LIMIT = 9


def bits_to_hex(bits: tuple[int, ...]) -> str:
    """Pack bits MSB-first into the shortest hex string that holds them."""
    if not bits:
        return "-"
    value = 0
    for b in bits:
        value = (value << 1) | b
    return f"{value:0{(len(bits) + 3) // 4}x}"


@dataclass(frozen=True, slots=True)
class PublicMessage:
    """One public transmission: payload bit k is ``plain[k] XOR pad[k]``.

    plain and pad are source-bit ids of ``basis``; pad[k] is the bit that
    one-time-pads payload bit k, and the across-run invariant is that no
    basis bit ever pads twice.  ``forms`` and ``pads`` render the ids as
    ``LinearForm``s and labels when read.
    """

    sender: int
    receiver: int
    round: int
    payload: tuple[int, ...]
    plain: Sequence[int]
    pad: Sequence[int]
    basis: SourceBitBasis = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (len(self.payload) == len(self.plain) == len(self.pad)):
            raise ValueError("payload, plain, and pad must have equal length")
        if not _BIT_VALUES.issuperset(self.payload):
            raise ValueError("payload bits must be 0 or 1")

    @property
    def forms(self) -> tuple[LinearForm, ...]:
        labels = zip(self.basis.labels_of(self.plain), self.basis.labels_of(self.pad))
        return tuple(LinearForm(frozenset(pair)) for pair in labels)

    @property
    def pads(self) -> tuple[str, ...]:
        return tuple(self.basis.labels_of(self.pad))


class Transcript:
    """Ordered public messages with nondecreasing round numbers."""

    __slots__ = ("messages",)

    def __init__(self, messages=()):
        self.messages: list[PublicMessage] = []
        self.extend(messages)

    def append(self, msg: PublicMessage) -> None:
        self.extend((msg,))

    def extend(self, messages: Iterable[PublicMessage]) -> None:
        """Append a batch; nothing is appended unless the rounds stay nondecreasing."""
        batch = list(messages)
        rounds = [m.round for m in chain(self.messages[-1:], batch)]
        if any(map(gt, rounds, rounds[1:])):
            raise ValueError("round numbers must be nondecreasing")
        self.messages += batch

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
        the payload's linear forms as sorted label XOR lists.  The forms of
        all messages, which must share one basis, render in one pass.
        """
        messages = self.messages
        if any(m.basis is not messages[0].basis for m in messages):
            raise ValueError("the messages of a transcript must share one basis")
        texts = []
        if messages:
            labels_of = messages[0].basis.labels_of
            plain = labels_of(list(chain.from_iterable(m.plain for m in messages)))
            pad = labels_of(list(chain.from_iterable(m.pad for m in messages)))
            texts = [a + "^" + b if a < b else b + "^" + a for a, b in zip(plain, pad)]
        lines = ["transcript v1"]
        end = 0
        for m in self.messages:
            start, end = end, end + len(m.payload)
            text = ";".join(texts[start:end])
            lines.append(f"{m.round} {m.sender} {m.receiver} {bits_to_hex(m.payload)} {text}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GroupKeyResult:
    """Outcome of a run: who holds which key, and everything needed to audit it."""

    case: str
    holders: frozenset[int]
    key: tuple[int, ...]
    key_ids: Sequence[int]
    transcript: Transcript
    bound: Fraction | None  # None for group runs above GROUP_BOUND_AUTO_LIMIT
    basis: SourceBitBasis
    secrecy: SecrecyReport  # from the run's self-check

    @property
    def gap(self) -> Fraction | None:
        """How far the key falls short of the bound; None when there is no bound."""
        return None if self.bound is None else self.bound - len(self.key)

    @property
    def key_forms(self) -> tuple[LinearForm, ...]:
        return tuple(map(LinearForm.unit, self.basis.labels_of(self.key_ids)))


def _transcript_table(
    transcript: Transcript, key_ids: Sequence[int]
) -> tuple[tuple[list[int], ...], dict[int, int], dict[int, int]]:
    """The whole transcript's payload bits with their plain and pad id
    columns; the support index of the run's ids, key bits first; and
    the kernel pivot table of the public equations, form = payload bit.

    Each public bit is the XOR of a plain bit and the bit that pads it.
    Each protocol pads a key bit with a fresh bit, so every row's top bit
    is its pad's and the rows need no reduction.
    """
    messages = transcript.messages
    bits, plain, pad = (list(chain.from_iterable(map(attrgetter(column), messages)))
                        for column in ("payload", "plain", "pad"))
    index = support_index(key_ids, plain, pad)
    table: dict[int, int] = {}
    gf2_rank(column_rows((plain, pad), index, bits), table)
    return (bits, plain, pad), index, table


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
    _, index, table = _transcript_table(result.transcript, result.key_ids)
    _add_own_bits(table, own_rows(result.basis, index).get(terminal, ()))
    out = []
    # Try each key form as the equation form = 0: it is implied (the bit
    # is 0), contradicted (residue 1, so the bit is 1), or independent.
    for row in column_rows((result.key_ids,), index, repeat(0)):
        if not gf2_rank([row], table):
            out.append(0)
        elif table.pop(0, None) is not None:
            out.append(1)
        else:
            return None
    return tuple(out)


def _self_check(holders: frozenset[int], key: tuple[int, ...], key_ids: Sequence[int],
                transcript: Transcript, basis: SourceBitBasis) -> SecrecyReport:
    """Check a run's parts; return the secrecy report of its one transcript reduction."""
    # The transcript is reduced once: each holder below extends the table
    # with its own bits and pops them off again, and the report extends it.
    (bits, plain, pad), index, reduced = _transcript_table(transcript, key_ids)
    # Linear-form fidelity: forms evaluated on realized basis bits must
    # reproduce the actual payload and key bits.
    value = basis.values.__getitem__
    evaluated = map(xor, bits, map(xor, map(value, plain), map(value, pad)))
    invariant(not any(evaluated), "transcript form does not match payload")
    invariant(basis.bits(key_ids) == key, "key form does not match key bit")
    # One-time-pad discipline: a basis bit masks at most one public bit, ever.
    invariant(len(pad) == len(set(pad)), "a pad bit was reused")
    # Replay soundness: every holder reconstructs the whole key, that is,
    # the key equations add no rank to the holder's view.
    key_rows = list(column_rows((key_ids,), index, key))
    own = own_rows(basis, index)
    size = len(reduced)
    for holder in sorted(holders):
        _add_own_bits(reduced, own.get(holder, ()))
        invariant(not gf2_rank(key_rows, reduced), f"holder {holder} cannot replay the key")
        # gf2_rank only inserts pivots and popitem is LIFO, so this restores the table
        while len(reduced) > size:
            reduced.popitem()
    return secrecy_report(reduced, key_rows)


def _result(store: PairwiseKeyStore, case: str, holders: Iterable[int], key_ids: Sequence[int],
            transcript: Transcript, bound: Fraction | None) -> GroupKeyResult:
    """The self-checked result of a run whose key is the bits ``key_ids``."""
    holders, key = frozenset(holders), store.basis.bits(key_ids)
    return GroupKeyResult(
        case=case, holders=holders, key=key, key_ids=key_ids, transcript=transcript, bound=bound,
        basis=store.basis, secrecy=_self_check(holders, key, key_ids, transcript, store.basis),
    )


def _padded(store: PairwiseKeyStore, sender: int, receiver: int, round: int,
            plain: Sequence[int], plain_bits: Sequence[int]) -> PublicMessage:
    """The message that pads bits ``plain`` with the next unused bits of the pair's key."""
    basis = store.basis
    pad = store.take(sender, receiver, len(plain))
    payload = tuple(map(xor, plain_bits, basis.bits(pad)))
    return PublicMessage(sender, receiver, round, payload, plain, pad, basis)


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
    key_ids = store.take(0, poorest, length)
    key = store.basis.bits(key_ids)
    if length > 0:
        for leaf in range(1, spec.m):
            if leaf != poorest and spec.budget(0, leaf) > 0:
                transcript.append(_padded(store, 0, leaf, 0, key_ids, key))
    invariant(bound.value == length, "broadcast must meet its bound exactly")
    return _result(store, "broadcast", range(spec.m), key_ids, transcript, bound.value)


def run_subgroup(
    store: PairwiseKeyStore, spec: NetworkSpec, s: int, t: int, seed: int
) -> GroupKeyResult:
    """Two-terminal key of exactly min-cut length, relayed by the others.

    s draws F fresh random bits, F the s-t max-flow value, and routes
    slices of them along the flow's path decomposition.  Every hop (u, v)
    carrying c bits publishes the slice XOR the next c unused bits of
    pair {u, v}'s key; relays decrypt and re-encrypt, so only s and t end
    up knowing the plaintext.  Hops advance in lockstep rounds, paths in
    lexicographic order within a round.  The bound is the min cut that the
    flow's residual graph gives, checked there to equal the flow value.
    """
    flow = max_flow(budget_graph(spec), s, t)
    bound = Fraction(flow.cut.value)
    fresh = store.basis.new_local_ids(s, flow.value, local_rng(seed, s))
    fresh_bits = store.basis.bits(fresh)

    slices = []
    offset = 0
    for path, amount in flow.paths:
        slices.append((path, offset, offset + amount))
        offset += amount
    invariant(offset == flow.value, "flow paths do not add up to the flow value")

    transcript = Transcript()
    longest = max((len(path) - 1 for path, _ in flow.paths), default=0)
    for hop in range(longest):
        for path, start, stop in slices:
            if hop < len(path) - 1:
                transcript.append(_padded(store, path[hop], path[hop + 1], hop,
                                          fresh[start:stop], fresh_bits[start:stop]))

    return _result(store, "subgroup", (s, t), fresh, transcript, bound)


def single_bit_round(
    tree: SpanningTree, store: PairwiseKeyStore, spec: NetworkSpec, round_base: int = 0
) -> tuple[int, list[PublicMessage]]:
    """Flood one shared secret bit along a spanning tree.

    Consumes one key bit from every tree edge, all in one take, or none
    when an edge has run dry.  The bit of the lexicographically smallest
    tree edge becomes the shared bit B; it spreads breadth-first from that
    edge's endpoints, children in id order: crossing edge (u, v) publishes
    B XOR that edge's consumed bit.  Exactly m - 2 messages result, since
    the seed edge needs none.

    Returns the shared bit's source-bit id and the message list, with
    round numbers round_base + BFS depth.
    """
    if tree.m != spec.m:
        raise ValueError(f"tree on {tree.m} nodes does not match m={spec.m}")
    seed_edge = tree.edges[0]
    adjacency = tree.adjacency()
    depth = {seed_edge[0]: 0, seed_edge[1]: 0}
    queue = deque(seed_edge)
    hops = []
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in depth:
                continue
            depth[v] = depth[u] + 1
            hops.append((u, v))
            queue.append(v)
    invariant(len(hops) == spec.m - 2, "a tree round must send exactly m - 2 messages")
    shared, *pads = store.take_one_each([seed_edge, *hops])
    basis = store.basis
    values = basis.values
    bit, plain = values[shared], range(shared, shared + 1)
    return shared, [PublicMessage(u, v, round_base + depth[v] - 1, (bit ^ values[p],), plain,
                                  range(p, p + 1), basis) for (u, v), p in zip(hops, pads)]


def run_group_key(
    store: PairwiseKeyStore, spec: NetworkSpec, tie_break: str = "lex-kruskal"
) -> GroupKeyResult:
    """All-terminal key: one bit per spanning tree of the shrinking budget graph.

    Each iteration floods one shared bit along the next tree of
    greedy_spanning_trees: a maximum spanning tree of the remaining budgets
    under the chosen tie-break policy, whose edges are then debited by one.
    The run stops when the remaining budgets no longer span; the key is one
    bit per iteration.

    The exact partition bound is attached to the result (and checked
    against) for m <= GROUP_BOUND_AUTO_LIMIT; beyond that only the
    total/(m-1) ceiling is checked.
    """
    transcript = Transcript()
    key_ids: list[int] = []
    next_round = 0
    for tree in greedy_spanning_trees(budget_graph(spec), tie_break):
        shared, messages = single_bit_round(tree, store, spec, round_base=next_round)
        transcript.extend(messages)
        if messages:
            next_round = messages[-1].round + 1
        key_ids.append(shared)

    invariant(len(key_ids) <= spec.total_budget() // (spec.m - 1),
               "achieved length exceeds the total/(m-1) ceiling")
    bound = group_bound(spec).value if spec.m <= GROUP_BOUND_AUTO_LIMIT else None
    invariant(bound is None or len(key_ids) <= bound, "achieved length exceeds the partition bound")
    return _result(store, "group", range(spec.m), tuple(key_ids), transcript, bound)
