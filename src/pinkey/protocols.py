"""Key-agreement protocols as deterministic message-passing runs.

Three cases are implemented over the same pairwise-key substrate:

- broadcast: on a star, the center re-keys every leaf to the shortest
  leaf key by publishing XOR offsets;
- subgroup: two terminals agree on a key of min-cut length by routing
  the source's fresh random bits along a max-flow path decomposition,
  one-time-padded hop by hop;
- group: flood one shared bit along each spanning tree, given as its
  edges, that ``greedy_spanning_trees`` yields: a maximum spanning tree
  of the residual budget graph per round, until the residual
  disconnects.  ``flood`` is where a run checks its trees.

Every public payload bit is a one-time pad, the XOR of a plain bit and
the key bit that pads it.  The transcript records that exact GF(2)
linear form as two source-bit ids, in its ``plain`` and ``pad`` columns,
and computes each payload bit from them when it is built; labels are
rendered from the ids only when read.  So reconstructibility and secrecy
are verifiable by linear algebra instead of sampling.  Each run
constructs its transcript once, from columns built in one pass;
iterating it gives ``PublicMessage`` values.  A run's one input is its
store, which holds the spec and seed and draws every bit the run uses:
reruns on fresh stores produce byte-identical transcripts, and a second
run on one store gets bits no earlier run used.

Every pad a run publishes is private: used once, and no key id or plain
id.  Then each public bit's row has a column of its own, a terminal
learns exactly the ids it owns plus the plain id of each pad it owns,
and the run's secrecy report is (|K|, P, |K| + P) for |K| distinct key
ids and P public bits: the transcript tells nothing about the key.  So
each run self-checks pad privacy and per-holder replay, which is set
inclusion, with no GF(2) elimination, and a transcript with a pad that
is not private is refused.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from operator import eq, xor

from .bounds import broadcast_bound, group_bound
from .errors import invariant
from .graph import greedy_spanning_trees, max_flow
from .model import Pair, PairwiseKeyStore, SourceBitBasis, canonical_pair
from .secrecy import LinearForm, SecrecyReport, owned_ids

# The group bound costs m min cuts per Newton step, but one call can still
# take seconds on a sparse graph of m = 128.  Runs attach it to their result
# only up to this size, which keeps the reports of larger group runs as
# they were, with bound and gap "-".
GROUP_BOUND_AUTO_LIMIT = 9


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # payload bit -> its ASCII digit


def _hex(digits: str) -> str:
    """Payload digits, MSB first, in the shortest hex string that holds them."""
    if len(digits) == 1:
        return digits
    return f"{int(digits, 2):0{(len(digits) + 3) // 4}x}" if digits else "-"


@dataclass(frozen=True, slots=True)
class PublicMessage:
    """One public transmission: payload bit k is ``plain[k] XOR pad[k]``.

    plain and pad are source-bit ids of ``basis``; pad[k] is the bit that
    one-time-pads payload bit k, and the across-run invariant is that no
    basis bit ever pads twice.  ``forms`` and ``pads`` render the ids as
    ``LinearForm``s and labels when read.  Runs record messages as
    ``Transcript`` columns; a message is the value that iterating them gives.
    """

    sender: int
    receiver: int
    round: int
    payload: tuple[int, ...]
    plain: Sequence[int]
    pad: Sequence[int]
    basis: SourceBitBasis = field(compare=False, repr=False)

    @property
    def forms(self) -> tuple[LinearForm, ...]:
        label = self.basis.label
        return tuple(LinearForm(frozenset((label(a), label(b)))) for a, b in zip(self.plain, self.pad))

    @property
    def pads(self) -> tuple[str, ...]:
        return tuple(map(self.basis.label, self.pad))


class Transcript:
    """Ordered public messages over one basis, as columns; rounds never decrease.

    Per message: ``rounds``, ``senders``, ``receivers`` and ``ends``, the
    cumulative payload offsets, so message k's payload bits are
    ``ends[k - 1]:ends[k]``.  Per payload bit: its ``plain`` and ``pad``
    source-bit ids.  A run constructs its transcript once, from all its
    columns, and construction checks them whole: equal column lengths,
    ``ends`` rising from 0 to the payload length, ``plain`` and ``pad``
    ids of bits in the basis, and nondecreasing rounds.  It then computes
    ``payload`` (immutable bytes), bit k the value of ``plain[k]`` XOR
    that of ``pad[k]``, so a payload never disagrees with its forms.
    Iterating builds the ``PublicMessage`` values.
    """

    __slots__ = ("basis", "rounds", "senders", "receivers", "ends", "payload", "plain", "pad")

    def __init__(self, basis: SourceBitBasis, rounds: Iterable[int], senders: Iterable[int],
                 receivers: Iterable[int], ends: Iterable[int], plain: Iterable[int], pad: Iterable[int]):
        rounds, senders, receivers, ends = list(rounds), list(senders), list(receivers), list(ends)
        plain, pad = list(plain), list(pad)
        if not len(rounds) == len(senders) == len(receivers) == len(ends):
            raise ValueError("rounds, senders, receivers, and ends must have equal length")
        if len(plain) != len(pad):
            raise ValueError("plain and pad must have equal length")
        offsets = [0, *ends]
        if offsets[-1] != len(plain) or offsets != sorted(offsets):
            raise ValueError("ends must rise from 0 to the payload length")
        # before any value is read: a negative id would index from the end of the values
        if plain and (min(min(plain), min(pad)) < 0 or max(max(plain), max(pad)) >= len(basis)):
            raise ValueError("plain and pad must be ids of bits in the basis")
        if any(map(eq, plain, pad)):
            raise ValueError("a public bit's plain and pad must be different ids")
        if rounds != sorted(rounds):
            raise ValueError("round numbers must be nondecreasing")
        value = basis.values.__getitem__
        self.basis, self.rounds, self.senders, self.receivers = basis, rounds, senders, receivers
        self.ends, self.plain, self.pad = ends, plain, pad
        self.payload = bytes(map(xor, map(value, plain), map(value, pad)))

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self) -> Iterator[PublicMessage]:
        payload, plain, pad = self.payload, self.plain, self.pad
        start = 0
        for round, sender, receiver, end in zip(self.rounds, self.senders, self.receivers, self.ends):
            yield PublicMessage(sender, receiver, round, tuple(payload[start:end]),
                                tuple(plain[start:end]), tuple(pad[start:end]), self.basis)
            start = end

    @property
    def public_bits(self) -> int:
        return len(self.payload)

    def forms(self) -> list[LinearForm]:
        """Each public bit's linear form, in payload order."""
        labels = self.basis.labels  # construction checked that every id has one
        return [LinearForm(frozenset((labels[a], labels[b]))) for a, b in zip(self.plain, self.pad)]

    def to_text(self) -> str:
        """Line-oriented serialization, stable for golden-file comparison.

        One line per message: round, sender, receiver, hex payload, and
        the payload's linear forms as sorted label XOR lists.  Labels and
        payload digits render in one pass over their columns.
        """
        lines = ["transcript v1"]
        labels = self.basis.labels  # construction checked that every id has one
        texts = [f"{a}^{b}" if a < b else f"{b}^{a}"
                 for a, b in zip(map(labels.__getitem__, self.plain), map(labels.__getitem__, self.pad))]
        digits = self.payload.translate(_DIGITS).decode()
        start = 0
        for round, sender, receiver, end in zip(self.rounds, self.senders, self.receivers, self.ends):
            hex_payload, forms = _hex(digits[start:end]), ";".join(texts[start:end])
            lines.append(f"{round} {sender} {receiver} {hex_payload} {forms}")
            start = end
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GroupKeyResult:
    """Outcome of a run: who holds which key, and everything needed to audit it.

    The key is the source bits ``key_ids``; ``key`` reads their values
    from the basis.
    """

    holders: frozenset[int]
    key_ids: Sequence[int]
    transcript: Transcript
    bound: Fraction | None  # None for group runs above GROUP_BOUND_AUTO_LIMIT
    secrecy: SecrecyReport  # from the run's self-check

    @property
    def basis(self) -> SourceBitBasis:
        return self.transcript.basis

    @property
    def key(self) -> tuple[int, ...]:
        return self.basis.bits(self.key_ids)

    @property
    def gap(self) -> Fraction | None:
        """How far the key falls short of the bound; None when there is no bound."""
        return None if self.bound is None else self.bound - len(self.key_ids)

    @property
    def key_forms(self) -> tuple[LinearForm, ...]:
        return tuple(LinearForm.unit(self.basis.label(ident)) for ident in self.key_ids)


def _learned(key_ids: Sequence[int], transcript: Transcript) -> dict[int, int]:
    """The id that each bit a terminal may own tells it: a key id itself, a pad its ``plain`` id.

    Raises InvariantViolation unless every pad is private: used once, and
    neither a key id nor a ``plain`` id.
    """
    plain, pad = transcript.plain, transcript.pad
    learned = dict(zip(pad, plain))
    invariant(len(learned) == len(pad), "a pad bit was reused")
    invariant({*key_ids, *plain}.isdisjoint(learned), "a pad bit is not private")
    learned.update(zip(key_ids, key_ids))
    return learned


def replay_key(result: GroupKeyResult, terminal: int) -> tuple[int, ...] | None:
    """Reconstruct the key from a terminal's own bits plus the transcript.

    The terminal is told the value of each key id it owns, and the plain
    bit of each pad it owns: the payload bit XOR the pad's value.  Returns
    the key bits, or None when it is not told some key id: the expected
    outcome for a non-holder unless the protocol routes the key through
    it.  A pad that is reused or not private raises InvariantViolation.
    Pads are private and the payload is computed from its forms, so each
    id is told its own value, however many bits tell it.
    """
    transcript, values = result.transcript, result.basis.values
    learned = _learned(result.key_ids, transcript)
    told = dict(zip(transcript.pad, transcript.payload))
    known = {learned[ident]: values[ident] ^ told.get(ident, 0)
             for ident in owned_ids(result.basis, sorted(learned), (terminal,))[terminal]}
    key = tuple(map(known.get, result.key_ids))
    return None if None in key else key


def _self_check(holders: frozenset[int], key_ids: Sequence[int], transcript: Transcript) -> SecrecyReport:
    """Check a run's parts; return its secrecy report, which private pads give in closed form."""
    basis = transcript.basis
    learned = _learned(key_ids, transcript)
    # Every pad is private, so a public bit's row is the only one that mentions its
    # pad.  A terminal's own bits and the transcript then span exactly the ids it
    # owns and the plain id of each pad it owns: the ids ``learned`` gives it.
    # Replay soundness: every holder learns every key id.
    wanted = set(key_ids)
    for holder, own in sorted(owned_ids(basis, sorted(learned), holders).items()):
        invariant(wanted.issubset(map(learned.__getitem__, own)), f"holder {holder} cannot replay the key")
    # For the same reason the P public rows and the key's distinct unit rows are
    # independent: ranks |K|, P and |K| + P, and the transcript tells nothing about the key.
    public_bits = transcript.public_bits
    return SecrecyReport(rank_key=len(wanted), rank_transcript=public_bits,
                         rank_joint=len(wanted) + public_bits, key_count=len(key_ids))


def _result(holders: Iterable[int], key_ids: Sequence[int], transcript: Transcript,
            bound: Fraction | None) -> GroupKeyResult:
    """The self-checked result of a run whose key is the bits ``key_ids``."""
    holders = frozenset(holders)
    return GroupKeyResult(holders=holders, key_ids=key_ids, transcript=transcript, bound=bound,
                          secrecy=_self_check(holders, key_ids, transcript))


def _padded_hops(basis: SourceBitBasis, hops: Iterable[tuple[int, int, int, Sequence[int]]],
                 pad: list[int]) -> Transcript:
    """The transcript of ``hops``, each (sender, receiver, round, plain ids), in order: one
    message per hop, the hops' plain bits padded in turn by the ids of ``pad``."""
    rounds, senders, receivers, ends, plain = [], [], [], [], []
    for sender, receiver, round, ids in hops:
        plain += ids
        rounds.append(round)
        senders.append(sender)
        receivers.append(receiver)
        ends.append(len(plain))
    return Transcript(basis, rounds, senders, receivers, ends, plain, pad)


def run_broadcast(store: PairwiseKeyStore) -> GroupKeyResult:
    """Star-network group key: everyone ends up holding the shortest leaf key.

    The poorest leaf's whole key (ties to the smallest id) becomes the
    group key.  For every other leaf the center publishes the XOR of that
    leaf's key prefix with the group key, which re-keys the leaf without
    revealing anything: each published bit is padded by a fresh key bit.
    The key and the pads are drawn in one batch, all or nothing.
    """
    spec = store.spec
    bound = broadcast_bound(spec)
    # the witness isolates the poorest leaf; block 0 is the rest, the center's block
    (poorest,) = bound.witness.blocks[1]
    length = spec.budget(0, poorest)
    # a positive poorest budget means every leaf has a key at least this long
    leaves = [leaf for leaf in range(1, spec.m) if length > 0 and leaf != poorest]
    taken = store.take_each({(0, poorest): length, **{(0, leaf): length for leaf in leaves}})
    key_ids = taken[0, poorest]
    transcript = _padded_hops(store.basis, [(0, leaf, 0, key_ids) for leaf in leaves],
                              [ident for leaf in leaves for ident in taken[0, leaf]])
    invariant(bound.value == length, "broadcast must meet its bound exactly")
    return _result(range(spec.m), key_ids, transcript, bound.value)


def run_subgroup(store: PairwiseKeyStore, s: int, t: int) -> GroupKeyResult:
    """Two-terminal key of exactly min-cut length, relayed by the others.

    s draws F fresh random bits, F the s-t max-flow value, and routes
    slices of them along the flow's path decomposition.  Every hop (u, v)
    carrying c bits publishes the slice XOR the next c unused bits of
    pair {u, v}'s key.  Relays decrypt and re-encrypt, so a relay can
    compute every key bit it forwards: relays are trusted helpers, and
    the key is secret from the eavesdropper, not from them.  Hops
    advance in lockstep rounds, paths in lexicographic order within a
    round.  The bound is the min cut that the flow's residual graph
    gives, checked there to equal the flow value.  The pads are drawn in
    one batch before the fresh bits, so nothing is drawn if a pair is short.
    """
    flow = max_flow(store.spec, s, t)
    starts = [0, *accumulate(amount for _, amount in flow.paths)]  # each path's slice of the fresh bits
    longest = max((len(path) - 1 for path, _ in flow.paths), default=0)
    hops = [(path[hop], path[hop + 1], hop, start, amount) for hop in range(longest)
            for (path, amount), start in zip(flow.paths, starts) if hop < len(path) - 1]
    # the uses of a pair take its next unused bits in turn
    counts: Counter[Pair] = Counter()
    for u, v, _, _, amount in hops:
        counts[canonical_pair(u, v)] += amount
    taken = {pair: iter(ids) for pair, ids in store.take_each(counts).items()}
    pad = [ident for u, v, _, _, amount in hops for ident in islice(taken[canonical_pair(u, v)], amount)]
    fresh = store.fresh(s, flow.value)
    transcript = _padded_hops(store.basis, [(u, v, hop, fresh[start:start + amount])
                                            for u, v, hop, start, amount in hops], pad)
    return _result((s, t), fresh, transcript, Fraction(flow.value))


def flood(store: PairwiseKeyStore, trees: Iterable[Iterable[Pair]]) -> tuple[tuple[int, ...], Transcript]:
    """Flood one shared secret bit along each spanning tree, all trees in one pass.

    A tree is its m - 1 edges (i, j), 0 <= i < j < m = store.spec.m, in
    any order.  Its smallest edge's bit is the shared bit B, which spreads
    breadth-first from that edge's ends, children in id order: crossing
    edge (u, v) publishes B XOR one bit of that edge's key, m - 2 messages.
    Rounds are BFS depths, each tree's going on from the tree before.
    The k-th use of a pair, counting the trees in order, takes that pair's
    k-th unused key bit, and every pair's bits are drawn in one batch.  All
    or nothing: before any key bit is drawn, raises ValueError for edges
    that do not form a spanning tree, and InsufficientKeyMaterial, naming
    the pair, when some pair has fewer unused bits than the trees use.
    Returns the shared bits' ids, one per tree, and the transcript.
    """
    m = store.spec.m
    uses: list[Pair] = []  # per tree: its seed edge, then its hops, as sorted pairs
    rounds, senders, receivers = [], [], []
    for tree in trees:
        edges = sorted(tree)
        if len(edges) != m - 1:
            raise ValueError(f"a tree on m={m} nodes has {m - 1} edges, not {len(edges)}")
        adjacency: list[list[int]] = [[] for _ in range(m)]
        for i, j in edges:
            if not 0 <= i < j < m:
                raise ValueError(f"edge ({i}, {j}) is not a pair i < j of nodes below m={m}")
            adjacency[i].append(j)  # each list ascends, as the edges are sorted
            adjacency[j].append(i)
        seed_edge = edges[0]
        depth = dict.fromkeys(seed_edge, rounds[-1] + 1 if rounds else 0)
        queue = deque(seed_edge)
        uses.append(seed_edge)
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    rounds.append(depth[u])
                    senders.append(u)
                    receivers.append(v)
                    uses.append((u, v) if u < v else (v, u))
                    queue.append(v)
        if len(depth) != m:
            raise ValueError(f"edges {edges} do not span m={m} nodes")
    taken = {pair: iter(ids) for pair, ids in store.take_each(Counter(uses)).items()}
    ids = [next(taken[pair]) for pair in uses]
    # each tree used m - 1 bits: its shared bit, then one pad per hop
    key_ids = ids[::m - 1]
    plain = [shared for shared in key_ids for _ in range(m - 2)]
    pad = [ident for k, ident in enumerate(ids) if k % (m - 1)]
    transcript = Transcript(store.basis, rounds, senders, receivers, range(1, len(rounds) + 1), plain, pad)
    return tuple(key_ids), transcript


def run_group_key(store: PairwiseKeyStore, tie_break: str = "lex-kruskal") -> GroupKeyResult:
    """All-terminal key: one bit per spanning tree of the shrinking budget graph.

    ``flood`` floods the edge lists of greedy_spanning_trees in one pass:
    each a maximum spanning tree of the remaining budgets under the chosen
    tie-break policy, then debited by one, until the budgets no longer
    span.  The exact partition bound is attached to the result (and
    checked against) for m <= GROUP_BOUND_AUTO_LIMIT; beyond that only the
    total/(m-1) ceiling is checked.
    """
    spec = store.spec
    key_ids, transcript = flood(store, greedy_spanning_trees(spec, tie_break))
    invariant(len(key_ids) <= spec.total_budget() // (spec.m - 1),
               "achieved length exceeds the total/(m-1) ceiling")
    bound = group_bound(spec).value if spec.m <= GROUP_BOUND_AUTO_LIMIT else None
    invariant(bound is None or len(key_ids) <= bound, "achieved length exceeds the partition bound")
    return _result(range(spec.m), key_ids, transcript, bound)
