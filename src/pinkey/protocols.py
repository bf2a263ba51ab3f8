"""Key-agreement protocols as deterministic message-passing runs.

Three cases, each a list of routes of the spec's own pairs that ``_flood``
floods, ``flood`` without its check of every edge:

- broadcast: on a star, the center re-keys every leaf to the shortest
  leaf key by publishing XOR offsets, one star route;
- subgroup: two terminals agree on a key of min-cut length by routing
  the source's fresh random bits along a max-flow path decomposition,
  one-time-padded hop by hop, one route per path;
- group: one shared bit along each spanning tree, given as its edges,
  that ``greedy_spanning_trees`` yields, until the residual disconnects.

Every public message is a one-time pad, a run of shared bits XOR an
equally long run of one edge's key bits, each run of consecutive ids that
one draw gave.  The transcript records that exact GF(2) linear form as
the first ids of the two runs, in its ``plain`` and ``pad`` columns, and
computes each payload bit from them when it is built; labels are
rendered from the ids only when read.  So reconstructibility and secrecy
are verifiable by linear algebra instead of sampling.  Each run
builds its transcript once, unchecked, in one ``_flood`` pass; iterating
it gives ``PublicMessage`` values.  A run's one input is its
store, which holds the spec and seed and draws every bit the run uses:
reruns on fresh stores produce byte-identical transcripts, and a second
run on one store gets bits no earlier run used.

Every pad a run publishes is private: used once, and no key id or plain
id.  Then each public bit's row has a column of its own, a terminal
learns exactly the ids it owns plus the plain id of each pad it owns,
and the ranks of key, transcript and both are (|K|, P, |K| + P) for |K|
distinct key ids and P public bits: the transcript tells nothing about
the key.  So a run's ``GroupKeyResult`` checks itself when it is built:
key ids of its basis, distinct and within its bound, and holders that
are nonnegative ints, then pad privacy and every holder's replay in one pass
with no GF(2) elimination: ``_learned`` counts the key ids each terminal
learns, and a holder replays when it learns them all.  When every
message is one bit, as in group runs, an id is a message: pads are
checked per id, one table, indexed by id from 0 over the basis, holds
what each pad and key id tells its owners, and a terminal learns the key
ids in the table's slices over the basis runs it owns.  Wide messages,
as broadcast and subgroup runs send, cost per message, not per bit:
their payload and text are written from each message's two runs by
slices, and the self-check compares id intervals, the pad and plain
runs, the runs of key ids and the basis runs each terminal owns.  No
result has a pad that is not private.
The rank audit of any forms, ``oracles.verify_independence``, is not
imported.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import add, eq, ge, gt, itemgetter, ne, sub

from .bounds import broadcast_bound, group_bound
from .errors import InvariantViolation, invariant
from .graph import greedy_spanning_trees, max_flow
from .model import Pair, PairwiseKeyStore, SourceBitBasis, canonical_pair, index_digits

# The group bound costs m min cuts per Newton step: under a second on a
# sparse graph of m = 128, but on the dense m = 16..40 graphs still about a
# sixth of what their key generation and run take.  Runs attach it to their
# result only up to this size, which keeps the reports of larger group runs
# as they were, with bound and gap "-".
GROUP_BOUND_AUTO_LIMIT = 9


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # payload bit -> its ASCII digit
_OUTSIDE = "plain and pad must be ids of bits in the basis"


def _gather(values: bytearray, ids: list[int]) -> bytes:
    """The values of ``ids``, which are ids of ``values``, in one C-level pass."""
    # itemgetter of one id returns its value alone, and of none refuses to be made
    return bytes(itemgetter(*ids)(values)) if len(ids) > 1 else bytes(map(values.__getitem__, ids))


def _hex(digits: str) -> str:
    """Payload digits, MSB first, in the shortest hex string that holds them."""
    return f"{int(digits, 2):0{(len(digits) + 3) // 4}x}"


@dataclass(frozen=True)
class LinearForm:
    """A GF(2) linear combination of source bits, stored as a label set."""

    labels: frozenset[str]

    @classmethod
    def unit(cls, label: str) -> "LinearForm":
        return cls(frozenset((label,)))

    def __str__(self) -> str:
        if not self.labels:
            return "0"
        return "^".join(sorted(self.labels))


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

    Per message: ``rounds``, ``senders``, ``receivers``, ``ends``, the
    cumulative payload offsets, so message k's payload bits are
    ``ends[k - 1]:ends[k]``, and ``plain`` and ``pad``, the first ids of
    its two runs: payload bit i of a message of width w is the value of
    ``plain[k] + i`` XOR that of ``pad[k] + i``.  So a transcript of one
    bit per message, as group runs send, holds each bit's two ids.
    ``Transcript(...)`` is the checked constructor: it takes the columns
    as lists and checks them whole, equal column lengths, ``ends`` ints
    rising strictly from 0, every id an ``int`` and each run inside the
    basis, rounds, senders and receivers that are nonnegative ints, and
    nondecreasing rounds.  ``flood`` builds a run's transcript once with
    ``_built``, which checks nothing: its columns are ints taken from
    the routes' edges, BFS depths and the store's own id runs, and its
    ``ends`` of one bit per message stay ``range(1, n + 1)``.  Either way
    ``payload`` (immutable bytes) is computed from the values of the two
    runs, gathered per column when every message is one bit and sliced
    per message otherwise, and the two XORed as big ints, so a payload
    never disagrees with its forms.  A message pads a bit with itself
    exactly when its two runs start at one id.  Iterating builds the
    ``PublicMessage`` values.
    """

    __slots__ = ("basis", "rounds", "senders", "receivers", "ends", "payload", "plain", "pad")

    def __init__(self, basis: SourceBitBasis, rounds: Iterable[int], senders: Iterable[int],
                 receivers: Iterable[int], ends: Iterable[int], plain: Iterable[int], pad: Iterable[int]):
        rounds, senders, receivers, ends, plain, pad = map(list, (rounds, senders, receivers, ends, plain, pad))
        if not len(rounds) == len(senders) == len(receivers) == len(ends):
            raise ValueError("rounds, senders, receivers, and ends must have equal length")
        if len(plain) != len(pad):
            raise ValueError("plain and pad must have equal length")
        if len(plain) != len(ends):
            raise ValueError("plain and pad must hold one id per message")
        # before any end is compared: a bool is no end, and a float would slice nothing
        if set(map(type, ends)) - {int} or any(map(ge, [0, *ends], ends)):
            raise ValueError("ends must be ints rising strictly from 0")
        wide = bool(ends) and ends[-1] > len(ends)  # some message carries more than one bit
        widths = list(map(sub, ends, [0, *ends])) if wide else None
        ids = [*plain, *pad]
        # before any value is read: a negative id would read from the end of the values, and a bool
        # or a float would stand for an int
        if (set(map(type, ids)) - {int} or min(ids, default=0) < 0  # then one past the last id of any run:
                or (max(map(add, ids, widths * 2)) if wide else max(ids, default=-1) + 1) > len(basis)):
            raise ValueError(_OUTSIDE)
        if any(map(eq, plain, pad)):  # a message's two runs share an id only if they start at one
            raise ValueError("a public bit's plain and pad must be different ids")
        numbers = [*rounds, *senders, *receivers]  # no bool, which to_text would write as True
        if set(map(type, numbers)) - {int} or min(numbers, default=0) < 0:
            raise ValueError("rounds, senders and receivers must be nonnegative ints")
        if rounds != sorted(rounds):
            raise ValueError("round numbers must be nondecreasing")
        self._fill(basis, rounds, senders, receivers, ends, plain, pad)

    @classmethod
    def _built(cls, basis: SourceBitBasis, rounds: list[int], senders: list[int], receivers: list[int],
               ends: Sequence[int], plain: list[int], pad: list[int]) -> Transcript:
        """The transcript of columns that the constructor would accept, kept as given: no check."""
        transcript = cls.__new__(cls)
        transcript._fill(basis, rounds, senders, receivers, ends, plain, pad)
        return transcript

    def _fill(self, basis: SourceBitBasis, rounds: list[int], senders: list[int], receivers: list[int],
              ends: Sequence[int], plain: list[int], pad: list[int]) -> None:
        """Set the columns and compute the payload from the values of each message's two runs."""
        values = basis.values
        if ends and ends[-1] > len(ends):  # some message carries more than one bit
            widths = list(map(sub, ends, [0, *ends]))
            bits = [b"".join([values[a:a + w] for a, w in zip(column, widths)]) for column in (plain, pad)]
        else:
            bits = [_gather(values, plain), _gather(values, pad)]
        self.basis, self.rounds, self.senders, self.receivers = basis, rounds, senders, receivers
        self.ends, self.plain, self.pad = ends, plain, pad
        self.payload = (int.from_bytes(bits[0], "big") ^ int.from_bytes(bits[1], "big")).to_bytes(len(bits[0]), "big")

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self) -> Iterator[PublicMessage]:
        payload, plain, pad = self.payload, self._bits(self.plain), self._bits(self.pad)
        start = 0
        for round, sender, receiver, end in zip(self.rounds, self.senders, self.receivers, self.ends):
            yield PublicMessage(sender, receiver, round, tuple(payload[start:end]),
                                tuple(plain[start:end]), tuple(pad[start:end]), self.basis)
            start = end

    def _bits(self, firsts: list[int]) -> list[int]:
        """Each payload bit's id in the column of first ids ``firsts``: ``firsts`` itself when
        every message is one bit wide, else each message's run of ids in turn."""
        ends = self.ends
        if not ends or ends[-1] == len(ends):
            return firsts
        return [*chain.from_iterable(map(range, firsts, map(add, firsts, map(sub, ends, [0, *ends]))))]

    @property
    def public_bits(self) -> int:
        return len(self.payload)

    def forms(self) -> list[LinearForm]:
        """Each public bit's linear form, in payload order."""
        labels = self.basis.labels
        return [LinearForm(frozenset((labels[a], labels[b])))
                for a, b in zip(self._bits(self.plain), self._bits(self.pad))]

    def to_text(self) -> str:
        """Line-oriented serialization, stable for golden-file comparison.

        One line per message: round, sender, receiver, hex payload, and
        the payload's linear forms as sorted label XOR lists.  Payload
        digits render in one pass over the payload.  When every message is
        one bit wide, so are the lines: one comprehension over the columns.
        Otherwise a message whose two runs each lie in one basis run, of
        two prefixes, renders from one table of index digits, in an order
        set once: every prefix (``K{i}-{j}:`` or ``R{v}:``) ends in its
        only colon, so no prefix starts another, and two labels of
        different prefixes compare as their prefixes do.  Its two lists of
        index digits are slice-assigned into one list of pieces,
        interleaved with the prefixes, and joined once.  Any other message
        renders its own bits' labels.
        """
        basis, ends = self.basis, self.ends
        digits = self.payload.translate(_DIGITS).decode()
        # rounds, senders and receivers as strings, from one table if it needs no more entries than messages
        top = max(chain(self.rounds, self.senders, self.receivers), default=0)
        number = [*map(str, range(top + 1))].__getitem__ if top <= len(ends) else str
        rounds, senders, receivers = (map(number, column) for column in (self.rounds, self.senders, self.receivers))
        if not ends or ends[-1] == len(ends):  # one bit per message
            label = basis.labels.__getitem__
            lines = [f"{r} {s} {v} {d} {a}^{b}" if a < b else f"{r} {s} {v} {d} {b}^{a}"
                     for r, s, v, d, a, b in zip(rounds, senders, receivers, digits,
                                                 map(label, self.plain), map(label, self.pad))]
        else:
            payloads, forms, start = [], [], 0
            numbers: list[str] = []  # numbers[k] == str(k), as far as index_digits has grown it
            for first, other, end in zip(self.plain, self.pad, ends):
                width = end - start
                a = basis.run_of(range(first, first + width))  # (prefix, first index)
                b = a and basis.run_of(range(other, other + width))
                if b and a[0] != b[0]:
                    (left, x), (right, y) = sorted((a, b))
                    # "{left}{i}^{right}{j}" per bit, joined by ";"
                    pieces = [f";{left}", "", f"^{right}", ""] * width
                    pieces[0] = left
                    pieces[1::4] = index_digits(numbers, x, x + width)
                    pieces[3::4] = index_digits(numbers, y, y + width)
                    forms.append("".join(pieces))
                else:
                    label = basis.label
                    forms.append(";".join(f"{x}^{y}" if x < y else f"{y}^{x}" for x, y in zip(
                        map(label, range(first, first + width)), map(label, range(other, other + width)))))
                payloads.append(_hex(digits[start:end]))
                start = end
            lines = map("{} {} {} {} {}".format, rounds, senders, receivers, payloads, forms)
        return "\n".join(["transcript v1", *lines]) + "\n"


@dataclass(frozen=True)
class GroupKeyResult:
    """Outcome of a run: who holds which key, and everything needed to audit it.

    The key is the source bits ``key_ids``; ``key`` reads their values
    from the basis.  Building a result is the run's self-check, also when
    ``dataclasses.replace`` builds it, so every result passes it: it
    raises InvariantViolation for a key id that is no ``int`` id of the
    basis, then for a key id that repeats, then for a key longer than
    ``bound``, then for a holder that is no nonnegative ``int``, then, in
    one ``_learned`` pass, for a reused pad, a pad that is not private and
    the smallest holder that does not learn every key id.  When a message
    is wider than one bit, that pass checks pads and counts over each
    message's runs, as id intervals, with no step per bit; otherwise it
    checks pads per id and counts from a table of what each id tells.
    Private pads make the P public rows and the key's |K|
    distinct unit rows independent: ranks |K|, P and |K| + P, and the
    transcript tells nothing about the key, which is uniform.
    """

    holders: frozenset[int]
    key_ids: Sequence[int]
    transcript: Transcript
    bound: Fraction | None  # None for group runs above GROUP_BOUND_AUTO_LIMIT

    def __post_init__(self) -> None:
        key_ids = self.key_ids
        # a bool is no id: True would read id 1
        invariant(not key_ids or (set(map(type, key_ids)) == {int} and 0 <= min(key_ids)
                                  and max(key_ids) < len(self.basis)), "a key bit is not in the basis")
        wanted = set(key_ids)
        invariant(len(wanted) == len(key_ids), "a key bit repeats")
        invariant(self.bound is None or len(wanted) <= self.bound, "achieved length exceeds the partition bound")
        invariant(all(type(holder) is int and holder >= 0 for holder in self.holders),
                  "a holder is not a nonnegative int")
        holders = sorted(self.holders)
        for holder, count in zip(holders, _learned(wanted, self.transcript, holders)):
            if count < len(wanted):
                raise InvariantViolation(f"holder {holder} cannot replay the key")

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


def _learned(wanted: set[int], transcript: Transcript, terminals: Sequence[int]) -> list[int]:
    """How many of the ids ``wanted`` each terminal, in the order given, learns from its own
    bits and the transcript.

    Raises InvariantViolation unless every pad is private: used once, and
    neither a wanted id nor a ``plain`` id.  Then a public bit's row is the
    only one that mentions its pad, so a terminal's own bits and the
    transcript span exactly what its ids tell it: a wanted id itself, a pad
    its ``plain`` id.  When a message is wider than one bit,
    ``_learned_by_runs`` checks and counts over id intervals, a step per
    message run and none per bit.  Otherwise, as in a transcript of one
    bit per message, where an id is a message, pads are checked per id,
    and one table, indexed by the basis's ids, holds what each pad and
    wanted id tells.  A terminal learns the wanted ids that the slices of
    the table over the basis runs it owns hold; its scan of those runs
    stops once it has learned every wanted id.  Every wanted id is an id
    of the basis, as a result checks before it counts.
    """
    if transcript.ends and transcript.ends[-1] > len(transcript.ends):
        return _learned_by_runs(wanted, transcript, terminals)
    plain, pad = transcript.plain, transcript.pad
    pads = set(pad)
    invariant(len(pads) == len(pad), "a pad bit was reused")
    invariant(pads.isdisjoint(wanted) and pads.isdisjoint(plain), "a pad bit is not private")
    basis = transcript.basis
    told: list[int | None] = [None] * len(basis)  # told[i]: what id i tells its owners
    keys = list(wanted)
    # each deque(map(...), 0) writes its cells in one C-level pass, keeping nothing
    deque(map(told.__setitem__, pad, plain), 0)  # a pad tells its plain id
    deque(map(told.__setitem__, keys, keys), 0)  # a wanted id tells itself
    slices: dict[int, list[list[int | None]]] = {terminal: [] for terminal in terminals}
    for ids, owners in basis.runs():
        part = told[ids.start:ids.stop]
        for owner in owners:
            if owner in slices:
                slices[owner].append(part)
    counts = []
    for terminal in terminals:
        left = set(wanted)
        for part in slices[terminal]:
            if not left:
                break
            left.difference_update(part)
        counts.append(len(wanted) - len(left))
    return counts


def _meets(starts: list[int], stops: list[int], lows: Iterable[int], highs: Iterable[int]) -> bool:
    """Whether some interval ``[lows[k], highs[k])`` meets one of the disjoint runs
    ``[starts[i], stops[i])``, which ascend: in C-level passes, none per id."""
    # of the runs that start before an interval's high, the last reaches furthest; reach[i] is the
    # stop of run i - 1, and 0, which reaches no id, before the first run
    reach = [0, *stops]
    return any(map(gt, map(reach.__getitem__, map(bisect_left, repeat(starts), highs)), lows))


def _learned_by_runs(wanted: set[int], transcript: Transcript, terminals: Sequence[int]) -> list[int]:
    """``_learned`` over id intervals, for a transcript with a message wider than one bit.

    Pad runs, sorted by first id, must not overlap (a pad bit was reused),
    and then no pad run may meet a plain run or a run of wanted ids (a pad
    bit is not private).  A terminal learns the wanted ids in the basis
    runs it owns and, for each pad run, the plain-run image of the part
    that lies in a basis run it owns; a pad run may cross basis runs.
    Each such interval is clipped to the maximal runs of wanted ids, and a
    terminal's count is the length of the union of its clipped intervals.
    Steps are per message, basis run and wanted run, none per id.
    """
    ends = transcript.ends
    widths = list(map(sub, ends, [0, *ends]))
    # per message by its pad run: the pad run's first id and stop, and the plain run's first id
    starts, stops, plains = map(list, zip(*sorted(zip(transcript.pad, map(add, transcript.pad, widths),
                                                      transcript.plain))))
    invariant(not any(map(gt, stops, starts[1:])), "a pad bit was reused")
    keys = sorted(wanted)
    # the wanted ids as maximal runs [start, stop): a run breaks where an id is not one past the id before
    breaks = [*compress(range(1, len(keys)), map(ne, keys[1:], map(add, keys, repeat(1))))]
    key_starts = [keys[k] for k in [0, *breaks]] if keys else []
    key_stops = [keys[k - 1] + 1 for k in [*breaks, len(keys)]] if keys else []
    invariant(not _meets(starts, stops, transcript.plain, map(add, transcript.plain, widths))
              and not _meets(starts, stops, key_starts, key_stops), "a pad bit is not private")
    learned: dict[int, list[tuple[int, int]]] = {terminal: [] for terminal in terminals}

    def tell(low: int, high: int, owners: list[int]) -> None:
        """Give ``owners`` the wanted ids in ``[low, high)``, a piece per wanted run it meets."""
        k = bisect_right(key_stops, low)  # the first wanted run that stops past low
        while k < len(key_starts) and key_starts[k] < high:
            piece = (max(low, key_starts[k]), min(high, key_stops[k]))
            for owner in owners:
                learned[owner].append(piece)
            k += 1

    runs = transcript.basis.runs()
    run_starts = [ids.start for ids, _ in runs]
    # a wanted run tells its owners itself, and a pad run its plain run, id for id: per run, its
    # first id and stop and what to add to an id of it for the id it tells
    told = [*zip(key_starts, key_stops, repeat(0)), *zip(starts, stops, map(sub, plains, starts))]
    for start, stop, shift in told:
        k = bisect_right(run_starts, start) - 1
        while k < len(runs) and run_starts[k] < stop:  # each basis run it crosses
            ids, owners = runs[k]
            if counted := [owner for owner in owners if owner in learned]:
                tell(max(start, ids.start) + shift, min(stop, ids.stop) + shift, counted)
            k += 1
    counts = []
    for terminal in terminals:
        count = reach = 0
        for low, high in sorted(set(learned[terminal])):  # pieces by first id: count what each adds
            if high > reach:
                count += high - max(low, reach)
                reach = high
        counts.append(count)
    return counts


def replay_key(result: GroupKeyResult, terminal: int) -> tuple[int, ...] | None:
    """Reconstruct the key from a terminal's own bits plus the transcript.

    Returns the key bits when the terminal learns every key id, or None:
    the expected outcome for a non-holder unless the protocol routes the
    key through it, and for a terminal that owns no bit of the basis.
    Private pads and payload bits computed from their forms tell a
    learned id its own value.  Raises ValueError for a terminal that is
    not a nonnegative int (a bool, such as True, is no terminal).
    """
    if type(terminal) is not int or terminal < 0:
        raise ValueError(f"terminal {terminal!r} is not a nonnegative int")
    (count,) = _learned(set(result.key_ids), result.transcript, (terminal,))
    return result.key if count == len(result.key_ids) else None


def run_broadcast(store: PairwiseKeyStore) -> GroupKeyResult:
    """Star-network group key: everyone ends up holding the shortest leaf key.

    The poorest leaf's whole key (ties to the smallest id) becomes the
    group key.  For every other leaf the center publishes the XOR of that
    leaf's key prefix with the group key, which re-keys the leaf without
    revealing anything: each published bit is padded by a fresh key bit.
    The one route is the star, seeded by the poorest leaf's pair and as
    wide as its key, so the key and the pads are drawn all or nothing.
    """
    spec = store.spec
    bound = broadcast_bound(spec)
    # the witness isolates the poorest leaf; block 0 is the rest, the center's block
    (poorest,) = bound.witness.blocks[1]
    length = spec.budget(0, poorest)
    # a positive poorest budget means every leaf has a key at least this long
    star = [(0, leaf) for leaf in range(1, spec.m)]
    key_ids, transcript = _flood(store, [(star, (0, poorest), length)] if length else [])
    return GroupKeyResult(frozenset(range(spec.m)), key_ids, transcript, bound.value)


def run_subgroup(store: PairwiseKeyStore, s: int, t: int) -> GroupKeyResult:
    """Two-terminal key of exactly min-cut length, relayed by the others.

    s draws F fresh random bits, F the s-t max-flow value, and routes
    slices of them along the flow's path decomposition, one route per
    path, seeded by s and as wide as the path's amount: every hop (u, v)
    carrying c bits publishes the slice XOR the next c unused bits of
    pair {u, v}'s key.  Relays decrypt and re-encrypt, so a relay can
    compute every key bit it forwards: relays are trusted helpers, and
    the key is secret from the eavesdropper, not from them.  The routes
    go together: hops advance in lockstep rounds, paths in lexicographic
    order within a round.  The bound is the min cut that the flow's
    residual graph gives, checked there to equal the flow value.
    """
    flow = max_flow(store.spec, s, t)
    routes = [([canonical_pair(u, v) for u, v in zip(path, path[1:])], s, amount) for path, amount in flow.paths]
    key_ids, transcript = _flood(store, routes, together=True)
    return GroupKeyResult(frozenset((s, t)), key_ids, transcript, Fraction(flow.value))


Route = tuple[Iterable[Pair], Pair | int, int]  # a tree's edges (i, j), its seed, its bits per message


def flood(store: PairwiseKeyStore, routes: Iterable[Route],
          together: bool = False) -> tuple[tuple[int, ...], Transcript]:
    """Flood each route's shared bits along its tree: the one place a run draws bits.

    A route's edges (i, j), 0 <= i < j < m = store.spec.m, in any order,
    form a tree.  Its seed is a pair on the tree, whose next ``width`` key
    bits are the shared bits, or a terminal in it, whose next ``width``
    local bits are.  They spread breadth-first from the seed's ends,
    children in id order: crossing edge (u, v) publishes them XOR the next
    ``width`` unused bits of that edge's key.  Rounds are BFS depths, each
    route's going on from the route before; ``together``, all start at 0
    and the messages merge by (round, route).  The k-th use of a pair
    takes its next unused bits, in take order: each pair seed before its
    route's messages (together, every seed first), then the messages as
    emitted.  All pair bits are drawn in one batch, then each seed
    terminal's.  All or nothing: before any bit is drawn, raises ValueError
    for an edge that is no tuple (i, j) of ints as above, or a route that
    is not a tree holding its seed or has no positive int width, the
    first such fault in route order, and InsufficientKeyMaterial, naming
    the pair, when some pair has fewer unused bits than the routes use.
    Each use's bits are one run of its key's ids, so a message is its
    route's first shared id and its use's first pad id.  Returns the
    shared bits' ids, route by route, and the transcript.

    This is ``_flood`` with every edge checked as its route is reached;
    the runs call ``_flood`` itself, on edges of the spec's own pairs.
    """
    return _flood(store, _checked_edges(routes, store.spec.m), together)


def _checked_edges(routes: Iterable[Route], m: int) -> Iterator[Route]:
    """Each route, its edges in a list, once each edge is a tuple (i, j) of ints, 0 <= i < j < m."""
    for edges, seed, width in routes:
        edges = list(edges)
        for edge in edges:  # before _flood sorts them, which would compare an edge of another type
            i, j = edge if type(edge) is tuple and len(edge) == 2 else (None, None)
            if not (type(i) is type(j) is int and 0 <= i < j < m):
                raise ValueError(f"edge {edge!r} is not a pair i < j of nodes below m={m}")
        yield edges, seed, width


def _flood(store: PairwiseKeyStore, routes: Iterable[Route],
           together: bool = False) -> tuple[tuple[int, ...], Transcript]:
    """``flood`` of routes whose edges are tuples (i, j) of ints, 0 <= i < j < m, as the spec's
    pairs are: no check per edge.  Each route, as it is reached, is still checked to be a tree
    holding its seed, of positive int width; the transcript is ``Transcript._built`` from
    columns of those edges, BFS depths and the store's id runs."""
    m = store.spec.m
    rounds, senders, receivers = [], [], []
    uses: list[Pair | int] = []  # each route's seed, then the pair of each message it sends
    blocks = []  # in take order, uses of one route in a row: route, width, first, stop, whether the first is its seed
    for edges, seed, width in routes:
        edges = sorted(edges)
        adjacency: list[list[int]] = [[] for _ in range(m)]
        for i, j in edges:
            adjacency[i].append(j)  # each list ascends, as the edges are sorted
            adjacency[j].append(i)
        starts = (seed,) if type(seed) is int and 0 <= seed < m else seed if seed in edges else ()
        depth = dict.fromkeys(starts, rounds[-1] + 1 if rounds and not together else 0)
        queue = deque(starts)
        first = len(uses)
        uses.append(seed)
        while queue:
            u = queue.popleft()
            level = depth[u]
            for v in adjacency[u]:
                if v not in depth:
                    depth[v] = level + 1
                    rounds.append(level)
                    senders.append(u)
                    receivers.append(v)
                    uses.append((u, v) if u < v else (v, u))
                    queue.append(v)
        if not starts or len(depth) != len(edges) + 1 or type(width) is not int or width < 1:
            raise ValueError(f"route ({edges}, {seed!r}, {width!r}) is no tree holding its seed, of positive int width")
        blocks.append((len(blocks), width, first, len(uses), True))
    if together:
        # every seed, then a block per message by (round, route); use k of route r is message k - r - 1
        hops = sorted((rounds[k - r - 1], r, k) for r, _, first, stop, _ in blocks for k in range(first + 1, stop))
        rounds, senders, receivers = ([column[k - r - 1] for _, r, k in hops] for column in (rounds, senders, receivers))
        uses = [uses[first] for _, _, first, _, _ in blocks] + [uses[k] for _, _, k in hops]
        blocks = [(r, width, r, r + 1, True) for r, width, *_ in blocks] + [
            (r, blocks[r][1], n, n + 1, False) for n, (_, r, _) in enumerate(hops, len(blocks))]
    # a width-1 use takes its key's next bit; a wider one, if a route is wider, the next run of its key
    wide = ([width for _, width, first, stop, _ in blocks for _ in range(first, stop)]
            if any(block[1] > 1 for block in blocks) else None)
    counts: Counter[Pair | int] = Counter(uses if wide is None else ())
    at = []  # per use, where its run starts in the bits its key is drawn
    for use, width in zip(uses, wide or ()):
        at.append(counts[use])
        counts[use] += width
    local = {key: counts.pop(key) for key in [key for key in counts if type(key) is int]}
    taken: dict[Pair | int, range] = store.take_each(counts)
    taken.update((terminal, store.fresh(terminal, count)) for terminal, count in local.items())
    if wide is None:
        firsts = list(map(next, map({key: iter(ids) for key, ids in taken.items()}.__getitem__, uses)))
    else:
        firsts = [taken[use].start + offset for use, offset in zip(uses, at)]
    shared, plain, pad = [], [], []  # shared: per route, its first shared id and its width
    for r, width, first, stop, seeded in blocks:
        if seeded:
            shared.append((firsts[first], width))
            first += 1
        pad += firsts[first:stop]
        plain += [shared[r][0]] * (stop - first)
    ends = range(1, len(pad) + 1) if wide is None else list(accumulate(
        width for _, width, first, stop, seeded in blocks for _ in range(first + seeded, stop)))
    key_ids = tuple(chain.from_iterable(range(first, first + width) for first, width in shared))
    return key_ids, Transcript._built(store.basis, rounds, senders, receivers, ends, plain, pad)


def run_group_key(store: PairwiseKeyStore, tie_break: str = "lex-kruskal") -> GroupKeyResult:
    """All-terminal key: one bit per spanning tree of the shrinking budget graph.

    One route per tree of greedy_spanning_trees, seeded by its smallest
    edge and one bit wide: each a maximum spanning tree of the remaining
    budgets under the chosen tie-break policy, then debited by one, until
    the budgets no longer span.  The exact partition bound is attached to
    the result, which checks the key against it, for m <=
    GROUP_BOUND_AUTO_LIMIT; beyond that the run checks the total/(m-1)
    ceiling.
    """
    spec = store.spec
    key_ids, transcript = _flood(store, ((tree, min(tree), 1) for tree in greedy_spanning_trees(spec, tie_break)))
    bound = group_bound(spec).value if spec.m <= GROUP_BOUND_AUTO_LIMIT else None
    invariant(bound is not None or len(key_ids) <= spec.total_budget() // (spec.m - 1),
              "achieved length exceeds the total/(m-1) ceiling")
    return GroupKeyResult(frozenset(range(spec.m)), key_ids, transcript, bound)
