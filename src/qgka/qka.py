"""Multi-party quantum key agreement sessions over shared entangled states.

A session with P participants (server first) and key length n runs like this:

1. The server prepares n P-qubit GHZ-class states, one per key position, and
   sends each other participant her particle of every state together with
   fresh decoys (``ceil(xi * payload)`` decoys per transmitted sequence).
2. Every hop is channel-checked: the receiver measures the decoys in their
   announced bases and the session aborts on any error (the idealized
   channel is noiseless, so an honest hop never errs).
3. Each participant encodes her private operation-key bit for each position
   as a Pauli gate on her own particle.  The per-position leader rotates
   round-robin over the participant order so no single party controls the
   key.  Followers return their particles to the position's leader, again
   under decoy protection.
4. Leaders measure and publish the outcomes.  Every participant extracts all
   operation keys from the published outcome plus her own operation, and the
   agreed key bit is their XOR.

Operation encoding follows the parity rule for GHZ-based agreement: followers
always use I -> 0 and X -> 1; a leader's I, X, Y, Z encode 0, 0, 1, 1 when the
participant count is even and 0, 1, 0, 1 when it is odd.  Each key bit leaves
the leader a free choice between two gates, which is what hides the key from
anyone who only sees the published measurement results.

The engine runs a whole session as bit arrays, never one qubit at a time.
A Pauli gate is a pair of bits (x, z): X flips the qubit's bit of the flip
pattern, Z flips the sign, Y does both (global phase dropped).  A session
holds its operation keys and gates as (P, n) arrays, one row per
participant in participant order and one column per key position.
Followers apply x = key, z = 0.  The leader of position i (participant
i mod P) draws a choice bit c and applies z = key, x = c xor key under even
parity, or z = c, x = c xor key under odd parity.  A position's state
starts as the GHZ state, so after the gates its flip pattern is its x
column and its sign the XOR of its z column; the measurement publishes the
sign bit in the leader's slot and x_q xor x_leader in every follower's slot
(``quantum.measure_entangled`` on the canonical state, whose pattern is
complemented when the leader's bit is 1).  Each party q then corrects by
her flip bit: her own x bit when she leads, her published slot xor her own
x bit when she follows.  Her shared bit is the XOR of the published
outcome xor her flip bit.  The leader checks the published sign bit
against her own z; a follower's recovered bit equals her own key by the
choice of her flip bit, so a corrupted follower slot shows as seats that
disagree.  Either failure aborts the session with cause "tamper".

A session runs in two stages.  ``draw_session`` makes all of its random
draws and channel checks, and stops at the first failed check.  It calls
the generator twice, once per phase, each time for values in [0, 4): first
the operation keys, P * n of them in (P, n) order, followed by the decoy
kinds of all the distribution hops, then whatever the channel draws for
that whole batch; after the distribution check, the leaders' n choice bits
followed by the return hops' decoy kinds, and the channel's draws for
those.  A phase without decoys draws only its bits.  Each sequence's decoy
count comes from a plan made once per (P, n, xi).  On PCG64 a draw of k
bounded integers returns the same values and leaves the same generator
state as k scalar draws.  By Lemire's method, which numpy uses for bounded
integers, a value in [0, 2^b) is the top b bits of one 32-bit output, so a
value in [0, 4) shifted right by one is the bit that a draw of bits would
have taken from the same output.  The engine therefore consumes the
generator exactly as the one-qubit-at-a-time reference in
``tests/oracle.py`` does, which draws its bits and its decoys one by one
and hands the channel the same batch; ``TestArrayEngine`` in
``tests/test_qka.py`` pins both properties draw for draw.

``finish_sessions`` then encodes, measures, checks and extracts any number
of drawn sessions of one key length at once; it draws nothing.  The
sessions' rows are stacked one session after another into (sum of P, n)
arrays.  The three engine helpers take those rows, an (S, n) array ``lead``
of each position's leader row in the stack, and ``sizes``, each session's
party count P, from which they find each session's first row; so a session
need not be led round-robin, which the dishonest leader of
``adversary.malicious_leader_experiment`` uses.  ``np.bitwise_xor.reduceat``
over the first rows gives each session's sign bits and published parity.
Both tamper checks are made per session.  ``run_session`` is a batch of
one.  Because the finish draws nothing, the sessions of one event are drawn
in order, up to the first that aborts in its draw, and finished together,
with the same generator stream and transcripts as running them one by one.
Only a tampered session is found after all of the event's sessions were
drawn.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Optional, Protocol, Sequence

import numpy as np

from .counters import ResourceCounters
from .keytree import bits_text

# The scalar quantum layer.  The engine calls none of these functions; they
# stay bound here because perfbench/workloads.py counts quantum-layer calls
# by patching all five names on this module.
from .quantum import (  # noqa: F401
    Pauli,
    apply_pauli,
    decoy_measure,
    ghz_state,
    measure_entangled,
    random_decoy,
)


@dataclass
class QkaConfig:
    """One session's parameters: the participant ids in order, server first."""

    participants: list[str]
    n: int
    xi: float = 0.0

    def __post_init__(self) -> None:
        if len(self.participants) < 2:
            raise ValueError("a session needs at least two participants")
        ids = self.participants
        if len(set(ids)) != len(ids):
            raise ValueError(f"participant ids must be unique: {ids}")
        if self.n < 1:
            raise ValueError("key length must be at least 1 bit")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("decoy proportion must lie in [0, 1]")


class ChannelModel(Protocol):
    """Transport for a batch of decoys; adversaries tamper with them.

    ``transmit`` takes each decoy's kind as an index into (|0>, |1>, |+>,
    |->), so its basis is X for 2 and 3 and its bit the index mod 2, and
    returns a boolean mask, not readings: the decoys the receiver reads
    wrong in their announced basis.  A session run without a channel model
    has an honest, lossless channel, on which no decoy reads wrong.
    """

    def transmit(self, kinds: np.ndarray, rng: np.random.Generator) -> np.ndarray: ...


@dataclass
class PositionRecord:
    """What happened at one key position: who led, who applied what, result."""

    leader: str
    ops: dict[str, Pauli]
    outcome: str

    def to_dict(self) -> dict:
        return {
            "leader": self.leader,
            "ops": {pid: op.value for pid, op in self.ops.items()},
            "outcome": self.outcome,
        }


#: Pauli gate for the code x + 2 z of its (x, z) bits.
_PAULI_OF = (Pauli.I, Pauli.X, Pauli.Z, Pauli.Y)


@dataclass
class QkaTranscript:
    """Full record of one session run.

    Once the positions are measured, ``gates`` holds each participant's
    Pauli per key position as the code x + 2 z, and ``published`` her slot
    of each published outcome (the leader's slot holds the sign bit); both
    are (P, n) arrays in participant order.  ``positions`` builds the
    per-position records from them on demand.
    """

    participants: list[str]
    operation_keys: dict[str, str] = field(default_factory=dict)
    extracted_key: str = ""
    counters: ResourceCounters = field(default_factory=ResourceCounters)
    aborted: bool = False
    abort_cause: Optional[str] = None
    gates: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    published: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def positions(self) -> list[PositionRecord]:
        """Per key position: leader, every gate and the outcome, in qubit
        order (the leader's qubit first, then participant order)."""
        if self.published is None:
            return []
        ids = self.participants
        P = len(ids)
        records = []
        columns = zip(self.gates.T.tolist(), self.published.T.tolist())
        for i, (codes, slots) in enumerate(columns):
            lead = i % P
            order = [lead, *range(lead), *range(lead + 1, P)]
            records.append(
                PositionRecord(
                    leader=ids[lead],
                    ops={ids[q]: _PAULI_OF[codes[q]] for q in order},
                    outcome="".join("01"[slots[q]] for q in order),
                )
            )
        return records

    def to_dict(self) -> dict:
        return {
            "participants": self.participants,
            "positions": [p.to_dict() for p in self.positions],
            "extracted_key": self.extracted_key,
            "counters": self.counters.as_dict(),
            "aborted": self.aborted,
            "abort_cause": self.abort_cause,
        }


def decoys_for_payload(payload_qubits: int, xi: float | Fraction) -> int:
    """Number of decoys inserted into one transmitted sequence.

    ``ceil(xi * payload)`` with ``xi`` read as the exact decimal it was
    written as: in binary floating point 0.07 * 100 exceeds 7 and would
    round up to 8.  A session's plan converts its ``xi`` once and passes the
    ``Fraction``.
    """
    if not isinstance(xi, Fraction):
        xi = Fraction(str(xi))
    return -(-xi.numerator * payload_qubits // xi.denominator)


@dataclass(frozen=True)
class _Hops:
    """One phase's checked sequences, in sending order: each one's payload
    qubits and its ``ceil(xi * payload)`` decoys, with the phase totals."""

    payloads: tuple[int, ...]
    decoys: tuple[int, ...]
    ends: tuple[int, ...]  # running total of decoys, sequence by sequence
    payload_qubits: int
    decoy_qubits: int
    messages: int  # sequences that carry decoys

    @classmethod
    def of(cls, payloads: list[int], xi: Fraction) -> "_Hops":
        decoys = tuple(decoys_for_payload(p, xi) for p in payloads)
        return cls(
            tuple(payloads),
            decoys,
            tuple(accumulate(decoys)),
            sum(payloads),
            sum(decoys),
            len(decoys) - decoys.count(0),
        )


@lru_cache(maxsize=1024)
def _plan(P: int, n: int, xi: float) -> tuple[_Hops, _Hops]:
    """A session's distribution and return sequences, per (P, n, xi).

    Distribution sends one sequence to every participant but the server;
    on return every non-leader sends her particles for each leader's
    positions back to that leader, one sequence per (sender, leader) pair,
    where participant j leads positions j, j + P, ...
    """
    exact = Fraction(str(xi))
    returns = [
        len(range(j, n, P))
        for j in range(min(P, n))
        for sender in range(P)
        if sender != j
    ]
    return _Hops.of([n] * (P - 1), exact), _Hops.of(returns, exact)


def _checked_hops(
    hops: _Hops,
    kinds: np.ndarray,
    channel: Optional[ChannelModel],
    rng: np.random.Generator,
    counters: ResourceCounters,
) -> bool:
    """Send a phase's sequences through the channel, in order, and verify
    each one's decoys.

    The sender prepares each sequence's decoys, whose kinds the phase drew
    as ``kinds``; the channel may tamper with them, and the receiver
    measures each in its announced basis.  The bases/positions announcement
    plus the verification reply count as one classical exchange per
    sequence that has decoys.  The channel carries all the decoys of the
    phase in one call and returns the mask of those read wrong; without a
    channel every decoy reads back right.  Returns False when a sequence
    reads wrong; the sequences after the first such one are never sent, so
    the counters stop with it.
    """
    total, payload, messages = hops.decoy_qubits, hops.payload_qubits, hops.messages
    ok = True
    # on an honest channel no decoy reads wrong
    if total and channel is not None:
        wrong = np.flatnonzero(channel.transmit(kinds, rng))
        if wrong.size:
            # the first sequence whose decoys run past the first wrong one
            sent = bisect_right(hops.ends, wrong[0]) + 1
            decoys = hops.decoys[:sent]
            total, payload = sum(decoys), sum(hops.payloads[:sent])
            messages, ok = sent - decoys.count(0), False
    counters.qubits_prepared += total
    counters.qubits_transmitted += payload + total
    counters.classical_messages += messages
    counters.decoy_measurements += total
    return ok


def encode_gates(
    keys: np.ndarray, choice: np.ndarray, lead: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every participant's gate for her operation-key bits, as (x, z) bits.

    ``keys`` holds the sessions' (P, n) rows in participant order, one
    session after another; ``choice`` and ``lead`` are (S, n), each
    position's leader choice bit and leader row, and ``sizes`` each
    session's P.  Followers apply x = key, z = 0; a leader applies
    x = choice xor key and z = key when P is even, z = choice when P is odd.
    """
    pos = np.arange(keys.shape[1])
    lead_key = keys[lead, pos]
    x = keys.copy()
    z = np.zeros_like(keys)
    x[lead, pos] = choice ^ lead_key
    z[lead, pos] = np.where((sizes % 2 == 0)[:, None], lead_key, choice)
    return x, z


def measure_positions(
    x: np.ndarray, z: np.ndarray, lead: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Every position's published outcome from the gates' (x, z) bits.

    ``x`` and ``z`` hold the sessions' rows as ``encode_gates`` returns
    them, with its ``lead`` and ``sizes``.  Returns the outcome slots in the
    same rows: the leader's slot is the sign bit, the XOR of her session's z
    bits at the position; a follower's is her x bit xor the leader's.
    """
    pos = np.arange(x.shape[1])
    out = x ^ np.repeat(x[lead, pos], sizes, axis=0)
    out[lead, pos] = np.bitwise_xor.reduceat(z, sizes.cumsum() - sizes, axis=0)
    return out


def extract_shared(
    published: np.ndarray, x: np.ndarray, lead: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every seat's flip bits and shared key bits from a publication.

    ``published`` and ``x`` hold the sessions' rows, the published outcome
    slots and each participant's own x bits, with ``lead`` and ``sizes`` as
    for ``encode_gates``.  A leader's flip bit is her own x bit, a
    follower's her published slot xor her own x bit; her shared bit is the
    XOR of her session's published slots at the position xor her flip bit.
    Returns both in the same rows.
    """
    pos = np.arange(x.shape[1])
    flip = published ^ x
    flip[lead, pos] = x[lead, pos]
    parity = np.bitwise_xor.reduceat(published, sizes.cumsum() - sizes, axis=0)
    return flip, np.repeat(parity, sizes, axis=0) ^ flip


def _bit_rows(bits: np.ndarray) -> list[str]:
    """Each row of a 0/1 array as a string of '0' and '1'."""
    text = bits_text(bits)
    width = bits.shape[-1]
    return [text[i : i + width] for i in range(0, len(text), width)]


@dataclass
class SessionDraw:
    """One session's random draws, ready for ``finish_sessions``.

    ``keys`` holds the (P, n) operation keys and ``choice`` the leaders' n
    choice bits, None when the session aborted before encoding.
    """

    transcript: QkaTranscript
    keys: np.ndarray
    choice: Optional[np.ndarray] = None


def draw_session(
    config: QkaConfig,
    rng: np.random.Generator,
    channel: Optional[ChannelModel] = None,
) -> SessionDraw:
    """Draw one session's randomness and run its channel checks.

    Stops at the first failed check, with cause "eavesdropper" in the
    transcript; otherwise the session is ready to measure.
    """
    ids = list(config.participants)
    P, n = len(ids), config.n
    out, back = _plan(P, n, config.xi)
    t = QkaTranscript(participants=ids)
    counters = t.counters

    # Private operation keys, one bit per position per participant, and one
    # P-qubit GHZ state per position prepared by the server; the same draw
    # holds the distribution decoys' kinds after the keys.
    values = rng.integers(4, size=P * n + out.decoy_qubits)
    draw = SessionDraw(t, (values[: P * n] >> 1).reshape(P, n))
    counters.qubits_prepared += P * n

    # Distribution: one sequence per other participant (her particle of every
    # state plus decoys), each channel-checked on receipt.
    if not _checked_hops(out, values[P * n :], channel, rng, counters):
        t.aborted, t.abort_cause = True, "eavesdropper"
        return draw

    # Encoding: everyone applies the gate for her key bit on her own
    # particle; the leaders' free choices are drawn here, with the return
    # decoys' kinds after them, and the gates are worked out at the finish.
    values = rng.integers(4, size=n + back.decoy_qubits)
    draw.choice = values[:n] >> 1
    counters.gates_applied += P * n

    # Return: the followers' particles go back to each position's leader.
    if not _checked_hops(back, values[n:], channel, rng, counters):
        t.aborted, t.abort_cause = True, "eavesdropper"
    return draw


def finish_sessions(draws: Sequence[SessionDraw]) -> list[QkaTranscript]:
    """Measure and extract the drawn sessions in one pass, and return every
    draw's transcript, in order.

    The sessions that did not abort, all of one key length, are stacked as
    rows; each is measured and checked on its own rows, and aborts with
    cause "tamper" when its extraction is inconsistent.  Their transcripts
    are completed in place, so each draw is finished once.
    """
    live = [d for d in draws if not d.transcript.aborted]
    if not live:
        return [d.transcript for d in draws]
    n = live[0].keys.shape[1]
    pos = np.arange(n)
    sizes = np.array([d.keys.shape[0] for d in live])
    firsts = sizes.cumsum() - sizes
    # a session's position i is led by its participant i mod P
    lead = pos % sizes[:, None] + firsts[:, None]
    keys = np.concatenate([d.keys for d in live])
    x, z = encode_gates(keys, np.array([d.choice for d in live]), lead, sizes)

    # Measurement and publication: one entangled measurement per position,
    # one classical broadcast per leader that led at least one position.
    published = measure_positions(x, z, lead, sizes)
    gates = x + 2 * z

    # Extraction from every participant's point of view; all must agree,
    # and each leader's published sign bit must match her own z.
    flip, shared = extract_shared(published, x, lead, sizes)
    signed = (published[lead, pos] == z[lead, pos]).all(axis=1)
    agreed = (flip == np.repeat(flip[firsts], sizes, axis=0)).all(axis=1)
    ok = (signed & np.logical_and.reduceat(agreed, firsts)).tolist()
    key_rows = _bit_rows(keys)
    extracted = _bit_rows(shared[firsts])
    for i, (d, a, P) in enumerate(zip(live, firsts.tolist(), sizes.tolist())):
        t = d.transcript
        t.counters.entangled_measurements += n
        t.counters.classical_messages += min(P, n)
        t.gates, t.published = gates[a : a + P], published[a : a + P]
        t.operation_keys = dict(zip(t.participants, key_rows[a : a + P]))
        if ok[i]:
            t.extracted_key = extracted[i]
        else:
            t.aborted, t.abort_cause = True, "tamper"
    return [d.transcript for d in draws]


def run_session(
    config: QkaConfig,
    rng: np.random.Generator,
    channel: Optional[ChannelModel] = None,
) -> QkaTranscript:
    """Execute one full session and return its transcript.

    On an honest channel (``channel=None``) every participant extracts the
    identical key, equal to the position-wise XOR of all operation keys.  A
    failed channel check aborts with cause "eavesdropper"; an inconsistent
    extraction aborts with cause "tamper".  Counters tally every prepared
    and transmitted qubit, gate, measurement, and classical exchange of the
    run up to the abort.  A batch of one: ``draw_session`` then
    ``finish_sessions``.
    """
    return finish_sessions([draw_session(config, rng, channel)])[0]
