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
complemented when the leader's bit is 1).  Participant q then corrects by
her flip bit: her own x bit when she leads, her published slot xor her own
x bit when she follows.  Her shared bit is the XOR of the published
outcome xor her flip bit.  The leader checks the published sign bit
against her own z; a follower's recovered bit equals her own key by the
choice of her flip bit, so a corrupted follower slot shows as seats that
disagree.  Either failure aborts the session with cause "tamper".

Random draws, in order: the operation keys as one (P, n) draw of bits;
for each distribution hop, its decoy kinds as one draw of k values in
[0, 4), then whatever the channel draws, then one bit for each decoy that
came back changed and reads out at random; the leaders' choice bits as one
draw of n bits; and the return hops like the distribution hops.  On PCG64
a draw of k bounded integers returns the same values and leaves the same
generator state as k scalar draws, so the engine consumes the generator
exactly as the one-qubit-at-a-time reference in ``tests/oracle.py`` does.

Sessions are single logical threads; distinct sessions are independent and
may run concurrently with separate RNGs and counters, merged afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Protocol, Sequence

import numpy as np

from .counters import ResourceCounters

# The scalar quantum layer.  The engine calls only decoy_measure; the rest
# stay bound here because perfbench/workloads.py counts quantum-layer calls
# by patching all five names on this module.
from .quantum import (  # noqa: F401
    DecoyKind,
    DecoyQubit,
    Pauli,
    apply_pauli,
    decoy_measure,
    ghz_state,
    measure_entangled,
    random_decoy,
)


class TamperError(Exception):
    """A published outcome is inconsistent with the extractor's own operation."""


@dataclass(frozen=True)
class Participant:
    id: str


@dataclass
class QkaConfig:
    """One session's parameters.  Participants are ordered, server first."""

    participants: list[Participant]
    n: int
    xi: float = 0.0

    def __post_init__(self) -> None:
        if len(self.participants) < 2:
            raise ValueError("a session needs at least two participants")
        ids = [p.id for p in self.participants]
        if len(set(ids)) != len(ids):
            raise ValueError(f"participant ids must be unique: {ids}")
        if self.n < 1:
            raise ValueError("key length must be at least 1 bit")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("decoy proportion must lie in [0, 1]")


def make_config(participant_ids: Sequence[str], n: int, xi: float = 0.0) -> QkaConfig:
    """Build a config from plain ids; the first id is the server."""
    return QkaConfig([Participant(pid) for pid in participant_ids], n=n, xi=xi)


class ChannelModel(Protocol):
    """Transport for one quantum hop; adversaries tamper with the decoys.

    A session run without a channel model has an honest, lossless channel.
    """

    def transmit(
        self, decoys: list[DecoyQubit], rng: np.random.Generator
    ) -> list[DecoyQubit]: ...


# Leader key maps by participant-count parity.  Followers are parity-free.
_LEADER_KEY_EVEN = {Pauli.I: 0, Pauli.X: 0, Pauli.Y: 1, Pauli.Z: 1}
_LEADER_KEY_ODD = {Pauli.I: 0, Pauli.X: 1, Pauli.Y: 0, Pauli.Z: 1}
_FOLLOWER_KEY = {Pauli.I: 0, Pauli.X: 1}


def encode_operation(
    key_bit: int, leader: bool, parity: str, rng: np.random.Generator
) -> Pauli:
    """Pick the Pauli gate encoding one operation-key bit.

    ``parity`` is the parity ("even"/"odd") of the session's participant
    count, server included.  Followers have no choice; leaders pick uniformly
    between the two gates that encode their bit under that parity.
    """
    if not leader:
        return Pauli.X if key_bit else Pauli.I
    table = _LEADER_KEY_EVEN if parity == "even" else _LEADER_KEY_ODD
    options = [op for op, bit in table.items() if bit == key_bit]
    return options[int(rng.integers(len(options)))]


def extract_keys(
    outcome: str, own_op: Pauli, own_index: int, parity: str
) -> tuple[list[int], int]:
    """Recover every participant's operation-key bit from a published outcome.

    The published outcome alone does not determine the key: the extractor
    needs her own operation.  A follower whose outcome bit differs from her
    own key bit knows the leader applied a bit-flipping gate (X or Y) and
    complements the whole outcome first; the leader knows her gate directly.
    After that correction the follower bits read off directly, and the leader
    bit is the uncorrected sign bit under even parity or the corrected sign
    bit under odd parity.

    Returns (all operation-key bits in position order, their XOR).  Raises
    TamperError when the recovered own bit contradicts ``own_op``.
    """
    bits = [int(b) for b in outcome]
    if own_index == 0:
        own_bit = (_LEADER_KEY_EVEN if parity == "even" else _LEADER_KEY_ODD)[own_op]
        flip = own_op in (Pauli.X, Pauli.Y)
    else:
        if own_op not in _FOLLOWER_KEY:
            raise ValueError(f"followers only apply I or X, got {own_op}")
        own_bit = _FOLLOWER_KEY[own_op]
        flip = bool(bits[own_index] ^ own_bit)
    corrected = [b ^ int(flip) for b in bits]
    keys = list(corrected)
    keys[0] = bits[0] if parity == "even" else corrected[0]
    if keys[own_index] != own_bit:
        raise TamperError(
            f"outcome {outcome} inconsistent with own operation {own_op} "
            f"at position {own_index}"
        )
    return keys, int(np.bitwise_xor.reduce(keys))


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
    round up to 8.  A session converts its ``xi`` once and passes the
    ``Fraction``.
    """
    if not isinstance(xi, Fraction):
        xi = Fraction(str(xi))
    return -(-xi.numerator * payload_qubits // xi.denominator)


#: One decoy per kind, indexed like ``random_decoy``'s draw.
_DECOYS = tuple(DecoyQubit(kind) for kind in DecoyKind)


def _checked_hop(
    payload_qubits: int,
    xi: Fraction,
    channel: Optional[ChannelModel],
    rng: np.random.Generator,
    counters: ResourceCounters,
) -> bool:
    """Send one sequence through the channel and verify its decoys.

    The sender prepares ceil(xi * payload) decoys, the channel may tamper
    with them, and the receiver measures each in its announced basis.  The
    bases/positions announcement plus the verification reply count as one
    classical exchange.  Returns True when no decoy shows an error
    (vacuously true without decoys).
    """
    n_decoys = decoys_for_payload(payload_qubits, xi)
    counters.qubits_prepared += n_decoys
    counters.qubits_transmitted += payload_qubits + n_decoys
    if n_decoys == 0:
        return True
    kinds = rng.integers(4, size=n_decoys).tolist()
    counters.classical_messages += 1
    if channel is None:
        counters.decoy_measurements += n_decoys
        return True
    sent = [_DECOYS[k] for k in kinds]
    received = channel.transmit(list(sent), rng)
    errors = 0
    for s, r in zip(sent, received):
        counters.decoy_measurements += 1
        # an untouched decoy reads back its own bit without a draw
        if r is not s and decoy_measure(r, s.basis, rng) != s.bit:
            errors += 1
    return errors == 0


def measure_positions(x: np.ndarray, z: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """Every position's published outcome from the gates' (x, z) bits.

    ``x`` and ``z`` are (P, n) in participant order and ``lead`` holds each
    position's leader row.  Returns a (P, n) array of outcome slots: the
    leader's slot is the sign bit, the XOR of the position's z bits; a
    follower's is her x bit xor the leader's.
    """
    pos = np.arange(x.shape[1])
    out = x ^ x[lead, pos]
    out[lead, pos] = np.bitwise_xor.reduce(z, axis=0)
    return out


def _bit_rows(bits: np.ndarray) -> list[str]:
    """Each row of a 0/1 array as a string of '0' and '1'."""
    text = (bits + 48).astype(np.uint8).tobytes().decode("ascii")
    width = bits.shape[-1]
    return [text[i : i + width] for i in range(0, len(text), width)]


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
    run up to the abort.
    """
    xi = Fraction(str(config.xi))
    ids = [p.id for p in config.participants]
    P, n = len(ids), config.n
    t = QkaTranscript(participants=ids)
    counters = t.counters

    # Private operation keys, one bit per position per participant, and one
    # P-qubit GHZ state per position prepared by the server.
    keys = rng.integers(0, 2, size=(P, n))
    counters.qubits_prepared += P * n

    # Distribution: one sequence per other participant (her particle of every
    # state plus decoys), each channel-checked on receipt.
    for _ in range(1, P):
        if not _checked_hop(n, xi, channel, rng, counters):
            t.aborted, t.abort_cause = True, "eavesdropper"
            return t

    # Encoding: everyone applies the gate for her key bit on her own particle.
    choice = rng.integers(2, size=n)
    counters.gates_applied += P * n
    pos = np.arange(n)
    lead = pos % P
    lead_key = keys[lead, pos]
    x = keys.copy()
    z = np.zeros_like(keys)
    x[lead, pos] = choice ^ lead_key
    z[lead, pos] = lead_key if P % 2 == 0 else choice

    # Return: every non-leader sends her particles for each leader's
    # positions back to that leader, one checked sequence per (sender,
    # leader) pair; participant j leads positions j, j + P, ...
    for j in range(min(P, n)):
        led = len(range(j, n, P))
        for sender in range(P):
            if sender != j and not _checked_hop(led, xi, channel, rng, counters):
                t.aborted, t.abort_cause = True, "eavesdropper"
                return t

    # Measurement and publication: one entangled measurement per position,
    # one classical broadcast per leader that led at least one position.
    published = measure_positions(x, z, lead)
    counters.entangled_measurements += n
    counters.classical_messages += min(P, n)
    t.gates, t.published = x + 2 * z, published
    t.operation_keys = dict(zip(ids, _bit_rows(keys)))

    # Extraction from every participant's point of view; all must agree.
    flip = published ^ x
    flip[lead, pos] = x[lead, pos]
    if not (published[lead, pos] == z[lead, pos]).all() or not (
        flip == flip[0]
    ).all():
        t.aborted, t.abort_cause = True, "tamper"
        return t
    t.extracted_key = _bit_rows(np.bitwise_xor.reduce(published, axis=0) ^ flip[0])[0]
    return t
