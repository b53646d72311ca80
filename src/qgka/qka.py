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

Sessions are single logical threads; distinct sessions are independent and
may run concurrently with separate RNGs and counters, merged afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Protocol, Sequence

import numpy as np

from .counters import ResourceCounters
from .quantum import (
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
    """Transport for one quantum hop; adversaries tamper with the decoys."""

    def transmit(
        self, decoys: list[DecoyQubit], rng: np.random.Generator
    ) -> list[DecoyQubit]: ...


class HonestChannel:
    """Lossless, noiseless, eavesdropper-free transport."""

    def transmit(
        self, decoys: list[DecoyQubit], rng: np.random.Generator
    ) -> list[DecoyQubit]:
        return decoys


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


def leader_schedule(participants: Sequence[Participant], position: int) -> Participant:
    """Round-robin leader for one key position.

    Over n positions every participant leads floor(n/P) or ceil(n/P) of them,
    earlier participants taking the extras.  With two participants this puts
    the server in the lead at positions 0, 2, 4, ... (the odd positions when
    counting from one).
    """
    if not participants:
        raise ValueError("empty participant list")
    return participants[position % len(participants)]


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


@dataclass
class QkaTranscript:
    """Full record of one session run."""

    participants: list[str]
    positions: list[PositionRecord] = field(default_factory=list)
    operation_keys: dict[str, str] = field(default_factory=dict)
    extracted_key: str = ""
    counters: ResourceCounters = field(default_factory=ResourceCounters)
    aborted: bool = False
    abort_cause: Optional[str] = None

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


def _checked_hop(
    payload_qubits: int,
    xi: Fraction,
    channel: ChannelModel,
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
    sent = [random_decoy(rng) for _ in range(n_decoys)]
    received = channel.transmit(list(sent), rng)
    errors = 0
    for s, r in zip(sent, received):
        counters.decoy_measurements += 1
        if decoy_measure(r, s.basis, rng) != s.bit:
            errors += 1
    counters.classical_messages += 1
    return errors == 0


def run_session(
    config: QkaConfig,
    rng: np.random.Generator,
    channel: Optional[ChannelModel] = None,
) -> QkaTranscript:
    """Execute one full session and return its transcript.

    On an honest channel every participant extracts the identical key, equal
    to the position-wise XOR of all operation keys.  A failed channel check
    aborts with cause "eavesdropper"; an inconsistent extraction aborts with
    cause "tamper".  Counters tally every prepared and transmitted qubit,
    gate, measurement, and classical exchange of the run up to the abort.
    """
    channel = channel if channel is not None else HonestChannel()
    xi = Fraction(str(config.xi))
    parts = config.participants
    ids = [p.id for p in parts]
    P, n = len(parts), config.n
    parity = "even" if P % 2 == 0 else "odd"
    t = QkaTranscript(participants=list(ids))
    counters = t.counters

    # Private operation keys, one bit per position per participant.
    op_keys = {pid: rng.integers(0, 2, size=n) for pid in ids}

    # Server prepares one P-qubit entangled state per position.
    states = [ghz_state(P) for _ in range(n)]
    counters.qubits_prepared += P * n

    # Distribution: one sequence per other participant (her particle of every
    # state plus decoys), each channel-checked on receipt.
    for _ in ids[1:]:
        if not _checked_hop(n, xi, channel, rng, counters):
            t.aborted, t.abort_cause = True, "eavesdropper"
            return t

    # Encoding: everyone applies the gate for her key bit on her own particle.
    # Qubit 0 of each state is routed to that position's leader (the tables'
    # convention), the rest follow participant order.
    leaders = [leader_schedule(parts, i) for i in range(n)]
    orders = [
        [leaders[i].id] + [pid for pid in ids if pid != leaders[i].id]
        for i in range(n)
    ]
    ops_by_pos: list[dict[str, Pauli]] = []
    for i in range(n):
        ops: dict[str, Pauli] = {}
        for q, pid in enumerate(orders[i]):
            op = encode_operation(
                int(op_keys[pid][i]), leader=(q == 0), parity=parity, rng=rng
            )
            states[i] = apply_pauli(states[i], q, op)
            counters.gates_applied += 1
            ops[pid] = op
        ops_by_pos.append(ops)

    # Return: every non-leader sends her particles for each leader's
    # positions back to that leader, one checked sequence per (sender,
    # leader) pair.
    positions_led = {pid: [i for i in range(n) if leaders[i].id == pid] for pid in ids}
    for leader_id, led in positions_led.items():
        if not led:
            continue
        for sender in ids:
            if sender == leader_id:
                continue
            if not _checked_hop(len(led), xi, channel, rng, counters):
                t.aborted, t.abort_cause = True, "eavesdropper"
                return t

    # Measurement and publication: one entangled measurement per position,
    # one classical broadcast per leader that led at least one position.
    outcomes = [measure_entangled(states[i]) for i in range(n)]
    counters.entangled_measurements += n
    counters.classical_messages += sum(1 for led in positions_led.values() if led)

    for i in range(n):
        t.positions.append(
            PositionRecord(leader=leaders[i].id, ops=ops_by_pos[i], outcome=outcomes[i])
        )
    t.operation_keys = {
        pid: "".join(str(int(b)) for b in op_keys[pid]) for pid in ids
    }

    # Extraction from every participant's point of view; all must agree.
    derived: dict[str, list[int]] = {pid: [] for pid in ids}
    try:
        for i in range(n):
            for q, pid in enumerate(orders[i]):
                _, shared = extract_keys(outcomes[i], ops_by_pos[i][pid], q, parity)
                derived[pid].append(shared)
    except TamperError:
        t.aborted, t.abort_cause = True, "tamper"
        return t
    keys = {pid: "".join(map(str, bits)) for pid, bits in derived.items()}
    if len(set(keys.values())) != 1:
        t.aborted, t.abort_cause = True, "tamper"
        return t
    t.extracted_key = keys[ids[0]]
    return t
