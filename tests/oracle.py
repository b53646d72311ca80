"""Reference implementations used only by the tests.

The dense statevector oracle is independent of the compact flip/sign
representation: states are full 2^n complex vectors, gates are literal
Pauli matrices, and the measurement outcome is read off the support of the
vector.  Qubit 0 is the most significant bit of the basis index, matching
the bit-string convention of the package.

``apply_rekey`` is per-user delivery: one user opens a rekey message with
the keys in that user's view, the reference for the protocol's shared
delivery.

``dfs_height`` and ``scan_join_point`` walk the whole key tree, the
references for the tree's cached height and join summaries.

``run_session`` is the key-agreement session one qubit at a time: one
``EntangledState`` per position, one gate per participant, one scalar draw
per leader choice and per decoy, and ``extract_keys`` from every seat.  It
is the reference for the array engine in ``qgka.qka``, draw for draw, and
``leader_schedule`` is its leader rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from qgka.counters import ResourceCounters
from qgka.keytree import GroupKey, KeyTree
from qgka.qka import (
    ChannelModel,
    Participant,
    PositionRecord,
    QkaConfig,
    QkaTranscript,
    TamperError,
    decoys_for_payload,
    encode_operation,
    extract_keys,
)
from qgka.quantum import (
    EntangledState,
    Pauli,
    apply_pauli,
    decoy_measure,
    ghz_state,
    measure_entangled,
    random_decoy,
)
from qgka.rekey import MissingKeyError, RekeyMessage, UserView, decrypt_key

_MATRICES = {
    Pauli.I: np.eye(2, dtype=complex),
    Pauli.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Pauli.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Pauli.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_vector(flips: str, sign: int) -> np.ndarray:
    """Statevector of (|flips> + sign * |~flips>) / sqrt(2)."""
    n = len(flips)
    vec = np.zeros(2**n, dtype=complex)
    idx = int(flips, 2)
    comp = idx ^ (2**n - 1)
    vec[idx] = 1 / np.sqrt(2)
    vec[comp] = sign / np.sqrt(2)
    return vec


def dense_of(state: EntangledState) -> np.ndarray:
    return dense_vector(state.flips, state.sign)


def apply_dense(vec: np.ndarray, n: int, qubit: int, op: Pauli) -> np.ndarray:
    mats = [_MATRICES[Pauli.I]] * n
    mats[qubit] = _MATRICES[op]
    full = mats[0]
    for m in mats[1:]:
        full = np.kron(full, m)
    return full @ vec

def equal_up_to_phase(u: np.ndarray, v: np.ndarray) -> bool:
    return bool(np.isclose(abs(np.vdot(u, v)), 1.0, atol=1e-12))


def oracle_measure(vec: np.ndarray, n: int) -> str:
    """Measurement outcome derived straight from the dense amplitudes."""
    support = np.flatnonzero(~np.isclose(vec, 0.0, atol=1e-12))
    assert len(support) == 2, "state left the GHZ-class family"
    lo, hi = sorted(support)
    assert lo ^ hi == 2**n - 1, "support is not a complementary pair"
    rel = vec[hi] / vec[lo]
    assert np.isclose(rel, 1.0, atol=1e-12) or np.isclose(rel, -1.0, atol=1e-12)
    sign = 1 if np.isclose(rel, 1.0, atol=1e-12) else -1
    flips = format(lo, f"0{n}b")
    head = "0" if sign == 1 else "1"
    return head + flips[1:]


def apply_rekey(view: UserView, message: RekeyMessage) -> list[GroupKey]:
    """Decrypt and install every item of a message addressed to this user.

    Raises MissingKeyError if an item's wrapping key is absent (a protocol
    bug, not an attack) and AuthenticationError if decryption fails despite
    a matching (id, version).  A message addressed to others changes
    nothing.
    """
    if view.user_id not in message.recipients:
        return []
    installed = []
    for item in message.items:
        held = view.keys.get(item.enc_key_id)
        if held is None or held.version != item.enc_version:
            raise MissingKeyError(
                f"{view.user_id} lacks {item.enc_key_id} v{item.enc_version}"
            )
        new_key = decrypt_key(held, item)
        view.install(new_key)
        installed.append(new_key)
    return installed


def dfs_height(tree: KeyTree) -> int:
    """Edges along the longest u-node to root path, by one DFS."""
    if tree.root is None:
        return 0
    best = 0
    stack = [(tree.root, 0)]
    while stack:
        nid, depth = stack.pop()
        node = tree.nodes[nid]
        if node.kind == "u":
            best = max(best, depth)
        else:
            stack.extend((c, depth + 1) for c in node.children)
    return best


def scan_join_point(tree: KeyTree) -> tuple[str, str]:
    """The join rule by a scan of every individual key.

    Returns ``("attach", k-node)``: the non-full parent of individual keys
    with the fewest users, then the earliest created; or, when every such
    parent is full, ``("split", individual key)``: the one with the
    smallest (depth, parent's user count, creation).
    """
    individuals = [
        n
        for n in tree.nodes.values()
        if n.kind == "k" and tree.nodes[n.children[0]].kind == "u"
    ]
    parents = [tree.nodes[p] for p in {n.parent for n in individuals if n.parent}]
    open_parents = [p for p in parents if len(p.children) < tree.degree]
    if open_parents:
        best = min(open_parents, key=lambda p: (len(tree.userset(p.id)), p.created))
        return "attach", best.id
    target = min(
        individuals,
        key=lambda n: (
            tree.depth(n.id),
            len(tree.userset(n.parent)) if n.parent else 1,
            n.created,
        ),
    )
    return "split", target.id


@dataclass
class ScalarTranscript(QkaTranscript):
    """A transcript whose position records are built one by one."""

    records: list[PositionRecord] = field(default_factory=list)

    @property
    def positions(self) -> list[PositionRecord]:
        return self.records


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


def _checked_hop(
    payload_qubits: int,
    xi: Fraction,
    channel: Optional[ChannelModel],
    rng: np.random.Generator,
    counters: ResourceCounters,
) -> bool:
    """Send one sequence with fresh decoys and check every decoy."""
    n_decoys = decoys_for_payload(payload_qubits, xi)
    counters.qubits_prepared += n_decoys
    counters.qubits_transmitted += payload_qubits + n_decoys
    if n_decoys == 0:
        return True
    sent = [random_decoy(rng) for _ in range(n_decoys)]
    received = sent if channel is None else channel.transmit(list(sent), rng)
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
) -> ScalarTranscript:
    """One session, qubit by qubit; ``channel=None`` is the honest channel."""
    xi = Fraction(str(config.xi))
    parts = config.participants
    ids = [p.id for p in parts]
    P, n = len(parts), config.n
    parity = "even" if P % 2 == 0 else "odd"
    t = ScalarTranscript(participants=list(ids))
    counters = t.counters

    op_keys = {pid: rng.integers(0, 2, size=n) for pid in ids}
    states = [ghz_state(P) for _ in range(n)]
    counters.qubits_prepared += P * n

    for _ in ids[1:]:
        if not _checked_hop(n, xi, channel, rng, counters):
            t.aborted, t.abort_cause = True, "eavesdropper"
            return t

    # qubit 0 of each state goes to the position's leader, the rest follow
    # participant order
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

    outcomes = [measure_entangled(states[i]) for i in range(n)]
    counters.entangled_measurements += n
    counters.classical_messages += sum(1 for led in positions_led.values() if led)

    for i in range(n):
        t.records.append(
            PositionRecord(leader=leaders[i].id, ops=ops_by_pos[i], outcome=outcomes[i])
        )
    t.operation_keys = {
        pid: "".join(str(int(b)) for b in op_keys[pid]) for pid in ids
    }

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
