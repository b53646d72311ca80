"""Reference implementations used only by the tests.

The dense statevector oracle is independent of the compact flip/sign
representation: states are full 2^n complex vectors, gates are literal
Pauli matrices, and the measurement outcome is read off the support of the
vector.  Qubit 0 is the most significant bit of the basis index, matching
the bit-string convention of the package.

``apply_rekey`` is per-user delivery: one user opens a rekey message with
the keys in that user's ``UserView``, her own key store, the reference for
the protocol's shared delivery.  ``per_user_report`` compares every
member's view with its keyset projection, one user at a time, the reference
for ``GroupProtocol.verify_consistency``, which compares only the users
whose keys have not settled.

``stays_with_keys`` lists every stay of every user id in a
``qgka.history.History`` with the keys held in it, one holder of one
recorded key version at a time, and ``per_stay_failures`` plays the secrecy
game one stay at a time over such a listing, trying each key of a stay on
every ciphertext under its id and version sent outside the stay: the
references for the history's key records and ``History.secrecy_failures``,
which keeps each key version once and unwraps a ciphertext once per key,
not once per holder.

``dfs_height`` and ``scan_join_point`` walk the whole key tree, the
references for the tree's cached height and join summaries, ``depth``
counts a node's edges up to the root, and
``per_node_keys`` draws a balanced tree's keys one k-node at a time, the
reference for ``KeyTree.build_balanced``'s single draw.

The scalar session path is the reference for the array engine in
``qgka.qka``, draw for draw.  ``encode_operation`` picks one Pauli gate per
operation-key bit and ``extract_keys`` recovers every operation key from a
published outcome string at one seat; both follow the paper's gate tables.
``run_session`` is the key-agreement session one qubit at a time: one
``EntangledState`` per position, one gate per participant, one scalar draw
per leader choice and per decoy, and ``extract_keys`` from every seat, with
``leader_schedule`` as its leader rotation.  ``malicious_leader_experiment``
is the dishonest-leader experiment on the same scalar path, with
``forge_outcome`` forging a published outcome string; it is the reference
for ``qgka.adversary.malicious_leader_experiment``, report for report and
draw for draw.

``tap_intercept_resend`` and ``tap_cnot`` are the two channel attacks on
one scalar decoy state, the physics reference for
``qgka.adversary.tap_decoys``; ``scalar_tap`` runs them over a batch of
decoys.  They match the kernel's statistics, not its draws: the session
reference hands its channel the same batch of decoy kinds as the engine
does and treats the channel as a black box that returns a misread mask.
``where_tap`` is the array kernel with one generator call per quantity and
readings selected by ``np.where``, the reference for
``qgka.adversary.tap_decoys`` draw for draw.  The references return
readings, the physics; the kernel returns masks, not readings, and a
reading compared with the encoded bit gives the kernel's mask.
``detection_experiment`` draws every decoy of a run in one array, taps it
with ``where_tap`` and reduces (trials, decoys) arrays, the reference for
``qgka.adversary.detection_experiment``'s chunks, report for report and,
for a run of at most one chunk, draw for draw.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from qgka.adversary import AttackReport, EveStrategy
from qgka.counters import ResourceCounters
from qgka.keytree import GroupKey, KeyTree, flatten, random_bits
from qgka.qka import (
    ChannelModel,
    PositionRecord,
    QkaConfig,
    QkaTranscript,
    decoys_for_payload,
)
from qgka.quantum import (
    DecoyKind,
    DecoyQubit,
    EntangledState,
    Pauli,
    apply_pauli,
    decoy_measure,
    ghz_state,
    measure_entangled,
    random_decoy,
)
from qgka.history import History
from qgka.protocol import GroupProtocol
from qgka.rekey import (
    MissingKeyError,
    RekeyMessage,
    SimCipherText,
    decrypt_key,
    try_unwrap,
)

#: one stay of a user id: (joined, left or None, the (id, version, bits) keys
#: held in it)
StayKeys = tuple[int, Optional[int], set[tuple[str, int, str]]]

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


class UserView:
    """One user's own key store, the per-user form of a member's keys.

    The protocol keeps members' keys per node instead; per-user delivery
    into these stores is the test suite's reference for it.
    """

    def __init__(self, user_id: str, keys: Iterable[GroupKey] = ()):
        self.user_id = user_id
        self.keys: dict[str, GroupKey] = {k.key_id: k for k in keys}

    def install(self, key: GroupKey) -> None:
        self.keys[key.key_id] = key

    def drop(self, key_id: str) -> None:
        self.keys.pop(key_id, None)


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


def stays_with_keys(history: History) -> dict[str, list[StayKeys]]:
    """Every stay of every user id, with the keys of ``history.held`` that
    its holders got while it lasted, one holder at a time."""
    stays = {
        uid: [(s.joined, s.left, set()) for s in user_stays]
        for uid, user_stays in history.stays.items()
    }
    for key, rope, got in history.held:
        held = astuple(key)
        for uid in flatten(rope):
            _, _, keys = next(s for s in reversed(stays[uid]) if s[0] <= got)
            keys.add(held)
    return stays


def per_stay_failures(
    stays: dict[str, list[StayKeys]], sent: Sequence[tuple[int, SimCipherText]]
) -> list[str]:
    """``History.secrecy_failures``'s report over ``sent``, the
    ciphertexts with their send steps, by trying every key of every stay."""
    under: dict[tuple[str, int], list[int]] = {}  # positions in ``sent``
    for i, (_, ct) in enumerate(sent):
        under.setdefault((ct.enc_key_id, ct.enc_version), []).append(i)
    failures: list[str] = []
    for uid, user_stays in stays.items():
        for joined, left, keys in user_stays:
            end = float("inf") if left is None else left
            opened = {
                i
                for k, v, bits in keys
                for i in under.get((k, v), ())
                if not joined <= sent[i][0] < end
                and try_unwrap(GroupKey(k, v, bits), sent[i][1]) is not None
            }
            for i in sorted(opened):
                step = sent[i][0]
                who = f"departed {uid}" if step >= end else uid
                failures.append(f"{who} opened a ciphertext from step {step}")
    return failures


def per_user_report(proto: GroupProtocol) -> dict:
    """``verify_consistency``'s report, by comparing every member."""
    tree = proto.tree
    mismatches: dict[str, dict] = {}
    for uid in tree.users():
        projection = {k: tree.key(k) for k in tree.keyset(uid)}
        held = dict(proto.views[uid].keys)
        if held != projection:
            mismatches[uid] = {
                "missing": sorted(set(projection) - set(held)),
                "stale": sorted(
                    k for k in held if k in projection and held[k] != projection[k]
                ),
                "extra": sorted(set(held) - set(projection)),
            }
    return {"consistent": not mismatches, "mismatches": mismatches}


def dfs_height(tree: KeyTree) -> int:
    """K-nodes along the longest individual key to root path, by one DFS."""
    if tree.root is None:
        return 0
    best = 0
    stack = [(tree.root, 1)]
    while stack:
        nid, depth = stack.pop()
        node = tree.nodes[nid]
        if not node.children:
            best = max(best, depth)
        stack.extend((c, depth + 1) for c in node.children)
    return best


def depth(tree: KeyTree, node_id: str) -> int:
    """Edges from ``node_id`` up to the root."""
    d, node = 0, tree.nodes[node_id]
    while node.parent is not None:
        d += 1
        node = tree.nodes[node.parent]
    return d


def per_node_keys(tree: KeyTree, rng: np.random.Generator) -> dict[str, GroupKey]:
    """First-version keys for every k-node of ``tree``, drawn with one
    ``random_bits`` call per node in creation order."""
    k_nodes = sorted(tree.nodes.values(), key=lambda n: n.created)
    return {n.id: GroupKey(n.id, 1, random_bits(tree.key_len, rng)) for n in k_nodes}


def scan_join_point(tree: KeyTree) -> tuple[str, str]:
    """The join rule by a scan of every individual key.

    Returns ``("attach", k-node)``: the non-full parent of individual keys
    with the fewest users, then the earliest created; or, when every such
    parent is full, ``("split", individual key)``: the one with the
    smallest (depth, parent's user count, creation).
    """
    individuals = [n for n in tree.nodes.values() if not n.children]
    parents = [tree.nodes[p] for p in {n.parent for n in individuals if n.parent}]
    open_parents = [p for p in parents if len(p.children) < tree.degree]
    if open_parents:
        best = min(open_parents, key=lambda p: (len(tree.userset(p.id)), p.created))
        return "attach", best.id
    target = min(
        individuals,
        key=lambda n: (
            depth(tree, n.id),
            len(tree.userset(n.parent)) if n.parent else 1,
            n.created,
        ),
    )
    return "split", target.id


#: The decoy kinds in the order of a kind index: |0>, |1>, |+>, |->.
_KINDS = tuple(DecoyKind)
_KIND_FOR = {("Z", 0): DecoyKind.Z0, ("Z", 1): DecoyKind.Z1,
             ("X", 0): DecoyKind.XPLUS, ("X", 1): DecoyKind.XMINUS}


def tap_intercept_resend(
    decoy: DecoyQubit, rng: np.random.Generator
) -> tuple[DecoyQubit, int]:
    """Eve measures in a uniformly random basis and resends her result state.

    Returns the forwarded qubit and Eve's measured bit.  With a matching
    basis her bit equals the encoded bit and the forwarded state is intact.
    """
    basis = "Z" if rng.integers(2) == 0 else "X"
    bit = decoy_measure(decoy, basis, rng)
    return DecoyQubit(kind=_KIND_FOR[(basis, bit)]), bit


def tap_cnot(decoy: DecoyQubit, rng: np.random.Generator) -> tuple[DecoyQubit, int]:
    """Eve entangles the qubit with her |0> ancilla via CNOT.

    A Z-basis decoy stays a product state and copies its bit onto the
    ancilla, so Eve reads it undetectably.  An X-basis decoy turns into the
    two-qubit pair (|00> +/- |11>)/sqrt(2); Eve's Z-measured ancilla is then
    uniform (she learns nothing) and so is the user's X-basis result.
    """
    if decoy.kind in (DecoyKind.Z0, DecoyKind.Z1):
        return decoy, decoy.bit
    sign = 1 if decoy.kind == DecoyKind.XPLUS else -1
    pair = EntangledState(flips="00", sign=sign)
    forwarded = DecoyQubit(kind=decoy.kind, entangled=pair)
    return forwarded, int(rng.integers(2))


def scalar_tap(
    strategy: EveStrategy, kinds: np.ndarray, rng: np.random.Generator
) -> tuple[list[int], list[int], list[bool]]:
    """``qgka.adversary.tap_decoys`` one decoy at a time, as readings.

    Each decoy of ``kinds`` (indices into |0>, |1>, |+>, |->) is touched
    with the attack probability, tapped, and measured by the receiver in
    its announced basis.  Returns the receiver's readings, Eve's bits and
    whether she touched each decoy; Eve's bit of a decoy she leaves alone
    is its encoded bit, as in the kernel.  The statistics match the
    kernel's, the draws do not.
    """
    tap = tap_intercept_resend if strategy.kind == "intercept_resend" else tap_cnot
    readings, eve, touched = [], [], []
    for k in kinds.tolist():
        decoy = DecoyQubit(_KINDS[k])
        forwarded, eve_bit = decoy, decoy.bit
        attacked = strategy.kind != "none" and (
            strategy.attack_probability >= 1.0
            or rng.random() < strategy.attack_probability
        )
        if attacked:
            forwarded, eve_bit = tap(decoy, rng)
        readings.append(decoy_measure(forwarded, decoy.basis, rng))
        eve.append(eve_bit)
        touched.append(attacked)
    return readings, eve, touched


def where_tap(
    strategy: EveStrategy, kinds: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """``qgka.adversary.tap_decoys`` with one draw per quantity, as readings.

    Returns the receiver's readings, Eve's bits and the mask of the decoys
    she touched (all true when she touches every decoy); ``tap_decoys``
    returns masks, not readings, which are these readings and bits
    compared with the encoded bits.  Each draw is one array over the
    batch: whether she touches each decoy (skipped when her attack
    probability is 1), then her basis, her result and the receiver's
    result under intercept-resend, or the receiver's result and her
    ancilla's under a CNOT tap.  Readings and bits are selected from the
    draws and the encoded bits with ``np.where``.
    """
    encoded_bit = kinds & 1
    if strategy.kind == "none":
        return encoded_bit, None, None
    total = len(kinds)
    is_x_basis = kinds >= 2
    attacked = (
        np.ones(total, dtype=bool)
        if strategy.attack_probability >= 1.0
        else rng.random(total) < strategy.attack_probability
    )
    if strategy.kind == "intercept_resend":
        eve_x_basis = rng.integers(2, size=total).astype(bool)
        mismatch = attacked & (eve_x_basis != is_x_basis)
        eve_bit = np.where(mismatch, rng.integers(2, size=total), encoded_bit)
        receiver = np.where(mismatch, rng.integers(2, size=total), encoded_bit)
        return receiver, eve_bit, attacked
    entangled = attacked & is_x_basis
    receiver = np.where(entangled, rng.integers(2, size=total), encoded_bit)
    eve_bit = np.where(entangled, rng.integers(2, size=total), encoded_bit)
    return receiver, eve_bit, attacked


def detection_experiment(
    strategy: EveStrategy,
    decoys_per_run: int,
    trials: int,
    rng: np.random.Generator,
) -> AttackReport:
    """``qgka.adversary.detection_experiment`` over one array of every decoy.

    All ``trials * decoys_per_run`` decoy kinds are drawn in one call and
    tapped in one ``where_tap`` call; a trial is detected when any decoy of
    its row of the (trials, decoys) error array errs, and Eve's accuracy is
    the mean over the decoys she touched.
    """
    kinds = rng.integers(4, size=trials * decoys_per_run)
    receiver, eve_bit, attacked = where_tap(strategy, kinds, rng)
    encoded_bit = kinds & 1
    errors = receiver != encoded_bit
    detections = int(errors.reshape(trials, decoys_per_run).any(axis=1).sum())
    touched = attacked is not None and attacked.any()
    return AttackReport(
        strategy=strategy.kind,
        trials=trials,
        detections=detections,
        per_decoy_error_rate=float(errors.mean()),
        detection_rate=detections / trials,
        eve_bit_accuracy=(
            float((eve_bit == encoded_bit)[attacked].mean()) if touched else None
        ),
        decoys_per_run=decoys_per_run,
    )


class TamperError(Exception):
    """A published outcome is inconsistent with the extractor's own operation."""


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
class ScalarTranscript(QkaTranscript):
    """A transcript whose position records are built one by one."""

    records: list[PositionRecord] = field(default_factory=list)

    @property
    def positions(self) -> list[PositionRecord]:
        return self.records


def leader_schedule(participants: Sequence[str], position: int) -> str:
    """Round-robin leader for one key position.

    Over n positions every participant leads floor(n/P) or ceil(n/P) of them,
    earlier participants taking the extras.  With two participants this puts
    the server in the lead at positions 0, 2, 4, ... (the odd positions when
    counting from one).
    """
    if not participants:
        raise ValueError("empty participant list")
    return participants[position % len(participants)]


def _checked_hops(
    payloads: Sequence[int],
    xi: Fraction,
    channel: Optional[ChannelModel],
    rng: np.random.Generator,
    counters: ResourceCounters,
) -> bool:
    """Send one sequence with fresh decoys per payload and check each decoy,
    sequence by sequence, up to the first sequence with an error.

    Every decoy of the phase is drawn first, one at a time; the channel, a
    black box, then carries them all in one call and returns the mask of
    the decoys read wrong.  Without a channel the receiver measures each
    decoy as it was prepared.
    """
    counts = [decoys_for_payload(p, xi) for p in payloads]
    sent = [random_decoy(rng) for _ in range(sum(counts))]
    if channel is None or not sent:
        misread = [decoy_measure(d, d.basis, rng) != d.bit for d in sent]
    else:
        kinds = np.array([_KINDS.index(d.kind) for d in sent])
        misread = channel.transmit(kinds, rng).tolist()
    checks = iter(misread)
    for payload, n_decoys in zip(payloads, counts):
        counters.qubits_prepared += n_decoys
        counters.qubits_transmitted += payload + n_decoys
        if n_decoys == 0:
            continue
        errors = 0
        for _ in range(n_decoys):
            counters.decoy_measurements += 1
            errors += next(checks)
        counters.classical_messages += 1
        if errors:
            return False
    return True


def run_session(
    config: QkaConfig,
    rng: np.random.Generator,
    channel: Optional[ChannelModel] = None,
) -> ScalarTranscript:
    """One session, qubit by qubit; ``channel=None`` is the honest channel."""
    xi = Fraction(str(config.xi))
    ids = config.participants
    P, n = len(ids), config.n
    parity = "even" if P % 2 == 0 else "odd"
    t = ScalarTranscript(participants=list(ids))
    counters = t.counters

    op_keys = {pid: rng.integers(0, 2, size=n) for pid in ids}
    states = [ghz_state(P) for _ in range(n)]
    counters.qubits_prepared += P * n

    if not _checked_hops([n] * (P - 1), xi, channel, rng, counters):
        t.aborted, t.abort_cause = True, "eavesdropper"
        return t

    # qubit 0 of each state goes to the position's leader, the rest follow
    # participant order
    leaders = [leader_schedule(ids, i) for i in range(n)]
    orders = [
        [leaders[i]] + [pid for pid in ids if pid != leaders[i]]
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

    positions_led = {pid: [i for i in range(n) if leaders[i] == pid] for pid in ids}
    returns = [
        len(led)
        for leader_id, led in positions_led.items()
        if led
        for sender in ids
        if sender != leader_id
    ]
    if not _checked_hops(returns, xi, channel, rng, counters):
        t.aborted, t.abort_cause = True, "eavesdropper"
        return t

    outcomes = [measure_entangled(states[i]) for i in range(n)]
    counters.entangled_measurements += n
    counters.classical_messages += sum(1 for led in positions_led.values() if led)

    for i in range(n):
        t.records.append(
            PositionRecord(leader=leaders[i], ops=ops_by_pos[i], outcome=outcomes[i])
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


def forge_outcome(
    true_outcome: str, own_op: Pauli, parity: str, target_bit: int
) -> str:
    """The outcome a dishonest leader publishes to force the shared bit.

    She measures honestly, derives every operation key, and republishes the
    outcome she would have obtained had her own operation encoded whatever
    bit makes the XOR hit the target.  Follower bits are untouched, so every
    follower's self-check still passes and all extractions agree on the
    forced value.
    """
    keys, shared = extract_keys(true_outcome, own_op, 0, parity)
    if shared == target_bit:
        return true_outcome
    others = shared ^ keys[0]
    wanted_leader_bit = target_bit ^ others
    table = _LEADER_KEY_EVEN if parity == "even" else _LEADER_KEY_ODD
    fake_op = next(op for op, bit in table.items() if bit == wanted_leader_bit)
    flip_true = own_op in (Pauli.X, Pauli.Y)
    flip_fake = fake_op in (Pauli.X, Pauli.Y)
    sign_fake = "1" if fake_op in (Pauli.Y, Pauli.Z) else "0"
    body = true_outcome[1:]
    if flip_true != flip_fake:
        body = "".join("1" if b == "0" else "0" for b in body)
    return sign_fake + body


def malicious_leader_experiment(
    participant_ids: list[str],
    n: int,
    dishonest: str,
    rng: np.random.Generator,
    rotate_leaders: bool = True,
    forge: bool = True,
    target_bit: int = 0,
    trials: int = 1,
) -> AttackReport:
    """The dishonest-leader experiment one qubit at a time.

    Each position runs its own GHZ state, gates and measurement; the
    attacker forges the outcome string of every position she leads, and a
    position counts as forced when every other participant's extraction
    lands on ``target_bit``.  Inputs are taken as given.
    """
    ids = list(participant_ids)
    P = len(ids)
    parity = "even" if P % 2 == 0 else "odd"
    forced = 0
    led = 0
    total_positions = 0
    for _ in range(trials):
        key_bits = {pid: rng.integers(0, 2, size=n) for pid in ids}
        for i in range(n):
            leader = ids[i % P] if rotate_leaders else dishonest
            order = [leader] + [pid for pid in ids if pid != leader]
            state = ghz_state(P)
            ops: dict[str, Pauli] = {}
            for q, pid in enumerate(order):
                op = encode_operation(
                    int(key_bits[pid][i]), leader=(q == 0), parity=parity, rng=rng
                )
                state = apply_pauli(state, q, op)
                ops[pid] = op
            outcome = measure_entangled(state)
            total_positions += 1
            if leader == dishonest:
                led += 1
            published = (
                forge_outcome(outcome, ops[dishonest], parity, target_bit)
                if forge and leader == dishonest
                else outcome
            )
            bits = set()
            for q, pid in enumerate(order):
                if pid == dishonest:
                    continue
                _, shared = extract_keys(published, ops[pid], q, parity)
                bits.add(shared)
            if forge and leader == dishonest and bits == {target_bit}:
                forced += 1
    return AttackReport(
        strategy="malicious_leader",
        trials=trials,
        detections=0,
        per_decoy_error_rate=0.0,
        detection_rate=0.0,
        forced_fraction=forced / total_positions if total_positions else 0.0,
        positions_led_fraction=led / total_positions if total_positions else 0.0,
    )
