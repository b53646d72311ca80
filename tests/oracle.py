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
"""

from __future__ import annotations

import numpy as np

from qgka.keytree import GroupKey, KeyTree
from qgka.quantum import EntangledState, Pauli
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
