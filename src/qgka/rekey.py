"""Distribution-phase rekeying: new keys encrypted under old keys.

The production story is a symmetric cipher (AES-256 seeded with tree keys);
what this artifact must preserve is only that decryption requires the exact
key, so the stand-in is deliberately simple and testable: XOR against a
BLAKE2b-derived keystream plus a keyed 16-byte integrity tag.  The keystream
and tag are bound to the encrypting key's (id, version, bits) triple and the
message nonce, so any stale or foreign key fails authentication, including a
same-bits key at a different version.  The construction is deterministic
given (key, nonce) so traces replay byte-for-byte; it is explicitly NOT
cryptographically secure.

Message building is pure given a tree snapshot.  Every message is
addressed to a subtree difference, the users under one k-node minus the
users under one node below it, so it is built and delivered in time that
does not grow with how many users it reaches.  Within one
event, messages must be applied in list order: leave-time messages for
deeper keys precede the ones encrypted under them.  A message keeps the
tree's immutable ropes of its send time (``KeyTree.rope``), and its
recipient tuple is listed from them, in tree order, only when it is read.

A build lists its sends first and then draws every message's 8-byte nonce
from one ``rng.bytes`` call, sliced in send order; PCG64 fills bytes from
32-bit outputs, so this is the stream of one 8-byte draw per message.  A
build that sends nothing draws nothing: ``rng.bytes(0)`` still consumes a
32-bit output.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from itertools import filterfalse
from typing import Mapping, Optional

import numpy as np

from .counters import ResourceCounters
from .keytree import GroupKey, KeyTree, flatten

TAG_BYTES = 16


class AuthenticationError(Exception):
    """Wrong key material, id, version, or a tampered ciphertext."""


class MissingKeyError(Exception):
    """An addressed recipient lacks the decryption key: a protocol bug."""


def _key_bytes(key: GroupKey) -> bytes:
    return f"{key.key_id}|{key.version}|{key.bits}".encode()


def _tag_material(key: GroupKey) -> bytes:
    return hashlib.blake2b(_key_bytes(key) + b"|tag", digest_size=32).digest()


def _keystream(key: GroupKey, nonce: bytes, length: int) -> bytes:
    """BLAKE2b-256 blocks of the key's bytes, the nonce and an 8-byte
    big-endian counter from 0, cut to ``length``, which is at least 1.  The
    key and nonce are hashed once; each block but the last continues a copy
    of that state, and the last continues the state itself."""
    head = hashlib.blake2b(_key_bytes(key) + nonce, digest_size=32)
    last = (length - 1) // 32
    blocks = []
    for counter in range(last):
        block = head.copy()
        block.update(counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    head.update(last.to_bytes(8, "big"))
    blocks.append(head.digest())
    return b"".join(blocks)[:length]


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


def _tag(key: GroupKey, nonce: bytes, payload: bytes) -> bytes:
    return hashlib.blake2b(
        _tag_material(key) + nonce + payload, digest_size=TAG_BYTES
    ).digest()


@dataclass(frozen=True)
class SimCipherText:
    """One new key wrapped under one existing key."""

    enc_key_id: str
    enc_version: int
    nonce: bytes
    payload: bytes
    tag: bytes

    def to_dict(self) -> dict:
        return {
            "enc_key_id": self.enc_key_id,
            "enc_version": self.enc_version,
            "nonce": self.nonce.hex(),
            "payload": self.payload.hex(),
            "tag": self.tag.hex(),
        }


def encrypt_key(
    enc_key: GroupKey,
    new_key: GroupKey,
    nonce: bytes,
    counters: Optional[ResourceCounters] = None,
) -> SimCipherText:
    """Wrap ``new_key`` under ``enc_key``; counts one encryption."""
    plain = _key_bytes(new_key)
    payload = _xor(plain, _keystream(enc_key, nonce, len(plain)))
    if counters is not None:
        counters.encryptions += 1
    return SimCipherText(
        enc_key_id=enc_key.key_id,
        enc_version=enc_key.version,
        nonce=nonce,
        payload=payload,
        tag=_tag(enc_key, nonce, payload),
    )


def decrypt_key(enc_key: GroupKey, ct: SimCipherText) -> GroupKey:
    """Unwrap a ciphertext; authentication failure on any key mismatch."""
    key = try_unwrap(enc_key, ct)
    if key is None:
        raise AuthenticationError(
            f"ciphertext under {ct.enc_key_id} v{ct.enc_version} rejected"
        )
    return key


def try_unwrap(enc_key: GroupKey, ct: SimCipherText) -> Optional[GroupKey]:
    """Like decrypt_key but returns None instead of raising.

    The secrecy games attempt millions of decryptions that are all expected
    to fail; this keeps them off the exception path.
    """
    if not hmac.compare_digest(_tag(enc_key, ct.nonce, ct.payload), ct.tag):
        return None
    plain = _xor(ct.payload, _keystream(enc_key, ct.nonce, len(ct.payload))).decode()
    key_id, version, bits = plain.split("|")
    return GroupKey(key_id=key_id, version=int(version), bits=bits)


class RekeyMessage:
    """One ciphertext bundle addressed to one group of users.

    The recipients are the users under the k-node ``include`` less those
    under the node ``exclude``, in tree order, listed on each read from the
    two nodes' ropes, which are taken from ``tree`` when the message is
    made.  The excluded node is a child of ``include`` on the joiner's path
    (a join message) or the individual key of the session agent under
    ``include`` (a leave message).
    """

    __slots__ = ("items", "include", "exclude", "_users", "_skip")

    def __init__(
        self,
        tree: KeyTree,
        include: str,
        exclude: str,
        items: tuple[SimCipherText, ...],
    ):
        self.items = items
        self.include = include
        self.exclude = exclude
        self._users = tree.rope(include)
        self._skip = tree.rope(exclude)

    @property
    def recipients(self) -> tuple[str, ...]:
        skip = set(flatten(self._skip))
        return tuple(filterfalse(skip.__contains__, flatten(self._users)))

    def to_dict(self) -> dict:
        return {
            "recipients": list(self.recipients),
            "items": [item.to_dict() for item in self.items],
        }


def _nonces(rng: np.random.Generator, count: int) -> list[bytes]:
    """``count`` 8-byte nonces cut from one draw, and no draw for none."""
    drawn = rng.bytes(8 * count) if count else b""
    return [drawn[i : i + 8] for i in range(0, len(drawn), 8)]


def build_join_messages(
    tree: KeyTree,
    path_root_first: list[str],
    old_material: Mapping[str, Optional[GroupKey]],
    joiner: str,
    rng: np.random.Generator,
    counters: ResourceCounters,
) -> list[RekeyMessage]:
    """Messages distributing the freshly generated join-path keys.

    For path keys k_0 (root) .. k_m (join point), the users under k_j but not
    under k_{j+1} receive the new keys on their own path, each encrypted once
    under the corresponding old key: {k_0'}_{k_0}, ..., {k_j'}_{k_j}.  Each
    new key is encrypted exactly once and the ciphertexts are shared between
    the message groups, so a path of length m+1 costs m+1 encryptions and
    m+1 message groups.  A path node without old material (a fresh split
    node) is instead wrapped under the displaced child subtree's key, the one
    key its recipients are guaranteed to hold; the join leaves that key as
    it was.  ``old_material`` needs the pre-event keys of the path nodes.
    """
    ciphertexts: list[SimCipherText] = []
    messages: list[RekeyMessage] = []
    path = list(path_root_first)
    for j, (key_id, nonce) in enumerate(zip(path, _nonces(rng, len(path)))):
        new_key = tree.key(key_id)
        below = path[j + 1] if j + 1 < len(path) else tree.individual_key(joiner)
        old = old_material.get(key_id)
        if old is not None:
            enc_key = old
        else:
            # fresh split node: its only other subtree is the displaced child
            children = [c for c in tree.child_keys(key_id) if c != below]
            if len(children) != 1:
                raise MissingKeyError(
                    f"no usable wrapping key for fresh path node {key_id}"
                )
            enc_key = tree.key(children[0])
        ciphertexts.append(encrypt_key(enc_key, new_key, nonce, counters))
        # the joiner is under ``below``, on her own path, and ``key_id`` has
        # another child, so every path key has recipients
        messages.append(RekeyMessage(tree, key_id, below, tuple(ciphertexts)))
        counters.rekey_messages += 1
    return messages


def build_leave_messages(
    tree: KeyTree,
    updated_deepest_first: list[tuple[str, list[str]]],
    rng: np.random.Generator,
    counters: ResourceCounters,
) -> list[RekeyMessage]:
    """Messages distributing the freshly generated leave-path keys.

    ``updated_deepest_first`` pairs each regenerated key with the agents of
    its agreement session: one agent per child key, in child order, each a
    user under that child.  (A key without child keys, a pruned subgroup's,
    sends nothing.)  Every child's users but its agent, the users under the
    child less those under the agent's individual key, receive the new key
    wrapped under the child's current key, one message per (updated key,
    child) pair; a child whose agent is its only user produces nothing.
    Deeper keys come first so that a recipient always holds the wrapping key
    by the time she needs it.
    """
    sends = [
        (key_id, child, agent)
        for key_id, agents in updated_deepest_first
        for child, agent in zip(tree.child_keys(key_id), agents)
        if tree.child_keys(child)  # else the agent is the child's only user
    ]
    messages: list[RekeyMessage] = []
    for (key_id, child, agent), nonce in zip(sends, _nonces(rng, len(sends))):
        ct = encrypt_key(tree.key(child), tree.key(key_id), nonce, counters)
        messages.append(RekeyMessage(tree, child, tree.individual_key(agent), (ct,)))
        counters.rekey_messages += 1
    return messages
