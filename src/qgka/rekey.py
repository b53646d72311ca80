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
users under some nodes below it, so it is built and delivered in time that
does not grow with how many users it reaches.  Within one
event, messages must be applied in list order: leave-time messages for
deeper keys precede the ones encrypted under them.  A recipient tuple is
built only when it is read, from the tree's copy-on-write usersets of the
send time, and keeps the tree's stable user order: it is filtered out of a
sorted userset, never sorted again.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from itertools import filterfalse
from typing import Mapping, Optional, Sequence

import numpy as np

from .counters import ResourceCounters
from .keytree import GroupKey, KeyTree

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
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.blake2b(
            _key_bytes(key) + nonce + counter.to_bytes(8, "big"), digest_size=32
        ).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


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
    plain = f"{new_key.key_id}|{new_key.version}|{new_key.bits}".encode()
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

    The recipients are ``recipients`` less ``skip``, in ``recipients``
    order, built on each read.  A built message keeps the two lists of its
    send time and names its addressing: the users under the k-node
    ``include`` minus the users under the nodes ``exclude``, which is either
    one child of ``include`` (a join message) or the u-nodes of session users
    under ``include`` (a leave message; a u-node's id is its user's id).  A
    message without ``include`` only opens per user.
    """

    __slots__ = ("items", "include", "exclude", "_users", "_skip")

    def __init__(
        self,
        recipients: Sequence[str],
        items: tuple[SimCipherText, ...],
        include: Optional[str] = None,
        exclude: tuple[str, ...] = (),
        skip: Sequence[str] = (),
    ):
        self.items = items
        self.include = include
        self.exclude = exclude
        self._users = recipients
        self._skip = skip

    @property
    def recipients(self) -> tuple[str, ...]:
        skip = set(self._skip)
        return tuple(filterfalse(skip.__contains__, self._users))

    def to_dict(self) -> dict:
        return {
            "recipients": list(self.recipients),
            "items": [item.to_dict() for item in self.items],
        }


def _nonce(rng: np.random.Generator) -> bytes:
    return rng.bytes(8)


def build_join_messages(
    tree: KeyTree,
    path_root_first: list[str],
    old_material: Mapping[str, GroupKey],
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
    key its recipients are guaranteed to hold.  ``old_material`` needs the
    pre-event keys of the path nodes and of their children.
    """
    ciphertexts: list[SimCipherText] = []
    messages: list[RekeyMessage] = []
    path = list(path_root_first)
    for j, key_id in enumerate(path):
        new_key = tree.key(key_id)
        below = path[j + 1] if j + 1 < len(path) else tree.individual_key(joiner)
        # the joiner is under ``below``, on her own path
        skip, users = tree.userset(below), tree.userset(key_id)
        old = old_material.get(key_id)
        if old is not None:
            enc_key = old
        else:
            # fresh split node: its only other subtree is the displaced child
            children = [c for c in tree.child_keys(key_id) if c != below]
            if len(children) != 1 or old_material.get(children[0]) is None:
                raise MissingKeyError(
                    f"no usable wrapping key for fresh path node {key_id}"
                )
            enc_key = old_material[children[0]]
        ciphertexts.append(encrypt_key(enc_key, new_key, _nonce(rng), counters))
        if len(users) > len(skip):
            messages.append(
                RekeyMessage(
                    users,
                    tuple(ciphertexts),
                    include=key_id,
                    exclude=(below,),
                    skip=skip,
                )
            )
            counters.rekey_messages += 1
    return messages


def build_leave_messages(
    tree: KeyTree,
    updated_deepest_first: list[tuple[str, list[str]]],
    rng: np.random.Generator,
    counters: ResourceCounters,
) -> list[RekeyMessage]:
    """Messages distributing the freshly generated leave-path keys.

    ``updated_deepest_first`` pairs each regenerated key with the user ids
    that took part in its agreement session.  For every child key of an
    updated node, the child's users that were not in the session receive the
    new key wrapped under the child's current key; one message per (updated
    key, child) pair.  Children whose whole userset sat in the session (the
    deepest key's individual children) produce nothing.  Deeper keys come
    first so that a recipient always holds the wrapping key by the time she
    needs it.
    """
    messages: list[RekeyMessage] = []
    for key_id, session_users in updated_deepest_first:
        new_key = tree.key(key_id)
        children = tree.child_keys(key_id)
        # the session users under each child
        agents: dict[Optional[str], list[str]] = {}
        for uid in session_users if children else ():
            agents.setdefault(tree.child_toward(key_id, uid), []).append(uid)
        for child in children:
            users, skip = tree.userset(child), tuple(agents.get(child, ()))
            if len(users) == len(skip):
                continue
            ct = encrypt_key(tree.key(child), new_key, _nonce(rng), counters)
            messages.append(
                RekeyMessage(users, (ct,), include=child, exclude=skip, skip=skip)
            )
            counters.rekey_messages += 1
    return messages

