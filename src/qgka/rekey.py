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

Message building is pure given a tree snapshot; delivery is per-user and
independent, safe to parallelize across users.  Within one event, messages
must be applied in list order: leave-time messages for deeper keys precede
the ones encrypted under them.  Recipient tuples keep the tree's stable user
order: they are filtered out of the tree's sorted usersets, never sorted
again.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable, Mapping, Optional

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

    def to_dict(self, reveal_with: Optional[GroupKey] = None) -> dict:
        d = {
            "enc_key_id": self.enc_key_id,
            "enc_version": self.enc_version,
            "nonce": self.nonce.hex(),
            "payload": self.payload.hex(),
            "tag": self.tag.hex(),
        }
        if reveal_with is not None:
            plain = decrypt_key(reveal_with, self)
            d["plaintext"] = {
                "key_id": plain.key_id,
                "version": plain.version,
                "bits": plain.bits,
            }
        return d


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


@dataclass(frozen=True)
class RekeyMessage:
    """One ciphertext bundle addressed to one group of users."""

    recipients: tuple[str, ...]
    items: tuple[SimCipherText, ...]

    def to_dict(self, reveal_keys: Mapping[str, GroupKey] | None = None) -> dict:
        items = []
        for item in self.items:
            key = reveal_keys.get(item.enc_key_id) if reveal_keys else None
            items.append(item.to_dict(reveal_with=key))
        return {"recipients": list(self.recipients), "items": items}


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
        skip = set(tree.userset(below))
        recipients = tuple(filterfalse(skip.__contains__, tree.userset(key_id)))
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
        if recipients:
            messages.append(
                RekeyMessage(recipients=recipients, items=tuple(ciphertexts))
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
        skip = set(session_users)
        for child in tree.child_keys(key_id):
            recipients = tuple(filterfalse(skip.__contains__, tree.userset(child)))
            if not recipients:
                continue
            ct = encrypt_key(tree.key(child), new_key, _nonce(rng), counters)
            messages.append(RekeyMessage(recipients=recipients, items=(ct,)))
            counters.rekey_messages += 1
    return messages


class UserView:
    """One user's local key store, updated by sessions and rekey messages."""

    def __init__(self, user_id: str, keys: Iterable[GroupKey] = ()):
        self.user_id = user_id
        self.keys: dict[str, GroupKey] = {k.key_id: k for k in keys}

    def install(self, key: GroupKey) -> None:
        self.keys[key.key_id] = key

    def drop(self, key_id: str) -> None:
        self.keys.pop(key_id, None)
