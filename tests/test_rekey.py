"""Simulated cipher, message construction, and the secrecy games."""

import hashlib

import numpy as np
import pytest

from qgka.counters import ResourceCounters
from qgka.keytree import GroupKey, KeyTree, random_bits
from qgka import rekey
from qgka.rekey import (
    AuthenticationError,
    MissingKeyError,
    RekeyMessage,
    build_join_messages,
    build_leave_messages,
    decrypt_key,
    encrypt_key,
)

from oracle import UserView, apply_rekey


def key(kid="k1", version=1, bits="1011"):
    return GroupKey(kid, version, bits)


class TestCipher:
    def test_round_trip(self, rng):
        wrap = key()
        plain = key("k2", 3, "0110")
        ct = encrypt_key(wrap, plain, rng.bytes(8))
        assert decrypt_key(wrap, ct) == plain

    def test_wrong_key_rejected_everywhere(self, rng):
        # randomized wrong keys: different bits, versions, or ids must all
        # fail authentication; 10^4 trials, zero false accepts
        wrap = key(bits=random_bits(64, rng))
        ct = encrypt_key(wrap, key("k2", 1, "0"), rng.bytes(8))
        for _ in range(10_000):
            wrong = GroupKey(
                key_id="k1" if rng.random() < 0.5 else f"k{int(rng.integers(90))}",
                version=int(rng.integers(1, 5)),
                bits=random_bits(64, rng),
            )
            if wrong == wrap:
                continue
            with pytest.raises(AuthenticationError):
                decrypt_key(wrong, ct)

    def test_same_bits_other_version_rejected(self, rng):
        # a 1-bit key can collide in material; identity includes version
        wrap = key("root", 5, "1")
        stale = key("root", 4, "1")
        ct = encrypt_key(wrap, key("k2", 1, "0"), rng.bytes(8))
        with pytest.raises(AuthenticationError):
            decrypt_key(stale, ct)

    def test_nonce_separation(self, rng):
        wrap, plain = key(), key("k2", 1, "0110")
        c1 = encrypt_key(wrap, plain, b"\x00" * 8)
        c2 = encrypt_key(wrap, plain, b"\x01" * 8)
        assert c1.payload != c2.payload
        assert c1.tag != c2.tag

    def test_tampered_payload_rejected(self, rng):
        wrap = key()
        ct = encrypt_key(wrap, key("k2", 1, "0110"), rng.bytes(8))
        bad = type(ct)(
            enc_key_id=ct.enc_key_id,
            enc_version=ct.enc_version,
            nonce=ct.nonce,
            payload=bytes([ct.payload[0] ^ 1]) + ct.payload[1:],
            tag=ct.tag,
        )
        with pytest.raises(AuthenticationError):
            decrypt_key(wrap, bad)

    def test_deterministic_given_key_and_nonce(self):
        wrap, plain = key(), key("k2", 7, "0110")
        a = encrypt_key(wrap, plain, b"fixed!!!")
        b = encrypt_key(wrap, plain, b"fixed!!!")
        assert a == b

    def test_counts_encryptions(self, rng):
        c = ResourceCounters()
        encrypt_key(key(), key("k2", 1, "0"), rng.bytes(8), c)
        encrypt_key(key(), key("k2", 1, "0"), rng.bytes(8), c)
        assert c.encryptions == 2


def long_key(kid, version, n):
    """A key of ``n`` fixed bits, drawn without ``random_bits``."""
    draw = np.random.default_rng(n).integers(2, size=n).tolist()
    return GroupKey(kid, version, "".join("01"[b] for b in draw))


def reference_keystream(key, nonce, length):
    """The keystream by its definition: BLAKE2b-256 blocks of the key's
    bytes, the nonce and an 8-byte big-endian counter from 0, cut to
    ``length``."""
    head = rekey._key_bytes(key) + nonce
    blocks = (
        hashlib.blake2b(head + i.to_bytes(8, "big"), digest_size=32).digest()
        for i in range(-(-length // 32))
    )
    return b"".join(blocks)[:length]


class TestLongKeyCipher:
    """Keys of many bits, whose wrapping spans many keystream blocks."""

    NONCE = bytes.fromhex("0123456789abcdef")

    # 261 is the plaintext length of a 256-bit key: "k2|5|" and its bits
    @pytest.mark.parametrize("length", [1, 31, 32, 33, 64, 65, 261])
    def test_keystream_matches_its_definition(self, length):
        wrap = long_key("k1", 2, 256)
        stream = rekey._keystream(wrap, self.NONCE, length)
        assert stream == reference_keystream(wrap, self.NONCE, length)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (256, "a34aab43e7d5f30117c6f60524d52998c8ccaeb86653f63386b9f9d19a6bdc15"),
            (4096, "f14ccd70d431324754cb338a5531828a81ae2ac45b5352f120cfc1ebd6b88136"),
        ],
    )
    def test_encryption_is_pinned(self, n, digest):
        ct = encrypt_key(long_key("k1", 2, n), long_key("k2", 5, n), self.NONCE)
        assert hashlib.sha256(ct.payload + ct.tag).hexdigest() == digest

    def test_round_trip_and_wrong_key(self):
        wrap, plain = long_key("k1", 2, 256), long_key("k2", 5, 256)
        ct = encrypt_key(wrap, plain, self.NONCE)
        assert decrypt_key(wrap, ct) == plain
        last = "01"[wrap.bits[-1] == "0"]
        for wrong in (
            GroupKey("k1", 2, wrap.bits[:-1] + last),  # one bit off, at the end
            GroupKey("k1", 3, wrap.bits),
            GroupKey("k9", 2, wrap.bits),
        ):
            assert rekey.try_unwrap(wrong, ct) is None
            with pytest.raises(AuthenticationError):
                decrypt_key(wrong, ct)


def _nine_user_setup(seed=7):
    rng = np.random.default_rng(seed)
    tree = KeyTree.build_balanced(3, [f"u{i}" for i in range(1, 9)], 1, rng)
    return tree, rng


class TestJoinMessages:
    def test_worked_join_message_groups(self):
        tree, rng = _nine_user_setup()
        old = {kid: tree.key(kid) for kid in tree.key_nodes()}
        bits = random_bits(tree.key_len, rng)
        path = list(reversed(tree.insert_user("u9", bits)))  # root first
        for kid in path:
            tree.set_key(kid, random_bits(1, rng))
        c = ResourceCounters()
        msgs = build_join_messages(tree, path, old, "u9", rng, c)
        assert c.encryptions == 2  # one per regenerated key
        assert c.rekey_messages == 2
        by_recipients = {m.recipients: m for m in msgs}
        wide = by_recipients[("u1", "u2", "u3", "u4", "u5", "u6")]
        narrow = by_recipients[("u7", "u8")]
        # the six outsiders get only the new group key under the old one
        assert len(wide.items) == 1
        assert wide.items[0].enc_key_id == tree.root
        assert wide.items[0].enc_version == old[tree.root].version
        # the subgroup gets both new keys, each under its own old key
        assert len(narrow.items) == 2
        assert [i.enc_key_id for i in narrow.items] == path
        # ciphertexts are shared, not recomputed
        assert narrow.items[0] is wide.items[0]

    def test_single_key_tree_join(self):
        rng = np.random.default_rng(3)
        tree = KeyTree.build_balanced(2, ["u1"], 1, rng)
        old = {kid: tree.key(kid) for kid in tree.key_nodes()}
        path = list(reversed(tree.insert_user("u2", random_bits(tree.key_len, rng))))
        assert len(path) == 1  # fresh root only
        tree.set_key(path[0], "1")
        c = ResourceCounters()
        msgs = build_join_messages(tree, path, old, "u2", rng, c)
        assert c.encryptions == 1 and c.rekey_messages == 1
        assert msgs[0].recipients == ("u1",)
        # no old root existed: wrapped under the displaced individual key
        assert msgs[0].items[0].enc_key_id == tree.individual_key("u1")

    def test_split_wraps_under_the_displaced_child_key(self):
        # a full binary tree of four users splits at the join; the fresh
        # node has no old key and the displaced child is not on the path
        rng = np.random.default_rng(5)
        tree = KeyTree.build_balanced(2, ["u1", "u2", "u3", "u4"], 4, rng)
        path = list(reversed(tree.insert_user("u5", random_bits(tree.key_len, rng))))
        old = {kid: tree.nodes[kid].key for kid in path}
        fresh = path[-1]
        assert old[fresh] is None
        (displaced,) = [
            c for c in tree.child_keys(fresh) if c != tree.individual_key("u5")
        ]
        assert displaced not in old
        for kid in path:
            tree.set_key(kid, random_bits(4, rng))
        msgs = build_join_messages(tree, path, old, "u5", rng, ResourceCounters())
        (msg,) = [m for m in msgs if m.include == fresh]
        item = msg.items[-1]
        wrap = tree.key(displaced)
        assert (item.enc_key_id, item.enc_version) == (displaced, wrap.version)
        assert decrypt_key(wrap, item) == tree.key(fresh)

    def test_recipients_partition_existing_members(self):
        tree, rng = _nine_user_setup()
        members = set(tree.users())
        old = {kid: tree.key(kid) for kid in tree.key_nodes()}
        path = list(reversed(tree.insert_user("u9", random_bits(tree.key_len, rng))))
        for kid in path:
            tree.set_key(kid, "0")
        msgs = build_join_messages(tree, path, old, "u9", rng, ResourceCounters())
        seen: set[str] = set()
        for m in msgs:
            assert not (seen & set(m.recipients))
            seen |= set(m.recipients)
        assert seen == members

    def test_apply_join_messages_updates_views(self):
        tree, rng = _nine_user_setup()
        views = {
            uid: UserView(uid, (tree.key(k) for k in tree.keyset(uid)))
            for uid in tree.users()
        }
        old = {kid: tree.key(kid) for kid in tree.key_nodes()}
        path = list(reversed(tree.insert_user("u9", random_bits(tree.key_len, rng))))
        for kid in path:
            tree.set_key(kid, random_bits(1, rng))
        msgs = build_join_messages(tree, path, old, "u9", rng, ResourceCounters())
        for m in msgs:
            for uid in m.recipients:
                apply_rekey(views[uid], m)
        for uid in views:
            expected = {k: tree.key(k) for k in tree.keyset(uid)}
            assert views[uid].keys == expected

    def test_non_recipient_unchanged(self):
        tree, rng = _nine_user_setup()
        view = UserView("u1", (tree.key(k) for k in tree.keyset("u1")))
        before = dict(view.keys)
        parent = tree.nodes[tree.individual_key("u7")].parent
        msg = RekeyMessage(tree, parent, tree.individual_key("u8"), ())
        assert msg.recipients == ("u7",)
        assert apply_rekey(view, msg) == []
        assert view.keys == before


class TestLeaveMessages:
    def test_worked_leave_message_lines(self):
        rng = np.random.default_rng(41)
        tree = KeyTree.build_balanced(3, [f"u{i}" for i in range(1, 10)], 1, rng)
        subgroup = {
            tuple(tree.userset(c)): c for c in tree.child_keys(tree.root)
        }
        k123 = subgroup[("u1", "u2", "u3")]
        k456 = subgroup[("u4", "u5", "u6")]
        updated = tree.remove_user("u9")  # deepest first
        deepest, root = updated
        tree.set_key(root, "1")
        tree.set_key(deepest, "0")
        c = ResourceCounters()
        # agents as in the worked example: lowest member per subgroup
        sessions = [(deepest, ["u7", "u8"]), (root, ["u1", "u4", "u7"])]
        msgs = build_leave_messages(tree, sessions, rng, c)
        assert c.encryptions == 3 and c.rekey_messages == 3
        lines = {
            (m.recipients, m.items[0].enc_key_id, m.items[0].enc_version)
            for m in msgs
        }
        assert lines == {
            (("u2", "u3"), k123, tree.key(k123).version),
            (("u5", "u6"), k456, tree.key(k456).version),
            (("u8",), deepest, tree.key(deepest).version),  # the NEW sibling key
        }
        # every message carries the new group key
        for m in msgs:
            assert decrypt_key(tree.key(m.items[0].enc_key_id), m.items[0]) in (
                tree.key(root),
                tree.key(deepest),
            )

    def test_two_user_leave_produces_no_messages(self):
        rng = np.random.default_rng(5)
        tree = KeyTree.build_balanced(2, ["u1", "u2"], 1, rng)
        updated = tree.remove_user("u2")
        tree.set_key(updated[0], "1")
        c = ResourceCounters()
        msgs = build_leave_messages(tree, [(updated[0], ["u1"])], rng, c)
        assert msgs == []
        assert c.encryptions == 0

    def test_deeper_messages_come_first(self):
        rng = np.random.default_rng(9)
        tree = KeyTree.build_balanced(3, [f"u{i}" for i in range(1, 28)], 1, rng)
        updated = tree.remove_user("u27")
        for kid in updated:
            tree.set_key(kid, "0")
        sessions = []
        for kid in updated:  # deepest first
            kids = tree.child_keys(kid)
            agents = [tree.userset(c)[0] for c in kids] if kids else tree.userset(kid)
            sessions.append((kid, agents))
        msgs = build_leave_messages(tree, sessions, rng, ResourceCounters())
        # once a message wraps under an updated key, it must be the new
        # version, and the recipient will already have installed it
        order = {kid: i for i, kid in enumerate(updated)}
        last_seen = -1
        for m in msgs:
            payload_key = decrypt_key(tree.key(m.items[0].enc_key_id), m.items[0])
            assert order[payload_key.key_id] >= last_seen
            last_seen = order[payload_key.key_id]


class TestUserView:
    def test_missing_key_is_protocol_bug(self, rng):
        wrap = key("kX", 2, "1")
        ct = encrypt_key(wrap, key("k2", 1, "0"), rng.bytes(8))
        view = UserView("u1", [key("kX", 1, "1")])  # stale version
        tree = KeyTree.build_balanced(2, ["u1", "u2"], 1, rng)
        msg = RekeyMessage(tree, tree.root, tree.individual_key("u2"), (ct,))
        assert msg.recipients == ("u1",)
        with pytest.raises(MissingKeyError):
            apply_rekey(view, msg)

    def test_leaver_keyset_opens_nothing_after_leave(self):
        # forward-secrecy game at the message level: run one leave and try
        # the departed member's complete old keyset on every ciphertext
        rng = np.random.default_rng(77)
        tree = KeyTree.build_balanced(3, [f"u{i}" for i in range(1, 10)], 1, rng)
        leaver_keys = [tree.key(k) for k in tree.keyset("u9")]
        updated = tree.remove_user("u9")
        for kid in updated:
            tree.set_key(kid, random_bits(1, rng))
        sessions = []
        for kid in updated:
            kids = tree.child_keys(kid)
            agents = [tree.userset(c)[0] for c in kids] if kids else tree.userset(kid)
            sessions.append((kid, agents))
        msgs = build_leave_messages(tree, sessions, rng, ResourceCounters())
        root_probe = encrypt_key(
            tree.key(tree.root), key("probe", 1, "1"), rng.bytes(8)
        )
        attempts = [item for m in msgs for item in m.items] + [root_probe]
        for old_key in leaver_keys:
            for ct in attempts:
                with pytest.raises(AuthenticationError):
                    decrypt_key(old_key, ct)
