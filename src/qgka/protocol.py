"""Join and leave orchestration: generation via QKA, distribution via rekeying.

A join attaches the new user at the join point and regenerates every key on
her path with one two-party session (server + joiner) per key, so the joiner
takes part in creating everything she will hold and learns nothing older.  A
leave prunes the user and regenerates every surviving path key with one
multi-party session per key: the server plus one agent per child subgroup
(for the deepest key these agents are exactly the remaining siblings).  The
regenerated keys then travel to everyone else encrypted under keys the
leaver never held.

Events are strictly serialized; one membership change mutates the tree at a
time.  The sessions inside one event touch disjoint keys and could run
concurrently with separate RNG streams; here they run in order for
reproducibility.  An aborted session rolls the tree and its key versions
back to the pre-event checkpoint.  Views, history and counters are written
only after an event's last abort point, so an abort leaves them untouched;
the resources an aborted event spent go to ``aborted_counters``.

Apart from delivery, which installs keys into every recipient's view, an
event touches only its path: the tree work, the sessions and the message
addressing are O(d * log_d N), and each message's recipients are read off
the tree's sorted usersets without sorting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .counters import ResourceCounters
from .keytree import GroupKey, KeyTree, KeyTreeError, random_bits
from .qka import ChannelModel, QkaTranscript, make_config, run_session
from .rekey import (
    MissingKeyError,
    RekeyMessage,
    SimCipherText,
    UserView,
    build_join_messages,
    build_leave_messages,
    decrypt_key,
    encrypt_key,
    try_unwrap,
)

SERVER_ID = "s"


class ProtocolAbort(Exception):
    """A session aborted; the event was rolled back."""

    def __init__(self, cause: str):
        super().__init__(f"event aborted: {cause}")
        self.cause = cause


class ConsistencyError(Exception):
    """A member's view disagrees with the server tree."""

    def __init__(self, report: dict):
        super().__init__(json.dumps(report, sort_keys=True, default=str))
        self.report = report


@dataclass
class ProtocolConfig:
    key_len: int = 1
    xi: float = 0.0
    agent_selection: str = "random"  # or "first" (lowest user id)
    track_history: bool = False
    record_tree_snapshots: bool = False
    verify_after: bool = False

    def __post_init__(self) -> None:
        if self.agent_selection not in ("random", "first"):
            raise ValueError(f"unknown agent selection {self.agent_selection!r}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("decoy proportion must lie in [0, 1]")


@dataclass(frozen=True)
class GroupEvent:
    kind: str  # "join" or "leave"
    user: str
    timestamp: int  # integer event step

    def to_dict(self) -> dict:
        return {"kind": self.kind, "user": self.user, "timestamp": self.timestamp}


@dataclass
class EventTrace:
    """Everything one membership event produced."""

    event: GroupEvent
    updated_keys: list[str]  # root first
    sessions: list[tuple[str, QkaTranscript]]  # (key id, transcript) per updated key
    messages: list[RekeyMessage]
    counters: ResourceCounters
    tree_stats: dict
    session_sizes: list[int] = field(default_factory=list)
    tree_before: Optional[dict] = None
    tree_after: Optional[dict] = None
    new_material: dict[str, GroupKey] = field(default_factory=dict)

    def to_dict(self, reveal_keys: bool = False) -> dict:
        d = {
            "event": self.event.to_dict(),
            "updated_keys": self.updated_keys,
            "sessions": [
                {"key_id": kid, **t.to_dict()} for kid, t in self.sessions
            ],
            "rekey_messages": [m.to_dict() for m in self.messages],
            "counters": self.counters.as_dict(),
            "tree_stats": self.tree_stats,
        }
        if self.tree_before is not None:
            d["tree_before"] = self.tree_before
        if self.tree_after is not None:
            d["tree_after"] = self.tree_after
        if reveal_keys:
            d["updated_key_material"] = {
                kid: {"version": k.version, "bits": k.bits}
                for kid, k in self.new_material.items()
            }
        return d


class GroupProtocol:
    """Server-side driver holding the tree, every member's view, and totals."""

    def __init__(
        self,
        tree: KeyTree,
        config: ProtocolConfig,
        rng: np.random.Generator,
        channel: Optional[ChannelModel] = None,
    ):
        if tree.key_len != config.key_len:
            raise ValueError("tree and protocol key lengths disagree")
        self.tree = tree
        self.config = config
        self.rng = rng
        self.channel = channel
        self.counters = ResourceCounters()
        # spent by events that aborted and were rolled back
        self.aborted_counters = ResourceCounters()
        self.step = 0
        self.views: dict[str, UserView] = {}
        self.archives: dict[str, set[tuple[str, int, str]]] = {}
        self.joined_at: dict[str, int] = {}
        self.departed: dict[str, int] = {}
        self.probes: list[tuple[int, SimCipherText]] = []
        for uid in tree.users():
            view = UserView(uid, (tree.key(k) for k in tree.keyset(uid)))
            self.views[uid] = view
            self.joined_at[uid] = 0
            if config.track_history:
                self.archives[uid] = {
                    (k.key_id, k.version, k.bits) for k in view.keys.values()
                }

    # ------------------------------------------------------------------ #

    def _install(self, uid: str, key: GroupKey) -> None:
        self.views[uid].install(key)
        if self.config.track_history:
            self.archives.setdefault(uid, set()).add(
                (key.key_id, key.version, key.bits)
            )

    def _choose_agent(self, members: Sequence[str]) -> str:
        if self.config.agent_selection == "first":
            return members[0]
        return members[int(self.rng.integers(len(members)))]

    def _checkpoint(self) -> None:
        # Sessions can only abort through an adversarial channel (an honest
        # channel's decoy checks are error-free by construction), so the
        # tree records an undo log only when one is installed.
        if self.channel is not None:
            self.tree.checkpoint()

    def _abort(self, counters: ResourceCounters) -> None:
        self.tree.rollback()
        self.step -= 1
        self.aborted_counters.merge(counters)

    def _deliver(self, message: RekeyMessage) -> None:
        """Install one message's keys into every addressed view.

        Decryption is deterministic and every recipient of a message holds
        the identical wrapping key, so each item is unwrapped once against
        the first recipient's copy and installed everywhere, after checking
        that every other recipient holds exactly the same wrapping key.
        Semantically equivalent to each recipient decrypting every item with
        its own copy of the wrapping key, the per-user form the test suite
        keeps as its reference.  An opened key equal to the tree's is
        installed as the tree's own object.  Views then share the tree's key
        objects, and the per-recipient check passes on identity unless a view
        holds a separate equal copy.
        """
        if not message.recipients:
            return
        first = self.views[message.recipients[0]]
        opened: list[tuple[str, GroupKey, GroupKey]] = []
        for item in message.items:
            held = first.keys.get(item.enc_key_id)
            if held is None or held.version != item.enc_version:
                raise MissingKeyError(
                    f"{first.user_id} lacks {item.enc_key_id} v{item.enc_version}"
                )
            new_key = decrypt_key(held, item)
            live = self.tree.key(new_key.key_id)
            if live == new_key:
                new_key = live
            opened.append((item.enc_key_id, held, new_key))
        track = self.config.track_history
        views = self.views
        for uid in message.recipients:
            keys = views[uid].keys
            for enc_id, wrap_key, new_key in opened:
                held = keys.get(enc_id)
                if held is not wrap_key and held != wrap_key:
                    raise MissingKeyError(
                        f"{uid} lacks {enc_id} v{wrap_key.version}"
                    )
                keys[new_key.key_id] = new_key
                if track:
                    self.archives[uid].add(
                        (new_key.key_id, new_key.version, new_key.bits)
                    )

    def _run_key_session(
        self, participant_ids: list[str], counters: ResourceCounters
    ) -> QkaTranscript:
        cfg = make_config(participant_ids, n=self.config.key_len, xi=self.config.xi)
        t = run_session(cfg, channel=self.channel, rng=self.rng)
        counters.merge(t.counters)
        return t

    def _record_probe(self) -> None:
        if not self.config.track_history:
            return
        root_key = self.tree.key(self.tree.root)  # type: ignore[arg-type]
        probe = GroupKey("probe", self.step, random_bits(self.tree.key_len, self.rng))
        self.probes.append(
            (self.step, encrypt_key(root_key, probe, self.rng.bytes(8)))
        )

    # ------------------------------------------------------------------ #

    def join(self, user_id: str) -> EventTrace:
        """Run the full join protocol for one new user."""
        if self.tree.has_user(user_id):
            raise KeyTreeError(f"user {user_id!r} already in the group")
        self.step += 1
        self._checkpoint()
        tree_before = (
            self.tree.to_dict() if self.config.record_tree_snapshots else None
        )
        counters = ResourceCounters()
        path = self.tree.insert_user(user_id, self.rng)  # deepest first
        path_root_first = list(reversed(path))
        # every wrapping key a join message can use, before any session
        old_material = {}
        for key_id in path:
            for kid in (key_id, *self.tree.child_keys(key_id)):
                key = self.tree.nodes[kid].key
                if key is not None:
                    old_material[kid] = key

        sessions: list[tuple[str, QkaTranscript]] = []
        try:
            for key_id in path_root_first:
                t = self._run_key_session([SERVER_ID, user_id], counters)
                if t.aborted:
                    raise ProtocolAbort(t.abort_cause or "unknown")
                self.tree.set_key(key_id, t.extracted_key)
                sessions.append((key_id, t))
        except ProtocolAbort:
            self._abort(counters)
            raise
        self.tree.commit()

        messages = build_join_messages(
            self.tree, path_root_first, old_material, user_id, self.rng, counters
        )
        for msg in messages:
            self._deliver(msg)

        # the joiner holds her registration key plus everything she agreed on
        self.views[user_id] = UserView(user_id)
        self.joined_at[user_id] = self.step
        if self.config.track_history:
            self.archives.setdefault(user_id, set())
        self._install(user_id, self.tree.key(self.tree.individual_key(user_id)))
        for key_id in path_root_first:
            self._install(user_id, self.tree.key(key_id))

        self.counters.merge(counters)
        trace = EventTrace(
            event=GroupEvent("join", user_id, self.step),
            updated_keys=path_root_first,
            sessions=sessions,
            messages=messages,
            counters=counters,
            tree_stats=self.tree.stats(),
            session_sizes=[2] * len(path_root_first),
            tree_before=tree_before,
            tree_after=self.tree.to_dict() if self.config.record_tree_snapshots else None,
            new_material={kid: self.tree.key(kid) for kid in path_root_first},
        )
        self._record_probe()
        if self.config.verify_after:
            self.verify_consistency(raise_on_mismatch=True)
        return trace

    def leave(self, user_id: str) -> EventTrace:
        """Run the full leave protocol for one departing member."""
        if not self.tree.has_user(user_id):
            raise KeyTreeError(f"user {user_id!r} not in the group")
        if self.tree.group_size() < 2:
            raise KeyTreeError("cannot remove the last member of a group")
        self.step += 1
        self._checkpoint()
        tree_before = (
            self.tree.to_dict() if self.config.record_tree_snapshots else None
        )
        parent = self.tree.keyset(user_id)[1]
        counters = ResourceCounters()
        updated = self.tree.remove_user(user_id)  # deepest first
        path_root_first = list(reversed(updated))

        sessions: list[tuple[str, QkaTranscript]] = []
        session_users: dict[str, list[str]] = {}
        try:
            for key_id in path_root_first:
                children = self.tree.child_keys(key_id)
                if children:
                    agents = [
                        self._choose_agent(self.tree.userset(c)) for c in children
                    ]
                else:
                    # a pruned subgroup merged into an individual key
                    agents = list(self.tree.userset(key_id))
                t = self._run_key_session([SERVER_ID, *agents], counters)
                if t.aborted:
                    raise ProtocolAbort(t.abort_cause or "unknown")
                self.tree.set_key(key_id, t.extracted_key)
                sessions.append((key_id, t))
                session_users[key_id] = agents
        except ProtocolAbort:
            self._abort(counters)
            raise
        self.tree.commit()

        messages = build_leave_messages(
            self.tree,
            [(kid, session_users[kid]) for kid in updated],
            self.rng,
            counters,
        )

        # session participants learn their keys from the agreement itself
        for key_id in path_root_first:
            for uid in session_users[key_id]:
                self._install(uid, self.tree.key(key_id))
        for msg in messages:
            self._deliver(msg)

        # the leaver's parent vanished if it merged into its remaining child,
        # which then stands in for it on the update list; only that child's
        # users held it besides the leaver
        if updated[0] != parent:
            for uid in self.tree.userset(updated[0]):
                self.views[uid].drop(parent)

        self.views.pop(user_id, None)
        self.departed[user_id] = self.step

        self.counters.merge(counters)
        trace = EventTrace(
            event=GroupEvent("leave", user_id, self.step),
            updated_keys=path_root_first,
            sessions=sessions,
            messages=messages,
            counters=counters,
            tree_stats=self.tree.stats(),
            session_sizes=[1 + len(session_users[k]) for k in path_root_first],
            tree_before=tree_before,
            tree_after=self.tree.to_dict() if self.config.record_tree_snapshots else None,
            new_material={kid: self.tree.key(kid) for kid in path_root_first},
        )
        self._record_probe()
        if self.config.verify_after:
            self.verify_consistency(raise_on_mismatch=True)
        return trace

    # ------------------------------------------------------------------ #

    def secrecy_failures(
        self, ciphertexts: Iterable[tuple[int, SimCipherText]] = ()
    ) -> list[str]:
        """Play both secrecy games over the recorded probes plus ``ciphertexts``.

        Every ciphertext comes with the step that sent it.  Forward secrecy:
        no departed user's archive opens anything sent at or after the
        user's leave step, that leave's own rekey messages included.
        Backward secrecy: no member's archive opens anything sent before the
        member's join step.  Opening needs the exact (id, version, bits) key, so each
        archive is indexed by (id, version) and only the candidates it names
        are decrypted.  The probe recorded after the latest committed event
        is under the current root key.  Requires history tracking.
        """
        if not self.config.track_history:
            raise ValueError("secrecy checks need track_history=True")
        sent = [*self.probes, *ciphertexts]
        # (who, whose archive, boundary step, game covers steps >= boundary)
        games = [
            (f"departed {uid}", uid, left_at, True)
            for uid, left_at in self.departed.items()
        ] + [
            (uid, uid, joined, False)
            for uid, joined in self.joined_at.items()
            if uid in self.views
        ]
        failures: list[str] = []
        for who, uid, boundary, after in games:
            index = {(k, v): bits for k, v, bits in self.archives.get(uid, ())}
            for step, ct in sent:
                if (step >= boundary) != after:
                    continue
                bits = index.get((ct.enc_key_id, ct.enc_version))
                if bits is not None and try_unwrap(
                    GroupKey(ct.enc_key_id, ct.enc_version, bits), ct
                ):
                    failures.append(f"{who} opened a ciphertext from step {step}")
        return failures

    def verify_consistency(
        self, raise_on_mismatch: bool = False, check_secrecy: bool = False
    ) -> dict:
        """Compare every member's view with its keyset projection.

        With ``check_secrecy`` (requires history tracking), also play both
        secrecy games of ``secrecy_failures`` over the recorded probes.
        """
        mismatches: dict[str, dict] = {}
        for uid in self.tree.users():
            projection = {k: self.tree.key(k) for k in self.tree.keyset(uid)}
            held = self.views[uid].keys
            if held != projection:
                mismatches[uid] = {
                    "missing": sorted(set(projection) - set(held)),
                    "stale": sorted(
                        k
                        for k in held
                        if k in projection and held[k] != projection[k]
                    ),
                    "extra": sorted(set(held) - set(projection)),
                }
        secrecy_failures = self.secrecy_failures() if check_secrecy else []
        report = {
            "consistent": not mismatches and not secrecy_failures,
            "mismatches": mismatches,
            "secrecy_failures": secrecy_failures,
        }
        if raise_on_mismatch and not report["consistent"]:
            raise ConsistencyError(report)
        return report
