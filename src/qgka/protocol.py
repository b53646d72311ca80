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

Members' keys are recorded per node, not per user: an entry for a key at a
node says that every user under the node holds that version, unless an
entry deeper on the user's path says otherwise.  A rekey message reaches a
subtree difference, the users under one node minus those under a few nodes
below it, so delivery enters each key once at that node and, where needed,
once at each excluded node to keep what it held; after the event the
entries fold back into one per key, at the key's own node.  An event
therefore touches only its path: the tree work, the sessions, the message
addressing and the delivery grow with d and log_d N, not with the number of
recipients.  ``views`` reads each member's keys off the entries on demand.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .counters import ResourceCounters
from .keytree import GroupKey, KeyTree, KeyTreeError, _user_sort_key, random_bits
from .qka import ChannelModel, QkaTranscript, make_config, run_session
from .rekey import (
    MissingKeyError,
    RekeyMessage,
    SimCipherText,
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


#: get()'s answer for a node with no entry for the key
_ABSENT = object()


class _Entries:
    """Delivered keys, recorded per node.

    An entry for key K at node X says that every user under X holds the
    given version of K, or with None that none holds K, unless an entry for
    K deeper on the user's path says otherwise.  The entry for K at K's own
    node lives in ``own``, every other entry in ``extra``, and ``where``
    indexes the extra entries by key.  Settled, every key has one entry, at
    its own node; an event adds entries along its path and at its session
    users' u-nodes (a u-node's id is its user's id), and ``merge`` folds
    them back up.
    """

    def __init__(self, tree: KeyTree):
        self.tree = tree
        self.own: dict[str, Optional[GroupKey]] = {
            nid: node.key for nid, node in tree.nodes.items() if node.key is not None
        }
        self.extra: dict[str, dict[str, Optional[GroupKey]]] = {}
        self.where: dict[str, set[str]] = {}

    def get(self, node_id: str, key_id: str):
        """The entry for ``key_id`` at ``node_id``, or ``_ABSENT``."""
        if node_id == key_id:
            return self.own.get(key_id, _ABSENT)
        entries = self.extra.get(node_id)
        return _ABSENT if entries is None else entries.get(key_id, _ABSENT)

    def _set(self, node_id: str, key_id: str, value: Optional[GroupKey]) -> None:
        if node_id == key_id:
            self.own[key_id] = value
            return
        self.extra.setdefault(node_id, {})[key_id] = value
        self.where.setdefault(key_id, set()).add(node_id)

    def _pop(self, node_id: str, key_id: str) -> None:
        if node_id == key_id:
            del self.own[key_id]
            return
        entries = self.extra[node_id]
        del entries[key_id]
        if not entries:
            del self.extra[node_id]
        nodes = self.where[key_id]
        nodes.discard(node_id)
        if not nodes:
            del self.where[key_id]

    def lookup(self, node_id: Optional[str], key_id: str) -> Optional[GroupKey]:
        """What the users under ``node_id`` hold as ``key_id``, barring
        entries below it."""
        nodes, own, extra = self.tree.nodes, self.own, self.extra
        while node_id is not None:
            if node_id == key_id:
                if key_id in own:
                    return own[key_id]
            else:
                entries = extra.get(node_id)
                if entries is not None and key_id in entries:
                    return entries[key_id]
            node_id = nodes[node_id].parent
        return None

    def keys_of(self, user_id: str) -> dict[str, GroupKey]:
        """Every key the user holds, by id."""
        nodes, own, extra = self.tree.nodes, self.own, self.extra
        held: dict[str, Optional[GroupKey]] = {}
        node_id: Optional[str] = user_id
        while node_id is not None:
            entries = extra.get(node_id)
            if entries:
                for key_id, value in entries.items():
                    held.setdefault(key_id, value)
            if node_id in own:
                held.setdefault(node_id, own[node_id])
            node_id = nodes[node_id].parent
        if None in held.values():
            return {k: v for k, v in held.items() if v is not None}
        return held  # type: ignore[return-value]

    def _within(self, node_id: str, top: str, height: int) -> bool:
        """Whether ``node_id`` is ``top`` or below it; ``height`` is top's.

        Heights grow strictly upward, so the climb stops at the first node
        as high as ``top``.
        """
        nodes = self.tree.nodes
        while node_id != top:
            node = nodes[node_id]
            if node.height >= height or node.parent is None:
                return False
            node_id = node.parent
        return True

    def inside(self, top: str, key_id: str) -> list[str]:
        """The nodes at or below ``top`` with an entry for ``key_id``."""
        height = self.tree.nodes[top].height
        found = [y for y in self.where.get(key_id, ()) if self._within(y, top, height)]
        if key_id in self.own and self._within(key_id, top, height):
            found.append(key_id)
        return found

    def put(
        self,
        node_id: str,
        key_id: str,
        value: Optional[GroupKey],
        keep: Sequence[str] = (),
    ) -> None:
        """Every user under ``node_id``, bar the users under the nodes
        ``keep``, now holds ``value`` as ``key_id`` (None: does not hold it).

        An entry that repeats what its node inherits is not kept, and a kept
        node's entry then says what its users held before.
        """
        nodes = self.tree.nodes
        kept = [(e, nodes[e].height) for e in keep]
        before = [(e, self.lookup(e, key_id)) for e in keep]
        for y in self.inside(node_id, key_id):
            if y != node_id and not any(self._within(y, e, h) for e, h in kept):
                self._pop(y, key_id)
        self._set(node_id, key_id, value)
        if self.lookup(nodes[node_id].parent, key_id) == value:
            self._pop(node_id, key_id)
        for e, old in before:
            if self.lookup(nodes[e].parent, key_id) != old:
                self._set(e, key_id, old)
            elif self.get(e, key_id) is not _ABSENT:
                self._pop(e, key_id)

    def holds(self, top: str, wrap: GroupKey, keep: Sequence[str] = ()) -> bool:
        """Whether every user under ``top``, bar the users under the nodes
        ``keep``, holds exactly ``wrap``.

        Only the paths down to the entries and kept nodes below ``top`` are
        walked; every other subtree holds what its root inherits.
        """
        nodes, key_id = self.tree.nodes, wrap.key_id
        # a kept user who holds the key anyway is no exception
        keep = [
            e for e in keep if nodes[e].kind == "k" or self.lookup(e, key_id) != wrap
        ]
        height = nodes[top].height
        marks = [y for y in self.inside(top, key_id) if y != top]
        marks += [e for e in keep if e != top and self._within(e, top, height)]
        below: set[str] = set()  # nodes with an entry or a kept node under them
        for y in marks:
            y = nodes[y].parent  # type: ignore[assignment]
            while y not in below:
                below.add(y)
                if y == top:
                    break
                y = nodes[y].parent  # type: ignore[assignment]
        if not below:
            return self.lookup(top, key_id) == wrap
        todo = [(top, self.lookup(nodes[top].parent, key_id))]
        while todo:
            node_id, value = todo.pop()
            here = self.get(node_id, key_id)
            if here is not _ABSENT:
                value = here
            if node_id in keep:
                continue
            if node_id in below:
                todo.extend((c, value) for c in nodes[node_id].children)
            elif value != wrap:
                return False
        return True

    def merge(self, key_id: str) -> None:
        """Fold the entries for ``key_id`` upward, bottom up: the children's
        entries into their parent where all of them carry the same one, and
        an entry that repeats what its node inherits into nothing."""
        nodes = self.tree.nodes
        todo = [(nodes[y].height, y) for y in self.where.get(key_id, ())]
        heapq.heapify(todo)
        while todo:
            _, node_id = heapq.heappop(todo)
            value = self.get(node_id, key_id)
            parent = nodes[node_id].parent
            if value is _ABSENT or parent is None:
                continue
            kids = nodes[parent].children
            if all(self.get(c, key_id) == value for c in kids):
                for c in kids:
                    self._pop(c, key_id)
                self._set(parent, key_id, value)
                heapq.heappush(todo, (nodes[parent].height, parent))
            elif self.lookup(parent, key_id) == value:
                self._pop(node_id, key_id)

    def forget(self, node_id: str) -> None:
        """Remove every entry at a node that left the tree."""
        for key_id in list(self.extra.get(node_id, ())):
            self._pop(node_id, key_id)
        self.own.pop(node_id, None)


class _HeldKeys(Mapping):
    """A member's keys by id, read off the entries on every access."""

    __slots__ = ("_entries", "_user_id")

    def __init__(self, entries: _Entries, user_id: str):
        self._entries = entries
        self._user_id = user_id

    def __getitem__(self, key_id: str) -> GroupKey:
        key = self._entries.lookup(self._user_id, key_id)
        if key is None:
            raise KeyError(key_id)
        return key

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries.keys_of(self._user_id))

    def __len__(self) -> int:
        return len(self._entries.keys_of(self._user_id))


class MemberView:
    """One member's keys, read off the delivered entries.

    ``keys`` maps key ids to what the member holds now; ``install`` and
    ``drop`` change it through entries at her u-node.
    """

    __slots__ = ("_entries", "user_id")

    def __init__(self, entries: _Entries, user_id: str):
        self._entries = entries
        self.user_id = user_id

    @property
    def keys(self) -> Mapping[str, GroupKey]:
        return _HeldKeys(self._entries, self.user_id)

    def install(self, key: GroupKey) -> None:
        self._entries.put(self.user_id, key.key_id, key)

    def drop(self, key_id: str) -> None:
        self._entries.put(self.user_id, key_id, None)


class _Members(Mapping):
    """Current members' views, in stable user order, made on demand."""

    def __init__(self, entries: _Entries):
        self._entries = entries

    def __getitem__(self, user_id: str) -> MemberView:
        if not self._entries.tree.has_user(user_id):
            raise KeyError(user_id)
        return MemberView(self._entries, user_id)

    def __iter__(self) -> Iterator[str]:
        tree = self._entries.tree
        return iter(tree.userset(tree.root) if tree.root else ())

    def __len__(self) -> int:
        return self._entries.tree.group_size()


class GroupProtocol:
    """Server-side driver holding the tree, every member's keys, and totals."""

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
        # every member starts with her keyset, one entry per key
        self._entries = _Entries(tree)
        self.views: Mapping[str, MemberView] = _Members(self._entries)
        self.archives: dict[str, set[tuple[str, int, str]]] = {}
        self.joined_at: dict[str, int] = dict.fromkeys(tree.users(), 0)
        self.departed: dict[str, int] = {}
        self.probes: list[tuple[int, SimCipherText]] = []
        # item -> (wrapping key, opened key) over one event's messages
        self._opened: dict[SimCipherText, tuple[GroupKey, GroupKey]] = {}
        if config.track_history:
            for uid in tree.users():
                self.archives[uid] = {
                    (k.key_id, k.version, k.bits)
                    for k in map(tree.key, tree.keyset(uid))
                }

    # ------------------------------------------------------------------ #

    def _install(self, uid: str, key: GroupKey) -> None:
        self._entries.put(uid, key.key_id, key)
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
        """Enter one message's keys for its recipients.

        The recipients are the users under the message's include node less
        those under its exclude nodes.  Decryption is deterministic and every
        recipient must hold the identical wrapping key, so each item is
        unwrapped once, with the first recipient's copy, after checking that
        every recipient holds that copy; the check walks only the paths down
        to the entries and exclude nodes below the include node.  An item
        that an earlier message of the event opened under the same wrapping
        key is not unwrapped again.  Each opened key, never the tree's, is
        entered once at the include node, and the exclude nodes keep what
        they held.  Semantically equivalent to each recipient decrypting
        every item with her own copy of the wrapping key, the per-user form
        the test suite keeps as its reference.
        """
        entries, nodes = self._entries, self.tree.nodes
        include, exclude = message.include, message.exclude
        children = nodes[include].children
        if exclude and exclude[0] in children:  # a join message
            first = min(
                (nodes[c].users[0] for c in children if c not in exclude),
                key=_user_sort_key,
            )
        else:
            first = next(u for u in nodes[include].users if u not in exclude)
        opened: list[GroupKey] = []
        for item in message.items:
            wrap = entries.lookup(first, item.enc_key_id)
            if wrap is None or wrap.version != item.enc_version:
                raise MissingKeyError(
                    f"{first} lacks {item.enc_key_id} v{item.enc_version}"
                )
            if not entries.holds(include, wrap, exclude):
                raise MissingKeyError(
                    f"a recipient under {include} lacks {wrap.key_id} v{wrap.version}"
                )
            seen = self._opened.get(item)
            if seen is None or seen[0] != wrap:
                seen = self._opened[item] = (wrap, decrypt_key(wrap, item))
            opened.append(seen[1])
        for key in opened:
            entries.put(include, key.key_id, key, exclude)
        if self.config.track_history:
            for uid in message.recipients:
                self.archives[uid].update(
                    (key.key_id, key.version, key.bits) for key in opened
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
        self._opened.clear()

        # the joiner holds her registration key plus everything she agreed
        # on; the entries on her path are for those keys only
        self.joined_at[user_id] = self.step
        if self.config.track_history:
            self.archives.setdefault(user_id, set())
        own_keys = [self.tree.individual_key(user_id), *path_root_first]
        for key_id in own_keys:
            self._install(user_id, self.tree.key(key_id))
        for key_id in own_keys:
            self._entries.merge(key_id)

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
        old_path = [user_id, *self.tree.keyset(user_id)]
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

        # the leaver's u-node, individual key and any emptied node are gone,
        # and so is a parent merged into its remaining child, which then
        # stands in for it on the update list; between events the entries
        # at a k-node are only its own key's
        gone = [n for n in old_path if n not in self.tree.nodes]
        for node_id in gone:
            self._entries.forget(node_id)

        # session participants learn their keys from the agreement itself
        for key_id in path_root_first:
            for uid in session_users[key_id]:
                self._install(uid, self.tree.key(key_id))
        for msg in messages:
            self._deliver(msg)
        self._opened.clear()

        for key_id in updated:
            self._entries.merge(key_id)
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
            held = self._entries.keys_of(uid)
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
