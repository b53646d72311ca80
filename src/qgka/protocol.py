"""Join and leave orchestration: generation via QKA, distribution via rekeying.

A join attaches the new user at the join point and regenerates every key on
her path with one two-party session (server + joiner) per key, so the joiner
takes part in creating everything she will hold and learns nothing older.  A
leave prunes the user and regenerates every surviving path key with one
multi-party session per key: the server plus one agent per child subgroup
(for the deepest key these agents are exactly the remaining siblings).  The
regenerated keys then travel to everyone else encrypted under keys the
leaver never held.

Events are strictly serialized.  An event first agrees on its keys, over
the path the tree names without changing (``KeyTree.join_point`` and
``leave_path``), and only then changes the tree, once.  The sessions inside
one event touch disjoint keys.  Their random draws and channel checks are
made in order, root key first, with a leave's agents each chosen just
before their session by index into a subgroup in tree order, the leaver not
counted (``KeyTree.user_at``); then all of them are measured and extracted
in one stacked pass (``qka.finish_sessions``).  An aborted session, the
first in order, ends the event before anything changed, so the tree, views,
step and counters stay as they were; the resources an aborted event spent,
every drawn session's included, go to ``aborted_counters``.  Membership
history and the secrecy game live beside the protocol (``qgka.history``).

Members hold the tree's keys on their paths, except where an entry, kept
per key and node, says that every user under the node holds another
version.  An event pins each key at its own node to the old value before
the tree takes the new one.  A rekey message reaches the users under one
node minus those under one node below it, so delivery asks once per item
what its recipients hold, by subtrees that hold the same (on the honest
path, the one node), and enters each key once per subtree that can open
it, keeping what the excluded node held.  The rest keep what they held:
an event whose sessions succeed always commits, and ``verify_consistency``
reports who was left without a key.  After the event, the same question
asked at a key's own node drops that key's entries once every user under
it holds the tree's value.  An event therefore touches only its path: the
tree work, the sessions, the message addressing and the delivery grow
with d and log_d N, not with the number of recipients.
``views`` reads each member's keys off the tree and the entries on demand.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .counters import ResourceCounters
from .keytree import GroupKey, KeyTree, KeyTreeError, random_bits
from .qka import (
    ChannelModel,
    QkaConfig,
    QkaTranscript,
    draw_session,
    finish_sessions,
)
from .qka import run_session  # noqa: F401  (perfbench/workloads.py traces it)
from .rekey import (
    RekeyMessage,
    SimCipherText,
    build_join_messages,
    build_leave_messages,
    try_unwrap,
)

SERVER_ID = "s"


class ProtocolAbort(Exception):
    """A session aborted; the event changed nothing."""

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
    # or "first": first in tree order, the lowest id on a fresh tree
    agent_selection: str = "random"

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


@dataclass
class EventTrace:
    """Everything one membership event produced."""

    event: GroupEvent
    updated_keys: list[str]  # root first
    sessions: list[tuple[str, QkaTranscript]]  # (key id, transcript) per updated key
    messages: list[RekeyMessage]
    counters: ResourceCounters
    tree_stats: dict
    new_material: dict[str, GroupKey]  # updated key id -> its new key

    @property
    def session_sizes(self) -> list[int]:
        return [len(t.participants) for _, t in self.sessions]

    def to_dict(self, reveal_keys: bool = False) -> dict:
        d = {
            "event": asdict(self.event),
            "updated_keys": self.updated_keys,
            "sessions": [
                {"key_id": kid, **t.to_dict()} for kid, t in self.sessions
            ],
            "rekey_messages": [m.to_dict() for m in self.messages],
            "counters": self.counters.as_dict(),
            "tree_stats": self.tree_stats,
        }
        if reveal_keys:
            d["updated_key_material"] = {
                kid: {"version": k.version, "bits": k.bits}
                for kid, k in self.new_material.items()
            }
        return d


class _Entries:
    """Delivered keys, recorded per node where they differ from the tree.

    An entry ``by_key[K][X]`` says that every user under node X holds that
    version of key K, or with None that none holds K, unless an entry for K
    deeper on the user's path says otherwise.  Without an entry, K's own
    node holds the tree's value, so a settled group has no entries.  An
    event pins its keys at their own nodes, adds entries along its path and
    at its session users' individual keys, and ``merge`` drops a key's
    entries once its users all hold the tree's value.
    """

    def __init__(self, tree: KeyTree):
        self.tree = tree
        self.by_key: dict[str, dict[str, Optional[GroupKey]]] = {}

    def _set(self, node_id: str, key_id: str, value: Optional[GroupKey]) -> None:
        self.by_key.setdefault(key_id, {})[node_id] = value

    def _pop(self, node_id: str, key_id: str) -> None:
        at = self.by_key[key_id]
        del at[node_id]
        if not at:
            del self.by_key[key_id]

    def pin(self, key_id: str) -> None:
        """Keep what the key's users hold before the tree's value changes."""
        if key_id not in self.by_key.get(key_id, {}):
            self._set(key_id, key_id, self.tree.nodes[key_id].key)

    def lookup(self, node_id: Optional[str], key_id: str) -> Optional[GroupKey]:
        """What the users under ``node_id`` hold as ``key_id``, barring
        entries below it."""
        nodes, at = self.tree.nodes, self.by_key.get(key_id, {})
        while node_id is not None:
            if node_id in at:
                return at[node_id]
            if node_id == key_id:
                return nodes[key_id].key
            node_id = nodes[node_id].parent
        return None

    def keys_of(self, user_id: str) -> dict[str, GroupKey]:
        """Every key the user holds, by id: the tree's keys on her path,
        except that a key with an entry on her path at or below its own
        node takes the deepest such entry."""
        nodes, path = self.tree.nodes, self.tree.keyset(user_id)
        held = {y: nodes[y].key for y in path}
        for key_id, at in self.by_key.items():
            y = next((y for y in path if y in at or y == key_id), None)
            if y in at:
                held[key_id] = at[y]  # type: ignore[index]
        return {k: v for k, v in held.items() if v is not None}

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
        return [y for y in self.by_key.get(key_id, ()) if self._within(y, top, height)]

    def _settle(self, node_id: str, key_id: str, value: Optional[GroupKey]) -> None:
        """The users under ``node_id`` hold ``value`` as ``key_id``, barring
        entries below it.  No entry is kept that repeats what the node
        inherits, which at the key's own node is the tree's value."""
        if node_id == key_id:
            inherited = self.tree.nodes[key_id].key
        else:
            inherited = self.lookup(self.tree.nodes[node_id].parent, key_id)
        if inherited != value:
            self._set(node_id, key_id, value)
        elif node_id in self.by_key.get(key_id, {}):
            self._pop(node_id, key_id)

    def put(
        self,
        node_id: str,
        key_id: str,
        value: Optional[GroupKey],
        keep: Optional[str] = None,
    ) -> None:
        """Every user under ``node_id``, bar the users under the node
        ``keep``, now holds ``value`` as ``key_id`` (None: does not hold it).

        The kept node's entry then says what its users held before.
        """
        nodes = self.tree.nodes
        old = None if keep is None else self.lookup(keep, key_id)
        for y in self.inside(node_id, key_id):
            kept = keep is not None and self._within(y, keep, nodes[keep].height)
            if y != node_id and not kept:
                self._pop(y, key_id)
        self._settle(node_id, key_id, value)
        if keep is not None:
            self._settle(keep, key_id, old)

    def regions(
        self, top: str, key_id: str, keep: Optional[str] = None
    ) -> list[tuple[str, Optional[GroupKey]]]:
        """The subtrees under ``top``, bar the one at the node ``keep``, in
        which every user holds the same as ``key_id`` (None: none holds it),
        each with that value; just ``[(top, value)]`` when they all agree.

        With no entry for the key, and not the key's own node, strictly
        below ``top``, that is what ``top`` holds, whatever ``keep`` leaves
        out.  Otherwise only the paths down to those nodes and the kept one
        are walked; every other subtree holds what its root inherits.
        """
        nodes, at = self.tree.nodes, self.by_key.get(key_id, {})
        height = nodes[top].height
        marks = [
            y for y in (*at, key_id) if y != top and self._within(y, top, height)
        ]
        if not marks:
            return [(top, self.lookup(top, key_id))]
        if keep is not None and keep != top and self._within(keep, top, height):
            marks.append(keep)
        below: set[str] = set()  # nodes with a mark under them
        for y in marks:
            y = nodes[y].parent  # type: ignore[assignment]
            while y not in below:
                below.add(y)
                if y == top:
                    break
                y = nodes[y].parent  # type: ignore[assignment]
        found: list[tuple[str, Optional[GroupKey]]] = []
        todo = [(top, self.lookup(nodes[top].parent, key_id))]
        while todo:
            node_id, value = todo.pop()
            if node_id in at:
                value = at[node_id]
            elif node_id == key_id:
                value = nodes[key_id].key
            if node_id == keep:
                continue
            if node_id in below:
                todo.extend((c, value) for c in nodes[node_id].children)
            else:
                found.append((node_id, value))
        if len({value for _, value in found}) == 1:
            return [(top, found[0][1])]
        return found

    def merge(self, key_id: str) -> None:
        """Drop the entries for ``key_id`` at and below its node once every
        user under it holds the tree's value, when ``regions`` finds one
        region there holding it; otherwise leave them for
        ``verify_consistency`` to report."""
        if self.regions(key_id, key_id) == [(key_id, self.tree.nodes[key_id].key)]:
            for y in self.inside(key_id, key_id):
                self._pop(y, key_id)

    def forget(self, node_id: str) -> None:
        """Remove every entry at a node that left the tree."""
        for key_id in [k for k, at in self.by_key.items() if node_id in at]:
            self._pop(node_id, key_id)


class _HeldKeys(Mapping):
    """A member's keys by id, read off the entries on every access."""

    __slots__ = ("_entries", "_user_id")

    def __init__(self, entries: _Entries, user_id: str):
        self._entries = entries
        self._user_id = user_id

    def __getitem__(self, key_id: str) -> GroupKey:
        leaf = self._entries.tree.individual_key(self._user_id)
        key = self._entries.lookup(leaf, key_id)
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
    ``drop`` change it through entries at her individual key.
    """

    __slots__ = ("_entries", "user_id")

    def __init__(self, entries: _Entries, user_id: str):
        self._entries = entries
        self.user_id = user_id

    @property
    def keys(self) -> Mapping[str, GroupKey]:
        return _HeldKeys(self._entries, self.user_id)

    def install(self, key: GroupKey) -> None:
        self._entries.put(self._leaf(), key.key_id, key)

    def drop(self, key_id: str) -> None:
        self._entries.put(self._leaf(), key_id, None)

    def _leaf(self) -> str:
        return self._entries.tree.individual_key(self.user_id)


class _Members(Mapping):
    """Current members' views, in tree order, made on demand."""

    def __init__(self, entries: _Entries):
        self._entries = entries

    def __getitem__(self, user_id: str) -> MemberView:
        if not self._entries.tree.has_user(user_id):
            raise KeyError(user_id)
        return MemberView(self._entries, user_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries.tree.users())

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
        if tree.has_user(SERVER_ID):
            raise ValueError(f"user id {SERVER_ID!r} is the server's")
        self.tree = tree
        self.config = config
        self.rng = rng
        self.channel = channel
        self.counters = ResourceCounters()
        # spent by events that aborted before changing anything
        self.aborted_counters = ResourceCounters()
        self.step = 0
        # members hold the tree's keys until an event pins one
        self._entries = _Entries(tree)
        self.views: Mapping[str, MemberView] = _Members(self._entries)
        # item -> (wrapping key, opened key or None) over one event's messages
        self._opened: dict[
            SimCipherText, tuple[Optional[GroupKey], Optional[GroupKey]]
        ] = {}

    # ------------------------------------------------------------------ #

    def _deliver(self, message: RekeyMessage) -> None:
        """Enter one message's keys for the recipients that can open them.

        The recipients are the users under the message's include node less
        those under its exclude node.  Decryption is deterministic, so each
        item asks once what they hold as its wrapping key, by regions that
        hold the same (``_Entries.regions``; on the honest path, the include
        node alone), and tries each region's key once with ``try_unwrap``,
        or not again after an earlier message of the event did.  Each
        opened key, never the tree's, is entered once at its region, the
        include node's keeping what the exclude node held; a region that
        cannot open an item keeps what it held.  Semantically equivalent to
        each recipient trying every item with their own copy of the wrapping
        key, the per-user form the test suite keeps as its reference.
        """
        entries, include, exclude = self._entries, message.include, message.exclude
        opened: list[tuple[str, GroupKey]] = []
        for item in message.items:
            for node_id, wrap in entries.regions(include, item.enc_key_id, exclude):
                seen = self._opened.get(item)
                if seen is None or seen[0] != wrap:
                    seen = self._opened[item] = (wrap, wrap and try_unwrap(wrap, item))
                if seen[1] is not None:
                    opened.append((node_id, seen[1]))
        for node_id, key in opened:
            keep = exclude if node_id == include else None
            entries.put(node_id, key.key_id, key, keep)

    def _choose_agent(self, key_id: str, skip: set[str]) -> str:
        """The first or a random user under ``key_id`` in tree order, not
        counting the leaver, whose keyset is ``skip``."""
        if self.config.agent_selection == "first":
            return self.tree.user_at(key_id, 0, skip)
        count = self.tree.nodes[key_id].count - (key_id in skip)
        return self.tree.user_at(key_id, int(self.rng.integers(count)), skip)

    def _agents(self, key_id: str, old_path: list[str]) -> list[str]:
        """A leave session's users for a key, read before the leaver, whose
        keyset is ``old_path``, goes: one agent per child subgroup without
        her, in child order, as ``build_leave_messages`` takes them."""
        children = [c for c in self.tree.child_keys(key_id) if c != old_path[0]]
        if not children:
            # a pruned subgroup merged into an individual key
            return self.tree.userset(key_id)
        skip = set(old_path)
        return [self._choose_agent(c, skip) for c in children]

    def _agree(
        self,
        key_ids: list[str],
        users_of: Callable[[str], list[str]],
        counters: ResourceCounters,
    ) -> list[QkaTranscript]:
        """Agree on a new value for each key, changing nothing else.

        Each key's session, the server plus ``users_of(key_id)`` taken just
        before it, is drawn in order, and the drawn sessions are finished in
        one stacked pass.  Every drawn session's counters go into
        ``counters``; the first aborted one, in order, ends the event.
        """
        n, xi = self.config.key_len, self.config.xi
        draws = []
        for key_id in key_ids:
            cfg = QkaConfig([SERVER_ID, *users_of(key_id)], n=n, xi=xi)
            draws.append(draw_session(cfg, self.rng, self.channel))
            if draws[-1].transcript.aborted:
                break
        transcripts = finish_sessions(draws)
        for t in transcripts:
            counters.merge(t.counters)
        for t in transcripts:
            if t.aborted:
                self.aborted_counters.merge(counters)
                raise ProtocolAbort(t.abort_cause or "unknown")
        return transcripts

    def _install(
        self, key_ids: list[str], transcripts: list[QkaTranscript]
    ) -> list[tuple[str, QkaTranscript]]:
        """Open the event's step and give each key its agreed value."""
        self.step += 1
        self._opened.clear()
        sessions = list(zip(key_ids, transcripts))
        for key_id, t in sessions:
            self._entries.pin(key_id)
            self.tree.set_key(key_id, t.extracted_key)
        return sessions

    def _commit(
        self,
        kind: str,
        user_id: str,
        updated: list[str],
        sessions: list[tuple[str, QkaTranscript]],
        messages: list[RekeyMessage],
        counters: ResourceCounters,
    ) -> EventTrace:
        """Close a delivered event and trace it."""
        for key_id in updated:
            self._entries.merge(key_id)
        self.counters.merge(counters)
        return EventTrace(
            event=GroupEvent(kind, user_id, self.step),
            updated_keys=updated,
            sessions=sessions,
            messages=messages,
            counters=counters,
            tree_stats=self.tree.stats(),
            new_material={kid: self.tree.key(kid) for kid in updated},
        )

    # ------------------------------------------------------------------ #

    def join(self, user_id: str) -> EventTrace:
        """Run the full join protocol for one new user."""
        if self.tree.has_user(user_id):
            raise KeyTreeError(f"user {user_id!r} already in the group")
        if user_id == SERVER_ID:
            raise ValueError(f"user id {SERVER_ID!r} is the server's")
        counters = ResourceCounters()
        registration = random_bits(self.tree.key_len, self.rng)
        # only the count matters: a split's fresh node takes its target's place
        point_path = self.tree.path(self.tree.join_point()[1])
        transcripts = self._agree(point_path, lambda _: [user_id], counters)

        path = self.tree.insert_user(user_id, registration)  # deepest first
        path_root_first = list(reversed(path))
        # the path's pre-event keys, None at a fresh split node
        old_material = {key_id: self.tree.nodes[key_id].key for key_id in path}
        sessions = self._install(path_root_first, transcripts)

        messages = build_join_messages(
            self.tree, path_root_first, old_material, user_id, self.rng, counters
        )
        for msg in messages:
            self._deliver(msg)

        # the joiner holds her registration key, the tree's, plus everything
        # she agreed on
        leaf = self.tree.individual_key(user_id)
        for key_id in path_root_first:
            self._entries.put(leaf, key_id, self.tree.key(key_id))
        return self._commit(
            "join", user_id, path_root_first, sessions, messages, counters
        )

    def leave(self, user_id: str) -> EventTrace:
        """Run the full leave protocol for one departing member."""
        if not self.tree.has_user(user_id):
            raise KeyTreeError(f"user {user_id!r} not in the group")
        if self.tree.group_size() < 2:
            raise KeyTreeError("cannot remove the last member of a group")
        counters = ResourceCounters()
        old_path = self.tree.keyset(user_id)
        path_root_first = list(reversed(self.tree.leave_path(user_id)))
        transcripts = self._agree(
            path_root_first, lambda key_id: self._agents(key_id, old_path), counters
        )

        updated = self.tree.remove_user(user_id)  # deepest first
        sessions = self._install(path_root_first, transcripts)
        session_users = {kid: t.participants[1:] for kid, t in sessions}

        messages = build_leave_messages(
            self.tree,
            [(kid, session_users[kid]) for kid in updated],
            self.rng,
            counters,
        )

        # the leaver's individual key is gone, and so is a parent merged into
        # its remaining child, which then stands in for it on the update list
        gone = [n for n in old_path if n not in self.tree.nodes]
        for node_id in gone:
            self._entries.forget(node_id)

        # session participants learn their keys from the agreement itself
        for key_id in path_root_first:
            key = self.tree.key(key_id)
            for uid in session_users[key_id]:
                self._entries.put(self.tree.individual_key(uid), key_id, key)
        for msg in messages:
            self._deliver(msg)
        return self._commit(
            "leave", user_id, path_root_first, sessions, messages, counters
        )

    # ------------------------------------------------------------------ #

    def verify_consistency(self, raise_on_mismatch: bool = False) -> dict:
        """Compare every member's view with its keyset projection.

        A member with no entry on her path holds the tree's keys, and an
        event leaves entries only for a key that some of its users did not
        receive; only the users under a node with entries are compared, by
        id, for the report a comparison of every member gives.
        """
        tree, nodes, entries = self.tree, self.tree.nodes, self._entries
        unsettled = {n for at in entries.by_key.values() for n in at if n in nodes}
        users = {u for n in unsettled for u in tree.userset(n)}
        mismatches: dict[str, dict] = {}
        for uid in sorted(users):
            projection = {k: tree.key(k) for k in tree.keyset(uid)}
            held = entries.keys_of(uid)
            if held != projection:
                stale = [k for k, v in held.items() if projection.get(k, v) != v]
                mismatches[uid] = {
                    "missing": sorted(projection.keys() - held.keys()),
                    "stale": sorted(stale),
                    "extra": sorted(held.keys() - projection.keys()),
                }
        report = {"consistent": not mismatches, "mismatches": mismatches}
        if raise_on_mismatch and mismatches:
            raise ConsistencyError(report)
        return report
