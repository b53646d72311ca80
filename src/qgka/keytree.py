"""The tree key graph: u-nodes, k-nodes, keyset/userset duality, churn updates.

A key tree is a single-rooted DAG.  Each user owns a u-node with exactly one
outgoing edge into her individual leaf k-node, and internal k-nodes group up
to ``degree`` child k-nodes apiece.  A user holds exactly the keys on her
path to the root (her keyset); dually, a key is held by exactly the users in
its subtree (its userset).  The root key is the group key.

Membership changes touch only the path between the affected user and the
root:

* join: ``join_point`` names, without changing the tree, where the new
  user goes: the non-full parent of individual keys with the smallest
  subgroup, or, when every such parent is full, the shallowest smallest
  individual key, which ``insert_user`` splits under a fresh intermediate
  node (this may grow the height by one).  The new user's individual k-node
  attaches there, and the path from the join point to the root needs fresh
  key material;
* leave: the user's u-node and individual k-node are pruned, a parent left
  with a single child is merged into that child to keep the height tight,
  and the surviving path nodes need fresh key material.  So no k-node ever
  has a single child k-node.

Every k-node caches, for its own subtree, the sorted userset, the height and
the best join point and split target.  Each cache depends on the node's
children only, so a membership change refreshes exactly its path, bottom up:
a join or leave does O(d * log_d N) work plus one O(log N) search and one
list copy per path node, and ``join_point``, ``userset``, ``height`` and
``stats`` read a cache in O(1).  Usersets are copy-on-write: a change
installs a new list and never edits an old one, so a userset read before an
event still lists the users as they were.  An undo record started by
``checkpoint`` saves each node before the event first changes it, so
``rollback`` restores an aborted event in time proportional to its path.

The tree is single-writer: all mutations happen on one logical thread (the
server); read-only queries are safe concurrently between mutations.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np


class KeyTreeError(Exception):
    """Structural misuse: unknown ids, duplicate inserts, bad parameters."""


@dataclass(frozen=True)
class GroupKey:
    """Key material at one k-node.  Versions strictly increase per node."""

    key_id: str
    version: int
    bits: str


#: A node's best join point in its subtree: (user count, created, id).
_Attach = tuple[int, int, str]
#: A node's best split target strictly below it: (depth below the node,
#: user count of the target's parent, created, id).
_Split = tuple[int, int, int, str]


@dataclass(slots=True)
class _Node:
    id: str
    kind: str  # "u" or "k"
    parent: Optional[str] = None
    children: list[str] = field(default_factory=list)
    key: Optional[GroupKey] = None
    created: int = 0  # creation order, used for deterministic tie-breaking
    # caches of a k-node's subtree, refreshed along every changed path;
    # ``users`` is its userset in _user_sort_key order (None on a u-node)
    users: list[str] = None  # type: ignore[assignment]
    height: int = 0  # edges down to the deepest u-node; 1 for an individual key
    attach: Optional[_Attach] = None
    split: Optional[_Split] = None


@dataclass
class _Undo:
    """What an event changed, enough to put the tree back as it was."""

    root: Optional[str]
    counter: int
    # node id -> the node as it was before its first change, None if created
    nodes: dict[str, Optional[_Node]] = field(default_factory=dict)


def _user_sort_key(uid: str) -> tuple[int, str]:
    # natural-ish ordering so u2 < u10
    return (len(uid), uid)


def _user_index(users: list[str], user_id: str) -> int:
    return bisect_left(users, _user_sort_key(user_id), key=_user_sort_key)


def random_bits(n: int, rng: np.random.Generator) -> str:
    return "".join(map(str, rng.integers(0, 2, size=n).tolist()))


class KeyTree:
    """Mutable server-side key tree with key material per k-node."""

    def __init__(self, degree: int, key_len: int):
        if degree < 2:
            raise KeyTreeError(f"tree degree must be at least 2, got {degree}")
        if key_len < 1:
            raise KeyTreeError("key length must be at least 1 bit")
        self.degree = degree
        self.key_len = key_len
        self.nodes: dict[str, _Node] = {}
        self.root: Optional[str] = None
        self._counter = 0
        self._undo: Optional[_Undo] = None

    # ------------------------------------------------------------------ #
    # construction

    def _new_node(self, kind: str, node_id: Optional[str] = None) -> _Node:
        self._counter += 1
        nid = node_id if node_id is not None else f"k{self._counter}"
        if nid in self.nodes:
            raise KeyTreeError(f"duplicate node id {nid}")
        node = _Node(id=nid, kind=kind, created=self._counter)
        self.nodes[nid] = node
        if self._undo is not None:
            self._undo.nodes[nid] = None
        return node

    def set_key(self, key_id: str, bits: str) -> GroupKey:
        """Install new material at a k-node, bumping its version."""
        node = self._k_node(key_id)
        if len(bits) != self.key_len:
            raise KeyTreeError(
                f"key material must be {self.key_len} bits, got {len(bits)}"
            )
        self._save(node)
        version = node.key.version + 1 if node.key else 1
        node.key = GroupKey(node.id, version, bits)
        return node.key

    # ------------------------------------------------------------------ #
    # lookups

    def _k_node(self, key_id: str) -> _Node:
        node = self.nodes.get(key_id)
        if node is None or node.kind != "k":
            raise KeyTreeError(f"unknown key node {key_id!r}")
        return node

    def _u_node(self, user_id: str) -> _Node:
        node = self.nodes.get(user_id)
        if node is None or node.kind != "u":
            raise KeyTreeError(f"unknown user {user_id!r}")
        return node

    def has_user(self, user_id: str) -> bool:
        node = self.nodes.get(user_id)
        return node is not None and node.kind == "u"

    def users(self) -> list[str]:
        """Every member, in stable user order (a copy)."""
        return list(self.nodes[self.root].users) if self.root else []

    def key_nodes(self) -> list[str]:
        return [n.id for n in self.nodes.values() if n.kind == "k"]

    def group_size(self) -> int:
        return len(self.nodes[self.root].users) if self.root else 0

    def key(self, key_id: str) -> GroupKey:
        node = self._k_node(key_id)
        if node.key is None:
            raise KeyTreeError(f"key node {key_id} has no material yet")
        return node.key

    def individual_key(self, user_id: str) -> str:
        """The user's own leaf k-node."""
        u = self._u_node(user_id)
        assert u.parent is not None
        return u.parent

    def child_keys(self, key_id: str) -> list[str]:
        """Child k-nodes of a key node (u-node children excluded)."""
        node = self._k_node(key_id)
        return [c for c in node.children if self.nodes[c].kind == "k"]

    def keyset(self, user_id: str) -> list[str]:
        """K-nodes on the user's path, individual key first, root last."""
        node: Optional[_Node] = self.nodes[self._u_node(user_id).parent]  # type: ignore[index]
        path = []
        while node is not None:
            path.append(node.id)
            node = self.nodes[node.parent] if node.parent else None
        return path

    def userset(self, key_id: str) -> Sequence[str]:
        """Users in the key node's subtree, in stable user order.

        This is the tree's own list; never modify it.  A change replaces a
        node's list instead of editing it, so the list returned here keeps
        listing the subtree's users as they were when it was read.
        """
        return self._k_node(key_id).users

    def child_toward(self, key_id: str, user_id: str) -> Optional[str]:
        """The child of ``key_id`` whose subtree holds the user, or None
        when the user is not under ``key_id``.

        Heights grow strictly upward, so the climb from the user stops at
        the first node as high as ``key_id``.
        """
        height = self._k_node(key_id).height
        node = self._u_node(user_id)
        while node.parent is not None:
            parent = self.nodes[node.parent]
            if parent.id == key_id:
                return node.id if node.kind == "k" else None
            if parent.height >= height:
                return None
            node = parent
        return None

    def depth(self, node_id: str) -> int:
        d, node = 0, self.nodes[node_id]
        while node.parent is not None:
            d += 1
            node = self.nodes[node.parent]
        return d

    def height(self) -> int:
        """Edges along the longest u-node to root path."""
        return self.nodes[self.root].height if self.root else 0

    def stats(self) -> dict[str, int]:
        return {"N": self.group_size(), "h": self.height(), "d": self.degree}

    # ------------------------------------------------------------------ #
    # cached subtree summaries

    def _summary(
        self, node: _Node
    ) -> tuple[int, Optional[_Attach], Optional[_Split]]:
        """A k-node's (height, attach, split), from its children's caches.

        ``attach`` is the subtree's non-full parent of individual keys with
        the fewest users, then the earliest created; ``split`` is the
        subtree's individual key with the smallest (depth, parent's user
        count, creation), the depth counted from this node.  An individual
        key (height 1) has neither: its parent accounts for it.
        """
        kids = [self.nodes[c] for c in node.children]
        if kids[0].kind == "u":
            return 1, None, None
        height = 1
        attach: Optional[_Attach] = None
        split: Optional[_Split] = None
        first: Optional[_Node] = None  # the earliest created individual child
        for kid in kids:
            if kid.height == 1:
                if first is None or kid.created < first.created:
                    first = kid
                continue
            height = max(height, kid.height)
            if kid.attach is not None and (attach is None or kid.attach < attach):
                attach = kid.attach
            # every child's split depth counts from that child: comparable
            if split is None or kid.split < split:  # type: ignore[operator]
                split = kid.split
        if first is None:
            depth, *rest = split  # type: ignore[misc]
            return height + 1, attach, (depth + 1, *rest)
        # an individual child, at depth 1, beats every deeper split target
        count = len(node.users)
        if len(kids) < self.degree:
            own = (count, node.created, node.id)
            if attach is None or own < attach:
                attach = own
        return height + 1, attach, (1, count, first.created, first.id)

    def _update_path(
        self, node_id: Optional[str], user_id: str, add: bool
    ) -> list[str]:
        """Insert or delete a user in every userset from ``node_id`` up to
        the root, refreshing each node's summary; returns the ids walked."""
        path = []
        while node_id is not None:
            node = self.nodes[node_id]
            self._save(node)
            users = list(node.users)
            i = _user_index(users, user_id)
            if add:
                users.insert(i, user_id)
            else:
                del users[i]
            node.users = users
            node.height, node.attach, node.split = self._summary(node)
            path.append(node_id)
            node_id = node.parent
        return path

    # ------------------------------------------------------------------ #
    # undo record

    def checkpoint(self) -> None:
        """Start recording changes, so that ``rollback`` can undo them."""
        self._undo = _Undo(self.root, self._counter)

    def commit(self) -> None:
        """Keep every change since ``checkpoint`` and stop recording."""
        self._undo = None

    def rollback(self) -> None:
        """Restore the tree exactly as it was at ``checkpoint``."""
        undo, self._undo = self._undo, None
        if undo is None:
            raise KeyTreeError("no checkpoint to roll back to")
        for nid, saved in undo.nodes.items():
            if saved is None:
                self.nodes.pop(nid, None)
            else:
                self.nodes[nid] = saved
        self.root, self._counter = undo.root, undo.counter

    def _save(self, node: _Node) -> None:
        """Record a node before its first change since the checkpoint.

        The copy shares the node's userset list, which no change edits.
        """
        undo = self._undo
        if undo is not None and node.id not in undo.nodes:
            undo.nodes[node.id] = replace(node, children=list(node.children))

    # ------------------------------------------------------------------ #
    # balanced construction

    @classmethod
    def build_balanced(
        cls,
        degree: int,
        users: Sequence[str],
        key_len: int,
        rng: np.random.Generator,
    ) -> "KeyTree":
        """Most balanced degree-bounded tree over the given users.

        Groups are split as evenly as possible at every level; every k-node
        gets fresh random key material.  A single user yields a tree whose
        individual key is also the root (height 1).  The key bits are drawn
        as (k-nodes, key_len) arrays of at most 2**14 bits and handed out in
        creation order, which is pre-order: the same bits, and the same
        generator state after, as one ``random_bits`` call per k-node in
        that order.
        """
        if not users:
            raise KeyTreeError("cannot build a tree with no users")
        if len(set(users)) != len(users):
            raise KeyTreeError("user ids must be unique")
        tree = cls(degree, key_len)
        tree.root = tree._build(sorted(users, key=_user_sort_key))
        k_nodes = [n for n in tree.nodes.values() if n.kind == "k"]
        rows = max(1, 2**14 // key_len)
        for start in range(0, len(k_nodes), rows):
            block = k_nodes[start : start + rows]
            draw = rng.integers(0, 2, size=(len(block), key_len))
            text = (draw.astype(np.uint8) + ord("0")).tobytes().decode()
            for i, node in enumerate(block):
                node.key = GroupKey(node.id, 1, text[i * key_len : (i + 1) * key_len])
        return tree

    def _leaf_for(self, user_id: str) -> str:
        """Create a u-node plus its individual k-node, returning the k-node."""
        u = self._new_node("u", node_id=user_id)
        k = self._new_node("k")
        u.parent = k.id
        k.children.append(u.id)
        k.users = [user_id]
        k.height = 1
        return k.id

    def _build(self, users: list[str]) -> str:
        """Keyless subtree over ``users`` (sorted, and kept as its userset)."""
        if len(users) == 1:
            return self._leaf_for(users[0])
        if len(users) <= self.degree:
            sizes = [1] * len(users)
        else:
            groups = min(self.degree, max(2, len(users) // 2))
            q, r = divmod(len(users), groups)
            sizes = [q + 1] * r + [q] * (groups - r)
        parent = self._new_node("k")
        parent.users = users
        start = 0
        for size in sizes:
            child = self._build(users[start : start + size])
            self.nodes[child].parent = parent.id
            parent.children.append(child)
            start += size
        parent.height, parent.attach, parent.split = self._summary(parent)
        return parent.id

    # ------------------------------------------------------------------ #
    # membership changes

    def join_point(self) -> tuple[str, str]:
        """Where the next user joins, without changing the tree.

        Returns ``("attach", k-node)``: the non-full parent of individual
        keys with the smallest subgroup, ties broken by creation order.  When
        every such parent is full, returns ``("split", individual key)``: the
        shallowest individual key with the smallest surrounding subgroup,
        which ``insert_user`` displaces under a fresh intermediate k-node
        (the height of that branch grows by one).
        """
        if self.root is None:
            raise KeyTreeError("empty tree")
        root = self.nodes[self.root]
        if root.attach is not None:
            return "attach", root.attach[-1]
        # a lone individual root is the only split target there is
        return "split", root.id if root.split is None else root.split[-1]

    def insert_user(
        self, user_id: str, rng: np.random.Generator
    ) -> list[str]:
        """Attach a new user and return the path k-nodes needing fresh keys.

        The user joins at ``join_point``; on a split the fresh k-node takes
        the target's place, holds the target and the new user's individual
        key, and gets no key material here.  The update list runs from the
        join point up to the root (deepest first).  The user's individual
        key gets fresh random material here, standing in for a key
        pre-shared with the server at registration; it is not part of the
        update list.
        """
        if user_id in self.nodes:
            raise KeyTreeError(f"user {user_id!r} already present")
        kind, point_id = self.join_point()
        point = self.nodes[point_id]
        if kind == "split":
            target, point = point, self._new_node("k")
            point.users = target.users
            if target.parent is None:
                self.root = point.id
            else:
                grand = self.nodes[target.parent]
                self._save(grand)
                grand.children[grand.children.index(target.id)] = point.id
                point.parent = grand.id
            self._save(target)
            target.parent = point.id
            point.children.append(target.id)
        leaf = self._leaf_for(user_id)
        self.set_key(leaf, random_bits(self.key_len, rng))
        self._save(point)
        self.nodes[leaf].parent = point.id
        point.children.append(leaf)
        return self._update_path(point.id, user_id, add=True)

    def remove_user(self, user_id: str) -> list[str]:
        """Prune a user and return the surviving path k-nodes needing fresh keys.

        The user's u-node and individual key vanish.  If the parent k-node is
        left with a single child it is merged into that child (the child
        takes its place; the absorbing child then stands in for it on the
        update list).  The update list runs deepest first up to the root.
        """
        u = self._u_node(user_id)
        if self.nodes[self.root].users == [user_id]:  # type: ignore[index]
            raise KeyTreeError("cannot remove the only user")

        leaf = self.nodes[u.parent]  # type: ignore[index]
        parent = self.nodes[leaf.parent]  # type: ignore[index]
        self._save(u)
        self._save(leaf)
        self._save(parent)
        parent.children.remove(leaf.id)
        del self.nodes[u.id], self.nodes[leaf.id]
        if len(parent.children) != 1:
            return self._update_path(parent.id, user_id, add=False)

        # merge the parent into its only child, whose subtree is unchanged
        child = self.nodes[parent.children[0]]
        self._save(child)
        child.parent = parent.parent
        if parent.parent is None:
            self.root = child.id
        else:
            grand = self.nodes[parent.parent]
            self._save(grand)
            grand.children[grand.children.index(parent.id)] = child.id
        del self.nodes[parent.id]
        return [child.id, *self._update_path(child.parent, user_id, add=False)]

    # ------------------------------------------------------------------ #
    # validation and serialization

    def check_invariants(self) -> None:
        """Raise when any structural invariant or cache is wrong (test hook).

        Every cached userset, height and summary is recomputed from the
        node's children, children first.
        """
        if self.root is None:
            raise KeyTreeError("no root")
        if self.nodes[self.root].parent is not None:
            raise KeyTreeError("root has a parent")
        order: list[str] = []
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise KeyTreeError(f"cycle at {nid}")
            seen.add(nid)
            order.append(nid)
            node = self.nodes[nid]
            if node.kind == "k":
                if not node.children:
                    raise KeyTreeError(f"k-node {nid} has no children")
                k_children = [c for c in node.children if self.nodes[c].kind == "k"]
                if len(k_children) > self.degree:
                    raise KeyTreeError(f"degree bound violated at {nid}")
                if k_children and len(k_children) != len(node.children):
                    raise KeyTreeError(f"k-node {nid} mixes u- and k-children")
                if not k_children and len(node.children) != 1:
                    raise KeyTreeError(f"individual key {nid} has several users")
                if len(k_children) == 1:
                    raise KeyTreeError(f"k-node {nid} has a single child")
                for c in node.children:
                    if self.nodes[c].parent != nid:
                        raise KeyTreeError(f"broken edge {nid} -> {c}")
                stack.extend(node.children)
            elif node.children:
                raise KeyTreeError(f"u-node {nid} has children")
        if seen != set(self.nodes):
            raise KeyTreeError("unreachable nodes present")
        for nid in reversed(order):
            node = self.nodes[nid]
            if node.kind == "u":
                continue
            kids = [self.nodes[c] for c in node.children]
            held = (kid.users if kid.kind == "k" else [kid.id] for kid in kids)
            expected = sorted((u for users in held for u in users), key=_user_sort_key)
            if node.users != expected:
                raise KeyTreeError(f"stale userset at {nid}")
            if (node.height, node.attach, node.split) != self._summary(node):
                raise KeyTreeError(f"stale height or join summary at {nid}")
        members = {nid: set(n.users) for nid, n in self.nodes.items() if n.kind == "k"}
        for uid in self.users():
            for kid in self.keyset(uid):
                if uid not in members[kid]:
                    raise KeyTreeError(f"duality broken for {uid} / {kid}")

    def clone(self) -> "KeyTree":
        other = KeyTree(self.degree, self.key_len)
        other.root = self.root
        other._counter = self._counter
        for nid, node in self.nodes.items():
            # usersets are copy-on-write, so the clone shares them
            other.nodes[nid] = replace(node, children=list(node.children))
        return other

    def to_dict(self, include_keys: bool = False) -> dict:
        """JSON-ready structure dump; key material redacted unless asked for."""
        nodes = []
        for nid in sorted(self.nodes, key=lambda i: self.nodes[i].created):
            node = self.nodes[nid]
            entry: dict = {"id": node.id, "kind": node.kind, "parent": node.parent}
            if node.kind == "k":
                entry["version"] = node.key.version if node.key else 0
                if include_keys and node.key:
                    entry["bits"] = node.key.bits
            nodes.append(entry)
        return {
            "degree": self.degree,
            "key_len": self.key_len,
            "root": self.root,
            "nodes": nodes,
        }

    def to_json(self, include_keys: bool = False) -> str:
        return json.dumps(self.to_dict(include_keys=include_keys), sort_keys=True)
