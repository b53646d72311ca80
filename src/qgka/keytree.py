"""The tree key graph: k-nodes, keyset/userset duality, churn updates.

A key tree is a single-rooted tree of k-nodes.  Each user has one
individual key, a k-node without children, and every other k-node groups
two to ``degree`` child k-nodes.  The paper draws each user as a u-node with
one edge into her individual key (Wong, Gouda and Lam's key graph); in a
tree that edge says nothing the individual key does not, so a user is only
an entry of ``leaves``, her id mapped to her individual key's.  A user holds
exactly the keys on her path to the root (her keyset); dually, a key is
held by exactly the users in its subtree (its userset).  The root key is the
group key.

Membership changes touch only the path between the affected user and the
root:

* join: ``join_point`` names, without changing the tree, where the new
  user goes: the non-full parent of individual keys with the smallest
  subgroup, or, when every such parent is full, the shallowest smallest
  individual key, which ``insert_user`` splits under a fresh intermediate
  node (this may grow the height by one).  The new user's individual k-node
  attaches there, and the path from the join point to the root needs fresh
  key material;
* leave: the user's individual k-node is pruned, a parent left with a
  single child is merged into that child to keep the height tight, and the
  surviving path nodes need fresh key material; ``leave_path`` names them
  without changing the tree.  So no k-node ever has a single child k-node.

Every k-node caches, for its own subtree, its users as a rope, their count,
the height and the best join point and split target.  A rope is the user's
id at an individual key and the tuple of the children's ropes at any other
k-node, so a subtree lists its users in tree order (children in order); a
fresh tree lists them in the order ``build_balanced`` sorts them.  Each
cache depends on the node's children only, so a membership change refreshes
exactly its path, bottom up, in O(d * log_d N), and ``join_point``,
``height`` and ``stats`` read a cache in O(1).  Ropes are immutable (path
copying): a change builds new tuples along its path and never edits an old
one, so a rope read before an event still lists the users as they were.

The tree is single-writer: all mutations happen on one logical thread (the
server); read-only queries are safe concurrently between mutations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Optional, Sequence, Union

import numpy as np


class KeyTreeError(Exception):
    """Structural misuse: unknown ids, duplicate inserts, bad parameters."""


@dataclass(frozen=True)
class GroupKey:
    """Key material at one k-node.  Versions strictly increase per node."""

    key_id: str
    version: int
    bits: str


#: A subtree's users: the user id at an individual key, else the tuple of
#: the children's ropes.
Rope = Union[str, tuple]
#: A node's best join point in its subtree: (user count, created, id).
_Attach = tuple[int, int, str]
#: A node's best split target strictly below it: (depth below the node,
#: user count of the target's parent, created, id).
_Split = tuple[int, int, int, str]


@dataclass(slots=True)
class _Node:
    id: str
    parent: Optional[str] = None
    children: list[str] = field(default_factory=list)  # none at an individual key
    key: Optional[GroupKey] = None
    created: int = 0  # creation order, used for deterministic tie-breaking
    # caches of the subtree, refreshed along every changed path
    users: Rope = ()  # the subtree's rope; the user's id at an individual key
    count: int = 0  # users in the subtree
    height: int = 0  # 1 at an individual key, else 1 + the highest child's
    attach: Optional[_Attach] = None
    split: Optional[_Split] = None


def _user_sort_key(uid: str) -> tuple[int, str]:
    # natural-ish ordering so u2 < u10
    return (len(uid), uid)


def flatten(rope: Rope, out: Optional[list[str]] = None) -> list[str]:
    """A rope's users in tree order, appended to ``out``."""
    if out is None:
        out = []
    if type(rope) is str:
        out.append(rope)
        return out
    for part in rope:
        if type(part) is str:
            out.append(part)
        else:
            flatten(part, out)
    return out


def bits_text(bits: np.ndarray) -> str:
    """A 0/1 array as a string of '0' and '1', its rows end to end."""
    return (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def random_bits(n: int, rng: np.random.Generator) -> str:
    return bits_text(rng.integers(0, 2, size=n))


class KeyTree:
    """Mutable server-side key tree with key material per k-node."""

    def __init__(self, degree: int, key_len: int):
        if degree < 2:
            raise KeyTreeError(f"tree degree must be at least 2, got {degree}")
        if key_len < 1:
            raise KeyTreeError("key length must be at least 1 bit")
        self.degree = degree
        self.key_len = key_len
        self.nodes: dict[str, _Node] = {}  # k-nodes, in creation order
        self.leaves: dict[str, str] = {}  # user id -> individual key id
        self.root: Optional[str] = None
        self._counter = 0

    # ------------------------------------------------------------------ #
    # construction

    def _new_node(self) -> _Node:
        self._counter += 1
        node = _Node(id=f"k{self._counter}", created=self._counter)
        self.nodes[node.id] = node
        return node

    def set_key(self, key_id: str, bits: str) -> GroupKey:
        """Install new material at a k-node, bumping its version."""
        node = self._k_node(key_id)
        if len(bits) != self.key_len:
            raise KeyTreeError(
                f"key material must be {self.key_len} bits, got {len(bits)}"
            )
        version = node.key.version + 1 if node.key else 1
        node.key = GroupKey(node.id, version, bits)
        return node.key

    # ------------------------------------------------------------------ #
    # lookups

    def _k_node(self, key_id: str) -> _Node:
        node = self.nodes.get(key_id)
        if node is None:
            raise KeyTreeError(f"unknown key node {key_id!r}")
        return node

    def has_user(self, user_id: str) -> bool:
        return user_id in self.leaves

    def users(self) -> list[str]:
        """Every member, in tree order (a copy)."""
        return flatten(self.nodes[self.root].users) if self.root else []

    def key_nodes(self) -> list[str]:
        return list(self.nodes)

    def group_size(self) -> int:
        return self.nodes[self.root].count if self.root else 0

    def key(self, key_id: str) -> GroupKey:
        node = self._k_node(key_id)
        if node.key is None:
            raise KeyTreeError(f"key node {key_id} has no material yet")
        return node.key

    def individual_key(self, user_id: str) -> str:
        """The user's own leaf k-node."""
        leaf = self.leaves.get(user_id)
        if leaf is None:
            raise KeyTreeError(f"unknown user {user_id!r}")
        return leaf

    def child_keys(self, key_id: str) -> list[str]:
        """Child k-nodes of a key node, none at an individual key."""
        return list(self._k_node(key_id).children)

    def path(self, node_id: str) -> list[str]:
        """The node and every node above it, root last."""
        path = [node_id]
        while (parent := self.nodes[path[-1]].parent) is not None:
            path.append(parent)
        return path

    def keyset(self, user_id: str) -> list[str]:
        """K-nodes on the user's path, individual key first, root last."""
        return self.path(self.individual_key(user_id))

    def userset(self, key_id: str) -> list[str]:
        """Users in the key node's subtree, in tree order (a copy)."""
        return flatten(self._k_node(key_id).users)

    def rope(self, key_id: str) -> Rope:
        """The key node's users as a rope; it keeps listing them as they
        are now after later changes (``flatten`` lists them)."""
        return self._k_node(key_id).users

    def user_at(self, key_id: str, i: int, skip: Collection[str] = ()) -> str:
        """The ``i``-th user under a k-node in tree order, in O(d * h).

        ``skip`` holds a user's keyset; that user is not counted, so ``i``
        runs below the subtree's count minus one.
        """
        node = self._k_node(key_id)
        while node.height > 1:
            for child in node.children:
                kid = self.nodes[child]
                count = kid.count - (child in skip)
                if i < count:
                    break
                i -= count
            else:
                raise IndexError(f"no user {i} past the end under {key_id}")
            node = kid
        return node.users  # type: ignore[return-value]

    def height(self) -> int:
        """Edges along the longest user to root path, a user's edge into
        her individual key counted."""
        return self.nodes[self.root].height if self.root else 0

    def stats(self) -> dict[str, int]:
        return {"N": self.group_size(), "h": self.height(), "d": self.degree}

    # ------------------------------------------------------------------ #
    # cached subtree summaries

    def _summary(
        self, node: _Node
    ) -> tuple[Rope, int, int, Optional[_Attach], Optional[_Split]]:
        """A k-node's (rope, count, height, attach, split), from its
        children's caches.

        ``attach`` is the subtree's non-full parent of individual keys with
        the fewest users, then the earliest created; ``split`` is the
        subtree's individual key with the smallest (depth, parent's user
        count, creation), the depth counted from this node.  An individual
        key (height 1) has neither: its parent accounts for it.
        """
        if not node.children:
            return node.users, 1, 1, None, None
        kids = [self.nodes[c] for c in node.children]
        rope = tuple([kid.users for kid in kids])
        count = sum([kid.count for kid in kids])
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
            return rope, count, height + 1, attach, (depth + 1, *rest)
        # an individual child, at depth 1, beats every deeper split target
        if len(kids) < self.degree:
            own = (count, node.created, node.id)
            if attach is None or own < attach:
                attach = own
        return rope, count, height + 1, attach, (1, count, first.created, first.id)

    def _refresh(self, path: list[str]) -> list[str]:
        """Recompute every cache along ``path``, deepest first; returns it."""
        for node_id in path:
            node = self.nodes[node_id]
            node.users, node.count, node.height, node.attach, node.split = (
                self._summary(node)
            )
        return path

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
        tree.root = tree._build(sorted(users, key=_user_sort_key), 0, len(users))
        k_nodes = list(tree.nodes.values())
        rows = max(1, 2**14 // key_len)
        for start in range(0, len(k_nodes), rows):
            block = k_nodes[start : start + rows]
            draw = rng.integers(0, 2, size=(len(block), key_len))
            text = bits_text(draw)
            for i, node in enumerate(block):
                node.key = GroupKey(node.id, 1, text[i * key_len : (i + 1) * key_len])
        return tree

    def _leaf_for(self, user_id: str) -> str:
        """Create the user's individual k-node, returning its id.

        The creation number before the k-node's stays unused, where the
        paper's key graph has the user's u-node, so key ids and the order
        ``to_dict`` lists are those of a tree that keeps u-nodes.
        """
        self._counter += 1
        k = self._new_node()
        self.leaves[user_id] = k.id
        k.users, k.count, k.height = user_id, 1, 1
        return k.id

    def _build(self, users: list[str], lo: int, hi: int) -> str:
        """Keyless subtree over ``users[lo:hi]``, in that order."""
        n = hi - lo
        if n == 1:
            return self._leaf_for(users[lo])
        if n <= self.degree:
            sizes = [1] * n
        else:
            groups = min(self.degree, max(2, n // 2))
            q, r = divmod(n, groups)
            sizes = [q + 1] * r + [q] * (groups - r)
        parent = self._new_node()
        for size in sizes:
            child = self._build(users, lo, lo + size)
            self.nodes[child].parent = parent.id
            parent.children.append(child)
            lo += size
        self._refresh([parent.id])
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

    def insert_user(self, user_id: str, bits: str) -> list[str]:
        """Attach a new user and return the path k-nodes needing fresh keys.

        The user joins at ``join_point``; on a split the fresh k-node takes
        the target's place, holds the target and the new user's individual
        key, and gets no key material here.  The update list runs from the
        join point up to the root (deepest first).  The user's individual
        key takes ``bits``, standing in for a key pre-shared with the server
        at registration; it is not part of the update list.
        """
        if user_id in self.leaves:
            raise KeyTreeError(f"user {user_id!r} already present")
        if len(bits) != self.key_len:
            raise KeyTreeError(
                f"key material must be {self.key_len} bits, got {len(bits)}"
            )
        kind, point_id = self.join_point()
        point = self.nodes[point_id]
        if kind == "split":
            target, point = point, self._new_node()
            if target.parent is None:
                self.root = point.id
            else:
                grand = self.nodes[target.parent]
                grand.children[grand.children.index(target.id)] = point.id
                point.parent = grand.id
            target.parent = point.id
            point.children.append(target.id)
        leaf = self._leaf_for(user_id)
        self.set_key(leaf, bits)
        self.nodes[leaf].parent = point.id
        point.children.append(leaf)
        return self._refresh(self.path(point.id))

    def leave_path(self, user_id: str) -> list[str]:
        """The update list ``remove_user`` returns, without changing the tree:
        the user's parent k-node and its ancestors, the parent replaced by
        its surviving child when the leave merges the two."""
        leaf = self.nodes[self.individual_key(user_id)]
        if self.group_size() == 1:
            raise KeyTreeError("cannot remove the only user")
        path = self.path(leaf.parent)  # type: ignore[arg-type]
        siblings = [c for c in self.nodes[path[0]].children if c != leaf.id]
        if len(siblings) == 1:
            path[0] = siblings[0]
        return path

    def remove_user(self, user_id: str) -> list[str]:
        """Prune a user and return the surviving path k-nodes needing fresh keys.

        The user and her individual key vanish.  If the parent k-node is
        left with a single child it is merged into that child (the child
        takes its place; the absorbing child then stands in for it on the
        update list).  The update list, ``leave_path``'s, runs deepest first
        up to the root.
        """
        path = self.leave_path(user_id)
        leaf = self.nodes[self.individual_key(user_id)]
        parent = self.nodes[leaf.parent]  # type: ignore[index]
        parent.children.remove(leaf.id)
        del self.leaves[user_id], self.nodes[leaf.id]
        if path[0] != parent.id:
            # merge the parent into its only child, whose subtree is unchanged
            child = self.nodes[path[0]]
            child.parent = parent.parent
            if parent.parent is None:
                self.root = child.id
            else:
                grand = self.nodes[parent.parent]
                grand.children[grand.children.index(parent.id)] = child.id
            del self.nodes[parent.id]
        return self._refresh(path)

    # ------------------------------------------------------------------ #
    # validation and serialization

    def check_invariants(self) -> None:
        """Raise when any structural invariant or cache is wrong (test hook).

        Every cached rope, count, height and summary is recomputed from the
        node's children, children first, and ``leaves`` must map each user
        to the one individual key whose rope is her id.  With the edges
        checked, the ropes give the keyset/userset duality.
        """
        if self.root is None:
            raise KeyTreeError("no root")
        if self.nodes[self.root].parent is not None:
            raise KeyTreeError("root has a parent")
        order: list[str] = []
        seen: set[str] = set()
        individual = 0
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise KeyTreeError(f"cycle at {nid}")
            seen.add(nid)
            order.append(nid)
            node = self.nodes[nid]
            if len(node.children) > self.degree:
                raise KeyTreeError(f"degree bound violated at {nid}")
            if len(node.children) == 1:
                raise KeyTreeError(f"k-node {nid} has a single child")
            if not node.children:
                individual += 1
                if self.leaves.get(node.users) != nid:  # type: ignore[call-overload]
                    raise KeyTreeError(f"individual key {nid} is not its user's")
            for c in node.children:
                if self.nodes[c].parent != nid:
                    raise KeyTreeError(f"broken edge {nid} -> {c}")
            stack.extend(node.children)
        if seen != set(self.nodes):
            raise KeyTreeError("unreachable nodes present")
        if individual != len(self.leaves):
            raise KeyTreeError("a user has no individual key in the tree")
        for nid in reversed(order):
            node = self.nodes[nid]
            cached = (node.users, node.count, node.height, node.attach, node.split)
            if cached != self._summary(node):
                raise KeyTreeError(f"stale rope, count or summary at {nid}")

    def clone(self) -> "KeyTree":
        other = KeyTree(self.degree, self.key_len)
        other.root = self.root
        other._counter = self._counter
        other.leaves = dict(self.leaves)
        for nid, node in self.nodes.items():
            # ropes are immutable, so the clone shares them
            other.nodes[nid] = replace(node, children=list(node.children))
        return other

    def to_dict(self, include_keys: bool = False) -> dict:
        """JSON-ready structure dump; key material redacted unless asked for.

        The nodes are listed in creation order as the paper's key graph has
        them: each user as a u-node right before her individual key.
        """
        nodes = []
        for node in self.nodes.values():
            if not node.children:
                nodes.append({"id": node.users, "kind": "u", "parent": node.id})
            entry: dict = {"id": node.id, "kind": "k", "parent": node.parent}
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
