"""The tree key graph: u-nodes, k-nodes, keyset/userset duality, churn updates.

A key tree is a single-rooted DAG.  Each user owns a u-node with exactly one
outgoing edge into her individual leaf k-node, and internal k-nodes group up
to ``degree`` child k-nodes apiece.  A user holds exactly the keys on her
path to the root (her keyset); dually, a key is held by exactly the users in
its subtree (its userset).  The root key is the group key.

Membership changes touch only the path between the affected user and the
root:

* join: the new user's individual k-node attaches at the join point (the
  non-full parent of individual keys with the smallest subgroup; when every
  such parent is full, the shallowest smallest individual key is split under
  a fresh intermediate node, which may grow the height by one), and the path
  from the join point to the root needs fresh key material;
* leave: the user's u-node and individual k-node are pruned, any k-node left
  with a single child is merged into that child to keep the height tight,
  and the surviving path nodes need fresh key material.

The tree is single-writer: all mutations happen on one logical thread (the
server); read-only queries are safe concurrently between mutations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


@dataclass
class _Node:
    id: str
    kind: str  # "u" or "k"
    parent: Optional[str] = None
    children: list[str] = field(default_factory=list)
    key: Optional[GroupKey] = None
    created: int = 0  # creation order, used for deterministic tie-breaking
    user_count: int = 0  # users in this subtree, kept current on mutation


def _user_sort_key(uid: str) -> tuple[int, str]:
    # natural-ish ordering so u2 < u10
    return (len(uid), uid)


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
        self._individuals: set[str] = set()  # k-nodes holding a single u-node

    # ------------------------------------------------------------------ #
    # construction

    def _new_node(self, kind: str, node_id: Optional[str] = None) -> _Node:
        self._counter += 1
        nid = node_id if node_id is not None else f"k{self._counter}"
        if nid in self.nodes:
            raise KeyTreeError(f"duplicate node id {nid}")
        node = _Node(id=nid, kind=kind, created=self._counter)
        self.nodes[nid] = node
        return node

    def _attach(self, child: str, parent: str) -> None:
        self.nodes[child].parent = parent
        self.nodes[parent].children.append(child)
        count = self.nodes[child].user_count
        node: Optional[_Node] = self.nodes[parent]
        while node is not None:
            node.user_count += count
            node = self.nodes[node.parent] if node.parent else None

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
        return sorted(
            (n.id for n in self.nodes.values() if n.kind == "u"), key=_user_sort_key
        )

    def key_nodes(self) -> list[str]:
        return [n.id for n in self.nodes.values() if n.kind == "k"]

    def group_size(self) -> int:
        return self.nodes[self.root].user_count if self.root else 0

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

    def _is_individual(self, node: _Node) -> bool:
        return node.id in self._individuals

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

    def userset(self, key_id: str) -> list[str]:
        """Users in the key node's subtree, in stable user order."""
        found: list[str] = []
        stack = [self._k_node(key_id).id]
        while stack:
            nid = stack.pop()
            node = self.nodes[nid]
            if node.kind == "u":
                found.append(nid)
            else:
                stack.extend(node.children)
        return sorted(found, key=_user_sort_key)

    def depth(self, node_id: str) -> int:
        d, node = 0, self.nodes[node_id]
        while node.parent is not None:
            d += 1
            node = self.nodes[node.parent]
        return d

    def height(self) -> int:
        """Edges along the longest u-node to root path (single DFS)."""
        if self.root is None:
            return 0
        best = 0
        stack = [(self.root, 0)]
        while stack:
            nid, depth = stack.pop()
            node = self.nodes[nid]
            if node.kind == "u":
                best = max(best, depth)
            else:
                stack.extend((c, depth + 1) for c in node.children)
        return best

    def stats(self) -> dict[str, int]:
        return {"N": self.group_size(), "h": self.height(), "d": self.degree}

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
        individual key is also the root (height 1).
        """
        if not users:
            raise KeyTreeError("cannot build a tree with no users")
        if len(set(users)) != len(users):
            raise KeyTreeError("user ids must be unique")
        tree = cls(degree, key_len)
        tree.root = tree._build(sorted(users, key=_user_sort_key), rng)
        return tree

    def _leaf_for(self, user_id: str, rng: np.random.Generator) -> str:
        """Create a u-node plus its individual k-node, returning the k-node."""
        u = self._new_node("u", node_id=user_id)
        u.user_count = 1
        k = self._new_node("k")
        self.set_key(k.id, random_bits(self.key_len, rng))
        self._attach(u.id, k.id)
        self._individuals.add(k.id)
        return k.id

    def _build(self, users: Sequence[str], rng: np.random.Generator) -> str:
        if len(users) == 1:
            return self._leaf_for(users[0], rng)
        if len(users) <= self.degree:
            parent = self._new_node("k")
            self.set_key(parent.id, random_bits(self.key_len, rng))
            for uid in users:
                self._attach(self._leaf_for(uid, rng), parent.id)
            return parent.id
        groups = min(self.degree, max(2, len(users) // 2))
        q, r = divmod(len(users), groups)
        sizes = [q + 1] * r + [q] * (groups - r)
        parent = self._new_node("k")
        self.set_key(parent.id, random_bits(self.key_len, rng))
        start = 0
        for size in sizes:
            self._attach(self._build(users[start : start + size], rng), parent.id)
            start += size
        return parent.id

    # ------------------------------------------------------------------ #
    # membership changes

    def _attachable(self) -> list[_Node]:
        """K-nodes that can take another individual key directly."""
        parents = {
            self.nodes[k].parent for k in self._individuals if self.nodes[k].parent
        }
        return [
            self.nodes[p]
            for p in parents
            if len(self.nodes[p].children) < self.degree
        ]

    def join_point(self) -> str:
        """Choose (and if necessary create) the k-node a new user attaches to.

        Preference goes to the non-full parent of individual keys with the
        smallest subgroup, ties broken by creation order.  When every such
        parent is full the tree is split: the shallowest individual key with
        the smallest surrounding subgroup is displaced under a fresh
        intermediate k-node, which becomes the join point (the height of that
        branch grows by one).  The fresh node carries no key material; the
        membership event that triggered the split is expected to generate it.
        """
        if self.root is None:
            raise KeyTreeError("empty tree")
        candidates = self._attachable()
        if candidates:
            chosen = min(candidates, key=lambda n: (n.user_count, n.created))
            return chosen.id
        individuals = [self.nodes[k] for k in self._individuals]
        target = min(
            individuals,
            key=lambda n: (
                self.depth(n.id),
                self.nodes[n.parent].user_count if n.parent else 1,
                n.created,
            ),
        )
        fresh = self._new_node("k")
        fresh.user_count = target.user_count
        parent = target.parent
        if parent is None:
            self.root = fresh.id
        else:
            siblings = self.nodes[parent].children
            siblings[siblings.index(target.id)] = fresh.id
            fresh.parent = parent
        target.parent = fresh.id
        fresh.children.append(target.id)
        return fresh.id

    def insert_user(
        self, user_id: str, rng: np.random.Generator
    ) -> list[str]:
        """Attach a new user and return the path k-nodes needing fresh keys.

        The update list runs from the join point up to the root (deepest
        first).  The user's individual key gets fresh random material here,
        standing in for a key pre-shared with the server at registration; it
        is not part of the update list.
        """
        if user_id in self.nodes:
            raise KeyTreeError(f"user {user_id!r} already present")
        point = self.join_point()
        leaf = self._leaf_for(user_id, rng)
        self._attach(leaf, point)
        path = []
        node: Optional[_Node] = self.nodes[point]
        while node is not None:
            path.append(node.id)
            node = self.nodes[node.parent] if node.parent else None
        return path

    def remove_user(self, user_id: str) -> list[str]:
        """Prune a user and return the surviving path k-nodes needing fresh keys.

        The user's u-node and individual key vanish.  If her parent k-node is
        left with a single child it is merged into that child (the child takes
        its place; the absorbing child then stands in for it on the update
        list).  The update list runs deepest first up to the root.
        """
        u = self._u_node(user_id)
        if self.group_size() < 2:
            raise KeyTreeError("cannot remove the only user")
        leaf = self.nodes[u.parent]  # type: ignore[index]
        path_above = []
        node = self.nodes[leaf.parent] if leaf.parent else None
        while node is not None:
            path_above.append(node.id)
            node = self.nodes[node.parent] if node.parent else None
        if not path_above:
            raise KeyTreeError("cannot remove the only user")

        # prune the u-node and its individual key
        node: Optional[_Node] = self.nodes[leaf.parent]  # type: ignore[index]
        while node is not None:
            node.user_count -= 1
            node = self.nodes[node.parent] if node.parent else None
        parent = self.nodes[leaf.parent]  # type: ignore[index]
        parent.children.remove(leaf.id)
        del self.nodes[leaf.id]
        del self.nodes[u.id]
        self._individuals.discard(leaf.id)

        # merge the parent into its child if a single child remains
        updated = list(path_above)
        if len(parent.children) == 1:
            child_id = parent.children[0]
            child = self.nodes[child_id]
            grand = parent.parent
            child.parent = grand
            if grand is None:
                self.root = child_id
            else:
                kids = self.nodes[grand].children
                kids[kids.index(parent.id)] = child_id
            del self.nodes[parent.id]
            updated[0] = child_id
        return updated

    # ------------------------------------------------------------------ #
    # validation and serialization

    def check_invariants(self) -> None:
        """Raise when any structural invariant is violated (test hook)."""
        if self.root is None:
            raise KeyTreeError("no root")
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise KeyTreeError(f"cycle at {nid}")
            seen.add(nid)
            node = self.nodes[nid]
            if node.kind == "k":
                k_children = [c for c in node.children if self.nodes[c].kind == "k"]
                if len(k_children) > self.degree:
                    raise KeyTreeError(f"degree bound violated at {nid}")
                for c in node.children:
                    if self.nodes[c].parent != nid:
                        raise KeyTreeError(f"broken edge {nid} -> {c}")
                stack.extend(node.children)
            else:
                if node.children:
                    raise KeyTreeError(f"u-node {nid} has children")
        if seen != set(self.nodes):
            raise KeyTreeError("unreachable nodes present")
        for nid in seen:
            node = self.nodes[nid]
            if node.kind == "k":
                actual = len(self.userset(nid))
                if node.user_count != actual:
                    raise KeyTreeError(
                        f"stale user count at {nid}: {node.user_count} != {actual}"
                    )
                is_ind = len(node.children) == 1 and (
                    self.nodes[node.children[0]].kind == "u"
                )
                if is_ind != (nid in self._individuals):
                    raise KeyTreeError(f"individual index stale at {nid}")
        for uid in self.users():
            ks = self.keyset(uid)
            for kid in ks:
                if uid not in self.userset(kid):
                    raise KeyTreeError(f"duality broken for {uid} / {kid}")

    def clone(self) -> "KeyTree":
        other = KeyTree(self.degree, self.key_len)
        other.root = self.root
        other._counter = self._counter
        other._individuals = set(self._individuals)
        for nid, node in self.nodes.items():
            other.nodes[nid] = _Node(
                id=node.id,
                kind=node.kind,
                parent=node.parent,
                children=list(node.children),
                key=node.key,
                created=node.created,
                user_count=node.user_count,
            )
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
