"""Tree structure, keyset/userset duality, join points, and churn stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgka.keytree import KeyTree, KeyTreeError, flatten, random_bits

from oracle import depth, per_node_keys


def build(d, N, seed=1, n=1):
    rng = np.random.default_rng(seed)
    return KeyTree.build_balanced(d, [f"u{i + 1}" for i in range(N)], n, rng), rng


class TestBuild:
    def test_nine_users_degree_three(self):
        tree, _ = build(3, 9)
        assert tree.height() == 3
        # full balanced tree: (d^h - 1) / (d - 1) key nodes
        assert len(tree.key_nodes()) == (3**3 - 1) // 2 == 13
        tree.check_invariants()

    def test_single_user(self):
        tree, _ = build(2, 1)
        assert tree.height() == 1
        assert len(tree.key_nodes()) == 1
        assert tree.keyset("u1") == [tree.root]

    def test_64_users_degree_four(self):
        tree, _ = build(4, 64)
        assert tree.height() == 4
        assert len(tree.key_nodes()) == (4**4 - 1) // 3 == 85

    def test_eight_users_degree_three_shape(self):
        # the worked nine-user tree before its last member arrives:
        # subgroups of 3, 3, and 2
        tree, _ = build(3, 8)
        sizes = sorted(len(tree.userset(c)) for c in tree.child_keys(tree.root))
        assert sizes == [2, 3, 3]

    def test_degree_too_small(self):
        with pytest.raises(KeyTreeError):
            KeyTree(1, 1)

    def test_duplicate_users(self):
        rng = np.random.default_rng(0)
        with pytest.raises(KeyTreeError):
            KeyTree.build_balanced(2, ["a", "a"], 1, rng)

    @pytest.mark.parametrize(
        "d, users", [(3, ["k3", "u1", "u2"]), (2, ["k2", "k3", "k9", "u1", "u2"])]
    )
    def test_user_ids_shaped_like_key_ids(self, d, users):
        # user ids and key ids live in separate maps: a user may be named
        # like a key
        tree = KeyTree.build_balanced(d, users, 1, np.random.default_rng(0))
        tree.check_invariants()
        assert set(users) & set(tree.key_nodes())
        assert sorted(tree.users()) == sorted(users)
        for uid in users:
            assert tree.userset(tree.individual_key(uid)) == [uid]

    @given(d=st.integers(2, 5), N=st.integers(1, 40))
    @settings(max_examples=40)
    def test_invariants_hold_for_any_size(self, d, N):
        tree, _ = build(d, N, seed=d * 100 + N)
        tree.check_invariants()
        assert tree.group_size() == N
        if N > 1:
            assert tree.height() <= math.ceil(math.log(N, d)) + 1


@pytest.mark.parametrize("N", [1, 2, 5, 100])
@pytest.mark.parametrize("key_len", [1, 3, 16, 300])  # 300: several draws
def test_balanced_keys_match_per_node_draws(N, key_len):
    users = [f"u{i + 1}" for i in range(N)]
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    tree = KeyTree.build_balanced(3, users, key_len, rng)
    expected = per_node_keys(tree, reference)
    assert {kid: tree.key(kid) for kid in tree.key_nodes()} == expected
    assert rng.bit_generator.state == reference.bit_generator.state


class TestKeysetUserset:
    def test_keyset_runs_leaf_to_root(self):
        tree, _ = build(3, 9)
        ks = tree.keyset("u9")
        assert len(ks) == 3
        assert ks[0] == tree.individual_key("u9")
        assert ks[-1] == tree.root
        assert tree.userset(ks[0]) == ["u9"]

    def test_userset_of_root_is_everyone(self):
        tree, _ = build(3, 9)
        assert tree.userset(tree.root) == [f"u{i + 1}" for i in range(9)]

    def test_leaf_parent_userset(self):
        tree, _ = build(3, 9)
        # the parent of u9's individual key covers exactly its siblings
        parent = tree.nodes[tree.individual_key("u9")].parent
        assert tree.userset(parent) == ["u7", "u8", "u9"]

    def test_keyset_length_equals_depth(self):
        tree, _ = build(3, 8)
        for uid in tree.users():
            assert len(tree.keyset(uid)) == depth(tree, tree.individual_key(uid)) + 1

    def test_unknown_ids(self):
        tree, _ = build(2, 4)
        with pytest.raises(KeyTreeError):
            tree.keyset("nobody")
        with pytest.raises(KeyTreeError):
            tree.userset("k999")

    def test_duality(self):
        tree, _ = build(3, 9)
        for uid in tree.users():
            for kid in tree.keyset(uid):
                assert uid in tree.userset(kid)
        for kid in tree.key_nodes():
            for uid in tree.userset(kid):
                assert kid in tree.keyset(uid)


class TestJoinPoint:
    def test_smallest_subgroup_wins(self):
        tree, _ = build(3, 8)
        kind, point = tree.join_point()
        assert kind == "attach"
        assert sorted(tree.userset(point)) == ["u7", "u8"]

    def test_unique_open_slot(self):
        tree, rng = build(3, 9)
        tree.remove_user("u5")
        kind, point = tree.join_point()
        assert kind == "attach"
        assert len(tree.userset(point)) == 2  # the hole left by u5

    def test_full_tree_splits(self):
        tree, rng = build(2, 4)
        before = set(tree.key_nodes())
        kind, target = tree.join_point()
        assert kind == "split" and tree.child_keys(target) == []
        path = tree.insert_user("u5", random_bits(tree.key_len, rng))
        # a fresh intermediate node holds the displaced individual key and
        # the new user's
        point = path[0]
        assert point not in before
        assert tree.child_keys(point) == [target, tree.individual_key("u5")]
        tree.check_invariants()

    def test_split_prefers_shallow_individuals(self):
        # 3 users at degree 2: u3's individual key hangs right under the
        # root, so pairing there keeps the tree balanced
        tree, rng = build(2, 3)
        assert tree.join_point() == ("split", tree.individual_key("u3"))
        tree.insert_user("u4", random_bits(tree.key_len, rng))
        assert tree.height() == 3
        tree.check_invariants()

    @pytest.mark.parametrize("d, N", [(3, 8), (2, 4), (2, 1)])
    def test_query_changes_nothing(self, d, N):
        # an attach tree, a split tree and a lone individual root
        tree, _ = build(d, N)
        before = tree.to_dict(include_keys=True), tree._counter
        tree.join_point()
        assert (tree.to_dict(include_keys=True), tree._counter) == before
        tree.check_invariants()


class TestInsertRemove:
    def test_insert_ninth_user(self):
        tree, rng = build(3, 8)
        path = tree.insert_user("u9", random_bits(tree.key_len, rng))
        assert len(path) == 2  # subgroup key and group key
        assert path[-1] == tree.root
        assert tree.userset(path[0]) == ["u7", "u8", "u9"]
        assert len(tree.keyset("u9")) == 3
        tree.check_invariants()

    def test_remove_ninth_user(self):
        tree, rng = build(3, 9)
        leaf_parent = tree.nodes[tree.individual_key("u9")].parent
        path = tree.remove_user("u9")
        assert path == [leaf_parent, tree.root]
        assert tree.userset(leaf_parent) == ["u7", "u8"]
        tree.check_invariants()

    def test_remove_merges_single_child(self):
        tree, rng = build(2, 2)
        path = tree.remove_user("u2")
        assert tree.group_size() == 1
        assert path == [tree.root]
        assert tree.keyset("u1") == [tree.root]
        tree.check_invariants()

    def test_duplicate_insert(self):
        tree, rng = build(2, 2)
        with pytest.raises(KeyTreeError):
            tree.insert_user("u1", random_bits(tree.key_len, rng))

    @pytest.mark.parametrize("bits", ["", "10", "1" * 5], ids=["empty", "short", "long"])
    @pytest.mark.parametrize("d, N", [(3, 8), (2, 4)])  # attach, split
    def test_wrong_length_registration_refused_before_any_change(self, d, N, bits):
        tree, _ = build(d, N, n=4)
        before = tree.to_dict(include_keys=True), tree._counter
        with pytest.raises(KeyTreeError, match="4 bits"):
            tree.insert_user(f"u{N + 1}", bits)
        assert (tree.to_dict(include_keys=True), tree._counter) == before
        tree.check_invariants()

    def test_insert_user_named_like_a_key(self):
        tree, rng = build(2, 4)
        name = tree.root
        tree.insert_user(name, random_bits(tree.key_len, rng))
        tree.check_invariants()
        assert tree.keyset(name)[-1] == name != tree.individual_key(name)
        tree.remove_user(name)
        tree.check_invariants()
        assert tree.root == name and not tree.has_user(name)

    def test_remove_unknown(self):
        tree, _ = build(2, 2)
        with pytest.raises(KeyTreeError):
            tree.remove_user("u99")

    def test_remove_last_user_refused(self):
        tree, _ = build(2, 1)
        with pytest.raises(KeyTreeError):
            tree.remove_user("u1")

    def test_versions_bump_on_set_key(self):
        tree, _ = build(2, 4)
        kid = tree.root
        v0 = tree.key(kid).version
        tree.set_key(kid, "1")
        assert tree.key(kid).version == v0 + 1

    def test_update_list_bound_under_churn(self):
        # randomized churn; the update list never exceeds ceil(log_d N) + 1
        rng = np.random.default_rng(99)
        tree, _ = build(3, 9, seed=5)
        next_uid = 10
        splits = merges = 0
        for step in range(1000):
            if rng.random() < 0.5 or tree.group_size() <= 2:
                # the pure queries name as many keys as the insert updates
                kind, point = tree.join_point()
                count = len(tree.path(point))
                path = tree.insert_user(f"u{next_uid}", random_bits(tree.key_len, rng))
                assert len(path) == count
                splits += kind == "split"
                next_uid += 1
            else:
                victim = tree.users()[int(rng.integers(tree.group_size()))]
                merges += len(tree.child_keys(tree.keyset(victim)[1])) == 2
                predicted = tree.leave_path(victim)
                path = tree.remove_user(victim)
                assert predicted == path
            N = tree.group_size()
            assert len(path) <= math.ceil(math.log(max(N, 2), 3)) + 1
        assert splits and merges
        tree.check_invariants()
        # duality still holds everywhere after the churn
        for uid in tree.users():
            for kid in tree.keyset(uid):
                assert uid in tree.userset(kid)

    def test_usersets_read_earlier_stay_as_read(self):
        # ropes are immutable: one read before a change still lists the
        # users it listed then, in tree order, where a joiner sits at her
        # leaf's place: u10 splits u1's individual key
        tree, rng = build(3, 9)
        root = tree.root
        before = tree.rope(root)
        tree.insert_user("u10", random_bits(tree.key_len, rng))
        joined = tree.rope(root)
        tree.remove_user("u3")
        fresh = [f"u{i + 1}" for i in range(9)]
        assert flatten(before) == fresh
        assert flatten(joined) == ["u1", "u10", *fresh[1:]]
        assert tree.users() == ["u1", "u10", "u2", *fresh[3:]]
        assert tree.userset(tree.individual_key("u10")) == ["u10"]
        tree.check_invariants()

    @staticmethod
    def churned(d, seed, events=300):
        """A tree built at 12 users and churned by random joins and leaves."""
        rng = np.random.default_rng(seed)
        tree, _ = build(d, 12, seed=seed)
        for step in range(events):
            if rng.random() < 0.5 or tree.group_size() <= 2:
                tree.insert_user(f"u{13 + step}", random_bits(tree.key_len, rng))
            else:
                users = tree.users()
                tree.remove_user(users[int(rng.integers(len(users)))])
        tree.check_invariants()
        return tree

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_user_at_counts_past_the_leaver(self, d):
        tree = self.churned(d, seed=d)
        for leaver in tree.users():
            skip = tree.keyset(leaver)
            for key_id in skip[1:]:  # her parent k-node and up
                expected = [u for u in tree.userset(key_id) if u != leaver]
                got = [tree.user_at(key_id, i, skip) for i in range(len(expected))]
                assert got == expected, (leaver, key_id)
                with pytest.raises(IndexError):
                    tree.user_at(key_id, len(expected), skip)
        for key_id in tree.key_nodes():
            users = tree.userset(key_id)
            assert [tree.user_at(key_id, i) for i in range(len(users))] == users

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_remove_user_applies_leave_path(self, d):
        tree = self.churned(d, seed=10 + d)
        for leaver in tree.users():
            copy = tree.clone()
            assert copy.remove_user(leaver) == tree.leave_path(leaver)
            copy.check_invariants()
        lone, _ = build(d, 1)
        for t, uid in ((tree, "nobody"), (lone, "nobody"), (lone, "u1")):
            with pytest.raises(KeyTreeError) as a:
                t.leave_path(uid)
            with pytest.raises(KeyTreeError) as b:
                t.remove_user(uid)
            assert str(a.value) == str(b.value)

    def test_clone_is_independent(self):
        tree, rng = build(2, 4)
        copy = tree.clone()
        tree.insert_user("u5", random_bits(tree.key_len, rng))
        assert copy.group_size() == 4
        assert tree.group_size() == 5
        copy.check_invariants()

    def test_single_child_k_node_rejected(self):
        # a k-node over one individual key, as a split that attached no one
        # would leave behind
        tree, _ = build(2, 1)
        lone = tree.nodes[tree.root]
        fresh = tree._new_node()
        fresh.children = [lone.id]
        lone.parent, tree.root = fresh.id, fresh.id
        fresh.users, fresh.count, fresh.height, fresh.attach, fresh.split = (
            tree._summary(fresh)
        )
        with pytest.raises(KeyTreeError, match="single child"):
            tree.check_invariants()

    @pytest.mark.parametrize("plant", ["departed", "swapped"])
    def test_stale_user_entry_rejected(self, plant):
        tree, _ = build(3, 9)
        if plant == "departed":
            leaf = tree.individual_key("u9")
            tree.remove_user("u9")
            tree.leaves["u9"] = leaf
        else:
            leaves = tree.leaves
            leaves["u1"], leaves["u2"] = leaves["u2"], leaves["u1"]
        with pytest.raises(KeyTreeError):
            tree.check_invariants()


class TestSerialization:
    def test_redacts_key_material_by_default(self):
        tree, _ = build(2, 2)
        doc = tree.to_dict()
        assert all("bits" not in node for node in doc["nodes"])
        doc = tree.to_dict(include_keys=True)
        assert any("bits" in node for node in doc["nodes"])

    def test_json_round_trip_structure(self):
        import json

        tree, _ = build(3, 9)
        doc = json.loads(json.dumps(tree.to_dict()))
        assert doc["root"] == tree.root
        assert len([n for n in doc["nodes"] if n["kind"] == "k"]) == 13
