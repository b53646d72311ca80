"""Stateful model test: honest and attacked joins and leaves on one group.

Hypothesis drives one ``GroupProtocol`` through a sequence of events.  An
attacked event runs over an intercept-resend channel that taps a fraction
of the decoys, so some events abort after earlier sessions of the same
event succeeded.  Every rekey message is also opened per user by the
test oracle, on a copy of each recipient's view, and after every message
all views must equal the oracle's.  After every step the tree's caches
must match a recomputation and the whole-tree oracles, the delivered keys
must have settled at their own nodes, every view must match its keyset,
both secrecy games must hold and the committed counters must not shrink;
an aborted event must leave the tree exactly as a pre-event clone, children
order and node counter included, and the protocol's state untouched.  A
committed event must add to each member's archive exactly the keys the
member now holds and leave every departed user's archive as it was.
"""

from dataclasses import astuple

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from qgka.adversary import AdversarialChannel, EveStrategy
from qgka.keytree import KeyTree
from qgka.protocol import GroupProtocol, ProtocolAbort, ProtocolConfig

from oracle import UserView, apply_rekey, dfs_height, scan_join_point


class OracleDelivery(GroupProtocol):
    """A protocol whose every message is checked against per-user delivery."""

    def _deliver(self, message):
        expected = {u: dict(v.keys) for u, v in self.views.items()}
        for uid in message.recipients:
            view = UserView(uid, expected[uid].values())
            apply_rekey(view, message)
            expected[uid] = view.keys
        super()._deliver(message)
        assert {u: dict(v.keys) for u, v in self.views.items()} == expected


def tree_state(tree: KeyTree) -> tuple:
    return (
        tree.root,
        tree._counter,
        {nid: astuple(node) for nid, node in tree.nodes.items()},
    )


def protocol_state(proto: GroupProtocol) -> tuple:
    return (
        {u: dict(v.keys) for u, v in proto.views.items()},
        proto.counters.as_dict(),
        proto.step,
        {u: set(a) for u, a in proto.archives.items()},
        dict(proto.joined_at),
        dict(proto.departed),
        len(proto.probes),
    )


class GroupChurn(RuleBasedStateMachine):
    @initialize(
        degree=st.integers(2, 4), size=st.integers(2, 20), seed=st.integers(0, 2**16)
    )
    def build(self, degree, size, seed):
        rng = np.random.default_rng(seed)
        users = [f"u{i + 1}" for i in range(size)]
        tree = KeyTree.build_balanced(degree, users, 4, rng)
        config = ProtocolConfig(key_len=4, xi=0.5, track_history=True)
        self.proto = OracleDelivery(tree, config, rng)
        self.channel = AdversarialChannel(EveStrategy("intercept_resend", 0.15))
        self.next_uid = size + 1
        self.last_counters = self.proto.counters.as_dict()

    def event(self, kind: str, pick: int, attacked: bool) -> None:
        proto = self.proto
        if kind == "join":
            uid = f"u{self.next_uid}"
            self.next_uid += 1
        else:
            members = proto.tree.users()
            uid = members[pick % len(members)]
        tree_before = proto.tree.clone()
        before = protocol_state(proto)
        proto.channel = self.channel if attacked else None
        try:
            (proto.join if kind == "join" else proto.leave)(uid)
        except ProtocolAbort as exc:
            assert attacked and exc.cause == "eavesdropper"
            assert tree_state(proto.tree) == tree_state(tree_before)
            assert protocol_state(proto) == before
            return
        finally:
            proto.channel = None
        archives = before[3]  # protocol_state's archives
        for user, archive in proto.archives.items():
            expected = archives.get(user, set())
            if user in proto.views:
                expected = expected | set(map(astuple, proto.views[user].keys.values()))
            assert archive == expected, user

    @rule()
    def join(self):
        self.event("join", 0, attacked=False)

    @precondition(lambda self: self.proto.tree.group_size() > 2)
    @rule(pick=st.integers(0, 10**6))
    def leave(self, pick):
        self.event("leave", pick, attacked=False)

    @rule(pick=st.integers(0, 10**6), join=st.booleans())
    def attacked_event(self, pick, join):
        kind = "join" if join or self.proto.tree.group_size() <= 2 else "leave"
        self.event(kind, pick, attacked=True)

    @invariant()
    def tree_caches_match_the_oracles(self):
        tree = self.proto.tree
        tree.check_invariants()
        assert tree.height() == dfs_height(tree)
        assert tree.join_point() == scan_join_point(tree)

    @invariant()
    def delivered_keys_settle_at_their_own_nodes(self):
        assert not self.proto._entries.extra

    @invariant()
    def views_secrecy_and_counters_hold(self):
        report = self.proto.verify_consistency(check_secrecy=True)
        assert report["consistent"], report
        counters = self.proto.counters.as_dict()
        assert all(counters[k] >= v for k, v in self.last_counters.items())
        self.last_counters = counters


TestGroupChurn = GroupChurn.TestCase
TestGroupChurn.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
