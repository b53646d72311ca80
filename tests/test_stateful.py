"""Stateful model test: honest and attacked joins and leaves on one group.

Hypothesis drives one ``GroupProtocol`` through a sequence of events.  An
attacked event runs over an intercept-resend channel that taps a fraction
of the decoys, so some events abort after earlier sessions of the same
event succeeded.  Every rekey message is also opened per user by the
test oracle, on a copy of each recipient's view, and after every message
all views must equal the oracle's.  After every step the tree's caches
must match a recomputation and the whole-tree oracles, the delivered keys
must have settled into the tree, leaving no entry, every view must match
its keyset, with the same report from ``verify_consistency`` and from the
per-user oracle, and the committed counters must not shrink; an aborted
event must leave the tree exactly as a pre-event clone, children order,
node counter and user map included, and the protocol's state, its entries
included, untouched.  Departed user ids join again.  The test keeps its
own stays, from the events and the views: a committed event opens the
joiner's stay, ends the leaver's and adds to each member's current stay the
keys she now holds.  A ``History``, attached at the start and given every
committed event's trace, must keep the same stays, the keys that its key
records give each stay too, and the secrecy game over its probes and every
committed rekey ciphertext must report what the per-stay reference game
reports over them: nothing.  Every committed event's
messages are kept, and each must list the recipients it listed when sent
after every later step.
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
from qgka.history import History
from qgka.keytree import KeyTree
from qgka.protocol import GroupProtocol, ProtocolAbort, ProtocolConfig

from oracle import (
    UserView,
    apply_rekey,
    dfs_height,
    per_stay_failures,
    per_user_report,
    scan_join_point,
    stays_with_keys,
)


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
        dict(tree.leaves),
    )


def protocol_state(proto: GroupProtocol) -> tuple:
    return (
        {u: dict(v.keys) for u, v in proto.views.items()},
        proto.counters.as_dict(),
        proto.step,
        {k: dict(at) for k, at in proto._entries.by_key.items()},
    )


class GroupChurn(RuleBasedStateMachine):
    @initialize(
        degree=st.integers(2, 4), size=st.integers(2, 20), seed=st.integers(0, 2**16)
    )
    def build(self, degree, size, seed):
        rng = np.random.default_rng(seed)
        users = [f"u{i + 1}" for i in range(size)]
        tree = KeyTree.build_balanced(degree, users, 4, rng)
        config = ProtocolConfig(key_len=4, xi=0.5)
        self.proto = OracleDelivery(tree, config, rng)
        self.history = History(self.proto)
        self.channel = AdversarialChannel(EveStrategy("intercept_resend", 0.15))
        self.next_uid = size + 1
        self.last_counters = self.proto.counters.as_dict()
        self.sent = []  # (message, its recipients when sent)
        self.ciphertexts = []  # (step, item) of every committed event
        # user id -> [joined, left, keys held] per stay, from the views
        self.stays = {u: [[0, None, set()]] for u in self.proto.views}
        self.hold_current_keys()

    def hold_current_keys(self) -> None:
        for uid, view in self.proto.views.items():
            self.stays[uid][-1][2].update(map(astuple, view.keys.values()))

    def departed(self) -> list[str]:
        return [u for u in self.stays if u not in self.proto.views]

    def event(self, kind: str, pick: int, attacked: bool, uid: str = "") -> None:
        proto = self.proto
        if kind == "leave":
            members = proto.tree.users()
            uid = members[pick % len(members)]
        elif not uid:
            uid = f"u{self.next_uid}"
            self.next_uid += 1
        tree_before = proto.tree.clone()
        before = protocol_state(proto)
        proto.channel = self.channel if attacked else None
        try:
            trace = (proto.join if kind == "join" else proto.leave)(uid)
        except ProtocolAbort as exc:
            assert attacked and exc.cause == "eavesdropper"
            assert tree_state(proto.tree) == tree_state(tree_before)
            assert protocol_state(proto) == before
            return
        finally:
            proto.channel = None
        self.history.record(trace)
        self.sent += [(m, m.recipients) for m in trace.messages]
        items = {id(item): item for m in trace.messages for item in m.items}
        self.ciphertexts += [(proto.step, item) for item in items.values()]
        if kind == "join":
            self.stays.setdefault(uid, []).append([proto.step, None, set()])
        else:
            self.stays[uid][-1][1] = proto.step
        self.hold_current_keys()

    @rule()
    def join(self):
        self.event("join", 0, attacked=False)

    @precondition(lambda self: self.proto.tree.group_size() > 2)
    @rule(pick=st.integers(0, 10**6))
    def leave(self, pick):
        self.event("leave", pick, attacked=False)

    @precondition(lambda self: self.departed())
    @rule(pick=st.integers(0, 10**6), attacked=st.booleans())
    def rejoin(self, pick, attacked):
        departed = self.departed()
        self.event("join", 0, attacked, uid=departed[pick % len(departed)])

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
    def sent_messages_keep_their_recipients(self):
        assert all(m.recipients == sent for m, sent in self.sent)

    @invariant()
    def delivered_keys_settle_into_the_tree(self):
        assert not self.proto._entries.by_key

    @invariant()
    def views_secrecy_and_counters_hold(self):
        report = self.proto.verify_consistency()
        assert report["consistent"], report
        assert report == per_user_report(self.proto)
        counters = self.proto.counters.as_dict()
        assert all(counters[k] >= v for k, v in self.last_counters.items())
        self.last_counters = counters

    @invariant()
    def stays_keys_and_secrecy_match_the_reference(self):
        history = self.history
        expected = {u: [tuple(s) for s in stays] for u, stays in self.stays.items()}
        assert {
            u: [(s.joined, s.left) for s in stays] for u, stays in history.stays.items()
        } == {u: [s[:2] for s in stays] for u, stays in expected.items()}
        assert stays_with_keys(history) == expected
        failures = history.secrecy_failures(self.ciphertexts)
        sent = [*history.probes, *self.ciphertexts]
        assert failures == per_stay_failures(expected, sent) == []


TestGroupChurn = GroupChurn.TestCase
TestGroupChurn.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
