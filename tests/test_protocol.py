"""End-to-end join/leave orchestration, rollback, and view consistency."""

import hashlib
import json
import math
from dataclasses import astuple

import numpy as np
import pytest

from qgka import protocol as protocol_module
from qgka import qka
from qgka.adversary import AdversarialChannel, EveStrategy
from qgka.keytree import GroupKey, KeyTree, KeyTreeError
from qgka.counters import ResourceCounters
from qgka.history import History
from qgka.protocol import (
    SERVER_ID,
    ConsistencyError,
    GroupProtocol,
    ProtocolAbort,
    ProtocolConfig,
)
from qgka.cost import tree_join_cost, tree_leave_cost
from qgka.rekey import MissingKeyError

from oracle import (
    UserView,
    apply_rekey,
    per_stay_failures,
    per_user_report,
    stays_with_keys,
)


def fresh_protocol(d, N, seed=1, n=1, xi=0.0, verify_after=True, **kwargs):
    """A protocol on a balanced tree of N users; with ``verify_after``, every
    committed join and leave is followed by a full consistency check."""
    rng = np.random.default_rng(seed)
    tree = KeyTree.build_balanced(d, [f"u{i + 1}" for i in range(N)], n, rng)
    proto = GroupProtocol(tree, ProtocolConfig(key_len=n, xi=xi, **kwargs), rng)
    if verify_after:
        for name in ("join", "leave"):
            event = getattr(proto, name)

            def checked(user_id, event=event):
                trace = event(user_id)
                proto.verify_consistency(raise_on_mismatch=True)
                return trace

            setattr(proto, name, checked)
    return proto


def snapshot(proto):
    """Everything an event may change, for exact before/after comparison."""
    return (
        proto.tree.to_dict(include_keys=True),
        {u: dict(v.keys) for u, v in proto.views.items()},
        proto.counters.as_dict(),
        proto.step,
    )


class TestJoin:
    def test_worked_nine_user_join(self):
        proto = fresh_protocol(3, 8)
        trace = proto.join("u9")
        assert len(trace.updated_keys) == 2
        assert trace.counters.qubits_prepared == 4
        assert trace.counters.encryptions == 2
        assert trace.counters.rekey_messages == 2
        assert trace.session_sizes == [2, 2]
        assert proto.tree.group_size() == 9
        recipient_sets = sorted(m.recipients for m in trace.messages)
        assert recipient_sets == [
            ("u1", "u2", "u3", "u4", "u5", "u6"),
            ("u7", "u8"),
        ]

    def test_join_single_user_group(self):
        proto = fresh_protocol(2, 1)
        trace = proto.join("u2")
        assert len(trace.updated_keys) == 1
        assert trace.counters.qubits_prepared == 2
        assert proto.tree.height() == 2

    def test_join_64_user_tree_degree_4(self):
        # h - 1 = log_4(64) = 3 keys, 2 qubits each at xi = 0
        proto = fresh_protocol(4, 63)
        trace = proto.join("u64")
        assert len(trace.updated_keys) == 3
        assert trace.counters.qubits_prepared == 6

    def test_duplicate_join_refused(self):
        proto = fresh_protocol(2, 2)
        with pytest.raises(KeyTreeError):
            proto.join("u1")

    def test_join_user_named_like_an_existing_key(self):
        proto = fresh_protocol(3, 9)
        name = proto.tree.keyset("u5")[1]
        proto.join(name)
        proto.tree.check_invariants()
        assert proto.tree.key(name).key_id == name and name in proto.views
        proto.leave(name)
        proto.tree.check_invariants()

    def test_join_user_named_like_a_later_key(self):
        # "k20" is free when she joins; the second join after hers creates
        # the key node numbered 20
        proto = fresh_protocol(2, 4)
        proto.join("k20")
        for i in range(5, 10):
            proto.join(f"u{i}")
            proto.tree.check_invariants()
        assert "k20" in proto.tree.key_nodes() and "k20" in proto.views

    def test_server_id_refused_before_any_change(self):
        # the server takes part in every session, so a user named like it
        # would appear twice in one
        proto = fresh_protocol(4, 9)
        history = History(proto)
        before = snapshot(proto), proto.aborted_counters.as_dict()
        with pytest.raises(ValueError, match="server"):
            proto.join(SERVER_ID)
        assert (snapshot(proto), proto.aborted_counters.as_dict()) == before
        assert proto.verify_consistency()["consistent"]
        assert history.secrecy_failures() == []

    def test_tree_holding_server_id_refused(self):
        rng = np.random.default_rng(1)
        tree = KeyTree.build_balanced(2, ["u1", SERVER_ID], 1, rng)
        with pytest.raises(ValueError, match="server"):
            GroupProtocol(tree, ProtocolConfig(), rng)

    def test_joiner_view_complete(self):
        proto = fresh_protocol(3, 8)
        proto.join("u9")
        view = proto.views["u9"]
        expected = {k: proto.tree.key(k) for k in proto.tree.keyset("u9")}
        assert view.keys == expected


class TestLeave:
    @pytest.mark.parametrize("leaver", ["u1", "u5", "u9"])
    def test_worked_nine_user_leave(self, leaver):
        proto = fresh_protocol(3, 9, agent_selection="first")
        trace = proto.leave(leaver)
        assert len(trace.updated_keys) == 2
        assert sorted(trace.session_sizes) == [3, 4]
        assert trace.counters.qubits_prepared == 7
        assert trace.counters.encryptions == 3
        assert proto.tree.group_size() == 8
        # a "first" agent is the first of her subgroup without the leaver
        tree = proto.tree
        for kid, t in trace.sessions:
            assert leaver not in t.participants
            firsts = [tree.userset(c)[0] for c in tree.child_keys(kid)]
            assert t.participants[1:] == firsts

    def test_leave_from_two_user_group(self):
        proto = fresh_protocol(2, 2)
        trace = proto.leave("u2")
        assert trace.session_sizes == [2]
        assert trace.counters.encryptions == 0
        assert trace.messages == []
        assert proto.tree.group_size() == 1

    def test_leave_81_user_tree_degree_3(self):
        # 4 updated keys: three 4-party sessions plus one 3-party session,
        # 3 * 4 + 3 = 15 qubits at xi = 0, n = 1
        proto = fresh_protocol(3, 81)
        trace = proto.leave("u81")
        assert len(trace.updated_keys) == 4
        assert sorted(trace.session_sizes) == [3, 4, 4, 4]
        assert trace.counters.qubits_prepared == 15

    @pytest.mark.parametrize("d", [2, 4])
    def test_each_leave_message_skips_its_childs_agent(self, d):
        # a leave session has one agent per child of its key, so the message
        # to a child excludes exactly the session agent whose keyset holds it
        proto = fresh_protocol(d, 40, seed=3, agent_selection="random")
        pick = np.random.default_rng(9)
        messages = not_first = 0
        for _ in range(30):
            users = proto.tree.users()
            trace = proto.leave(users[int(pick.integers(len(users)))])
            agents = {kid: t.participants[1:] for kid, t in trace.sessions}
            for m in trace.messages:
                parent = proto.tree.nodes[m.include].parent
                under = [a for a in agents[parent] if m.include in proto.tree.keyset(a)]
                assert len(under) == 1
                assert m.exclude == proto.tree.individual_key(under[0])
                messages += 1
                not_first += under[0] != proto.tree.userset(m.include)[0]
        assert messages > 30 and not_first > 0

    def test_leave_unknown_or_last(self):
        proto = fresh_protocol(2, 2)
        with pytest.raises(KeyTreeError):
            proto.leave("u9")
        proto.leave("u2")
        with pytest.raises(KeyTreeError):
            proto.leave("u1")

    def test_departed_member_dropped_from_views(self):
        proto = fresh_protocol(3, 9)
        proto.leave("u9")
        assert "u9" not in proto.views


class TestCounterFormulaAgreement:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("power", [2, 3])
    def test_join_cost_matches_closed_form(self, d, power):
        N = d**power
        proto = fresh_protocol(d, N - 1, seed=d * 10 + power)
        trace = proto.join(f"u{N}")
        expected = tree_join_cost(N, d, n=1, xi=0.0)
        assert trace.counters.qubits_prepared == expected == 2 * power

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("power", [2, 3])
    def test_leave_cost_matches_closed_form(self, d, power):
        N = d**power
        proto = fresh_protocol(d, N, seed=d * 100 + power)
        trace = proto.leave(f"u{N}")
        expected = tree_leave_cost(N, d, n=1, xi=0.0)
        assert trace.counters.qubits_prepared == expected == (d + 1) * (power - 1) + d


class _MisreadingChannel:
    """A channel on which every decoy reads back flipped, so the first
    checked sequence of a session always aborts it."""

    def transmit(self, kinds, rng):
        return np.ones(len(kinds), dtype=bool)


class _MisreadOnCall:
    """A channel that misreads every decoy of its ``call``-th transmit call
    and reads every other decoy right."""

    def __init__(self, call: int):
        self.call, self.calls = call, 0

    def transmit(self, kinds, rng):
        misread = np.full(len(kinds), self.calls == self.call)
        self.calls += 1
        return misread


class TestRollback:
    def _aborting_protocol(self, d=3, N=9, xi=1.0):
        rng = np.random.default_rng(13)
        tree = KeyTree.build_balanced(d, [f"u{i + 1}" for i in range(N)], 1, rng)
        proto = GroupProtocol(
            tree, ProtocolConfig(key_len=1, xi=xi), rng,
            channel=_MisreadingChannel(),
        )
        return proto

    def test_aborted_join_rolls_back_everything(self):
        proto = self._aborting_protocol()
        tree_before = proto.tree.to_dict(include_keys=True)
        views_before = {u: dict(v.keys) for u, v in proto.views.items()}
        with pytest.raises(ProtocolAbort) as exc:
            proto.join("u10")
        assert exc.value.cause == "eavesdropper"
        assert proto.tree.to_dict(include_keys=True) == tree_before
        assert {u: dict(v.keys) for u, v in proto.views.items()} == views_before
        assert proto.step == 0

    def test_aborted_leave_rolls_back_everything(self):
        proto = self._aborting_protocol()
        tree_before = proto.tree.to_dict(include_keys=True)
        with pytest.raises(ProtocolAbort):
            proto.leave("u9")
        assert proto.tree.to_dict(include_keys=True) == tree_before
        assert proto.tree.group_size() == 9

    def test_partial_events_roll_back_exactly_over_churn(self, monkeypatch):
        # An eavesdropper on a tenth of the decoys aborts some events after
        # earlier sessions of the same event succeeded and their keys went
        # into the tree; each abort must restore the pre-event state, and
        # the qubits it spent must land in the aborted counters.
        sessions: list[bool] = []  # aborted flag per session of this event
        prepared = 0  # qubits prepared by every session of the run
        real_draw = protocol_module.draw_session

        def recording_draw(*args, **kwargs):
            nonlocal prepared
            draw = real_draw(*args, **kwargs)
            t = draw.transcript  # every qubit is prepared by the draw
            sessions.append(t.aborted)
            prepared += t.counters.qubits_prepared
            return draw

        monkeypatch.setattr(protocol_module, "draw_session", recording_draw)
        rng = np.random.default_rng(29)
        tree = KeyTree.build_balanced(3, [f"u{i + 1}" for i in range(40)], 4, rng)
        proto = GroupProtocol(
            tree,
            ProtocolConfig(key_len=4, xi=0.5),
            rng,
            channel=AdversarialChannel(EveStrategy("intercept_resend", 0.1)),
        )
        history = History(proto)

        def state():
            return snapshot(proto)

        events = np.random.default_rng(30)
        next_uid, aborts, partial_aborts, commits = 41, 0, 0, 0
        for _ in range(120):
            before = state()
            sessions.clear()
            try:
                if events.random() < 0.5 or proto.tree.group_size() <= 2:
                    trace = proto.join(f"u{next_uid}")
                    next_uid += 1
                else:
                    members = proto.tree.users()
                    trace = proto.leave(members[int(events.integers(len(members)))])
            except ProtocolAbort as exc:
                assert exc.cause == "eavesdropper"
                assert state() == before
                aborts += 1
                partial_aborts += sessions.count(False) > 0
            else:
                history.record(trace)
                commits += 1
            proto.tree.check_invariants()
        assert partial_aborts >= 1
        assert commits >= 1
        assert proto.aborted_counters.qubits_prepared > 0
        assert (
            proto.counters.qubits_prepared + proto.aborted_counters.qubits_prepared
            == prepared
        )
        report = proto.verify_consistency()
        assert report["consistent"], report
        assert history.secrecy_failures() == []


class TestTamperAbort:
    """A session whose publication is corrupted in the stacked finish aborts
    its event with cause "tamper", after every session was drawn."""

    @pytest.mark.parametrize("row", [0, 1])  # the first leader's, a follower's
    @pytest.mark.parametrize("k", [0, 1, -1])
    @pytest.mark.parametrize("kind", ["join", "leave"])
    @pytest.mark.parametrize("channel", ["zero_rate", None])
    def test_tampered_session_rolls_back_exactly(
        self, monkeypatch, channel, kind, k, row
    ):
        if channel is not None:  # taps nothing
            channel = AdversarialChannel(EveStrategy("intercept_resend", 0.0))
        rng = np.random.default_rng(41)
        tree = KeyTree.build_balanced(3, [f"u{i + 1}" for i in range(27)], 4, rng)
        proto = GroupProtocol(
            tree,
            ProtocolConfig(key_len=4, xi=0.5),
            rng,
            channel=channel,
        )
        history = History(proto)
        history.record(proto.join("u28"))
        history.record(proto.leave("u5"))
        drawn = []
        real_draw, real_measure = protocol_module.draw_session, qka.measure_positions

        def corrupt_slots(x, z, lead, sizes):
            out = real_measure(x, z, lead, sizes)
            out[lead[k, 0] + row, 2] ^= 1  # the k-th session's
            return out

        def recording_draw_session(*args, **kwargs):
            draw = real_draw(*args, **kwargs)
            drawn.append(draw.transcript)
            return draw

        monkeypatch.setattr(protocol_module, "draw_session", recording_draw_session)
        monkeypatch.setattr(qka, "measure_positions", corrupt_slots)
        before = snapshot(proto)
        aborted_before = proto.aborted_counters.copy()
        with pytest.raises(ProtocolAbort) as exc:
            proto.join("u29") if kind == "join" else proto.leave("u13")
        assert exc.value.cause == "tamper"
        assert snapshot(proto) == before
        assert len(drawn) >= 2
        assert [t.abort_cause for t in drawn].count("tamper") == 1
        assert drawn[k].abort_cause == "tamper"
        spent = ResourceCounters()
        for t in drawn:
            spent.merge(t.counters)
        aborted_before.merge(spent)
        assert proto.aborted_counters == aborted_before
        assert spent.entangled_measurements == 4 * len(drawn)
        proto.tree.check_invariants()
        assert proto.verify_consistency()["consistent"]
        assert history.secrecy_failures() == []

    def test_first_aborted_session_names_the_cause(self, monkeypatch):
        # the first session is tampered with and the second meets an
        # eavesdropper in its draw, so only the first reaches the finish
        proto = fresh_protocol(3, 27, n=4, xi=0.5, verify_after=False)
        proto.channel = _MisreadOnCall(2)  # the second session's distribution
        real_measure = qka.measure_positions

        def corrupt_slots(x, z, lead, sizes):
            out = real_measure(x, z, lead, sizes)
            out[0, 0] ^= 1
            return out

        monkeypatch.setattr(qka, "measure_positions", corrupt_slots)
        before = snapshot(proto)
        with pytest.raises(ProtocolAbort) as exc:
            proto.join("u28")
        assert exc.value.cause == "tamper"
        assert snapshot(proto) == before
        assert proto.aborted_counters.entangled_measurements == 4


class TestConsistency:
    def test_consistent_after_any_single_event(self):
        proto = fresh_protocol(3, 9)
        proto.join("u10")
        assert proto.verify_consistency()["consistent"]
        proto.leave("u3")
        assert proto.verify_consistency()["consistent"]

    def test_thousand_event_churn_stays_consistent(self):
        rng = np.random.default_rng(2027)
        proto = fresh_protocol(3, 9, seed=4)
        next_uid = 11
        for _ in range(300):
            if rng.random() < 0.5 or proto.tree.group_size() <= 2:
                proto.join(f"u{next_uid}")
                next_uid += 1
            else:
                members = proto.tree.users()
                proto.leave(members[int(rng.integers(len(members)))])
        # verify_after=True already checked every step; belt and braces:
        assert proto.verify_consistency()["consistent"]

    def test_updated_key_count_bounded_by_log(self):
        rng = np.random.default_rng(31)
        proto = fresh_protocol(4, 64, seed=8, verify_after=False)
        next_uid = 100
        for _ in range(120):
            N = proto.tree.group_size()
            bound = math.ceil(math.log(max(N, 2), 4)) + 1
            if rng.random() < 0.5 or N <= 2:
                trace = proto.join(f"u{next_uid}")
                next_uid += 1
            else:
                members = proto.tree.users()
                trace = proto.leave(members[int(rng.integers(len(members)))])
            assert len(trace.updated_keys) <= bound

    def test_corrupted_view_reported(self):
        proto = fresh_protocol(3, 9)
        proto.views["u5"].install(GroupKey(proto.tree.root, 99, "1"))
        report = proto.verify_consistency()
        assert not report["consistent"]
        assert "u5" in report["mismatches"]
        with pytest.raises(ConsistencyError):
            proto.verify_consistency(raise_on_mismatch=True)

    def test_secrecy_probe_check(self):
        proto = fresh_protocol(3, 9)
        history = History(proto)
        history.record(proto.leave("u9"))
        history.record(proto.join("u10"))
        assert proto.verify_consistency()["consistent"]
        assert history.secrecy_failures() == []

    def test_secrecy_checker_reports_leaked_keys(self):
        proto = fresh_protocol(3, 9)
        history = History(proto)
        history.record(proto.leave("u9"))  # step 1, probed under this group key
        leaked = proto.tree.key(proto.tree.root)
        history.record(proto.join("u10"))  # step 2
        # the leaver holds the group key of the leave's own step, the joiner
        # one from before the join; the joiner's own step-2 keys stay legal
        for uid in ("u9", "u10"):
            history.held.append((leaked, uid, history.stays[uid][-1].joined))
        expected = [
            "departed u9 opened a ciphertext from step 1",
            "u10 opened a ciphertext from step 1",
        ]
        assert history.secrecy_failures() == expected
        assert per_stay_failures(stays_with_keys(history), history.probes) == expected

    def test_history_refuses_a_protocol_past_step_0(self):
        proto = fresh_protocol(3, 9)
        proto.leave("u9")
        with pytest.raises(ValueError, match="step 0"):
            History(proto)

    def test_history_refuses_a_trace_that_is_not_the_next_step(self):
        proto = fresh_protocol(3, 9)
        history = History(proto)
        first = proto.leave("u9")
        second = proto.join("u10")
        with pytest.raises(ValueError, match="step 2 is not the next step, 1"):
            history.record(second)
        # the next step, but the tree has moved on since
        with pytest.raises(ValueError, match="step 1 is not the protocol's latest"):
            history.record(first)
        assert history.probes == [] and history.stays["u9"][-1].left is None

    def test_game_refuses_a_history_behind_its_protocol(self):
        proto = fresh_protocol(3, 9)
        history = History(proto)
        history.record(proto.leave("u9"))
        proto.join("u10")  # not recorded
        with pytest.raises(ValueError, match="at step 2, the history at 1"):
            history.secrecy_failures()

    def test_rejoined_id_opens_only_its_own_stays(self):
        # a user id that leaves and joins again has two stays; the probe of
        # the rejoin step is under a key of the second
        proto = fresh_protocol(3, 9)
        history = History(proto)
        history.record(proto.leave("u3"))  # step 1
        history.record(proto.join("u10"))  # step 2
        history.record(proto.join("u3"))  # step 3
        trace = proto.join("u11")  # step 4, sent under keys u3 got at step 3
        history.record(trace)
        sent = [(4, item) for m in trace.messages for item in m.items]
        assert history.secrecy_failures(sent) == []
        stays = [(s.joined, s.left) for s in history.stays["u3"]]
        assert stays == [(0, 1), (3, None)]

    def test_ended_stay_key_opening_a_later_stay_is_reported(self):
        proto = fresh_protocol(3, 9)
        history = History(proto)
        history.record(proto.leave("u3"))
        history.record(proto.join("u10"))
        history.record(proto.join("u3"))  # step 3, probed under this group key
        root_key = proto.tree.key(proto.tree.root)
        history.held.append((root_key, "u3", history.stays["u3"][0].joined))
        expected = ["departed u3 opened a ciphertext from step 3"]
        assert history.secrecy_failures() == expected
        assert per_stay_failures(stays_with_keys(history), history.probes) == expected

    def test_each_stay_holds_the_keys_its_member_held(self):
        # every key a member's view held during a stay, rejoins included, is
        # recorded with her among its holders at a step of that stay
        proto = fresh_protocol(3, 12, seed=5, n=4, xi=0.25)
        history = History(proto)
        model = {
            u: [[0, None, set(map(astuple, v.keys.values()))]]
            for u, v in proto.views.items()
        }
        events = np.random.default_rng(6)
        for step in range(1, 61):
            departed = [u for u in model if u not in proto.views]
            if departed and events.random() < 0.3:
                uid = departed[int(events.integers(len(departed)))]
                history.record(proto.join(uid))
                model[uid].append([step, None, set()])
            elif events.random() < 0.5 or proto.tree.group_size() <= 2:
                history.record(proto.join(f"u{100 + step}"))
                model[f"u{100 + step}"] = [[step, None, set()]]
            else:
                members = proto.tree.users()
                uid = members[int(events.integers(len(members)))]
                history.record(proto.leave(uid))
                model[uid][-1][1] = step
            for uid, view in proto.views.items():
                model[uid][-1][2].update(map(astuple, view.keys.values()))
        assert stays_with_keys(history) == {
            u: [tuple(stay) for stay in stays] for u, stays in model.items()
        }

    def test_put_keeps_entries_under_a_kept_node(self):
        proto = fresh_protocol(3, 9, verify_after=False)
        tree, root = proto.tree, proto.tree.root
        old = tree.key(root)
        planted, new = GroupKey(root, 98, "1"), GroupKey(root, 99, "1")
        parent = tree.keyset("u5")[1]
        proto.views["u5"].install(planted)
        proto._entries.put(root, root, new, keep=parent)
        held = {u: v.keys[root] for u, v in proto.views.items()}
        kept = tree.userset(parent)
        expected = {u: old if u in kept else new for u in held}
        assert held == expected | {"u5": planted}

    @pytest.mark.parametrize("fault", ["stale", "missing", "extra", "own"])
    def test_planted_fault_fails_both_checks_alike(self, fault):
        proto = fresh_protocol(3, 9, verify_after=False)
        stale_root = proto.tree.key(proto.tree.root)
        proto.leave("u9")
        proto.join("u10")
        tree, view = proto.tree, proto.views["u5"]
        if fault == "stale":
            view.install(stale_root)
        elif fault == "missing":
            view.drop(tree.root)
        elif fault == "extra":
            view.install(tree.key(tree.individual_key("u1")))
        else:
            parent = tree.keyset("u5")[1]
            proto._entries.put(parent, parent, GroupKey(parent, 99, "1"))
        report = proto.verify_consistency()
        assert not report["consistent"] and "u5" in report["mismatches"]
        assert report == per_user_report(proto)

    def test_shared_delivery_matches_per_user_oracle(self, monkeypatch):
        # every message of a seeded churn run goes through both the
        # protocol's shared delivery and per-user delivery of each recipient
        real_deliver = GroupProtocol._deliver
        delivered = 0

        def checked_deliver(self, message):
            nonlocal delivered
            expected = {u: dict(v.keys) for u, v in self.views.items()}
            for uid in message.recipients:
                view = UserView(uid, self.views[uid].keys.values())
                apply_rekey(view, message)
                expected[uid] = view.keys
            real_deliver(self, message)
            assert {u: v.keys for u, v in self.views.items()} == expected
            delivered += len(message.recipients)

        monkeypatch.setattr(GroupProtocol, "_deliver", checked_deliver)
        proto = fresh_protocol(3, 30, seed=17, n=4, xi=0.25)
        events = np.random.default_rng(18)
        next_uid = 31
        for _ in range(80):
            if events.random() < 0.5 or proto.tree.group_size() <= 2:
                proto.join(f"u{next_uid}")
                next_uid += 1
            else:
                members = proto.tree.users()
                proto.leave(members[int(events.integers(len(members)))])
        assert delivered > 0


class TestDeliveryCheck:
    """A recipient holding a stale wrapping key stops delivery, even when it
    is not the first recipient of its message; a delivered key replaces
    whatever a recipient held under its id."""

    @staticmethod
    def _warmed():
        # the leave of u1 regenerates u1's path, so those keys have a stale
        # first version to plant
        proto = fresh_protocol(3, 30, seed=23, n=4, xi=0.25, verify_after=False)
        first = {k: proto.tree.key(k) for k in proto.tree.key_nodes()}
        proto.leave("u1")
        return proto, first

    def _plant_and_run(self, kind, user, wraps_current_key):
        reference, _ = self._warmed()
        trace = getattr(reference, kind)(user)
        chosen = [
            (msg, item)
            for msg in trace.messages
            for item in msg.items
            if len(msg.recipients) >= 2
            and item.enc_version >= 2
            and wraps_current_key(item.enc_key_id, trace)
        ]
        assert chosen
        msg, item = chosen[0]
        target = msg.recipients[-1]
        assert target != msg.recipients[0]
        proto, first = self._warmed()
        stale = first[item.enc_key_id]
        assert stale.version < item.enc_version
        proto.views[target].install(stale)
        with pytest.raises(MissingKeyError):
            getattr(proto, kind)(user)

    def test_stale_wrapping_key_stops_a_join(self):
        # join messages wrap under the pre-event versions of the path keys
        self._plant_and_run("join", "u31", lambda key_id, trace: True)

    def test_stale_wrapping_key_stops_a_leave(self):
        # a key the leave regenerates reaches the target before it wraps
        # anything, so only a key the leave leaves alone stays planted
        self._plant_and_run(
            "leave", "u30", lambda key_id, trace: key_id not in trace.updated_keys
        )

    def test_wrong_key_at_its_own_node_stops_a_join(self):
        # the join keeps the planted entry for the root key at the root when
        # it regenerates that key, so its members lack the wrapping key
        proto = fresh_protocol(3, 9, verify_after=False)
        root = proto.tree.root
        proto._entries.put(root, root, GroupKey(root, 99, "1"))
        with pytest.raises(MissingKeyError):
            proto.join("u10")

    def test_delivery_replaces_a_planted_key(self):
        # u5 is not the first member of its root subgroup, so not a root
        # agent: the new group key reaches it by message, over the stale one
        proto = fresh_protocol(3, 27, agent_selection="first")
        stale = proto.tree.key(proto.tree.root)
        proto.leave("u27")
        proto.views["u5"].install(stale)
        assert not proto.verify_consistency()["consistent"]
        proto.leave("u26")
        root = proto.tree.key(proto.tree.root)
        assert proto.views["u5"].keys[root.key_id] == root
        assert proto.verify_consistency()["consistent"]


class TestUndeliveredMessage:
    """A message that never arrives leaves its recipients without its keys.

    The skipped message is the ``skip``-th of one event at d=3, N=30.  A
    join's messages all wrap under old keys, so each skip is reported after
    the event.  A leave sends deeper keys first and wraps each key above
    under them, so only a root-level skip survives to be reported.
    """

    @staticmethod
    def _skipping(monkeypatch, skip):
        real_deliver = GroupProtocol._deliver
        sent = []

        def deliver(self, message):
            sent.append(message)
            if len(sent) - 1 != skip:
                real_deliver(self, message)

        monkeypatch.setattr(GroupProtocol, "_deliver", deliver)
        return fresh_protocol(3, 30, n=4, xi=0.25, verify_after=False), sent

    def _assert_reported(self, proto, skipped):
        report = proto.verify_consistency()
        assert sorted(report["mismatches"]) == sorted(skipped.recipients)
        assert report == per_user_report(proto)
        assert proto._entries.by_key

    @pytest.mark.parametrize("skip", range(4))
    def test_skipped_join_message_leaves_its_recipients(self, monkeypatch, skip):
        proto, sent = self._skipping(monkeypatch, skip)
        assert len(proto.join("u31").messages) == 4
        self._assert_reported(proto, sent[skip])

    @pytest.mark.parametrize("skip", range(3))
    def test_skipped_early_leave_message_stops_a_later_one(self, monkeypatch, skip):
        proto, sent = self._skipping(monkeypatch, skip)
        with pytest.raises(MissingKeyError):
            proto.leave("u7")
        assert proto.tree.nodes[sent[skip].include].parent != proto.tree.root

    def test_failed_delivery_leaves_nothing_opened_for_the_next_event(
        self, monkeypatch
    ):
        proto, _ = self._skipping(monkeypatch, 0)
        with pytest.raises(MissingKeyError):
            proto.leave("u7")
        skipping, opened = GroupProtocol._deliver, []

        def deliver(self, message):
            opened.append(len(self._opened))
            skipping(self, message)

        monkeypatch.setattr(GroupProtocol, "_deliver", deliver)
        with pytest.raises(MissingKeyError):  # the leave is half applied
            proto.join("u31")
        assert opened[0] == 0

    @pytest.mark.parametrize("skip", range(3, 6))
    def test_skipped_root_level_leave_message_leaves_its_recipients(
        self, monkeypatch, skip
    ):
        proto, sent = self._skipping(monkeypatch, skip)
        assert len(proto.leave("u7").messages) == 6
        assert proto.tree.nodes[sent[skip].include].parent == proto.tree.root
        self._assert_reported(proto, sent[skip])


class TestTraceShape:
    def test_trace_serializes(self):
        proto = fresh_protocol(3, 8)
        trace = proto.join("u9")
        doc = trace.to_dict()
        assert doc["event"] == {"kind": "join", "user": "u9", "timestamp": 1}
        assert len(doc["sessions"]) == 2
        for session in doc["sessions"]:
            assert session["participants"] == ["s", "u9"]
            assert session["key_id"] in doc["updated_keys"]
        assert "updated_key_material" in trace.to_dict(reveal_keys=True)

    def test_transcripts_count_equals_updated_keys(self):
        proto = fresh_protocol(4, 64)
        trace = proto.leave("u10")
        assert len(trace.sessions) == len(trace.updated_keys)


def _stream(d, users, n, xi, events, channel=None, seed=3, history=False):
    """Per event of ``events``, its full trace or its abort cause, the
    generator state after it and the number of rekey messages it sent (None
    for an abort); with ``history``, a ``History`` records every committed
    event."""
    rng = np.random.default_rng(seed)
    tree = KeyTree.build_balanced(d, [f"u{i}" for i in range(1, users + 1)], n, rng)
    proto = GroupProtocol(tree, ProtocolConfig(key_len=n, xi=xi), rng, channel)
    recorder = History(proto) if history else None
    for kind, user in events:
        try:
            trace = getattr(proto, kind)(user)
        except ProtocolAbort as abort:
            yield ["abort", abort.cause], rng.bit_generator.state, None
            continue
        if recorder is not None:
            recorder.record(trace)
        record = trace.to_dict(reveal_keys=True)
        yield record, rng.bit_generator.state, len(trace.messages)


def _stream_run(d, users, n, xi, events, channel=None, seed=3):
    """Per event of ``events``, a short digest of the generator state after
    it and of its full trace, or of its abort cause; with the number of
    rekey messages each committed event sent (None for an abort)."""
    digests, sent = [], []
    for record, state, count in _stream(d, users, n, xi, events, channel, seed):
        doc = json.dumps([state, record])
        digests.append(hashlib.sha256(doc.encode()).hexdigest()[:12])
        sent.append(count)
    return digests, sent


_CHURN = [
    ("join", "u20"), ("leave", "u3"), ("join", "u21"), ("leave", "u20"),
    ("leave", "u1"), ("join", "u22"), ("join", "u23"), ("leave", "u5"),
]


class TestEventStream:
    """Every event's generator state and trace, pinned per event, so a
    change to how a session or a rekey build draws shows at the first event
    it alters.  The three runs cover a leave that sends no rekey message,
    phases without decoys, a 256-bit key wrapped over many keystream blocks
    and an attacked channel on which events abort."""

    def test_leave_without_messages_draws_no_nonce(self):
        events = [("leave", "u2"), ("join", "u4"), ("leave", "u3"), ("join", "u5")]
        digests, sent = _stream_run(4, 3, 4, 0.0, events)
        assert sent[0] == 0  # u1 and u3 under the root, each alone
        assert digests == [
            "691b3063d8a3", "2ee8457f1f61", "9202fd1a4420", "7dde0c3a0e20",
        ]

    def test_long_keys_without_decoys(self):
        digests, sent = _stream_run(4, 10, 256, 0.0, _CHURN)
        assert None not in sent
        assert digests == [
            "1e1be76fbe1c", "babee5788b18", "65631cae5637", "69c546bef46d",
            "bb4efd90de06", "60a58abb6d21", "0d63b3d98c74", "8fa534b92853",
        ]

    def test_attacked_channel_with_aborts(self):
        channel = AdversarialChannel(EveStrategy("intercept_resend", 0.05))
        events = _CHURN + [("join", "u24"), ("leave", "u7"), ("join", "u25")]
        digests, sent = _stream_run(3, 12, 8, 0.25, events, channel)
        assert None in sent and any(sent)
        assert digests == [
            "3727b5f9042e", "0912722bb72d", "278239433741", "879e8520efeb",
            "6f74f8e37eb6", "a12e53193083", "38fc4c0df200", "942c6d42e542",
            "0cb9c30d6f97", "0293593de0bd", "0fd52f0b10d1",
        ]

    @pytest.mark.parametrize("attacked", [False, True])
    def test_history_draws_nothing(self, attacked):
        # the same seeded events with and without a history attached give
        # the same trace and generator state after every event
        channel = None
        if attacked:
            channel = AdversarialChannel(EveStrategy("intercept_resend", 0.05))
        events = _CHURN + [("join", "u24"), ("leave", "u7"), ("join", "u25")]
        plain, recorded = (
            list(_stream(3, 12, 8, 0.25, events, channel, history=history))
            for history in (False, True)
        )
        assert recorded == plain
        assert (None in [count for _, _, count in plain]) == attacked
