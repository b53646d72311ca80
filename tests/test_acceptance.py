"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from qgka.adversary import AdversarialChannel, EveStrategy, detection_experiment
from qgka.cli import main as cli_main
from qgka.cost import (
    star_ghz_cost,
    sweep_degree,
    tree_average_cost,
    tree_join_cost,
    tree_leave_cost,
)
from qgka.history import History
from qgka.keytree import GroupKey, KeyTree
from qgka.protocol import GroupProtocol, ProtocolAbort, ProtocolConfig
from qgka.quantum import (
    EntangledState,
    Pauli,
    apply_pauli,
    ghz_state,
    measure_entangled,
)
from qgka.rekey import try_unwrap
from qgka.workload import WorkloadConfig, compare_backends, run_simulation

from oracle import extract_keys, stays_with_keys
from test_qka import THREE_PARTY_TABLE, TWO_PARTY_TABLE


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {detail}")


def _users(n: int) -> list[str]:
    return [f"u{i + 1}" for i in range(n)]


def _protocol(d, N, seed=1, n=1, xi=0.0, **kwargs):
    rng = np.random.default_rng(seed)
    tree = KeyTree.build_balanced(d, _users(N), n, rng)
    return GroupProtocol(tree, ProtocolConfig(key_len=n, xi=xi, **kwargs), rng)


def test_c01_measurement_tables_exact():
    start = time.monotonic()
    bell = {
        ("00", 1): "00", ("00", -1): "10",
        ("01", 1): "01", ("01", -1): "11",
    }
    ghz3 = {
        ("000", 1): "000", ("000", -1): "100",
        ("001", 1): "001", ("001", -1): "101",
        ("010", 1): "010", ("010", -1): "110",
        ("011", 1): "011", ("011", -1): "111",
    }
    for (flips, sign), expected in {**bell, **ghz3}.items():
        assert measure_entangled(EntangledState(flips, sign)) == expected
    # exhaustive: the 4 Bell and 8 three-qubit readouts are distinct onto
    assert len({measure_entangled(EntangledState(f, s)) for f, s in bell}) == 4
    assert len({measure_entangled(EntangledState(f, s)) for f, s in ghz3}) == 8
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"all 4 + 8 measurement rows exact in {elapsed:.3f}s")


def test_c02_two_party_table_conformance():
    checked = 0
    for f_op, row in TWO_PARTY_TABLE.items():
        for l_op, (outcome, key) in row.items():
            state = apply_pauli(ghz_state(2), 0, l_op)
            state = apply_pauli(state, 1, f_op)
            assert measure_entangled(state) == outcome
            for idx, op in ((0, l_op), (1, f_op)):
                _, shared = extract_keys(outcome, op, idx, "even")
                assert shared == key
            checked += 1
    assert checked == 8
    _report(2, "all 8 two-party cells match, outcomes and keys")


def test_c03_three_party_table_conformance():
    checked = 0
    for (f2, f3), row in THREE_PARTY_TABLE.items():
        for l_op, (outcome, key) in row.items():
            state = apply_pauli(ghz_state(3), 0, l_op)
            state = apply_pauli(state, 1, f2)
            state = apply_pauli(state, 2, f3)
            assert measure_entangled(state) == outcome
            for idx, op in ((0, l_op), (1, f2), (2, f3)):
                _, shared = extract_keys(outcome, op, idx, "odd")
                assert shared == key
            checked += 1
    assert checked == 16
    # the worked extraction: leader Y measuring 101 recovers 0 xor 1 xor 0 = 1
    keys, shared = extract_keys("101", Pauli.Y, 0, "odd")
    assert keys == [0, 1, 0] and shared == 1
    _report(3, "all 16 three-party cells match, worked example included")


def test_c04_worked_join():
    start = time.monotonic()
    proto = _protocol(3, 8, seed=9)
    trace = proto.join("u9")
    assert trace.counters.qubits_prepared == 4
    assert len(trace.updated_keys) == 2
    root, subgroup = trace.updated_keys
    by_recipients = {m.recipients: m for m in trace.messages}
    wide = by_recipients[("u1", "u2", "u3", "u4", "u5", "u6")]
    narrow = by_recipients[("u7", "u8")]
    assert len(by_recipients) == 2
    # outsiders: the new group key under the old group key, nothing else
    assert [(i.enc_key_id, i.enc_version) for i in wide.items] == [(root, 1)]
    # the joined subgroup: both new keys, each under its own old key
    assert [(i.enc_key_id, i.enc_version) for i in narrow.items] == [
        (root, 1),
        (subgroup, 1),
    ]
    assert proto.verify_consistency()["consistent"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(4, f"join: 4 qubits, 2 keys, recipient sets exact in {elapsed:.3f}s")


def test_c05_worked_leave():
    proto = _protocol(3, 9, seed=9, agent_selection="first")
    tree = proto.tree
    subgroup_of = {tuple(tree.userset(c)): c for c in tree.child_keys(tree.root)}
    k123 = subgroup_of[("u1", "u2", "u3")]
    k456 = subgroup_of[("u4", "u5", "u6")]
    trace = proto.leave("u9")
    assert trace.counters.qubits_prepared == 7
    root, deepest = trace.updated_keys
    # generation: a 4-party session for the group key with agents u1, u4,
    # u7, and a 3-party session for the sibling key with u7, u8
    sessions = {kid: t.participants for kid, t in trace.sessions}
    assert sessions[root] == ["s", "u1", "u4", "u7"]
    assert sessions[deepest] == ["s", "u7", "u8"]
    # distribution: exactly the three ciphertext lines
    lines = {
        (m.recipients, m.items[0].enc_key_id, m.items[0].enc_version)
        for m in trace.messages
    }
    assert lines == {
        (("u2", "u3"), k123, 1),
        (("u5", "u6"), k456, 1),
        (("u8",), deepest, 2),  # wrapped under the regenerated sibling key
    }
    assert proto.verify_consistency()["consistent"]
    _report(5, "leave: 7 qubits, three ciphertext lines exact")


def test_c06_closed_form_counter_equality():
    cases = 0
    for d in (2, 3, 4):
        for power in (2, 3, 4):
            N = d**power
            for xi, n in ((0.0, 1), (1.0, d * (d + 1))):
                proto = _protocol(d, N - 1, seed=d * 100 + power, n=n, xi=xi)
                join = proto.join(f"u{N}")
                expected_join = tree_join_cost(N, d, n, xi)
                assert join.counters.qubits_prepared == expected_join, (
                    d, power, xi, join.counters.qubits_prepared, expected_join
                )
                proto = _protocol(d, N, seed=d * 200 + power, n=n, xi=xi)
                leave = proto.leave(f"u{N}")
                expected_leave = tree_leave_cost(N, d, n, xi)
                assert leave.counters.qubits_prepared == expected_leave, (
                    d, power, xi, leave.counters.qubits_prepared, expected_leave
                )
                cases += 2
    assert cases == 36
    _report(6, "36 join/leave counter cases equal the closed forms exactly")


def test_c07_leave_closed_form_identity():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 17))
        N = int(rng.integers(2, 1_000_000))
        n = int(rng.integers(1, 65))
        xi = float(rng.random())
        L = math.log(N, d)
        by_sessions = star_ghz_cost(d + 1, n, xi) * (L - 1) + star_ghz_cost(d, n, xi)
        closed = tree_leave_cost(N, d, n, xi)
        rel = abs(by_sessions - closed) / max(abs(closed), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-12
    _report(7, f"identity holds over 1000 draws, worst rel err {worst:.2e}")


def test_c08_degree_optimum():
    start = time.monotonic()
    result = sweep_degree(1024, 1, [0.25, 0.5, 0.75, 1.0], range(2, 17))
    assert result.argmin[1.0] == 4
    for xi in (0.25, 0.5, 0.75):
        assert result.argmin[xi] in (3, 4, 5), (xi, result.argmin[xi])
        best = tree_average_cost(1024, result.argmin[xi], 1, xi)
        at4 = tree_average_cost(1024, 4, 1, xi)
        assert at4 <= best * 1.01, (xi, at4, best)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(8, f"argmin d=4 at xi=1, within 1% elsewhere, in {elapsed:.3f}s")


def test_c09_detection_probabilities():
    start = time.monotonic()
    details = []
    for kind in ("intercept_resend", "cnot"):
        rng = np.random.default_rng(11 if kind == "cnot" else 13)
        per = detection_experiment(EveStrategy(kind), 1, 100_000, rng)
        assert abs(per.per_decoy_error_rate - 0.25) < 0.01, (kind, per)
        for m in (5, 10, 20):
            rep = detection_experiment(EveStrategy(kind), m, 100_000, rng)
            expected = 1 - 0.75**m
            assert abs(rep.detection_rate - expected) < 0.005, (kind, m, rep)
        details.append(f"{kind} per-decoy {per.per_decoy_error_rate:.4f}")
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(9, f"{'; '.join(details)}; run-level within 0.005 in {elapsed:.1f}s")


def test_c10_secrecy_games_over_churn():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    tree = KeyTree.build_balanced(4, _users(256), 1, rng)
    proto = GroupProtocol(tree, ProtocolConfig(key_len=1, xi=0.0), rng)
    history = History(proto)
    ciphertexts: list[tuple[int, object]] = []
    next_uid = 257
    for _ in range(1000):
        if rng.random() < 0.5 or proto.tree.group_size() <= 2:
            trace = proto.join(f"u{next_uid}")
            next_uid += 1
        else:
            members = proto.tree.users()
            trace = proto.leave(members[int(rng.integers(len(members)))])
        history.record(trace)
        seen: set[int] = set()
        for m in trace.messages:
            for item in m.items:
                if id(item) not in seen:
                    seen.add(id(item))
                    ciphertexts.append((proto.step, item))
        assert proto.verify_consistency()["consistent"], proto.step

    # One game over every rekey ciphertext and every probe: no key held
    # during a membership stay opens anything sent before the stay's join
    # (backward secrecy) or at or after its leave (forward secrecy); opening
    # needs an exact (id, version, bits) match, and the checker decrypts
    # exactly the pairs that match on (id, version).
    failures = history.secrecy_failures(ciphertexts)
    assert failures == []

    # A random sample of (departed key, later ciphertext) pairs is also
    # decrypted directly, as a cross-check on the cipher binding.
    post_items = sorted(ciphertexts, key=lambda p: p[0])
    sample_rng = np.random.default_rng(7)
    ended = [  # (leave step, sorted keys) per ended stay, by user id
        (left, sorted(keys))
        for _, stays in sorted(stays_with_keys(history).items())
        for _, left, keys in stays
        if left is not None
    ]
    direct_failures = 0
    for _ in range(20_000):
        left_at, archive = ended[int(sample_rng.integers(len(ended)))]
        step, item = post_items[int(sample_rng.integers(len(post_items)))]
        if step < left_at:
            continue
        k, v, b = archive[int(sample_rng.integers(len(archive)))]
        if try_unwrap(GroupKey(k, v, b), item) is not None:
            direct_failures += 1
    assert direct_failures == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        10,
        f"1000 events, {len(ended)} leavers, 0 violations over "
        f"{len(ciphertexts)} ciphertexts and {len(history.probes)} probes "
        f"in {elapsed:.1f}s",
    )


def test_c10_secrecy_game_over_attacked_churn_at_4096():
    # beside c10: the game at a size and key length c10 cannot reach, with
    # aborted events among the committed ones
    start = time.monotonic()
    proto = _protocol(4, 4096, seed=2027, n=16, xi=0.25)
    history = History(proto)
    channel = AdversarialChannel(EveStrategy("intercept_resend", 0.01))
    events = np.random.default_rng(2028)
    ciphertexts: list[tuple[int, object]] = []
    aborts = 0
    for i in range(300):
        proto.channel = channel if events.random() < 0.3 else None
        try:
            if events.random() < 0.5:
                trace = proto.join(f"u{4097 + i}")
            else:
                members = proto.tree.users()
                trace = proto.leave(members[int(events.integers(len(members)))])
        except ProtocolAbort:
            aborts += 1
            continue
        history.record(trace)
        items = {id(item): item for m in trace.messages for item in m.items}
        ciphertexts += [(proto.step, item) for item in items.values()]
    failures = history.secrecy_failures(ciphertexts)
    elapsed = time.monotonic() - start
    assert failures == [] and aborts > 0
    assert elapsed < 10.0
    _report(
        10,
        f"N=4096, n=16: {proto.step} committed events, {aborts} aborted, 0 "
        f"violations over {len(ciphertexts)} ciphertexts in {elapsed:.1f}s",
    )


def test_c11_scaling_with_group_size():
    start = time.monotonic()
    means = {}
    for N, seed in ((1024, 42), (8192, 43)):
        cfg = WorkloadConfig(
            initial_group_size=N,
            degree=4,
            key_len=16,  # keeps per-hop decoy rounding small
            xi=0.25,
            lam=1.0,
            steps=500,
            seed=seed,
            mode="sim",
        )
        result = run_simulation(cfg)
        last = result.records[-1]
        events = last.joins + last.leaves
        assert events >= 400
        mean_cost = last.counters.qubits_prepared / events
        n_bar = sum(r.group_size for r in result.records) / len(result.records)
        expected = tree_average_cost(int(round(n_bar)), 4, 16, 0.25)
        rel = abs(mean_cost - expected) / expected
        assert rel < 0.15, (N, mean_cost, expected, rel)
        means[N] = mean_cost
    ratio = means[8192] / means[1024]
    target = math.log(8192) / math.log(1024)  # 1.3
    assert abs(ratio - target) / target < 0.10, (ratio, target)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        11,
        f"mean costs {means[1024]:.1f}/{means[8192]:.1f}, "
        f"ratio {ratio:.3f} vs {target:.1f} in {elapsed:.1f}s",
    )


def test_c12_star_vs_tree_dominance():
    cfg = WorkloadConfig(
        initial_group_size=1024,
        degree=4,
        key_len=1,
        xi=0.25,
        lam=1.0,
        steps=500,
        seed=12,
        mode="sim",
    )
    series = compare_backends(
        cfg, ["tree-ghz", "star-bell", "star-cluster", "star-single", "star-ghz"]
    )
    ghz = series["tree-ghz"]
    violations = 0
    compared = 0
    for name in ("star-bell", "star-cluster", "star-single", "star-ghz"):
        for tree_rec, star_rec in zip(ghz, series[name]):
            if tree_rec.joins + tree_rec.leaves == 0:
                continue  # nothing spent yet on either side
            compared += 1
            tree_qubits = tree_rec.counters.qubits_prepared
            if not tree_qubits < star_rec.counters.qubits_prepared:
                violations += 1
    assert compared >= 4 * 490
    assert violations == 0
    _report(12, f"tree-ghz strictly below all four star series ({compared} points)")


def test_c13_determinism_byte_identical(tmp_path):
    commands = [
        ["trace", "join", "--group-size", "8", "--degree", "3", "--seed", "5"],
        ["trace", "leave", "--group-size", "27", "--degree", "3", "--seed", "6"],
        ["cost", "--protocol", "tree-avg", "--N", "1024", "--n", "1",
         "--xi", "0.25", "--d", "4"],
        ["sweep-degree", "--N", "1024", "--n", "1", "--xi-list", "0.25,1",
         "--d-min", "2", "--d-max", "16"],
        ["simulate", "--initial", "32", "--degree", "4", "--lambda", "1",
         "--steps", "20", "--seed", "8"],
        ["attack", "--strategy", "cnot", "--decoys", "10", "--trials", "5000",
         "--seed", "9"],
    ]
    for i, argv in enumerate(commands):
        a = tmp_path / f"{i}a.out"
        b = tmp_path / f"{i}b.out"
        assert cli_main([*argv, "--out", str(a)]) == 0
        assert cli_main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv
    _report(13, f"{len(commands)} commands re-run byte-identical")
