"""Session engine: encoding rules, table conformance, agreement, counters."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from oracle import leader_schedule
from qgka import qka
from qgka.adversary import AdversarialChannel, EveStrategy
from qgka.qka import (
    Participant,
    QkaConfig,
    TamperError,
    decoys_for_payload,
    encode_operation,
    extract_keys,
    make_config,
    measure_positions,
    run_session,
)
from qgka.quantum import Pauli, apply_pauli, ghz_state, measure_entangled

# Two-party key generation, transcribed cell by cell: follower op ->
# {leader op: (measurement outcome, shared key)}.
TWO_PARTY_TABLE = {
    Pauli.I: {
        Pauli.I: ("00", 0),
        Pauli.X: ("01", 0),
        Pauli.Y: ("11", 1),
        Pauli.Z: ("10", 1),
    },
    Pauli.X: {
        Pauli.I: ("01", 1),
        Pauli.X: ("00", 1),
        Pauli.Y: ("10", 0),
        Pauli.Z: ("11", 0),
    },
}

# Three-party key generation: (follower2, follower3) -> {leader: (outcome, key)}.
THREE_PARTY_TABLE = {
    (Pauli.I, Pauli.I): {
        Pauli.I: ("000", 0),
        Pauli.X: ("011", 1),
        Pauli.Y: ("111", 0),
        Pauli.Z: ("100", 1),
    },
    (Pauli.I, Pauli.X): {
        Pauli.I: ("001", 1),
        Pauli.X: ("010", 0),
        Pauli.Y: ("110", 1),
        Pauli.Z: ("101", 0),
    },
    (Pauli.X, Pauli.I): {
        Pauli.I: ("010", 1),
        Pauli.X: ("001", 0),
        Pauli.Y: ("101", 1),
        Pauli.Z: ("110", 0),
    },
    (Pauli.X, Pauli.X): {
        Pauli.I: ("011", 0),
        Pauli.X: ("000", 1),
        Pauli.Y: ("100", 0),
        Pauli.Z: ("111", 1),
    },
}


class TestEncoding:
    def test_followers_have_no_choice(self, rng):
        for parity in ("even", "odd"):
            assert encode_operation(0, False, parity, rng) == Pauli.I
            assert encode_operation(1, False, parity, rng) == Pauli.X

    def test_leader_even_parity_options(self, rng):
        zero = {encode_operation(0, True, "even", rng) for _ in range(200)}
        one = {encode_operation(1, True, "even", rng) for _ in range(200)}
        assert zero == {Pauli.I, Pauli.X}
        assert one == {Pauli.Y, Pauli.Z}

    def test_leader_odd_parity_options(self, rng):
        zero = {encode_operation(0, True, "odd", rng) for _ in range(200)}
        one = {encode_operation(1, True, "odd", rng) for _ in range(200)}
        assert zero == {Pauli.I, Pauli.Y}
        assert one == {Pauli.X, Pauli.Z}


class TestLeaderSchedule:
    def test_two_party_alternation(self):
        parts = [Participant("s"), Participant("u")]
        assert [leader_schedule(parts, i).id for i in range(4)] == ["s", "u", "s", "u"]

    def test_single_position(self):
        parts = [Participant("a"), Participant("b"), Participant("c")]
        assert leader_schedule(parts, 0).id == "a"

    def test_three_party_six_positions_balanced(self):
        # enumeration oracle: count each participant's led positions
        parts = [Participant(x) for x in "abc"]
        counts = {p.id: 0 for p in parts}
        for i in range(6):
            counts[leader_schedule(parts, i).id] += 1
        assert counts == {"a": 2, "b": 2, "c": 2}

    @given(P=st.integers(1, 8), n=st.integers(1, 64))
    def test_lead_counts_differ_by_at_most_one(self, P, n):
        parts = [Participant(f"p{i}") for i in range(P)]
        counts = {p.id: 0 for p in parts}
        for i in range(n):
            counts[leader_schedule(parts, i).id] += 1
        assert max(counts.values()) - min(counts.values()) <= 1
        assert set(counts.values()) <= {n // P, n // P + (1 if n % P else 0)}


def _simulate_cell(leader_op: Pauli, follower_ops: list[Pauli]) -> str:
    state = ghz_state(1 + len(follower_ops))
    state = apply_pauli(state, 0, leader_op)
    for q, op in enumerate(follower_ops, start=1):
        state = apply_pauli(state, q, op)
    return measure_entangled(state)


class TestTableConformance:
    def test_two_party_cells(self):
        for f_op, row in TWO_PARTY_TABLE.items():
            for l_op, (outcome, key) in row.items():
                assert _simulate_cell(l_op, [f_op]) == outcome
                # extraction from both seats agrees with the table
                keys_l, shared_l = extract_keys(outcome, l_op, 0, "even")
                keys_f, shared_f = extract_keys(outcome, f_op, 1, "even")
                assert shared_l == shared_f == key
                assert keys_l == keys_f

    def test_three_party_cells(self):
        for (f2, f3), row in THREE_PARTY_TABLE.items():
            for l_op, (outcome, key) in row.items():
                assert _simulate_cell(l_op, [f2, f3]) == outcome
                for idx, op in ((0, l_op), (1, f2), (2, f3)):
                    keys, shared = extract_keys(outcome, op, idx, "odd")
                    assert shared == key

    def test_worked_three_party_extraction(self):
        # leader performed Y and measured 101: operation keys 0, 1, 0, key 1
        keys, shared = extract_keys("101", Pauli.Y, 0, "odd")
        assert keys == [0, 1, 0]
        assert shared == 1
        # the follower seats reach the same conclusion
        assert extract_keys("101", Pauli.X, 1, "odd") == ([0, 1, 0], 1)
        assert extract_keys("101", Pauli.I, 2, "odd") == ([0, 1, 0], 1)

    def test_all_identity_yields_zero(self):
        for n, parity in ((2, "even"), (3, "odd"), (4, "even")):
            keys, shared = extract_keys("0" * n, Pauli.I, 0, parity)
            assert keys == [0] * n and shared == 0

    def test_follower_must_apply_i_or_x(self):
        with pytest.raises(ValueError):
            extract_keys("00", Pauli.Y, 1, "even")

    def test_tampered_outcome_detected_by_leader(self):
        # leader applied I (key 0, even parity) but the sign bit reads 1
        with pytest.raises(TamperError):
            extract_keys("10", Pauli.I, 0, "even")


class TestRunSession:
    def test_two_party_one_bit_counters(self, rng):
        t = run_session(make_config(["s", "u"], n=1), rng=rng)
        assert not t.aborted
        assert t.counters.qubits_prepared == 2
        assert t.counters.entangled_measurements == 1
        assert t.counters.qubits_transmitted == 2  # out once, back once
        k_s = t.operation_keys["s"]
        k_u = t.operation_keys["u"]
        assert int(t.extracted_key) == int(k_s) ^ int(k_u)

    def test_multi_party_one_bit_qubits(self, rng):
        for P in (2, 3, 5, 8):
            t = run_session(
                make_config([f"p{i}" for i in range(P)], n=1), rng=rng
            )
            assert t.counters.qubits_prepared == P

    def test_agreement_many_seeded_runs(self):
        # every run yields one key every participant derives identically;
        # the engine cross-checks all seats and would abort on disagreement
        rng = np.random.default_rng(3)
        for trial in range(2000):
            t = run_session(make_config(["s", "u1", "u2"], n=1), rng=rng)
            assert not t.aborted
            xor = 0
            for pid in t.participants:
                xor ^= int(t.operation_keys[pid])
            assert int(t.extracted_key) == xor

    @given(P=st.integers(2, 8), n=st.integers(1, 64))
    @settings(max_examples=25)
    def test_agreement_and_xor_decomposition(self, P, n):
        rng = np.random.default_rng(P * 1000 + n)
        t = run_session(make_config([f"p{i}" for i in range(P)], n=n), rng=rng)
        assert not t.aborted
        assert len(t.extracted_key) == n
        for i in range(n):
            xor = 0
            for pid in t.participants:
                xor ^= int(t.operation_keys[pid][i])
            assert int(t.extracted_key[i]) == xor

    def test_shared_key_is_uniform(self):
        rng = np.random.default_rng(17)
        ones = 0
        trials = 12_000
        cfg = make_config(["s", "u1", "u2"], n=1)
        for _ in range(trials):
            ones += int(run_session(cfg, rng=rng).extracted_key)
        assert abs(ones / trials - 0.5) < 0.02

    def test_no_single_party_control(self):
        # fix one participant's operation key by reusing only runs where it
        # came out 0; the shared key must stay uniform
        rng = np.random.default_rng(23)
        cfg = make_config(["s", "u1", "u2"], n=1)
        ones = total = 0
        while total < 6000:
            t = run_session(cfg, rng=rng)
            if t.operation_keys["u1"] != "0":
                continue
            total += 1
            ones += int(t.extracted_key)
        assert abs(ones / total - 0.5) < 0.02

    def test_decoy_policy_counters_exact(self, rng):
        # P=2, n=4, xi=0.5: outbound 1 hop of 4 payload + 2 decoys; each
        # participant leads 2 positions, so two return hops of 2 payload + 1
        # decoy each
        t = run_session(make_config(["s", "u"], n=4, xi=0.5), rng=rng)
        assert decoys_for_payload(4, 0.5) == 2
        assert t.counters.qubits_prepared == 8 + 2 + 1 + 1
        assert t.counters.qubits_transmitted == (4 + 2) + (2 + 1) + (2 + 1)
        assert t.counters.decoy_measurements == 4
        assert t.counters.gates_applied == 8

    def test_ceil_decoy_rounding(self):
        assert decoys_for_payload(1, 0.25) == 1
        assert decoys_for_payload(4, 0.25) == 1
        assert decoys_for_payload(0, 1.0) == 0
        assert decoys_for_payload(3, 0.0) == 0

    @pytest.mark.parametrize("xi, payload", [(0.07, 100), (0.14, 50)])
    def test_decoy_count_reads_xi_as_exact_decimal(self, xi, payload):
        # xi * payload is 7 exactly, but the binary product exceeds 7
        assert xi * payload > 7
        assert decoys_for_payload(payload, xi) == 7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(["s"], n=1)
        with pytest.raises(ValueError):
            make_config(["s", "u"], n=0)
        with pytest.raises(ValueError):
            make_config(["s", "u"], n=1, xi=1.5)
        with pytest.raises(ValueError):
            QkaConfig([Participant("a"), Participant("a")], n=1)

    def test_transcript_serializes(self, rng):
        t = run_session(make_config(["s", "u"], n=2), rng=rng)
        d = t.to_dict()
        assert d["participants"] == ["s", "u"]
        assert len(d["positions"]) == 2
        assert set(d["positions"][0]["ops"]) == {"s", "u"}
        assert d["counters"]["qubits_prepared"] == 4


def _channel(kind: str, p: float):
    return None if kind == "honest" else AdversarialChannel(EveStrategy(kind, p))


_sessions = dict(
    P=st.integers(2, 9),
    n=st.integers(1, 80),
    xi=st.sampled_from([0, 0.07, 0.25, 0.5, 1]),
    kind=st.sampled_from(["honest", "none", "intercept_resend", "cnot"]),
    p=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)


class TestArrayEngine:
    """The array engine against the qubit-by-qubit reference, draw for draw."""

    @staticmethod
    def _both(P, n, xi, kind, p, seed):
        cfg = make_config([f"p{i}" for i in range(P)], n=n, xi=xi)
        channel = _channel(kind, p)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        t = run_session(cfg, rng, channel)
        ref = oracle.run_session(cfg, ref_rng, channel)
        return t, ref, rng, ref_rng

    @given(**_sessions)
    @settings(max_examples=200)
    def test_matches_scalar_reference(self, P, n, xi, kind, p, seed):
        t, ref, rng, ref_rng = self._both(P, n, xi, kind, p, seed)
        # serialized without sorting, so the order of every dict counts too
        assert json.dumps(t.to_dict()) == json.dumps(ref.to_dict())
        assert t.operation_keys == ref.operation_keys
        assert t.counters == ref.counters
        assert (t.aborted, t.abort_cause) == (ref.aborted, ref.abort_cause)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        **{**_sessions, "kind": st.sampled_from(["honest", "none"])},
        where=st.tuples(st.integers(0, 79), st.integers(0, 8)),
    )
    @settings(max_examples=100)
    def test_corrupted_outcome_bit_aborts_with_tamper(
        self, P, n, xi, kind, p, seed, where
    ):
        # flip qubit q's bit of position i's outcome (qubit 0 is the leader's
        # sign bit) before anyone extracts, in both engines; the channel
        # lets every session reach the measurement
        i, q = where[0] % n, where[1] % P
        lead = i % P
        row = [lead, *range(lead), *range(lead + 1, P)][q]

        def corrupt_slots(x, z, lead_rows):
            out = measure_positions(x, z, lead_rows)
            out[row, i] ^= 1
            return out

        calls = iter(range(n))
        measure = oracle.measure_entangled

        def corrupt_outcome(state):
            outcome = measure(state)
            if next(calls) != i:
                return outcome
            return outcome[:q] + "01"[outcome[q] == "0"] + outcome[q + 1 :]

        with mock.patch.object(qka, "measure_positions", corrupt_slots), \
                mock.patch.object(oracle, "measure_entangled", corrupt_outcome):
            t, ref, rng, ref_rng = self._both(P, n, xi, kind, p, seed)
        assert json.dumps(t.to_dict()) == json.dumps(ref.to_dict())
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (t.aborted, t.abort_cause, t.extracted_key) == (True, "tamper", "")
