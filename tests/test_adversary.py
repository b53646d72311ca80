"""Attack taps, detection statistics, session aborts, malicious leaders."""

import itertools
import tracemalloc

import numpy as np
import pytest

from qgka import adversary
from qgka.adversary import (
    AdversarialChannel,
    EveStrategy,
    detection_experiment,
    malicious_leader_experiment,
    tap_decoys,
)
from qgka.qka import QkaConfig, run_session
from qgka.quantum import DecoyKind, DecoyQubit, Pauli, decoy_measure

import oracle
from oracle import forge_outcome, tap_cnot, tap_intercept_resend


class TestTaps:
    def test_intercept_matching_basis_learns_bit(self, rng):
        # force Eve's basis by trying until it matches; with a Z0 decoy her
        # Z-basis tap must read 0 and forward an intact |0>
        hits = 0
        for _ in range(200):
            forwarded, bit = tap_intercept_resend(DecoyQubit(DecoyKind.Z0), rng)
            if forwarded.kind in (DecoyKind.Z0, DecoyKind.Z1):
                assert bit == 0
                assert forwarded.kind == DecoyKind.Z0
                hits += 1
        assert hits > 50  # about half the taps match the basis

    def test_intercept_per_decoy_detection_rate(self, rng):
        errors = 0
        trials = 40_000
        for _ in range(trials):
            decoy = DecoyQubit(
                kind=(DecoyKind.Z0, DecoyKind.Z1, DecoyKind.XPLUS, DecoyKind.XMINUS)[
                    int(rng.integers(4))
                ]
            )
            forwarded, _ = tap_intercept_resend(decoy, rng)
            if decoy_measure(forwarded, decoy.basis, rng) != decoy.bit:
                errors += 1
        assert abs(errors / trials - 0.25) < 0.01

    def test_cnot_z_decoys_invisible(self, rng):
        for kind, bit in ((DecoyKind.Z0, 0), (DecoyKind.Z1, 1)):
            forwarded, ancilla = tap_cnot(DecoyQubit(kind), rng)
            assert forwarded.entangled is None
            assert ancilla == bit
            assert decoy_measure(forwarded, "Z", rng) == bit

    def test_cnot_x_decoys_flip_half_the_time(self, rng):
        errors = 0
        trials = 40_000
        for _ in range(trials):
            kind = DecoyKind.XPLUS if rng.integers(2) == 0 else DecoyKind.XMINUS
            decoy = DecoyQubit(kind)
            forwarded, _ = tap_cnot(decoy, rng)
            assert forwarded.entangled is not None
            if decoy_measure(forwarded, "X", rng) != decoy.bit:
                errors += 1
        assert abs(errors / trials - 0.5) < 0.01

    def test_cnot_pair_sign_tracks_decoy(self, rng):
        plus, _ = tap_cnot(DecoyQubit(DecoyKind.XPLUS), rng)
        minus, _ = tap_cnot(DecoyQubit(DecoyKind.XMINUS), rng)
        assert plus.entangled.sign == 1
        assert minus.entangled.sign == -1

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("strategy", ["intercept_resend", "cnot"])
    def test_scalar_taps_match_channel(self, strategy, p):
        # the per-qubit taps and the array kernel are one mechanism: the
        # same per-decoy error rate p/4, and Eve's accuracy 3/4 over the
        # decoys she touched, each within five binomial standard deviations
        rng = np.random.default_rng(61)
        m, q = 20_000, p / 4
        eve = EveStrategy(strategy, p)
        kinds = rng.integers(4, size=m)
        readings, eve_bits, touched = oracle.scalar_tap(eve, kinds, rng)
        touched = np.array(touched)
        slow_error = np.mean(np.array(readings) != kinds % 2)
        slow_eve = np.mean((np.array(eve_bits) == kinds % 2)[touched])
        kinds = rng.integers(4, size=m)
        fast_error = np.mean(AdversarialChannel(eve).transmit(kinds, rng))
        _, eve_wrong, attacked = tap_decoys(eve, kinds, rng)
        if attacked is None:
            attacked = np.ones(m, dtype=bool)
        fast_eve = 1 - np.mean(eve_wrong[attacked])
        sd_error = np.sqrt(q * (1 - q) / m)
        sd_eve = np.sqrt(0.25 * 0.75 / min(touched.sum(), attacked.sum()))
        pairs = (
            (slow_error, fast_error, q, sd_error),
            (slow_eve, fast_eve, 0.75, sd_eve),
        )
        for slow, fast, want, sd in pairs:
            assert abs(slow - fast) < 5 * np.sqrt(2) * sd
            assert abs(slow - want) < 5 * sd
            assert abs(fast - want) < 5 * sd

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    @pytest.mark.parametrize("m", [1, 2, 7, 40, (1 << 17) + 1])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("strategy", ["intercept_resend", "cnot"])
    def test_fused_draw_matches_reference_draw_for_draw(self, strategy, p, m, dtype):
        # the fused draw and the reference's one draw per quantity give the
        # same misread mask, Eve-wrong mask, touched mask and generator
        # state, also when the tap starts on the second half of a buffered
        # 32-bit output
        eve = EveStrategy(strategy, p)
        kinds = np.random.default_rng(m).integers(4, size=m).astype(dtype)
        fast, slow = np.random.default_rng(7), np.random.default_rng(7)
        for rng in (fast, slow):
            rng.integers(4, size=3)  # odd-sized: half of a 32-bit output left
            assert rng.bit_generator.state["has_uint32"] == 1
        misread, eve_wrong, touched = tap_decoys(eve, kinds, fast)
        receiver, eve_bit, attacked = oracle.where_tap(eve, kinds, slow)
        np.testing.assert_array_equal(misread, receiver != kinds & 1)
        np.testing.assert_array_equal(eve_wrong, eve_bit != kinds & 1)
        if touched is None:
            assert p == 1.0 and attacked.all()
        else:
            np.testing.assert_array_equal(touched, attacked)
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("p", [0.01, 1.0])
    @pytest.mark.parametrize("strategy", ["none", "intercept_resend", "cnot"])
    def test_channel_reports_the_reference_misreads(self, strategy, p):
        # a session's channel hands back which decoys read wrong: the
        # reference's readings compared with the encoded bits, draw for draw
        # (a "none" channel misreads none and draws nothing)
        eve = EveStrategy(strategy, p)
        for m in (1, 20, 80):
            kinds = np.random.default_rng(m).integers(4, size=m)
            fast, slow = np.random.default_rng(m + 1), np.random.default_rng(m + 1)
            got = AdversarialChannel(eve).transmit(kinds, fast)
            receiver, _, _ = oracle.where_tap(eve, kinds, slow)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, receiver != kinds & 1)
            assert fast.bit_generator.state == slow.bit_generator.state


class TestDetectionExperiment:
    @pytest.mark.parametrize("strategy", ["intercept_resend", "cnot"])
    def test_per_decoy_rate(self, strategy):
        rng = np.random.default_rng(101)
        report = detection_experiment(EveStrategy(strategy), 1, 100_000, rng)
        assert abs(report.per_decoy_error_rate - 0.25) < 0.01

    @pytest.mark.parametrize("strategy", ["intercept_resend", "cnot"])
    @pytest.mark.parametrize("m", [5, 10, 20])
    def test_run_level_rate(self, strategy, m):
        rng = np.random.default_rng(m * 7)
        trials = 100_000 if m == 5 else 50_000
        report = detection_experiment(EveStrategy(strategy), m, trials, rng)
        assert abs(report.detection_rate - (1 - 0.75**m)) < 0.005

    def test_eve_learns_three_quarters_of_decoy_bits(self):
        rng = np.random.default_rng(5)
        for strategy in ("intercept_resend", "cnot"):
            report = detection_experiment(EveStrategy(strategy), 1, 50_000, rng)
            assert abs(report.eve_bit_accuracy - 0.75) < 0.01

    def test_vectorized_matches_scalar_taps(self):
        # the bulk experiment and the per-qubit taps describe one mechanism
        rng = np.random.default_rng(77)
        report = detection_experiment(EveStrategy("cnot"), 1, 30_000, rng)
        errors = 0
        trials = 30_000
        for _ in range(trials):
            decoy = DecoyQubit(
                kind=(DecoyKind.Z0, DecoyKind.Z1, DecoyKind.XPLUS, DecoyKind.XMINUS)[
                    int(rng.integers(4))
                ]
            )
            forwarded, _ = tap_cnot(decoy, rng)
            errors += decoy_measure(forwarded, decoy.basis, rng) != decoy.bit
        assert abs(report.per_decoy_error_rate - errors / trials) < 0.015

    def test_inactive_eve_never_detected(self):
        rng = np.random.default_rng(1)
        report = detection_experiment(EveStrategy("none"), 10, 1_000, rng)
        assert report.detections == 0

    def test_attack_probability_scales_rate(self):
        rng = np.random.default_rng(3)
        report = detection_experiment(
            EveStrategy("cnot", attack_probability=0.5), 1, 80_000, rng
        )
        assert abs(report.per_decoy_error_rate - 0.125) < 0.01

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_eve_accuracy_counts_only_touched_decoys(self, p):
        eve = EveStrategy("intercept_resend", p)
        report = detection_experiment(eve, 1, 80_000, np.random.default_rng(9))
        if p == 0.0:
            assert report.eve_bit_accuracy is None
        else:
            assert abs(report.eve_bit_accuracy - 0.75) < 0.01


STRATEGIES = [
    EveStrategy(kind, p)
    for kind in ("none", "intercept_resend", "cnot")
    for p in (1.0, 0.3)
]

TAPPING = [eve for eve in STRATEGIES if eve.kind != "none"]


def _strategy_id(eve):
    return f"{eve.kind}-{eve.attack_probability}"


class TestChunkedExperiment:
    """``detection_experiment`` over decoy chunks against the one-shot oracle."""

    @pytest.mark.parametrize("eve", STRATEGIES, ids=_strategy_id)
    @pytest.mark.parametrize(
        "m, trials",
        [(1, 100_000), (10, 5_000), (7, 3), (16, adversary.DETECTION_CHUNK // 16)],
    )
    def test_one_chunk_matches_oracle_draw_for_draw(self, eve, m, trials):
        fast, slow = np.random.default_rng(m), np.random.default_rng(m)
        got = detection_experiment(eve, m, trials, fast)
        want = oracle.detection_experiment(eve, m, trials, slow)
        assert got.to_dict() == want.to_dict()
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 5, 7, 64, adversary.DETECTION_CHUNK])
    def test_inactive_eve_report_independent_of_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(adversary, "DETECTION_CHUNK", chunk)
        eve = EveStrategy("none")
        for m, trials in ((7, 300), (1, 1000), (250, 2)):
            got = detection_experiment(eve, m, trials, np.random.default_rng(1))
            want = oracle.detection_experiment(eve, m, trials, np.random.default_rng(1))
            assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("eve", TAPPING, ids=_strategy_id)
    @pytest.mark.parametrize(
        "chunk, m, trials",
        [(100, 7, 300), (70, 7, 300), (100, 250, 4), (1, 3, 40)],
    )
    def test_chunks_rebuilt_by_hand(self, monkeypatch, eve, chunk, m, trials):
        # the chunks' draws, concatenated, reduced as one (trials, m) array:
        # a trial cut by a chunk boundary is detected once
        monkeypatch.setattr(adversary, "DETECTION_CHUNK", chunk)
        rng = np.random.default_rng(chunk + m)
        twin = np.random.default_rng(chunk + m)
        report = detection_experiment(eve, m, trials, rng)
        parts = []
        for start in range(0, m * trials, chunk):
            kinds = twin.integers(4, size=min(chunk, m * trials - start))
            misread, eve_wrong, touched = tap_decoys(eve, kinds, twin)
            if touched is None:
                touched = np.ones(len(kinds), dtype=bool)
            parts.append((misread, eve_wrong, touched))
        errors, eve_wrong, attacked = map(np.concatenate, zip(*parts))
        assert report.detections == int(errors.reshape(trials, m).any(axis=1).sum())
        assert report.per_decoy_error_rate == errors.mean()
        assert report.eve_bit_accuracy == (~eve_wrong)[attacked].mean()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_memory_constant_in_trials_and_decoys(self, monkeypatch):
        chunk = 1 << 12
        monkeypatch.setattr(adversary, "DETECTION_CHUNK", chunk)
        eve = EveStrategy("intercept_resend", 0.3)
        # numpy allocates lazily on its first calls; keep that out of the peaks
        detection_experiment(eve, 1, 1, np.random.default_rng(0))

        def peak(m, trials):
            rng = np.random.default_rng(2)
            tracemalloc.start()
            try:
                detection_experiment(eve, m, trials, rng)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(20, 50 * chunk // 20)  # 50 chunks
        peaks = (
            small,
            peak(20, 500 * chunk // 20),  # 500 chunks
            peak(100 * chunk, 5),  # 500 chunks, each trial across 100
        )
        assert all(q < 16 * chunk * 8 for q in peaks), peaks
        assert all(q <= small + chunk for q in peaks), peaks
        # the fused draw and its masks: about 37 bytes per decoy of a chunk
        # here, bounded with 30% headroom (the readings of
        # ``oracle.where_tap``, one draw per quantity, take about 71)
        assert small < 48 * chunk, small / chunk


class TestSessionAborts:
    def test_any_active_eve_aborts_with_zero_threshold(self):
        # completion probability is (3/4)^m for m decoys per session
        rng = np.random.default_rng(11)
        channel = AdversarialChannel(EveStrategy("intercept_resend"))
        cfg = QkaConfig(["s", "u"], n=4, xi=1.0)
        # hops: out 4+4 decoys, returns 2+2 and 2+2 -> m = 8
        completions = 0
        trials = 3_000
        for _ in range(trials):
            t = run_session(cfg, channel=channel, rng=rng)
            completions += not t.aborted
            if t.aborted:
                assert t.abort_cause == "eavesdropper"
        expected = 0.75**8
        assert abs(completions / trials - expected) < 0.02

    def test_honest_channel_never_aborts(self):
        rng = np.random.default_rng(2)
        cfg = QkaConfig(["s", "u1", "u2"], n=8, xi=0.5)
        for _ in range(200):
            assert not run_session(cfg, rng=rng).aborted


class TestMaliciousLeader:
    def test_forge_outcome_fools_every_follower(self, rng):
        # brute force all leader/follower combinations at both parities
        for parity, followers in (("even", 1), ("odd", 2)):
            from qgka.quantum import apply_pauli, ghz_state, measure_entangled

            for leader_op in Pauli:
                for mask in range(2**followers):
                    f_ops = [
                        Pauli.X if (mask >> i) & 1 else Pauli.I
                        for i in range(followers)
                    ]
                    state = ghz_state(1 + followers)
                    state = apply_pauli(state, 0, leader_op)
                    for q, op in enumerate(f_ops, start=1):
                        state = apply_pauli(state, q, op)
                    outcome = measure_entangled(state)
                    for target in (0, 1):
                        forged = forge_outcome(outcome, leader_op, parity, target)
                        from oracle import extract_keys

                        for q, op in enumerate(f_ops, start=1):
                            _, shared = extract_keys(forged, op, q, parity)
                            assert shared == target

    def test_round_robin_limits_forcing(self):
        rng = np.random.default_rng(4)
        report = malicious_leader_experiment(
            ["s", "u1", "u2"], n=12, dishonest="u1", rng=rng, trials=50
        )
        assert report.positions_led_fraction == pytest.approx(1 / 3)
        assert report.forced_fraction == pytest.approx(1 / 3)

    def test_honest_participant_forces_nothing(self):
        rng = np.random.default_rng(8)
        report = malicious_leader_experiment(
            ["s", "u1", "u2"], n=12, dishonest="u1", rng=rng, forge=False, trials=20
        )
        assert report.forced_fraction == 0.0

    def test_fixed_leader_forces_everything(self):
        rng = np.random.default_rng(15)
        report = malicious_leader_experiment(
            ["s", "u1", "u2"],
            n=9,
            dishonest="u1",
            rng=rng,
            rotate_leaders=False,
            trials=30,
        )
        assert report.positions_led_fraction == 1.0
        assert report.forced_fraction == 1.0

    @pytest.mark.parametrize("P", range(2, 7))
    def test_matches_scalar_experiment(self, P):
        ids = ["s"] + [f"u{i}" for i in range(1, P)]
        fast, slow = np.random.default_rng(P), np.random.default_rng(P)
        grid = itertools.product(
            (1, 5, 12), (ids[0], ids[-1]), (True, False), (True, False), (0, 1)
        )
        for n, dishonest, rotate, forge, target in grid:
            kwargs = dict(
                rotate_leaders=rotate, forge=forge, target_bit=target, trials=3
            )
            got = malicious_leader_experiment(ids, n, dishonest, fast, **kwargs)
            want = oracle.malicious_leader_experiment(ids, n, dishonest, slow, **kwargs)
            assert got.to_dict() == want.to_dict()
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize(
        "ids, n, dishonest, target_bit, trials",
        [
            pytest.param(["s", "u1", "u1"], 4, "u1", 0, 1, id="duplicate-id"),
            pytest.param(["s"], 4, "s", 0, 1, id="one-participant"),
            pytest.param(["s", "u1"], 0, "u1", 0, 1, id="empty-key"),
            pytest.param(["s", "u1"], 4, "u1", 7, 1, id="target-not-a-bit"),
            pytest.param(["s", "u1"], 4, "u1", 0, 0, id="no-trials"),
            pytest.param(["s", "u1"], 4, "u2", 0, 1, id="attacker-absent"),
        ],
    )
    def test_rejects_bad_inputs(self, ids, n, dishonest, target_bit, trials):
        with pytest.raises(ValueError):
            malicious_leader_experiment(
                ids, n, dishonest, np.random.default_rng(0),
                target_bit=target_bit, trials=trials,
            )

    def test_unled_positions_stay_uniform(self):
        # a single dishonest participant cannot bias positions she follows
        rng = np.random.default_rng(21)
        ones = total = 0
        for _ in range(400):
            from qgka.qka import run_session as rs

            t = rs(QkaConfig(["s", "u1", "u2"], n=9), rng=rng)
            for i, rec in enumerate(t.positions):
                if rec.leader != "u1":
                    ones += int(t.extracted_key[i])
                    total += 1
        assert abs(ones / total - 0.5) < 0.03

    def test_report_serializes(self):
        rng = np.random.default_rng(1)
        report = detection_experiment(EveStrategy("cnot"), 5, 100, rng)
        doc = report.to_dict()
        assert doc["strategy"] == "cnot"
        assert "forced_fraction" not in doc
        assert report.csv_row().startswith("cnot,5,100,")
