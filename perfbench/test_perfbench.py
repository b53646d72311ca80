"""Fast tests of the benchmark itself: tiny workloads and corrupted outputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from hostspeed import WARMUP_PASSES, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from qgka import GroupKey, KeyTree, ProtocolConfig  # noqa: E402
from qgka.protocol import GroupProtocol  # noqa: E402

TINY = {
    "churn_16k": replace(workloads.WORKLOADS["churn_16k"], group_size=24, key_len=4),
    "churn_longkey": replace(workloads.WORKLOADS["churn_longkey"], group_size=12, key_len=32),
    "churn_attacked": replace(
        workloads.WORKLOADS["churn_attacked"], group_size=24, attack_probability=0.05
    ),
    "detect": replace(workloads.WORKLOADS["detect"], trials=4000),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_tiny(name, trace):
    result = workloads.run(name, 3, 0.3, trace, SRC, spec=TINY[name])
    assert result.attempted >= 1 and result.failed == 0
    assert set(result.end_to_end) == {"ops_per_s", "qubits_per_op", "setup_s", "peak_rss_mb"}
    for value, _ in result.end_to_end.values():
        assert getattr(value, "value", value) > 0
    if trace:
        assert set(result.per_layer) == set(workloads.PER_LAYER)


def test_attacked_workload_rolls_back_some_events():
    spec = replace(TINY["churn_attacked"], attack_probability=0.2)
    result = workloads.run("churn_attacked", 5, 0.3, False, SRC, spec=spec)
    assert 0 < result.aborted < result.attempted


def test_same_seed_same_counts():
    # counts cover the first count_rounds rounds, so they repeat exactly
    # however many rounds the time allows
    a = workloads.run("churn_attacked", 9, 0.1, True, SRC, spec=TINY["churn_attacked"])
    b = workloads.run("churn_attacked", 9, 0.4, True, SRC, spec=TINY["churn_attacked"])
    assert a.end_to_end["qubits_per_op"] == b.end_to_end["qubits_per_op"]
    for name, (value, unit) in a.per_layer.items():
        if unit == "count" or name.endswith("_ratio"):
            assert value == b.per_layer[name][0], name


def test_tracer_keeps_self_time_per_parent():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: None)
    outer_a = tracer.span("a", lambda: inner())
    outer_b = tracer.span("b", lambda: (inner(), inner()))
    outer_a()
    outer_b()
    inner()
    assert tracer.calls["inner"] == 4
    assert tracer.ms_under("inner", "a")[1] == 1
    assert tracer.ms_under("inner", "b")[1] == 2
    assert tracer.ms_under("inner", "c") == (0.0, 0)
    under_b = tracer.ms_under("inner", "b")[0]
    assert 0 < under_b <= tracer.ms("inner")


def test_host_speed_sample_warms_up_with_the_collector_paused():
    import gc

    speed = HostSpeed("python")
    seen = []
    speed._work = lambda: seen.append(gc.isenabled())
    assert gc.isenabled()
    speed.sample()
    assert seen == [False] * (WARMUP_PASSES + 1)
    assert gc.isenabled() and len(speed.samples) == 1


# ---------------------------------------------------------------------- #
# the checkers reject corrupted outputs


def _protocol(n=4, users=9, degree=3, seed=1):
    rng = np.random.default_rng(seed)
    tree = KeyTree.build_balanced(degree, [f"u{i + 1}" for i in range(users)], n, rng)
    return GroupProtocol(tree, ProtocolConfig(key_len=n, xi=0.25), rng)


def test_session_qubits_matches_worked_examples():
    # worked join at xi=0, n=1: two 2-party sessions, 4 qubits
    assert 2 * checks.session_qubits(2, 1, Fraction(0)) == 4
    # P=3, n=4, xi=1/4: 12 entangled + 2*1 outbound + leaders 2,1,1 -> 2*(1+1+1)
    assert checks.session_qubits(3, 4, Fraction(1, 4)) == 12 + 2 + 6


def test_qubit_checker_rejects_counter_off_by_one():
    proto = _protocol()
    trace = proto.join("u100")
    assert checks.check_event_qubits(trace, 4, Fraction(1, 4)) == trace.counters.qubits_prepared
    trace.sessions[0][1].counters.qubits_prepared += 1
    with pytest.raises(checks.CheckError):
        checks.check_event_qubits(trace, 4, Fraction(1, 4))
    trace.sessions[0][1].counters.qubits_prepared -= 1
    trace.counters.qubits_prepared -= 1
    with pytest.raises(checks.CheckError):
        checks.check_event_qubits(trace, 4, Fraction(1, 4))


def test_xor_checker_rejects_a_flipped_key_bit():
    proto = _protocol()
    transcript = proto.leave("u3").sessions[0][1]
    checks.check_session_xor(transcript)
    bits = transcript.extracted_key
    transcript.extracted_key = ("1" if bits[0] == "0" else "0") + bits[1:]
    with pytest.raises(checks.CheckError):
        checks.check_session_xor(transcript)


def test_group_key_checker_rejects_a_stale_member():
    proto = _protocol()
    old_root = proto.tree.key(proto.tree.root)
    proto.join("u100")
    members = proto.tree.users()
    checks.check_group_key(proto.views, proto.tree, members)
    checks.check_views(proto.views, proto.tree, members)
    proto.views["u1"].install(old_root)
    with pytest.raises(checks.CheckError):
        checks.check_group_key(proto.views, proto.tree, members)
    with pytest.raises(checks.CheckError):
        checks.check_views(proto.views, proto.tree, ["u1"])


def test_leaver_and_joiner_checkers_reject_live_or_old_keys():
    proto = _protocol()
    last_view = dict(proto.views["u2"].keys)
    proto.leave("u2")
    checks.check_leaver(last_view, proto.tree)
    root = proto.tree.key(proto.tree.root)
    with pytest.raises(checks.CheckError):
        checks.check_leaver({**last_view, root.key_id: root}, proto.tree)
    pre = {k: proto.tree.key(k).version for k in proto.tree.key_nodes()}
    proto.join("u200")
    view = proto.views["u200"].keys
    checks.check_joiner(view, pre)
    with pytest.raises(checks.CheckError):
        checks.check_joiner({**view, root.key_id: root}, pre)


def test_rollback_checker_rejects_a_changed_state():
    proto = _protocol()
    before = checks.capture_state(proto)
    abort = type("Abort", (Exception,), {"cause": "eavesdropper"})()
    checks.check_rollback(before, proto, abort)
    proto.views["u1"].install(GroupKey("k999", 1, "0000"))
    with pytest.raises(checks.CheckError):
        checks.check_rollback(before, proto, abort)
    proto.views["u1"].drop("k999")
    with pytest.raises(checks.CheckError):
        checks.check_rollback(before, proto, type("Abort", (Exception,), {"cause": "tamper"})())


def test_detection_checker_rejects_a_rate_five_sigma_off():
    m, trials = 20, 1_000_000
    p = 1 - 0.75**m
    sigma = (trials * p * (1 - p)) ** 0.5
    decoys = trials * m
    errors = decoys // 4
    checks.check_detection(round(trials * p), trials, errors, decoys, m)
    with pytest.raises(checks.CheckError):
        checks.check_detection(round(trials * p - 5 * sigma), trials, errors, decoys, m)
    decoy_sigma = (decoys * 0.25 * 0.75) ** 0.5
    with pytest.raises(checks.CheckError):
        checks.check_detection(round(trials * p), trials, round(errors + 5 * decoy_sigma), decoys, m)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_final_line_is_the_contract_json(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "detect",
         "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert set(final["metrics"]) == {"ops_per_s", "qubits_per_op", "setup_s", "peak_rss_mb"}
