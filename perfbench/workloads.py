"""The four workloads: three churn streams and one detection experiment.

Every input comes from the benchmark's seed.  ``SeedSequence(seed)`` spawns
three independent streams: the workload's (event order and leavers), the
program's (handed to ``KeyTree.build_balanced``, ``GroupProtocol`` and
``detection_experiment`` and used for nothing else) and the checker's (which
members get a full view check).  A change in how many random numbers a
session draws therefore changes the program's draws only, never which
events are attempted.  Joiner ids are ``u<N+1>``, ``u<N+2>``, ... in stream
order.

A churn run is a closed loop over rounds of eight events, four joins and
four leaves in a seeded order, so the group size stays within four of its
start.  Leavers are drawn uniformly from the current members, which the
benchmark tracks itself.  Rounds repeat until ``seconds`` of wall time have
passed.  Only the ``join``/``leave`` calls are timed; the host-speed sample
follows each call, and every check runs outside the timed calls.

A detection run repeats one ``detection_experiment`` call per round in the
same way.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

import checks
from hostspeed import HostSpeed
from tracing import Tracer

from qgka import adversary, keytree, protocol, qka, rekey
from qgka.adversary import AdversarialChannel, EveStrategy
from qgka.keytree import KeyTree
from qgka.protocol import GroupProtocol, ProtocolAbort, ProtocolConfig

#: Set-ups per run; the median is reported.
SETUPS = 7
#: Joins per round, and as many leaves.
ROUND_JOINS = 4
#: Members whose full view is checked after each committed event, besides
#: the joiner; every member's group key is checked.
VIEW_SAMPLE = 4


@dataclass(frozen=True)
class Churn:
    group_size: int
    degree: int
    key_len: int
    xi: Fraction
    attack_probability: float  # 0 means an honest channel
    count_rounds: int  # counts cover exactly these first rounds of a run


@dataclass(frozen=True)
class Detect:
    decoys: int
    trials: int


WORKLOADS = {
    "churn_16k": Churn(16384, 4, 16, Fraction(1, 4), 0.0, count_rounds=6),
    "churn_longkey": Churn(1024, 4, 256, Fraction(1, 4), 0.0, count_rounds=10),
    "churn_attacked": Churn(4096, 4, 16, Fraction(1, 4), 0.01, count_rounds=24),
    "detect": Detect(decoys=20, trials=200_000),
}

#: The quantum layer's functions as the session engine calls them.
QUANTUM_CALLS = (
    "ghz_state", "apply_pauli", "measure_entangled", "random_decoy", "decoy_measure",
)

#: Every per-layer metric and its unit, reported by every traced run; a
#: layer a workload never calls reads 0.
PER_LAYER = {
    "keytree.insert_ms": "ms",
    "keytree.remove_ms": "ms",
    "keytree.stats_ms": "ms",
    "keytree.userset_ms": "ms",
    "keytree.userset_users": "count",
    "keytree.clone_ms": "ms",
    "keytree.height": "count",
    "qka.join_session_ms": "ms",
    "qka.leave_session_ms": "ms",
    "qka.sessions_per_event": "count",
    "quantum.calls_per_session": "count",
    "rekey.build_ms": "ms",
    "rekey.recipients_per_event": "count",
    "rekey.encryptions_per_event": "count",
    "rekey.messages_per_event": "count",
    "protocol.self_ms": "ms",
    "protocol.sessions_kept_ratio": "ratio",
    "adversary.transmit_ms": "ms",
    "adversary.detect_ms": "ms",
    "adversary.tracemalloc_peak_mb": "MB",
    "trace.overhead_pct": "%",
}


@dataclass
class Timing:
    """One timing, raw and at the nominal host speed.

    The corrected figure is the metric on every workload: it was the
    steadier of the two on each (see README.md).
    """

    raw: float
    corrected: float

    @property
    def value(self) -> float:
        return self.corrected

    def rate(self, count: float) -> "Timing":
        """``count`` per second of this timing."""
        return Timing(count / self.raw, count / self.corrected)

    def per(self, count: int, scale: float = 1.0) -> "Timing":
        """This timing per item, times ``scale``."""
        count = max(count, 1)
        return Timing(scale * self.raw / count, scale * self.corrected / count)


@dataclass
class Result:
    workload: str
    attempted: int = 0
    failed: int = 0
    aborted: int = 0
    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit)
    printed: dict = field(default_factory=dict)  # figures under per-workload names
    per_layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seeds(seed: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(3)


def _timed_setups(speed: HostSpeed, build):
    """Run ``build`` SETUPS times; returns the last result and the median."""
    raws, corrected = [], []
    built = None
    for _ in range(SETUPS):
        built = None
        gc.collect()
        speed.sample()
        start = time.perf_counter()
        built = build()
        elapsed = time.perf_counter() - start
        raws.append(elapsed)
        corrected.append(speed.correct(elapsed))
    return built, Timing(statistics.median(raws), statistics.median(corrected))


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


# ---------------------------------------------------------------------- #
# churn


def _build(spec: Churn, program_seed: np.random.SeedSequence) -> GroupProtocol:
    rng = np.random.default_rng(program_seed)
    users = [f"u{i + 1}" for i in range(spec.group_size)]
    tree = KeyTree.build_balanced(spec.degree, users, spec.key_len, rng)
    channel = (
        AdversarialChannel(EveStrategy("intercept_resend", spec.attack_probability))
        if spec.attack_probability > 0
        else None
    )
    config = ProtocolConfig(key_len=spec.key_len, xi=float(spec.xi))
    return GroupProtocol(tree, config, rng, channel=channel)


class _Churn:
    """One churn run: the protocol, the benchmark's own member list, tallies."""

    def __init__(self, spec: Churn, proto: GroupProtocol, wrng, check_seed, speed):
        self.spec = spec
        self.proto = proto
        self.wrng = wrng
        self.speed = speed
        self.tracer: Optional[Tracer] = None
        self.members = [f"u{i + 1}" for i in range(spec.group_size)]
        self.next_id = spec.group_size + 1
        self.check_rng = np.random.default_rng(check_seed)
        self.reset()

    def reset(self) -> None:
        self.raw = {"join": 0.0, "leave": 0.0, "aborted": 0.0}
        self.corrected = dict(self.raw)
        self.done = {"join": 0, "leave": 0}  # committed events
        self.attempted = 0
        self.aborted = 0
        self.qubits = {"join": 0, "leave": 0}  # over committed events
        self.sessions = 0
        self.recipients = 0
        self.messages = 0
        self.event_raw: list[float] = []
        self.event_ref: list[float] = []
        self.rounds = 0
        self.window: dict = {}

    def _counts(self) -> dict:
        """Counts so far; frozen after the first ``count_rounds`` rounds, so
        that they depend on the seed alone, never on how fast the host ran."""
        counts = {
            "attempted": self.attempted,
            "committed": self.committed,
            "qubits": dict(self.qubits),
            "done": dict(self.done),
            "sessions": self.sessions,
            "recipients": self.recipients,
            "messages": self.messages,
            "height": self.proto.tree.height(),
        }
        if self.tracer is not None:
            counts["calls"] = dict(self.tracer.calls)
            counts["results"] = dict(self.tracer.results)
        return counts

    @property
    def committed(self) -> int:
        return self.done["join"] + self.done["leave"]

    def total(self) -> Timing:
        return Timing(sum(self.raw.values()), sum(self.corrected.values()))

    def _timed(self, call, uid: str, slot_if_ok: str):
        start = time.perf_counter()
        try:
            trace = call(uid)
        except ProtocolAbort as err:
            trace, slot = err, "aborted"
        else:
            slot = slot_if_ok
        elapsed = time.perf_counter() - start
        self.raw[slot] += elapsed
        self.corrected[slot] += self.speed.correct(elapsed)
        self.event_raw.append(elapsed)
        self.event_ref.append(self.speed.samples[-1])
        self.attempted += 1
        return trace

    def event(self, kind: str) -> None:
        proto, spec = self.proto, self.spec
        if kind == "join":
            uid = f"u{self.next_id}"
            self.next_id += 1
            pre = {k: proto.tree.key(k).version for k in proto.tree.key_nodes()}
        else:
            index = int(self.wrng.integers(len(self.members)))
            uid = self.members[index]
            last_view = dict(proto.views[uid].keys)
        before = checks.capture_state(proto) if spec.attack_probability > 0 else None

        trace = self._timed(proto.join if kind == "join" else proto.leave, uid, kind)

        # bookkeeping and checks, outside the timed call
        if isinstance(trace, ProtocolAbort):
            self.aborted += 1
            if before is None:
                raise checks.CheckError(f"{kind} of {uid} aborted on an honest channel")
            checks.check_rollback(before, proto, trace)
            return
        self.done[kind] += 1
        if kind == "join":
            self.members.append(uid)
            checks.check_joiner(proto.views[uid].keys, pre)
        else:
            last = self.members.pop()
            if last != uid:
                self.members[index] = last
            if uid in proto.views:
                raise checks.CheckError(f"leaver {uid} still has a view")
            checks.check_leaver(last_view, proto.tree)
        self.qubits[kind] += checks.check_event_qubits(trace, spec.key_len, spec.xi)
        for _, transcript in trace.sessions:
            checks.check_session_xor(transcript)
        checks.check_installed_keys(trace, proto.tree)
        checks.check_group_key(proto.views, proto.tree, self.members)
        sample = [
            self.members[int(i)]
            for i in self.check_rng.integers(len(self.members), size=VIEW_SAMPLE)
        ]
        if kind == "join":
            sample.append(uid)
        checks.check_views(proto.views, proto.tree, sample)
        self.sessions += len(trace.sessions)
        self.messages += len(trace.messages)
        self.recipients += sum(len(m.recipients) for m in trace.messages)

    def run(self, seconds: float, min_rounds: int) -> None:
        """Whole rounds until ``seconds`` have passed and at least
        ``min_rounds`` rounds are done."""
        kinds = ["join"] * ROUND_JOINS + ["leave"] * ROUND_JOINS
        gc.collect()
        self.speed.sample()
        wall = time.perf_counter()
        while True:
            for i in self.wrng.permutation(len(kinds)):
                self.event(kinds[int(i)])
            self.rounds += 1
            if self.rounds == self.spec.count_rounds:
                self.window = self._counts()
            if self.rounds >= min_rounds and time.perf_counter() - wall >= seconds:
                break


def _trace_churn(tracer: Tracer) -> None:
    gp, kt = protocol.GroupProtocol, keytree.KeyTree
    tracer.patch(gp, "join", "protocol.join")
    tracer.patch(gp, "leave", "protocol.leave")
    tracer.patch(kt, "insert_user", "keytree.insert_user")
    tracer.patch(kt, "remove_user", "keytree.remove_user")
    tracer.patch(kt, "stats", "keytree.stats")
    tracer.patch(kt, "userset", "keytree.userset", measure_len=True)
    tracer.patch(kt, "clone", "keytree.clone")
    tracer.patch(protocol, "run_session", "qka.session")
    tracer.patch(protocol, "build_join_messages", "rekey.build")
    tracer.patch(protocol, "build_leave_messages", "rekey.build")
    tracer.patch(rekey, "encrypt_key", "rekey.encrypt", timed=False)
    for fn in QUANTUM_CALLS:
        tracer.patch(qka, fn, "quantum.calls", timed=False)
    tracer.patch(adversary.AdversarialChannel, "transmit", "adversary.transmit")


def _churn_layers(tracer: Tracer, run: _Churn) -> dict:
    """Times over the whole traced phase; counts over its count window."""
    events = max(run.attempted, 1)
    committed = max(run.committed, 1)
    w = run.window
    w_calls, w_results = w["calls"], w["results"]
    join_ms, join_n = tracer.ms_under("qka.session", "protocol.join")
    leave_ms, leave_n = tracer.ms_under("qka.session", "protocol.leave")
    values = {
        "keytree.insert_ms": _per(tracer.ms("keytree.insert_user"), tracer.calls["keytree.insert_user"]),
        "keytree.remove_ms": _per(tracer.ms("keytree.remove_user"), tracer.calls["keytree.remove_user"]),
        "keytree.stats_ms": tracer.ms("keytree.stats") / events,
        "keytree.userset_ms": tracer.ms("keytree.userset") / events,
        "keytree.userset_users": _per(w_results.get("keytree.userset", 0), w["attempted"]),
        "keytree.clone_ms": tracer.ms("keytree.clone") / events,
        "keytree.height": w["height"],
        "qka.join_session_ms": _per(join_ms, join_n),
        "qka.leave_session_ms": _per(leave_ms, leave_n),
        "qka.sessions_per_event": _per(w["sessions"], w["committed"]),
        "quantum.calls_per_session": _per(w_calls.get("quantum.calls", 0), w_calls.get("qka.session", 0)),
        "rekey.build_ms": tracer.ms("rekey.build") / committed,
        "rekey.recipients_per_event": _per(w["recipients"], w["committed"]),
        "rekey.encryptions_per_event": _per(w_calls.get("rekey.encrypt", 0), w["committed"]),
        "rekey.messages_per_event": _per(w["messages"], w["committed"]),
        "protocol.self_ms": (tracer.ms("protocol.join") + tracer.ms("protocol.leave")) / events,
        "protocol.sessions_kept_ratio": _per(w["sessions"], w_calls.get("qka.session", 0)),
        "adversary.transmit_ms": tracer.ms("adversary.transmit") / events,
    }
    return {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}


def run_churn(name: str, spec: Churn, seed: int, seconds: float, trace: bool) -> Result:
    work_seed, program_seed, check_seed = _seeds(seed)
    speed = HostSpeed("python")
    proto, setup = _timed_setups(speed, lambda: _build(spec, program_seed))
    run = _Churn(spec, proto, np.random.default_rng(work_seed), check_seed, speed)
    result = Result(workload=name)

    if trace:
        # traced first, from the start of the stream, so counts repeat;
        # then untraced: the difference in time per event is the overhead
        tracer = run.tracer = Tracer()
        _trace_churn(tracer)
        try:
            run.run(seconds * 2 / 3, spec.count_rounds)
        finally:
            tracer.restore()
        traced = run.total().corrected / run.attempted
        traced_events, traced_aborted = run.attempted, run.aborted
        result.per_layer = _churn_layers(tracer, run)
        counted = run.window
        run.tracer = None
        run.reset()
        run.run(seconds / 3, 1)
        untraced = run.total().corrected / run.attempted
        result.per_layer["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    else:
        run.run(seconds, spec.count_rounds)
        counted = run.window

    report = proto.verify_consistency()
    if not report["consistent"]:
        raise checks.CheckError(f"views inconsistent at the end of the run: {report}")
    if run.committed == 0:
        raise checks.CheckError("no event committed")

    rss = peak_rss_mb()
    ops = run.total().rate(run.attempted)
    # the mean of the two kinds' figures: the stream's own half-and-half mix,
    # whichever events an eavesdropper happened to abort
    qubits = statistics.mean(
        _per(counted["qubits"][kind], counted["done"][kind]) for kind in ("join", "leave")
    )
    result.attempted = run.attempted + (traced_events if trace else 0)
    result.aborted = run.aborted + (traced_aborted if trace else 0)
    result.end_to_end = {
        "ops_per_s": (ops, "1/s"),
        "qubits_per_op": (qubits, "qubits"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }

    def kind_ms(kind: str) -> Timing:
        return Timing(run.raw[kind], run.corrected[kind]).per(run.done[kind], 1000)

    result.printed = {
        "events_per_s": (ops, "1/s"),
        "join_ms": (kind_ms("join"), "ms"),
        "leave_ms": (kind_ms("leave"), "ms"),
        "qubits_per_event": (qubits, "qubits"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    result.detail = {
        "joins": run.done["join"],
        "leaves": run.done["leave"],
        "aborted": run.aborted,
        "event_raw_s": run.event_raw,
        "ref_after_s": run.event_ref,
        "reference": speed.kind,
        "final_group_size": proto.tree.group_size(),
    }
    return result


# ---------------------------------------------------------------------- #
# detect


def _import_program(src: str) -> None:
    """Import numpy and qgka in a fresh interpreter, as a user's first call does."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", "import numpy, qgka.adversary"],
        env=env, check=True, timeout=60,
    )


def run_detect(name: str, spec: Detect, seed: int, seconds: float, trace: bool, src: str) -> Result:
    _, program_seed, _ = _seeds(seed)
    speed = HostSpeed("numpy")
    _, setup = _timed_setups(speed, lambda: _import_program(src))
    strategy = EveStrategy("intercept_resend")
    rng = np.random.default_rng(program_seed)

    tracer = Tracer() if trace else None
    tracing = False
    detections = trials = errors = 0
    raw = corrected = 0.0
    call_raw, ref_after = [], []
    peak_traced = 0
    traced, untraced = [], []  # corrected call times in each phase
    gc.collect()
    speed.sample()
    wall = time.perf_counter()
    while True:
        if tracer is not None and not tracing and time.perf_counter() - wall >= seconds / 3:
            # untraced first, then traced: the difference is the overhead
            tracer.patch(adversary, "detection_experiment", "adversary.detect")
            tracemalloc.start()
            tracing = True
        start = time.perf_counter()
        report = adversary.detection_experiment(strategy, spec.decoys, spec.trials, rng)
        elapsed = time.perf_counter() - start
        fixed = speed.correct(elapsed)
        raw += elapsed
        corrected += fixed
        call_raw.append(elapsed)
        ref_after.append(speed.samples[-1])
        if tracing:
            peak_traced = max(peak_traced, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            traced.append(fixed)
        elif tracer is not None:
            untraced.append(fixed)
        detections += report.detections
        trials += report.trials
        errors += round(report.per_decoy_error_rate * report.trials * spec.decoys)
        if time.perf_counter() - wall >= seconds:
            break
    if tracing:
        tracemalloc.stop()
        tracer.restore()

    checks.check_detection(detections, trials, errors, trials * spec.decoys, spec.decoys)

    elapsed_t = Timing(raw, corrected)
    rss = peak_rss_mb()
    result = Result(workload=name, attempted=trials)
    result.end_to_end = {
        "ops_per_s": (elapsed_t.rate(trials), "1/s"),
        "qubits_per_op": (float(spec.decoys), "qubits"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    result.printed = {
        "decoys_per_s": (elapsed_t.rate(trials * spec.decoys), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if tracer is not None:
        layers = {name: (0.0, unit) for name, unit in PER_LAYER.items()}
        layers["adversary.detect_ms"] = (
            _per(tracer.ms("adversary.detect"), tracer.calls["adversary.detect"]), "ms"
        )
        layers["adversary.tracemalloc_peak_mb"] = (peak_traced / 2**20, "MB")
        overhead = (
            statistics.mean(traced) / statistics.mean(untraced) - 1.0
            if traced and untraced else 0.0
        )
        layers["trace.overhead_pct"] = (100.0 * overhead, "%")
        result.per_layer = layers
    result.detail = {
        "detections": detections,
        "decoy_errors": errors,
        "call_raw_s": call_raw,
        "ref_after_s": ref_after,
        "reference": speed.kind,
    }
    return result


def run(name: str, seed: int, seconds: float, trace: bool, src: str,
        spec: Optional[object] = None) -> Result:
    """Run one workload; ``spec`` overrides its parameters (tests use tiny ones)."""
    spec = spec if spec is not None else WORKLOADS[name]
    if isinstance(spec, Churn):
        return run_churn(name, spec, seed, seconds, trace)
    return run_detect(name, spec, seed, seconds, trace, src)
