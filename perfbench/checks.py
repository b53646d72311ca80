"""Output checks computed apart from the program.

Every function raises ``CheckError`` on the first disagreement.  The qubit
count is recomputed from each session's party count with exact rationals,
never from the program's own cost code; the other checks test properties
the protocol must have after every committed or aborted event.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from qgka import KeyTreeError


class CheckError(Exception):
    """A program output disagrees with the independent computation."""


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def session_qubits(parties: int, n: int, xi: Fraction) -> int:
    """Qubits one session prepares, from its party count alone.

    P*n entangled qubits; ceil(xi*n) decoys on each of the P-1 outbound
    hops; and for every leader, ceil(xi*led) decoys on each of the P-1
    return hops, where the round-robin leader j leads the positions
    i = j (mod P) of 0..n-1.
    """
    if parties < 2 or n < 1:
        raise CheckError(f"impossible session: P={parties}, n={n}")
    total = parties * n + (parties - 1) * _ceil(xi * n)
    for j in range(parties):
        led = n // parties + (1 if j < n % parties else 0)
        if led:
            total += (parties - 1) * _ceil(xi * led)
    return total


def check_event_qubits(trace, n: int, xi: Fraction) -> int:
    """Recount a committed event's qubits; returns the event total."""
    if len(trace.sessions) != len(trace.updated_keys):
        raise CheckError(
            f"{len(trace.sessions)} sessions for {len(trace.updated_keys)} updated keys"
        )
    total = 0
    for key_id, transcript in trace.sessions:
        expected = session_qubits(len(transcript.participants), n, xi)
        got = transcript.counters.qubits_prepared
        if got != expected:
            raise CheckError(
                f"session for {key_id}: {got} qubits prepared, expected {expected}"
            )
        total += expected
    if trace.counters.qubits_prepared != total:
        raise CheckError(
            f"event counted {trace.counters.qubits_prepared} qubits, expected {total}"
        )
    return total


def check_session_xor(transcript) -> None:
    """The agreed key is the position-wise XOR of every operation key."""
    keys = list(transcript.operation_keys.values())
    if len(keys) != len(transcript.participants):
        raise CheckError("operation keys missing from the transcript")
    n = len(transcript.extracted_key)
    if n == 0 or any(len(k) != n for k in keys):
        raise CheckError("operation keys and agreed key differ in length")
    for i in range(n):
        bit = 0
        for k in keys:
            bit ^= k[i] == "1"
        if str(int(bit)) != transcript.extracted_key[i]:
            raise CheckError(f"agreed key bit {i} is not the XOR of operation keys")


def check_installed_keys(trace, tree) -> None:
    """Each regenerated tree key carries its own session's agreed bits."""
    for key_id, transcript in trace.sessions:
        if tree.key(key_id).bits != transcript.extracted_key:
            raise CheckError(f"tree key {key_id} is not its session's agreed key")


def check_group_key(views: Mapping, tree, members: Iterable[str]) -> None:
    """Every listed member holds the tree's current group key."""
    root = tree.key(tree.root)
    for uid in members:
        if views[uid].keys.get(root.key_id) != root:
            raise CheckError(f"member {uid} does not hold the current group key")


def check_views(views: Mapping, tree, members: Iterable[str]) -> None:
    """Every listed member's view equals the projection of its keyset."""
    for uid in members:
        projection = {k: tree.key(k) for k in tree.keyset(uid)}
        if views[uid].keys != projection:
            raise CheckError(f"member {uid} holds a view that differs from her keyset")


def check_leaver(last_view: Mapping, tree) -> None:
    """No key the leaver held survives, by (id, version), in the tree."""
    for key_id, key in last_view.items():
        try:
            live = tree.key(key_id)
        except KeyTreeError:
            continue  # the node itself is gone
        if live.version == key.version:
            raise CheckError(f"leaver's key {key_id} v{key.version} is still live")


def check_joiner(view: Mapping, pre_versions: Mapping[str, int]) -> None:
    """Every key the joiner holds is newer than the pre-event material."""
    for key_id, key in view.items():
        before = pre_versions.get(key_id)
        if before is not None and key.version <= before:
            raise CheckError(f"joiner holds {key_id} v{key.version}, not newer than v{before}")


def capture_state(protocol) -> tuple:
    """Everything an aborted event must leave exactly as it was."""
    return (
        protocol.tree.to_dict(include_keys=True),
        {u: dict(v.keys) for u, v in protocol.views.items()},
        protocol.counters.as_dict(),
        protocol.step,
    )


def check_rollback(before: tuple, protocol, error: Exception) -> None:
    cause = getattr(error, "cause", None)
    if cause != "eavesdropper":
        raise CheckError(f"event aborted with cause {cause!r}, expected 'eavesdropper'")
    after = capture_state(protocol)
    for label, a, b in zip(("tree", "views", "counters", "step"), before, after):
        if a != b:
            raise CheckError(f"aborted event changed the {label}")


def binomial_z(successes: int, trials: int, p: float) -> float:
    return (successes - trials * p) / math.sqrt(trials * p * (1.0 - p))


#: Two-sided tolerance, in standard deviations, for the detection checks.
DETECTION_SIGMAS = 4.5


def check_detection(
    detections: int, trials: int, decoy_errors: int, decoys: int, m: int
) -> None:
    """Detection and per-decoy error rates match intercept-resend theory."""
    p_run = 1.0 - 0.75**m
    z_run = binomial_z(detections, trials, p_run)
    if abs(z_run) > DETECTION_SIGMAS:
        raise CheckError(
            f"detection rate {detections / trials:.6f} is {z_run:+.1f} sigma from {p_run:.6f}"
        )
    z_decoy = binomial_z(decoy_errors, decoys, 0.25)
    if abs(z_decoy) > DETECTION_SIGMAS:
        raise CheckError(
            f"per-decoy error {decoy_errors / decoys:.6f} is {z_decoy:+.1f} sigma from 0.25"
        )
