"""Channel attack models and the detection experiments that quantify them.

Two external attacks act on transmitted decoy qubits:

* intercept-resend: Eve measures each qubit in a random basis and forwards
  her result state.  A wrong basis (probability 1/2) randomizes the honest
  receiver's matched-basis measurement, so each decoy betrays her with
  probability 1/4.
* CNOT tap: Eve entangles each qubit with a |0> ancilla.  Z-basis decoys
  pass undisturbed and hand her the bit; X-basis decoys become a two-qubit
  entangled pair whose halves are maximally mixed, flipping the receiver's
  X-basis result half the time, again 1/4 per decoy overall.

Either way a channel check over m decoys catches Eve with probability
1 - (3/4)^m.  Attacks target decoys because payload particles are halves of
GHZ-class states and indistinguishable from decoys in transit; the
entangled-state family simulated here has no representation for a collapsed
payload, and detection statistics depend on the decoys alone.

The internal attack is a dishonest leader who publishes fabricated
measurement results for the positions she leads, forcing those key bits.
Leader rotation caps her influence at the share of positions she leads,
which is what the rotation is for.

Both external attacks are modelled once, by ``tap_decoys`` over an array of
decoy kinds: ``AdversarialChannel`` applies it to a session's decoys and
``detection_experiment`` to independent trials.  The taps one qubit at a
time, on the scalar decoy states of ``qgka.quantum``, are the physics
reference in ``tests/oracle.py``.

``malicious_leader_experiment`` runs each trial's positions on the session
engine's own arrays: ``qka.encode_gates``, ``qka.measure_positions`` and
``qka.extract_shared``, with the forged publication written into the
dishonest leader's slots.  Its reference, the same experiment one qubit at
a time, is in ``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qka import encode_gates, extract_shared, make_config, measure_positions


@dataclass(frozen=True)
class EveStrategy:
    """What Eve does to each transmitted qubit.

    ``attack_probability`` generalizes the default worst case in which she
    touches every qubit.
    """

    kind: str  # "none", "intercept_resend", or "cnot"
    attack_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "intercept_resend", "cnot"):
            raise ValueError(f"unknown strategy {self.kind!r}")
        if not 0.0 <= self.attack_probability <= 1.0:
            raise ValueError("attack probability must lie in [0, 1]")


def tap_decoys(
    strategy: EveStrategy, kinds: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Eve's strategy applied to a batch of decoys in transit.

    ``kinds`` indexes each decoy's state in (|0>, |1>, |+>, |->): X basis
    for 2 and 3, bit = index mod 2.  Returns the receiver's reading of each
    decoy in its announced basis, and Eve's bit for each (None when her
    strategy is "none"); a decoy she leaves alone counts as read exactly.
    A "none" strategy draws nothing.  Otherwise each draw is one array over
    the batch: whether she touches each decoy (skipped when her attack
    probability is 1), then her basis, her result and the receiver's result
    under intercept-resend, or the receiver's result and her ancilla's under
    a CNOT tap.
    """
    encoded_bit = kinds & 1  # on 10^6-scale arrays far cheaper than % 2
    if strategy.kind == "none":
        return encoded_bit, None
    total = len(kinds)
    is_x_basis = kinds >= 2
    attacked = (
        np.ones(total, dtype=bool)
        if strategy.attack_probability >= 1.0
        else rng.random(total) < strategy.attack_probability
    )

    if strategy.kind == "intercept_resend":
        # Mismatched interception collapses uniformly; the resent state is in
        # the wrong basis, so the receiver's matched measurement is uniform.
        eve_x_basis = rng.integers(2, size=total).astype(bool)
        mismatch = attacked & (eve_x_basis != is_x_basis)
        eve_bit = np.where(mismatch, rng.integers(2, size=total), encoded_bit)
        receiver = np.where(mismatch, rng.integers(2, size=total), encoded_bit)
        return receiver, eve_bit
    if strategy.kind == "cnot":
        # Either half of the entangled pair is maximally mixed.
        entangled = attacked & is_x_basis
        receiver = np.where(entangled, rng.integers(2, size=total), encoded_bit)
        eve_bit = np.where(entangled, rng.integers(2, size=total), encoded_bit)
        return receiver, eve_bit
    raise ValueError(strategy.kind)  # pragma: no cover - guarded by EveStrategy


class AdversarialChannel:
    """Channel transport that applies one Eve strategy to every decoy."""

    def __init__(self, strategy: EveStrategy):
        self.strategy = strategy

    def transmit(self, kinds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The receiver's reading of each decoy of ``kinds`` (see
        ``tap_decoys``) in its announced basis."""
        return tap_decoys(self.strategy, kinds, rng)[0]


@dataclass
class AttackReport:
    """Outcome of one attack experiment."""

    strategy: str
    trials: int
    detections: int
    per_decoy_error_rate: float
    detection_rate: float
    eve_bit_accuracy: Optional[float] = None  # Eve's guess vs encoded decoy bit
    decoys_per_run: Optional[int] = None
    forced_fraction: Optional[float] = None  # malicious leader only
    positions_led_fraction: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}

    def csv_row(self) -> str:
        return (
            f"{self.strategy},{self.decoys_per_run or 0},{self.trials},"
            f"{self.detections},{self.per_decoy_error_rate!r},{self.detection_rate!r}"
        )


def detection_experiment(
    strategy: EveStrategy,
    decoys_per_run: int,
    trials: int,
    rng: np.random.Generator,
) -> AttackReport:
    """Estimate per-decoy and per-run detection rates under one strategy.

    Each trial transmits ``decoys_per_run`` fresh decoys through the attacked
    channel and checks them in their announced bases; a run is detected when
    any decoy errs.  Every decoy kind is drawn in one array and tapped by
    ``tap_decoys``, the kernel a session's ``AdversarialChannel`` applies.
    """
    if trials < 1 or decoys_per_run < 1:
        raise ValueError(
            f"need at least one trial and one decoy per run, got {trials} and "
            f"{decoys_per_run}"
        )
    kinds = rng.integers(4, size=trials * decoys_per_run)
    receiver, eve_bit = tap_decoys(strategy, kinds, rng)
    encoded_bit = kinds & 1
    errors = receiver != encoded_bit
    per_run = errors.reshape(trials, decoys_per_run).any(axis=1)
    detections = int(per_run.sum())
    return AttackReport(
        strategy=strategy.kind,
        trials=trials,
        detections=detections,
        per_decoy_error_rate=float(errors.mean()),
        detection_rate=detections / trials,
        eve_bit_accuracy=(
            None if eve_bit is None else float((eve_bit == encoded_bit).mean())
        ),
        decoys_per_run=decoys_per_run,
    )


def malicious_leader_experiment(
    participant_ids: list[str],
    n: int,
    dishonest: str,
    rng: np.random.Generator,
    rotate_leaders: bool = True,
    forge: bool = True,
    target_bit: int = 0,
    trials: int = 1,
) -> AttackReport:
    """Measure how much of the key one dishonest participant controls.

    The attacker behaves honestly (``forge=False`` keeps her honest
    throughout) except when she leads a position, where she publishes a
    forged result forcing the shared bit to ``target_bit``.  Under
    round-robin rotation she leads roughly n/P positions; with rotation
    disabled she measures every position and forces every bit.  A position
    counts as forced only when every other participant's extraction lands on
    the target.
    """
    ids = [p.id for p in make_config(participant_ids, n).participants]
    if dishonest not in ids:
        raise ValueError(f"dishonest participant {dishonest!r} not in session")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if target_bit not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {target_bit!r}")
    P = len(ids)
    bad = ids.index(dishonest)
    honest = np.arange(P) != bad
    lead = np.arange(n) % P if rotate_leaders else np.full(n, bad)
    led = lead == bad
    forced = 0
    for _ in range(trials):
        keys = rng.integers(0, 2, size=(P, n))
        choice = rng.integers(2, size=n)
        if not forge:
            continue
        x, z = encode_gates(keys, choice, lead)
        # She measures honestly, then publishes what her own gate would
        # have produced had it encoded the bit that puts the XOR on target.
        keys[bad] = target_bit ^ np.bitwise_xor.reduce(keys[honest], axis=0)
        fake_x, fake_z = encode_gates(keys, np.zeros_like(choice), lead)
        x[bad, led], z[bad, led] = fake_x[bad, led], fake_z[bad, led]
        # the honest seats' own gates are untouched, so they extract as usual
        _, shared = extract_shared(measure_positions(x, z, lead), x, lead)
        forced += int((led & (shared[honest] == target_bit).all(axis=0)).sum())
    return AttackReport(
        strategy="malicious_leader",
        trials=trials,
        detections=0,
        per_decoy_error_rate=0.0,
        detection_rate=0.0,
        forced_fraction=forced / (trials * n),
        positions_led_fraction=int(led.sum()) / n,
    )
