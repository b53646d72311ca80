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

Both external attacks are modelled once, by ``tap_decoys`` over an array
of decoy kinds.  It draws Eve's per-decoy bits in one fused draw, in a
fixed order (see ``tap_decoys``), and returns masks, not readings: the
decoys the receiver misreads, those where Eve's bit is wrong and those she
touched.  ``AdversarialChannel`` hands a session the misread mask, which
is all its decoy check needs.  ``detection_experiment`` counts errors,
detections and Eve's correct bits straight from the masks over
independent trials, one chunk of at most ``DETECTION_CHUNK`` decoys at a
time, so an experiment's memory does not grow with its trials or decoys
per run.  In ``tests/oracle.py`` the taps one qubit at a time, on the
scalar decoy states of ``qgka.quantum``, are the physics reference; a
kernel that draws each quantity in a call of its own and selects readings
with ``np.where`` is the reference draw for draw; and the experiment over
a single array of every decoy is the reference for the chunked one.

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

from .qka import QkaConfig, encode_gates, extract_shared, measure_positions

#: Decoys ``detection_experiment`` draws and taps at once.  Its memory is a
#: few arrays of this length; 2^17 keeps numpy's per-call overhead small.
DETECTION_CHUNK = 1 << 17


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
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Eve's tap on a batch of decoys, as boolean masks over the batch.

    ``kinds`` indexes each decoy's state in (|0>, |1>, |+>, |->): X basis
    for 2 and 3, bit = index mod 2.  Returns masks, not readings: the
    decoys the receiver misreads in their announced basis, those where
    Eve's bit differs from the encoded bit, and those she touched (None
    when she touches every decoy).  A decoy she leaves alone reaches the
    receiver intact.  ``strategy`` must tap.  The draws: whether she touches
    each decoy, ``rng.random(m)`` for m decoys, skipped when her attack
    probability is 1; then one ``rng.integers(2, size=3 * m,
    dtype=np.uint32)`` whose three slices are her basis, her result and the
    receiver's result under intercept-resend, or one of size 2 * m, the
    receiver's result and her ancilla's, under a CNOT tap.  A bounded draw
    over a power of two takes one 32-bit output per value, in either
    dtype, so one fused draw gives the values and the generator state of
    one default ``rng.integers(2, size=m)`` per slice.
    """
    total = len(kinds)
    touched = (
        None
        if strategy.attack_probability >= 1.0
        else rng.random(total) < strategy.attack_probability
    )
    if strategy.kind == "intercept_resend":
        bits = rng.integers(2, size=3 * total, dtype=np.uint32).reshape(3, total)
        # A wrong basis collapses the decoy uniformly, and the state she
        # resends is in the wrong basis, so the receiver's reading is uniform.
        disturbed = bits[0] != kinds >> 1
        eve_wrong, misread = bits[1:] != kinds & 1
    else:
        bits = rng.integers(2, size=2 * total, dtype=np.uint32).reshape(2, total)
        # An X-basis decoy becomes an entangled pair; either half is
        # maximally mixed.  A Z-basis decoy passes and copies its bit.
        disturbed = kinds >= 2
        misread, eve_wrong = bits != kinds & 1
    if touched is not None:
        disturbed &= touched
    misread &= disturbed
    eve_wrong &= disturbed
    return misread, eve_wrong, touched


class AdversarialChannel:
    """Channel transport that applies one Eve strategy to every decoy."""

    def __init__(self, strategy: EveStrategy):
        self.strategy = strategy

    def transmit(self, kinds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The mask of the decoys of ``kinds`` that the receiver misreads
        (see ``tap_decoys``).  A "none" strategy misreads none and draws
        nothing."""
        if self.strategy.kind == "none":
            return np.zeros(len(kinds), dtype=bool)
        return tap_decoys(self.strategy, kinds, rng)[0]


@dataclass
class AttackReport:
    """Outcome of one attack experiment."""

    strategy: str
    trials: int
    detections: int
    per_decoy_error_rate: float
    detection_rate: float
    eve_bit_accuracy: Optional[float] = None  # over the decoys Eve touched
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
    any decoy errs.  Eve's bit accuracy is taken over the decoys she touched
    (None when she touched none).  The trials' decoys form one stream, cut
    into chunks of ``DETECTION_CHUNK``.  Each chunk draws its kinds with
    ``rng.integers(4, size=chunk, dtype=np.uint32)``, which gives the
    values and draws of the default 64-bit call, and then ``tap_decoys``'s
    draws over them.  ``tap_decoys`` is the kernel a session's
    ``AdversarialChannel`` applies, and the counts come from its masks,
    with no readings built.
    A run of at most one chunk thus draws the kinds of every decoy in one
    array, and longer runs draw chunk after chunk in the kernel's order.  A
    trial cut by chunk boundaries is still detected once, and the rates are
    integer counts over the run, so the report equals a reduction of the
    same draws held in one array.
    """
    if trials < 1 or decoys_per_run < 1:
        raise ValueError(
            f"need at least one trial and one decoy per run, got {trials} and "
            f"{decoys_per_run}"
        )
    total = trials * decoys_per_run
    errors = detections = eve_misses = touched = 0
    last_hit = -1  # the last detected trial, which the next chunk may continue
    for start in range(0, total, DETECTION_CHUNK):
        size = min(DETECTION_CHUNK, total - start)
        kinds = rng.integers(4, size=size, dtype=np.uint32)
        if strategy.kind == "none":
            continue
        misread, eve_wrong, attacked = tap_decoys(strategy, kinds, rng)
        wrong = np.flatnonzero(misread)
        if len(wrong):
            errors += len(wrong)
            hit = (wrong + start) // decoys_per_run
            detections += int(np.count_nonzero(hit[1:] != hit[:-1]))
            detections += int(hit[0] != last_hit)
            last_hit = int(hit[-1])
        eve_misses += int(np.count_nonzero(eve_wrong))
        touched += size if attacked is None else int(np.count_nonzero(attacked))
    return AttackReport(
        strategy=strategy.kind,
        trials=trials,
        detections=detections,
        per_decoy_error_rate=errors / total,
        detection_rate=detections / trials,
        eve_bit_accuracy=(touched - eve_misses) / touched if touched else None,
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
    ids = QkaConfig(participant_ids, n).participants
    if dishonest not in ids:
        raise ValueError(f"dishonest participant {dishonest!r} not in session")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if target_bit not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {target_bit!r}")
    P = len(ids)
    bad = ids.index(dishonest)
    honest = np.arange(P) != bad
    # the engine's stacked form, with one session
    sizes = np.array([P])
    lead = np.arange(n)[None] % P if rotate_leaders else np.full((1, n), bad)
    led = lead[0] == bad
    forced = 0
    for _ in range(trials):
        keys = rng.integers(0, 2, size=(P, n))
        choice = rng.integers(2, size=(1, n))
        if not forge:
            continue
        x, z = encode_gates(keys, choice, lead, sizes)
        # She measures honestly, then publishes what her own gate would
        # have produced had it encoded the bit that puts the XOR on target.
        keys[bad] = target_bit ^ np.bitwise_xor.reduce(keys[honest], axis=0)
        fake_x, fake_z = encode_gates(keys, np.zeros_like(choice), lead, sizes)
        x[bad, led], z[bad, led] = fake_x[bad, led], fake_z[bad, led]
        # the honest seats' own gates are untouched, so they extract as usual
        published = measure_positions(x, z, lead, sizes)
        _, shared = extract_shared(published, x, lead, sizes)
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
