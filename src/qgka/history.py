"""Membership history and the secrecy game, kept beside a protocol.

The paper claims forward and backward confidentiality on every join and
leave, in the sense of Wong, Gouda and Lam ("Secure group communications
using key graphs", 1998).  A ``History`` attached to a ``GroupProtocol`` at
step 0 records what the game over that claim needs, and only a caller that
attaches one pays for it: one ``Stay`` per initial member and one record
per node at set-up, and a few records per event after it.  ``record`` is
called with each committed ``EventTrace``, before the next event; an
aborted event changes nothing and is not recorded.

Each user id has its stays, each only its steps ``[joined, left)``, and
each key version has one record: the key, the rope of the users under it
when its event committed and that step (a joiner's registration key with
her id alone).  Ropes are never edited, so a record stays true after later
events, and no event walks the members.  After each event a probe, a
constant plaintext wrapped under the new group key with the step as its
nonce, stands for what the group sends next.  The game's verdicts depend
only on which key opens a probe, so probes draw nothing, and a protocol
draws the same stream with or without a history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from .keytree import GroupKey, Rope, flatten
from .rekey import SimCipherText, encrypt_key, try_unwrap

if TYPE_CHECKING:
    from .protocol import EventTrace, GroupProtocol


@dataclass(slots=True)
class Stay:
    """One membership of a user id: the steps ``[joined, left)``, ``left``
    None while it lasts.  A key is held in the last stay that its holder
    joined at or before the step she got it (``History.held``)."""

    joined: int
    left: Optional[int] = None


class History:
    """Every stay, key version and probe of one protocol since step 0."""

    def __init__(self, proto: GroupProtocol):
        if proto.step:
            raise ValueError(f"a history starts at step 0, not {proto.step}")
        self.proto = proto
        tree = proto.tree
        self.stays: dict[str, list[Stay]] = {uid: [Stay(0)] for uid in tree.users()}
        # one (key, its holders' rope, step they got it) per key version
        self.held: list[tuple[GroupKey, Rope, int]] = [
            (n.key, n.users, 0) for n in tree.nodes.values()
        ]
        self.probes: list[tuple[int, SimCipherText]] = []

    def record(self, trace: EventTrace) -> None:
        """Record one committed event, the protocol's latest.

        A joiner opens a stay, a leaver's stay ends, each updated key is
        recorded with the rope of the users now under it, a joiner's
        registration key with her alone, and a probe is sent under the new
        group key.
        """
        step, uid = trace.event.timestamp, trace.event.user
        expected = len(self.probes) + 1
        if step != expected:
            raise ValueError(f"step {step} is not the next step, {expected}")
        if step != self.proto.step:
            raise ValueError(f"step {step} is not the protocol's latest")
        tree = self.proto.tree
        if trace.event.kind == "join":
            self.stays.setdefault(uid, []).append(Stay(step))
            reg = tree.key(tree.individual_key(uid))
            self.held.append((reg, uid, step))
        else:
            self.stays[uid][-1].left = step
        self.held += [
            (k, tree.rope(k.key_id), step) for k in trace.new_material.values()
        ]
        root_key = tree.key(tree.root)  # type: ignore[arg-type]
        probe = GroupKey("probe", step, "0" * tree.key_len)
        nonce = step.to_bytes(8, "big")
        self.probes.append((step, encrypt_key(root_key, probe, nonce)))

    def secrecy_failures(
        self, ciphertexts: Iterable[tuple[int, SimCipherText]] = ()
    ) -> list[str]:
        """Play the secrecy game over the recorded probes plus ``ciphertexts``.

        Every ciphertext comes with the step that sent it.  A key held during
        a stay may open only what was sent in its ``[joined, left)``: nothing
        from before the join (backward secrecy) or from the leave step on,
        that leave's own rekey messages included (forward secrecy).  Opening
        needs the exact (id, version, bits) key, so the ciphertexts are
        indexed once by (id, version).  A key version of ``held`` is tried
        once on each ciphertext under it that a holder may not open; what
        was sent at the step they got it, all of them may.  The probe
        recorded after the latest committed event is under the current root
        key.  Requires every committed event to be recorded.
        """
        if self.proto.step != len(self.probes):
            raise ValueError(
                f"the protocol is at step {self.proto.step}, the history at"
                f" {len(self.probes)}"
            )
        sent = [*self.probes, *ciphertexts]
        under: dict[tuple[str, int], list[int]] = {}  # positions in ``sent``
        for i, (_, ct) in enumerate(sent):
            under.setdefault((ct.enc_key_id, ct.enc_version), []).append(i)
        opened: dict[tuple[str, int], set[int]] = {}  # by (user id, stay index)
        for key, rope, got in self.held:
            sent_under = under.get((key.key_id, key.version), ())
            others = [i for i in sent_under if sent[i][0] != got]
            opens: dict[int, bool] = {}  # by position, once for all holders
            for uid in flatten(rope) if others else ():
                stays = self.stays[uid]
                at = len(stays) - 1
                while stays[at].joined > got:
                    at -= 1
                stay = stays[at]
                left = float("inf") if stay.left is None else stay.left
                for i in others:
                    if not stay.joined <= sent[i][0] < left:
                        if i not in opens:
                            opens[i] = try_unwrap(key, sent[i][1]) is not None
                        if opens[i]:
                            opened.setdefault((uid, at), set()).add(i)
        failures: list[str] = []
        for uid, stays in self.stays.items():
            for at, stay in enumerate(stays):
                left = float("inf") if stay.left is None else stay.left
                for i in sorted(opened.get((uid, at), ())):
                    step = sent[i][0]
                    who = f"departed {uid}" if step >= left else uid
                    failures.append(f"{who} opened a ciphertext from step {step}")
        return failures
