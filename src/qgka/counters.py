"""Resource accounting shared by sessions, rekeying, and simulations.

Counters are the cost currency of the whole package: every prepared or
transmitted qubit, gate, measurement, classical exchange, encryption, and
rekey message is tallied here.  Counts only ever increase within a run;
independent runs keep separate instances and merge them additively.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class ResourceCounters:
    qubits_prepared: int = 0  # entangled + decoy qubits
    qubits_transmitted: int = 0
    gates_applied: int = 0
    entangled_measurements: int = 0
    decoy_measurements: int = 0
    classical_messages: int = 0
    encryptions: int = 0
    rekey_messages: int = 0

    def merge(self, other: "ResourceCounters") -> None:
        """Add another counter set into this one."""
        for name in _FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def copy(self) -> "ResourceCounters":
        return ResourceCounters(**self.as_dict())

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FIELDS}


#: The counter names in field order, read once rather than per call.
_FIELDS = tuple(f.name for f in fields(ResourceCounters))


#: Column order used by the CSV time-series schema.  ``gates_applied`` is
#: emitted under the short name ``gates``.
CSV_COLUMNS = (
    ("qubits_prepared", "qubits_prepared"),
    ("qubits_transmitted", "qubits_transmitted"),
    ("gates_applied", "gates"),
    ("entangled_measurements", "entangled_measurements"),
    ("decoy_measurements", "decoy_measurements"),
    ("classical_messages", "classical_messages"),
    ("encryptions", "encryptions"),
    ("rekey_messages", "rekey_messages"),
)
