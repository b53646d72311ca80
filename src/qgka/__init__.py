"""Dynamic quantum group key agreement over tree key graphs.

Library layout:

* ``quantum``   GHZ-class states, Pauli gates, decoy qubits
* ``qka``       multi-party key agreement sessions
* ``keytree``   the tree key graph and its membership updates
* ``rekey``     the simulated cipher and rekey message construction
* ``protocol``  join/leave orchestration and per-node key delivery
* ``history``   membership stays, key records and the secrecy game
* ``cost``      closed-form qubit cost models and sweeps
* ``adversary`` attack models and detection experiments
* ``workload``  Poisson churn simulation and backend comparison
* ``cli``       the ``qgka`` command-line tool
"""

from .counters import ResourceCounters
from .keytree import GroupKey, KeyTree, KeyTreeError
from .protocol import (
    ConsistencyError,
    EventTrace,
    GroupEvent,
    GroupProtocol,
    ProtocolAbort,
    ProtocolConfig,
)
from .qka import (
    QkaConfig,
    QkaTranscript,
    run_session,
)
from .quantum import (
    DecoyKind,
    DecoyQubit,
    EntangledState,
    Pauli,
    apply_pauli,
    decoy_measure,
    ghz_state,
    measure_entangled,
)
from .rekey import (
    AuthenticationError,
    MissingKeyError,
    RekeyMessage,
    SimCipherText,
    decrypt_key,
    encrypt_key,
)

__all__ = [
    "AuthenticationError",
    "ConsistencyError",
    "DecoyKind",
    "DecoyQubit",
    "EntangledState",
    "EventTrace",
    "GroupEvent",
    "GroupKey",
    "GroupProtocol",
    "KeyTree",
    "KeyTreeError",
    "MissingKeyError",
    "Pauli",
    "ProtocolAbort",
    "ProtocolConfig",
    "QkaConfig",
    "QkaTranscript",
    "RekeyMessage",
    "ResourceCounters",
    "SimCipherText",
    "apply_pauli",
    "decoy_measure",
    "decrypt_key",
    "encrypt_key",
    "ghz_state",
    "measure_entangled",
    "run_session",
]

__version__ = "0.1.0"
