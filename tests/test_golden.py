"""Golden-output guard: SHA-256 digests of CLI outputs at fixed seeds.

A refactor that claims byte-identical behaviour must leave every digest
here unchanged.  The CLI cases each start from a fresh tree; the churn case
runs 80 events on one tree, so it also pins recipient order, agent choice
and the order of random draws on a tree shaped by earlier splits and
merges.  Each case runs at a decoy proportion of 0, 0.25 or 1,
where ``xi * payload`` is exact in binary floating point, so the decoy
counts do not depend on how the rounding is computed.  The session case
runs single key-agreement sessions on one generator across group sizes,
key lengths, decoy proportions and attacked channels, so it pins every
random draw of the session engine, aborted sessions included.  A change
that alters an output on purpose regenerates the table and the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json

import numpy as np
import pytest

from qgka.adversary import AdversarialChannel, EveStrategy
from qgka.cli import main
from qgka.keytree import KeyTree
from qgka.protocol import GroupProtocol, ProtocolConfig
from qgka.qka import make_config, run_session

ALL_EIGHT = (
    "tree-bell,tree-cluster,tree-single,tree-ghz,"
    "star-bell,star-cluster,star-single,star-ghz"
)

#: name -> argv; stdout and stderr are both digested.
CASES = {
    "trace-join": [
        "trace", "join", "--group-size", "27", "--degree", "3",
        "--xi", "0.25", "--n", "4", "--seed", "11",
    ],
    "trace-join-reveal": [
        "trace", "join", "--group-size", "27", "--degree", "3",
        "--xi", "0.25", "--n", "4", "--seed", "11", "--reveal-keys",
    ],
    "trace-leave": [
        "trace", "leave", "--group-size", "30", "--degree", "4",
        "--xi", "1", "--n", "3", "--seed", "12",
    ],
    "trace-leave-reveal": [
        "trace", "leave", "--group-size", "30", "--degree", "4",
        "--xi", "1", "--n", "3", "--seed", "12", "--reveal-keys",
    ],
    "cost": [
        "cost", "--protocol", "tree-leave", "--N", "1000", "--n", "2",
        "--xi", "0.25", "--d", "4",
    ],
    "sweep-degree": [
        "sweep-degree", "--N", "1024", "--n", "2", "--xi-list", "0,0.25,1",
        "--d-min", "2", "--d-max", "16",
    ],
    "simulate-self": [
        "simulate", "--initial", "40", "--degree", "4", "--lambda", "2",
        "--steps", "25", "--xi", "0.25", "--n", "4", "--seed", "7",
    ],
    "simulate-eight": [
        "simulate", "--initial", "40", "--degree", "3", "--lambda", "2",
        "--steps", "25", "--xi", "1", "--n", "2", "--seed", "8",
        "--backends", ALL_EIGHT,
    ],
    "attack": [
        "attack", "--strategy", "intercept-resend", "--decoys", "10",
        "--trials", "5000", "--seed", "3",
    ],
}

DIGESTS = {
    "trace-join": "cde21acf5f50fa07613c909a6f957ad236f811722ff27f2a6e0b732dd15660e7",
    "trace-join-reveal": "0c2ab2787b86b3146e1ccf821496e59862ef919edbd057f35926906d740ffd82",
    "trace-leave": "2c8daa0dd50e085f580c135871b61ac6c5e1bd101064181638b8e4fe57aa2a7f",
    "trace-leave-reveal": "73651cda3cbd15b95b19323422b71b2f6d2e1e51b63ffb3fd02451408864a959",
    "cost": "670739ba7ffcc49013dc0b25aad1e041d909e29c53d10b70ce1e4fce919c605f",
    "sweep-degree": "c2eb28b9720d18a4915af0bb3825f092a62f0fcd6c9c5bdcc3677aee6b6a2449",
    "simulate-self": "3266fc8e3d71b190b305ef11e243a3d31a49d8fed37edc0b51d59b2c0ad426b8",
    "simulate-eight": "058fdeaba7a961143213daf30a87104caacf3cd77dbc3dcd321c4833fa461864",
    "attack": "bf2938d776f580aa6c0dab81dcce861ae6e26c960daa6a22b1b1e2a6fcfe3828",
}


#: Every ``EventTrace.to_dict(reveal_keys=True)`` of ``churn_traces()``.
CHURN_DIGEST = "fdbbe0c2db59f8d0951a4960d9351169795282d601439e721ba87cedf3beb4e5"


#: Every session of ``session_batch()`` plus the generator state after it.
SESSION_DIGEST = "75b14dc5a5b163b434d7640d1ab85de8cd6de4bf66eb912a3c660cf05676c281"


def session_batch() -> tuple[dict, int]:
    """Seeded sessions for P = 2..9, n in {1, 16, 256}, four decoy
    proportions and three channels: honest, intercept-resend on 5% of
    decoys and CNOT on 20%, all drawing from one generator.

    Returns the serialized sessions with the final generator state, and
    the number of aborted sessions.
    """
    rng = np.random.default_rng(43)
    channels = (
        None,
        AdversarialChannel(EveStrategy("intercept_resend", 0.05)),
        AdversarialChannel(EveStrategy("cnot", 0.2)),
    )
    sessions, aborted = [], 0
    for P in range(2, 10):
        ids = ["s"] + [f"u{i}" for i in range(1, P)]
        for n in (1, 16, 256):
            for xi in (0, 0.07, 0.25, 1):
                for channel in channels:
                    t = run_session(make_config(ids, n=n, xi=xi), rng, channel)
                    aborted += t.aborted
                    sessions.append(
                        {**t.to_dict(), "operation_keys": t.operation_keys}
                    )
    return {"sessions": sessions, "state": rng.bit_generator.state}, aborted


def _session_digest(batch: dict) -> str:
    return hashlib.sha256(json.dumps(batch, sort_keys=True).encode()).hexdigest()


def churn_traces() -> tuple[list[dict], int, int]:
    """80 seeded events at d=3 with random agents, from 90 members.

    Joiners run u91, u92, ..., so their ids cross from two digits to three.
    Returns the serialized traces and the numbers of splits (a join adding
    two k-nodes) and merges (a leave removing two).
    """
    rng = np.random.default_rng(41)
    tree = KeyTree.build_balanced(3, [f"u{i + 1}" for i in range(90)], 4, rng)
    config = ProtocolConfig(
        key_len=4, xi=0.25, agent_selection="random", record_tree_snapshots=True
    )
    proto = GroupProtocol(tree, config, rng)
    events = np.random.default_rng(42)
    next_uid, splits, merges, traces = 91, 0, 0, []
    for _ in range(80):
        before = len(proto.tree.key_nodes())
        if events.random() < 0.6:
            trace = proto.join(f"u{next_uid}")
            next_uid += 1
            splits += len(proto.tree.key_nodes()) - before == 2
        else:
            members = proto.tree.users()
            trace = proto.leave(members[int(events.integers(len(members)))])
            merges += before - len(proto.tree.key_nodes()) == 2
        traces.append(trace.to_dict(reveal_keys=True))
    assert next_uid > 100
    return traces, splits, merges


def _churn_digest(traces: list[dict]) -> str:
    return hashlib.sha256(json.dumps(traces, sort_keys=True).encode()).hexdigest()


def _digest(argv: list[str], capsys) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    blob = f"{captured.out}\0{captured.err}".encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(name, capsys):
    assert _digest(CASES[name], capsys) == DIGESTS[name]


def test_churn_trace_digest():
    traces, splits, merges = churn_traces()
    assert splits >= 1 and merges >= 1
    assert _churn_digest(traces) == CHURN_DIGEST


def test_session_batch_digest():
    batch, aborted = session_batch()
    assert 0 < aborted < len(batch["sessions"])
    assert _session_digest(batch) == SESSION_DIGEST


if __name__ == "__main__":
    import contextlib
    import io
    import sys

    for name, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        if code != 0:
            sys.exit(f"{name} exited {code}: {err.getvalue()}")
        blob = f"{out.getvalue()}\0{err.getvalue()}".encode()
        print(f'    "{name}": "{hashlib.sha256(blob).hexdigest()}",')
    print(f'CHURN_DIGEST = "{_churn_digest(churn_traces()[0])}"')
    print(f'SESSION_DIGEST = "{_session_digest(session_batch()[0])}"')
