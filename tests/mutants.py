"""Mutation check: break the code in one known way at a time and make sure
the tests notice.

    python tests/mutants.py [name ...]

A mutant names a file under ``src``, an exact snippet of it, the snippet's
replacement, any further (snippet, replacement) pairs in the same file and
the tests expected to kill it.  For each mutant the script
copies ``src`` and ``tests`` to a temporary directory, replaces the
snippets there and runs those tests with pytest, under the hypothesis
profile ``mutants`` (``tests/conftest.py``), which does not shrink a
failing example: the mutant is killed when they fail and survives when
they pass.  A snippet that does not occur exactly once is an error, so a
change to the code updates its mutants with it.  The tests are first run
once on the unchanged copy, which must pass.  Exits 0 only when every
mutant applies and is killed.  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    # pytest node ids expected to fail, quickest first: the run stops at the
    # first failure, before hypothesis shrinks a failing example of the next
    tests: tuple[str, ...]
    more: tuple[tuple[str, str], ...] = ()  # further (snippet, replacement)


ARRAY_ENGINE = "tests/test_qka.py::TestArrayEngine"
EVENT_STREAM = "tests/test_protocol.py::TestEventStream"
LONG_KEY_CIPHER = "tests/test_rekey.py::TestLongKeyCipher"
GOLDEN = "tests/test_golden.py"
INSERT_REMOVE = "tests/test_keytree.py::TestInsertRemove"
STATEFUL = "tests/test_stateful.py"
CONSISTENCY = "tests/test_protocol.py::TestConsistency"
HELD_KEYS = f"{CONSISTENCY}::test_each_stay_holds_the_keys_its_member_held"
TAPS = "tests/test_adversary.py::TestTaps"
FUSED_TAP = f"{TAPS}::test_fused_draw_matches_reference_draw_for_draw"
CHANNEL_MISREADS = f"{TAPS}::test_channel_reports_the_reference_misreads"
CHUNKED_EXPERIMENT = "tests/test_adversary.py::TestChunkedExperiment"
UNDELIVERED = "tests/test_protocol.py::TestUndeliveredMessage"
DROPPED_MESSAGES = f"{UNDELIVERED}::test_dropped_messages_match_per_user_delivery"

MUTANTS = [
    Mutant(
        "keys-not-shifted",
        "src/qgka/qka.py",
        "SessionDraw(t, (values[: P * n] >> 1).reshape(P, n))",
        "SessionDraw(t, (values[: P * n] >> 0).reshape(P, n))",
        (EVENT_STREAM, ARRAY_ENGINE),
    ),
    Mutant(
        "nonce-drawn-for-no-send",
        "src/qgka/rekey.py",
        'drawn = rng.bytes(8 * count) if count else b""',
        "drawn = rng.bytes(8 * count)",
        (f"{EVENT_STREAM}::test_leave_without_messages_draws_no_nonce",),
    ),
    Mutant(
        "keystream-counter-from-1",
        "src/qgka/rekey.py",
        "    for counter in range(last):\n"
        "        block = head.copy()\n"
        '        block.update(counter.to_bytes(8, "big"))\n'
        "        blocks.append(block.digest())\n"
        '    head.update(last.to_bytes(8, "big"))\n',
        "    for counter in range(1, last + 1):\n"
        "        block = head.copy()\n"
        '        block.update(counter.to_bytes(8, "big"))\n'
        "        blocks.append(block.digest())\n"
        '    head.update((last + 1).to_bytes(8, "big"))\n',
        (LONG_KEY_CIPHER,),
    ),
    Mutant(
        "keystream-last-block-hashed-twice",
        "src/qgka/rekey.py",
        '    head.update(last.to_bytes(8, "big"))\n',
        '    head.update(last.to_bytes(8, "big"))\n'
        '    head.update(last.to_bytes(8, "big"))\n',
        (LONG_KEY_CIPHER,),
    ),
    Mutant(
        "return-phase-drawn-before-check",
        "src/qgka/qka.py",
        "    if not _checked_hops(out, values[P * n :], channel, rng, counters):\n"
        '        t.aborted, t.abort_cause = True, "eavesdropper"\n'
        "        return draw\n"
        "\n"
        "    # Encoding: everyone applies the gate for her key bit on her own\n"
        "    # particle; the leaders' free choices are drawn here, with the return\n"
        "    # decoys' kinds after them, and the gates are worked out at the finish.\n"
        "    values = rng.integers(4, size=n + back.decoy_qubits)\n",
        "    kinds = values[P * n :]\n"
        "    values = rng.integers(4, size=n + back.decoy_qubits)\n"
        "    if not _checked_hops(out, kinds, channel, rng, counters):\n"
        '        t.aborted, t.abort_cause = True, "eavesdropper"\n'
        "        return draw\n",
        (f"{EVENT_STREAM}::test_attacked_channel_with_aborts", ARRAY_ENGINE),
    ),
    # an event agrees on its keys before the tree changes
    Mutant(
        "random-agent-counts-the-leaver",
        "src/qgka/protocol.py",
        "        count = self.tree.nodes[key_id].count - (key_id in skip)\n"
        "        return self.tree.user_at("
        "key_id, int(self.rng.integers(count)), skip)\n",
        "        count = self.tree.nodes[key_id].count\n"
        "        return self.tree.user_at(key_id, int(self.rng.integers(count)))\n",
        (GOLDEN, STATEFUL),
    ),
    Mutant(
        "first-agent-counts-the-leaver",
        "src/qgka/protocol.py",
        "return self.tree.user_at(key_id, 0, skip)",
        "return self.tree.user_at(key_id, 0)",
        ("tests/test_protocol.py::TestLeave::test_worked_nine_user_leave",),
    ),
    Mutant(
        "leave-path-never-merges",
        "src/qgka/keytree.py",
        "        if len(siblings) == 1:\n            path[0] = siblings[0]\n",
        "",
        (INSERT_REMOVE,),
    ),
    Mutant(
        "agents-keep-the-leavers-leaf",
        "src/qgka/protocol.py",
        "children = [c for c in self.tree.child_keys(key_id) if c != old_path[0]]",
        "children = self.tree.child_keys(key_id)",
        ("tests/test_protocol.py::TestLeave", GOLDEN),
    ),
    Mutant(
        "registration-length-unchecked",
        "src/qgka/keytree.py",
        '            raise KeyTreeError(f"user {user_id!r} already present")\n'
        "        if len(bits) != self.key_len:\n",
        '            raise KeyTreeError(f"user {user_id!r} already present")\n'
        "        if False:\n",
        (
            f"{INSERT_REMOVE}"
            "::test_wrong_length_registration_refused_before_any_change",
        ),
    ),
    Mutant(
        "join-agrees-one-key-too-few",
        "src/qgka/protocol.py",
        "point_path = self.tree.path(self.tree.join_point()[1])",
        "point_path = self.tree.path(self.tree.join_point()[1])[1:]",
        ("tests/test_protocol.py::TestJoin", GOLDEN),
    ),
    # one tree node per member: user ids map to their individual keys
    Mutant(
        "leaf-number-not-used-up",
        "src/qgka/keytree.py",
        "        self._counter += 1\n        k = self._new_node()\n",
        "        k = self._new_node()\n",
        (GOLDEN,),
    ),
    Mutant(
        "u-node-listed-after-its-key",
        "src/qgka/keytree.py",
        "            nodes.append(entry)\n",
        # an individual key's entry goes before its u-node's
        "            nodes.insert(len(nodes) - (not node.children), entry)\n",
        (GOLDEN,),
    ),
    Mutant(
        "removed-user-kept-in-leaves",
        "src/qgka/keytree.py",
        "del self.leaves[user_id], self.nodes[leaf.id]",
        "del self.nodes[leaf.id]",
        (INSERT_REMOVE,),
    ),
    Mutant(
        "invariants-skip-the-leaf-owner",
        "src/qgka/keytree.py",
        "if self.leaves.get(node.users) != nid:",
        "if False:",
        (f"{INSERT_REMOVE}::test_stale_user_entry_rejected",),
    ),
    Mutant(
        "invariants-skip-the-leaf-count",
        "src/qgka/keytree.py",
        "if individual != len(self.leaves):",
        "if False:",
        (f"{INSERT_REMOVE}::test_stale_user_entry_rejected",),
    ),
    # a history beside the protocol: one stay per membership, one record per
    # key version with its holders' rope and the step they got it
    # each new key recorded with its previous version's holders, the users
    # under it before the event changed the tree
    Mutant(
        "stale-rope-recorded",
        "src/qgka/history.py",
        "        self.probes: list[tuple[int, SimCipherText]] = []\n",
        "        self.probes: list[tuple[int, SimCipherText]] = []\n"
        "        self._ropes = {n.id: n.users for n in tree.nodes.values()}\n",
        (HELD_KEYS, STATEFUL),
        more=(
            (
                "            (k, tree.rope(k.key_id), step)"
                " for k in trace.new_material.values()\n"
                "        ]\n",
                "            (k, self._ropes.get(k.key_id, tree.rope(k.key_id)), step)"
                " for k in trace.new_material.values()\n"
                "        ]\n"
                "        self._ropes.update("
                "(k, tree.rope(k)) for k in trace.new_material)\n",
            ),
        ),
    ),
    Mutant(
        "initial-member-has-no-stay",
        "src/qgka/history.py",
        "{uid: [Stay(0)] for uid in tree.users()}",
        "{uid: [Stay(0)] for uid in tree.users()[1:]}",
        (f"{CONSISTENCY}::test_secrecy_probe_check", STATEFUL),
    ),
    Mutant(
        "registration-key-not-recorded",
        "src/qgka/history.py",
        "            self.held.append((reg, uid, step))\n",
        "",
        (HELD_KEYS, STATEFUL),
    ),
    Mutant(
        "first-stay-taken-for-the-last",
        "src/qgka/history.py",
        "                at = len(stays) - 1\n",
        "                at = 0\n",
        (f"{CONSISTENCY}::test_rejoined_id_opens_only_its_own_stays", STATEFUL),
    ),
    Mutant(
        "same-step-skip-widened",
        "src/qgka/history.py",
        "if sent[i][0] != got]",
        "if abs(sent[i][0] - got) > 1]",
        (f"{CONSISTENCY}::test_secrecy_checker_reports_leaked_keys",),
    ),
    # delivered keys: one index and one query
    Mutant(
        "put-gives-kept-nodes-the-key",
        "src/qgka/protocol.py",
        "        if keep is not None:\n            self._settle(keep, key_id, old)\n",
        "",
        (f"{CONSISTENCY}::test_shared_delivery_matches_per_user_oracle", STATEFUL),
    ),
    Mutant(
        "put-clears-entries-under-kept-nodes",
        "src/qgka/protocol.py",
        "if y != node_id and not kept:",
        "if y != node_id:",
        (f"{CONSISTENCY}::test_put_keeps_entries_under_a_kept_node",),
    ),
    # delivery enters what each region of recipients can open
    Mutant(
        "regions-ignore-keep",
        "src/qgka/protocol.py",
        "            if node_id == keep:\n                continue\n",
        "",
        (DROPPED_MESSAGES,),
    ),
    Mutant(
        "regions-coalesce-mixed",
        "src/qgka/protocol.py",
        "if len({value for _, value in found}) == 1:",
        "if found:",
        (DROPPED_MESSAGES,),
    ),
    Mutant(
        "merge-drops-mixed-entries",
        "src/qgka/protocol.py",
        "if self.regions(key_id, key_id) == [(key_id, self.tree.nodes[key_id].key)]:",
        "if True:",
        (UNDELIVERED,),
    ),
    # Eve's tap in one fused draw, returning masks
    Mutant(
        "tap-eve-and-receiver-slices-swapped",
        "src/qgka/adversary.py",
        "eve_wrong, misread = bits[1:] != kinds & 1",
        "misread, eve_wrong = bits[1:] != kinds & 1",
        (FUSED_TAP, GOLDEN),
    ),
    Mutant(
        "tap-touched-mask-not-applied",
        "src/qgka/adversary.py",
        "        disturbed &= touched\n",
        "        pass\n",
        (FUSED_TAP, CHUNKED_EXPERIMENT),
    ),
    Mutant(
        "tap-cnot-slices-swapped",
        "src/qgka/adversary.py",
        "misread, eve_wrong = bits != kinds & 1",
        "eve_wrong, misread = bits != kinds & 1",
        (FUSED_TAP, GOLDEN),
    ),
    # a channel returns the mask of the decoys read wrong, not readings
    Mutant(
        "transmit-returns-eve-wrong-mask",
        "src/qgka/adversary.py",
        "        return tap_decoys(self.strategy, kinds, rng)[0]\n",
        "        return tap_decoys(self.strategy, kinds, rng)[1]\n",
        (CHANNEL_MISREADS, GOLDEN),
    ),
    Mutant(
        "none-channel-draws",
        "src/qgka/adversary.py",
        "            return np.zeros(len(kinds), dtype=bool)\n",
        "            return rng.integers(2, size=len(kinds)) > 1\n",
        (CHANNEL_MISREADS,),
    ),
    Mutant(
        "checked-hops-inverts-mask",
        "src/qgka/qka.py",
        "wrong = np.flatnonzero(channel.transmit(kinds, rng))",
        "wrong = np.flatnonzero(~channel.transmit(kinds, rng))",
        ("tests/test_qka.py::TestAbortCounters", EVENT_STREAM),
    ),
    # a config switch takes only the boolean words
    Mutant(
        "config-switch-takes-any-word",
        "src/qgka/cli.py",
        "            value = _SWITCH_VALUES.get(raw[dest].lower())\n"
        "            if value is None:\n",
        "            value = _SWITCH_VALUES.get(raw[dest].lower(), False)\n"
        "            if value is None:\n",
        (
            "tests/test_cli.py::TestConfigFile"
            "::test_config_switch_takes_only_boolean_words",
        ),
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _passes(workdir: Path, tests: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *tests],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def _apply(workdir: Path, mutant: Mutant) -> bool:
    """Replace the mutant's snippet in the copy; False when it does not
    occur exactly once."""
    target = workdir / mutant.path
    source = target.read_text()
    for snippet, replacement in ((mutant.snippet, mutant.replacement), *mutant.more):
        if source.count(snippet) != 1:
            return False
        source = source.replace(snippet, replacement)
    target.write_text(source)
    return True


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    every_test = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        if not _passes(base, every_test):
            print("the tests fail on the unchanged code; no mutant was run")
            return 2
        bad = 0
        for mutant in chosen:
            workdir = Path(tmp) / mutant.name
            _copy(workdir)
            if not _apply(workdir, mutant):
                verdict = "does not apply: its snippet is not in the code once"
            elif _passes(workdir, mutant.tests):
                verdict = "survived"
            else:
                verdict = "killed"
            bad += verdict != "killed"
            print(f"{mutant.name}: {verdict}")
            shutil.rmtree(workdir)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
