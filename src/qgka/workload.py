"""Poisson-driven membership churn and the cumulative resource time series.

A run spawns two random streams from its seed.  The first draws the event
list alone: each step draws an event count from Poisson(lambda), each event
is a join with probability ``p_join`` and otherwise a leave, and each leave
draws its leaver as an index into the group in tree order.  A leave that
would shrink the group below two members is skipped and recorded, never
silently dropped.  So one seed gives one event list for every decoy proportion, key
length, mode and backend.  The second stream builds the tree and runs the
sessions.  Every run replays the list into one cumulative record per step:

* ``sim`` runs every event through the full protocol against a live tree,
  so the series reflects actual integer path lengths and decoy rounding;
* ``analytic`` accrues the closed-form tree costs at the running group size,
  the way the continuous comparison curves are constructed;
* backends replay the ``sim`` run's events: tree backends cost each
  regenerated key at its session size, star backends one whole-group
  agreement per event, each under its protocol family's closed form.

A run is deterministic: the same config produces byte-identical CSV output.
One run is sequential (the tree is serial state); sweeps can run many
simulations in parallel.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .cost import STAR_COSTS, CostParams, tree_join_cost, tree_leave_cost
from .counters import CSV_COLUMNS, ResourceCounters
from .keytree import KeyTree
from .protocol import GroupProtocol, ProtocolConfig

TREE_BACKENDS = ("tree-bell", "tree-cluster", "tree-single", "tree-ghz")
STAR_BACKENDS = ("star-bell", "star-cluster", "star-single", "star-ghz")
ALL_BACKENDS = TREE_BACKENDS + STAR_BACKENDS

#: Size limits, checked before anything is built so that a run's time and
#: memory are bounded: the initial group (also ``qgka trace``'s group), the
#: key length, the key bits of a whole tree (group size times key length),
#: the time steps, the expected events lambda * steps, and the decoys of a
#: ``qgka attack`` run (decoys times trials).
MAX_GROUP_SIZE = 1 << 18
MAX_KEY_LEN = 1 << 12
MAX_KEY_BITS = 1 << 22
MAX_STEPS = 100_000
MAX_EVENTS = 100_000
MAX_DECOYS = 1 << 27


def check_tree_size(group_size: int, key_len: int) -> None:
    """Reject a tree over the size limits with ``ValueError``."""
    if group_size > MAX_GROUP_SIZE:
        raise ValueError(f"group size must be at most {MAX_GROUP_SIZE}")
    if key_len > MAX_KEY_LEN:
        raise ValueError(f"key length must be at most {MAX_KEY_LEN}")
    if group_size * key_len > MAX_KEY_BITS:
        raise ValueError(f"group size * key length must be at most {MAX_KEY_BITS}")


@dataclass
class WorkloadConfig:
    initial_group_size: int
    degree: int
    key_len: int = 1
    xi: float = 0.0
    lam: float = 1.0  # Poisson rate per time unit
    steps: int = 1
    p_join: float = 0.5
    seed: int = 0
    mode: str = "sim"  # or "analytic"

    def __post_init__(self) -> None:
        # both modes cost the same tree, so both take only its domain
        CostParams(self.initial_group_size, self.key_len, self.xi, self.degree)
        check_tree_size(self.initial_group_size, self.key_len)
        if self.lam < 0:
            raise ValueError("event rate must be nonnegative")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}")
        if not self.lam * self.steps <= MAX_EVENTS:  # also rejects nan
            raise ValueError(f"lambda * steps must be at most {MAX_EVENTS}")
        if not 0.0 <= self.p_join <= 1.0:
            raise ValueError("join probability must lie in [0, 1]")
        if self.mode not in ("sim", "analytic"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def as_header_items(self) -> list[tuple[str, object]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


@dataclass
class TimeSeriesRecord:
    """Cumulative snapshot after one time step.

    Analytic and replayed series cost only qubits, so their counters carry
    a real-valued ``qubits_prepared`` and zeros elsewhere.
    """

    step: int
    joins: int
    leaves: int
    skipped_leaves: int
    group_size: int
    counters: ResourceCounters = field(default_factory=ResourceCounters)


@dataclass
class EventInfo:
    """One drawn membership event; a ``sim`` replay fills its session sizes.

    ``kind`` is "join", "leave" or "skip", a leave drawn at two members.  A
    leave's ``leaver`` indexes the members before it, in tree order.
    """

    step: int
    kind: str
    size_after: int
    leaver: Optional[int] = None
    session_sizes: tuple[int, ...] = ()


@dataclass
class SimulationResult:
    config: WorkloadConfig
    records: list[TimeSeriesRecord]
    events: list[EventInfo] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        """Events drawn, skipped leaves included."""
        return len(self.events)


#: One event's replay: it runs the event and returns what the event spent.
_Cost = Callable[[EventInfo], ResourceCounters]


def draw_events(config: WorkloadConfig) -> list[EventInfo]:
    """The run's event list, from the first stream spawned from its seed.

    Each step draws its event count, its events' kinds, then its leavers.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[0])
    events: list[EventInfo] = []
    size = config.initial_group_size
    for step in range(1, config.steps + 1):
        count = rng.poisson(config.lam)
        for join in [rng.random() < config.p_join for _ in range(count)]:
            if join:
                size += 1
                events.append(EventInfo(step, "join", size))
            elif size <= 2:
                events.append(EventInfo(step, "skip", size))
            else:
                leaver = int(rng.integers(size))
                size -= 1
                events.append(EventInfo(step, "leave", size, leaver))
    return events


def _records(
    config: WorkloadConfig, events: list[EventInfo], cost: _Cost
) -> list[TimeSeriesRecord]:
    """Replay ``events`` through ``cost``, one cumulative record per step."""
    by_step: dict[int, list[EventInfo]] = {}
    for ev in events:
        by_step.setdefault(ev.step, []).append(ev)
    counts = dict.fromkeys(("join", "leave", "skip"), 0)
    size = config.initial_group_size
    total = ResourceCounters()
    records: list[TimeSeriesRecord] = []
    for step in range(1, config.steps + 1):
        for ev in by_step.get(step, ()):
            counts[ev.kind] += 1
            size = ev.size_after
            if ev.kind != "skip":  # a skipped leave spends nothing
                total.merge(cost(ev))
        joins, leaves, skipped = counts.values()
        records.append(
            TimeSeriesRecord(step, joins, leaves, skipped, size, total.copy())
        )
    return records


def _protocol_cost(config: WorkloadConfig) -> _Cost:
    """The protocol on a tree built from the second stream of the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
    users = [f"u{i + 1}" for i in range(config.initial_group_size)]
    tree = KeyTree.build_balanced(config.degree, users, config.key_len, rng)
    protocol = GroupProtocol(
        tree, ProtocolConfig(key_len=config.key_len, xi=config.xi), rng
    )
    joiners = itertools.count(config.initial_group_size + 1)

    def cost(ev: EventInfo) -> ResourceCounters:
        if ev.kind == "join":
            trace = protocol.join(f"u{next(joiners)}")
        else:
            tree = protocol.tree
            trace = protocol.leave(tree.user_at(tree.root, ev.leaver))
        ev.session_sizes = tuple(trace.session_sizes)
        return trace.counters

    return cost


def _qubits(per_event: Callable[[EventInfo], float]) -> _Cost:
    """A closed-form cost model, as counters of prepared qubits only."""
    return lambda ev: ResourceCounters(qubits_prepared=per_event(ev))


def run_simulation(config: WorkloadConfig) -> SimulationResult:
    """Run one churn simulation and return its per-step records and events."""
    d, n, xi = config.degree, config.key_len, config.xi
    events = draw_events(config)
    if config.mode == "sim":
        cost = _protocol_cost(config)
    else:  # a join at the size after it, a leave at the size before it
        cost = _qubits(
            lambda ev: tree_join_cost(ev.size_after, d, n, xi)
            if ev.kind == "join"
            else tree_leave_cost(ev.size_after + 1, d, n, xi)
        )
    return SimulationResult(config, _records(config, events, cost), events)


def compare_backends(
    config: WorkloadConfig, backends: list[str]
) -> dict[str, list[TimeSeriesRecord]]:
    """One cumulative series per backend over the run's event list.

    The base run executes the tree protocol (``sim`` mode) so session sizes
    reflect the live tree.  ``tree-ghz`` reports the base run's own counters
    (or, under ``mode="analytic"``, its sessions costed by the closed form,
    putting all four tree families on equal analytic footing); the other
    tree backends cost every session at its size under their protocol
    family; star backends cost one whole-group agreement per event.
    """
    if not backends:
        raise ValueError("empty backend list")
    unknown = set(backends) - set(ALL_BACKENDS)
    if unknown:
        raise ValueError(f"unknown backends: {sorted(unknown)}")
    base = run_simulation(replace(config, mode="sim"))
    n, xi = config.key_len, config.xi
    out: dict[str, list[TimeSeriesRecord]] = {}
    for backend in backends:
        fn = STAR_COSTS[backend.split("-", 1)[1]]
        if backend == "tree-ghz" and config.mode == "sim":
            out[backend] = base.records
            continue
        if backend.startswith("tree-"):
            cost = _qubits(
                lambda ev, fn=fn: sum(fn(P, n, xi) for P in ev.session_sizes)
            )
        else:
            cost = _qubits(lambda ev, fn=fn: fn(ev.size_after, n, xi))
        out[backend] = _records(config, base.events, cost)
    return out


# --------------------------------------------------------------------- #
# CSV output

_RECORD_FIELDS = ("step", "joins", "leaves", "group_size")
_RECORD_COLUMNS = _RECORD_FIELDS + tuple(csv for _, csv in CSV_COLUMNS)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return repr(value) if not value.is_integer() else str(int(value))
    return str(value)


def series_csv(
    records: list[TimeSeriesRecord], header_items: list[tuple[str, object]]
) -> str:
    """Render one time series with its full config embedded as comments."""
    buf = io.StringIO()
    for key, value in header_items:
        buf.write(f"# {key} = {value}\n")
    buf.write(",".join(_RECORD_COLUMNS) + "\n")
    for rec in records:
        values = [getattr(rec, f) for f in _RECORD_FIELDS]
        values += [getattr(rec.counters, name) for name, _ in CSV_COLUMNS]
        buf.write(",".join(_fmt(v) for v in values) + "\n")
    return buf.getvalue()
