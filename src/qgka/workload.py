"""Poisson-driven membership churn and the cumulative resource time series.

Each step draws an event count from Poisson(lambda); each event is a join
with probability ``p_join`` and otherwise a leave (an independent-rates
variant draws separate Poisson counts for joins and leaves).  Leaves that
would shrink the group below two members are skipped and recorded, never
silently dropped.  Two execution modes share the same event stream:

* ``sim`` runs every event through the full protocol against a live tree,
  so the series reflects actual integer path lengths and decoy rounding;
* ``analytic`` accrues the closed-form tree costs at the running group size,
  the way the continuous comparison curves are constructed.

Backends replay one identical seeded event sequence: the tree backends cost
each regenerated key at its session size, star backends cost one whole-group
agreement per event, each under its protocol family's closed form.  A run is
deterministic: the same config and seed produce byte-identical CSV output.

One simulation run is sequential (the tree is serial state); parameter
sweeps can run many simulations in parallel.
"""

from __future__ import annotations

import io
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

#: Size limits, checked before anything is built so that a run's memory is
#: bounded: the initial group (also ``qgka trace``'s group), the time steps
#: and the expected events lambda * steps (twice that with independent rates).
MAX_GROUP_SIZE = 1 << 18
MAX_STEPS = 100_000
MAX_EVENTS = 100_000


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
    independent_rates: bool = False  # separate Poisson draws for joins/leaves

    def __post_init__(self) -> None:
        # both modes cost the same tree, so both take only its domain
        CostParams(self.initial_group_size, self.key_len, self.xi, self.degree)
        if self.initial_group_size > MAX_GROUP_SIZE:
            raise ValueError(f"initial group size must be at most {MAX_GROUP_SIZE}")
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
    """Per-event detail kept for backend replay."""

    step: int
    kind: str  # "join" or "leave"
    size_after: int
    session_sizes: tuple[int, ...]


@dataclass
class SimulationResult:
    config: WorkloadConfig
    records: list[TimeSeriesRecord]
    events: list[EventInfo] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        return len(self.events)


def run_simulation(config: WorkloadConfig) -> SimulationResult:
    """Run one churn simulation and return its per-step records and events."""
    rng = np.random.default_rng(config.seed)
    records: list[TimeSeriesRecord] = []
    events: list[EventInfo] = []

    users = [f"u{i + 1}" for i in range(config.initial_group_size)]
    next_uid = config.initial_group_size + 1

    protocol: Optional[GroupProtocol] = None
    group_size = config.initial_group_size
    analytic_qubits = 0.0
    if config.mode == "sim":
        tree = KeyTree.build_balanced(config.degree, users, config.key_len, rng)
        protocol = GroupProtocol(
            tree, ProtocolConfig(key_len=config.key_len, xi=config.xi), rng
        )

    cum_joins = cum_leaves = cum_skipped = 0
    for step in range(1, config.steps + 1):
        if config.independent_rates:
            kinds = ["join"] * int(rng.poisson(config.lam)) + ["leave"] * int(
                rng.poisson(config.lam)
            )
        else:
            count = int(rng.poisson(config.lam))
            kinds = [
                "join" if rng.random() < config.p_join else "leave"
                for _ in range(count)
            ]
        for kind in kinds:
            if kind == "leave" and group_size <= 2:
                cum_skipped += 1
                continue
            if kind == "join":
                uid = f"u{next_uid}"
                next_uid += 1
                if protocol is not None:
                    trace = protocol.join(uid)
                    sizes = tuple(trace.session_sizes)
                else:
                    analytic_qubits += tree_join_cost(
                        group_size + 1, config.degree, config.key_len, config.xi
                    )
                    sizes = ()
                group_size += 1
                cum_joins += 1
            else:
                if protocol is not None:
                    members = protocol.tree.userset(protocol.tree.root)
                    uid = members[int(rng.integers(len(members)))]
                    trace = protocol.leave(uid)
                    sizes = tuple(trace.session_sizes)
                else:
                    uid = "analytic"
                    analytic_qubits += tree_leave_cost(
                        group_size, config.degree, config.key_len, config.xi
                    )
                    sizes = ()
                group_size -= 1
                cum_leaves += 1
            events.append(
                EventInfo(step=step, kind=kind, size_after=group_size, session_sizes=sizes)
            )
        records.append(
            TimeSeriesRecord(
                step=step,
                joins=cum_joins,
                leaves=cum_leaves,
                skipped_leaves=cum_skipped,
                group_size=group_size,
                counters=(
                    protocol.counters.copy()
                    if protocol is not None
                    else ResourceCounters(qubits_prepared=analytic_qubits)
                ),
            )
        )
    return SimulationResult(config=config, records=records, events=events)


def _replay_series(
    base: SimulationResult, cost_per_event: Callable[[EventInfo], float]
) -> list[TimeSeriesRecord]:
    """Accumulate a per-event cost model over the base run's event stream."""
    out: list[TimeSeriesRecord] = []
    total = 0.0
    by_step: dict[int, float] = {}
    for ev in base.events:
        by_step[ev.step] = by_step.get(ev.step, 0.0) + cost_per_event(ev)
    for rec in base.records:
        total += by_step.get(rec.step, 0.0)
        out.append(replace(rec, counters=ResourceCounters(qubits_prepared=total)))
    return out


def compare_backends(
    config: WorkloadConfig, backends: list[str]
) -> dict[str, list[TimeSeriesRecord]]:
    """One cumulative series per backend over an identical event sequence.

    The base run executes the tree protocol (``sim`` mode) so session sizes
    reflect the live tree.  ``tree-ghz`` reports the base run's own counters
    (or, under ``mode="analytic"``, its sessions costed by the closed form,
    putting all four tree families on equal analytic footing); the other
    tree backends cost every session at its size under their protocol
    family; star backends cost one whole-group agreement per event.
    """
    unknown = set(backends) - set(ALL_BACKENDS)
    if unknown:
        raise ValueError(f"unknown backends: {sorted(unknown)}")
    base = run_simulation(replace(config, mode="sim"))
    out: dict[str, list[TimeSeriesRecord]] = {}
    for backend in backends:
        family = backend.split("-", 1)[1]
        if backend == "tree-ghz" and config.mode == "sim":
            out[backend] = base.records
        elif backend.startswith("tree-"):
            fn = STAR_COSTS[family]
            out[backend] = _replay_series(
                base,
                lambda ev, fn=fn: sum(
                    fn(P, config.key_len, config.xi) for P in ev.session_sizes
                ),
            )
        else:
            fn = STAR_COSTS[family]
            out[backend] = _replay_series(
                base,
                lambda ev, fn=fn: fn(ev.size_after, config.key_len, config.xi),
            )
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
