"""Analytic qubit-cost models for star-graph agreement and tree rekeying.

Star costs count the qubits a whole-group agreement needs for an n-bit key
among N participants at decoy proportion xi, one closed form per protocol
family (Bell pairs, four-qubit cluster states, single photons, N-qubit GHZ
states).  Tree costs count the qubits one join or leave consumes when only
the path keys are regenerated: a join runs two-party sessions along the
path, a leave runs one (d+1)-party session per interior path key plus a
d-party session for the deepest one, which is where the closed forms come
from.  log_d N is evaluated as a real number to match the continuous curves;
simulation comparisons use actual integer path lengths and report both.

All functions are pure and trivially parallel over parameter grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class CostParams:
    N: int
    n: int = 1
    xi: float = 0.0
    d: int = 2

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("group size must be at least 2")
        if self.n < 1:
            raise ValueError("key length must be at least 1 bit")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("decoy proportion must lie in [0, 1]")
        if self.d < 2:
            raise ValueError("tree degree must be at least 2")


# --------------------------------------------------------------------- #
# star-graph protocol costs (whole-group agreement)

def star_bell_cost(N: int, n: int = 1, xi: float = 0.0) -> float:
    """Bell-pair agreement: (2 + xi*N) * n * N qubits."""
    return (2 + xi * N) * n * N


def star_cluster_cost(N: int, n: int = 1, xi: float = 0.0) -> float:
    """Four-qubit cluster-state agreement: (2 + xi*N/2) * n * N qubits."""
    return (2 + xi * N / 2) * n * N


def star_single_photon_cost(N: int, n: int = 1, xi: float = 0.0) -> float:
    """Single-photon agreement: (1 + xi*N) * n * N qubits."""
    return (1 + xi * N) * n * N


def star_ghz_cost(N: int, n: int = 1, xi: float = 0.0) -> float:
    """GHZ-state agreement: (1 + 2*xi) * n * N - 2*xi*n qubits.

    N entangled qubits per key bit plus xi decoys per payload qubit on the
    N-1 outbound and N-1 return sequences.
    """
    return (1 + 2 * xi) * n * N - 2 * xi * n


STAR_COSTS = {
    "bell": star_bell_cost,
    "cluster": star_cluster_cost,
    "single": star_single_photon_cost,
    "ghz": star_ghz_cost,
}


# --------------------------------------------------------------------- #
# tree rekeying costs

def tree_join_cost(N: int, d: int, n: int = 1, xi: float = 0.0) -> float:
    """Qubits for one join: a two-party session per path key.

    C_join = C_ghz(2) * log_d N = 2 * (1 + xi) * n * log_d N.
    """
    return 2 * (1 + xi) * n * math.log(N, d)


def tree_leave_cost(N: int, d: int, n: int = 1, xi: float = 0.0) -> float:
    """Qubits for one leave: (d+1)-party sessions plus one d-party session.

    C_leave = C_ghz(d+1) * (log_d N - 1) + C_ghz(d)
            = ((1 + 2*xi) * d + 1) * n * log_d N - (1 + 2*xi) * n.
    """
    return ((1 + 2 * xi) * d + 1) * n * math.log(N, d) - (1 + 2 * xi) * n


def tree_average_cost(N: int, d: int, n: int = 1, xi: float = 0.0) -> float:
    """Mean of the join and leave costs."""
    return (tree_join_cost(N, d, n, xi) + tree_leave_cost(N, d, n, xi)) / 2


TREE_COSTS = {
    "tree-join": tree_join_cost,
    "tree-leave": tree_leave_cost,
    "tree-avg": tree_average_cost,
}


# --------------------------------------------------------------------- #
# parameter sweeps and comparisons

@dataclass(frozen=True)
class SweepEntry:
    xi: float
    d: int
    avg_cost: float


@dataclass(frozen=True)
class SweepResult:
    entries: list[SweepEntry]
    argmin: dict[float, int]  # xi -> best degree
    near_ties: dict[float, list[int]]  # degrees within 1% of the minimum

    def rows(self) -> list[tuple[float, int, float]]:
        return [(e.xi, e.d, e.avg_cost) for e in self.entries]


def sweep_degree(
    N: int,
    n: int,
    xi_values: Sequence[float],
    d_range: Iterable[int],
) -> SweepResult:
    """Evaluate the average tree cost over a (xi, d) grid.

    Reports the cost-minimizing degree per xi and flags every degree whose
    cost lies within 1% of that minimum (near-ties).  Raises ValueError for
    a group size, key length or xi that ``CostParams`` rejects.
    """
    # checked one by one: a huge range fails at its first bad degree
    seen = set()
    for d in d_range:
        if d < 2 or d > 64:
            raise ValueError("degrees must lie in [2, 64]")
        seen.add(d)
    if not seen:
        raise ValueError("empty degree range")
    if not xi_values:
        raise ValueError("empty xi list")
    degrees = sorted(seen)
    for xi in xi_values:
        CostParams(N=N, n=n, xi=xi)
    entries: list[SweepEntry] = []
    argmin: dict[float, int] = {}
    near: dict[float, list[int]] = {}
    for xi in xi_values:
        costs = {d: tree_average_cost(N, d, n, xi) for d in degrees}
        for d in degrees:
            entries.append(SweepEntry(xi=xi, d=d, avg_cost=costs[d]))
        best = min(degrees, key=lambda d: (costs[d], d))
        argmin[xi] = best
        near[xi] = [d for d in degrees if costs[d] <= costs[best] * 1.01]
    return SweepResult(entries=entries, argmin=argmin, near_ties=near)

