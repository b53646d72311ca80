"""Closed-form cost models, the leave identity, sweeps, and orderings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgka.cost import (
    STAR_COSTS,
    CostParams,
    star_bell_cost,
    star_cluster_cost,
    star_ghz_cost,
    star_single_photon_cost,
    sweep_degree,
    tree_average_cost,
    tree_join_cost,
    tree_leave_cost,
)


class TestStarCosts:
    def test_ghz_examples(self):
        assert star_ghz_cost(9, 1, 0.0) == 9
        assert star_ghz_cost(2, 1, 0.25) == 2 * (1 + 0.25)
        assert star_ghz_cost(2, 1, 0.0) == 2

    def test_all_four_at_zero_xi(self):
        N = 13
        assert star_bell_cost(N) == 2 * N
        assert star_cluster_cost(N) == 2 * N
        assert star_single_photon_cost(N) == N
        assert star_ghz_cost(N) == N

    @given(
        N=st.integers(2, 10_000),
        n=st.integers(1, 64),
        xi=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_ghz_equals_its_construction(self, N, n, xi):
        # N entangled qubits per bit plus xi decoys per payload qubit on the
        # N-1 sequences out and N-1 back
        by_parts = n * N + 2 * xi * n * (N - 1)
        assert math.isclose(star_ghz_cost(N, n, xi), by_parts, rel_tol=1e-12)

    def test_monotonicity(self):
        for fn in (
            star_bell_cost,
            star_cluster_cost,
            star_single_photon_cost,
            star_ghz_cost,
        ):
            assert fn(100, 2, 0.5) > fn(99, 2, 0.5)
            assert fn(100, 3, 0.5) > fn(100, 2, 0.5)
            assert fn(100, 2, 0.6) > fn(100, 2, 0.5)

    def test_large_group_ordering(self):
        # quadratic decoy coefficients: 1 (bell), 0.5 (cluster), 1 (single)
        xi = 0.25
        for N in (32, 256, 4096):
            if N > 2 / xi:
                assert star_cluster_cost(N, 1, xi) < star_bell_cost(N, 1, xi)
                assert star_single_photon_cost(N, 1, xi) < star_bell_cost(N, 1, xi)


class TestTreeCosts:
    def test_worked_examples(self):
        assert tree_join_cost(9, 3) == 4
        assert tree_leave_cost(9, 3) == 7
        assert tree_average_cost(9, 3) == 5.5

    def test_join_is_sessions_times_pair_cost(self):
        assert math.isclose(
            tree_join_cost(1024, 4, n=2, xi=0.25),
            star_ghz_cost(2, 2, 0.25) * 5,
            rel_tol=1e-12,
        )

    @given(
        d=st.integers(2, 16),
        power=st.integers(1, 8),
        n=st.integers(1, 32),
        xi=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_leave_closed_form_identity(self, d, power, n, xi):
        # C_ghz(d+1) * (log_d N - 1) + C_ghz(d) must equal the closed form
        N = d**power
        L = math.log(N, d)
        by_sessions = star_ghz_cost(d + 1, n, xi) * (L - 1) + star_ghz_cost(d, n, xi)
        closed = tree_leave_cost(N, d, n, xi)
        assert math.isclose(by_sessions, closed, rel_tol=1e-12)

    def test_leave_identity_at_non_integer_logs(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            d = int(rng.integers(2, 17))
            N = int(rng.integers(2, 100_000))
            n = int(rng.integers(1, 33))
            xi = float(rng.random())
            L = math.log(N, d)
            by_sessions = star_ghz_cost(d + 1, n, xi) * (L - 1) + star_ghz_cost(
                d, n, xi
            )
            assert math.isclose(
                by_sessions, tree_leave_cost(N, d, n, xi), rel_tol=1e-12
            )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CostParams(N=1)
        with pytest.raises(ValueError):
            CostParams(N=4, n=0)
        with pytest.raises(ValueError):
            CostParams(N=4, xi=2.0)
        with pytest.raises(ValueError):
            CostParams(N=4, d=1)


class TestSweep:
    def test_degree_four_optimal_at_full_decoys(self):
        result = sweep_degree(1024, 1, [1.0], range(2, 17))
        assert result.argmin[1.0] == 4

    def test_quarter_decoys_near_tie(self):
        result = sweep_degree(1024, 1, [0.25], range(2, 17))
        assert result.argmin[0.25] in (4, 5)
        assert 4 in result.near_ties[0.25]

    def test_argmin_is_brute_force_minimum(self):
        # independent oracle: direct scan of the closed form
        for xi in (0.25, 0.5, 0.75, 1.0):
            result = sweep_degree(1024, 1, [xi], range(2, 17))
            oracle = min(range(2, 17), key=lambda d: tree_average_cost(1024, d, 1, xi))
            assert result.argmin[xi] == oracle

    def test_single_point_range(self):
        result = sweep_degree(64, 1, [0.5], [7])
        assert result.argmin[0.5] == 7
        assert len(result.entries) == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sweep_degree(64, 1, [0.5], [])
        with pytest.raises(ValueError):
            sweep_degree(64, 1, [0.5], [1, 2])


def star_vs_tree(N_values, d, n=1, xi=0.0):
    """Side-by-side star and tree costs per group size, with ratios."""
    rows = []
    for N in N_values:
        row = {"N": N}
        for name, fn in STAR_COSTS.items():
            row[name] = fn(N, n, xi)
        row["tree_join"] = tree_join_cost(N, d, n, xi)
        row["tree_leave"] = tree_leave_cost(N, d, n, xi)
        row["tree_avg"] = tree_average_cost(N, d, n, xi)
        row["ghz_over_tree_avg"] = (
            row["ghz"] / row["tree_avg"] if row["tree_avg"] else float("inf")
        )
        rows.append(row)
    return rows


class TestStarVsTree:
    def test_thousand_user_gap(self):
        rows = star_vs_tree([1024], d=4, n=1, xi=0.25)
        row = rows[0]
        assert math.isclose(row["ghz"], 1535.5, rel_tol=1e-12)
        assert math.isclose(row["tree_avg"], 23.0, rel_tol=1e-12)
        assert row["ghz_over_tree_avg"] > 60

    def test_tiny_group(self):
        row = star_vs_tree([2], d=2, n=1, xi=0.5)[0]
        assert row["ghz"] == (2 + 2 * 0.5) * 1

    def test_scaling_is_logarithmic(self):
        # Theorem-style check: C_avg / log N constant across N at fixed d
        ratios = [
            tree_average_cost(N, 4, 1, 0.25) / math.log(N) for N in (64, 1024, 65536)
        ]
        # the -(1+2xi)n/2 constant term decays; compare the dominant slope
        slope = [
            (tree_average_cost(N * 4, 4, 1, 0.25) - tree_average_cost(N, 4, 1, 0.25))
            for N in (64, 1024, 65536)
        ]
        assert max(slope) - min(slope) < 1e-9
        assert ratios[0] > 0
