"""Churn simulation: determinism, conservation, slopes, backend ordering."""

from dataclasses import replace
from itertools import product

import pytest

from qgka.cost import star_ghz_cost, tree_average_cost
from qgka.workload import (
    ALL_BACKENDS,
    MAX_GROUP_SIZE,
    MAX_KEY_BITS,
    MAX_KEY_LEN,
    WorkloadConfig,
    compare_backends,
    draw_events,
    run_simulation,
    series_csv,
)


def small_config(**kwargs):
    base = dict(
        initial_group_size=16,
        degree=4,
        key_len=1,
        xi=0.0,
        lam=1.0,
        steps=40,
        seed=11,
        mode="sim",
    )
    base.update(kwargs)
    return WorkloadConfig(**base)


class TestSimulation:
    def test_deterministic_byte_identical(self):
        cfg = small_config()
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        header = cfg.as_header_items()
        assert series_csv(a.records, header) == series_csv(b.records, header)

    def test_different_seed_differs(self):
        a = run_simulation(small_config(seed=1))
        b = run_simulation(small_config(seed=2))
        ha = series_csv(a.records, [])
        hb = series_csv(b.records, [])
        assert ha != hb

    def test_group_size_conservation(self):
        result = run_simulation(small_config(steps=80))
        prev_joins = prev_leaves = 0
        size = 16
        for rec in result.records:
            size += (rec.joins - prev_joins) - (rec.leaves - prev_leaves)
            assert rec.group_size == size
            prev_joins, prev_leaves = rec.joins, rec.leaves

    def test_cumulative_counters_nondecreasing(self):
        result = run_simulation(small_config(steps=60))
        prev = None
        for rec in result.records:
            if prev is not None:
                for f in ("qubits_prepared", "encryptions", "rekey_messages"):
                    assert getattr(rec.counters, f) >= getattr(prev.counters, f)
                for f in ("joins", "leaves", "skipped_leaves"):
                    assert getattr(rec, f) >= getattr(prev, f)
            prev = rec

    def test_zero_rate_is_flat(self):
        result = run_simulation(small_config(lam=0.0, steps=5))
        assert all(r.counters.qubits_prepared == 0 for r in result.records)
        assert all(r.group_size == 16 for r in result.records)
        assert result.total_events == 0

    def test_minimum_group_size_enforced(self):
        cfg = small_config(
            initial_group_size=2, p_join=0.0, steps=30, lam=2.0
        )
        result = run_simulation(cfg)
        last = result.records[-1]
        assert last.group_size == 2
        assert last.skipped_leaves > 0
        assert last.leaves == 0

    def test_every_drawn_event_is_counted(self):
        cfg = small_config(initial_group_size=3, p_join=0.4, steps=30)
        result = run_simulation(cfg)
        last = result.records[-1]
        assert last.skipped_leaves > 0
        drawn = len(draw_events(cfg))
        assert last.joins + last.leaves + last.skipped_leaves == drawn
        assert result.total_events == drawn

    def test_analytic_mode_accrues_closed_forms(self):
        cfg = small_config(mode="analytic", steps=60, xi=0.25, seed=5)
        result = run_simulation(cfg)
        last = result.records[-1]
        events = last.joins + last.leaves
        assert events > 0
        mean_cost = last.counters.qubits_prepared / events
        sizes = [r.group_size for r in result.records]
        n_bar = sum(sizes) / len(sizes)
        expected = tree_average_cost(max(int(n_bar), 2), 4, 1, 0.25)
        assert abs(mean_cost - expected) / expected < 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(initial_group_size=1)
        with pytest.raises(ValueError):
            small_config(mode="fast")
        with pytest.raises(ValueError):
            small_config(p_join=2.0)

    def test_size_limits_are_inclusive(self):
        # a config builds nothing, so the limits are checked at no cost
        widest = MAX_KEY_BITS // MAX_KEY_LEN  # largest group at the longest key
        longest = MAX_KEY_BITS // MAX_GROUP_SIZE  # longest key at the largest group
        small_config(initial_group_size=widest, key_len=MAX_KEY_LEN)
        small_config(initial_group_size=MAX_GROUP_SIZE, key_len=longest)
        for too_big in (
            dict(key_len=MAX_KEY_LEN + 1),
            dict(initial_group_size=MAX_GROUP_SIZE + 1),
            dict(initial_group_size=widest + 1, key_len=MAX_KEY_LEN),
            dict(initial_group_size=MAX_GROUP_SIZE, key_len=longest + 1),
        ):
            for mode in ("sim", "analytic"):
                with pytest.raises(ValueError, match="at most"):
                    small_config(mode=mode, **too_big)


class TestEventStream:
    def test_one_event_list_across_settings(self):
        # a small group, so that some leaves are skipped at two members
        base = small_config(initial_group_size=4, p_join=0.45, steps=50, seed=7)
        events = draw_events(base)
        assert {ev.kind for ev in events} == {"join", "leave", "skip"}

        def counts(records):
            return [
                (r.joins, r.leaves, r.skipped_leaves, r.group_size) for r in records
            ]

        def drawn(evs):
            return [(ev.step, ev.kind, ev.size_after, ev.leaver) for ev in evs]

        expected = counts(run_simulation(base).records)
        settings = product((0.0, 0.25, 1.0), (1, 16), ("sim", "analytic"))
        for xi, key_len, mode in settings:
            cfg = replace(base, xi=xi, key_len=key_len, mode=mode)
            assert draw_events(cfg) == events
            result = run_simulation(cfg)
            assert drawn(result.events) == drawn(events)
            assert counts(result.records) == expected, (xi, key_len, mode)
            for backend, records in compare_backends(cfg, list(ALL_BACKENDS)).items():
                assert counts(records) == expected, (xi, key_len, mode, backend)


class TestSimVsAnalytic:
    def test_sim_slope_tracks_average_cost(self):
        # at a decoy-friendly key length the executed counters stay within
        # the documented 15% of the closed form (integer path lengths and
        # per-hop ceil rounding account for the gap)
        cfg = WorkloadConfig(
            initial_group_size=256,
            degree=4,
            key_len=16,
            xi=0.25,
            lam=1.0,
            steps=200,
            seed=3,
            mode="sim",
        )
        result = run_simulation(cfg)
        last = result.records[-1]
        events = last.joins + last.leaves
        mean_cost = last.counters.qubits_prepared / events
        sizes = [r.group_size for r in result.records]
        n_bar = sum(sizes) / len(sizes)
        expected = tree_average_cost(int(n_bar), 4, 16, 0.25)
        assert abs(mean_cost - expected) / expected < 0.15


class TestBackends:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            compare_backends(small_config(), ["tree-ghz", "carrier-pigeon"])

    def test_identical_event_sequence_across_backends(self):
        series = compare_backends(small_config(steps=30), list(ALL_BACKENDS))
        sizes = {
            name: [r.group_size for r in recs] for name, recs in series.items()
        }
        baseline = sizes["tree-ghz"]
        assert all(s == baseline for s in sizes.values())

    def test_tree_ghz_below_other_tree_backends_analytic(self):
        # all four tree families on closed-form footing, shared event stream
        cfg = small_config(
            initial_group_size=64, steps=60, xi=0.25, seed=9, mode="analytic"
        )
        series = compare_backends(
            cfg, ["tree-ghz", "tree-bell", "tree-cluster", "tree-single"]
        )
        ghz = [r.counters.qubits_prepared for r in series["tree-ghz"]]
        for other in ("tree-bell", "tree-cluster", "tree-single"):
            vals = [r.counters.qubits_prepared for r in series[other]]
            assert all(
                g <= o for g, o in zip(ghz, vals)
            ), f"tree-ghz exceeded {other}"
            assert ghz[-1] < vals[-1]

    def test_tree_ghz_below_other_tree_backends_simulated(self):
        # with a decoy-friendly key length the executed counters stay below
        # the other families too
        cfg = small_config(
            initial_group_size=64, steps=60, xi=0.25, seed=9, key_len=16
        )
        series = compare_backends(
            cfg, ["tree-ghz", "tree-bell", "tree-cluster", "tree-single"]
        )
        ghz = [r.counters.qubits_prepared for r in series["tree-ghz"]]
        for other in ("tree-bell", "tree-cluster", "tree-single"):
            vals = [r.counters.qubits_prepared for r in series[other]]
            assert all(
                g <= o for g, o in zip(ghz, vals)
            ), f"tree-ghz exceeded {other}"
            assert ghz[-1] < vals[-1]

    def test_star_costs_use_group_size(self):
        cfg = small_config(steps=20, seed=21)
        series = compare_backends(cfg, ["star-ghz"])
        base = run_simulation(cfg)
        # re-derive the expected series from the recorded events
        expected = 0.0
        by_step = {}
        for ev in base.events:
            by_step.setdefault(ev.step, 0.0)
            by_step[ev.step] += star_ghz_cost(ev.size_after, 1, 0.0)
        total = 0.0
        for rec, out in zip(base.records, series["star-ghz"]):
            total += by_step.get(rec.step, 0.0)
            assert out.counters.qubits_prepared == pytest.approx(total)

    def test_csv_embeds_config_and_is_stable(self):
        cfg = small_config(steps=10)
        series = compare_backends(cfg, ["tree-ghz", "star-bell"])
        header = cfg.as_header_items()
        text = series_csv(series["star-bell"], header + [("backend", "star-bell")])
        assert "# initial_group_size = 16" in text
        assert "# backend = star-bell" in text
        assert text.splitlines()[len(header) + 1].startswith("step,")
        again = series_csv(
            compare_backends(cfg, ["star-bell"])["star-bell"],
            header + [("backend", "star-bell")],
        )
        assert text == again
